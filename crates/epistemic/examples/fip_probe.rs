use eba_core::kbp::KnowledgeBasedProgram;
use eba_core::prelude::*;
use eba_epistemic::prelude::*;
use eba_sim::runner::Parallelism;

fn main() {
    let t0 = std::time::Instant::now();
    let params = Params::new(3, 1).unwrap();
    let ctx = Context::fip(params);
    let proto = *ctx.protocol();
    let sys = InterpretedSystem::from_context(ctx, 4, 10_000_000, Parallelism::Auto).unwrap();
    println!(
        "built: {} runs, {} points, {} distinct states in {:?}",
        sys.run_count(),
        sys.point_count(),
        sys.distinct_states(),
        t0.elapsed()
    );
    let t1 = std::time::Instant::now();
    let report = check_implements(&sys, &proto, KnowledgeBasedProgram::P1);
    println!(
        "checked {} comparisons in {:?}; mismatches: {}",
        report.comparisons,
        t1.elapsed(),
        report.mismatches.len()
    );
    for m in report.mismatches.iter().take(10) {
        println!("  {m}");
    }
}
