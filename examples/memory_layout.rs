//! Measures the interned-arena memory layout against the collected
//! reference path (`eba::epistemic::oracle`) on the full `E_fip/P_opt` `(3, 1)` system — the
//! numbers behind the "memory layout & scaling" section of
//! `docs/GUIDE.md`.
//!
//! One phase per process so the kernel's peak-RSS high-water mark
//! (`VmHWM`) measures exactly that phase:
//!
//! ```text
//! cargo run --release --example memory_layout -- streamed    # arena build
//! cargo run --release --example memory_layout -- collected   # reference build
//! cargo run --release --example memory_layout -- fip41       # (4,1) reach, P0 and P1
//! ```

use eba::core::kbp::KnowledgeBasedProgram;
use eba::epistemic::prelude::*;
use eba::prelude::*;

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn report<E: eba::core::exchange::InformationExchange>(
    label: &str,
    sys: &InterpretedSystem<E>,
    secs: f64,
) {
    let nodes = sys.store().node_count();
    println!(
        "{label}: {} runs, {} points, {nodes} nodes ({} below the horizon), \
         {} distinct states ({:.1}% of the {} (agent, point) slots), {secs:.2}s, \
         peak RSS {:.0} MiB",
        sys.run_count(),
        sys.point_count(),
        nodes - sys.run_count(),
        sys.distinct_states(),
        100.0 * sys.distinct_states() as f64 / (sys.params().n() * sys.point_count()) as f64,
        sys.params().n() * sys.point_count(),
        peak_rss_mb(),
    );
}

fn main() {
    let mode = std::env::args().nth(1).unwrap_or_else(|| "streamed".into());
    let params = Params::new(3, 1).unwrap();
    let t0 = std::time::Instant::now();
    match mode.as_str() {
        // Enumeration streams into the interned store's prefix tree;
        // the run vector never exists.
        "streamed" => {
            let sys = InterpretedSystem::from_context(
                Context::fip(params),
                4,
                10_000_000,
                Parallelism::Auto,
            )
            .unwrap();
            report("streamed  fip(3,1)", &sys, t0.elapsed().as_secs_f64());
            assert!(sys.run_count() > 90_000);
        }
        // The reference path: collect every trajectory, then classify.
        "collected" => {
            let ctx = Context::fip(params);
            // Same enumeration parallelism as the streamed mode, so the
            // comparison isolates the storage layout.
            let runs = Scenario::of(&ctx)
                .horizon(4)
                .parallelism(Parallelism::Auto)
                .enumerate()
                .unwrap();
            let sys =
                eba::epistemic::oracle::from_runs(FipExchange::new(params), &runs, 4).unwrap();
            drop(runs);
            report("collected fip(3,1)", &sys, t0.elapsed().as_secs_f64());
        }
        // Newly reachable scale: the (4, 1) full-information system.
        "fip41" => {
            let params = Params::new(4, 1).unwrap();
            let sys = InterpretedSystem::from_context(
                Context::fip(params),
                params.default_horizon(),
                50_000_000,
                Parallelism::Auto,
            )
            .unwrap();
            report("streamed  fip(4,1)", &sys, t0.elapsed().as_secs_f64());
            // Thms 6.6 and A.21 at (4, 1): exit 1 on any mismatch.
            let mut ok = true;
            for program in [KnowledgeBasedProgram::P0, KnowledgeBasedProgram::P1] {
                let check = std::time::Instant::now();
                let report = check_implements(&sys, &POpt::new(params), program);
                println!(
                    "  P_opt implements {} at (4,1): {} ({} comparisons, {} mismatches, {:.2}s)",
                    program.name(),
                    if report.is_ok() { "yes" } else { "NO" },
                    report.comparisons,
                    report.mismatches.len(),
                    check.elapsed().as_secs_f64()
                );
                ok &= report.is_ok();
            }
            // The run-major point table this store replaced peaked at
            // 1,054 MiB building this system on 2 vCPUs.
            let peak = peak_rss_mb();
            println!(
                "  peak RSS {peak:.0} MiB: {:.2}x below the point table's 1,054 MiB (target >= 1.5x)",
                1054.0 / peak
            );
            if !ok {
                std::process::exit(1);
            }
        }
        other => {
            eprintln!("unknown mode {other:?}: use streamed | collected | fip41");
            std::process::exit(2);
        }
    }
}
