//! Bench E7 — epistemic model checking of the implementation theorems.
//!
//! Reprints the implements-check table (without the heavyweight γ_fip
//! row; that one runs in the experiments binary and the test suite) and
//! measures system construction + checking cost for the minimal context.

use std::hint::black_box;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use eba_core::kbp::KnowledgeBasedProgram;
use eba_core::prelude::*;
use eba_epistemic::prelude::*;
use eba_experiments::e7_implements::{self, E7Config};
use eba_sim::prelude::Parallelism;

fn bench_e7(c: &mut Criterion) {
    let (rows, table) = e7_implements::run(E7Config {
        include_fip: false,
        include_n4_t2: true,
    });
    println!("\n{table}");
    for r in &rows {
        assert_eq!(r.mismatches, 0, "{r:?}");
    }

    let mut group = c.benchmark_group("e7_model_checking");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(5));
    group.bench_function("build_system_streamed_min_n4_t2", |b| {
        let params = Params::new(4, 2).unwrap();
        b.iter(|| {
            let sys = InterpretedSystem::from_context(
                Context::minimal(params),
                params.default_horizon(),
                10_000_000,
                Parallelism::Sequential,
            )
            .unwrap();
            black_box((sys.point_count(), sys.distinct_states()))
        })
    });
    group.bench_function("check_p0_min_n3_t1", |b| {
        let params = Params::new(3, 1).unwrap();
        let proto = PMin::new(params);
        let sys = InterpretedSystem::from_context(
            Context::minimal(params),
            params.default_horizon(),
            10_000_000,
            Parallelism::Sequential,
        )
        .unwrap();
        b.iter(|| {
            let report = check_implements(&sys, &proto, KnowledgeBasedProgram::P0);
            black_box((report.comparisons, report.evaluated_nodes))
        })
    });
    // The 33-formula standard battery, compiled into one plan/session
    // versus 33 independent recursive evals — the query-engine headline,
    // regression-tracked side by side in the `--smoke` sweep.
    group.bench_function("battery_batched_min_n3_t1", |b| {
        let params = Params::new(3, 1).unwrap();
        let sys = InterpretedSystem::from_context(
            Context::minimal(params),
            params.default_horizon(),
            10_000_000,
            Parallelism::Sequential,
        )
        .unwrap();
        let battery = standard_battery(3);
        b.iter(|| {
            let mut arena = FormulaArena::new();
            let roots: Vec<NodeId> = battery.iter().map(|f| arena.intern(f)).collect();
            let plan = QueryPlan::new(&arena, &roots);
            let session = EvalSession::evaluate(&sys, &arena, &plan);
            black_box(roots.iter().filter(|r| session.verdict(**r).holds).count())
        })
    });
    group.bench_function("battery_legacy_min_n3_t1", |b| {
        let params = Params::new(3, 1).unwrap();
        let sys = InterpretedSystem::from_context(
            Context::minimal(params),
            params.default_horizon(),
            10_000_000,
            Parallelism::Sequential,
        )
        .unwrap();
        let battery = standard_battery(3);
        b.iter(|| {
            black_box(
                battery
                    .iter()
                    .filter(|f| sys.eval_recursive(f).count() == sys.point_count())
                    .count(),
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench_e7);
criterion_main!(benches);
