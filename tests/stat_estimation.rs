//! Facade-level integration tests for the statistical model checker:
//! the `eba::stat` surface, cross-validation against the exhaustive
//! reference at checkable sizes, and worker-count invariance of the
//! sharded estimator. Trial counts are kept small — these run in debug
//! mode alongside the rest of the tier-1 suite.

use eba::prelude::*;
use eba::stat::prelude::*;

fn stack(name: &str, n: usize, t: usize) -> NamedStack {
    NamedStack::by_name(name, Params::new(n, t).unwrap()).unwrap()
}

#[test]
fn a_correct_stack_estimates_as_fully_valid() {
    let target = stack("E_min/P_min", 3, 1);
    let mut plan = TrialPlan::new(2_000, target.params().default_horizon());
    plan.scheme = SampleScheme::Stratified;
    let est = estimate(&target, &plan, Parallelism::Sequential).unwrap();
    assert_eq!(est.violations, 0);
    assert_eq!(est.trials, 2_000);
    assert_eq!(est.validity_interval().hi, 1.0);
    assert_eq!(est.wilson.lo, 0.0);
}

#[test]
fn the_naive_stack_estimate_brackets_the_exhaustive_verdict() {
    let target = stack("E_naive/P_naive", 3, 1);
    let mut plan = TrialPlan::new(8_192, target.params().default_horizon());
    plan.scheme = SampleScheme::Uniform;
    let exact = exact_violation_probability(&target, &plan).unwrap();
    assert!(exact > 0.0, "the naive stack must be buggy at (3,1)");
    let est = estimate(&target, &plan, Parallelism::Auto).unwrap();
    assert!(est.violations > 0);
    assert!(
        est.wilson.contains(exact),
        "Wilson [{:.4}, {:.4}] misses exact {:.4}",
        est.wilson.lo,
        est.wilson.hi,
        exact
    );
    assert!(est.clopper_pearson.contains(exact));
    // Violating repros replay as genuine spec violations.
    assert!(!est.repros.is_empty());
    for repro in &est.repros {
        assert!(repro.engine_confirmed, "repro not confirmed by the engine");
    }
}

#[test]
fn estimates_are_invariant_under_the_worker_count() {
    // 4,096 + 17 trials: four full blocks and a partial fifth, so 64
    // workers outnumber the blocks and the last block is short.
    let target = stack("E_naive/P_naive", 4, 1);
    let plan = TrialPlan::new(4_096 + 17, target.params().default_horizon());
    let seq = estimate(&target, &plan, Parallelism::Sequential).unwrap();
    assert!(!seq.repros.is_empty());
    for workers in [2, 3, 64] {
        let par = estimate(&target, &plan, Parallelism::Fixed(workers)).unwrap();
        assert_eq!(seq.trials, par.trials, "workers = {workers}");
        assert_eq!(seq.violations, par.violations, "workers = {workers}");
        assert_eq!(seq.wilson.lo.to_bits(), par.wilson.lo.to_bits());
        assert_eq!(seq.wilson.hi.to_bits(), par.wilson.hi.to_bits());
        assert_eq!(seq.kind_counts, par.kind_counts);
        let strata = |est: &Estimate| -> Vec<(u64, u64)> {
            est.strata
                .iter()
                .map(|s| (s.trials, s.violations))
                .collect()
        };
        assert_eq!(strata(&seq), strata(&par), "workers = {workers}");
        let repros = |est: &Estimate| -> Vec<(Case, &str, bool)> {
            let repro = |r: &ViolatingSample| (r.case.clone(), r.kind, r.engine_confirmed);
            est.repros.iter().map(repro).collect()
        };
        assert_eq!(repros(&seq), repros(&par), "workers = {workers}");
    }
}
