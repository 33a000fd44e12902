//! The coverage-guided adversary fuzzer, end to end on the paper's
//! motivating example: seeded from benign failure-free cases, the search
//! must find the `E_naive/P_naive@general_omission` Agreement violation,
//! shrink it strictly below the first sample, stop at a local minimum,
//! have the witness confirmed by the independent `eval_recursive`
//! evaluator, and emit an `.eba` repro that re-runs to the same verdict.

use eba::epistemic::prelude::*;
use eba::prelude::*;

/// The benign starting points the `--fuzz` CLI uses when no corpus is
/// given: failure-free patterns over a few initial-preference mixes.
fn benign_seeds(params: Params) -> Vec<Case> {
    let n = params.n();
    let pattern = FailurePattern::failure_free(params);
    let mut mixed = vec![Value::One; n];
    mixed[0] = Value::Zero;
    [vec![Value::Zero; n], vec![Value::One; n], mixed]
        .into_iter()
        .map(|inits| Case {
            pattern: pattern.clone(),
            inits,
            horizon: params.default_horizon(),
        })
        .collect()
}

#[test]
fn fuzzing_finds_shrinks_and_confirms_the_naive_agreement_violation() {
    let params = Params::new(3, 1).unwrap();
    let ctx = Context::naive(params).with_model(FailureModel::GeneralOmission);
    let seeds = benign_seeds(params);
    // None of the seeds violates anything: discovery is a real search.
    {
        let mut oracle = TraceOracle::new(&ctx);
        for seed in &seeds {
            assert!(oracle.check(seed).unwrap().violation.is_none());
        }
    }

    let config = FuzzConfig {
        seed: 0xEBA,
        iterations: 2000,
    };
    let mut oracle = EngineOracle::new(ctx);
    let report = fuzz(&seeds, &config, &mut oracle).unwrap();
    assert!(report.cases_run > seeds.len(), "mutants must actually run");
    assert!(report.coverage > 1, "distinct signatures must accumulate");

    let found = report.found.expect("the E_naive violation must be found");
    assert_eq!(found.violation.kind, "agreement", "{:?}", found.violation);
    assert!(
        found.violation.detail.contains("oracle-confirmed"),
        "{:?}",
        found.violation
    );

    // Shrinking moved strictly downward and reached a fixpoint.
    assert!(found.shrink_steps > 0, "the first sample was not minimal");
    assert!(
        found.shrunk.size() < found.first.size(),
        "shrunk {:?} !< first {:?}",
        found.shrunk.size(),
        found.first.size()
    );
    let (again, more) = shrink_case(&found.shrunk, "agreement", &mut oracle).unwrap();
    assert_eq!(more, 0, "one more pass must accept nothing");
    assert_eq!(again, found.shrunk);

    // Independent confirmation: the recursive evaluator (no compiled
    // engine involved) refutes Agreement on the minimal witness.
    let confirmed = oracle
        .confirm_recursively(&found.shrunk)
        .unwrap()
        .expect("eval_recursive must refute the spec on the witness");
    assert_eq!(confirmed.kind, "agreement", "{confirmed:?}");

    // The `.eba` repro round-trips to the same verdict.
    let spec = ScenarioSpec {
        stack: "E_naive/P_naive".into(),
        model: FailureModel::GeneralOmission,
        case: found.shrunk.clone(),
    };
    assert!(spec.validate().is_ok());
    let reparsed = parse_scenario(&spec.print()).unwrap().spec;
    assert_eq!(reparsed, spec);
    assert_eq!(
        reparsed.case, found.shrunk,
        "the repro is the witness itself"
    );
    let mut trace_oracle = TraceOracle::new(&ctx);
    let outcome = trace_oracle.check(&reparsed.case).unwrap();
    assert_eq!(
        outcome.violation.as_ref().map(|v| v.kind.as_str()),
        Some("agreement"),
        "the repro must re-run to the same verdict: {outcome:?}"
    );
}

/// The engine oracle and the trace oracle agree on every shrink candidate
/// of the found witness — the two checkers are genuinely interchangeable
/// on the cases the shrinker explores.
#[test]
fn engine_and_trace_oracles_agree_on_shrink_candidates() {
    let params = Params::new(3, 1).unwrap();
    let ctx = Context::naive(params).with_model(FailureModel::GeneralOmission);
    let config = FuzzConfig {
        seed: 0xEBA,
        iterations: 2000,
    };
    let mut engine = EngineOracle::new(ctx);
    let found = fuzz(&benign_seeds(params), &config, &mut engine)
        .unwrap()
        .found
        .expect("the violation must be found");
    let mut trace = TraceOracle::new(&ctx);
    for cand in shrink_candidates(&found.first, FailureModel::GeneralOmission) {
        let e = engine.check(&cand).unwrap();
        let t = trace.check(&cand).unwrap();
        assert_eq!(e.decisions, t.decisions, "{cand:?}");
        // The trace predicate also checks clauses outside the formula
        // battery (unique decision, the t+2 bound), so only the
        // formula-level verdicts must match.
        let e_kind = e.violation.as_ref().map(|v| v.kind.as_str());
        let t_kind = t.violation.as_ref().map(|v| v.kind.as_str());
        if matches!(
            t_kind,
            None | Some("agreement" | "validity" | "termination")
        ) {
            assert_eq!(e_kind, t_kind, "{cand:?}");
        }
    }
}
