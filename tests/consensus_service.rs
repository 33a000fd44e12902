//! Integration tests for the multiplexed consensus service:
//!
//! * on random instances (all four stacks, all four failure models,
//!   adversary-sampled patterns), every multiplexed session's decision
//!   vector equals the lockstep simulator's, and what the service derives
//!   per session and folds per round equals a loopback run of each spec;
//! * backpressure admits a large batch through a tiny admission window
//!   without losing or stalling anything, and across pool and window
//!   sizes admission defers exactly `sessions − capacity` times with the
//!   window saturated and every outcome, filed in spec order, equal to
//!   its loopback run;
//! * the deterministic seeded `--load` mix decides every admitted
//!   session and reproduces the same decisions run over run.

use eba::experiments::service_cli::{self, LoadConfig};
use eba::prelude::*;
use eba::service::{run_service, ServiceConfig, ServiceReport, SessionSpec};
use eba::transport::{run_named_cluster, RoundTraffic};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One adversary-sampled session per stack under the given model.
fn mixed_specs(
    n: usize,
    t: usize,
    model: FailureModel,
    drop_prob: f64,
    seed: u64,
) -> Vec<SessionSpec> {
    let params = Params::new(n, t).unwrap();
    let horizon = params.default_horizon();
    let sampler = AdversarySampler::new(model, params, horizon, drop_prob);
    let mut rng = StdRng::seed_from_u64(seed);
    STACK_NAMES
        .iter()
        .map(|stack| {
            let pattern = sampler.sample(&mut rng);
            let inits: Vec<Value> = (0..n)
                .map(|_| Value::from_bit(rng.random_range(0..2u8)))
                .collect();
            SessionSpec::new(
                format!("{stack}{}", model.suffix()),
                params,
                pattern,
                inits,
                horizon,
            )
        })
        .collect()
}

/// One session's decisions: `(spec index, rounds, values)`.
type SessionDecisions = (usize, Vec<Option<u32>>, Vec<Option<Value>>);

/// Each outcome's decisions with its spec index, in the order the report
/// files them: spec order.
fn decisions_by_spec(report: &ServiceReport) -> Vec<SessionDecisions> {
    report
        .outcomes
        .iter()
        .map(|o| {
            (
                o.spec_index,
                o.decision_rounds.clone(),
                o.decision_values.clone(),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The service's built-in oracle pass compares every session with
    /// `Scenario::run` — a different kernel with no codec, which catches
    /// an engine or codec bug. The `run_named_cluster` re-run below is
    /// the *same* `run_engine` loop each session ran, so it cannot catch
    /// those; it is the reference for what the service derives around
    /// that loop. Decisions: a completion filed under the wrong spec as
    /// the window moves. `frames_sent`, `frames_dropped`, `rounds`: the
    /// outcome built from the session's summary. `round_traffic`: the
    /// calling thread's fold over retired sessions, against the per-round
    /// sum of the loopbacks'.
    #[test]
    fn multiplexed_sessions_match_the_lockstep_cluster(
        n in 3usize..6,
        model_idx in 0usize..4,
        seed in any::<u64>(),
        drop_prob in 0.0f64..0.8,
    ) {
        let t = (n - 1) / 2;
        let model = FailureModel::by_name(MODEL_NAMES[model_idx]).unwrap();
        let specs = mixed_specs(n, t, model, drop_prob, seed);
        let config = ServiceConfig {
            workers: 2,
            capacity: 3, // smaller than the batch: admission must defer
            oracle_stride: Some(1),
        };
        let report = run_service(&specs, &config).unwrap();
        prop_assert_eq!(report.admitted, specs.len());
        prop_assert_eq!(report.outcomes.len(), specs.len());
        prop_assert_eq!(report.oracle_checked, specs.len());
        prop_assert_eq!(report.oracle_mismatches, 0);

        let mut folded: Vec<RoundTraffic> = Vec::new();
        for outcome in &report.outcomes {
            let spec = &specs[outcome.spec_index];
            let stack = NamedStack::by_name(&spec.stack, spec.params).unwrap();
            let loopback =
                run_named_cluster(&stack, &spec.pattern, &spec.inits, spec.horizon).unwrap();
            prop_assert_eq!(&outcome.decision_rounds, &loopback.decision_rounds);
            prop_assert_eq!(&outcome.decision_values, &loopback.decision_values);
            prop_assert_eq!(outcome.rounds, loopback.rounds);
            prop_assert_eq!(outcome.frames_sent, loopback.frames_sent);
            let dropped: u64 = loopback.round_traffic.iter().map(|t| t.dropped()).sum();
            prop_assert_eq!(outcome.frames_dropped, dropped);
            if folded.len() < loopback.round_traffic.len() {
                folded.resize(loopback.round_traffic.len(), RoundTraffic::default());
            }
            for (total, round) in folded.iter_mut().zip(&loopback.round_traffic) {
                total.absorb(round);
            }
        }
        prop_assert_eq!(&report.round_traffic, &folded);
    }
}

/// A 48-session batch through a 4-session window: admission defers but
/// never drops, the window saturates, and every admitted session still
/// decides.
#[test]
fn backpressure_admits_a_large_batch_through_a_tiny_table() {
    let model = FailureModel::by_name("sending_omission").unwrap();
    let mut specs = Vec::new();
    for seed in 0..12u64 {
        specs.extend(mixed_specs(3, 1, model, 0.3, seed));
    }
    let config = ServiceConfig {
        workers: 2,
        capacity: 4,
        oracle_stride: Some(5),
    };
    let report = run_service(&specs, &config).unwrap();
    assert_eq!(report.admitted, specs.len());
    assert_eq!(report.outcomes.len(), specs.len());
    assert!(
        report.deferrals > 0,
        "a 4-session window must defer admissions"
    );
    assert_eq!(report.peak_in_flight, 4, "the window must saturate");
    assert_eq!(
        report.decided_sessions(),
        specs.len(),
        "every admitted session must decide"
    );
    assert_eq!(report.oracle_mismatches, 0);
}

/// Every pool size × window size drives the same seeded 512-session (3,1)
/// batch — all four stacks under all four models — to the same result.
/// Admission is in spec order and each retirement admits one session, so
/// every spec after the first `capacity` waits exactly once:
/// `deferrals == 512 − capacity`, whatever the scheduling. Each outcome,
/// filed in spec order, equals its spec's loopback run, and the calling
/// thread's per-round fold equals the sum of the loopbacks' traffic.
#[test]
fn admission_counts_and_outcomes_hold_across_pool_and_table_sizes() {
    const SESSIONS: usize = 512;
    let mut specs = Vec::with_capacity(SESSIONS);
    for seed in 0..(SESSIONS / STACK_NAMES.len()) as u64 {
        let model = MODEL_NAMES[seed as usize % MODEL_NAMES.len()];
        let model = FailureModel::by_name(model).unwrap();
        specs.extend(mixed_specs(3, 1, model, 0.4, 0x5EED ^ seed));
    }
    assert_eq!(specs.len(), SESSIONS);

    let loopbacks: Vec<_> = specs
        .iter()
        .map(|spec| {
            let stack = NamedStack::by_name(&spec.stack, spec.params).unwrap();
            run_named_cluster(&stack, &spec.pattern, &spec.inits, spec.horizon).unwrap()
        })
        .collect();
    let mut folded: Vec<RoundTraffic> = Vec::new();
    for loopback in &loopbacks {
        if folded.len() < loopback.round_traffic.len() {
            folded.resize(loopback.round_traffic.len(), RoundTraffic::default());
        }
        for (total, round) in folded.iter_mut().zip(&loopback.round_traffic) {
            total.absorb(round);
        }
    }

    for workers in [1, 2, 3] {
        for capacity in [1, 4, 64] {
            let config = ServiceConfig {
                workers,
                capacity,
                ..Default::default()
            };
            let report = run_service(&specs, &config).unwrap();
            let at = format!("workers {workers}, capacity {capacity}");
            assert_eq!(report.admitted, SESSIONS, "{at}");
            assert_eq!(report.outcomes.len(), SESSIONS, "{at}");
            assert_eq!(report.deferrals, (SESSIONS - capacity) as u64, "{at}");
            assert_eq!(report.peak_in_flight, capacity, "{at}");
            for (i, (spec_index, rounds, values)) in
                decisions_by_spec(&report).into_iter().enumerate()
            {
                assert_eq!(spec_index, i, "{at}: every spec reports once, in order");
                let loopback = &loopbacks[spec_index];
                assert_eq!(rounds, loopback.decision_rounds, "{at}, spec {spec_index}");
                assert_eq!(values, loopback.decision_values, "{at}, spec {spec_index}");
            }
            assert_eq!(report.round_traffic, folded, "{at}");
        }
    }
}

/// The seeded `--load` mix is a smoke of the whole CLI path: every
/// admitted session decides, the sampled oracle subset is clean, and the
/// same seed reproduces the same decision vectors whatever order the
/// workers pick the sessions up and report them in.
#[test]
fn seeded_load_smoke_decides_every_admitted_session() {
    let config = LoadConfig {
        sessions: 96,
        capacity: 24,
        workers: 2,
        oracle_stride: 7,
        ..LoadConfig::default()
    };
    let (report, _) = service_cli::run_load(&config).unwrap();
    assert_eq!(report.admitted, config.sessions);
    assert_eq!(report.decided_sessions(), config.sessions);
    assert!(report.oracle_checked > 0);
    assert_eq!(report.oracle_mismatches, 0);
    assert!(report.service_seconds > 0.0);

    let (again, _) = service_cli::run_load(&config).unwrap();
    assert_eq!(decisions_by_spec(&report), decisions_by_spec(&again));
}
