//! Streaming and the registry: for every worker count the streaming
//! enumeration reproduces the collecting one bit for bit, and the
//! acceptance check at the bottom spec-checks the full `E_fip/P_opt`
//! `(3, 1)` context through a counting sink without ever materializing the
//! run set.

use eba::core::exchange::InformationExchange;
use eba::core::protocols::ActionProtocol;
use eba::prelude::*;

/// The one trajectory-level spec judge, as a per-run verdict — the same
/// predicate the `--stack` CLI battery folds over its streamed
/// enumeration.
fn eba_verdict<E: InformationExchange>(ex: &E, run: &EnumRun<E>) -> bool {
    judge_run(ex, run.nonfaulty, &run.inits, &run.states, &run.actions).is_ok()
}

/// `Scenario::enumerate_into` with a collecting sink reproduces
/// `Scenario::enumerate` byte for byte, for every worker count.
fn assert_streaming_equals_collecting<E, P>(ctx: &Context<E, P>, horizon: u32, label: &str)
where
    E: InformationExchange + Sync,
    P: ActionProtocol<E> + Sync,
{
    let reference = Scenario::of(ctx)
        .horizon(horizon)
        .enumerate()
        .expect("reference enumeration");
    for workers in [1usize, 2, 3, 16] {
        let mut streamed: Vec<EnumRun<E>> = Vec::new();
        let total = Scenario::of(ctx)
            .horizon(horizon)
            .parallelism(Parallelism::Fixed(workers))
            .enumerate_into(&mut streamed)
            .expect("streaming enumeration");
        assert_eq!(
            total,
            reference.len(),
            "{label}: count with {workers} workers"
        );
        assert_eq!(
            streamed.len(),
            reference.len(),
            "{label}: {workers} workers"
        );
        for (i, (s, r)) in streamed.iter().zip(&reference).enumerate() {
            assert_eq!(s.nonfaulty, r.nonfaulty, "{label}: run {i} nonfaulty");
            assert_eq!(s.inits, r.inits, "{label}: run {i} inits");
            assert_eq!(s.states, r.states, "{label}: run {i} trajectory");
            assert_eq!(s.actions, r.actions, "{label}: run {i} actions");
        }
    }
}

#[test]
fn collecting_sink_reproduces_enumerate_parallel_across_worker_counts() {
    for (n, t) in [(2, 1), (3, 0), (3, 1), (4, 1)] {
        let params = Params::new(n, t).unwrap();
        let horizon = params.default_horizon();
        assert_streaming_equals_collecting(
            &Context::minimal(params),
            horizon,
            &format!("E_min/P_min n={n} t={t}"),
        );
    }
    let params = Params::new(3, 1).unwrap();
    assert_streaming_equals_collecting(&Context::basic(params), 4, "E_basic/P_basic n=3 t=1");
}

/// The acceptance check: a counting sink spec-checks the **full**
/// `E_fip/P_opt` `(3, 1)` context — ~100k runs — without materializing a
/// `Vec` of trajectories, and its verdicts and run count match the
/// collecting enumerator's exactly.
#[test]
fn counting_sink_spec_checks_full_fip_context_without_collecting() {
    let params = Params::new(3, 1).unwrap();
    let ctx = Context::fip(params);
    let horizon = params.default_horizon();

    let mut streamed_count = 0usize;
    let mut streamed_ok = 0usize;
    let scenario = Scenario::of(&ctx)
        .horizon(horizon)
        .parallelism(Parallelism::Auto);
    let total = scenario
        .enumerate_into(&mut |run: EnumRun<FipExchange>| {
            streamed_count += 1;
            if eba_verdict(ctx.exchange(), &run) {
                streamed_ok += 1;
            }
            Ok(())
        })
        .expect("streamed enumeration");

    let collected = scenario.enumerate().expect("collecting enumeration");
    let collected_ok = collected
        .iter()
        .filter(|r| eba_verdict(ctx.exchange(), r))
        .count();

    assert_eq!(total, collected.len());
    assert_eq!(streamed_count, collected.len());
    assert_eq!(streamed_ok, collected_ok);
    // P_opt is correct: every run of the context satisfies the spec.
    assert_eq!(streamed_ok, streamed_count);
    assert!(
        streamed_count > 90_000,
        "the full context: {streamed_count}"
    );
}

/// The registry names exactly the four stacks and rejects everything else.
#[test]
fn registry_covers_the_paper_stacks() {
    let params = Params::new(3, 1).unwrap();
    assert_eq!(STACK_NAMES.len(), 4);
    for name in STACK_NAMES {
        let stack = NamedStack::by_name(name, params).unwrap();
        assert_eq!(stack.name(), name);
    }
    assert!(NamedStack::by_name("E_fip/P_min", params).is_err());
}
