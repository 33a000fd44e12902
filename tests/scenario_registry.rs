//! Streaming sinks: for every worker count a collecting sink (`Vec`)
//! reproduces the collecting enumerator run for run, and a counting sink
//! spec-checks the full `E_fip/P_opt` `(3, 1)` context without ever
//! materializing the run set. The registry's own test is in
//! `engines_agree`.

use eba::core::exchange::InformationExchange;
use eba::core::protocols::ActionProtocol;
use eba::prelude::*;

/// `Scenario::enumerate_into` with a collecting sink reproduces
/// `Scenario::enumerate` byte for byte, for every worker count.
fn assert_streaming_equals_collecting<E, P>(ctx: &Context<E, P>, horizon: u32)
where
    E: InformationExchange + Sync,
    P: ActionProtocol<E> + Sync,
{
    let label = ctx.qualified_name();
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
        let counts = (total, streamed.len());
        let expected = (reference.len(), reference.len());
        assert_eq!(counts, expected, "{label}: {workers} workers");
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
        assert_streaming_equals_collecting(&Context::minimal(params), params.default_horizon());
    }
    let params = Params::new(3, 1).unwrap();
    assert_streaming_equals_collecting(&Context::basic(params), 4);
}

/// The acceptance check: a counting sink spec-checks the **full**
/// `E_fip/P_opt` `(3, 1)` context at horizon 4 without materializing a
/// `Vec` of trajectories. Its run count is the collecting enumerator's,
/// 98,312, which `engines_agree`'s `PINNED_STREAMS` pins together with
/// the collected stream's digest, and every run passes `judge_run`.
#[test]
fn counting_sink_spec_checks_full_fip_context_without_collecting() {
    let params = Params::new(3, 1).unwrap();
    let ctx = Context::fip(params);
    let (mut count, mut ok) = (0usize, 0usize);
    let total = Scenario::of(&ctx)
        .horizon(params.default_horizon())
        .parallelism(Parallelism::Auto)
        .enumerate_into(&mut |run: EnumRun<FipExchange>| {
            count += 1;
            let verdict = judge_run(
                ctx.exchange(),
                run.nonfaulty,
                &run.inits,
                &run.states,
                &run.actions,
            );
            ok += usize::from(verdict.is_ok());
            Ok(())
        })
        .expect("streamed enumeration");
    assert_eq!((total, count), (98_312, 98_312), "the full context");
    // P_opt is correct: every run of the context satisfies the spec.
    assert_eq!(ok, count);
}
