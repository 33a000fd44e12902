//! Streaming sinks: for every worker count a collecting sink (`Vec`)
//! reproduces the collecting enumerator run for run. Closure sinks are
//! `exhaustive_correctness`'s, and the registry's own test is in
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
