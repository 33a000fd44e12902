//! The loopback driver: a registry stack run to its horizon over encoded
//! frames on the calling thread — `eba-core`'s one loop over a run's
//! rounds ([`step_rounds`]) over the wire channel.

use eba_core::context::{Context, NamedStack, MAX_HORIZON};
use eba_core::exchange::{record_decisions, step_rounds, InformationExchange, RoundBuffers};
use eba_core::failures::FailurePattern;
use eba_core::protocols::ActionProtocol;
use eba_core::types::{EbaError, Value};

use crate::channel::{RoundTraffic, WireChannel};
use crate::codec::WireCodec;

/// What a loopback run decided and what it put on the wire (by default,
/// nothing: no rounds).
#[derive(Clone, Debug, Default)]
pub struct ClusterSummary {
    /// Per-agent first decision round.
    pub decision_rounds: Vec<Option<u32>>,
    /// Per-agent decision value.
    pub decision_values: Vec<Option<Value>>,
    /// Total bytes of encoded frames the agents sent.
    pub wire_bytes_sent: u64,
    /// Total bytes actually delivered.
    pub wire_bytes_delivered: u64,
    /// Frames the agents sent.
    pub frames_sent: u64,
    /// Per-round sent/delivered frame counters (index = round).
    pub round_traffic: Vec<RoundTraffic>,
    /// Rounds executed.
    pub rounds: u32,
}

/// Admits a scenario on a registry stack, then evaluates `$run` with
/// `$ctx` bound to the stack's context and `$codec` to its wire codec —
/// the one table pairing each [`NamedStack`] with its codec. An
/// inadmissible scenario is an error prefixed with the qualified stack
/// name (`E_fip/P_opt@crash`), so a battery over many stacks reports
/// which one failed.
#[rustfmt::skip]
macro_rules! on_the_wire {
    ($stack:expr, $pattern:expr, $inits:expr, $horizon:expr, |$ctx:ident, $codec:ident| $run:expr) => {{
        use eba_core::context::{admit_scenario, error_message, NamedStack};
        let stack: &NamedStack = $stack;
        admit_scenario(stack.params(), stack.model(), $pattern, $inits, $horizon).map_err(|e| {
            let name = stack.qualified_name();
            eba_core::types::EbaError::InvalidInput(format!("{name}: {}", error_message(&e)))
        })?;
        match stack {
            NamedStack::Min($ctx) => { let $codec = $crate::MinCodec; $run }
            NamedStack::Basic($ctx) => { let $codec = $crate::BasicCodec; $run }
            NamedStack::Fip($ctx) => { let $codec = $crate::FipCodec; $run }
            NamedStack::Naive($ctx) => { let $codec = $crate::NaiveCodec; $run }
        }
    }};
}
pub(crate) use on_the_wire;

/// Runs `ctx` from `inits` for `horizon` rounds over `channel` in
/// `buffers`, recording each agent's first decision as the rounds step.
pub(crate) fn run_wire<E, P, C>(
    ctx: &Context<E, P>,
    channel: &mut WireChannel<C, E::Message, &FailurePattern>,
    inits: &[Value],
    horizon: u32,
    buffers: &mut RoundBuffers<E>,
) -> Result<ClusterSummary, EbaError>
where
    E: InformationExchange,
    P: ActionProtocol<E>,
    C: WireCodec<E::Message>,
{
    let n = inits.len();
    let (mut decision_rounds, mut decision_values) = (vec![None; n], vec![None; n]);
    let record = |m, b: &mut RoundBuffers<E>| {
        record_decisions(m, &b.actions, &mut decision_rounds, &mut decision_values);
    };
    // Sized before the shape check, as `run_rounds` sizes its rows.
    channel.traffic.reserve(horizon.min(MAX_HORIZON) as usize);
    let pattern = channel.drops;
    step_rounds(ctx, pattern, inits, horizon, channel, buffers, record)?;
    let round_traffic = std::mem::take(&mut channel.traffic);
    Ok(ClusterSummary {
        decision_rounds,
        decision_values,
        wire_bytes_sent: channel.bytes.0,
        wire_bytes_delivered: channel.bytes.1,
        frames_sent: round_traffic.iter().map(|t| t.sent).sum(),
        round_traffic,
        rounds: horizon,
    })
}

/// Runs a registry-selected stack ([`NamedStack`]) over encoded frames
/// on the calling thread: admission, the stack's wire codec, then
/// [`step_rounds`] over the wire channel — how string-keyed stack
/// selection (`-- --stack E_basic/P_basic`) reaches the transport layer,
/// and what every `eba-service` session runs. "Cluster" is a historical
/// name, from when this ran one OS thread per agent; `bench/` imports it.
///
/// ```
/// use eba_core::prelude::*;
/// use eba_transport::run_named_cluster;
///
/// # fn main() -> Result<(), EbaError> {
/// let params = Params::new(4, 1)?;
/// let stack = NamedStack::by_name("E_basic/P_basic", params)?;
/// let pattern = FailurePattern::failure_free(params);
/// let report = run_named_cluster(&stack, &pattern, &[Value::One; 4], 4)?;
/// assert!(report.decision_rounds.iter().all(|r| *r == Some(2)));
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Every shape mismatch and every drop the stack's failure model does
/// not admit, prefixed by the qualified stack name.
pub fn run_named_cluster(
    stack: &NamedStack,
    pattern: &FailurePattern,
    inits: &[Value],
    horizon: u32,
) -> Result<ClusterSummary, EbaError> {
    on_the_wire!(stack, pattern, inits, horizon, |ctx, codec| {
        let channel = &mut WireChannel::new(codec, pattern);
        run_wire(ctx, channel, inits, horizon, &mut RoundBuffers::default())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use eba_core::prelude::*;
    use eba_sim::prelude::*;

    fn params() -> Params {
        Params::new(4, 1).unwrap()
    }

    /// One loopback run of the registry stack `name`.
    fn wire(
        name: &str,
        pattern: &FailurePattern,
        inits: &[Value],
    ) -> Result<ClusterSummary, EbaError> {
        run_named_cluster(&NamedStack::by_name(name, params())?, pattern, inits, 4)
    }

    #[test]
    fn failure_free_pbasic_matches_prop82() {
        let pattern = FailurePattern::failure_free(params());
        let report = wire("E_basic/P_basic", &pattern, &[Value::One; 4]).unwrap();
        assert!(report.decision_rounds.iter().all(|r| *r == Some(2)));
        assert!(report
            .decision_values
            .iter()
            .all(|v| *v == Some(Value::One)));
    }

    #[test]
    fn cluster_matches_lockstep_simulator_exactly() {
        // Decisions here; the final states are compared in
        // `engine::tests::final_states_equal_the_lockstep_trace`.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let ctx = Context::basic(params());
        let sampler = AdversarySampler::new(FailureModel::SendingOmission, params(), 4, 0.35);
        let mut rng = StdRng::seed_from_u64(77);
        for _ in 0..40 {
            let pattern = sampler.sample(&mut rng);
            let bits: u32 = rng.random_range(0..16);
            let inits: Vec<Value> = (0..4)
                .map(|i| Value::from_bit(((bits >> i) & 1) as u8))
                .collect();
            let trace = Scenario::of(&ctx)
                .pattern(pattern.clone())
                .inits(&inits)
                .horizon(4)
                .run()
                .unwrap();
            let report = wire("E_basic/P_basic", &pattern, &inits).unwrap();
            let (rounds, values) = trace.decisions();
            assert_eq!(report.decision_rounds, rounds);
            assert_eq!(report.decision_values, values);
        }
    }

    #[test]
    fn fip_over_the_wire_matches_simulator() {
        let ctx = Context::fip(params());
        let faulty = AgentSet::singleton(AgentId::new(3));
        let pattern = silent_pattern(params(), faulty, 4).unwrap();
        let inits = [Value::One, Value::One, Value::Zero, Value::One];
        let trace = Scenario::of(&ctx)
            .pattern(pattern.clone())
            .inits(&inits)
            .horizon(4)
            .run()
            .unwrap();
        let report = wire("E_fip/P_opt", &pattern, &inits).unwrap();
        let (rounds, values) = trace.decisions();
        assert_eq!(report.decision_rounds, rounds);
        assert_eq!(report.decision_values, values);
    }

    #[test]
    fn min_wire_bytes_equal_message_count() {
        // E_min frames are exactly one byte, so wire bytes = messages = n².
        let pattern = FailurePattern::failure_free(params());
        let report = wire("E_min/P_min", &pattern, &[Value::One; 4]).unwrap();
        assert_eq!(report.wire_bytes_sent, 16);
        assert_eq!(report.frames_sent, 16);
        assert_eq!(report.wire_bytes_delivered, 16);
    }

    #[test]
    fn dropped_frames_are_not_delivered() {
        let faulty = AgentSet::singleton(AgentId::new(0));
        let pattern = silent_pattern(params(), faulty, 4).unwrap();
        let inits = [Value::Zero, Value::One, Value::One, Value::One];
        let report = wire("E_min/P_min", &pattern, &inits).unwrap();
        // a0's 3 frames to others are dropped (self-delivery kept).
        assert_eq!(report.wire_bytes_sent - report.wire_bytes_delivered, 3);
    }

    #[test]
    fn shape_errors_are_reported() {
        let pattern = FailurePattern::failure_free(params());
        let err = wire("E_min/P_min", &pattern, &[Value::One; 3]).unwrap_err();
        assert!(err.to_string().contains("inits: got 3"), "{err}");
        let other = FailurePattern::failure_free(Params::new(5, 1).unwrap());
        let err = wire("E_min/P_min", &other, &[Value::One; 4]).unwrap_err();
        assert!(
            err.to_string().contains("pattern: got a pattern built for"),
            "{err}"
        );
    }

    #[test]
    fn every_registered_stack_runs_over_the_wire() {
        // The registry reaches the transport: each named stack pairs with
        // its codec and agrees with the lockstep simulator.
        let pattern = FailurePattern::failure_free(params());
        let inits = [Value::Zero, Value::One, Value::One, Value::One];
        for name in STACK_NAMES {
            let stack = NamedStack::by_name(name, params()).unwrap();
            let report = run_named_cluster(&stack, &pattern, &inits, 4).unwrap();
            assert_eq!(report.rounds, 4, "{name}");
            assert!(report.wire_bytes_sent > 0, "{name}");
            struct Lockstep<'a> {
                pattern: &'a FailurePattern,
                inits: &'a [Value],
            }
            impl StackVisitor for Lockstep<'_> {
                type Output = (Vec<Option<u32>>, Vec<Option<Value>>);
                fn visit<E, P>(self, ctx: &Context<E, P>) -> Self::Output
                where
                    E: InformationExchange + Clone + Sync + 'static,
                    P: ActionProtocol<E> + Clone + Sync + 'static,
                {
                    let trace = Scenario::of(ctx)
                        .pattern(self.pattern.clone())
                        .inits(self.inits)
                        .horizon(4)
                        .run()
                        .expect("lockstep run");
                    trace.decisions()
                }
            }
            let (rounds, values) = stack.visit(Lockstep {
                pattern: &pattern,
                inits: &inits,
            });
            assert_eq!(report.decision_rounds, rounds, "{name}");
            assert_eq!(report.decision_values, values, "{name}");
        }
    }

    #[test]
    fn model_qualified_stacks_run_over_the_wire() {
        // A general-omission isolation adversary runs through a
        // `@general_omission` stack and agrees with the lockstep runner.
        let faulty = AgentSet::singleton(AgentId::new(0));
        let pattern = isolation_pattern(params(), faulty, 4).unwrap();
        let inits = [Value::Zero, Value::One, Value::One, Value::One];
        let stack = NamedStack::by_name("E_basic/P_basic@general_omission", params()).unwrap();
        let report = run_named_cluster(&stack, &pattern, &inits, 4).unwrap();
        let ctx = Context::basic(params()).with_model(FailureModel::GeneralOmission);
        let trace = Scenario::of(&ctx)
            .pattern(pattern.clone())
            .inits(&inits)
            .horizon(4)
            .run()
            .unwrap();
        let (rounds, values) = trace.decisions();
        assert_eq!(report.decision_rounds, rounds);
        assert_eq!(report.decision_values, values);
    }

    #[test]
    fn round_traffic_accounts_for_every_frame() {
        let faulty = AgentSet::singleton(AgentId::new(0));
        let pattern = silent_pattern(params(), faulty, 4).unwrap();
        let inits = [Value::Zero, Value::One, Value::One, Value::One];
        let report = wire("E_min/P_min", &pattern, &inits).unwrap();
        assert_eq!(report.round_traffic.len(), 4);
        // Per-round counters sum to the run totals…
        let sent: u64 = report.round_traffic.iter().map(|t| t.sent).sum();
        let dropped: u64 = report.round_traffic.iter().map(|t| t.dropped()).sum();
        assert_eq!(sent, report.frames_sent);
        // …and the silent a0 loses exactly its 3 frames to others
        // (self-delivery kept), in the round it decides.
        assert_eq!(dropped, 3);
        let mut total = RoundTraffic::default();
        for t in &report.round_traffic {
            total.absorb(t);
        }
        assert_eq!(total.sent, sent);
        assert_eq!(total.dropped(), 3);
    }

    #[test]
    fn named_cluster_errors_carry_the_qualified_stack_name() {
        let faulty = AgentSet::singleton(AgentId::new(0));
        let pattern = isolation_pattern(params(), faulty, 4).unwrap();
        let stack = NamedStack::by_name("E_fip/P_opt@crash", params()).unwrap();
        let err = run_named_cluster(&stack, &pattern, &[Value::One; 4], 4).unwrap_err();
        assert!(
            eba_core::context::error_message(&err).starts_with("E_fip/P_opt@crash: "),
            "error must lead with the qualified name: {err}"
        );
    }

    #[test]
    fn cluster_rejects_patterns_outside_the_context_model() {
        // The same isolation pattern is refused by the default SO(t)
        // context: receive-side drops are not sending omissions.
        let faulty = AgentSet::singleton(AgentId::new(0));
        let pattern = isolation_pattern(params(), faulty, 4).unwrap();
        let err = wire("E_basic/P_basic", &pattern, &[Value::One; 4]).unwrap_err();
        assert!(err.to_string().contains("sending_omission model"), "{err}");
    }
}
