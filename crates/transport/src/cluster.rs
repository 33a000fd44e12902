//! The threaded cluster: one OS thread per agent, a router enforcing
//! synchronous rounds and injecting omission faults.

use crossbeam_channel::{bounded, unbounded, Receiver, Sender};

use eba_core::context::{admit_scenario, Context, NamedStack};
use eba_core::exchange::InformationExchange;
use eba_core::failures::FailurePattern;
use eba_core::protocols::ActionProtocol;
use eba_core::types::{Action, AgentId, EbaError, Value};

use crate::codec::{BasicCodec, FipCodec, MinCodec, NaiveCodec, WireCodec};

/// What one agent sends to the router in a round: one optional frame per
/// recipient.
struct Batch {
    from: usize,
    round: u32,
    frames: Vec<Option<Vec<u8>>>,
}

/// What the router delivers to one agent: one optional frame per sender.
struct Inbox {
    frames: Vec<Option<Vec<u8>>>,
}

/// Per-agent final report.
struct AgentReport<S> {
    agent: usize,
    decision_round: Option<u32>,
    decision_value: Option<Value>,
    final_state: S,
}

/// Per-round message counters, shared by the lockstep cluster
/// ([`TransportReport`]) and the multiplexed service (`ServiceReport` in
/// `eba-service`), so both paths report comparable observability data.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RoundTraffic {
    /// Frames handed to the router in this round (dropped frames
    /// included — the sender did the work).
    pub sent: u64,
    /// Frames actually delivered in this round.
    pub delivered: u64,
}

impl RoundTraffic {
    /// Frames the failure pattern suppressed in this round.
    pub fn dropped(&self) -> u64 {
        self.sent - self.delivered
    }

    /// Accumulates another counter into this one (used when folding
    /// per-session traffic into a service-wide total).
    pub fn absorb(&mut self, other: &RoundTraffic) {
        self.sent += other.sent;
        self.delivered += other.delivered;
    }
}

/// The outcome of a cluster execution.
#[derive(Clone, Debug)]
pub struct TransportReport<E: InformationExchange> {
    /// Per-agent first decision round.
    pub decision_rounds: Vec<Option<u32>>,
    /// Per-agent decision value.
    pub decision_values: Vec<Option<Value>>,
    /// Per-agent final state after the last round.
    pub final_states: Vec<E::State>,
    /// Total bytes of encoded frames handed to the router (dropped frames
    /// included — the sender did the work).
    pub wire_bytes_sent: u64,
    /// Total bytes actually delivered.
    pub wire_bytes_delivered: u64,
    /// Frames handed to the router.
    pub frames_sent: u64,
    /// Per-round sent/delivered frame counters (index = round).
    pub round_traffic: Vec<RoundTraffic>,
    /// Rounds executed.
    pub rounds: u32,
}

/// Runs a [`Context`] on one thread per agent for `horizon` rounds: the
/// context supplies both halves of the stack (and its failure model,
/// which the injected pattern must be admissible under), the caller
/// supplies the wire codec.
///
/// The router collects every agent's outgoing frames before delivering
/// any — rounds are strictly synchronous, matching the model of Section 3.
/// Omissions are injected at the router according to `pattern`, exactly
/// where a real lossy network would lose them.
///
/// # Errors
///
/// Returns [`EbaError::InvalidInput`] listing every problem
/// [`admit_scenario`] finds: shape mismatches (wrong number of initial
/// preferences, pattern built for other parameters) and drops that are
/// not admissible under the context's
/// [`FailureModel`](eba_core::failures::FailureModel) through the whole
/// horizon — e.g. a silent sending-omission adversary injected into an
/// `@failure_free` context.
///
/// # Panics
///
/// Panics if an agent thread panics (e.g. a protocol bug).
pub fn run_context_cluster<E, P, C>(
    ctx: &Context<E, P>,
    codec: &C,
    pattern: &FailurePattern,
    inits: &[Value],
    horizon: u32,
) -> Result<TransportReport<E>, EbaError>
where
    E: InformationExchange + Sync,
    P: ActionProtocol<E> + Sync,
    C: WireCodec<E::Message>,
{
    let (ex, proto) = (ctx.exchange(), ctx.protocol());
    let n = ctx.params().n();
    admit_scenario(ctx.params(), ctx.model(), pattern, inits, horizon)?;

    // Agents → router (shared), router → each agent (private), agents →
    // collector for final reports.
    let (batch_tx, batch_rx): (Sender<Batch>, Receiver<Batch>) = unbounded();
    let mut inbox_txs: Vec<Sender<Inbox>> = Vec::with_capacity(n);
    let mut inbox_rxs: Vec<Option<Receiver<Inbox>>> = Vec::with_capacity(n);
    for _ in 0..n {
        let (tx, rx) = bounded(1);
        inbox_txs.push(tx);
        inbox_rxs.push(Some(rx));
    }
    let (report_tx, report_rx) = unbounded::<AgentReport<E::State>>();

    let mut wire_bytes_sent = 0u64;
    let mut wire_bytes_delivered = 0u64;
    let mut frames_sent = 0u64;
    let mut round_traffic: Vec<RoundTraffic> = Vec::with_capacity(horizon as usize);

    std::thread::scope(|scope| {
        // Agent threads.
        for i in 0..n {
            let inbox_rx = inbox_rxs[i].take().expect("one receiver per agent");
            let batch_tx = batch_tx.clone();
            let report_tx = report_tx.clone();
            let init = inits[i];
            scope.spawn(move || {
                let me = AgentId::new(i);
                let mut state = ex.initial_state(me, init);
                let mut decision_round = None;
                let mut decision_value = None;
                for m in 0..horizon {
                    let action = proto.act(me, &state);
                    if let Action::Decide(v) = action {
                        if decision_round.is_none() {
                            decision_round = Some(m + 1);
                            decision_value = Some(v);
                        }
                    }
                    let outgoing = ex.outgoing(me, &state, action);
                    let frames: Vec<Option<Vec<u8>>> = outgoing
                        .iter()
                        .map(|msg| msg.as_ref().map(|msg| codec.encode(msg)))
                        .collect();
                    batch_tx
                        .send(Batch {
                            from: i,
                            round: m,
                            frames,
                        })
                        .expect("router alive");
                    let inbox = inbox_rx.recv().expect("router delivers every round");
                    let received: Vec<Option<E::Message>> = inbox
                        .frames
                        .iter()
                        .map(|f| f.as_deref().map(|bytes| codec.decode(bytes)))
                        .collect();
                    state = ex.update(me, &state, action, &received);
                }
                report_tx
                    .send(AgentReport {
                        agent: i,
                        decision_round,
                        decision_value,
                        final_state: state,
                    })
                    .expect("collector alive");
            });
        }
        drop(batch_tx);
        drop(report_tx);

        // Router: collect all n batches, apply the failure pattern,
        // deliver.
        for m in 0..horizon {
            let mut frames: Vec<Option<Vec<Option<Vec<u8>>>>> = (0..n).map(|_| None).collect();
            for _ in 0..n {
                let batch = batch_rx.recv().expect("agents alive");
                assert_eq!(batch.round, m, "agent raced ahead of the round barrier");
                assert!(frames[batch.from].is_none(), "duplicate batch");
                frames[batch.from] = Some(batch.frames);
            }
            let frames: Vec<Vec<Option<Vec<u8>>>> = frames
                .into_iter()
                .map(|f| f.expect("all agents sent"))
                .collect();
            let mut traffic = RoundTraffic::default();
            for row in frames.iter() {
                for frame in row.iter().flatten() {
                    frames_sent += 1;
                    traffic.sent += 1;
                    wire_bytes_sent += frame.len() as u64;
                }
            }
            for to in 0..n {
                let inbox_frames: Vec<Option<Vec<u8>>> = (0..n)
                    .map(|from| {
                        let frame = frames[from][to].clone();
                        match frame {
                            Some(f)
                                if pattern.delivers(m, AgentId::new(from), AgentId::new(to)) =>
                            {
                                wire_bytes_delivered += f.len() as u64;
                                traffic.delivered += 1;
                                Some(f)
                            }
                            _ => None,
                        }
                    })
                    .collect();
                inbox_txs[to]
                    .send(Inbox {
                        frames: inbox_frames,
                    })
                    .expect("agent alive");
            }
            round_traffic.push(traffic);
        }

        // Collect reports.
        let mut decision_rounds = vec![None; n];
        let mut decision_values = vec![None; n];
        let mut final_states: Vec<Option<E::State>> = (0..n).map(|_| None).collect();
        for _ in 0..n {
            let r = report_rx.recv().expect("every agent reports");
            decision_rounds[r.agent] = r.decision_round;
            decision_values[r.agent] = r.decision_value;
            final_states[r.agent] = Some(r.final_state);
        }
        Ok(TransportReport {
            decision_rounds,
            decision_values,
            final_states: final_states
                .into_iter()
                .map(|s| s.expect("every agent reported"))
                .collect(),
            wire_bytes_sent,
            wire_bytes_delivered,
            frames_sent,
            round_traffic,
            rounds: horizon,
        })
    })
}

/// A name-erased cluster outcome, for stacks selected from the registry
/// at runtime (final states are stack-specific and therefore dropped).
#[derive(Clone, Debug)]
pub struct ClusterSummary {
    /// Per-agent first decision round.
    pub decision_rounds: Vec<Option<u32>>,
    /// Per-agent decision value.
    pub decision_values: Vec<Option<Value>>,
    /// Total bytes of encoded frames handed to the router.
    pub wire_bytes_sent: u64,
    /// Total bytes actually delivered.
    pub wire_bytes_delivered: u64,
    /// Frames handed to the router.
    pub frames_sent: u64,
    /// Per-round sent/delivered frame counters (index = round).
    pub round_traffic: Vec<RoundTraffic>,
    /// Rounds executed.
    pub rounds: u32,
}

impl<E: InformationExchange> From<TransportReport<E>> for ClusterSummary {
    fn from(report: TransportReport<E>) -> Self {
        ClusterSummary {
            decision_rounds: report.decision_rounds,
            decision_values: report.decision_values,
            wire_bytes_sent: report.wire_bytes_sent,
            wire_bytes_delivered: report.wire_bytes_delivered,
            frames_sent: report.frames_sent,
            round_traffic: report.round_traffic,
            rounds: report.rounds,
        }
    }
}

/// Runs a registry-selected stack ([`NamedStack`]) on the threaded
/// cluster, pairing each exchange with its wire codec — this is how
/// string-keyed stack selection (`-- --stack E_basic/P_basic`) reaches
/// the transport layer.
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
/// Exactly as [`run_context_cluster`], with every message prefixed by the
/// qualified stack name (`E_fip/P_opt@crash`) so a battery over many
/// registry stacks reports which one failed.
pub fn run_named_cluster(
    stack: &NamedStack,
    pattern: &FailurePattern,
    inits: &[Value],
    horizon: u32,
) -> Result<ClusterSummary, EbaError> {
    let summary = match stack {
        NamedStack::Min(ctx) => {
            run_context_cluster(ctx, &MinCodec, pattern, inits, horizon).map(Into::into)
        }
        NamedStack::Basic(ctx) => {
            run_context_cluster(ctx, &BasicCodec, pattern, inits, horizon).map(Into::into)
        }
        NamedStack::Fip(ctx) => {
            run_context_cluster(ctx, &FipCodec, pattern, inits, horizon).map(Into::into)
        }
        NamedStack::Naive(ctx) => {
            run_context_cluster(ctx, &NaiveCodec, pattern, inits, horizon).map(Into::into)
        }
    };
    summary.map_err(|e| {
        EbaError::InvalidInput(format!(
            "{}: {}",
            stack.qualified_name(),
            eba_core::context::error_message(&e)
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{BasicCodec, FipCodec, MinCodec};
    use eba_core::prelude::*;
    use eba_sim::prelude::*;

    fn params() -> Params {
        Params::new(4, 1).unwrap()
    }

    #[test]
    fn failure_free_pbasic_matches_prop82() {
        let ctx = Context::basic(params());
        let pattern = FailurePattern::failure_free(params());
        let report = run_context_cluster(&ctx, &BasicCodec, &pattern, &[Value::One; 4], 4).unwrap();
        assert!(report.decision_rounds.iter().all(|r| *r == Some(2)));
        assert!(report
            .decision_values
            .iter()
            .all(|v| *v == Some(Value::One)));
    }

    #[test]
    fn cluster_matches_lockstep_simulator_exactly() {
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
                .run()
                .unwrap();
            let report =
                run_context_cluster(&ctx, &BasicCodec, &pattern, &inits, trace.horizon()).unwrap();
            assert_eq!(report.decision_rounds, trace.metrics.decision_rounds);
            assert_eq!(report.decision_values, trace.metrics.decision_values);
            // Final states agree bit for bit (codecs are loss-free).
            let last = trace.states.last().unwrap();
            assert_eq!(&report.final_states, last);
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
            .run()
            .unwrap();
        let report =
            run_context_cluster(&ctx, &FipCodec, &pattern, &inits, trace.horizon()).unwrap();
        assert_eq!(report.decision_rounds, trace.metrics.decision_rounds);
        assert_eq!(&report.final_states, trace.states.last().unwrap());
    }

    #[test]
    fn min_wire_bytes_equal_message_count() {
        // E_min frames are exactly one byte, so wire bytes = messages = n².
        let ctx = Context::minimal(params());
        let pattern = FailurePattern::failure_free(params());
        let report = run_context_cluster(&ctx, &MinCodec, &pattern, &[Value::One; 4], 4).unwrap();
        assert_eq!(report.wire_bytes_sent, 16);
        assert_eq!(report.frames_sent, 16);
        assert_eq!(report.wire_bytes_delivered, 16);
    }

    #[test]
    fn dropped_frames_are_not_delivered() {
        let ctx = Context::minimal(params());
        let faulty = AgentSet::singleton(AgentId::new(0));
        let pattern = silent_pattern(params(), faulty, 4).unwrap();
        let inits = [Value::Zero, Value::One, Value::One, Value::One];
        let report = run_context_cluster(&ctx, &MinCodec, &pattern, &inits, 4).unwrap();
        // a0's 3 frames to others are dropped (self-delivery kept).
        assert_eq!(report.wire_bytes_sent - report.wire_bytes_delivered, 3);
    }

    #[test]
    fn shape_errors_are_reported() {
        let ctx = Context::minimal(params());
        let pattern = FailurePattern::failure_free(params());
        let err = run_context_cluster(&ctx, &MinCodec, &pattern, &[Value::One; 3], 4).unwrap_err();
        assert!(err.to_string().contains("inits: got 3"), "{err}");
        let other = FailurePattern::failure_free(Params::new(5, 1).unwrap());
        let err = run_context_cluster(&ctx, &MinCodec, &other, &[Value::One; 4], 4).unwrap_err();
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
                    (
                        trace.metrics.decision_rounds.clone(),
                        trace.metrics.decision_values.clone(),
                    )
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
        assert_eq!(report.decision_rounds, trace.metrics.decision_rounds);
        assert_eq!(report.decision_values, trace.metrics.decision_values);
    }

    #[test]
    fn round_traffic_accounts_for_every_frame() {
        let ctx = Context::minimal(params());
        let faulty = AgentSet::singleton(AgentId::new(0));
        let pattern = silent_pattern(params(), faulty, 4).unwrap();
        let inits = [Value::Zero, Value::One, Value::One, Value::One];
        let report = run_context_cluster(&ctx, &MinCodec, &pattern, &inits, 4).unwrap();
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
        let ctx = Context::basic(params());
        let err =
            run_context_cluster(&ctx, &BasicCodec, &pattern, &[Value::One; 4], 4).unwrap_err();
        assert!(err.to_string().contains("sending_omission model"), "{err}");
    }
}
