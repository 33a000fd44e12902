//! The one-round adaptor over the wire channel, kept for `bench/`'s
//! layer probe, which drives a session's rounds itself. It has no loop:
//! each [`outgoing`](SessionEngine::outgoing) /
//! [`deliver`](SessionEngine::deliver) pair is one round of `eba-core`'s
//! kernel over the wire channel, whose drops are the marks the caller
//! removed in between. Every run steps `eba-core`'s one loop instead.

use eba_core::context::{Context, NamedStack};
use eba_core::exchange::{
    choose_actions, deliver_round, initial_states, record_decisions, select_round, Channel,
    InformationExchange, RoundBuffers,
};
use eba_core::failures::FailurePattern;
use eba_core::protocols::ActionProtocol;
use eba_core::types::{EbaError, Value};

use crate::channel::{Frame, RoundFrames, WireChannel};
use crate::cluster::on_the_wire;
use crate::codec::WireCodec;

/// A type-erased EBA session advancing one synchronous round per
/// [`outgoing`](SessionEngine::outgoing) /
/// [`deliver`](SessionEngine::deliver) pair; the caller drops the marks
/// the failure pattern drops in between.
pub trait SessionEngine: Send {
    /// The current (0-based) message round.
    fn round(&self) -> u32;

    /// Whether the horizon has been reached.
    fn finished(&self) -> bool;

    /// Acts and returns the round's frames `[from][to]`: a mark for every
    /// recipient of a broadcast.
    fn outgoing(&mut self) -> RoundFrames;

    /// Carries the round's broadcasts to the recipients still marked in
    /// `frames` — each encoded once, decoded once if any mark survives —
    /// and ends the round. Panics if `frames` is not `n × n` or marks a
    /// row whose sender sent nothing.
    fn deliver(&mut self, frames: RoundFrames);

    /// Per-agent first decision rounds and values, as the loop records
    /// them.
    fn decisions(&self) -> (&[Option<u32>], &[Option<Value>]);
}

/// Admits a scenario and compiles a registry stack into the one-round
/// adaptor over its wire codec.
///
/// # Errors
///
/// As [`run_named_cluster`](crate::run_named_cluster).
pub fn named_engine(
    stack: &NamedStack,
    pattern: &FailurePattern,
    inits: &[Value],
    horizon: u32,
) -> Result<Box<dyn SessionEngine>, EbaError> {
    let engine = on_the_wire!(stack, pattern, inits, horizon, |ctx, codec| {
        Box::new(TypedEngine::new(*ctx, codec, inits, horizon)) as Box<dyn SessionEngine>
    });
    Ok(engine)
}

/// The adaptor behind [`named_engine`]: one `(E, P)` stack, the round's
/// buffers, the wire channel and the decisions so far.
struct TypedEngine<E: InformationExchange, P, C> {
    ctx: Context<E, P>,
    buffers: RoundBuffers<E>,
    channel: WireChannel<C, E::Message, RoundFrames>,
    decisions: (Vec<Option<u32>>, Vec<Option<Value>>),
    round: u32,
    horizon: u32,
}

impl<E: InformationExchange, P: ActionProtocol<E>, C: WireCodec<E::Message>> TypedEngine<E, P, C> {
    fn new(ctx: Context<E, P>, codec: C, inits: &[Value], horizon: u32) -> Self {
        let mut buffers = RoundBuffers::default();
        initial_states(ctx.exchange(), inits, &mut buffers.states);
        let (channel, n) = (WireChannel::new(codec, Vec::new()), inits.len());
        let decisions = (vec![None; n], vec![None; n]);
        TypedEngine {
            ctx,
            buffers,
            channel,
            decisions,
            round: 0,
            horizon,
        }
    }
}

impl<E, P, C> SessionEngine for TypedEngine<E, P, C>
where
    E: InformationExchange + Send,
    P: ActionProtocol<E> + Send,
    C: WireCodec<E::Message> + Send,
{
    fn round(&self) -> u32 {
        self.round
    }

    fn finished(&self) -> bool {
        self.round >= self.horizon
    }

    fn outgoing(&mut self) -> RoundFrames {
        assert!(self.round < self.horizon, "outgoing() past the horizon");
        let (b, (rounds, values)) = (&mut self.buffers, &mut self.decisions);
        choose_actions(self.ctx.protocol(), &b.states, &mut b.actions);
        record_decisions(self.round, &b.actions, rounds, values);
        select_round(self.ctx.exchange(), &b.states, &b.actions, &mut b.outgoing);
        // The last round's rows, refilled.
        let mut rows = std::mem::take(&mut self.channel.drops);
        rows.resize_with(b.outgoing.len(), Vec::new);
        for (row, msg) in rows.iter_mut().zip(&b.outgoing) {
            row.clear();
            row.resize(b.outgoing.len(), msg.as_ref().map(|_| Frame(())));
        }
        rows
    }

    fn deliver(&mut self, frames: RoundFrames) {
        let b = &mut self.buffers;
        let n = b.states.len();
        let square = frames.len() == n && frames.iter().all(|row| row.len() == n);
        assert!(square, "delivery shape mismatch");
        for (from, (row, msg)) in frames.iter().zip(&b.outgoing).enumerate() {
            if msg.is_none() && row.iter().any(Option::is_some) {
                panic!("row {from} marks a frame, but agent {from} sent nothing this round");
            }
        }
        self.channel.drops = frames;
        self.channel.carry(self.round, &b.outgoing);
        let (channel, ex) = (&self.channel, self.ctx.exchange());
        let hear = |to, heard: &mut [_]| channel.hear(&b.outgoing, to, heard);
        deliver_round(ex, &b.states, &b.actions, hear, &mut b.previous);
        std::mem::swap(&mut b.states, &mut b.previous);
        self.round += 1;
    }

    fn decisions(&self) -> (&[Option<u32>], &[Option<Value>]) {
        (&self.decisions.0, &self.decisions.1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::apply_pattern;
    use crate::cluster::{run_wire, ClusterSummary};
    use crate::codec::{BasicCodec, FipCodec, MinCodec, NaiveCodec};
    use eba_core::corpus::Case;
    use eba_core::exchange::BasicMsg;
    use eba_core::failures::{AdversarySampler, FailureModel, MODEL_NAMES};
    use eba_core::types::{AgentId, Params};
    use eba_sim::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::cell::Cell;

    const HORIZON: u32 = 4;

    fn params() -> Params {
        Params::new(4, 1).unwrap()
    }

    /// `cases` sampled cases at `params` under `model`, each to the default
    /// horizon.
    fn sampled(model: FailureModel, params: Params, seed: u64, cases: usize) -> Vec<Case> {
        let horizon = params.default_horizon();
        let sampler = AdversarySampler::new(model, params, horizon, 0.35);
        let mut rng = StdRng::seed_from_u64(seed);
        (0..cases)
            .map(|_| {
                let pattern = sampler.sample(&mut rng);
                let bits: u32 = rng.random_range(0..1 << params.n());
                let inits = (0..params.n())
                    .map(|i| Value::from_bit(((bits >> i) & 1) as u8))
                    .collect();
                Case {
                    pattern,
                    inits,
                    horizon,
                }
            })
            .collect()
    }

    /// What one wire run of a case leaves: its summary, the codec and
    /// the final global state.
    struct Wire<E: InformationExchange, C> {
        summary: ClusterSummary,
        codec: C,
        states: Vec<E::State>,
    }

    /// One run of `ctx` over the wire channel over `codec`, next to the
    /// lockstep run of the same case.
    fn wire_and_lockstep<E, P, C>(
        ctx: &Context<E, P>,
        codec: C,
        case: &Case,
    ) -> (Wire<E, C>, EnumRun<E>)
    where
        E: InformationExchange + Clone + Send,
        P: ActionProtocol<E> + Clone + Send,
        C: WireCodec<E::Message> + Send,
    {
        let (mut channel, mut buffers) = (
            WireChannel::new(codec, &case.pattern),
            RoundBuffers::default(),
        );
        let summary = run_wire(ctx, &mut channel, &case.inits, case.horizon, &mut buffers).unwrap();
        let (codec, states) = (channel.codec, buffers.states);
        let trace = Scenario::of(ctx)
            .pattern(case.pattern.clone())
            .inits(&case.inits)
            .horizon(case.horizon)
            .run()
            .unwrap();
        let wire = Wire {
            summary,
            codec,
            states,
        };
        (wire, trace)
    }

    fn assert_equals_lockstep<E, P, C>(ctx: Context<E, P>, codec: C)
    where
        E: InformationExchange + Clone + Send,
        P: ActionProtocol<E> + Clone + Send,
        C: WireCodec<E::Message> + Copy + Send,
    {
        let ctx = ctx.with_model(FailureModel::GeneralOmission);
        for case in sampled(FailureModel::GeneralOmission, params(), 77, 40) {
            let (wire, trace) = wire_and_lockstep(&ctx, codec, &case);
            let Wire {
                summary, states, ..
            } = wire;
            let what = format!("{} {case:?}", ctx.name());
            assert_eq!(&states, trace.states.last().unwrap(), "{what}");
            let (rounds, values) = trace.decisions();
            assert_eq!(summary.decision_rounds, rounds, "{what}");
            assert_eq!(summary.decision_values, values, "{what}");
            let traffic = Metrics::of(ctx.exchange(), &trace, &case.pattern);
            assert_eq!(summary.frames_sent, traffic.messages_sent, "{what}");
            let bytes = lockstep_bytes(&ctx, codec, &case, &trace);
            let wire = (summary.wire_bytes_sent, summary.wire_bytes_delivered);
            assert_eq!(wire, bytes, "{what}");
        }
    }

    /// `(sent, delivered)` wire bytes of the lockstep `trace`: each
    /// selected message encoded once per `(from, to)` pair it was sent to,
    /// and once more per pair it was delivered to.
    fn lockstep_bytes<E, P, C>(
        ctx: &Context<E, P>,
        codec: C,
        case: &Case,
        trace: &EnumRun<E>,
    ) -> (u64, u64)
    where
        E: InformationExchange,
        P: ActionProtocol<E>,
        C: WireCodec<E::Message>,
    {
        let (mut sent, mut delivered, mut selected) = (0, 0, Vec::new());
        for (round, (states, actions)) in trace.states.iter().zip(&trace.actions).enumerate() {
            select_round(ctx.exchange(), states, actions, &mut selected);
            for (from, msg) in selected.iter().enumerate() {
                let Some(msg) = msg else { continue };
                for to in 0..states.len() {
                    sent += codec.encode(msg).len() as u64;
                    let (from, to) = (AgentId::new(from), AgentId::new(to));
                    if case.pattern.delivers(round as u32, from, to) {
                        delivered += codec.encode(msg).len() as u64;
                    }
                }
            }
        }
        (sent, delivered)
    }

    #[test]
    fn final_states_equal_the_lockstep_trace() {
        // Bit for bit, for every codec: the codecs lose nothing and the
        // loop routes every surviving frame to its receiver.
        assert_equals_lockstep(Context::minimal(params()), MinCodec);
        assert_equals_lockstep(Context::basic(params()), BasicCodec);
        assert_equals_lockstep(Context::fip(params()), FipCodec);
        assert_equals_lockstep(Context::naive(params()), NaiveCodec);
    }

    #[test]
    #[should_panic(expected = "delivery shape mismatch")]
    fn a_short_row_is_a_shape_mismatch() {
        let inits = [Value::One; 4];
        let mut engine = TypedEngine::new(Context::basic(params()), BasicCodec, &inits, HORIZON);
        let mut frames = engine.outgoing();
        frames[2].pop();
        engine.deliver(frames);
    }

    /// [`BasicCodec`], except that a `Decide(1)` arrives as `Decide(0)`.
    #[derive(Clone, Copy)]
    struct LossyBasicCodec;

    impl WireCodec<BasicMsg> for LossyBasicCodec {
        fn encode_into(&self, msg: &BasicMsg, out: &mut Vec<u8>) {
            BasicCodec.encode_into(msg, out);
        }

        fn decode(&self, bytes: &[u8]) -> BasicMsg {
            match BasicCodec.decode(bytes) {
                BasicMsg::Decide(Value::One) => BasicMsg::Decide(Value::Zero),
                msg => msg,
            }
        }
    }

    #[test]
    fn a_lossy_codec_is_caught_by_the_differential() {
        // The canary: sharing the kernel with the oracle must not blind
        // the wire-vs-lockstep comparison to what the wire path owns.
        let ctx = Context::basic(params());
        let caught = sampled(FailureModel::SendingOmission, params(), 77, 40)
            .iter()
            .filter(|case| {
                let (wire, trace) = wire_and_lockstep(&ctx, LossyBasicCodec, case);
                wire.summary.decision_values != trace.decisions().1
            })
            .count();
        assert!(caught > 0, "no sampled case exposes the lossy codec");
    }

    /// Forwards to `C`, counting the calls.
    #[derive(Default)]
    struct Counting<C> {
        codec: C,
        encodes: Cell<u64>,
        decodes: Cell<u64>,
    }

    impl<M, C: WireCodec<M>> WireCodec<M> for Counting<C> {
        fn encode_into(&self, msg: &M, out: &mut Vec<u8>) {
            self.encodes.set(self.encodes.get() + 1);
            self.codec.encode_into(msg, out);
        }

        fn decode(&self, bytes: &[u8]) -> M {
            self.decodes.set(self.decodes.get() + 1);
            self.codec.decode(bytes)
        }

        fn decode_into(&self, bytes: &[u8], msg: &mut M) {
            self.decodes.set(self.decodes.get() + 1);
            self.codec.decode_into(bytes, msg);
        }
    }

    #[test]
    fn a_broadcast_is_encoded_once_and_decoded_once_per_sender() {
        let params = Params::new(8, 3).unwrap();
        let n = params.n() as u64;
        for (k, name) in MODEL_NAMES.iter().enumerate() {
            let model = FailureModel::by_name(name).unwrap();
            let ctx = Context::fip(params).with_model(model);
            for case in sampled(model, params, 29 + k as u64, 3) {
                let what = format!("{name} {case:?}");
                let (wire, trace) = wire_and_lockstep(&ctx, Counting::<FipCodec>::default(), &case);
                assert_eq!(&wire.states, trace.states.last().unwrap(), "{what}");
                // `E_fip` agents always broadcast: 8 senders × 6 rounds.
                assert_eq!(
                    wire.codec.encodes.get(),
                    wire.summary.frames_sent / n,
                    "{what}"
                );
                assert_eq!(wire.codec.encodes.get(), 48, "{what}");
                let reaching_someone: u64 = (0..case.horizon)
                    .map(|round| {
                        let reaches = |from| {
                            params
                                .agents()
                                .any(|to| case.pattern.delivers(round, from, to))
                        };
                        params.agents().filter(|&from| reaches(from)).count() as u64
                    })
                    .sum();
                assert_eq!(wire.codec.decodes.get(), reaching_someone, "{what}");

                let mut engine = TypedEngine::new(ctx, FipCodec, &case.inits, case.horizon);
                while !engine.finished() {
                    let round = engine.round();
                    let mut frames = engine.outgoing();
                    assert!(frames.iter().flatten().all(Option::is_some), "{what}");
                    apply_pattern(&mut frames, |from| case.pattern.dropped(round, from));
                    engine.deliver(frames);
                    for from in 0..params.n() {
                        let msg = engine.buffers.outgoing[from].as_ref();
                        let sent = msg.expect("every E_fip agent broadcasts");
                        let bytes = FipCodec.encode(sent);
                        assert_eq!(engine.channel.frame(from), Some(&bytes[..]), "{what}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "row 2 marks a frame, but agent 2 sent nothing")]
    fn a_mark_from_a_silent_sender_panics() {
        // `E_min` agents with init 1 send nothing in round 1: a carrier
        // that marks one of their rows asks for bytes the engine never
        // encoded.
        let inits = [Value::One; 4];
        let mut engine = TypedEngine::new(Context::minimal(params()), MinCodec, &inits, HORIZON);
        let mut frames = engine.outgoing();
        assert!(frames.iter().flatten().all(Option::is_none));
        frames[2][0] = Some(Frame(()));
        engine.deliver(frames);
    }
}
