//! The round engine: the one place a stack runs over **encoded** frames.
//!
//! Section 3's global transition, at the byte level, stepped by
//! `eba-core`'s round kernel ([`eba_core::exchange`]): `P_i` picks each
//! agent's action, `μ_i` selects its broadcast, which is encoded once into
//! the round's one buffer, and each recipient gets a [`Frame`] mark
//! ([`SessionEngine::outgoing`]); the failure pattern drops marks
//! ([`apply_pattern`]); a sender's bytes are decoded once if any of its
//! marks survive, the kernel's channel lends that one message to every
//! receiver still marked, and `δ_i` updates every state
//! ([`SessionEngine::deliver`]): the lockstep channel plus one encode and
//! one decode per broadcast.

use std::ops::Range;

use eba_core::context::{admit_scenario, error_message, Context, NamedStack};
use eba_core::exchange::{
    choose_actions, deliver_round, initial_states, record_decisions, select_round,
    InformationExchange,
};
use eba_core::failures::FailurePattern;
use eba_core::protocols::ActionProtocol;
use eba_core::types::{Action, AgentId, EbaError, Value};

use crate::codec::{BasicCodec, FipCodec, MinCodec, NaiveCodec, WireCodec};

/// A mark in [`RoundFrames`]: its sender's broadcast reaches its
/// recipient. It holds no bytes (those are [`SessionEngine::frame`]), and
/// only the engine makes one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Frame(());

/// One round's frames, indexed `[from][to]` (`None` = no message).
///
/// [`SessionEngine::outgoing`] marks every recipient of a broadcast. A
/// carrier may only drop marks: a mark on the row of a sender that sent
/// nothing makes [`deliver`](SessionEngine::deliver) panic.
pub type RoundFrames = Vec<Vec<Option<Frame>>>;

/// Per-round message counters, shared by the loopback driver
/// ([`ClusterSummary`](crate::ClusterSummary)) and the multiplexed
/// service (`ServiceReport` in `eba-service`), so both report comparable
/// observability data.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RoundTraffic {
    /// Frames the agents sent in this round (dropped frames included —
    /// the sender did the work).
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

/// Applies `pattern` to one round of frames in place — the one place
/// omissions are injected into the wire: a dropped mark becomes `None`,
/// exactly where a lossy network would lose the frame.
pub fn apply_pattern(
    round: u32,
    frames: &mut RoundFrames,
    pattern: &FailurePattern,
) -> RoundTraffic {
    let mut traffic = RoundTraffic::default();
    for (from, row) in frames.iter_mut().enumerate() {
        let dropped = pattern.dropped(round, AgentId::new(from));
        for (to, frame) in row.iter_mut().enumerate().filter(|(_, f)| f.is_some()) {
            traffic.sent += 1;
            if dropped.contains(AgentId::new(to)) {
                *frame = None;
            } else {
                traffic.delivered += 1;
            }
        }
    }
    traffic
}

/// A type-erased, resumable EBA session advancing one synchronous round
/// per [`outgoing`](SessionEngine::outgoing) /
/// [`deliver`](SessionEngine::deliver) pair.
///
/// The engine does **not** apply the failure pattern — whoever carries
/// the frames between the two calls does, with [`apply_pattern`]:
/// [`run_engine`](crate::run_engine), which the loopback and every
/// service session call.
pub trait SessionEngine: Send {
    /// The current (0-based) message round.
    fn round(&self) -> u32;

    /// Whether the horizon has been reached.
    fn finished(&self) -> bool;

    /// Computes every agent's action for the current round, encodes each
    /// sender's broadcast once ([`frame`](SessionEngine::frame)), and
    /// returns the outgoing frames `[from][to]`: a mark for every
    /// recipient of a broadcast. Must be followed by
    /// [`deliver`](SessionEngine::deliver) for the same round.
    fn outgoing(&mut self) -> RoundFrames;

    /// The bytes of `from`'s broadcast in the last
    /// [`outgoing`](SessionEngine::outgoing) round, `None` if it sent
    /// nothing; every mark in row `from` carries these bytes.
    fn frame(&self, from: usize) -> Option<&[u8]>;

    /// Delivers the round's post-omission frames `[from][to]` and
    /// advances every agent's state, ending the round. Each sender's
    /// bytes are decoded once if any mark in its row survives. The engine
    /// may keep the rows for its next `outgoing`. Panics if `frames` is
    /// not `n × n` or marks a row whose sender sent nothing.
    fn deliver(&mut self, frames: RoundFrames);

    /// Per-agent first decision round (the round *after* the acting
    /// round, matching the lockstep runner's convention).
    fn decision_rounds(&self) -> &[Option<u32>];

    /// Per-agent decision value.
    fn decision_values(&self) -> &[Option<Value>];
}

/// Admits a scenario and compiles a registry stack into a runnable
/// engine — the one table pairing each [`NamedStack`] with its wire
/// codec.
///
/// # Errors
///
/// Returns [`EbaError::InvalidInput`] listing every problem
/// [`admit_scenario`] finds, prefixed with the qualified stack name
/// (`E_fip/P_opt@crash`) so a battery over many registry stacks reports
/// which one failed.
pub fn named_engine(
    stack: &NamedStack,
    pattern: &FailurePattern,
    inits: &[Value],
    horizon: u32,
) -> Result<Box<dyn SessionEngine>, EbaError> {
    admit_scenario(stack.params(), stack.model(), pattern, inits, horizon).map_err(|e| {
        EbaError::InvalidInput(format!("{}: {}", stack.qualified_name(), error_message(&e)))
    })?;
    Ok(match stack {
        NamedStack::Min(ctx) => Box::new(TypedEngine::new(*ctx, MinCodec, inits, horizon)),
        NamedStack::Basic(ctx) => Box::new(TypedEngine::new(*ctx, BasicCodec, inits, horizon)),
        NamedStack::Fip(ctx) => Box::new(TypedEngine::new(*ctx, FipCodec, inits, horizon)),
        NamedStack::Naive(ctx) => Box::new(TypedEngine::new(*ctx, NaiveCodec, inits, horizon)),
    })
}

/// The monomorphic engine behind [`named_engine`]: one `(E, P)` stack, its
/// codec and every agent's state, stepped by `eba-core`'s round kernel.
struct TypedEngine<E: InformationExchange, P, C> {
    ctx: Context<E, P>,
    codec: C,
    states: Vec<E::State>,
    /// The successor states `deliver` writes over, swapped with `states`.
    next: Vec<E::State>,
    /// Chosen by `outgoing`, consumed by `deliver`.
    actions: Vec<Action>,
    /// The messages `outgoing` selects, over the last round's.
    selected: Vec<Option<E::Message>>,
    /// The round's broadcasts, encoded back to back, and each sender's
    /// span of them (`None`: it sent nothing).
    wire: Vec<u8>,
    spans: Vec<Option<Range<usize>>>,
    awaiting_delivery: bool,
    /// Per sender, what its bytes last decoded to (`None` before its
    /// first), each decode written over the one before.
    decoded: Vec<Option<E::Message>>,
    /// The last delivered round's frames: the next `outgoing` refills
    /// these rows instead of allocating new ones.
    spare: RoundFrames,
    decision_rounds: Vec<Option<u32>>,
    decision_values: Vec<Option<Value>>,
    round: u32,
    horizon: u32,
}

impl<E: InformationExchange, P: ActionProtocol<E>, C> TypedEngine<E, P, C> {
    /// Initial states for an admitted scenario (`inits.len() == n`).
    fn new(ctx: Context<E, P>, codec: C, inits: &[Value], horizon: u32) -> Self {
        let n = inits.len();
        let mut states = Vec::with_capacity(n);
        initial_states(ctx.exchange(), inits, &mut states);
        TypedEngine {
            states,
            next: Vec::new(),
            ctx,
            codec,
            actions: Vec::new(),
            selected: Vec::new(),
            wire: Vec::new(),
            spans: Vec::new(),
            awaiting_delivery: false,
            decoded: Vec::new(),
            spare: Vec::new(),
            decision_rounds: vec![None; n],
            decision_values: vec![None; n],
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
        assert!(
            !self.awaiting_delivery,
            "outgoing() called twice in a round"
        );
        self.awaiting_delivery = true;
        choose_actions(self.ctx.protocol(), &self.states, &mut self.actions);
        record_decisions(
            self.round,
            &self.actions,
            &mut self.decision_rounds,
            &mut self.decision_values,
        );
        // `μ` is a broadcast: one encode per sender, into the round's one
        // buffer, and a mark per recipient.
        let n = self.states.len();
        select_round(
            self.ctx.exchange(),
            &self.states,
            &self.actions,
            &mut self.selected,
        );
        self.wire.clear();
        self.spans.clear();
        let mut frames = std::mem::take(&mut self.spare);
        frames.resize_with(n, Vec::new);
        for (row, msg) in frames.iter_mut().zip(&self.selected) {
            let span = msg.as_ref().map(|msg| {
                let start = self.wire.len();
                self.codec.encode_into(msg, &mut self.wire);
                start..self.wire.len()
            });
            row.clear();
            row.resize(n, span.as_ref().map(|_| Frame(())));
            self.spans.push(span);
        }
        frames
    }

    fn frame(&self, from: usize) -> Option<&[u8]> {
        Some(&self.wire[self.spans.get(from)?.clone()?])
    }

    fn deliver(&mut self, frames: RoundFrames) {
        assert!(self.awaiting_delivery, "deliver() without outgoing()");
        let n = self.states.len();
        assert!(
            frames.len() == n && frames.iter().all(|row| row.len() == n),
            "delivery shape mismatch"
        );
        self.decoded.resize(n, None);
        // One decode per row with a surviving mark, into its sender's slot.
        for (from, row) in frames.iter().enumerate() {
            if row.iter().any(Option::is_some) {
                let Some(span) = self.spans[from].clone() else {
                    panic!("row {from} marks a frame, but agent {from} sent nothing this round");
                };
                match &mut self.decoded[from] {
                    Some(msg) => self.codec.decode_into(&self.wire[span], msg),
                    slot => *slot = Some(self.codec.decode(&self.wire[span])),
                }
            }
        }
        let decoded = &self.decoded;
        deliver_round(
            self.ctx.exchange(),
            &self.states,
            &self.actions,
            |to, tuple| {
                for (from, slot) in tuple.iter_mut().enumerate() {
                    *slot = frames[from][to.index()].and(decoded[from].as_ref());
                }
            },
            &mut self.next,
        );
        std::mem::swap(&mut self.states, &mut self.next);
        self.spare = frames;
        self.round += 1;
        self.awaiting_delivery = false;
    }

    fn decision_rounds(&self) -> &[Option<u32>] {
        &self.decision_rounds
    }

    fn decision_values(&self) -> &[Option<Value>] {
        &self.decision_values
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{run_engine, ClusterSummary};
    use eba_core::corpus::Case;
    use eba_core::exchange::BasicMsg;
    use eba_core::failures::{AdversarySampler, FailureModel, MODEL_NAMES};
    use eba_core::types::Params;
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

    /// One run of `ctx` through a [`TypedEngine`] over `codec`, next to
    /// the lockstep run of the same case.
    fn wire_and_lockstep<E, P, C>(
        ctx: &Context<E, P>,
        codec: C,
        case: &Case,
    ) -> (ClusterSummary, TypedEngine<E, P, C>, EnumRun<E>)
    where
        E: InformationExchange + Clone + Send,
        P: ActionProtocol<E> + Clone + Send,
        C: WireCodec<E::Message> + Send,
    {
        let mut engine = TypedEngine::new(ctx.clone(), codec, &case.inits, case.horizon);
        let summary = run_engine(&mut engine, &case.pattern);
        let trace = Scenario::of(ctx)
            .pattern(case.pattern.clone())
            .inits(&case.inits)
            .horizon(case.horizon)
            .run()
            .unwrap();
        (summary, engine, trace)
    }

    fn assert_equals_lockstep<E, P, C>(ctx: Context<E, P>, codec: C)
    where
        E: InformationExchange + Clone + Send,
        P: ActionProtocol<E> + Clone + Send,
        C: WireCodec<E::Message> + Copy + Send,
    {
        let ctx = ctx.with_model(FailureModel::GeneralOmission);
        for case in sampled(FailureModel::GeneralOmission, params(), 77, 40) {
            let (summary, engine, trace) = wire_and_lockstep(&ctx, codec, &case);
            let what = format!("{} {case:?}", ctx.name());
            assert_eq!(&engine.states, trace.states.last().unwrap(), "{what}");
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
                let (summary, _, trace) = wire_and_lockstep(&ctx, LossyBasicCodec, case);
                summary.decision_values != trace.decisions().1
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
                let (summary, engine, trace) =
                    wire_and_lockstep(&ctx, Counting::<FipCodec>::default(), &case);
                assert_eq!(&engine.states, trace.states.last().unwrap(), "{what}");
                // `E_fip` agents always broadcast: 8 senders × 6 rounds.
                assert_eq!(
                    engine.codec.encodes.get(),
                    summary.frames_sent / n,
                    "{what}"
                );
                assert_eq!(engine.codec.encodes.get(), 48, "{what}");
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
                assert_eq!(engine.codec.decodes.get(), reaching_someone, "{what}");

                let mut engine = TypedEngine::new(ctx, FipCodec, &case.inits, case.horizon);
                while !engine.finished() {
                    let round = engine.round();
                    let mut frames = engine.outgoing();
                    for (from, row) in frames.iter().enumerate() {
                        let msg = engine.selected[from].as_ref();
                        let sent = msg.expect("every E_fip agent broadcasts");
                        let bytes = FipCodec.encode(sent);
                        assert_eq!(engine.frame(from), Some(&bytes[..]), "{what}");
                        assert!(row.iter().all(Option::is_some), "{what}");
                    }
                    apply_pattern(round, &mut frames, &case.pattern);
                    engine.deliver(frames);
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
