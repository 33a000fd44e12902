//! The round engine: the one place a stack runs over **encoded** frames.
//!
//! Section 3's global transition, at the byte level, stepped by
//! `eba-core`'s round kernel ([`eba_core::exchange`]): `P_i` picks each
//! agent's action, `μ_i` selects its broadcast, and a broadcast is one
//! frame on the wire — encoded once and shared by all its recipients
//! ([`SessionEngine::outgoing`]); the failure pattern filters the frames
//! ([`apply_pattern`]); each sender's surviving frame is decoded once, the
//! kernel's channel lends that one message to every receiver it reached,
//! and `δ_i` updates every state ([`SessionEngine::deliver`]). This is the
//! lockstep channel plus one encode and one decode per broadcast.

use std::sync::Arc;

use eba_core::context::{admit_scenario, error_message, Context, NamedStack};
use eba_core::exchange::{
    choose_actions, deliver_round, initial_states, record_decisions, select_round,
    InformationExchange,
};
use eba_core::failures::FailurePattern;
use eba_core::protocols::ActionProtocol;
use eba_core::types::{Action, AgentId, EbaError, Value};

use crate::codec::{BasicCodec, FipCodec, MinCodec, NaiveCodec, WireCodec};

/// One round's encoded frames, indexed `[from][to]` (`None` = no message).
///
/// A broadcast is one shared frame: every `Some` in row `from` that
/// [`SessionEngine::outgoing`] returns is a clone of one `Arc`, so the row
/// holds one buffer however many recipients it has. A carrier may still
/// drop any entry or replace it with a buffer of its own.
pub type RoundFrames = Vec<Vec<Option<Arc<[u8]>>>>;

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
/// omissions are injected into encoded frames: a dropped frame becomes
/// `None`, exactly where a lossy network would lose it.
pub fn apply_pattern(
    round: u32,
    frames: &mut RoundFrames,
    pattern: &FailurePattern,
) -> RoundTraffic {
    let mut traffic = RoundTraffic::default();
    for (from, row) in frames.iter_mut().enumerate() {
        let dropped = pattern.dropped(round, AgentId::new(from));
        for (to, frame) in row.iter_mut().enumerate() {
            if frame.is_none() {
                continue;
            }
            traffic.sent += 1;
            if !dropped.contains(AgentId::new(to)) {
                traffic.delivered += 1;
            } else {
                *frame = None;
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

    /// Computes every agent's action for the current round and returns
    /// the outgoing frames `[from][to]`: each sender's broadcast encoded
    /// once, one shared frame for all its recipients. Must be followed by
    /// [`deliver`](SessionEngine::deliver) for the same round.
    fn outgoing(&mut self) -> RoundFrames;

    /// Delivers the round's post-omission frames `[from][to]` and
    /// advances every agent's state, ending the round. Each sender's
    /// shared frame is decoded once, however many receivers it reached; a
    /// frame replaced in transit by another buffer is decoded on its own.
    /// The engine may keep the emptied rows for its next `outgoing`.
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
    /// Each broadcast's bytes, before its shared frame copies them.
    encoded: Vec<u8>,
    awaiting_delivery: bool,
    /// Per sender, what its shared frame last decoded to (`None` before its
    /// first), each decode written over the one before.
    decoded: Vec<Option<E::Message>>,
    /// `(from, to, message)` for every surviving frame that is not its
    /// row's shared buffer; empty unless a carrier replaced a frame.
    replaced: Vec<(usize, usize, E::Message)>,
    /// The last delivered round's frames, their rows emptied: the next
    /// `outgoing` refills these rows instead of allocating new ones.
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
            encoded: Vec::new(),
            awaiting_delivery: false,
            decoded: Vec::new(),
            replaced: Vec::new(),
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
        // `μ` is a broadcast: one encode per sender, and its recipients
        // share that one buffer.
        let n = self.states.len();
        select_round(
            self.ctx.exchange(),
            &self.states,
            &self.actions,
            &mut self.selected,
        );
        let mut frames = std::mem::take(&mut self.spare);
        frames.resize_with(n, Vec::new);
        for (row, msg) in frames.iter_mut().zip(&self.selected) {
            let frame = msg.as_ref().map(|msg| {
                self.encoded.clear();
                self.codec.encode_into(msg, &mut self.encoded);
                Arc::from(&self.encoded[..])
            });
            row.resize(n, frame);
        }
        frames
    }

    fn deliver(&mut self, mut frames: RoundFrames) {
        assert!(self.awaiting_delivery, "deliver() without outgoing()");
        let n = self.states.len();
        assert!(
            frames.len() == n && frames.iter().all(|row| row.len() == n),
            "delivery shape mismatch"
        );
        self.decoded.resize(n, None);
        self.replaced.clear();
        // A row's first surviving frame is decoded once, into its sender's
        // slot, and stands for every frame of the row that is the same
        // buffer; any other surviving frame carries bytes of its own and is
        // decoded alone. A row with none leaves a slot nobody reads.
        for (from, row) in frames.iter().enumerate() {
            let mut surviving = row
                .iter()
                .enumerate()
                .filter_map(|(to, frame)| Some((to, frame.as_ref()?)));
            let Some((_, shared)) = surviving.next() else {
                continue;
            };
            match &mut self.decoded[from] {
                Some(msg) => self.codec.decode_into(shared, msg),
                slot => *slot = Some(self.codec.decode(shared)),
            }
            for (to, frame) in surviving {
                if !Arc::ptr_eq(frame, shared) {
                    self.replaced.push((from, to, self.codec.decode(frame)));
                }
            }
        }
        let (decoded, replaced) = (&self.decoded, &self.replaced);
        let heard = |from: usize, to: usize| {
            frames[from][to].as_ref()?;
            match replaced.iter().find(|(f, t, _)| (*f, *t) == (from, to)) {
                Some((_, _, msg)) => Some(msg),
                None => decoded[from].as_ref(),
            }
        };
        deliver_round(
            self.ctx.exchange(),
            &self.states,
            &self.actions,
            |to, tuple| {
                for (from, slot) in tuple.iter_mut().enumerate() {
                    *slot = heard(from, to.index());
                }
            },
            &mut self.next,
        );
        std::mem::swap(&mut self.states, &mut self.next);
        frames.iter_mut().for_each(Vec::clear);
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
        }
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
                    for row in &frames {
                        let mut row = row.iter().flatten();
                        let shared = row.next().expect("every E_fip agent broadcasts");
                        assert!(row.all(|frame| Arc::ptr_eq(frame, shared)), "{what}");
                    }
                    apply_pattern(round, &mut frames, &case.pattern);
                    engine.deliver(frames);
                }
            }
        }
    }

    #[test]
    fn a_frame_replaced_in_transit_is_decoded_on_its_own() {
        // Row 1's frames all share one `Init1` buffer; one of them is
        // swapped for a `Decide(1)` frame of its own — the row's first
        // surviving frame, then one behind it.
        let ctx = Context::basic(params());
        let ex = ctx.exchange();
        let (original, replacement) = (BasicMsg::Init1, BasicMsg::Decide(Value::One));
        let from = 1;
        for replaced_at in [0, 2] {
            let mut engine = TypedEngine::new(ctx, BasicCodec, &[Value::One; 4], HORIZON);
            let mut frames = engine.outgoing();
            let sent = frames.iter().flatten().flatten();
            assert!(sent
                .map(|frame| BasicCodec.decode(frame))
                .all(|msg| msg == original));
            frames[from][replaced_at] = Some(BasicCodec.encode(&replacement).into());
            let (states, actions) = (engine.states.clone(), engine.actions.clone());
            engine.deliver(frames);
            let successor = |to: usize, heard: &BasicMsg| {
                let mut received = vec![Some(&original); 4];
                received[from] = Some(heard);
                let mut next = states[to];
                ex.update(
                    AgentId::new(to),
                    &states[to],
                    actions[to],
                    &received,
                    &mut next,
                );
                next
            };
            for to in 0..4 {
                let heard = if to == replaced_at {
                    &replacement
                } else {
                    &original
                };
                assert_eq!(engine.states[to], successor(to, heard), "receiver {to}");
            }
            assert_ne!(
                engine.states[replaced_at],
                successor(replaced_at, &original),
                "the replacement must change what its receiver learns"
            );
        }
    }
}
