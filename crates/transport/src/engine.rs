//! The round engine: the one place a stack runs over **encoded** frames.
//!
//! Section 3's global transition, at the byte level, stepped by
//! `eba-core`'s round kernel ([`eba_core::exchange`]): `P_i` picks each
//! agent's action, `μ_i` selects its broadcast and the codec encodes it
//! once ([`SessionEngine::outgoing`]); the failure pattern filters the frames
//! ([`apply_pattern`]); the kernel's channel is the surviving frames,
//! decoded, and `δ_i` updates every state ([`SessionEngine::deliver`]).

use eba_core::context::{admit_scenario, error_message, Context, NamedStack};
use eba_core::exchange::{
    choose_actions, deliver_round, initial_states, record_decisions, select_round,
    InformationExchange, NoObserver,
};
use eba_core::failures::FailurePattern;
use eba_core::protocols::ActionProtocol;
use eba_core::types::{Action, AgentId, EbaError, Value};

use crate::codec::{BasicCodec, FipCodec, MinCodec, NaiveCodec, WireCodec};

/// One round's encoded frames, indexed `[from][to]` (`None` = no message).
pub type RoundFrames = Vec<Vec<Option<Vec<u8>>>>;

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
        for (to, frame) in row.iter_mut().enumerate() {
            if frame.is_none() {
                continue;
            }
            traffic.sent += 1;
            if pattern.delivers(round, AgentId::new(from), AgentId::new(to)) {
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
    /// the encoded outgoing frames `[from][to]`. Must be followed by
    /// [`deliver`](SessionEngine::deliver) for the same round.
    fn outgoing(&mut self) -> RoundFrames;

    /// Delivers the round's post-omission frames `[from][to]` and
    /// advances every agent's state, ending the round.
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
    /// Chosen by `outgoing`, consumed by `deliver`.
    actions: Vec<Action>,
    awaiting_delivery: bool,
    decision_rounds: Vec<Option<u32>>,
    decision_values: Vec<Option<Value>>,
    round: u32,
    horizon: u32,
}

impl<E: InformationExchange, P: ActionProtocol<E>, C> TypedEngine<E, P, C> {
    /// Initial states for an admitted scenario (`inits.len() == n`).
    fn new(ctx: Context<E, P>, codec: C, inits: &[Value], horizon: u32) -> Self {
        let n = inits.len();
        TypedEngine {
            states: initial_states(ctx.exchange(), inits),
            ctx,
            codec,
            actions: Vec::new(),
            awaiting_delivery: false,
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
        self.actions = choose_actions(self.ctx.protocol(), &self.states);
        record_decisions(
            self.round,
            &self.actions,
            &mut self.decision_rounds,
            &mut self.decision_values,
        );
        // `μ` is a broadcast: one encode per sender, its frame cloned for
        // every recipient.
        let n = self.states.len();
        select_round(
            self.ctx.exchange(),
            &self.states,
            &self.actions,
            &mut NoObserver,
        )
        .iter()
        .map(|msg| vec![msg.as_ref().map(|msg| self.codec.encode(msg)); n])
        .collect()
    }

    fn deliver(&mut self, frames: RoundFrames) {
        assert!(self.awaiting_delivery, "deliver() without outgoing()");
        let n = self.states.len();
        assert!(
            frames.len() == n && frames.iter().all(|row| row.len() == n),
            "delivery shape mismatch"
        );
        // Row by row like `frames`, each row sized exactly. Measured on the
        // service's pool workers: one flat buffer grown by `collect` cost
        // `service_mixed_n3` a quarter of its throughput, and sized up
        // front (2.5 KiB of graphs at n = 8) gave `service_fip_n8` nothing.
        let decoded: Vec<Vec<Option<E::Message>>> = frames
            .iter()
            .map(|row| {
                row.iter()
                    .map(|frame| frame.as_deref().map(|bytes| self.codec.decode(bytes)))
                    .collect()
            })
            .collect();
        self.states = deliver_round(
            self.ctx.exchange(),
            &self.states,
            &self.actions,
            |from, to| decoded[from.index()][to.index()].as_ref(),
            &mut NoObserver,
        );
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
    use eba_core::exchange::BasicMsg;
    use eba_core::failures::{AdversarySampler, FailureModel};
    use eba_core::types::Params;
    use eba_sim::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const HORIZON: u32 = 4;

    fn params() -> Params {
        Params::new(4, 1).unwrap()
    }

    /// `cases` sampled `(pattern, inits)` pairs under `model`.
    fn sampled(model: FailureModel, seed: u64, cases: usize) -> Vec<(FailurePattern, Vec<Value>)> {
        let sampler = AdversarySampler::new(model, params(), HORIZON, 0.35);
        let mut rng = StdRng::seed_from_u64(seed);
        (0..cases)
            .map(|_| {
                let pattern = sampler.sample(&mut rng);
                let bits: u32 = rng.random_range(0..16);
                let inits = (0..4)
                    .map(|i| Value::from_bit(((bits >> i) & 1) as u8))
                    .collect();
                (pattern, inits)
            })
            .collect()
    }

    /// One run of `ctx` through a [`TypedEngine`] over `codec`, next to
    /// the lockstep trace of the same scenario.
    fn wire_and_lockstep<E, P, C>(
        ctx: &Context<E, P>,
        codec: C,
        pattern: &FailurePattern,
        inits: &[Value],
    ) -> (ClusterSummary, Vec<E::State>, Trace<E>)
    where
        E: InformationExchange + Clone + Send,
        P: ActionProtocol<E> + Clone + Send,
        C: WireCodec<E::Message> + Send,
    {
        let mut engine = TypedEngine::new(ctx.clone(), codec, inits, HORIZON);
        let summary = run_engine(&mut engine, pattern);
        let trace = Scenario::of(ctx)
            .pattern(pattern.clone())
            .inits(inits)
            .horizon(HORIZON)
            .run()
            .unwrap();
        (summary, engine.states, trace)
    }

    fn assert_equals_lockstep<E, P, C>(ctx: Context<E, P>, codec: C)
    where
        E: InformationExchange + Clone + Send,
        P: ActionProtocol<E> + Clone + Send,
        C: WireCodec<E::Message> + Copy + Send,
    {
        let ctx = ctx.with_model(FailureModel::GeneralOmission);
        for (pattern, inits) in sampled(FailureModel::GeneralOmission, 77, 40) {
            let (summary, states, trace) = wire_and_lockstep(&ctx, codec, &pattern, &inits);
            let what = format!("{} {inits:?} {pattern:?}", ctx.name());
            assert_eq!(&states, trace.states.last().unwrap(), "{what}");
            assert_eq!(
                summary.decision_rounds, trace.metrics.decision_rounds,
                "{what}"
            );
            assert_eq!(
                summary.decision_values, trace.metrics.decision_values,
                "{what}"
            );
            assert_eq!(summary.frames_sent, trace.metrics.messages_sent, "{what}");
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
        fn encode(&self, msg: &BasicMsg) -> Vec<u8> {
            BasicCodec.encode(msg)
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
        let caught = sampled(FailureModel::SendingOmission, 77, 40)
            .iter()
            .filter(|(pattern, inits)| {
                let (summary, _, trace) = wire_and_lockstep(&ctx, LossyBasicCodec, pattern, inits);
                summary.decision_values != trace.metrics.decision_values
            })
            .count();
        assert!(caught > 0, "no sampled case exposes the lossy codec");
    }
}
