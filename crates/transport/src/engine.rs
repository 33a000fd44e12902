//! The round engine: the one place a stack runs over **encoded** frames.
//!
//! Section 3's global transition, at the byte level: `P_i` picks each
//! agent's action, `μ_i` selects its messages and the codec encodes them
//! ([`SessionEngine::outgoing`]); the failure pattern filters the frames
//! ([`apply_pattern`]); the codec decodes the survivors and `δ_i` updates
//! every state ([`SessionEngine::deliver`]).

use eba_core::context::{admit_scenario, error_message, Context, NamedStack};
use eba_core::exchange::InformationExchange;
use eba_core::failures::FailurePattern;
use eba_core::protocols::ActionProtocol;
use eba_core::types::{Action, AgentId, EbaError, Value};

use crate::codec::{BasicCodec, FipCodec, MinCodec, NaiveCodec, WireCodec};

/// One round's encoded frames, indexed `[from][to]` (`None` = no message).
pub type RoundFrames = Vec<Vec<Option<Vec<u8>>>>;

/// Per-round message counters, shared by the loopback drivers
/// ([`TransportReport`](crate::TransportReport)) and the multiplexed
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

/// Applies `pattern` to one round of frames, counting traffic — the one
/// place omissions are injected into encoded frames. Frames are moved,
/// not cloned: a dropped frame is simply not forwarded.
pub fn apply_pattern(
    round: u32,
    frames: RoundFrames,
    pattern: &FailurePattern,
) -> (RoundFrames, RoundTraffic) {
    let n = frames.len();
    let mut traffic = RoundTraffic::default();
    let mut delivered: RoundFrames = (0..n).map(|_| vec![None; n]).collect();
    for (from, row) in frames.into_iter().enumerate() {
        for (to, frame) in row.into_iter().enumerate() {
            let Some(frame) = frame else { continue };
            traffic.sent += 1;
            if pattern.delivers(round, AgentId::new(from), AgentId::new(to)) {
                traffic.delivered += 1;
                delivered[from][to] = Some(frame);
            }
        }
    }
    (delivered, traffic)
}

/// A type-erased, resumable EBA session advancing one synchronous round
/// per [`outgoing`](SessionEngine::outgoing) /
/// [`deliver`](SessionEngine::deliver) pair.
///
/// The engine does **not** apply the failure pattern — whoever carries
/// the frames between the two calls does, with [`apply_pattern`]:
/// [`run_engine`](crate::run_engine), which the loopback and every
/// service session call, and the typed loop of
/// [`run_context_cluster`](crate::run_context_cluster).
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

/// Every agent's state in lockstep, plus the first-`Decide` bookkeeping.
/// The stack and codec are passed to each step rather than owned, so a
/// driver holding only a borrowed [`Context`] steps the same code as the
/// owning [`TypedEngine`].
pub(crate) struct EngineState<E: InformationExchange> {
    pub(crate) states: Vec<E::State>,
    /// Actions computed by `outgoing`, consumed by `deliver`.
    actions: Vec<Action>,
    awaiting_delivery: bool,
    pub(crate) decision_rounds: Vec<Option<u32>>,
    pub(crate) decision_values: Vec<Option<Value>>,
    round: u32,
    horizon: u32,
}

impl<E: InformationExchange> EngineState<E> {
    /// Initial states for an admitted scenario (`inits.len() == n`).
    pub(crate) fn new(exchange: &E, inits: &[Value], horizon: u32) -> Self {
        let n = inits.len();
        EngineState {
            states: (0..n)
                .map(|i| exchange.initial_state(AgentId::new(i), inits[i]))
                .collect(),
            actions: vec![Action::Noop; n],
            awaiting_delivery: false,
            decision_rounds: vec![None; n],
            decision_values: vec![None; n],
            round: 0,
            horizon,
        }
    }

    pub(crate) fn outgoing<P, C>(&mut self, ctx: &Context<E, P>, codec: &C) -> RoundFrames
    where
        P: ActionProtocol<E>,
        C: WireCodec<E::Message>,
    {
        assert!(self.round < self.horizon, "outgoing() past the horizon");
        assert!(
            !self.awaiting_delivery,
            "outgoing() called twice in a round"
        );
        self.awaiting_delivery = true;
        let mut frames = Vec::with_capacity(self.states.len());
        for (i, state) in self.states.iter().enumerate() {
            let me = AgentId::new(i);
            let action = ctx.protocol().act(me, state);
            if let Action::Decide(v) = action {
                if self.decision_rounds[i].is_none() {
                    self.decision_rounds[i] = Some(self.round + 1);
                    self.decision_values[i] = Some(v);
                }
            }
            self.actions[i] = action;
            let outgoing = ctx.exchange().outgoing(me, state, action);
            frames.push(
                outgoing
                    .iter()
                    .map(|msg| msg.as_ref().map(|msg| codec.encode(msg)))
                    .collect(),
            );
        }
        frames
    }

    pub(crate) fn deliver<P, C>(&mut self, ctx: &Context<E, P>, codec: &C, frames: RoundFrames)
    where
        P: ActionProtocol<E>,
        C: WireCodec<E::Message>,
    {
        assert!(self.awaiting_delivery, "deliver() without outgoing()");
        let n = self.states.len();
        assert_eq!(frames.len(), n, "delivery shape mismatch");
        for to in 0..n {
            let received: Vec<Option<E::Message>> = frames
                .iter()
                .map(|row| row[to].as_deref().map(|bytes| codec.decode(bytes)))
                .collect();
            self.states[to] = ctx.exchange().update(
                AgentId::new(to),
                &self.states[to],
                self.actions[to],
                &received,
            );
        }
        self.round += 1;
        self.awaiting_delivery = false;
    }
}

/// The monomorphic engine behind [`named_engine`]: one `(E, P)` stack
/// plus its codec, owning the [`EngineState`] it steps.
struct TypedEngine<E: InformationExchange, P, C> {
    ctx: Context<E, P>,
    codec: C,
    state: EngineState<E>,
}

impl<E: InformationExchange, P: ActionProtocol<E>, C> TypedEngine<E, P, C> {
    fn new(ctx: Context<E, P>, codec: C, inits: &[Value], horizon: u32) -> Self {
        let state = EngineState::new(ctx.exchange(), inits, horizon);
        TypedEngine { ctx, codec, state }
    }
}

impl<E, P, C> SessionEngine for TypedEngine<E, P, C>
where
    E: InformationExchange + Send,
    P: ActionProtocol<E> + Send,
    C: WireCodec<E::Message> + Send,
{
    fn round(&self) -> u32 {
        self.state.round
    }

    fn finished(&self) -> bool {
        self.state.round >= self.state.horizon
    }

    fn outgoing(&mut self) -> RoundFrames {
        self.state.outgoing(&self.ctx, &self.codec)
    }

    fn deliver(&mut self, frames: RoundFrames) {
        self.state.deliver(&self.ctx, &self.codec, frames)
    }

    fn decision_rounds(&self) -> &[Option<u32>] {
        &self.state.decision_rounds
    }

    fn decision_values(&self) -> &[Option<Value>] {
        &self.state.decision_values
    }
}
