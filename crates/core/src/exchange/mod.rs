//! Information-exchange protocols (Section 3).
//!
//! An information-exchange protocol `E_i = ⟨L_i, I_i, A_i, M_i, μ_i, δ_i⟩`
//! specifies what local state an agent maintains, which messages it sends
//! given its state and the action chosen by the action protocol (`μ`), and
//! how the state is updated from the action and the received messages (`δ`).
//!
//! Every exchange here is an *EBA context* exchange in the paper's sense:
//! local states expose `time`, `init`, and `decided`, and the messages sent
//! while performing `decide(0)`, `decide(1)`, and any other action are
//! drawn from three disjoint sets `M_0`, `M_1`, `M_2`, so that recipients
//! can tell whether the sender is deciding and on what value.
//!
//! The round kernel sits here too: one function per step of the global
//! transition, and [`step_rounds`], the one loop over a run's rounds.

mod basic;
mod fip;
mod minimal;
mod naive;

pub use basic::{BasicExchange, BasicMsg, BasicState};
pub use fip::{FipExchange, FipMsg, FipState};
pub use minimal::{MinExchange, MinMsg, MinState};
pub use naive::{NaiveExchange, NaiveMsg, NaiveState};

use std::borrow::Borrow;
use std::fmt::Debug;
use std::hash::Hash;

use crate::context::{validate_scenario_shape, Context};
use crate::failures::FailurePattern;
use crate::protocols::ActionProtocol;
use crate::types::{Action, AgentId, AgentSet, EbaError, Params, Value};

/// An information-exchange protocol for `n` agents (the `E` of a context
/// `γ = (E, F, π)`).
///
/// The separation between this trait and [`crate::protocols::ActionProtocol`]
/// is the paper's central modeling device: optimality is defined *relative
/// to* an information-exchange protocol, and the same exchange can host many
/// action protocols (whose corresponding runs can then be compared).
pub trait InformationExchange {
    /// Local states `L_i` (shared by all agents; the agent's identity is
    /// passed explicitly). `Eq + Hash` lets run stores intern each
    /// distinct state once behind a `StateId`; `Send + Sync` lets the
    /// sharded enumerators and interning sinks move states across
    /// threads without per-call-site bounds.
    type State: Clone + Eq + Hash + Debug + Send + Sync;
    /// Messages `M_i`, bounded like [`InformationExchange::State`] so
    /// threaded transports can carry them.
    type Message: Clone + Eq + Hash + Debug + Send + Sync;

    /// A short human-readable name, e.g. `"E_min"`.
    fn name(&self) -> &'static str;

    /// The instance parameters `(n, t)`.
    fn params(&self) -> Params;

    /// The initial state `⟨0, init_i, ⊥, …⟩` of agent `agent` with initial
    /// preference `init`.
    fn initial_state(&self, agent: AgentId, init: Value) -> Self::State;

    /// The message-selection function `μ_i`: writes into `out` the
    /// message `agent` sends to every agent (itself included) in the
    /// current round, given its state and the action it is performing;
    /// `None` is `⊥` (no message).
    ///
    /// The paper writes `μ_ij`, but in every exchange it defines `μ_ij`
    /// does not depend on `j`, so the selection is stated as what it is: a
    /// broadcast. Failure patterns may still drop it per recipient.
    ///
    /// `out` is the caller's slot and may hold any earlier message, which
    /// the call overwrites, reusing its allocation where it has one.
    fn broadcast(
        &self,
        agent: AgentId,
        state: &Self::State,
        action: Action,
        out: &mut Option<Self::Message>,
    );

    /// The state-update function `δ_i`: writes into `next` the successor
    /// state given the action performed and the tuple of received
    /// messages (entry `j` borrows the message received from agent `j`,
    /// `None` if none).
    ///
    /// Implementations must increment the `time` component by exactly 1 and
    /// record a `decide` action in the `decided` component. Like `out` of
    /// [`InformationExchange::broadcast`], `next` may hold any earlier
    /// state, of any agent, time or run.
    fn update(
        &self,
        agent: AgentId,
        state: &Self::State,
        action: Action,
        received: &[Option<&Self::Message>],
        next: &mut Self::State,
    );

    /// The `time_i` component of a local state.
    fn time(&self, state: &Self::State) -> u32;

    /// The `init_i` component of a local state.
    fn init(&self, state: &Self::State) -> Value;

    /// The `decided_i` component of a local state (`None` is `⊥`).
    fn decided(&self, state: &Self::State) -> Option<Value>;

    /// The number of information bits in a message, for the message-
    /// complexity accounting of Prop 8.1. This counts *logical* bits (e.g.
    /// one bit for `E_min`'s `{0, 1}` messages), not wire bytes; wire-level
    /// accounting lives in `eba-transport`.
    fn message_bits(&self, msg: &Self::Message) -> u64;
}

/// The initial global state: agent `i` starts in `⟨0, inits[i], ⊥, …⟩`.
///
/// This and [`choose_actions`], [`select_round`] and [`deliver_round`]
/// fill a buffer the caller owns, reusing its allocation; the last two
/// hand each entry to `μ` or `δ` as its output slot, so a caller stepping
/// in the same buffers allocates only where a message or state outgrows
/// its slot.
pub fn initial_states<E: InformationExchange>(ex: &E, inits: &[Value], states: &mut Vec<E::State>) {
    states.clear();
    states.extend(
        inits
            .iter()
            .enumerate()
            .map(|(i, init)| ex.initial_state(AgentId::new(i), *init)),
    );
}

/// `P` picks the round's actions: one `P_i(s_i)` per agent, into
/// `actions`. Here and in [`select_round`] and [`deliver_one`] the
/// global state may be owned or a row of borrowed local states.
pub fn choose_actions<E, P>(proto: &P, states: &[impl Borrow<E::State>], actions: &mut Vec<Action>)
where
    E: InformationExchange,
    P: ActionProtocol<E> + ?Sized,
{
    actions.clear();
    actions.extend(
        states
            .iter()
            .enumerate()
            .map(|(i, state)| proto.act(AgentId::new(i), state.borrow())),
    );
}

/// Folds the actions chosen in the 0-based `round` into per-agent first
/// decisions: an agent's decision is its first `Decide`, dated the round
/// *after* the one it was chosen in (the state only records it then). A
/// second `Decide` would be a protocol bug, surfaced by the spec checker
/// rather than here.
pub fn record_decisions(
    round: u32,
    actions: &[Action],
    rounds: &mut [Option<u32>],
    values: &mut [Option<Value>],
) {
    for (i, action) in actions.iter().enumerate() {
        if let (Action::Decide(v), None) = (action, rounds[i]) {
            rounds[i] = Some(round + 1);
            values[i] = Some(*v);
        }
    }
}

/// The selection half of the global transition of Section 3: entry `i`
/// of `outgoing` becomes the message agent `i` broadcasts (`None` is
/// `⊥`). A run's traffic is a function of its states and actions:
/// `eba-sim`'s `Metrics::of` and 0-chain reconstruction replay this over
/// a recorded run. Entry `i` of `outgoing` is agent `i`'s slot for `μ_i`.
pub fn select_round<E: InformationExchange>(
    ex: &E,
    states: &[impl Borrow<E::State>],
    actions: &[Action],
    outgoing: &mut Vec<Option<E::Message>>,
) {
    debug_assert_eq!(states.len(), ex.params().n(), "one state per agent");
    debug_assert_eq!(actions.len(), states.len(), "one action per agent");
    outgoing.resize(states.len(), None);
    let slots = outgoing.iter_mut().zip(states.iter().zip(actions));
    for (i, (out, (state, action))) in slots.enumerate() {
        ex.broadcast(AgentId::new(i), state.borrow(), *action, out);
    }
}

/// `δ_to` alone: writes into `next` agent `to`'s successor state when
/// `heard[from]` is what it received from each `from` (`None` if
/// nothing). `δ` is a tuple of local updates — a receiver's successor
/// depends on its own state, its action and what *it* hears — so this is
/// the one caller of [`InformationExchange::update`]: [`deliver_round`]
/// maps it over the receivers, and the exhaustive enumerator calls it once
/// per drop choice of one receiver, into one scratch slot. Callers fill
/// `heard` in a buffer they reuse; `next` may hold any earlier state.
pub fn deliver_one<E: InformationExchange>(
    ex: &E,
    states: &[impl Borrow<E::State>],
    actions: &[Action],
    to: AgentId,
    heard: &[Option<&E::Message>],
    next: &mut E::State,
) {
    let j = to.index();
    ex.update(to, states[j].borrow(), actions[j], heard, next);
}

/// The delivery half of the global transition, [`deliver_one`] mapped
/// over the receivers into `next`: `hear(to, heard)` fills `heard[from]`
/// with what agent `to` receives from every `from` — the channel, which
/// has already applied the failure pattern `F` — and `δ_to` writes its
/// successor into entry `to` of `next` (a copy of the agent's state if
/// `next` is short).
///
/// The lockstep channel ([`Lockstep`]) lends what `from` selected if
/// the pattern delivers it; the wire channel lends each sender's
/// surviving frame, decoded once per sender.
pub fn deliver_round<'m, E: InformationExchange>(
    ex: &E,
    states: &[E::State],
    actions: &[Action],
    mut hear: impl FnMut(AgentId, &mut [Option<&'m E::Message>]),
    next: &mut Vec<E::State>,
) where
    E::Message: 'm,
{
    let n = states.len();
    // At most `MAX_AGENTS` senders: a receiver's tuple fits on the stack.
    let mut heard = [None; AgentId::MAX_AGENTS];
    next.truncate(n);
    next.extend_from_slice(&states[next.len()..]);
    for (j, slot) in next.iter_mut().enumerate() {
        let to = AgentId::new(j);
        hear(to, &mut heard[..n]);
        deliver_one(ex, states, actions, to, &heard[..n], slot);
    }
}

/// What carries a round's broadcasts from `μ` to `δ`, applying the
/// failure pattern `F`: in memory ([`Lockstep`]), or encoded, as
/// `eba-transport`'s wire channel does.
pub trait Channel<M> {
    /// Takes round `round`'s broadcasts onto the channel: `sent[from]` is
    /// what `from` selected (`None` is `⊥`).
    fn carry(&mut self, round: u32, sent: &[Option<M>]);

    /// Fills `heard[from]` with what `to` receives from each `from` in
    /// the round just carried, `sent` being what was carried.
    fn hear<'a>(&'a self, sent: &'a [Option<M>], to: AgentId, heard: &mut [Option<&'a M>]);
}

/// The lockstep channel: `to` hears what `from` selected unless
/// `dropped(round, from)` — `from`'s drop row, read once per round —
/// contains `to`.
pub struct Lockstep<D> {
    dropped: D,
    rows: [AgentSet; AgentId::MAX_AGENTS],
}

impl<D: Fn(u32, AgentId) -> AgentSet> Lockstep<D> {
    /// The channel whose drop rows `dropped` gives.
    pub fn new(dropped: D) -> Self {
        let rows = [AgentSet::empty(); AgentId::MAX_AGENTS];
        Lockstep { dropped, rows }
    }
}

/// The lockstep channel of `pattern`: its rows are
/// [`FailurePattern::dropped`].
pub fn lockstep(pattern: &FailurePattern) -> Lockstep<impl Fn(u32, AgentId) -> AgentSet + '_> {
    Lockstep::new(|round, from| pattern.dropped(round, from))
}

impl<M, D: Fn(u32, AgentId) -> AgentSet> Channel<M> for Lockstep<D> {
    fn carry(&mut self, round: u32, sent: &[Option<M>]) {
        for (from, row) in AgentId::all(sent.len()).zip(&mut self.rows) {
            *row = (self.dropped)(round, from);
        }
    }

    fn hear<'a>(&'a self, sent: &'a [Option<M>], to: AgentId, heard: &mut [Option<&'a M>]) {
        for ((slot, msg), row) in heard.iter_mut().zip(sent).zip(&self.rows) {
            *slot = msg.as_ref().filter(|_| !row.contains(to));
        }
    }
}

/// Applies one synchronous round, the 0-based `round`, of the global
/// transition of Section 3 over `channel`: [`select_round`] into
/// `outgoing`, [`Channel::carry`], then [`deliver_round`] into `next`,
/// each receiver hearing what the channel lends it.
pub fn step_round<E: InformationExchange>(
    ex: &E,
    round: u32,
    states: &[E::State],
    actions: &[Action],
    channel: &mut impl Channel<E::Message>,
    outgoing: &mut Vec<Option<E::Message>>,
    next: &mut Vec<E::State>,
) {
    select_round(ex, states, actions, outgoing);
    channel.carry(round, outgoing);
    let (channel, sent) = (&*channel, &outgoing[..]);
    let hear = |to, heard: &mut [_]| channel.hear(sent, to, heard);
    deliver_round(ex, states, actions, hear, next);
}

/// The buffers a run steps in, reused run after run: [`step_rounds`]
/// fills them round by round, and its observer reads them — or takes the
/// rows it keeps, which the loop then refills in fresh allocations.
pub struct RoundBuffers<E: InformationExchange> {
    /// The global state: the initial one, then after each round its
    /// successor.
    pub states: Vec<E::State>,
    /// The global state the round just stepped started from.
    pub previous: Vec<E::State>,
    /// The actions chosen in the round just stepped.
    pub actions: Vec<Action>,
    /// The round's broadcasts.
    pub outgoing: Vec<Option<E::Message>>,
}

impl<E: InformationExchange> Default for RoundBuffers<E> {
    fn default() -> Self {
        RoundBuffers {
            states: Vec::new(),
            previous: Vec::new(),
            actions: Vec::new(),
            outgoing: Vec::new(),
        }
    }
}

/// The one loop over a run's rounds in the workspace: steps `ctx` for
/// `horizon` rounds in `buffers` ([`step_round`]: `P_i`, `μ_i`, then
/// `channel`, which applies `pattern`, then `δ_i`), and hands each round
/// to `observe(m, buffers)`: `previous` holds the global state at time
/// `m`, `actions` what was chosen in round `m + 1`, and `states` the
/// state at time `m + 1`. Over the lockstep channel ([`lockstep`]) it
/// runs `eba-sim`'s `run_rounds` and every estimator trial; over
/// `eba-transport`'s wire channel, every loopback run and service
/// session. It checks the input shapes only ([`validate_scenario_shape`],
/// O(1)); whether the context's failure model admits the pattern is the
/// caller's business.
///
/// # Errors
///
/// Returns [`EbaError::InvalidInput`] if `inits.len() != n`, the pattern
/// was built for different parameters, or the horizon is too long.
pub fn step_rounds<E, P>(
    ctx: &Context<E, P>,
    pattern: &FailurePattern,
    inits: &[Value],
    horizon: u32,
    channel: &mut impl Channel<E::Message>,
    buffers: &mut RoundBuffers<E>,
    mut observe: impl FnMut(u32, &mut RoundBuffers<E>),
) -> Result<(), EbaError>
where
    E: InformationExchange,
    P: ActionProtocol<E>,
{
    let (ex, proto) = (ctx.exchange(), ctx.protocol());
    validate_scenario_shape(ctx.params(), pattern, inits, horizon)?;
    initial_states(ex, inits, &mut buffers.states);
    for m in 0..horizon {
        let b = &mut *buffers;
        choose_actions(proto, &b.states, &mut b.actions);
        let (states, next) = (&b.states, &mut b.previous);
        step_round(ex, m, states, &b.actions, channel, &mut b.outgoing, next);
        std::mem::swap(&mut b.states, &mut b.previous);
        observe(m, b);
    }
    Ok(())
}

/// Test shorthand for the exchanges' unit tests.
#[cfg(test)]
pub(crate) mod test_support {
    use super::*;

    /// One lockstep [`step_round`] into fresh buffers, with the channel
    /// given per pair: `delivers(from, to)`.
    pub fn step<E: InformationExchange>(
        ex: &E,
        states: &[E::State],
        actions: &[Action],
        delivers: impl Fn(AgentId, AgentId) -> bool,
    ) -> Vec<E::State> {
        let n = states.len();
        let dropped = |_, from| AgentId::all(n).filter(|&to| !delivers(from, to)).collect();
        let (mut outgoing, mut next) = (Vec::new(), Vec::new());
        let channel = &mut Lockstep::new(dropped);
        step_round(ex, 0, states, actions, channel, &mut outgoing, &mut next);
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Context;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The last state of agent 0 and the last message anyone sent in a
    /// failure-free run three rounds longer than the runs checked: what a
    /// reused slot may still hold.
    fn stale_slots<E, P>(ctx: &Context<E, P>) -> (E::State, Option<E::Message>)
    where
        E: InformationExchange,
        P: ActionProtocol<E>,
    {
        let (ex, n) = (ctx.exchange(), ctx.params().n());
        let (mut states, mut actions, mut outgoing, mut next) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let mut said = None;
        initial_states(ex, &vec![Value::Zero; n], &mut states);
        let channel = &mut Lockstep::new(|_, _| AgentSet::empty());
        for m in 0..ctx.params().default_horizon() + 3 {
            choose_actions(ctx.protocol(), &states, &mut actions);
            step_round(ex, m, &states, &actions, channel, &mut outgoing, &mut next);
            said = outgoing.iter().flatten().last().cloned().or(said);
            std::mem::swap(&mut states, &mut next);
        }
        (states.swap_remove(0), said)
    }

    /// Steps `ctx` over seeded random delivery matrices and checks, every
    /// round, that each receiver's [`deliver_one`] is its entry of
    /// [`deliver_round`], and that neither `μ` nor `δ` leaks what its
    /// output slot held before: every run starts its buffers out full of
    /// a longer run's state and message, and every write into such a
    /// slot must equal the same write into a fresh one.
    fn assert_deliver_one_is_a_receiver_of_deliver_round<E, P>(ctx: Context<E, P>, seed: u64)
    where
        E: InformationExchange,
        P: ActionProtocol<E>,
    {
        let (ex, n) = (ctx.exchange(), ctx.params().n());
        let (stale_state, stale_msg) = stale_slots(&ctx);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..8 {
            let inits: Vec<Value> = (0..n)
                .map(|_| Value::from_bit(rng.random_bool(0.5) as u8))
                .collect();
            let (mut states, mut actions, mut fresh) = (Vec::new(), Vec::new(), Vec::new());
            let mut outgoing = vec![stale_msg.clone(); n];
            let mut next = vec![stale_state.clone(); n];
            initial_states(ex, &inits, &mut states);
            for _ in 0..ctx.params().default_horizon() {
                choose_actions(ctx.protocol(), &states, &mut actions);
                select_round(ex, &states, &actions, &mut outgoing);
                select_round(ex, &states, &actions, &mut fresh);
                assert_eq!(outgoing, fresh, "{} μ into stale slots", ctx.name());
                let delivered: Vec<bool> = (0..n * n).map(|_| rng.random_bool(0.7)).collect();
                let heard = |from: AgentId, to: AgentId| {
                    let msg = outgoing[from.index()].as_ref();
                    msg.filter(|_| delivered[from.index() * n + to.index()])
                };
                let hear = |to, tuple: &mut [_]| {
                    for (from, slot) in AgentId::all(n).zip(tuple) {
                        *slot = heard(from, to);
                    }
                };
                deliver_round(ex, &states, &actions, hear, &mut next);
                for (j, successor) in next.iter().enumerate() {
                    let to = AgentId::new(j);
                    let received: Vec<_> = AgentId::all(n).map(|from| heard(from, to)).collect();
                    let mut one = ex.initial_state(to, Value::One);
                    deliver_one(ex, &states, &actions, to, &received, &mut one);
                    assert_eq!(&one, successor, "{} receiver {j}", ctx.name());
                    let mut dirty = stale_state.clone();
                    deliver_one(ex, &states, &actions, to, &received, &mut dirty);
                    assert_eq!(
                        dirty,
                        one,
                        "{} δ into a stale slot, receiver {j}",
                        ctx.name()
                    );
                }
                std::mem::swap(&mut states, &mut next);
            }
        }
    }

    #[test]
    fn deliver_one_is_one_receiver_of_deliver_round() {
        let params = Params::new(4, 1).unwrap();
        assert_deliver_one_is_a_receiver_of_deliver_round(Context::minimal(params), 1);
        assert_deliver_one_is_a_receiver_of_deliver_round(Context::basic(params), 2);
        assert_deliver_one_is_a_receiver_of_deliver_round(Context::fip(params), 3);
        assert_deliver_one_is_a_receiver_of_deliver_round(Context::naive(params), 4);
    }
}
