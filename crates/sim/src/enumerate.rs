//! Exhaustive enumeration of `R_{E,F,P}`: **all** runs of a context, for
//! small instances, under the context's [`FailureModel`] (the paper's
//! `SO(t)` by default; crash, general-omission, and failure-free
//! environments via [`Context::with_model`]). The entry
//! points are the [`Scenario`](crate::scenario::Scenario) methods
//! `enumerate`, `enumerate_into` and `enumerate_store`; this module is
//! the engine behind them.
//!
//! Knowledge is quantified over every run of the system, so the epistemic
//! model checker needs the complete set. Enumerating raw failure patterns
//! is hopeless (`2^{t·n·horizon}` drop sets), but three observations make
//! small instances tractable:
//!
//! 1. Dropping a `⊥` message changes nothing — only deliveries of *actual*
//!    (non-`⊥`) messages from *faulty* senders are branch points. Under
//!    `E_min`/`E_basic` agents are mostly silent, collapsing the space.
//! 2. Runs that agree on the nonfaulty set and the entire state trajectory
//!    are indistinguishable to every formula of the logic (the
//!    propositions read states and `N` only), so duplicates can be merged.
//! 3. `δ` is a tuple of local updates: a receiver's successor depends only
//!    on its own state, its action and what *it* hears. So a round's drop
//!    choices factor per receiver, and most duplicates are born as
//!    *siblings* — two drop sets that leave every agent in the same
//!    successor state (see "Sibling dedup" below) — and are merged where
//!    they arise instead of at the leaves of two equal subtrees.
//!
//! The faulty *set* remains a free choice even with zero drops: a faulty
//! agent that acts nonfaulty (footnote 3 of the paper) yields a different
//! run than the same trajectory with the agent nonfaulty.
//!
//! # Sharding
//!
//! The search space factors into independent **work items** — one per
//! `(N, initial preferences)` pair — because deduplication can never merge
//! runs across items: the dedup key contains `N`, and every exchange
//! records the initial value in its time-0 state, so runs from different
//! initial configurations differ in `states[0]`. The items run on
//! [`Parallelism::for_each_ordered`]: with more than one thread they are
//! sharded across threads and handed to the sink in item order, which
//! reproduces the sequential stream **bit for bit** — errors included:
//! the consumer meets item errors, the run limit and sink errors at the
//! same point of the stream as the sequential loop.
//!
//! # Sibling dedup
//!
//! One item is a depth-first search over a single mutable prefix (push a
//! round, recurse, pop). Every successor local state is interned into an
//! item-local [`StateArena`] as it is produced, so a global state is a
//! vector of `n` small ids; the last round's successors are moved in,
//! since a child at the horizon is a run, committed without its states.
//! A node's branch points are its droppable messages; receiver `j`'s
//! *column* is the `k_j` senders whose message it may miss. The node
//! tabulates each receiver's successors first: one [`deliver_one`] call
//! per subset of the column, in descending subset order, so a node costs
//! `Σ_j 2^{k_j}` updates where visiting every drop mask would cost
//! `n · 2^{Σ_j k_j}`. A table keeps each distinct
//! successor once, with the largest subset that yields it.
//!
//! Outside `Crash` the children of the node are exactly the product of the
//! tables. Two siblings with equal successor vectors would have equal
//! subtrees (siblings share their prefix, and the subtree below a node is
//! a function of its global state), so one child per distinct vector loses
//! no run. The children are visited in descending order of their
//! *representative* drop mask, the union of the per-receiver subsets read
//! as a sender-major bit mask. That is the order in which a descending
//! walk over every drop mask first meets each child: the receivers' bits
//! are disjoint, so the largest mask that yields a child is the union of
//! each receiver's largest subset. No set of visited children is kept,
//! and by induction over the depth every root-to-leaf path is a distinct
//! trajectory. Every child therefore yields a run of its own, which lets a
//! node whose product outgrows the run budget fail at the run limit while
//! it tabulates, before it builds the children.
//!
//! `Crash` couples the receivers: a sender with a dropped message crashes,
//! so a child is its successor vector *and* its set of not-yet-crashed
//! agents. Its tables keep every subset, the same walk then visits every
//! drop mask in descending order, and a child is skipped when an
//! **earlier-visited** sibling had the same vector and alive set. It also
//! keeps a leaf table, because two siblings with equal successors but
//! different crashed sets both survive and their subtrees overlap.
//!
//! Merging equal global states reached along *different* prefixes is not
//! done, and would not be sound for the run set: a run is the whole
//! trajectory, so two prefixes that meet in one global state contribute
//! one run per prefix for every continuation. (Sharing the *work* of such
//! subtrees — a memo DAG — is a separate matter; see ROADMAP.)
//!
//! # Streaming
//!
//! A finished item travels to the [`RunSink`] as an [`ItemRuns`]: its
//! prefix tree's records of ids plus the item's arena; a node under
//! `Crash` whose every leaf was a duplicate is dropped with its subtree. The interning [`RunStore`](crate::store::RunStore)
//! takes it as is, moving the arena's states into its own with the hashes
//! they were interned under; every other sink receives the runs one at a
//! time, materialised into [`EnumRun`]s as they are handed over. The engine
//! never holds the whole run set: peak residency is one item
//! (sequential) or the ordered map's window (parallel) — a thread may
//! only start an item within `2 × (threads + 1)` items past the last one
//! the sink took, so at most that many items are in flight or waiting,
//! and the lowest unclaimed item is always startable. Collecting is just
//! streaming into a `Vec`.

use std::collections::HashSet;
use std::ops::Range;

use eba_core::context::Context;
use eba_core::exchange::{
    choose_actions, deliver_one, initial_states, select_round, InformationExchange,
};
use eba_core::failures::FailureModel;
use eba_core::protocols::ActionProtocol;
use eba_core::types::{Action, AgentId, AgentSet, EbaError, Value};

use crate::runner::Parallelism;
use crate::sink::RunSink;
use crate::store::{StateArena, StateId, NO_PARENT};

/// The one run record: the nonfaulty set plus the full trajectory. The
/// enumerator yields one per run of the system, and
/// [`Scenario::run`](crate::scenario::Scenario::run) returns one for a
/// single case. Decisions are views of it (see [`crate::metrics`]);
/// traffic and 0-chains are views of it and the pattern it ran against
/// ([`Metrics::of`](crate::metrics::Metrics::of), [`crate::chains`]).
#[derive(Clone, Debug)]
pub struct EnumRun<E: InformationExchange> {
    /// The nonfaulty set `N` of the run's failure pattern.
    pub nonfaulty: AgentSet,
    /// The initial preferences.
    pub inits: Vec<Value>,
    /// `states[m][i]` — agent `i`'s local state at time `m`
    /// (`0 ..= horizon`).
    pub states: Vec<Vec<E::State>>,
    /// `actions[m][i]` — the action agent `i` performed at time `m`, i.e.
    /// in round `m + 1` (`0 .. horizon`).
    pub actions: Vec<Vec<Action>>,
}

impl<E: InformationExchange> EnumRun<E> {
    /// The number of rounds the run lasted.
    pub fn horizon(&self) -> u32 {
        self.actions.len() as u32
    }

    /// The final state of `agent`.
    pub fn final_state(&self, agent: AgentId) -> &E::State {
        &self.states[self.states.len() - 1][agent.index()]
    }
}

/// The runs of one `(N, inits)` work item, as the engine hands them to
/// [`RunSink::accept_item`]: the item's prefix tree, one record per node
/// in depth-first pre-order, over the item's own arena, so a prefix that
/// several runs share is stored once and a state that recurs across the
/// item is stored (and was hashed) once. A record at the horizon is a
/// leaf, and each leaf is one run, so the runs through a node are
/// consecutive.
///
/// [`ItemRuns::new`] and [`ItemRuns::push_node`] build one by hand.
#[derive(Debug)]
pub struct ItemRuns<E: InformationExchange> {
    pub(crate) nonfaulty: AgentSet,
    pub(crate) inits: Vec<Value>,
    pub(crate) horizon: u32,
    /// Ids in `state_ids` index this arena.
    pub(crate) arena: StateArena<E::State>,
    /// Each record's parent record, [`NO_PARENT`] at the root.
    pub(crate) parents: Vec<u32>,
    /// `n` ids per record: each agent's state at the node.
    pub(crate) state_ids: Vec<StateId>,
    /// `n` actions per record below the horizon, in record order: what
    /// each agent does at the node, in the round after it.
    pub(crate) actions: Vec<Action>,
    /// The number of leaves.
    pub(crate) runs: usize,
}

impl<E: InformationExchange> ItemRuns<E> {
    /// An empty item of runs with nonfaulty set `nonfaulty` and initial
    /// preferences `inits`, at `horizon`.
    pub fn new(nonfaulty: AgentSet, inits: Vec<Value>, horizon: u32) -> Self {
        ItemRuns {
            nonfaulty,
            inits,
            horizon,
            arena: StateArena::new(),
            parents: Vec::new(),
            state_ids: Vec::new(),
            actions: Vec::new(),
            runs: 0,
        }
    }

    /// Number of runs (leaves) in the item.
    pub fn len(&self) -> usize {
        self.runs
    }

    /// Whether the item holds no run.
    pub fn is_empty(&self) -> bool {
        self.runs == 0
    }

    /// Record `node` and its ancestors, up to its root.
    fn ancestry(&self, node: usize) -> impl Iterator<Item = usize> + '_ {
        let parent = |x: &usize| Some(self.parents[*x]).filter(|p| *p != NO_PARENT);
        std::iter::successors(Some(node), move |x| parent(x).map(|p| p as usize))
    }

    /// The depth of record `node`: its time.
    fn depth(&self, node: usize) -> u32 {
        self.ancestry(node).count() as u32 - 1
    }

    /// Appends a node below `parent` (`None` for a root) with each
    /// agent's state there and, below the horizon, each agent's action;
    /// returns the node's index. A node at the horizon is a run. Nodes
    /// come in pre-order: `parent` is the last node or an ancestor of it.
    ///
    /// # Errors
    ///
    /// Returns [`EbaError::InvalidInput`] for a row of the wrong length,
    /// a `parent` that is not on the last node's path or lies at the
    /// horizon, or an exhausted arena.
    pub fn push_node(
        &mut self,
        parent: Option<usize>,
        states: &[E::State],
        actions: &[Action],
    ) -> Result<usize, EbaError> {
        let n = self.inits.len();
        let last = self.parents.len().checked_sub(1);
        let on_path = |p| last.is_some_and(|last| self.ancestry(last).any(|x| x == p));
        let depth = parent.map_or(0, |p| self.depth(p) + 1);
        let row = if depth == self.horizon { 0 } else { n };
        if !parent.is_none_or(on_path)
            || depth > self.horizon
            || states.len() != n
            || actions.len() != row
        {
            return Err(EbaError::InvalidInput(format!(
                "node below {parent:?} at depth {depth}: expected {n} states and {row} \
                 actions below the last node's path, got {} and {}",
                states.len(),
                actions.len()
            )));
        }
        let ids = states
            .iter()
            .map(|state| self.arena.intern(state))
            .collect::<Result<Vec<_>, _>>()?;
        let parent = parent.map_or(NO_PARENT, |p| p as u32);
        Ok(self.push_ids(parent, &ids, (depth < self.horizon).then_some(actions)))
    }

    /// Appends a record of interned ids; `actions` is `None` at a leaf.
    fn push_ids(&mut self, parent: u32, ids: &[StateId], actions: Option<&[Action]>) -> usize {
        self.parents.push(parent);
        self.state_ids.extend_from_slice(ids);
        match actions {
            Some(actions) => self.actions.extend_from_slice(actions),
            None => self.runs += 1,
        }
        self.parents.len() - 1
    }

    /// Drops record `node` and every record after it, a subtree no run
    /// passes through; `actions` is the action count before `node`.
    fn truncate(&mut self, node: usize, actions: usize) {
        self.parents.truncate(node);
        self.state_ids.truncate(node * self.inits.len());
        self.actions.truncate(actions);
    }

    /// Materialises the runs one at a time, in enumeration order.
    pub(crate) fn into_runs(self) -> impl Iterator<Item = EnumRun<E>> {
        let (n, horizon) = (self.inits.len(), self.horizon);
        // The leaves, and each inner record's row of actions.
        let (mut leaves, mut action_row) = (Vec::new(), vec![0; self.parents.len()]);
        let mut inner = 0;
        for (x, row) in action_row.iter_mut().enumerate() {
            if self.depth(x) < horizon {
                (*row, inner) = (inner, inner + 1);
            } else {
                leaves.push(x);
            }
        }
        leaves.into_iter().map(move |leaf| {
            let mut chain: Vec<usize> = self.ancestry(leaf).collect();
            chain.reverse();
            let states = |x: &usize| {
                let ids = &self.state_ids[x * n..(x + 1) * n];
                ids.iter().map(|id| self.arena.get(*id).clone()).collect()
            };
            let actions = |x: &usize| self.actions[action_row[*x] * n..][..n].to_vec();
            EnumRun {
                nonfaulty: self.nonfaulty,
                inits: self.inits.clone(),
                states: chain.iter().map(states).collect(),
                actions: chain[..horizon as usize].iter().map(actions).collect(),
            }
        })
    }
}

/// Streams every run of `ctx` under its model into `sink` in the
/// deterministic enumeration order, returning the number of runs
/// delivered. The per-round adversary choice space the depth-first search
/// explores is the model's — sending-side drop subsets under `SO(t)`,
/// additionally receive-side drops under `GO(t)`, crash-consistent
/// silence suffixes under `CR(t)`, and nothing at all in the failure-free
/// model (whose only admissible nonfaulty set is `Agt`).
///
/// The run sets are nested along the model hierarchy: every run
/// enumerated under `FailureFree` appears under `Crash`, every `Crash`
/// run under `SendingOmission`, and every `SendingOmission` run under
/// `GeneralOmission`.
///
/// Fails with [`EbaError::InvalidInput`] if a round offers one receiver
/// more than 24 droppable messages (under `Crash`: the whole round; the
/// instance is too large to enumerate) or the deduplicated run count
/// exceeds `limit`, and propagates any error the sink returns.
pub(crate) fn stream_runs<E, P, S>(
    ctx: &Context<E, P>,
    horizon: u32,
    limit: usize,
    parallelism: Parallelism,
    sink: &mut S,
) -> Result<usize, EbaError>
where
    E: InformationExchange + Sync,
    P: ActionProtocol<E> + Sync,
    S: RunSink<E>,
{
    let (ex, proto, model) = (ctx.exchange(), ctx.protocol(), ctx.model());
    let items = WorkItems::new(ex.params(), model, limit)?;
    let item = |idx: usize| {
        let (nonfaulty, inits) = items.get(idx);
        enumerate_item(ex, proto, model, horizon, nonfaulty, inits, limit)
    };
    let mut total = 0usize;
    let deliver = |item_runs: Result<ItemRuns<E>, EbaError>| {
        // Deduplication is *not* needed across items: see the module
        // docs — their runs always differ in `N` or `states[0]`.
        let item_runs = item_runs?;
        total += item_runs.len();
        if total > limit {
            return Err(limit_error(limit));
        }
        sink.accept_item(item_runs)
    };
    parallelism.for_each_ordered(items.len(), item, deliver)?;
    Ok(total)
}

/// The independent shards of the search space, addressed by index in the
/// deterministic order the sequential enumerator visits them: nonfaulty
/// sets in [`FailureModel::nonfaulty_choices`] order, then initial
/// configurations in `init_configs` order (agent 0 = least-significant
/// bit).
///
/// Items are *decoded from the index on demand* rather than materialized:
/// there are `|choices| · 2^n` of them, which dwarfs the run limit long
/// before memory would.
struct WorkItems {
    choices: Vec<AgentSet>,
    n: usize,
}

impl WorkItems {
    /// Fails fast with the run-limit error when the item count alone
    /// already exceeds `limit`: every `(N, inits)` item contributes at
    /// least its drop-free trajectory as one deduplicated run, and items
    /// never dedup against each other, so `items > limit` implies the
    /// enumeration must exceed the limit. The admissible nonfaulty sets
    /// come from the model (only `Agt` under `FailureFree`).
    fn new(
        params: eba_core::types::Params,
        model: FailureModel,
        limit: usize,
    ) -> Result<Self, EbaError> {
        let choices = model.nonfaulty_choices(params);
        let total = 1usize
            .checked_shl(params.n() as u32)
            .and_then(|per_choice| choices.len().checked_mul(per_choice));
        match total {
            Some(total) if total <= limit => Ok(WorkItems {
                choices,
                n: params.n(),
            }),
            _ => Err(limit_error(limit)),
        }
    }

    fn len(&self) -> usize {
        self.choices.len() << self.n
    }

    fn get(&self, idx: usize) -> (AgentSet, Vec<Value>) {
        let (choice, mask) = (idx >> self.n, idx & ((1 << self.n) - 1));
        let inits = (0..self.n)
            .map(|i| Value::from_bit(((mask >> i) & 1) as u8))
            .collect();
        (self.choices[choice], inits)
    }
}

fn limit_error(limit: usize) -> EbaError {
    EbaError::InvalidInput(format!(
        "run enumeration exceeded the limit of {limit} runs"
    ))
}

/// Depth-first enumeration of one `(N, inits)` work item, deduplicated by
/// `(N, trajectory)` within the item (see the module docs, "Sibling
/// dedup"). A round's branch points are the non-⊥ messages the model lets
/// the adversary drop, tabulated per receiver; its children are the
/// distinct successor vectors their subsets yield:
///
/// * `FailureFree` / `SendingOmission` — the messages from faulty senders
///   (there are none under `FailureFree`, so its rounds never branch);
/// * `GeneralOmission` — the messages with a faulty endpoint (sender *or*
///   receiver);
/// * `Crash` — the messages from faulty senders that have not crashed
///   yet. A sender with a dropped message crashes now, and a crashed
///   sender loses everything — self-delivery included — in every later
///   round. A crash that delivers its full final round is not enumerated
///   separately: it yields the same deliveries as staying alive one more
///   round and crashing with a full drop, so the trajectory set is
///   unchanged.
fn enumerate_item<E, P>(
    ex: &E,
    proto: &P,
    model: FailureModel,
    horizon: u32,
    nonfaulty: AgentSet,
    inits: Vec<Value>,
    limit: usize,
) -> Result<ItemRuns<E>, EbaError>
where
    E: InformationExchange,
    P: ActionProtocol<E>,
{
    let n = ex.params().n();
    let mut init_states = Vec::with_capacity(n);
    initial_states(ex, &inits, &mut init_states);
    let mut search = ItemSearch {
        ex,
        proto,
        model,
        faulty: nonfaulty.complement(n),
        limit,
        item: ItemRuns::new(nonfaulty, inits, horizon),
        path: Vec::new(),
        nodes: Vec::new(),
        seen: HashSet::new(),
    };
    for state in &init_states {
        let id = search.item.arena.intern(state)?;
        search.path.push(id);
    }
    let roots: Vec<&E::State> = init_states.iter().collect();
    search.expand(&roots, search.faulty)?;
    Ok(search.item)
}

/// The depth-first search of one work item: the prefix under exploration
/// as two stacks, the records emitted so far, and the leaf table.
struct ItemSearch<'a, E: InformationExchange, P> {
    ex: &'a E,
    proto: &'a P,
    model: FailureModel,
    faulty: AgentSet,
    limit: usize,
    /// The records emitted so far; its arena interns the prefix's states
    /// too.
    item: ItemRuns<E>,
    /// Ids of the prefix's global states, `n` per time step.
    path: Vec<StateId>,
    /// The record of each node of the prefix but its last.
    nodes: Vec<u32>,
    /// Trajectories already emitted (only consulted under `Crash`, and as
    /// a check of the sibling-dedup argument in debug builds).
    seen: HashSet<Vec<StateId>>,
}

/// One row of a receiver's successor table: the successor, its interned
/// id, and the senders the receiver misses to reach it.
struct Successor<S> {
    /// `None` in the last round's tables, whose states were moved into
    /// the arena: a child at the horizon is a run, never expanded.
    state: Option<S>,
    id: StateId,
    dropped: AgentSet,
}

impl<E: InformationExchange, P: ActionProtocol<E>> ItemSearch<'_, E, P> {
    /// The record of the prefix's last node's parent.
    fn parent(&self) -> u32 {
        self.nodes.last().copied().unwrap_or(NO_PARENT)
    }

    /// Explores every continuation of the prefix, whose last global
    /// state is `current`; `alive` is the set of faulty agents that have
    /// not crashed (only shrinks under [`FailureModel::Crash`]).
    fn expand(&mut self, current: &[&E::State], alive: AgentSet) -> Result<(), EbaError> {
        let n = current.len();
        let m = self.nodes.len() as u32;
        if m == self.item.horizon {
            return self.commit();
        }
        let (mut actions, mut outgoing) = (Vec::with_capacity(n), Vec::with_capacity(n));
        choose_actions(self.proto, current, &mut actions);
        select_round(self.ex, current, &actions, &mut outgoing);

        // Branch points, sender-major; receiver `to`'s column is the
        // senders of its slots.
        let agents = || (0..n).map(AgentId::new);
        // `alive` is the faulty senders not yet crashed: outside `Crash`,
        // the faulty set.
        let droppable = |from: AgentId, to: AgentId| {
            self.model
                .admits_drop(alive.contains(from), self.faulty.contains(to))
        };
        let slots: Vec<(AgentId, AgentId)> = agents()
            .flat_map(|from| agents().map(move |to| (from, to)))
            .filter(|&(from, to)| droppable(from, to) && outgoing[from.index()].is_some())
            .collect();
        let column = |to: AgentId| slots.iter().filter(move |s| s.1 == to).map(|s| s.0);
        // A receiver's table has a row per subset of its column; the crash
        // walk below visits every subset of the round's slots.
        let crash = self.model == FailureModel::Crash;
        let choices = if crash {
            slots.len()
        } else {
            agents().map(|to| column(to).count()).max().unwrap_or(0)
        };
        if choices > 24 {
            return Err(EbaError::InvalidInput(format!(
                "round {} offers {choices} delivery choices; instance too \
                 large to enumerate",
                m + 1
            )));
        }

        // Each receiver's successors, one `δ_to` call per subset of its
        // column, in descending subset order (sender `i` is bit `i`); a
        // crashed sender reaches nobody. Outside `Crash` a table keeps the
        // first, largest, subset of each distinct successor, and every
        // child yields a run of its own, so the product of the table sizes
        // may not exceed the run budget.
        let crashed = self.faulty.difference(alive);
        let last = m + 1 == self.item.horizon;
        let budget = self.limit - self.item.len();
        let mut children = 1usize;
        let mut columns: Vec<Vec<Successor<E::State>>> = Vec::with_capacity(n);
        let mut received = Vec::with_capacity(n);
        for to in agents() {
            let (mut rows, mut distinct) = (Vec::new(), HashSet::new());
            for subset in (0u32..1 << column(to).count()).rev() {
                let dropped: AgentSet = column(to)
                    .enumerate()
                    .filter(|&(bit, _)| subset & (1 << bit) != 0)
                    .map(|(_, from)| from)
                    .collect();
                let lost = dropped.union(crashed);
                received.clear();
                received.extend(agents().map(|from| {
                    let msg = outgoing[from.index()].as_ref();
                    msg.filter(|_| !lost.contains(from))
                }));
                let state = deliver_one(self.ex, current, &actions, to, &received);
                let (id, state) = if last {
                    (self.item.arena.intern_owned(state)?, None)
                } else {
                    (self.item.arena.intern(&state)?, Some(state))
                };
                if crash || distinct.insert(id) {
                    rows.push(Successor { state, id, dropped });
                }
                if !crash && children.saturating_mul(rows.len()) > budget {
                    return Err(limit_error(self.limit));
                }
            }
            children = children.saturating_mul(rows.len());
            columns.push(rows);
        }

        // The node's record, then its children's: pre-order. Under
        // `Crash` every leaf below may be a duplicate; a node no run
        // passes through is dropped with its subtree.
        let (ids, runs) = (&self.path[self.path.len() - n..], self.item.len());
        let earlier_actions = self.item.actions.len();
        let record = self.item.push_ids(self.parent(), ids, Some(&actions));
        self.nodes.push(record as u32);
        let mut picks: Vec<Range<usize>> = columns.iter().map(|rows| 0..rows.len()).collect();
        self.visit(&columns, &slots, &mut picks, alive, &mut HashSet::new())?;
        self.nodes.pop();
        if self.item.len() == runs {
            self.item.truncate(record, earlier_actions);
        }
        Ok(())
    }

    /// Visits the children of a node in descending order of their
    /// representative drop mask (bit `b` drops `slots[b]`), deciding the
    /// highest undecided slot first. `picks[j]` is the range of
    /// `columns[j]` consistent with the slots decided so far: the rows are
    /// in descending order of their dropped sets, so within the range the
    /// rows that drop the slot's sender come first.
    fn visit(
        &mut self,
        columns: &[Vec<Successor<E::State>>],
        slots: &[(AgentId, AgentId)],
        picks: &mut [Range<usize>],
        alive: AgentSet,
        visited: &mut HashSet<(Vec<StateId>, AgentSet)>,
    ) -> Result<(), EbaError> {
        let Some((&(from, to), lower)) = slots.split_last() else {
            // Every range is down to one row: the child.
            let rows = || {
                picks
                    .iter()
                    .zip(columns)
                    .map(|(pick, rows)| &rows[pick.start])
            };
            let (n, crash) = (columns.len(), self.model == FailureModel::Crash);
            self.path.extend(rows().map(|row| row.id));
            let still_alive = if crash {
                rows().fold(alive, |alive, row| alive.difference(row.dropped))
            } else {
                alive
            };
            if !crash || visited.insert((self.path[self.path.len() - n..].to_vec(), still_alive)) {
                // Rows without a state are the last round's: the child is a run.
                match rows()
                    .map(|row| row.state.as_ref())
                    .collect::<Option<Vec<_>>>()
                {
                    Some(child) => self.expand(&child, still_alive)?,
                    None => self.commit()?,
                }
            }
            self.path.truncate(self.path.len() - n);
            return Ok(());
        };
        let range = picks[to.index()].clone();
        let drops =
            columns[to.index()][range.clone()].partition_point(|row| row.dropped.contains(from));
        for part in [
            range.start..range.start + drops,
            range.start + drops..range.end,
        ] {
            if !part.is_empty() {
                picks[to.index()] = part;
                self.visit(columns, lower, picks, alive, visited)?;
            }
        }
        picks[to.index()] = range;
        Ok(())
    }

    /// Emits the prefix, which has reached the horizon, as a leaf: a run.
    fn commit(&mut self) -> Result<(), EbaError> {
        // Sibling dedup leaves duplicates only under `Crash` (module
        // docs); elsewhere the table is the debug-build check of that.
        if self.model == FailureModel::Crash || cfg!(debug_assertions) {
            let fresh = self.seen.insert(self.path.clone());
            debug_assert!(
                fresh || self.model == FailureModel::Crash,
                "sibling dedup let a duplicate trajectory through"
            );
            if !fresh {
                return Ok(());
            }
        }
        if self.item.len() >= self.limit {
            return Err(limit_error(self.limit));
        }
        let ids = &self.path[self.path.len() - self.item.inits.len()..];
        self.item.push_ids(self.parent(), ids, None);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;
    use eba_core::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Collects every run of `ctx` at `horizon` on `parallelism` workers.
    fn collect<E, P>(ctx: &Context<E, P>, horizon: u32, parallelism: Parallelism) -> Vec<EnumRun<E>>
    where
        E: InformationExchange + Sync,
        P: ActionProtocol<E> + Sync,
    {
        Scenario::of(ctx)
            .horizon(horizon)
            .parallelism(parallelism)
            .enumerate()
            .unwrap()
    }

    fn assert_same_runs<E: InformationExchange>(a: &[EnumRun<E>], b: &[EnumRun<E>], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}");
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.nonfaulty, y.nonfaulty, "{what}");
            assert_eq!(x.inits, y.inits, "{what}");
            assert_eq!(x.states, y.states, "{what}");
            assert_eq!(x.actions, y.actions, "{what}");
        }
    }

    #[test]
    fn failure_free_only_when_t_zero() {
        // t = 0: one nonfaulty choice, no drops: exactly 2^n runs.
        let ctx = Context::minimal(Params::new(3, 0).unwrap());
        let runs = collect(&ctx, 3, Parallelism::Sequential);
        assert_eq!(runs.len(), 8);
        for run in &runs {
            assert_eq!(run.nonfaulty, AgentSet::full(3));
            assert_eq!(run.states.len(), 4);
            assert_eq!(run.actions.len(), 3);
        }
    }

    #[test]
    fn all_inits_appear() {
        let ctx = Context::minimal(Params::new(2, 0).unwrap());
        let runs = collect(&ctx, 2, Parallelism::Sequential);
        let mut inits: Vec<Vec<Value>> = runs.iter().map(|r| r.inits.clone()).collect();
        inits.sort();
        inits.dedup();
        assert_eq!(inits.len(), 4);
    }

    #[test]
    fn min_exchange_enumeration_is_compact() {
        // With E_min, agents send only in their deciding round, so the
        // branch factor is tiny compared to raw pattern enumeration.
        let ctx = Context::minimal(Params::new(3, 1).unwrap());
        let runs = collect(&ctx, 4, Parallelism::Sequential);
        // Sanity: more runs than the failure-free 8 × 4 nonfaulty choices,
        // far fewer than raw pattern enumeration (3 × 2^12 × 8 ≈ 98k).
        assert!(runs.len() > 32, "got {}", runs.len());
        assert!(runs.len() < 5_000, "got {}", runs.len());
    }

    #[test]
    fn faulty_but_clean_runs_are_distinct_from_nonfaulty() {
        // Footnote 3: for every trajectory with zero drops there is one run
        // per admissible nonfaulty set.
        let ctx = Context::minimal(Params::new(2, 1).unwrap());
        let runs = collect(&ctx, 3, Parallelism::Sequential);
        let all_ones: Vec<&EnumRun<_>> = runs
            .iter()
            .filter(|r| r.inits == vec![Value::One, Value::One])
            .collect();
        let mut nf_sets: Vec<u128> = all_ones.iter().map(|r| r.nonfaulty.bits()).collect();
        nf_sets.sort();
        nf_sets.dedup();
        // N = {0,1}, {0}, {1} all occur for the all-ones initial config.
        assert_eq!(nf_sets.len(), 3);
    }

    #[test]
    fn run_limit_is_enforced() {
        let ctx = Context::minimal(Params::new(3, 1).unwrap());
        let err = Scenario::of(&ctx)
            .horizon(4)
            .limit(10)
            .enumerate()
            .unwrap_err();
        assert!(err.to_string().contains("limit"));
    }

    #[test]
    fn parallel_run_limit_is_enforced() {
        let ctx = Context::minimal(Params::new(3, 1).unwrap());
        let err = Scenario::of(&ctx)
            .horizon(4)
            .limit(10)
            .parallelism(Parallelism::Fixed(4))
            .enumerate()
            .unwrap_err();
        assert!(err.to_string().contains("limit"));
    }

    #[test]
    fn trajectories_are_deterministic_given_choices() {
        // Every enumerated run must replay exactly under the lockstep
        // runner with a pattern reconstructed from its drops. Spot-check
        // the failure-free member.
        let ctx = Context::basic(Params::new(3, 1).unwrap());
        let runs = collect(&ctx, 4, Parallelism::Sequential);
        let inits = vec![Value::One; 3];
        let trace = Scenario::of(&ctx).inits(&inits).horizon(4).run().unwrap();
        let found = runs.iter().any(|r| {
            r.nonfaulty == AgentSet::full(3) && r.inits == inits && r.states == trace.states
        });
        assert!(found, "the failure-free trajectory must be enumerated");
    }

    #[test]
    fn streaming_parallel_preserves_sequential_order() {
        // The ordered map must deliver runs to the sink in the exact
        // sequential order even when workers finish out of order.
        let ctx = Context::basic(Params::new(3, 1).unwrap());
        let sequential = collect(&ctx, 4, Parallelism::Sequential);
        let mut streamed: Vec<EnumRun<BasicExchange>> = Vec::new();
        let total = Scenario::of(&ctx)
            .horizon(4)
            .parallelism(Parallelism::Fixed(4))
            .enumerate_into(&mut streamed)
            .unwrap();
        assert_eq!(total, sequential.len());
        assert_same_runs(&sequential, &streamed, "Fixed(4) stream");
    }

    #[test]
    fn streaming_parallel_propagates_sink_errors() {
        let ctx = Context::minimal(Params::new(3, 1).unwrap());
        let mut seen = 0usize;
        let err = Scenario::of(&ctx)
            .horizon(4)
            .parallelism(Parallelism::Fixed(4))
            .enumerate_into(&mut |_run: EnumRun<MinExchange>| {
                seen += 1;
                if seen >= 3 {
                    Err(EbaError::InvalidInput("sink aborted".into()))
                } else {
                    Ok(())
                }
            })
            .unwrap_err();
        assert!(err.to_string().contains("sink aborted"));
    }

    /// Collects the `(N, trajectory)` dedup keys of a model's run set.
    fn model_keys<E, P>(ctx: &Context<E, P>, model: FailureModel) -> Vec<(u128, Vec<Vec<E::State>>)>
    where
        E: InformationExchange + Clone + Sync,
        P: ActionProtocol<E> + Clone + Sync,
    {
        let mut keys = Vec::new();
        Scenario::of(&ctx.clone().with_model(model))
            .horizon(4)
            .enumerate_into(&mut |run: EnumRun<E>| {
                keys.push((run.nonfaulty.bits(), run.states));
                Ok(())
            })
            .unwrap();
        keys
    }

    #[test]
    fn failure_free_model_enumerates_exactly_the_initial_configs() {
        // Only N = Agt and no drops: one run per initial configuration,
        // even though t > 0 admits faulty sets in the other models.
        let ctx = Context::minimal(Params::new(3, 1).unwrap());
        let keys = model_keys(&ctx, FailureModel::FailureFree);
        assert_eq!(keys.len(), 8);
        for (nf, _) in &keys {
            assert_eq!(*nf, AgentSet::full(3).bits());
        }
    }

    #[test]
    fn model_run_sets_are_nested_along_the_hierarchy() {
        // FailureFree ⊆ Crash ⊆ SendingOmission ⊆ GeneralOmission, as
        // (N, trajectory) sets, strictly at (3, 1) for E_basic/P_basic
        // (strictness of FF ⊂ Crash needs a faulty-but-clean run, which
        // FF's single nonfaulty choice cannot produce).
        let ctx = Context::basic(Params::new(3, 1).unwrap());
        let chain = [
            FailureModel::FailureFree,
            FailureModel::Crash,
            FailureModel::SendingOmission,
            FailureModel::GeneralOmission,
        ];
        let sets: Vec<std::collections::HashSet<_>> = chain
            .iter()
            .map(|m| model_keys(&ctx, *m).into_iter().collect())
            .collect();
        for w in sets.windows(2) {
            assert!(w[0].is_subset(&w[1]));
            assert!(w[0].len() < w[1].len());
        }
    }

    #[test]
    fn crash_runs_never_revive_a_crashed_sender() {
        // Derived check on trajectories is hard in general, but the crash
        // expansion must at least stay within the SO run set and below
        // its cardinality (the crash adversary is strictly weaker for
        // E_basic at (3, 1), where senders can usefully revive).
        let ctx = Context::basic(Params::new(3, 1).unwrap());
        let crash: std::collections::HashSet<_> =
            model_keys(&ctx, FailureModel::Crash).into_iter().collect();
        let so: std::collections::HashSet<_> = model_keys(&ctx, FailureModel::SendingOmission)
            .into_iter()
            .collect();
        assert!(!crash.is_empty());
        assert!(crash.is_subset(&so));
        assert!(crash.len() < so.len());
    }

    #[test]
    fn general_omission_adds_receive_side_runs() {
        // Under GO a faulty *receiver* can miss a nonfaulty sender's
        // announcement — trajectories SO cannot produce.
        let ctx = Context::minimal(Params::new(3, 1).unwrap());
        let so: std::collections::HashSet<_> = model_keys(&ctx, FailureModel::SendingOmission)
            .into_iter()
            .collect();
        let go: std::collections::HashSet<_> = model_keys(&ctx, FailureModel::GeneralOmission)
            .into_iter()
            .collect();
        assert!(so.is_subset(&go));
        assert!(so.len() < go.len(), "GO must strictly extend SO");
    }

    #[test]
    fn context_model_steers_enumerate_into() {
        // `enumerate_into` follows the model carried by the context.
        let ctx =
            Context::minimal(Params::new(3, 1).unwrap()).with_model(FailureModel::FailureFree);
        let mut count = 0usize;
        let total = Scenario::of(&ctx)
            .horizon(4)
            .enumerate_into(&mut |_run: EnumRun<MinExchange>| {
                count += 1;
                Ok(())
            })
            .unwrap();
        assert_eq!((count, total), (8, 8));
    }

    #[test]
    fn parallel_matches_sequential_for_every_model() {
        for model in [
            FailureModel::FailureFree,
            FailureModel::Crash,
            FailureModel::GeneralOmission,
        ] {
            let ctx = Context::basic(Params::new(3, 1).unwrap()).with_model(model);
            let sequential = collect(&ctx, 4, Parallelism::Sequential);
            let parallel = collect(&ctx, 4, Parallelism::Fixed(4));
            assert_same_runs(&sequential, &parallel, &format!("{model:?}"));
        }
    }

    #[test]
    fn parallel_matches_sequential_exactly() {
        // The headline guarantee: same runs, same order, for every
        // worker count, including more workers than items.
        let ctx = Context::basic(Params::new(3, 1).unwrap());
        let sequential = collect(&ctx, 4, Parallelism::Sequential);
        for parallelism in [
            Parallelism::Sequential,
            Parallelism::Auto,
            Parallelism::Fixed(2),
            Parallelism::Fixed(3),
            Parallelism::Fixed(64),
        ] {
            let parallel = collect(&ctx, 4, parallelism);
            assert_same_runs(&sequential, &parallel, &format!("{parallelism:?}"));
        }
    }

    /// Forwards to `E`, counting the `δ` calls an enumeration pays.
    struct CountingExchange<E> {
        inner: E,
        updates: AtomicUsize,
    }

    impl<E: InformationExchange> InformationExchange for CountingExchange<E> {
        type State = E::State;
        type Message = E::Message;

        fn name(&self) -> &'static str {
            self.inner.name()
        }

        fn params(&self) -> Params {
            self.inner.params()
        }

        fn initial_state(&self, agent: AgentId, init: Value) -> E::State {
            self.inner.initial_state(agent, init)
        }

        fn broadcast(
            &self,
            agent: AgentId,
            state: &E::State,
            action: Action,
        ) -> Option<E::Message> {
            self.inner.broadcast(agent, state, action)
        }

        fn update(
            &self,
            agent: AgentId,
            state: &E::State,
            action: Action,
            received: &[Option<&E::Message>],
        ) -> E::State {
            self.updates.fetch_add(1, Ordering::Relaxed);
            self.inner.update(agent, state, action, received)
        }

        fn time(&self, state: &E::State) -> u32 {
            self.inner.time(state)
        }

        fn init(&self, state: &E::State) -> Value {
            self.inner.init(state)
        }

        fn decided(&self, state: &E::State) -> Option<Value> {
            self.inner.decided(state)
        }

        fn message_bits(&self, msg: &E::Message) -> u64 {
            self.inner.message_bits(msg)
        }
    }

    /// Forwards to `P` over the counting exchange, counting `act` calls:
    /// `n` per node the search expands.
    struct CountingProtocol<P> {
        inner: P,
        acts: AtomicUsize,
    }

    impl<E: InformationExchange, P: ActionProtocol<E>> ActionProtocol<CountingExchange<E>>
        for CountingProtocol<P>
    {
        fn name(&self) -> &'static str {
            self.inner.name()
        }

        fn act(&self, agent: AgentId, state: &E::State) -> Action {
            self.acts.fetch_add(1, Ordering::Relaxed);
            self.inner.act(agent, state)
        }
    }

    /// `(update calls, children)` of one sequential horizon-4 pass over
    /// `ctx`. The children are the search nodes below the items' roots:
    /// every node short of the horizon costs `n` `act` calls, and every
    /// horizon node is one run (no model pinned below leaves the leaf
    /// table a duplicate to drop).
    fn pass_counts<E, P>(ctx: Context<E, P>) -> (usize, usize)
    where
        E: InformationExchange + Sync,
        P: ActionProtocol<E> + Sync,
    {
        let (params, model) = (ctx.params(), ctx.model());
        let (inner, protocol) = ctx.into_parts();
        let counted = Context::new(
            CountingExchange {
                inner,
                updates: AtomicUsize::new(0),
            },
            CountingProtocol {
                inner: protocol,
                acts: AtomicUsize::new(0),
            },
        )
        .with_model(model);
        let runs = Scenario::of(&counted)
            .horizon(4)
            .enumerate_store()
            .unwrap()
            .run_count();
        let items = model.nonfaulty_choices(params).len() << params.n();
        let expanded = counted.protocol().acts.load(Ordering::Relaxed) / params.n();
        let updates = counted.exchange().updates.load(Ordering::Relaxed);
        (updates, expanded - items + runs)
    }

    #[test]
    fn update_and_children_counts_per_pass_are_pinned() {
        let params = Params::new(3, 1).unwrap();
        let (go, so, crash) = (
            FailureModel::GeneralOmission,
            FailureModel::SendingOmission,
            FailureModel::Crash,
        );
        let counts = [
            (
                "E_basic@GO",
                pass_counts(Context::basic(params).with_model(go)),
            ),
            ("E_fip@SO", pass_counts(Context::fip(params).with_model(so))),
            (
                "E_fip@crash",
                pass_counts(Context::fip(params).with_model(crash)),
            ),
            (
                "E_min@GO",
                pass_counts(Context::minimal(params).with_model(go)),
            ),
            (
                "E_naive@GO",
                pass_counts(Context::naive(params).with_model(go)),
            ),
        ];
        // `Σ_j 2^{k_j}` updates per node, one per subset of a receiver's
        // column; the drop-mask loop this replaced paid `n · 2^{Σ_j k_j}`
        // (41,982 / 337,056 / 5,424 / 3,381 / 15,027).
        assert_eq!(
            counts,
            [
                ("E_basic@GO", (9_534, 4_970)),
                ("E_fip@SO", (84_336, 112_352)),
                ("E_fip@crash", (3_696, 1_808)),
                ("E_min@GO", (1_809, 749)),
                ("E_naive@GO", (2_163, 308)),
            ]
        );
    }

    #[test]
    fn a_wide_round_with_narrow_columns_stops_at_the_run_limit() {
        // Three faulty senders at n = 9 offer 27 droppable messages in
        // round 1, but only 3 to each receiver: the node's 2^27 distinct
        // children exceed the budget, and the item stops at the run limit
        // while it tabulates them, instead of refusing the round.
        let ctx = Context::fip(Params::new(9, 3).unwrap());
        let nonfaulty: AgentSet = (3..9).map(AgentId::new).collect();
        let err = enumerate_item(
            ctx.exchange(),
            ctx.protocol(),
            FailureModel::SendingOmission,
            1,
            nonfaulty,
            vec![Value::One; 9],
            1_000,
        )
        .unwrap_err();
        assert_eq!(err.to_string(), limit_error(1_000).to_string());
    }

    #[test]
    fn parallel_limit_and_item_errors_read_like_the_sequential_ones() {
        // 32 items on 64 requested workers (one each), a limit that
        // breaks inside the stream, and a limit that breaks inside one
        // item: the same messages as the sequential loop.
        let ctx =
            Context::basic(Params::new(3, 1).unwrap()).with_model(FailureModel::GeneralOmission);
        for limit in [3_000, 40] {
            let error = |parallelism| {
                Scenario::of(&ctx)
                    .horizon(4)
                    .limit(limit)
                    .parallelism(parallelism)
                    .enumerate()
                    .unwrap_err()
                    .to_string()
            };
            let sequential = error(Parallelism::Sequential);
            assert!(sequential.contains(&format!("limit of {limit} runs")));
            assert_eq!(error(Parallelism::Fixed(64)), sequential);
        }
    }
}
