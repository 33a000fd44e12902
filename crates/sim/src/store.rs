//! Interned, tree-shaped storage for enumerated run sets.
//!
//! Enumerated runs repeat themselves twice over: two runs that differ only
//! in a late drop share their whole prefix, and one agent's local state
//! recurs across thousands of adversary choices. [`RunStore`] stores
//! neither twice:
//!
//! * a [`StateArena`] interns each distinct `E::State` **once**, behind a
//!   dense [`StateId`] (a `u32`);
//! * the enumerator's prefix tree is the node table: one node per
//!   distinct `(N, inits, global-state prefix)`, holding each agent's
//!   `StateId` and action there, its parent and the runs through it.
//!
//! `RunStore` is a [`RunSink`], fed **incrementally** by the streaming
//! enumeration engine
//! ([`Scenario::enumerate_store`](crate::scenario::Scenario::enumerate_store)):
//! each finished work item arrives as its tree's records over the item's
//! own small arena ([`ItemRuns`]), and only its distinct states move into
//! the store's arena, together with the hashes the worker interned them
//! under, so no `EnumRun` ever exists. Two points have equal local states
//! **iff** their `StateId`s are equal, so indistinguishability classes
//! fall out of a counting sort of each agent's node column, and
//! per-state computations (`decided`, protocol actions) are memoized per
//! distinct state.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};
use std::ops::Range;

use eba_core::exchange::InformationExchange;
use eba_core::types::{Action, AgentSet, EbaError, Value};

use crate::enumerate::{EnumRun, ItemRuns};
use crate::sink::RunSink;

/// Identifier of a point `(r, m)`: `r * (horizon + 1) + m`.
pub type PointId = u32;

/// Dense identifier of an interned state in a [`StateArena`].
///
/// Ids are assigned in first-occurrence order; two ids are equal iff the
/// interned states are equal, so `StateId` comparison replaces full state
/// comparison everywhere downstream.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct StateId(u32);

impl StateId {
    /// The arena slot, for indexing per-state memo tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Interns values so each distinct one is stored exactly once.
///
/// Every state is held in memory once, in the dense `states` vector, next
/// to the [`DefaultHasher`] hash it was interned under. The reverse index
/// maps a hash to the first id with it, and ids that share a hash are
/// chained through `next`, so the index has one slot per distinct hash and
/// a new state costs 12 bytes besides itself and its index slot, with no
/// allocation of its own. The index's key already is a hash, so the map
/// hashes it with a pass-through hasher.
#[derive(Clone, Debug)]
pub struct StateArena<S> {
    states: Vec<S>,
    /// `hashes[id]`: the hash `states[id]` was interned under.
    hashes: Vec<u64>,
    /// `next[id]`: the next id with the same hash, or [`NO_ID`].
    next: Vec<u32>,
    /// The first id with each hash.
    index: HashMap<u64, u32, BuildHasherDefault<HashIsKey>>,
}

/// The end of a hash chain (never an id: ids stay below `u32::MAX`).
const NO_ID: u32 = u32::MAX;

/// The index's hasher: its keys already are hashes.
#[derive(Default)]
struct HashIsKey(u64);

impl Hasher for HashIsKey {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("the index is keyed by `u64` hashes, through `write_u64`");
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = key;
    }
}

fn hash_of<S: Hash>(state: &S) -> u64 {
    BuildHasherDefault::<DefaultHasher>::default().hash_one(state)
}

impl<S: Clone + Eq + Hash> StateArena<S> {
    /// An empty arena.
    pub fn new() -> Self {
        StateArena {
            states: Vec::new(),
            hashes: Vec::new(),
            next: Vec::new(),
            index: HashMap::default(),
        }
    }

    /// Returns the id of `state`, interning a clone on first sight.
    ///
    /// # Errors
    ///
    /// Returns [`EbaError::InvalidInput`] if the arena already holds
    /// `u32::MAX` distinct states (the id space is exhausted).
    pub fn intern(&mut self, state: &S) -> Result<StateId, EbaError> {
        let hash = hash_of(state);
        self.find(hash, state)
            .map_or_else(|| self.push(hash, state.clone()), Ok)
    }

    /// [`intern`](Self::intern) by move, of a state whose hash is already
    /// known, as [`into_hashed`](Self::into_hashed) hands it out: `state`
    /// is dropped if the arena already holds it.
    pub(crate) fn intern_hashed(&mut self, hash: u64, state: S) -> Result<StateId, EbaError> {
        debug_assert_eq!(hash, hash_of(&state), "a state moved with another hash");
        self.find(hash, &state)
            .map_or_else(|| self.push(hash, state), Ok)
    }

    fn find(&self, hash: u64, state: &S) -> Option<StateId> {
        let mut id = *self.index.get(&hash)?;
        while id != NO_ID {
            if self.states[id as usize] == *state {
                return Some(StateId(id));
            }
            id = self.next[id as usize];
        }
        None
    }

    /// Appends a state `find` missed, at the head of its hash's chain.
    fn push(&mut self, hash: u64, state: S) -> Result<StateId, EbaError> {
        if self.states.len() >= NO_ID as usize {
            return Err(EbaError::InvalidInput(
                "state arena exhausted: more than u32::MAX distinct states".into(),
            ));
        }
        let id = self.states.len() as u32;
        self.next.push(self.index.insert(hash, id).unwrap_or(NO_ID));
        self.hashes.push(hash);
        self.states.push(state);
        Ok(StateId(id))
    }

    /// Moves every state out with the hash it was interned under, in id
    /// order, each in a slot to [`take`](Option::take) it from.
    pub(crate) fn into_hashed(self) -> Vec<Option<(u64, S)>> {
        self.hashes.into_iter().zip(self.states).map(Some).collect()
    }

    /// The interned state behind `id`.
    pub fn get(&self, id: StateId) -> &S {
        &self.states[id.index()]
    }

    /// All interned states, dense in id order — index with
    /// [`StateId::index`] to build per-state memo tables.
    pub fn states(&self) -> &[S] {
        &self.states
    }

    /// Number of distinct states interned.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Whether nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }
}

impl<S: Clone + Eq + Hash> Default for StateArena<S> {
    fn default() -> Self {
        Self::new()
    }
}

/// Fails with [`EbaError::InvalidInput`] when a system of `runs` runs at
/// `horizon` would overflow the `u32` [`PointId`] space.
///
/// Point ids are `run * (horizon + 1) + time`, and node ids and class
/// offsets are `u32` counts of nodes, which never outnumber the points,
/// so all need `runs * (horizon + 1) ≤ u32::MAX`. Checked by every system
/// constructor instead of silently truncating ids.
///
/// # Errors
///
/// Returns [`EbaError::InvalidInput`] naming the overflowing product.
pub fn ensure_point_capacity(runs: usize, horizon: u32) -> Result<(), EbaError> {
    let per_run = horizon as usize + 1;
    match runs.checked_mul(per_run) {
        Some(points) if points <= u32::MAX as usize => Ok(()),
        _ => Err(EbaError::InvalidInput(format!(
            "system too large: {runs} runs x {per_run} points per run \
             exceeds the u32 point-id space"
        ))),
    }
}

/// The parent of a root.
pub(crate) const NO_PARENT: u32 = u32::MAX;

/// An interned run set stored as its prefix tree: the streaming-friendly
/// backbone the epistemic layer builds interpreted systems on.
///
/// A node is a distinct `(N, inits, global-state prefix)` and holds each
/// agent's [`StateId`] and action there. Nodes are in depth-first
/// pre-order, so the runs through a node are consecutive, and a run is a
/// leaf: the point `(run, time)` is the leaf's ancestor at depth `time`.
/// Feed it through [`RunSink`] (the enumeration engine's items, one tree
/// per `(N, inits)`) or [`RunStore::push_run`], which appends one
/// unshared chain per run.
///
/// ```
/// use eba_core::prelude::*;
/// use eba_sim::prelude::*;
///
/// # fn main() -> Result<(), EbaError> {
/// let ctx = Context::minimal(Params::new(3, 0)?);
/// let store: RunStore<MinExchange> = Scenario::of(&ctx).horizon(3).enumerate_store()?;
/// assert_eq!(store.run_count(), 8); // 2^3 initial configurations
/// assert_eq!(store.point_count(), 8 * 4);
/// // One root per initial configuration, one chain below each:
/// assert_eq!(store.node_count(), 8 * 4);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct RunStore<E: InformationExchange> {
    n: usize,
    horizon: u32,
    arena: StateArena<E::State>,
    nodes: Vec<Node>,
    /// `state_ids[agent][node]`.
    state_ids: Vec<Vec<StateId>>,
    /// `actions[node * n + agent]`; `Noop` at the horizon.
    actions: Vec<Action>,
    /// `leaf[run]`: the run's node at the horizon.
    leaf: Vec<u32>,
    /// Each root's node, whose subtree runs to the next root's, and `N`.
    roots: Vec<(u32, AgentSet)>,
    /// `inits[root * n + agent]`.
    inits: Vec<Value>,
}

/// A node of a [`RunStore`]'s tree.
#[derive(Clone, Copy, Debug)]
struct Node {
    parent: u32,
    /// The time of the node's points.
    depth: u32,
    /// The runs through the node, `start..end`.
    runs: (u32, u32),
}

impl<E: InformationExchange> RunStore<E> {
    /// An empty store for systems of `n` agents at `horizon`.
    pub fn new(n: usize, horizon: u32) -> Self {
        RunStore {
            n,
            horizon,
            arena: StateArena::new(),
            nodes: Vec::new(),
            state_ids: vec![Vec::new(); n],
            actions: Vec::new(),
            leaf: Vec::new(),
            roots: Vec::new(),
            inits: Vec::new(),
        }
    }

    /// Interns one run into the store, as a chain of nodes of its own.
    ///
    /// # Errors
    ///
    /// Returns [`EbaError::InvalidInput`] if the run's shape disagrees
    /// with the store (`horizon + 1` state rows of `n` states each,
    /// `horizon` action rows), if the new run would overflow the `u32`
    /// point-id space (see [`ensure_point_capacity`]), or if the arena
    /// runs out of state ids.
    pub fn push_run(&mut self, run: &EnumRun<E>) -> Result<(), EbaError> {
        if run.states.len() != self.horizon as usize + 1
            || run.states.iter().any(|row| row.len() != self.n)
            || run.actions.len() != self.horizon as usize
            || run.actions.iter().any(|row| row.len() != self.n)
            || run.inits.len() != self.n
        {
            let agents = run.states.first().map_or(0, Vec::len);
            return Err(self.shape_mismatch(run.states.len(), agents, run.actions.len()));
        }
        ensure_point_capacity(self.run_count() + 1, self.horizon)?;
        let (mut parent, mut rows) = (NO_PARENT, run.actions.iter().map(Vec::as_slice));
        for states in &run.states {
            for (column, state) in self.state_ids.iter_mut().zip(states) {
                column.push(self.arena.intern(state)?);
            }
            parent = self.append(parent, run.nonfaulty, &run.inits, &mut rows);
        }
        Ok(())
    }

    /// Appends a node below `parent`, or a root of `(nonfaulty, inits)`
    /// at [`NO_PARENT`], whose state ids the caller pushed; below the
    /// horizon its actions are the next of `rows`.
    fn append<'a>(
        &mut self,
        parent: u32,
        nonfaulty: AgentSet,
        inits: &[Value],
        rows: &mut impl Iterator<Item = &'a [Action]>,
    ) -> u32 {
        let node = self.node_count() as u32;
        let depth = match parent {
            NO_PARENT => {
                self.roots.push((node, nonfaulty));
                self.inits.extend_from_slice(inits);
                0
            }
            parent => self.nodes[parent as usize].depth + 1,
        };
        let run = self.run_count() as u32;
        let runs = (run, run);
        self.nodes.push(Node {
            parent,
            depth,
            runs,
        });
        if depth < self.horizon {
            self.actions
                .extend_from_slice(rows.next().expect("a row per inner node"));
            return node;
        }
        // A leaf: its run passes through it and every ancestor.
        self.actions.extend((0..self.n).map(|_| Action::Noop));
        self.leaf.push(node);
        let mut up = node;
        while up != NO_PARENT {
            self.nodes[up as usize].runs.1 = run + 1;
            up = self.nodes[up as usize].parent;
        }
        node
    }

    fn shape_mismatch(&self, state_rows: usize, agents: usize, action_rows: usize) -> EbaError {
        EbaError::InvalidInput(format!(
            "run shape mismatch: expected {} state rows x {} agents and {} \
             action rows, got {state_rows} x {agents} and {action_rows}",
            self.horizon as usize + 1,
            self.n,
            self.horizon,
        ))
    }

    /// Number of agents.
    pub fn agents(&self) -> usize {
        self.n
    }

    /// The horizon (rounds per run).
    pub fn horizon(&self) -> u32 {
        self.horizon
    }

    /// Number of interned runs.
    pub fn run_count(&self) -> usize {
        self.leaf.len()
    }

    /// Total number of points, `runs * (horizon + 1)`.
    pub fn point_count(&self) -> usize {
        self.run_count() * (self.horizon as usize + 1)
    }

    /// Number of nodes, `run_count()` of them leaves at the horizon.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of distinct local states across all agents and points.
    pub fn distinct_states(&self) -> usize {
        self.arena.len()
    }

    /// The arena holding every distinct state.
    pub fn arena(&self) -> &StateArena<E::State> {
        &self.arena
    }

    /// The node of the point `(run, time)`.
    pub fn node(&self, run: usize, time: u32) -> usize {
        let mut node = self.leaf[run] as usize;
        for _ in time..self.horizon {
            node = self.nodes[node].parent as usize;
        }
        node
    }

    /// The parent of `node`; `None` at a root.
    pub fn parent(&self, node: usize) -> Option<usize> {
        let parent = self.nodes[node].parent;
        (parent != NO_PARENT).then_some(parent as usize)
    }

    /// The time of `node`'s points.
    pub fn depth(&self, node: usize) -> u32 {
        self.nodes[node].depth
    }

    /// The runs through `node`.
    pub fn runs(&self, node: usize) -> Range<usize> {
        let (start, end) = self.nodes[node].runs;
        start as usize..end as usize
    }

    /// `agent`'s local state id at every node, in node order.
    pub fn node_state_ids(&self, agent: usize) -> &[StateId] {
        &self.state_ids[agent]
    }

    /// The action `agent` performs at `node`; `Noop` at the horizon.
    pub fn node_action(&self, node: usize, agent: usize) -> Action {
        self.actions[node * self.n + agent]
    }

    /// Each root's subtree (a node range), nonfaulty set and initial
    /// preferences, in node order.
    pub fn roots(&self) -> impl Iterator<Item = (Range<usize>, AgentSet, &[Value])> + '_ {
        let ends = self.roots[1..].iter().map(|root| root.0 as usize);
        let ends = ends.chain([self.node_count()]);
        let inits = self.inits.chunks_exact(self.n);
        (self.roots.iter().zip(ends).zip(inits))
            .map(|((root, end), inits)| (root.0 as usize..end, root.1, inits))
    }

    /// Calls `f(run, chain)` for every run in order, `chain[time]` its
    /// node at `time`. Consecutive runs share their common prefix's walk,
    /// so a pass costs a step per node and per run.
    pub fn for_each_chain(&self, mut f: impl FnMut(usize, &[usize])) {
        let mut chain = vec![usize::MAX; self.horizon as usize + 1];
        for (run, leaf) in self.leaf.iter().enumerate() {
            let (mut node, mut m) = (*leaf as usize, self.horizon as usize);
            while chain[m] != node {
                chain[m] = node;
                let Some(up) = m.checked_sub(1) else { break };
                (node, m) = (self.nodes[node].parent as usize, up);
            }
            f(run, &chain);
        }
    }

    /// The interned id of `agent`'s local state at `point`.
    pub fn state_id(&self, agent: usize, point: usize) -> StateId {
        let per_run = self.horizon as usize + 1;
        self.state_ids[agent][self.node(point / per_run, (point % per_run) as u32)]
    }

    /// `agent`'s local state at `point`, resolved through the arena.
    pub fn state(&self, agent: usize, point: usize) -> &E::State {
        self.arena.get(self.state_id(agent, point))
    }

    /// The action `agent` performs in round `round + 1` of `run`.
    ///
    /// # Panics
    ///
    /// If `run`, `round` or `agent` is out of range.
    pub fn action(&self, run: usize, round: u32, agent: usize) -> Action {
        let (horizon, n) = (self.horizon, self.n);
        assert!(round < horizon, "round {round} past horizon {horizon}");
        assert!(agent < n, "agent {agent} out of range for {n} agents");
        self.node_action(self.node(run, round), agent)
    }

    /// The index of `run`'s root.
    fn root_of(&self, run: usize) -> usize {
        self.roots.partition_point(|root| root.0 <= self.leaf[run]) - 1
    }

    /// The nonfaulty set of `run`.
    pub fn nonfaulty(&self, run: usize) -> AgentSet {
        self.roots[self.root_of(run)].1
    }

    /// The initial preferences of `run`.
    pub fn inits(&self, run: usize) -> &[Value] {
        let root = self.root_of(run);
        &self.inits[root * self.n..(root + 1) * self.n]
    }
}

/// Interning sink: the streaming enumeration engine feeds each finished
/// work item straight into the arena and the node table.
impl<E: InformationExchange> RunSink<E> for RunStore<E> {
    fn accept(&mut self, run: EnumRun<E>) -> Result<(), EbaError> {
        self.push_run(&run)
    }

    /// Appends the item's records and moves its states in with the hashes
    /// its worker computed, so nothing is hashed or cloned here: each
    /// item-local id is mapped to a global [`StateId`] once, at its first
    /// occurrence in record/agent order. Pre-order meets a node at its
    /// first run's point, so that is run-major/time/agent order, the order
    /// [`push_run`](RunStore::push_run) interns in: ids and arena order
    /// are exactly what pushing the item's runs would build. A state the
    /// arena already holds is dropped, a new one moved in.
    fn accept_item(&mut self, item: ItemRuns<E>) -> Result<(), EbaError> {
        if item.horizon != self.horizon || item.inits.len() != self.n {
            let rows = item.horizon as usize;
            return Err(self.shape_mismatch(rows + 1, item.inits.len(), rows));
        }
        ensure_point_capacity(self.run_count() + item.len(), self.horizon)?;
        let base = self.node_count() as u32;
        let mut states = item.arena.into_hashed();
        let mut global: Vec<Option<StateId>> = vec![None; states.len()];
        let mut rows = item.actions.chunks_exact(self.n);
        for (parent, row) in item.parents.iter().zip(item.state_ids.chunks_exact(self.n)) {
            for (column, local) in self.state_ids.iter_mut().zip(row) {
                let id = match global[local.index()] {
                    Some(id) => id,
                    None => {
                        let (hash, state) = states[local.index()].take().expect("moved once");
                        let id = self.arena.intern_hashed(hash, state)?;
                        global[local.index()] = Some(id);
                        id
                    }
                };
                column.push(id);
            }
            let parent = match *parent {
                NO_PARENT => NO_PARENT,
                parent => base + parent,
            };
            self.append(parent, item.nonfaulty, &item.inits, &mut rows);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Parallelism;
    use crate::scenario::Scenario;
    use eba_core::prelude::*;

    fn collected_and_stored() -> (Vec<EnumRun<MinExchange>>, RunStore<MinExchange>) {
        let ctx = Context::minimal(Params::new(3, 1).unwrap());
        let runs = Scenario::of(&ctx).horizon(4).enumerate().unwrap();
        let store = Scenario::of(&ctx)
            .horizon(4)
            .parallelism(Parallelism::Fixed(3))
            .enumerate_store()
            .unwrap();
        (runs, store)
    }

    #[test]
    fn store_reproduces_the_collected_enumeration() {
        let (runs, store) = collected_and_stored();
        assert_eq!(store.run_count(), runs.len());
        assert_eq!(store.point_count(), runs.len() * 5);
        for (r, run) in runs.iter().enumerate() {
            assert_eq!(store.nonfaulty(r), run.nonfaulty);
            assert_eq!(store.inits(r), &run.inits[..]);
            for m in 0..=4usize {
                let point = r * 5 + m;
                for i in 0..3 {
                    assert_eq!(store.state(i, point), &run.states[m][i]);
                }
            }
            for m in 0..4u32 {
                for i in 0..3 {
                    assert_eq!(store.action(r, m, i), run.actions[m as usize][i]);
                }
            }
        }
    }

    #[test]
    fn state_ids_agree_exactly_with_state_equality() {
        let (runs, store) = collected_and_stored();
        // Sample pairs across the whole table: ids equal ⟺ states equal.
        let pc = store.point_count();
        for i in 0..3usize {
            for p in (0..pc).step_by(7) {
                for q in (0..pc).step_by(13) {
                    let same_id = store.state_id(i, p) == store.state_id(i, q);
                    let same_state = runs[p / 5].states[p % 5][i] == runs[q / 5].states[q % 5][i];
                    assert_eq!(same_id, same_state, "agent {i} points {p},{q}");
                }
            }
        }
        // And interning actually deduplicates.
        assert!(store.distinct_states() < 3 * pc);
    }

    #[test]
    fn arena_interns_each_distinct_value_once() {
        let mut arena: StateArena<u64> = StateArena::new();
        let a = arena.intern(&7).unwrap();
        let b = arena.intern(&9).unwrap();
        assert_ne!(a, b);
        assert_eq!(arena.intern(&7).unwrap(), a);
        assert_eq!(arena.len(), 2);
        assert_eq!(*arena.get(b), 9);
        assert_eq!(arena.states(), &[7, 9]);
    }

    /// A local state whose hash is a constant: every two of them collide.
    #[derive(Clone, PartialEq, Eq, Debug)]
    struct Colliding(u8);

    impl Hash for Colliding {
        fn hash<H: Hasher>(&self, hasher: &mut H) {
            hasher.write_u8(0);
        }
    }

    /// Just enough of an exchange to type a store of [`Colliding`] states.
    struct CollidingExchange;

    impl InformationExchange for CollidingExchange {
        type State = Colliding;
        type Message = ();

        fn name(&self) -> &'static str {
            "E_colliding"
        }

        fn params(&self) -> Params {
            Params::new(2, 0).unwrap()
        }

        fn initial_state(&self, _: AgentId, init: Value) -> Colliding {
            Colliding(init.as_bit())
        }

        fn broadcast(&self, _: AgentId, _: &Colliding, _: Action, out: &mut Option<()>) {
            *out = None;
        }

        fn update(
            &self,
            _: AgentId,
            s: &Colliding,
            _: Action,
            _: &[Option<&()>],
            next: &mut Colliding,
        ) {
            *next = Colliding(s.0 + 2);
        }

        fn time(&self, state: &Colliding) -> u32 {
            u32::from(state.0 / 2)
        }

        fn init(&self, state: &Colliding) -> Value {
            Value::from_bit(state.0 % 2)
        }

        fn decided(&self, _: &Colliding) -> Option<Value> {
            None
        }

        fn message_bits(&self, _: &()) -> u64 {
            0
        }
    }

    #[test]
    fn colliding_states_are_told_apart_along_their_chain() {
        let mut arena = StateArena::new();
        let ids: Vec<StateId> = [5, 3, 5, 9, 3, 0]
            .into_iter()
            .map(|v| arena.intern(&Colliding(v)).unwrap())
            .collect();
        let id = |i: u32| StateId(i);
        assert_eq!(ids, [id(0), id(1), id(0), id(2), id(1), id(3)]);
        let by_move = |arena: &mut StateArena<Colliding>, v| {
            let state = Colliding(v);
            arena.intern_hashed(hash_of(&state), state).unwrap()
        };
        assert_eq!(by_move(&mut arena, 9), id(2));
        assert_eq!(by_move(&mut arena, 7), id(4));
        assert_eq!(arena.len(), 5);
        let values: Vec<u8> = arena.states().iter().map(|s| s.0).collect();
        assert_eq!(values, [5, 3, 9, 0, 7]);
    }

    /// Two hand-built items of `(2, 0)` runs at horizon 1 over colliding
    /// states, each a root with two leaves. Each item's arena interns its
    /// states in an order other than their first occurrence in its
    /// records, and the second item shares states with the first.
    fn colliding_items() -> [ItemRuns<CollidingExchange>; 2] {
        let item = |inits: [u8; 2], arena_order: &[u8], root: [u8; 2], leaves: [[u8; 2]; 2]| {
            let mut arena = StateArena::new();
            for &v in arena_order {
                arena.intern(&Colliding(v)).unwrap();
            }
            let state_ids = [root, leaves[0], leaves[1]]
                .iter()
                .flatten()
                .map(|&v| arena.intern(&Colliding(v)).unwrap())
                .collect();
            ItemRuns {
                nonfaulty: AgentSet::full(2),
                inits: inits.map(Value::from_bit).to_vec(),
                horizon: 1,
                arena,
                parents: vec![NO_PARENT, 0, 0],
                state_ids,
                actions: vec![Action::Noop; 6],
                runs: 2,
            }
        };
        [
            item([0, 1], &[3, 2, 1, 0], [0, 1], [[2, 3], [3, 2]]),
            item([1, 1], &[9, 3, 1, 7], [1, 1], [[3, 9], [7, 3]]),
        ]
    }

    #[test]
    fn accepting_items_of_colliding_states_builds_what_pushing_their_runs_does() {
        let mut accepted: RunStore<CollidingExchange> = RunStore::new(2, 1);
        let mut pushed: RunStore<CollidingExchange> = RunStore::new(2, 1);
        for item in colliding_items() {
            accepted.accept_item(item).unwrap();
        }
        for run in colliding_items().into_iter().flat_map(ItemRuns::into_runs) {
            pushed.push_run(&run).unwrap();
        }
        assert_eq!(accepted.run_count(), 4);
        // Two trees of a root and two leaves; four unshared chains.
        assert_eq!((accepted.node_count(), pushed.node_count()), (6, 8));
        assert_eq!(accepted.arena().states(), pushed.arena().states());
        let values: Vec<u8> = accepted.arena().states().iter().map(|s| s.0).collect();
        assert_eq!(values, [0, 1, 2, 3, 9, 7]);
        for point in 0..accepted.point_count() {
            for agent in 0..2 {
                let id = |store: &RunStore<_>| store.state_id(agent, point);
                assert_eq!(id(&accepted), id(&pushed), "agent {agent} point {point}");
            }
        }
        for run in 0..4 {
            assert_eq!(accepted.nonfaulty(run), pushed.nonfaulty(run));
            assert_eq!(accepted.inits(run), pushed.inits(run));
            assert_eq!(accepted.runs(accepted.node(run, 1)), run..run + 1);
        }
        assert_eq!(accepted.runs(0), 0..2);
        assert_eq!(accepted.runs(3), 2..4);
    }

    #[test]
    fn push_node_refuses_a_node_off_the_last_path_or_past_the_horizon() {
        let mut item: ItemRuns<CollidingExchange> =
            ItemRuns::new(AgentSet::full(2), vec![Value::Zero; 2], 1);
        let states = |v: u8| [Colliding(v), Colliding(v + 1)];
        let noop = [Action::Noop; 2];
        let root = item.push_node(None, &states(0), &noop).unwrap();
        let leaf = item.push_node(Some(root), &states(2), &[]).unwrap();
        let errors = [
            // A leaf carries no actions.
            item.push_node(Some(root), &states(4), &noop),
            // Nothing lies below the horizon.
            item.push_node(Some(leaf), &states(6), &[]),
            // A row per agent.
            item.push_node(Some(root), &states(4)[..1], &[]),
        ];
        for err in errors {
            assert!(matches!(err, Err(EbaError::InvalidInput(_))), "{err:?}");
        }
        let other = item.push_node(None, &states(1), &noop).unwrap();
        // `root` is no longer on the last node's path.
        assert!(item.push_node(Some(root), &states(8), &[]).is_err());
        item.push_node(Some(other), &states(8), &[]).unwrap();
        assert_eq!((item.len(), item.parents.len()), (2, 4));
    }

    /// The `(3, 0)` `E_min` store at horizon 3: 8 runs of 3 rounds.
    fn min_store_3_0() -> RunStore<MinExchange> {
        let ctx = Context::minimal(Params::new(3, 0).unwrap());
        Scenario::of(&ctx).horizon(3).enumerate_store().unwrap()
    }

    #[test]
    #[should_panic(expected = "round 3 past horizon 3")]
    fn action_refuses_a_round_past_the_horizon() {
        // Would read run 1's round-0 entry.
        min_store_3_0().action(0, 3, 0);
    }

    #[test]
    #[should_panic(expected = "agent 3 out of range for 3 agents")]
    fn action_refuses_an_agent_out_of_range() {
        // Would read agent 0's round-1 entry.
        min_store_3_0().action(0, 0, 3);
    }

    #[test]
    fn point_capacity_guard_rejects_u32_overflow() {
        // Fine at the boundary…
        ensure_point_capacity(u32::MAX as usize / 5, 4).unwrap();
        // …but one run past it (or a usize-overflowing product) errors.
        let err = ensure_point_capacity(u32::MAX as usize / 5 + 1, 4).unwrap_err();
        assert!(err.to_string().contains("point-id space"), "{err}");
        assert!(ensure_point_capacity(usize::MAX, u32::MAX).is_err());
    }

    #[test]
    fn push_run_rejects_shape_mismatches() {
        let ctx = Context::minimal(Params::new(3, 1).unwrap());
        let runs = Scenario::of(&ctx).horizon(4).enumerate().unwrap();
        // A horizon-4 run cannot enter a horizon-3 store.
        let mut store: RunStore<MinExchange> = RunStore::new(3, 3);
        let err = store.push_run(&runs[0]).unwrap_err();
        assert!(err.to_string().contains("run shape mismatch"), "{err}");
        assert_eq!(store.run_count(), 0);
    }
}
