//! Interned, columnar storage for enumerated run sets.
//!
//! The epistemic model checker historically kept every enumerated run as
//! a `Vec<Vec<E::State>>` — each point's local state cloned into its run,
//! even though the overwhelming majority of local states repeat across
//! runs (two runs that differ only in a late drop share every earlier
//! state, and a single agent's view often coincides across thousands of
//! adversary choices). [`RunStore`] deduplicates that storage:
//!
//! * a [`StateArena`] interns each distinct `E::State` **once**, behind a
//!   dense [`StateId`] (a `u32`);
//! * a columnar point table `state_ids[agent][point]` maps every point of
//!   the system to the interned id of that agent's local state there;
//! * per-run metadata (`nonfaulty`, `inits`, `actions`) is kept in flat
//!   run-major arrays.
//!
//! `RunStore` is a [`RunSink`], so it can be fed **incrementally** by the
//! streaming enumeration engine
//! ([`Scenario::enumerate_into`](crate::scenario::Scenario::enumerate_into), or
//! [`Scenario::enumerate_store`](crate::scenario::Scenario::enumerate_store)):
//! each finished work item arrives as rows of ids over the item's own
//! small arena ([`ItemRuns`]), and only its distinct states move into the
//! store's arena, together with the hashes the worker interned them
//! under, so neither the full `Vec<EnumRun<E>>` nor any single `EnumRun`
//! ever exists. Peak memory is the arena (distinct
//! states) plus `4`-byte ids per `(agent, point)` — for the ~98k-run
//! `E_fip/P_opt` `(3, 1)` context that replaces ~1.47M stored
//! full-information states with ~68k distinct ones (measured on one
//! core: 26 MiB peak RSS streamed vs 185 MiB collected; see
//! `examples/memory_layout.rs`).
//!
//! Interned ids also make downstream work cheaper: two points have equal
//! local states **iff** their `StateId`s are equal, so indistinguishability
//! classes fall out of a counting sort keyed by id and per-state computations
//! (`decided`, `init`, protocol actions) can be memoized per distinct
//! state instead of per point.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};

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

    /// [`intern`](Self::intern) by move: `state` is dropped if the arena
    /// already holds it.
    pub(crate) fn intern_owned(&mut self, state: S) -> Result<StateId, EbaError> {
        self.intern_hashed(hash_of(&state), state)
    }

    /// [`intern_owned`](Self::intern_owned) of a state whose hash is
    /// already known, as [`into_hashed`](Self::into_hashed) hands it out.
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
/// Point ids are `run * (horizon + 1) + time`, and class offsets are
/// stored as `u32` counts of points, so both need
/// `runs * (horizon + 1) ≤ u32::MAX`. Checked by every system
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

/// An interned, columnar run set: the streaming-friendly backbone the
/// epistemic layer builds interpreted systems on.
///
/// Feed it runs through [`RunSink`] (the enumeration engine's items, or
/// one [`EnumRun`] at a time) or [`RunStore::push_run`], then read points
/// back through the accessors. Point ids follow the usual layout
/// `run * (horizon + 1) + time`.
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
/// // Far fewer distinct states than (agent, point) slots:
/// assert!(store.distinct_states() < 3 * store.point_count());
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct RunStore<E: InformationExchange> {
    n: usize,
    horizon: u32,
    arena: StateArena<E::State>,
    /// `state_ids[agent][point]`: columnar point table.
    state_ids: Vec<Vec<StateId>>,
    /// `nonfaulty[run]`.
    nonfaulty: Vec<AgentSet>,
    /// `inits[run * n + agent]`.
    inits: Vec<Value>,
    /// `actions[(run * horizon + round) * n + agent]`.
    actions: Vec<Action>,
}

impl<E: InformationExchange> RunStore<E> {
    /// An empty store for systems of `n` agents at `horizon`.
    pub fn new(n: usize, horizon: u32) -> Self {
        RunStore {
            n,
            horizon,
            arena: StateArena::new(),
            state_ids: vec![Vec::new(); n],
            nonfaulty: Vec::new(),
            inits: Vec::new(),
            actions: Vec::new(),
        }
    }

    /// Interns one run into the store.
    ///
    /// # Errors
    ///
    /// Returns [`EbaError::InvalidInput`] if the run's shape disagrees
    /// with the store (`horizon + 1` state rows of `n` states each,
    /// `horizon` action rows), if the new run would overflow the `u32`
    /// point-id space (see [`ensure_point_capacity`]), or if the arena
    /// runs out of state ids.
    pub fn push_run(&mut self, run: &EnumRun<E>) -> Result<(), EbaError> {
        let per_run = self.horizon as usize + 1;
        if run.states.len() != per_run
            || run.states.iter().any(|row| row.len() != self.n)
            || run.actions.len() != self.horizon as usize
            || run.actions.iter().any(|row| row.len() != self.n)
            || run.inits.len() != self.n
        {
            return Err(self.shape_mismatch(
                run.states.len(),
                run.states.first().map_or(0, Vec::len),
                run.actions.len(),
            ));
        }
        ensure_point_capacity(self.run_count() + 1, self.horizon)?;
        for row in &run.states {
            for (i, state) in row.iter().enumerate() {
                let id = self.arena.intern(state)?;
                self.state_ids[i].push(id);
            }
        }
        self.nonfaulty.push(run.nonfaulty);
        self.inits.extend_from_slice(&run.inits);
        for row in &run.actions {
            self.actions.extend_from_slice(row);
        }
        Ok(())
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
        self.nonfaulty.len()
    }

    /// Total number of points, `runs * (horizon + 1)`.
    pub fn point_count(&self) -> usize {
        self.run_count() * (self.horizon as usize + 1)
    }

    /// Number of distinct local states across all agents and points.
    pub fn distinct_states(&self) -> usize {
        self.arena.len()
    }

    /// The arena holding every distinct state.
    pub fn arena(&self) -> &StateArena<E::State> {
        &self.arena
    }

    /// The interned id of `agent`'s local state at `point`.
    pub fn state_id(&self, agent: usize, point: usize) -> StateId {
        self.state_ids[agent][point]
    }

    /// `agent`'s column of the point table: the id of its local state at
    /// every point, in point order.
    pub fn state_ids(&self, agent: usize) -> &[StateId] {
        &self.state_ids[agent]
    }

    /// `agent`'s local state at `point`, resolved through the arena.
    pub fn state(&self, agent: usize, point: usize) -> &E::State {
        self.arena.get(self.state_ids[agent][point])
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
        self.actions[(run * self.horizon as usize + round as usize) * self.n + agent]
    }

    /// The nonfaulty set of `run`.
    pub fn nonfaulty(&self, run: usize) -> AgentSet {
        self.nonfaulty[run]
    }

    /// The initial preferences of `run`.
    pub fn inits(&self, run: usize) -> &[Value] {
        &self.inits[run * self.n..(run + 1) * self.n]
    }
}

/// Interning sink: the streaming enumeration engine feeds each finished
/// work item straight into the arena/columns.
impl<E: InformationExchange> RunSink<E> for RunStore<E> {
    fn accept(&mut self, run: EnumRun<E>) -> Result<(), EbaError> {
        self.push_run(&run)
    }

    /// Takes the item's id rows and moves its states in with the hashes
    /// its worker computed, so nothing is hashed or cloned here: each
    /// item-local id is mapped to a global [`StateId`] once, at its first
    /// occurrence in run-major/time/agent order — the order
    /// [`push_run`](RunStore::push_run) interns in, so ids, arena order
    /// and columns are exactly what pushing the item's runs would build.
    /// A state the arena already holds is dropped, a new one moved in.
    fn accept_item(&mut self, item: ItemRuns<E>) -> Result<(), EbaError> {
        if item.horizon != self.horizon || item.inits.len() != self.n {
            let rows = item.horizon as usize;
            return Err(self.shape_mismatch(rows + 1, item.inits.len(), rows));
        }
        let runs = item.len();
        ensure_point_capacity(self.run_count() + runs, self.horizon)?;
        let mut states = item.arena.into_hashed();
        let mut global: Vec<Option<StateId>> = vec![None; states.len()];
        for row in item.state_ids.chunks_exact(self.n) {
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
        }
        for _ in 0..runs {
            self.nonfaulty.push(item.nonfaulty);
            self.inits.extend_from_slice(&item.inits);
        }
        self.actions.extend_from_slice(&item.actions);
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

        fn broadcast(&self, _: AgentId, _: &Colliding, _: Action) -> Option<()> {
            None
        }

        fn update(&self, _: AgentId, state: &Colliding, _: Action, _: &[Option<&()>]) -> Colliding {
            Colliding(state.0 + 2)
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
        assert_eq!(arena.intern_owned(Colliding(9)).unwrap(), id(2));
        assert_eq!(arena.intern_owned(Colliding(7)).unwrap(), id(4));
        assert_eq!(arena.len(), 5);
        let values: Vec<u8> = arena.states().iter().map(|s| s.0).collect();
        assert_eq!(values, [5, 3, 9, 0, 7]);
    }

    /// Two hand-built items of `(2, 0)` runs at horizon 1 over colliding
    /// states. Each item's arena interns its states in an order other
    /// than their first occurrence in its rows, and the second item
    /// shares states with the first.
    fn colliding_items() -> [ItemRuns<CollidingExchange>; 2] {
        let item = |inits: [u8; 2], arena_order: &[u8], rows: &[[u8; 4]]| {
            let mut arena = StateArena::new();
            for &v in arena_order {
                arena.intern(&Colliding(v)).unwrap();
            }
            let state_ids = rows
                .iter()
                .flatten()
                .map(|&v| arena.intern(&Colliding(v)).unwrap())
                .collect();
            ItemRuns {
                nonfaulty: AgentSet::full(2),
                inits: inits.map(Value::from_bit).to_vec(),
                horizon: 1,
                arena,
                state_ids,
                actions: vec![Action::Noop; 2 * rows.len()],
            }
        };
        [
            item([0, 1], &[3, 2, 1, 0], &[[0, 1, 2, 3], [0, 1, 3, 2]]),
            item([1, 1], &[9, 3, 1, 7], &[[1, 1, 3, 9], [1, 1, 7, 3]]),
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
        assert_eq!(accepted.arena().states(), pushed.arena().states());
        let values: Vec<u8> = accepted.arena().states().iter().map(|s| s.0).collect();
        assert_eq!(values, [0, 1, 2, 3, 9, 7]);
        for agent in 0..2 {
            assert_eq!(accepted.state_ids(agent), pushed.state_ids(agent));
        }
        for run in 0..4 {
            assert_eq!(accepted.nonfaulty(run), pushed.nonfaulty(run));
            assert_eq!(accepted.inits(run), pushed.inits(run));
        }
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
