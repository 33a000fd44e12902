//! Interpreted systems `I = (R_{E,F,P}, π)` over exhaustively enumerated
//! run sets.
//!
//! Systems are backed by an interned, columnar
//! [`RunStore`]: each distinct local state is
//! stored once in a [`StateArena`](eba_sim::store::StateArena) and every
//! point maps to a [`StateId`], so [`InterpretedSystem::from_context`]
//! streams the enumeration straight into deduplicated storage — the full
//! `Vec<EnumRun<E>>` never materializes — and indistinguishability
//! classes fall out of a single integer sort per agent (equal ids ⟺
//! equal states). The [`oracle`](crate::oracle) module keeps the original
//! hash-then-group classifier over a collected run vector as the
//! independent reference the arena **classes** are verified against.

use eba_core::context::Context;
use eba_core::exchange::InformationExchange;
use eba_core::protocols::ActionProtocol;
use eba_core::types::{Action, AgentId, AgentSet, BitSet, EbaError, Params, Value};
use eba_sim::runner::Parallelism;
use eba_sim::scenario::Scenario;
use eba_sim::store::{RunStore, StateId};

pub use eba_sim::store::PointId;

/// Per-agent indistinguishability classes, stored flat: `points` holds all
/// point ids grouped by class; `starts[c]..starts[c+1]` is class `c`.
pub(crate) struct AgentClasses {
    pub(crate) points: Vec<PointId>,
    pub(crate) starts: Vec<u32>,
}

/// An interpreted system: the complete set of runs of `(E, F, P)` up to a
/// horizon, with per-agent indistinguishability classes for evaluating
/// knowledge.
///
/// Two points are indistinguishable to agent `i` iff `i` has the same
/// local state at both — the `K_i` accessibility relation of Section 2.
/// Systems are synchronous (local states carry the time), so classes never
/// mix times.
///
/// Runs live in an interned [`RunStore`]: [`local_state`](Self::local_state)
/// resolves through the arena, and per-state computations can be memoized
/// over [`state_id`](Self::state_id) instead of recomputed per point.
pub struct InterpretedSystem<E: InformationExchange> {
    ex: E,
    store: RunStore<E>,
    classes: Vec<AgentClasses>,
    /// `decided` per distinct state, computed once at construction —
    /// every `decided`-reading proposition is an id lookup.
    decided_by_state: Vec<Option<Value>>,
}

impl<E: InformationExchange> InterpretedSystem<E> {
    /// Builds the system for a first-class [`Context`] — the registry- and
    /// `Scenario`-friendly entry point: the context supplies both halves
    /// of the stack *and its failure model* (knowledge is quantified over
    /// the model's run set, so an `@crash` context yields a different —
    /// smaller — system than the default `SO(t)` one), and the
    /// enumeration **streams** through
    /// [`Scenario::enumerate_store`] with the given `parallelism`: each
    /// run is interned into the columnar [`RunStore`] on arrival, so the
    /// run vector never materializes and peak memory is the arena of
    /// distinct states plus one `u32` per `(agent, point)`.
    ///
    /// ```
    /// use eba_core::prelude::*;
    /// use eba_epistemic::prelude::*;
    /// use eba_sim::prelude::*;
    ///
    /// # fn main() -> Result<(), EbaError> {
    /// let ctx = Context::minimal(Params::new(3, 1)?);
    /// let sys = InterpretedSystem::from_context(ctx, 4, 1_000_000, Parallelism::Auto)?;
    /// assert!(sys.run_count() > 0);
    /// // Interning keeps far fewer states than (agent, point) slots:
    /// assert!(sys.distinct_states() < sys.params().n() * sys.point_count());
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// Propagates enumeration failures (instance too large; see
    /// [`Scenario::enumerate`]), and rejects run sets that overflow the
    /// `u32` point-id space with [`EbaError::InvalidInput`].
    pub fn from_context<P>(
        ctx: Context<E, P>,
        horizon: u32,
        limit: usize,
        parallelism: Parallelism,
    ) -> Result<Self, EbaError>
    where
        E: Sync,
        P: ActionProtocol<E> + Sync,
    {
        let store = Scenario::of(&ctx)
            .horizon(horizon)
            .limit(limit)
            .parallelism(parallelism)
            .enumerate_store()?;
        let (ex, _proto) = ctx.into_parts();
        Self::from_store(ex, store)
    }

    /// Builds a system directly from an interned [`RunStore`] (e.g. one
    /// filled through [`Scenario::enumerate_store`] or a custom sink).
    /// Indistinguishability classes are derived from a single sort of
    /// `(StateId, PointId)` keys per agent — no hashing, no state
    /// comparisons: two points share a class iff they share an id.
    ///
    /// # Errors
    ///
    /// Returns [`EbaError::InvalidInput`] if the store's agent count
    /// disagrees with the exchange's parameters.
    pub fn from_store(ex: E, store: RunStore<E>) -> Result<Self, EbaError> {
        if store.agents() != ex.params().n() {
            return Err(EbaError::InvalidInput(format!(
                "store built for {} agents, exchange has n = {}",
                store.agents(),
                ex.params().n()
            )));
        }
        // `RunStore::push_run` enforced point capacity run by run.
        let classes = classes_from_store(&store);
        Ok(Self::from_classes(ex, store, classes))
    }

    /// Assembles a system from a store and the class partition computed
    /// for it (by [`from_store`](Self::from_store)'s sort, or by the
    /// [`oracle`](crate::oracle)'s classifier).
    pub(crate) fn from_classes(ex: E, store: RunStore<E>, classes: Vec<AgentClasses>) -> Self {
        let decided_by_state = store
            .arena()
            .states()
            .iter()
            .map(|s| ex.decided(s))
            .collect();
        InterpretedSystem {
            ex,
            store,
            classes,
            decided_by_state,
        }
    }

    /// The exchange protocol of the context.
    pub fn exchange(&self) -> &E {
        &self.ex
    }

    /// The instance parameters.
    pub fn params(&self) -> Params {
        self.ex.params()
    }

    /// The interned run store backing this system.
    pub fn store(&self) -> &RunStore<E> {
        &self.store
    }

    /// Number of runs in the system.
    pub fn run_count(&self) -> usize {
        self.store.run_count()
    }

    /// Number of distinct local states across all agents and points.
    pub fn distinct_states(&self) -> usize {
        self.store.distinct_states()
    }

    /// The horizon (number of rounds per run).
    pub fn horizon(&self) -> u32 {
        self.store.horizon()
    }

    /// Total number of points.
    pub fn point_count(&self) -> usize {
        self.store.point_count()
    }

    /// The point id of `(run, time)`.
    pub fn point(&self, run: usize, time: u32) -> PointId {
        debug_assert!(run < self.run_count() && time <= self.horizon());
        (run * (self.horizon() as usize + 1) + time as usize) as PointId
    }

    /// The run index of a point.
    pub fn run_of(&self, point: PointId) -> usize {
        point as usize / (self.horizon() as usize + 1)
    }

    /// The time of a point.
    pub fn time_of(&self, point: PointId) -> u32 {
        (point as usize % (self.horizon() as usize + 1)) as u32
    }

    /// The nonfaulty set `N` of a run.
    pub fn nonfaulty(&self, run: usize) -> AgentSet {
        self.store.nonfaulty(run)
    }

    /// The initial preferences of a run.
    pub fn inits(&self, run: usize) -> &[Value] {
        self.store.inits(run)
    }

    /// Agent `i`'s local state at a point, resolved through the arena.
    pub fn local_state(&self, point: PointId, agent: AgentId) -> &E::State {
        self.store.state(agent.index(), point as usize)
    }

    /// The interned id of `agent`'s local state at a point. Ids are equal
    /// iff the states are equal, so this is the cheap key for per-state
    /// memo tables (see [`StateId::index`]).
    pub fn state_id(&self, point: PointId, agent: AgentId) -> StateId {
        self.store.state_id(agent.index(), point as usize)
    }

    /// The action agent `i` performs at a point (i.e. in round `m + 1`);
    /// `None` at the horizon (no action recorded there).
    pub fn action_at(&self, point: PointId, agent: AgentId) -> Option<Action> {
        let m = self.time_of(point);
        if m >= self.horizon() {
            return None;
        }
        Some(self.store.action(self.run_of(point), m, agent.index()))
    }

    /// The `decided_i` component at a point (a per-distinct-state memo
    /// lookup, not a state read).
    pub fn decided_at(&self, point: PointId, agent: AgentId) -> Option<Value> {
        self.decided_by_state[self.state_id(point, agent).index()]
    }

    /// The `decided` component once per distinct state, keyed by
    /// [`StateId::index`] — computed at construction, shared by every
    /// proposition evaluation.
    pub fn decided_table(&self) -> &[Option<Value>] {
        &self.decided_by_state
    }

    /// The canonical class partition of `agent`: every class sorted
    /// ascending, classes ordered by their smallest point. Class storage
    /// order is an implementation detail (the arena path orders classes
    /// by `StateId`, the oracle by state hash), so equivalence
    /// checks compare this canonical form.
    pub fn class_partition(&self, agent: AgentId) -> Vec<Vec<PointId>> {
        let cls = &self.classes[agent.index()];
        let mut partition: Vec<Vec<PointId>> = (0..cls.starts.len() - 1)
            .map(|c| {
                let mut span =
                    cls.points[cls.starts[c] as usize..cls.starts[c + 1] as usize].to_vec();
                span.sort_unstable();
                span
            })
            .collect();
        partition.sort_unstable();
        partition
    }

    /// `K_agent`: the set of points where everything in `inner` holds at
    /// all points the agent considers possible.
    pub fn knows_set(&self, agent: AgentId, inner: &BitSet) -> BitSet {
        let mut out = BitSet::new(self.point_count());
        let cls = &self.classes[agent.index()];
        for c in 0..cls.starts.len() - 1 {
            let span = &cls.points[cls.starts[c] as usize..cls.starts[c + 1] as usize];
            if span.iter().all(|p| inner.contains(*p as usize)) {
                for p in span {
                    out.insert(*p as usize);
                }
            }
        }
        out
    }

    /// `E_N`: everyone in the (indexical) nonfaulty set knows `inner`.
    pub fn everyone_nonfaulty_set(&self, inner: &BitSet) -> BitSet {
        let n = self.params().n();
        let knows: Vec<BitSet> = (0..n)
            .map(|i| self.knows_set(AgentId::new(i), inner))
            .collect();
        let mut out = BitSet::new(self.point_count());
        for pid in 0..self.point_count() {
            let nonfaulty = self.nonfaulty(self.run_of(pid as PointId));
            if nonfaulty.iter().all(|j| knows[j.index()].contains(pid)) {
                out.insert(pid);
            }
        }
        out
    }

    /// `C_N`: common knowledge among the nonfaulty — the greatest fixpoint
    /// of `X = E_N(inner ∧ X)`.
    pub fn common_nonfaulty_set(&self, inner: &BitSet) -> BitSet {
        let mut x = BitSet::new(self.point_count());
        x.fill();
        loop {
            let mut arg = inner.clone();
            arg.intersect_with(&x);
            let next = self.everyone_nonfaulty_set(&arg);
            if next == x {
                return x;
            }
            x = next;
        }
    }
}

/// Classes from the interned store: per agent, sort packed
/// `(StateId, PointId)` keys — a single `u64` sort — and split on id
/// boundaries. No hashing, no state comparisons, no per-span
/// partitioning: interning already established that equal ids are
/// exactly equal states.
fn classes_from_store<E: InformationExchange>(store: &RunStore<E>) -> Vec<AgentClasses> {
    let point_count = store.point_count();
    (0..store.agents())
        .map(|i| {
            let mut keys: Vec<u64> = (0..point_count)
                .map(|p| (u64::from(store.state_id(i, p).raw()) << 32) | p as u64)
                .collect();
            keys.sort_unstable();
            let mut points = Vec::with_capacity(point_count);
            let mut starts = vec![0u32];
            let mut idx = 0usize;
            while idx < keys.len() {
                let id = keys[idx] >> 32;
                while idx < keys.len() && keys[idx] >> 32 == id {
                    points.push(keys[idx] as PointId); // truncates to the low 32 bits
                    idx += 1;
                }
                starts.push(points.len() as u32);
            }
            AgentClasses { points, starts }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use eba_core::prelude::*;

    fn small_system() -> InterpretedSystem<MinExchange> {
        let ctx = Context::minimal(Params::new(3, 1).unwrap());
        InterpretedSystem::from_context(ctx, 4, 1_000_000, Parallelism::Sequential).unwrap()
    }

    /// The collect-then-classify reference for `ctx` at horizon 4.
    fn reference<E, P>(ctx: Context<E, P>) -> InterpretedSystem<E>
    where
        E: InformationExchange + Sync,
        P: ActionProtocol<E> + Sync,
    {
        let runs = Scenario::of(&ctx).horizon(4).enumerate().unwrap();
        crate::oracle::from_runs(ctx.into_parts().0, runs, 4).unwrap()
    }

    #[test]
    fn from_context_matches_build() {
        let params = Params::new(3, 1).unwrap();
        let legacy = reference(Context::minimal(params));
        for parallelism in [Parallelism::Sequential, Parallelism::Fixed(4)] {
            let via_ctx = InterpretedSystem::from_context(
                Context::minimal(params),
                4,
                1_000_000,
                parallelism,
            )
            .unwrap();
            assert_eq!(via_ctx.run_count(), legacy.run_count());
            for r in 0..legacy.run_count() {
                assert_eq!(via_ctx.nonfaulty(r), legacy.nonfaulty(r));
                for m in 0..=4 {
                    let (p, q) = (via_ctx.point(r, m), legacy.point(r, m));
                    for i in 0..3 {
                        let agent = AgentId::new(i);
                        assert_eq!(via_ctx.local_state(p, agent), legacy.local_state(q, agent));
                    }
                }
            }
        }
    }

    #[test]
    fn arena_classes_match_the_legacy_oracle() {
        // The headline tentpole guarantee, in-module: the single-sort
        // arena classes partition points exactly like the hash-then-group
        // classifier over the collected run vector.
        let params = Params::new(3, 1).unwrap();
        let streamed = InterpretedSystem::from_context(
            Context::basic(params),
            4,
            1_000_000,
            Parallelism::Sequential,
        )
        .unwrap();
        let legacy = reference(Context::basic(params));
        for i in 0..3 {
            let agent = AgentId::new(i);
            assert_eq!(
                streamed.class_partition(agent),
                legacy.class_partition(agent),
                "agent {i}"
            );
        }
    }

    #[test]
    fn from_context_quantifies_over_the_model_run_set() {
        // Knowledge is relative to the failure model: a crash context's
        // system has strictly fewer runs than the SO(t) one, a
        // failure-free context exactly 2^n, and all are non-empty.
        let params = Params::new(3, 1).unwrap();
        let so = InterpretedSystem::from_context(Context::basic(params), 4, 1_000_000, {
            Parallelism::Sequential
        })
        .unwrap();
        let crash = InterpretedSystem::from_context(
            Context::basic(params).with_model(FailureModel::Crash),
            4,
            1_000_000,
            Parallelism::Sequential,
        )
        .unwrap();
        let free = InterpretedSystem::from_context(
            Context::basic(params).with_model(FailureModel::FailureFree),
            4,
            1_000_000,
            Parallelism::Sequential,
        )
        .unwrap();
        assert_eq!(free.run_count(), 8);
        assert!(crash.run_count() > 0);
        assert!(crash.run_count() < so.run_count());
        assert!(free.run_count() < crash.run_count());
    }

    #[test]
    fn point_arithmetic_roundtrips() {
        let sys = small_system();
        for run in [0usize, 1, sys.run_count() - 1] {
            for time in 0..=4 {
                let p = sys.point(run, time);
                assert_eq!(sys.run_of(p), run);
                assert_eq!(sys.time_of(p), time);
            }
        }
        assert_eq!(sys.point_count(), sys.run_count() * 5);
    }

    #[test]
    fn classes_partition_points() {
        let sys = small_system();
        for i in 0..3 {
            let cls = &sys.classes[i];
            assert_eq!(cls.points.len(), sys.point_count());
            let mut seen = vec![false; sys.point_count()];
            for p in &cls.points {
                assert!(!seen[*p as usize], "point in two classes");
                seen[*p as usize] = true;
            }
            assert!(seen.iter().all(|b| *b));
            // Every class is nonempty and state-homogeneous.
            for c in 0..cls.starts.len() - 1 {
                let span = &cls.points[cls.starts[c] as usize..cls.starts[c + 1] as usize];
                assert!(!span.is_empty());
                let agent = AgentId::new(i);
                let s0 = sys.local_state(span[0], agent);
                let id0 = sys.state_id(span[0], agent);
                for p in span {
                    assert_eq!(sys.local_state(*p, agent), s0);
                    assert_eq!(sys.state_id(*p, agent), id0, "ids mirror state equality");
                }
            }
        }
    }

    #[test]
    fn classes_never_mix_times() {
        // Synchrony: indistinguishable points share their time.
        let sys = small_system();
        for i in 0..3 {
            let cls = &sys.classes[i];
            for c in 0..cls.starts.len() - 1 {
                let span = &cls.points[cls.starts[c] as usize..cls.starts[c + 1] as usize];
                let t0 = sys.time_of(span[0]);
                assert!(span.iter().all(|p| sys.time_of(*p) == t0));
            }
        }
    }

    #[test]
    fn knows_is_truthful_and_introspective() {
        // K_i X ⊆ X for any union of classes; here: X = all points where
        // agent 0's init is One — a local proposition, so K_0 X = X.
        let sys = small_system();
        let mut x = BitSet::new(sys.point_count());
        for pid in 0..sys.point_count() {
            if sys.inits(sys.run_of(pid as PointId))[0] == Value::One {
                x.insert(pid);
            }
        }
        let k = sys.knows_set(AgentId::new(0), &x);
        assert_eq!(k, x, "own init is known exactly");
        // Agent 1 does not always know agent 0's init.
        let k1 = sys.knows_set(AgentId::new(1), &x);
        assert!(k1.is_subset(&x));
        assert!(k1.count() < x.count());
    }

    #[test]
    fn common_knowledge_is_contained_in_everyone_knowledge() {
        let sys = small_system();
        // X = "some agent has initial preference 1".
        let mut x = BitSet::new(sys.point_count());
        for pid in 0..sys.point_count() {
            if sys.inits(sys.run_of(pid as PointId)).contains(&Value::One) {
                x.insert(pid);
            }
        }
        let e = sys.everyone_nonfaulty_set(&x);
        let c = sys.common_nonfaulty_set(&x);
        assert!(c.is_subset(&e));
        assert!(e.is_subset(&x), "E_N is truthful (N nonempty)");
    }

    #[test]
    fn common_knowledge_of_truth_is_everything() {
        let sys = small_system();
        let mut top = BitSet::new(sys.point_count());
        top.fill();
        let c = sys.common_nonfaulty_set(&top);
        assert_eq!(c.count(), sys.point_count());
    }

    #[test]
    fn from_runs_rejects_horizon_mismatches() {
        let ctx = Context::minimal(Params::new(3, 1).unwrap());
        let runs = Scenario::of(&ctx).horizon(4).enumerate().unwrap();
        let err = match crate::oracle::from_runs(ctx.into_parts().0, runs, 3) {
            Err(e) => e,
            Ok(_) => panic!("horizon mismatch must be rejected"),
        };
        assert!(err.to_string().contains("horizon mismatch"), "{err}");
    }

    #[test]
    fn decided_table_agrees_with_per_point_reads() {
        let sys = small_system();
        let decided = sys.decided_table();
        for pid in 0..sys.point_count() as PointId {
            for i in 0..3 {
                let agent = AgentId::new(i);
                assert_eq!(
                    decided[sys.state_id(pid, agent).index()],
                    sys.exchange().decided(sys.local_state(pid, agent))
                );
            }
        }
    }
}
