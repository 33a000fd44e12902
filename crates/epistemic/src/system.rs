//! Interpreted systems `I = (R_{E,F,P}, π)` over exhaustively enumerated
//! run sets.
//!
//! Systems are backed by an interned, columnar
//! [`RunStore`]: each distinct local state is
//! stored once in a [`StateArena`](eba_sim::store::StateArena) and every
//! point maps to a [`StateId`], so [`InterpretedSystem::from_context`]
//! streams the enumeration straight into deduplicated storage — the full
//! `Vec<EnumRun<E>>` never materializes — and indistinguishability
//! classes fall out of one counting sort per agent keyed by `StateId`
//! (equal ids ⟺ equal states): agent `j`'s class at a point *is*
//! `state_id(p, j)`. The [`oracle`](crate::oracle) module keeps the
//! original hash-then-group classifier over a collected run vector as the
//! independent reference the arena **classes** are verified against.

use eba_core::context::Context;
use eba_core::exchange::InformationExchange;
use eba_core::protocols::ActionProtocol;
use eba_core::types::{Action, AgentId, AgentSet, BitSet, EbaError, Params, Value};
use eba_sim::runner::Parallelism;
use eba_sim::scenario::Scenario;
use eba_sim::store::{RunStore, StateId};

pub use eba_sim::store::PointId;

/// One agent's indistinguishability classes, keyed by [`StateId`]: the
/// class of the points where the agent's state is `sid` is
/// `points[starts[sid]..starts[sid + 1]]`, ascending. `starts` has
/// `distinct_states + 1` entries; an id the agent never holds has an
/// empty span.
pub(crate) struct AgentClasses {
    pub(crate) points: Vec<PointId>,
    pub(crate) starts: Vec<u32>,
}

impl AgentClasses {
    /// The points of the class of `sid`.
    fn span(&self, sid: usize) -> &[PointId] {
        &self.points[self.starts[sid] as usize..self.starts[sid + 1] as usize]
    }

    /// Every id's class, empty or not, in id order.
    fn spans(&self) -> impl Iterator<Item = &[PointId]> {
        (0..self.starts.len() - 1).map(|sid| self.span(sid))
    }
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
    /// Indistinguishability classes are one counting sort of each agent's
    /// `StateId` column — no hashing, no state comparisons: two points
    /// share a class iff they share an id.
    ///
    /// # Errors
    ///
    /// Returns [`EbaError::InvalidInput`] if the store's agent count
    /// disagrees with the exchange's parameters, or if a run has more
    /// than `t` faulty agents — no failure model admits one, and
    /// [`common_t_faulty_set`](Self::common_t_faulty_set) relies on it.
    pub fn from_store(ex: E, store: RunStore<E>) -> Result<Self, EbaError> {
        // `RunStore::push_run` enforced point capacity run by run.
        let classes = classes_from_store(&store);
        Self::from_classes(ex, store, classes)
    }

    /// Assembles a system from a store and the class partition computed
    /// for it (by [`from_store`](Self::from_store)'s sort, or by the
    /// [`oracle`](crate::oracle)'s classifier), with
    /// [`from_store`](Self::from_store)'s checks.
    pub(crate) fn from_classes(
        ex: E,
        store: RunStore<E>,
        classes: Vec<AgentClasses>,
    ) -> Result<Self, EbaError> {
        let (n, t) = (ex.params().n(), ex.params().t());
        if store.agents() != n {
            return Err(EbaError::InvalidInput(format!(
                "store built for {} agents, exchange has n = {n}",
                store.agents()
            )));
        }
        if let Some(r) = (0..store.run_count()).find(|r| store.nonfaulty(*r).len() < n - t) {
            return Err(EbaError::InvalidInput(format!(
                "run {r} has {} faulty agents, more than t = {t}",
                n - store.nonfaulty(r).len()
            )));
        }
        let decided_by_state = store
            .arena()
            .states()
            .iter()
            .map(|s| ex.decided(s))
            .collect();
        Ok(InterpretedSystem {
            ex,
            store,
            classes,
            decided_by_state,
        })
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

    /// The point id of `(run, time)`. Panics if `run ≥ run_count` or
    /// `time > horizon`, where the arithmetic would name another point.
    pub fn point(&self, run: usize, time: u32) -> PointId {
        let (runs, horizon) = (self.run_count(), self.horizon());
        assert!(
            run < runs && time <= horizon,
            "point (run {run}, time {time}) out of range: {runs} runs, horizon {horizon}"
        );
        (run * (horizon as usize + 1) + time as usize) as PointId
    }

    /// The run index of a point (a `u32` division: point ids are `u32`).
    pub fn run_of(&self, point: PointId) -> usize {
        (point / (self.horizon() + 1)) as usize
    }

    /// The time of a point.
    pub fn time_of(&self, point: PointId) -> u32 {
        point % (self.horizon() + 1)
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

    /// The class partition of `agent`: its nonempty classes, each
    /// ascending, ordered by their smallest point — independent of how
    /// `StateId`s were assigned, so two constructions can be compared.
    pub fn class_partition(&self, agent: AgentId) -> Vec<Vec<PointId>> {
        let spans = self.classes[agent.index()].spans();
        let mut partition: Vec<Vec<PointId>> = spans
            .filter(|span| !span.is_empty())
            .map(<[_]>::to_vec)
            .collect();
        partition.sort_unstable();
        partition
    }

    /// `K_agent`: the set of points where everything in `inner` holds at
    /// all points the agent considers possible — the points whose
    /// `StateId` the agent holds at no point outside `inner`.
    pub fn knows_set(&self, agent: AgentId, inner: &BitSet) -> BitSet {
        let ids = self.store.state_ids(agent.index());
        // Bit `sid` of `doubted`: `sid` is held at a point outside `inner`.
        let mut doubted = vec![0u64; self.distinct_states().div_ceil(64)];
        let mut out = inner.clone();
        out.invert();
        for sid in out.iter().map(|p| ids[p].index()) {
            doubted[sid / 64] |= 1 << (sid % 64);
        }
        // `K φ ⊆ φ`: keep the points of `inner` whose id is not doubted.
        out.clone_from(inner);
        for p in inner.iter() {
            let sid = ids[p].index();
            if doubted[sid / 64] >> (sid % 64) & 1 == 1 {
                out.remove(p);
            }
        }
        out
    }

    /// `E_N`: everyone in the (indexical) nonfaulty set knows `inner`,
    /// i.e. `⋀_j (j ∈ N ⇒ K_j inner)`, a word at a time.
    pub fn everyone_nonfaulty_set(&self, inner: &BitSet) -> BitSet {
        let mut out = BitSet::new(self.point_count());
        out.fill();
        for j in self.params().agents() {
            let mut knows_or_faulty = self.points_where_run(|r| !self.nonfaulty(r).contains(j));
            knows_or_faulty.union_with(&self.knows_set(j, inner));
            out.intersect_with(&knows_or_faulty);
        }
        out
    }

    /// `C_N`: common knowledge among the nonfaulty — the greatest fixpoint
    /// of `X = E_N(inner ∧ X)`, in one worklist pass.
    ///
    /// A class of agent `j` is *tainted* once it holds a point outside
    /// `inner ∧ X`. `X` starts full; a tainted `j`-class removes from `X`
    /// each of its points whose run has `j ∈ N`, and a removed point
    /// taints its class for every agent. When the worklist is empty, a
    /// point is in `X` iff no agent of its `N` has a tainted class there,
    /// i.e. `X = E_N(inner ∧ X)`; a point is only removed once it is
    /// outside every `Y ⊆ E_N(inner ∧ Y)`, so `X` is the greatest such
    /// set. Each `(agent, StateId)` class is tainted at most once and each
    /// point leaves `X` at most once: `O(n · points)`.
    /// [`eval_recursive`](Self::eval_recursive) keeps the iteration as
    /// the oracle this is tested against.
    pub fn common_nonfaulty_set(&self, inner: &BitSet) -> BitSet {
        self.common_knowledge_pass(inner, false)
    }

    /// `C_N(t-faulty ∧ φ)` for `inner = φ`: the union over `|A| = t` of
    /// `C_N(⋀_{i ∈ A} i ∉ N ∧ φ)`, in one worklist pass. As `N ≠ ∅` and
    /// `|F| ≤ t`, tower `A`'s fixpoint lies in runs with `F = A`, so a
    /// class holding points of two faulty sets is tainted in every tower:
    /// the pass over `φ ∧ |F| = t` with such classes tainted from the
    /// start is the union (docs/GUIDE.md §5). Construction refused any
    /// run with `|F| > t`.
    /// [`eval_recursive`](Self::eval_recursive) evaluates the towers.
    pub fn common_t_faulty_set(&self, inner: &BitSet) -> BitSet {
        let (n, t) = (self.params().n(), self.params().t());
        let mut t_faulty = self.points_where_run(|r| n - self.nonfaulty(r).len() == t);
        t_faulty.intersect_with(inner);
        self.common_knowledge_pass(&t_faulty, true)
    }

    /// The worklist pass of `C_N` over `inner`; with `split_faulty`, a
    /// class whose points lie in runs of different faulty sets starts
    /// tainted too.
    fn common_knowledge_pass(&self, inner: &BitSet, split_faulty: bool) -> BitSet {
        let (n, states) = (self.params().n(), self.distinct_states());
        let ids: Vec<&[StateId]> = (0..n).map(|k| self.store.state_ids(k)).collect();
        let nonfaulty = |p: &PointId| self.nonfaulty(self.run_of(*p));
        // `tainted[j * states + sid]`: agent `j`'s class of `sid` is tainted.
        let mut tainted = vec![false; n * states];
        // `x` is the complement of `inner` for the first scan, then `X`.
        let mut x = inner.clone();
        x.invert();
        for p in x.iter() {
            for (j, ids_j) in ids.iter().enumerate() {
                tainted[j * states + ids_j[p].index()] = true;
            }
        }
        for (j, cls) in self.classes.iter().enumerate().filter(|_| split_faulty) {
            for (sid, span) in cls.spans().enumerate() {
                let mixed = || span.iter().any(|p| nonfaulty(p) != nonfaulty(&span[0]));
                tainted[j * states + sid] = tainted[j * states + sid] || mixed();
            }
        }
        let mut work: Vec<usize> = (0..n * states).filter(|c| tainted[*c]).collect();
        x.fill();
        while let Some(c) = work.pop() {
            let agent = AgentId::new(c / states);
            for &p in self.classes[c / states].span(c % states) {
                if !x.contains(p as usize) || !nonfaulty(&p).contains(agent) {
                    continue;
                }
                x.remove(p as usize);
                // A point outside `inner` tainted all its classes above.
                if !inner.contains(p as usize) {
                    continue;
                }
                for (k, ids_k) in ids.iter().enumerate() {
                    let ck = k * states + ids_k[p as usize].index();
                    if !tainted[ck] {
                        tainted[ck] = true;
                        work.push(ck);
                    }
                }
            }
        }
        x
    }
}

/// Classes from the interned store: per agent, a counting sort of its
/// `StateId` column — count each id, take prefix sums, then place the
/// points in increasing order, so every span is ascending. No hashing, no
/// state comparisons: interning already established that equal ids are
/// exactly equal states.
fn classes_from_store<E: InformationExchange>(store: &RunStore<E>) -> Vec<AgentClasses> {
    let states = store.distinct_states();
    (0..store.agents())
        .map(|i| {
            let ids = store.state_ids(i);
            let mut starts = vec![0u32; states + 1];
            for id in ids {
                starts[id.index() + 1] += 1;
            }
            for sid in 0..states {
                starts[sid + 1] += starts[sid];
            }
            let mut next = starts.clone();
            let mut points = vec![0; ids.len()];
            for (p, id) in ids.iter().enumerate() {
                points[next[id.index()] as usize] = p as PointId;
                next[id.index()] += 1;
            }
            AgentClasses { points, starts }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formula::Formula;
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
            // Every class is state-homogeneous.
            for span in cls.spans().filter(|span| !span.is_empty()) {
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
    fn classes_are_laid_out_by_state_id() {
        // Both constructors: every point lies in the span of its own
        // state id, and every span is ascending.
        let params = Params::new(3, 1).unwrap();
        for sys in [small_system(), reference(Context::minimal(params))] {
            for (j, cls) in sys.classes.iter().enumerate() {
                assert_eq!(cls.starts.len(), sys.distinct_states() + 1);
                for span in cls.spans() {
                    assert!(span.windows(2).all(|w| w[0] < w[1]), "agent {j}: {span:?}");
                }
                for p in 0..sys.point_count() as PointId {
                    let sid = sys.state_id(p, AgentId::new(j)).index();
                    assert!(
                        cls.span(sid).binary_search(&p).is_ok(),
                        "agent {j} point {p}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "point (run 0, time 5) out of range: 74 runs, horizon 4")]
    fn satisfied_at_rejects_a_time_past_the_horizon() {
        // Unchecked, `(run 0, time 5)` is the point `(run 1, time 0)`,
        // where `time = 0` holds.
        let _ = small_system().satisfied_at(&Formula::TimeIs(0), 0, 5);
    }

    #[test]
    fn classes_never_mix_times() {
        // Synchrony: indistinguishable points share their time.
        let sys = small_system();
        for cls in &sys.classes {
            for span in cls.spans().filter(|span| !span.is_empty()) {
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
    fn knows_set_is_its_definition_on_sparse_and_dense_operands() {
        // `K_i φ` is the union of `i`'s classes inside `φ`. `¬∃0` holds
        // in one run in eight and `∃0` in the rest, and neither is known
        // everywhere.
        let sys = small_system();
        for phi in [
            Formula::not(Formula::ExistsInit(Value::Zero)),
            Formula::ExistsInit(Value::Zero),
        ] {
            let inner = sys.eval_recursive(&phi);
            for agent in AgentId::all(3) {
                let mut expected = BitSet::new(sys.point_count());
                for class in sys.class_partition(agent) {
                    if class.iter().all(|p| inner.contains(*p as usize)) {
                        class.iter().for_each(|p| expected.insert(*p as usize));
                    }
                }
                assert_eq!(sys.knows_set(agent, &inner), expected, "K_{agent}({phi})");
                assert!(
                    expected.count() < inner.count(),
                    "K_{agent}({phi}) is trivial"
                );
            }
        }
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

    /// Holds the one-pass worklist to `eval_recursive`'s iteration of
    /// `X := E_N(φ ∧ X)` on nothing, on everything, on each `∃v`, on each
    /// `¬(a_k ∈ N)` and on the body of each of `P1`'s towers,
    /// `¬(a_k ∈ N) ∧ no-decided_N(1−v) ∧ ∃v`; returns how many fixpoints
    /// were neither empty nor everything.
    fn worklist_equals_iteration<E: InformationExchange>(sys: &InterpretedSystem<E>) -> usize {
        let n = sys.params().n();
        let mut phis = vec![Formula::not(Formula::True), Formula::True];
        phis.extend(Value::ALL.map(Formula::ExistsInit));
        for k in AgentId::all(n) {
            let faulty = Formula::not(Formula::Nonfaulty(k));
            phis.push(faulty.clone());
            for v in Value::ALL {
                phis.push(Formula::And(vec![
                    faulty.clone(),
                    Formula::no_nonfaulty_decided(n, v.other()),
                    Formula::ExistsInit(v),
                ]));
            }
        }
        let mut nontrivial = 0;
        for phi in &phis {
            let worklist = sys.common_nonfaulty_set(&sys.eval_recursive(phi));
            let iterated = sys.eval_recursive(&Formula::common_nonfaulty(phi.clone()));
            assert_eq!(worklist, iterated, "C_N({phi})");
            if 0 < worklist.count() && worklist.count() < sys.point_count() {
                nontrivial += 1;
            }
        }
        nontrivial
    }

    #[test]
    fn worklist_common_knowledge_equals_the_iterated_fixpoint() {
        // In this `E_min` system `C_N(∃1)` is non-trivial and shrinks if
        // a faulty agent's tainted class removes points; only in the
        // `E_fip` system at horizon 2 are the towers' fixpoints
        // non-trivial, and they shrink too little unless a removal taints
        // every agent's class.
        assert!(worklist_equals_iteration(&small_system()) > 0);
        let fip = InterpretedSystem::from_context(
            Context::fip(Params::new(3, 1).unwrap()),
            2,
            1_000_000,
            Parallelism::Sequential,
        )
        .unwrap();
        assert!(worklist_equals_iteration(&fip) > 0);
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
    fn stores_with_more_than_t_faulty_agents_are_rejected() {
        // `C_N(t-faulty ∧ φ)`'s one pass is exact only if `|F| ≤ t` in
        // every run: a hand-built run with `|F| = 2 > t` is refused.
        let ctx = Context::minimal(Params::new(3, 1).unwrap());
        let mut runs = Scenario::of(&ctx).horizon(4).enumerate().unwrap();
        runs[0].nonfaulty = AgentSet::singleton(AgentId::new(0));
        let mut store = RunStore::new(3, 4);
        for run in &runs {
            store.push_run(run).unwrap();
        }
        let ex = ctx.into_parts().0;
        let errors = [
            InterpretedSystem::from_store(ex, store).err(),
            crate::oracle::from_runs(ex, runs, 4).err(),
        ];
        for err in errors {
            let err = err.expect("a run with |F| > t must be rejected");
            assert!(err.to_string().contains("more than t = 1"), "{err}");
        }
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
