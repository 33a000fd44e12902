//! Interpreted systems `I = (R_{E,F,P}, π)` over exhaustively enumerated
//! run sets.
//!
//! A system is backed by an interned [`RunStore`], the enumerator's
//! prefix tree, so [`InterpretedSystem::from_context`] streams the
//! enumeration straight into deduplicated storage. Every present-time
//! formula has one value at all points of a node, which fixes each
//! agent's local state, `N` and the inits: knowledge is evaluated over
//! nodes, and agent `j`'s class at a node *is* its [`StateId`] there, one
//! counting sort per agent of the node columns. The
//! [`oracle`](crate::oracle) module keeps a hash-then-group classifier
//! over a collected run vector as the independent reference.

use eba_core::context::Context;
use eba_core::exchange::InformationExchange;
use eba_core::protocols::ActionProtocol;
use eba_core::types::{Action, AgentId, AgentSet, BitSet, EbaError, Params, Value};
use eba_sim::runner::Parallelism;
use eba_sim::scenario::Scenario;
use eba_sim::store::{RunStore, StateId};

pub use eba_sim::store::PointId;

/// One agent's indistinguishability classes, keyed by [`StateId`]: the
/// class of the nodes where the agent's state is `sid` is
/// `nodes[starts[sid]..starts[sid + 1]]`, ascending. `starts` has
/// `distinct_states + 1` entries; an id the agent never holds has an
/// empty span.
pub(crate) struct AgentClasses {
    pub(crate) nodes: Vec<u32>,
    pub(crate) starts: Vec<u32>,
}

impl AgentClasses {
    /// The nodes of the class of `sid`.
    fn span(&self, sid: usize) -> &[u32] {
        &self.nodes[self.starts[sid] as usize..self.starts[sid + 1] as usize]
    }

    /// Every id's class, empty or not, in id order.
    fn spans(&self) -> impl Iterator<Item = &[u32]> {
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
    /// The maximal blocks of consecutive leaves, as `(first node, end
    /// node, first run)`: in pre-order a block's runs are consecutive
    /// too, and the nodes below the horizon lie between the blocks.
    leaf_blocks: Vec<(u32, u32, u32)>,
}

impl<E: InformationExchange> InterpretedSystem<E> {
    /// Builds the system for a first-class [`Context`]: the context
    /// supplies both halves of the stack *and its failure model*
    /// (knowledge is quantified over the model's run set), and the
    /// enumeration **streams** through [`Scenario::enumerate_store`] with
    /// the given `parallelism`, so peak memory is the arena of distinct
    /// states plus the node table.
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
    /// // Runs share their prefixes: far fewer nodes than points.
    /// assert!(sys.store().node_count() < sys.point_count());
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
    /// `StateId` node column — no hashing, no state comparisons: two
    /// nodes share a class iff they share an id.
    ///
    /// # Errors
    ///
    /// Returns [`EbaError::InvalidInput`] if the store's agent count
    /// disagrees with the exchange's parameters, if a run has more than
    /// `t` faulty agents — no failure model admits one, and
    /// [`common_t_faulty_set`](Self::common_t_faulty_set) relies on it —,
    /// if a node has no run through it (it would count as a point), or
    /// if two children of a node disagree on some `decided_i`, which
    /// `deciding_i` reads off the node's first child.
    pub fn from_store(ex: E, store: RunStore<E>) -> Result<Self, EbaError> {
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
        let invalid = |what: String| Err(EbaError::InvalidInput(what));
        if store.agents() != n {
            return invalid(format!(
                "store built for {} agents, exchange has n = {n}",
                store.agents()
            ));
        }
        if let Some((nodes, nonfaulty, _)) = store.roots().find(|root| root.1.len() < n - t) {
            let (run, faulty) = (store.runs(nodes.start).start, n - nonfaulty.len());
            return invalid(format!(
                "run {run} has {faulty} faulty agents, more than t = {t}"
            ));
        }
        let nodes = store.node_count();
        if let Some(x) = (0..nodes).find(|x| store.runs(*x).is_empty()) {
            return invalid(format!("node {x} has no run through it"));
        }
        let decided_by_state: Vec<_> = store
            .arena()
            .states()
            .iter()
            .map(|s| ex.decided(s))
            .collect();
        let decided = |x: usize, i: usize| decided_by_state[store.node_state_ids(i)[x].index()];
        for (x, p) in (0..nodes).filter_map(|x| Some((x, store.parent(x)?))) {
            if let Some(i) = (0..n).find(|i| decided(x, *i) != decided(p + 1, *i)) {
                return invalid(format!("the children of node {p} disagree on decided_a{i}"));
            }
        }
        let mut leaf_blocks: Vec<(u32, u32, u32)> = Vec::new();
        for x in (0..nodes).filter(|x| store.depth(*x) == store.horizon()) {
            match leaf_blocks.last_mut() {
                Some(block) if block.1 as usize == x => block.1 += 1,
                _ => leaf_blocks.push((x as u32, x as u32 + 1, store.runs(x).start as u32)),
            }
        }
        Ok(InterpretedSystem {
            ex,
            store,
            classes,
            decided_by_state,
            leaf_blocks,
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

    /// The node of a point.
    pub(crate) fn node_of(&self, point: PointId) -> usize {
        self.store.node(self.run_of(point), self.time_of(point))
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

    /// The class partition of `agent` as point sets: its nonempty
    /// classes, each ascending, ordered by their smallest point —
    /// independent of how nodes and `StateId`s were laid out, so two
    /// constructions can be compared.
    pub fn class_partition(&self, agent: AgentId) -> Vec<Vec<PointId>> {
        let (store, per_run) = (&self.store, self.horizon() as usize + 1);
        let points = |x: &u32| {
            let (runs, m) = (store.runs(*x as usize), store.depth(*x as usize));
            runs.map(move |r| (r * per_run) as PointId + m)
        };
        let spans = self.classes[agent.index()].spans();
        let mut partition: Vec<Vec<PointId>> = spans
            .filter(|span| !span.is_empty())
            .map(|span| {
                let mut class: Vec<PointId> = span.iter().flat_map(points).collect();
                class.sort_unstable();
                class
            })
            .collect();
        partition.sort_unstable();
        partition
    }

    /// The time layers of a node set: `layers[m]` holds the runs whose
    /// point at time `m` lies in one of its nodes. A node's points are
    /// its runs at its depth, one range of runs; a block of leaves is
    /// copied into the horizon's layer a word at a time.
    pub(crate) fn lift(&self, nodes: &BitSet) -> Vec<BitSet> {
        let (store, horizon) = (&self.store, self.horizon() as usize);
        let mut layers = vec![BitSet::new(self.run_count()); horizon + 1];
        let mut next = 0;
        for &(first, end, run) in &self.leaf_blocks {
            let (first, end) = (first as usize, end as usize);
            for x in (next..first).filter(|x| nodes.contains(*x)) {
                layers[store.depth(x) as usize].insert_range(store.runs(x));
            }
            layers[horizon].insert_shifted(nodes, first..end, run as usize);
            next = end;
        }
        layers
    }

    /// The nodes all of whose points lie in `layers`. A class is a union
    /// of nodes, so this is all a knowledge operator reads of a set that
    /// looks ahead: `K_i φ` is `K_i` of `φ`'s interior.
    pub(crate) fn interior(&self, layers: &[BitSet]) -> BitSet {
        let store = &self.store;
        BitSet::from_fn(store.node_count(), |x| {
            layers[store.depth(x) as usize].contains_range(store.runs(x))
        })
    }

    /// The nodes of the roots whose `(N, inits)` satisfy `pred`: a root's
    /// subtree is a range of nodes.
    pub(crate) fn nodes_where_root(&self, pred: impl Fn(AgentSet, &[Value]) -> bool) -> BitSet {
        let mut nodes = BitSet::new(self.store.node_count());
        for (range, nonfaulty, inits) in self.store.roots() {
            if pred(nonfaulty, inits) {
                nodes.insert_range(range);
            }
        }
        nodes
    }

    /// `K_agent` over nodes: the nodes whose `StateId` the agent holds at
    /// no node outside `inner`.
    pub(crate) fn knows(&self, agent: AgentId, inner: &BitSet) -> BitSet {
        let ids = self.store.node_state_ids(agent.index());
        let (mut doubted, mut outside) = (BitSet::new(self.distinct_states()), inner.clone());
        outside.invert();
        outside.iter().for_each(|x| doubted.insert(ids[x].index()));
        BitSet::from_fn(ids.len(), |x| !doubted.contains(ids[x].index()))
    }

    /// `E_N` over nodes: everyone in the (indexical) nonfaulty set knows
    /// `inner`, i.e. `⋀_j (j ∈ N ⇒ K_j inner)`, a word at a time.
    pub(crate) fn everyone(&self, inner: &BitSet) -> BitSet {
        let mut out = BitSet::full(self.store.node_count());
        for j in self.params().agents() {
            let mut knows_or_faulty = self.nodes_where_root(|nonfaulty, _| !nonfaulty.contains(j));
            knows_or_faulty.union_with(&self.knows(j, inner));
            out.intersect_with(&knows_or_faulty);
        }
        out
    }

    /// `C_N` over nodes: common knowledge among the nonfaulty — the
    /// greatest fixpoint of `X = E_N(inner ∧ X)`, in one worklist pass.
    ///
    /// A class of agent `j` is *tainted* once it holds a node outside
    /// `inner ∧ X`. `X` starts full; a tainted `j`-class removes from `X`
    /// each of its nodes whose root has `j ∈ N`, and a removed node
    /// taints its class for every agent. When the worklist is empty, a
    /// node is in `X` iff no agent of its `N` has a tainted class there,
    /// i.e. `X = E_N(inner ∧ X)`; a node is only removed once it is
    /// outside every `Y ⊆ E_N(inner ∧ Y)`, so `X` is the greatest such
    /// set. Each `(agent, StateId)` class is tainted at most once and each
    /// node leaves `X` at most once: `O(n · nodes)`.
    /// [`eval_recursive`](Self::eval_recursive) keeps the iteration as
    /// the oracle this is tested against.
    pub(crate) fn common(&self, inner: &BitSet) -> BitSet {
        self.common_knowledge_pass(inner, false)
    }

    /// `C_N(t-faulty ∧ φ)` over nodes for `inner = φ`: the union over
    /// `|A| = t` of `C_N(⋀_{i ∈ A} i ∉ N ∧ φ)`, in one worklist pass. As
    /// `N ≠ ∅` and `|F| ≤ t`, tower `A`'s fixpoint lies in runs with
    /// `F = A`, so a class holding points of two faulty sets is tainted in
    /// every tower: the pass over `φ ∧ |F| = t` with such classes tainted
    /// from the start is the union (docs/GUIDE.md §5). Construction
    /// refused any run with `|F| > t`.
    /// [`eval_recursive`](Self::eval_recursive) evaluates the towers.
    pub(crate) fn common_t_faulty(&self, inner: &BitSet) -> BitSet {
        let (n, t) = (self.params().n(), self.params().t());
        let mut t_faulty = self.nodes_where_root(|nonfaulty, _| n - nonfaulty.len() == t);
        t_faulty.intersect_with(inner);
        self.common_knowledge_pass(&t_faulty, true)
    }

    /// The worklist pass of `C_N` over `inner`; with `split_faulty`, a
    /// class whose nodes lie in runs of different faulty sets starts
    /// tainted too.
    fn common_knowledge_pass(&self, inner: &BitSet, split_faulty: bool) -> BitSet {
        let (n, states) = (self.params().n(), self.distinct_states());
        let ids: Vec<&[StateId]> = (0..n).map(|k| self.store.node_state_ids(k)).collect();
        // `nonfaulty[j]`: the nodes whose runs have `j ∈ N`.
        let nonfaulty: Vec<BitSet> = self
            .params()
            .agents()
            .map(|j| self.nodes_where_root(|nonfaulty, _| nonfaulty.contains(j)))
            .collect();
        let same_n = |x: u32, y: u32| {
            let n_at = |nf: &BitSet, x: u32| nf.contains(x as usize);
            nonfaulty.iter().all(|nf| n_at(nf, x) == n_at(nf, y))
        };
        // `tainted[j * states + sid]`: agent `j`'s class of `sid` is tainted.
        let mut tainted = vec![false; n * states];
        let mut x = inner.clone();
        x.invert();
        for node in x.iter() {
            for (j, ids_j) in ids.iter().enumerate() {
                tainted[j * states + ids_j[node].index()] = true;
            }
        }
        for (j, cls) in self.classes.iter().enumerate().filter(|_| split_faulty) {
            for (sid, span) in cls.spans().enumerate() {
                let mixed = || span.iter().any(|x| !same_n(*x, span[0]));
                tainted[j * states + sid] = tainted[j * states + sid] || mixed();
            }
        }
        let mut work: Vec<usize> = (0..n * states).filter(|c| tainted[*c]).collect();
        x.fill();
        while let Some(c) = work.pop() {
            for &node in self.classes[c / states].span(c % states) {
                let node = node as usize;
                if !x.contains(node) || !nonfaulty[c / states].contains(node) {
                    continue;
                }
                x.remove(node);
                for (k, ids_k) in ids.iter().enumerate() {
                    let ck = k * states + ids_k[node].index();
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
/// `StateId` node column — count each id, take prefix sums, then place
/// the nodes in increasing order, so every span is ascending. No hashing,
/// no state comparisons: interning already established that equal ids
/// are exactly equal states.
fn classes_from_store<E: InformationExchange>(store: &RunStore<E>) -> Vec<AgentClasses> {
    let states = store.distinct_states();
    (0..store.agents())
        .map(|i| {
            let ids = store.node_state_ids(i);
            let mut starts = vec![0u32; states + 1];
            for id in ids {
                starts[id.index() + 1] += 1;
            }
            for sid in 0..states {
                starts[sid + 1] += starts[sid];
            }
            let mut next = starts.clone();
            let mut nodes = vec![0; ids.len()];
            for (x, id) in ids.iter().enumerate() {
                nodes[next[id.index()] as usize] = x as u32;
                next[id.index()] += 1;
            }
            AgentClasses { nodes, starts }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formula::Formula;
    use eba_core::prelude::*;
    use eba_sim::enumerate::ItemRuns;
    use eba_sim::sink::RunSink;

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
        crate::oracle::from_runs(ctx.into_parts().0, &runs, 4).unwrap()
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
        // Each agent's node classes partition the nodes, and so, as
        // point sets, the points; every class is state-homogeneous.
        let sys = small_system();
        let nodes = sys.store().node_count();
        for i in 0..3 {
            let (agent, cls) = (AgentId::new(i), &sys.classes[i]);
            assert_eq!(cls.nodes.len(), nodes);
            let mut seen = vec![false; nodes];
            for x in &cls.nodes {
                assert!(!seen[*x as usize], "node in two classes");
                seen[*x as usize] = true;
            }
            assert!(seen.iter().all(|b| *b));
            let mut seen = vec![false; sys.point_count()];
            for class in sys.class_partition(agent) {
                let (s0, id0) = (
                    sys.local_state(class[0], agent),
                    sys.state_id(class[0], agent),
                );
                for p in class {
                    assert!(!seen[p as usize], "point in two classes");
                    seen[p as usize] = true;
                    assert_eq!(sys.local_state(p, agent), s0);
                    assert_eq!(sys.state_id(p, agent), id0, "ids mirror state equality");
                }
            }
            assert!(seen.iter().all(|b| *b));
        }
    }

    #[test]
    fn classes_are_laid_out_by_state_id() {
        // Both constructors: every point's node lies in the span of its
        // own state id, and every span is ascending.
        let params = Params::new(3, 1).unwrap();
        for sys in [small_system(), reference(Context::minimal(params))] {
            for (j, cls) in sys.classes.iter().enumerate() {
                assert_eq!(cls.starts.len(), sys.distinct_states() + 1);
                for span in cls.spans() {
                    assert!(span.windows(2).all(|w| w[0] < w[1]), "agent {j}: {span:?}");
                }
                for p in 0..sys.point_count() as PointId {
                    let sid = sys.state_id(p, AgentId::new(j)).index();
                    let node = sys.node_of(p) as u32;
                    assert!(
                        cls.span(sid).binary_search(&node).is_ok(),
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
        let depth = |x: &u32| sys.store().depth(*x as usize);
        for cls in &sys.classes {
            for span in cls.spans().filter(|span| !span.is_empty()) {
                assert!(span.iter().all(|x| depth(x) == depth(&span[0])));
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
        let err = match crate::oracle::from_runs(ctx.into_parts().0, &runs, 3) {
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
            crate::oracle::from_runs(ex, &runs, 4).err(),
        ];
        for err in errors {
            let err = err.expect("a run with |F| > t must be rejected");
            assert!(err.to_string().contains("more than t = 1"), "{err}");
        }
    }

    /// A `(2, 0)` `E_min` item at horizon 2, built node by node: a root
    /// whose first child carries one run, and a second child `child`
    /// whose subtree carries a run iff `with_run`.
    fn hand_built(child: [MinState; 2], with_run: bool) -> Result<(), EbaError> {
        let params = Params::new(2, 0).unwrap();
        let state = |time, decided| MinState {
            time,
            init: Value::Zero,
            decided,
            jd: None,
        };
        let undecided = |time| [state(time, None), state(time, None)];
        let noop = [Action::Noop; 2];
        let mut item = ItemRuns::new(AgentSet::full(2), vec![Value::Zero; 2], 2);
        let root = item.push_node(None, &undecided(0), &noop)?;
        let first = item.push_node(Some(root), &undecided(1), &noop)?;
        item.push_node(Some(first), &undecided(2), &[])?;
        let second = item.push_node(Some(root), &child, &noop)?;
        if with_run {
            item.push_node(Some(second), &child.map(|s| state(2, s.decided)), &[])?;
        }
        let mut store = RunStore::new(2, 2);
        store.accept_item(item)?;
        InterpretedSystem::from_store(MinExchange::new(params), store).map(drop)
    }

    #[test]
    fn stores_with_a_node_no_run_passes_through_are_rejected() {
        // Such a node would count as a point of its own for `K_i`.
        let child = [Value::One, Value::Zero].map(|init| MinState {
            time: 1,
            init,
            decided: None,
            jd: None,
        });
        hand_built(child, true).unwrap();
        let err = hand_built(child, false).unwrap_err();
        assert!(
            err.to_string().contains("node 3 has no run through it"),
            "{err}"
        );
    }

    #[test]
    fn stores_whose_siblings_disagree_on_a_decision_are_rejected() {
        // `deciding_i` at the root reads `decided_i` off its first child.
        let child = |decided| {
            [decided, None].map(|decided| MinState {
                time: 1,
                init: Value::Zero,
                decided,
                jd: Some(Value::Zero),
            })
        };
        hand_built(child(None), true).unwrap();
        let err = hand_built(child(Some(Value::Zero)), true).unwrap_err();
        assert!(
            err.to_string()
                .contains("the children of node 0 disagree on decided_a0"),
            "{err}"
        );
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
