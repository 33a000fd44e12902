//! The compiled epistemic query engine: hash-consed formulas, batched
//! evaluation sessions, and counterexample-carrying verdicts.
//!
//! The paper's results are answered by evaluating *families* of closely
//! related formulas over one interpreted system — the two
//! `C_N(t-faulty ∧ …)` guards of `P1`, the per-value `someone_just_decided` /
//! `nobody_deciding` disjunctions of `P0`, the EBA spec validities. A
//! recursive per-formula [`eval`](InterpretedSystem::eval) recomputes every shared
//! subformula per root; this module compiles a *batch* instead:
//!
//! 1. [`FormulaArena`] **hash-conses** formulas into dense [`NodeId`]s:
//!    structurally equal subformulas are interned exactly once, so the
//!    shared towers exist once no matter how many roots mention them.
//! 2. [`QueryPlan`] schedules the nodes reachable from a set of roots in
//!    topological order (interning guarantees children precede parents),
//!    and records how many node evaluations the batch saves over
//!    evaluating each root independently.
//! 3. [`EvalSession`] executes the plan over an [`InterpretedSystem`] in
//!    one pass — per distinct node, a [`BitSet`] over the interned
//!    [`RunStore`](eba_sim::store::RunStore)'s prefix tree for a
//!    present-time formula, and time layers of run bitsets for one that
//!    looks ahead along runs — and answers every root with a [`Verdict`]
//!    carrying a `(run, time)` counterexample when it is not valid.
//!
//! [`eval`](InterpretedSystem::eval), [`InterpretedSystem::valid`] and friends are thin
//! wrappers that build a one-formula plan; the pre-engine recursion
//! survives as [`InterpretedSystem::eval_recursive`], the independent
//! oracle the engine is verified against bit-for-bit
//! (`tests/query_engine_equivalence.rs`).
//!
//! # Example: the EBA spec as one batch, with witnesses
//!
//! ```
//! use eba_core::prelude::*;
//! use eba_epistemic::prelude::*;
//! use eba_sim::prelude::*;
//!
//! # fn main() -> Result<(), EbaError> {
//! let params = Params::new(3, 1)?;
//! let sys = InterpretedSystem::from_context(
//!     Context::minimal(params), 4, 1_000_000, Parallelism::Auto)?;
//!
//! let mut arena = FormulaArena::new();
//! let roots: Vec<NodeId> = AgentId::all(3)
//!     .map(|i| {
//!         // Strong Validity for agent i: decided_i = 0 ⇒ ∃0.
//!         arena.intern(&Formula::implies(
//!             Formula::DecidedIs(i, Some(Value::Zero)),
//!             Formula::ExistsInit(Value::Zero),
//!         ))
//!     })
//!     .collect();
//! let plan = QueryPlan::new(&arena, &roots);
//! let session = EvalSession::evaluate(&sys, &arena, &plan);
//! for root in &roots {
//!     let verdict = session.verdict(*root);
//!     assert!(verdict.holds, "violated at {:?}", verdict.counterexample);
//! }
//! // All three roots share the interned `∃0` leaf — the batch
//! // evaluates it once instead of once per root:
//! assert!(plan.evaluated_node_count() < plan.naive_node_count());
//! # Ok(())
//! # }
//! ```

use std::borrow::Cow;
use std::collections::HashMap;

use eba_core::exchange::InformationExchange;
use eba_core::types::{AgentId, BitSet, Value};

use crate::formula::Formula;
use crate::system::InterpretedSystem;

/// Dense handle of an interned formula node in a [`FormulaArena`].
///
/// Ids are assigned in interning order, and every constructor interns
/// subformulas before the enclosing node, so **ids are a topological
/// order**: a node's children always have strictly smaller ids.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct NodeId(u32);

impl NodeId {
    /// The dense index of the node (`0..arena.node_count()`).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One interned formula node: the same operators as [`Formula`], with
/// subformulas replaced by [`NodeId`]s into the owning arena.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Node {
    /// Truth.
    True,
    /// `init_i = v`.
    InitIs(AgentId, Value),
    /// `decided_i = v` (`None` is `⊥`).
    DecidedIs(AgentId, Option<Value>),
    /// `time = k`.
    TimeIs(u32),
    /// `i ∈ N`.
    Nonfaulty(AgentId),
    /// `∃v ≡ ⋁_j init_j = v`.
    ExistsInit(Value),
    /// `jdecided_i = v`.
    JustDecided(AgentId, Value),
    /// `deciding_i = v`.
    Deciding(AgentId, Value),
    /// Negation.
    Not(NodeId),
    /// Conjunction (empty = true).
    And(Vec<NodeId>),
    /// Disjunction (empty = false).
    Or(Vec<NodeId>),
    /// `K_i φ`.
    Knows(AgentId, NodeId),
    /// `E_N φ`.
    EveryoneNonfaulty(NodeId),
    /// `C_N φ`.
    CommonNonfaulty(NodeId),
    /// `C_N(t-faulty ∧ φ)`.
    CommonTFaulty(NodeId),
    /// `◯φ` (false at the horizon).
    Next(NodeId),
    /// `⊖φ` (false at time 0).
    Prev(NodeId),
    /// `□φ` within the horizon.
    Henceforth(NodeId),
    /// `♦φ` within the horizon.
    Eventually(NodeId),
}

impl Node {
    /// The ids of this node's direct subformulas.
    fn children(&self) -> &[NodeId] {
        match self {
            Node::True
            | Node::InitIs(..)
            | Node::DecidedIs(..)
            | Node::TimeIs(..)
            | Node::Nonfaulty(..)
            | Node::ExistsInit(..)
            | Node::JustDecided(..)
            | Node::Deciding(..) => &[],
            Node::Not(g)
            | Node::Knows(_, g)
            | Node::EveryoneNonfaulty(g)
            | Node::CommonNonfaulty(g)
            | Node::CommonTFaulty(g)
            | Node::Next(g)
            | Node::Prev(g)
            | Node::Henceforth(g)
            | Node::Eventually(g) => std::slice::from_ref(g),
            Node::And(gs) | Node::Or(gs) => gs,
        }
    }
}

/// A hash-consing arena of formula nodes: structurally equal subformulas
/// are interned exactly once and shared by id.
///
/// [`intern`](FormulaArena::intern) is the one way in: write the query as
/// a [`Formula`] and intern it.
#[derive(Clone, Debug)]
pub struct FormulaArena {
    nodes: Vec<Node>,
    index: HashMap<Node, NodeId>,
    /// Identity stamp, unique per `new()` (clones share it — a clone's
    /// id space is a compatible extension of the original's). A
    /// [`QueryPlan`] records the stamp so an [`EvalSession`] can reject
    /// a plan paired with an unrelated arena instead of resolving its
    /// node ids against the wrong node table.
    stamp: u64,
}

impl Default for FormulaArena {
    fn default() -> Self {
        FormulaArena::new()
    }
}

impl FormulaArena {
    /// An empty arena with a fresh identity stamp.
    #[must_use]
    pub fn new() -> Self {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT_STAMP: AtomicU64 = AtomicU64::new(0);
        FormulaArena {
            nodes: Vec::new(),
            index: HashMap::new(),
            stamp: NEXT_STAMP.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// Number of distinct interned nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The node behind an id.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this arena.
    #[must_use]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Interns a node, returning the existing id when a structurally
    /// equal node is already present.
    fn add(&mut self, node: Node) -> NodeId {
        if let Some(id) = self.index.get(&node) {
            return *id;
        }
        let id = NodeId(u32::try_from(self.nodes.len()).expect("arena holds < 2^32 nodes"));
        self.nodes.push(node.clone());
        self.index.insert(node, id);
        id
    }

    /// Interns a [`Formula`] tree bottom-up, deduplicating every shared
    /// subformula against everything already in the arena.
    pub fn intern(&mut self, f: &Formula) -> NodeId {
        let node = match f {
            Formula::True => Node::True,
            Formula::InitIs(i, v) => Node::InitIs(*i, *v),
            Formula::DecidedIs(i, v) => Node::DecidedIs(*i, *v),
            Formula::TimeIs(k) => Node::TimeIs(*k),
            Formula::Nonfaulty(i) => Node::Nonfaulty(*i),
            Formula::ExistsInit(v) => Node::ExistsInit(*v),
            Formula::JustDecided(i, v) => Node::JustDecided(*i, *v),
            Formula::Deciding(i, v) => Node::Deciding(*i, *v),
            Formula::Not(g) => Node::Not(self.intern(g)),
            Formula::And(gs) => Node::And(gs.iter().map(|g| self.intern(g)).collect()),
            Formula::Or(gs) => Node::Or(gs.iter().map(|g| self.intern(g)).collect()),
            Formula::Knows(i, g) => Node::Knows(*i, self.intern(g)),
            Formula::EveryoneNonfaulty(g) => Node::EveryoneNonfaulty(self.intern(g)),
            Formula::CommonNonfaulty(g) => Node::CommonNonfaulty(self.intern(g)),
            Formula::CommonTFaulty(g) => Node::CommonTFaulty(self.intern(g)),
            Formula::Next(g) => Node::Next(self.intern(g)),
            Formula::Prev(g) => Node::Prev(self.intern(g)),
            Formula::Henceforth(g) => Node::Henceforth(self.intern(g)),
            Formula::Eventually(g) => Node::Eventually(self.intern(g)),
        };
        self.add(node)
    }

    /// Number of **distinct** nodes reachable from `root` — the node
    /// count of `root` evaluated as a one-root plan. Note this is a
    /// lower bound on what the legacy tree recursion
    /// ([`InterpretedSystem::eval_recursive`]) traverses: the recursion
    /// re-evaluates each *occurrence* of a repeated subformula, while
    /// this counts it once.
    #[must_use]
    pub fn reachable_count(&self, root: NodeId) -> usize {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![root];
        let mut count = 0usize;
        while let Some(id) = stack.pop() {
            if std::mem::replace(&mut seen[id.index()], true) {
                continue;
            }
            count += 1;
            stack.extend_from_slice(self.node(id).children());
        }
        count
    }
}

/// A topologically scheduled batch of root formulas over a shared
/// [`FormulaArena`] DAG.
///
/// The schedule contains each node reachable from any root **once**, in
/// ascending id order (a valid evaluation order by construction);
/// [`naive_node_count`](QueryPlan::naive_node_count) records what the
/// same roots would cost as independent per-formula evaluations.
#[derive(Clone, Debug)]
pub struct QueryPlan {
    roots: Vec<NodeId>,
    schedule: Vec<NodeId>,
    /// `slot_of[node.index()]` = position in `schedule`, or `u32::MAX`
    /// when the node is not reachable from any root.
    slot_of: Vec<u32>,
    naive_nodes: usize,
    /// Stamp of the arena the plan was built from (see
    /// [`FormulaArena::new`]).
    arena_stamp: u64,
}

impl QueryPlan {
    /// Plans the batch evaluation of `roots` over `arena`.
    #[must_use]
    pub fn new(arena: &FormulaArena, roots: &[NodeId]) -> QueryPlan {
        let mut reachable = vec![false; arena.node_count()];
        let mut stack: Vec<NodeId> = roots.to_vec();
        while let Some(id) = stack.pop() {
            if std::mem::replace(&mut reachable[id.index()], true) {
                continue;
            }
            stack.extend_from_slice(arena.node(id).children());
        }
        let mut schedule = Vec::new();
        let mut slot_of = vec![u32::MAX; arena.node_count()];
        for (idx, is_in) in reachable.iter().enumerate() {
            if *is_in {
                slot_of[idx] = schedule.len() as u32;
                schedule.push(NodeId(idx as u32));
            }
        }
        let naive_nodes = roots.iter().map(|r| arena.reachable_count(*r)).sum();
        QueryPlan {
            roots: roots.to_vec(),
            schedule,
            slot_of,
            naive_nodes,
            arena_stamp: arena.stamp,
        }
    }

    /// The root formulas of the batch, in the order given to
    /// [`QueryPlan::new`].
    #[must_use]
    pub fn roots(&self) -> &[NodeId] {
        &self.roots
    }

    /// Distinct nodes the session will evaluate — the size of the shared
    /// DAG under the roots.
    #[must_use]
    pub fn evaluated_node_count(&self) -> usize {
        self.schedule.len()
    }

    /// What the same roots cost as independent one-root plans: the sum
    /// over roots of each root's **distinct** reachable-node count
    /// ([`FormulaArena::reachable_count`]).
    /// `naive_node_count() - evaluated_node_count()` is what batching
    /// saves *across* roots; it understates the saving against the
    /// legacy tree recursion, which additionally re-evaluates repeated
    /// subformula occurrences *within* a single formula.
    #[must_use]
    pub fn naive_node_count(&self) -> usize {
        self.naive_nodes
    }
}

/// The answer to one root query: whether the formula is **valid** (holds
/// at every point of the system), and a witnessing point when it is not.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Verdict {
    /// Whether the formula holds at every point.
    pub holds: bool,
    /// When `!holds`: the first `(run, time)` point falsifying the
    /// formula — re-checkable with
    /// [`InterpretedSystem::satisfied_at`].
    pub counterexample: Option<(usize, u32)>,
}

/// A formula's truth set: over nodes when the formula is present-time;
/// when it looks ahead along runs (`◯`, `□`, `♦`), `layers[m]` holds the
/// runs whose point at time `m` is in the set.
enum Sat {
    Nodes(BitSet),
    Layers(Vec<BitSet>),
}

impl Sat {
    /// The time layers of the set.
    fn layers<E: InformationExchange>(&self, sys: &InterpretedSystem<E>) -> Cow<'_, [BitSet]> {
        match self {
            Sat::Nodes(nodes) => Cow::Owned(sys.lift(nodes)),
            Sat::Layers(layers) => Cow::Borrowed(layers),
        }
    }

    /// The nodes all of whose points lie in the set: all a knowledge
    /// operator reads of its operand.
    fn interior<E: InformationExchange>(&self, sys: &InterpretedSystem<E>) -> Cow<'_, BitSet> {
        match self {
            Sat::Nodes(nodes) => Cow::Borrowed(nodes),
            Sat::Layers(layers) => Cow::Owned(sys.interior(layers)),
        }
    }

    /// The set's time layers rewritten by `op`, a look along the runs.
    fn along<E: InformationExchange>(
        &self,
        sys: &InterpretedSystem<E>,
        op: impl FnOnce(&mut [BitSet]),
    ) -> Sat {
        let mut layers = self.layers(sys).into_owned();
        op(&mut layers);
        Sat::Layers(layers)
    }
}

/// One executed batch: every scheduled node's truth set, computed in a
/// single topological pass over an [`InterpretedSystem`].
///
/// A present-time formula has one value at all points of a node of the
/// system's prefix tree, so it is evaluated over nodes: root-level
/// propositions (`InitIs`, `Nonfaulty`, `ExistsInit`) fill each root's
/// subtree, a range of nodes; `decided`-reading propositions read each
/// agent's [`StateId`](eba_sim::store::StateId) node column into a
/// per-state table, a word of nodes at a time; `⊖` reads the parent; and
/// knowledge operators run over the system's node classes. Only `◯`, `□`
/// and `♦` look ahead along runs: they and the boolean nodes above them
/// hold one run bitset per time, the points at time `m` being exactly the
/// runs. A node set lifts into its depth's layer as its run range; `◯`
/// and `⊖` rotate the layers, `□` and `♦` fold them from the horizon
/// down a word at a time, and a knowledge operator over such an operand
/// runs over its interior, the nodes whose run range lies wholly in their
/// layer. Each distinct node is evaluated once however many roots share it.
pub struct EvalSession<'s, E: InformationExchange> {
    sys: &'s InterpretedSystem<E>,
    slot_of: Vec<u32>,
    sets: Vec<Sat>,
}

impl<'s, E: InformationExchange> EvalSession<'s, E> {
    /// Evaluates every node of `plan` over `sys`, children before
    /// parents, in one pass.
    ///
    /// # Panics
    ///
    /// Panics if `plan` was built from a different arena than `arena`
    /// (identity is checked via the arena's stamp — clones share their
    /// original's stamp and id space, so evaluating against a clone, or
    /// against the same arena after further interning, is fine), or if
    /// the supplied arena is smaller than the plan's id space.
    pub fn evaluate(
        sys: &'s InterpretedSystem<E>,
        arena: &FormulaArena,
        plan: &QueryPlan,
    ) -> EvalSession<'s, E> {
        assert!(
            plan.arena_stamp == arena.stamp,
            "plan was built from a different arena (stamp {} vs {}): its node ids \
             would resolve against an unrelated node table",
            plan.arena_stamp,
            arena.stamp
        );
        assert!(
            plan.slot_of.len() <= arena.node_count(),
            "plan was built for a larger arena ({} nodes) than the one supplied ({})",
            plan.slot_of.len(),
            arena.node_count()
        );
        let (store, horizon) = (sys.store(), sys.horizon() as usize);
        let nodes = store.node_count();
        let mut sets: Vec<Sat> = Vec::with_capacity(plan.schedule.len());
        for id in &plan.schedule {
            let get = |cid: &NodeId| &sets[plan.slot_of[cid.index()] as usize];
            let interior = |cid: &NodeId| get(cid).interior(sys);
            let set = match arena.node(*id) {
                Node::True => Sat::Nodes(BitSet::full(nodes)),
                Node::InitIs(i, v) => {
                    Sat::Nodes(sys.nodes_where_root(|_, inits| inits[i.index()] == *v))
                }
                Node::DecidedIs(i, v) => {
                    let decided = decided_column(sys, *i);
                    Sat::Nodes(BitSet::from_fn(nodes, |x| decided(x) == *v))
                }
                Node::TimeIs(k) => Sat::Nodes(BitSet::from_fn(nodes, |x| store.depth(x) == *k)),
                Node::Nonfaulty(i) => {
                    Sat::Nodes(sys.nodes_where_root(|nonfaulty, _| nonfaulty.contains(*i)))
                }
                Node::ExistsInit(v) => {
                    Sat::Nodes(sys.nodes_where_root(|_, inits| inits.contains(v)))
                }
                Node::JustDecided(i, v) => {
                    let decided = decided_column(sys, *i);
                    Sat::Nodes(BitSet::from_fn(nodes, |x| {
                        let before = || store.parent(x).is_some_and(|p| decided(p).is_none());
                        decided(x) == Some(*v) && before()
                    }))
                }
                Node::Deciding(i, v) => {
                    // Below the horizon, a node's first child is the next
                    // node, and construction checked that every child
                    // agrees with it on `decided_i`.
                    let decided = decided_column(sys, *i);
                    Sat::Nodes(BitSet::from_fn(nodes, |x| {
                        let next = || store.depth(x) < sys.horizon() && decided(x + 1) == Some(*v);
                        decided(x).is_none() && next()
                    }))
                }
                Node::Not(g) => match get(g) {
                    Sat::Nodes(bits) => {
                        let mut bits = bits.clone();
                        bits.invert();
                        Sat::Nodes(bits)
                    }
                    sat => sat.along(sys, |layers| layers.iter_mut().for_each(BitSet::invert)),
                },
                Node::And(gs) | Node::Or(gs) => {
                    // Node-set operands combine over nodes and lift once.
                    let and = matches!(arena.node(*id), Node::And(_));
                    let combine = |acc: &mut BitSet, operand: &BitSet| match and {
                        true => acc.intersect_with(operand),
                        false => acc.union_with(operand),
                    };
                    let (mut bits, mut layers) = (BitSet::new(nodes), Vec::new());
                    if and {
                        bits.fill();
                    }
                    for g in gs {
                        match get(g) {
                            Sat::Nodes(operand) => combine(&mut bits, operand),
                            Sat::Layers(operand) => layers.push(operand),
                        }
                    }
                    if layers.is_empty() {
                        Sat::Nodes(bits)
                    } else {
                        let mut out = sys.lift(&bits);
                        for operand in layers {
                            out.iter_mut().zip(operand).for_each(|(l, o)| combine(l, o));
                        }
                        Sat::Layers(out)
                    }
                }
                Node::Knows(i, g) => Sat::Nodes(sys.knows(*i, &interior(g))),
                Node::EveryoneNonfaulty(g) => Sat::Nodes(sys.everyone(&interior(g))),
                Node::CommonNonfaulty(g) => Sat::Nodes(sys.common(&interior(g))),
                Node::CommonTFaulty(g) => Sat::Nodes(sys.common_t_faulty(&interior(g))),
                Node::Prev(g) => match get(g) {
                    Sat::Nodes(inner) => Sat::Nodes(BitSet::from_fn(nodes, |x| {
                        store.parent(x).is_some_and(|p| inner.contains(p))
                    })),
                    inner => inner.along(sys, |layers| {
                        layers.rotate_right(1);
                        layers[0].clear();
                    }),
                },
                Node::Next(g) => get(g).along(sys, |layers| {
                    layers.rotate_left(1);
                    layers[horizon].clear();
                }),
                Node::Henceforth(g) => get(g).along(sys, |layers| {
                    fold_down(layers, BitSet::intersect_with);
                }),
                Node::Eventually(g) => get(g).along(sys, |layers| {
                    fold_down(layers, BitSet::union_with);
                }),
            };
            sets.push(set);
        }
        EvalSession {
            sys,
            slot_of: plan.slot_of.clone(),
            sets,
        }
    }

    /// Number of distinct nodes this session evaluated.
    #[must_use]
    pub fn nodes_evaluated(&self) -> usize {
        self.sets.len()
    }

    fn sat(&self, id: NodeId) -> &Sat {
        let slot = self.slot_of[id.index()];
        assert!(slot != u32::MAX, "node {id:?} is not in the plan");
        &self.sets[slot as usize]
    }

    /// The set of points satisfying an evaluated node, run-major.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not part of the session's plan.
    #[must_use]
    pub fn bitset(&self, id: NodeId) -> BitSet {
        self.sys.points(&self.sat(id).layers(self.sys))
    }

    /// The set of prefix-tree nodes satisfying an evaluated present-time
    /// formula, indexed like the system's [`RunStore`] nodes.
    ///
    /// [`RunStore`]: eba_sim::store::RunStore
    ///
    /// # Panics
    ///
    /// Panics if `id` was not part of the session's plan, or if it looks
    /// ahead along runs (`◯`, `□`, `♦`), so that it has no value per node.
    pub(crate) fn node_set(&self, id: NodeId) -> &BitSet {
        match self.sat(id) {
            Sat::Nodes(nodes) => nodes,
            Sat::Layers(_) => panic!("node {id:?} is not a present-time formula"),
        }
    }

    /// Consumes the session, returning the point set of one node.
    #[must_use]
    pub fn into_bitset(self, id: NodeId) -> BitSet {
        self.bitset(id)
    }

    /// The validity verdict for a node, with the first falsifying
    /// `(run, time)` point as counterexample when it is not valid. A
    /// node's first point is its first run's, and nodes are in
    /// pre-order, ascending in that point: the first falsifying node
    /// holds the first falsifying point. Over time layers, the first
    /// falsifying point is the least `(first unset run, m)`.
    #[must_use]
    pub fn verdict(&self, id: NodeId) -> Verdict {
        let store = self.sys.store();
        let counterexample = match self.sat(id) {
            Sat::Nodes(nodes) => nodes
                .first_unset()
                .map(|x| (store.runs(x).start, store.depth(x))),
            Sat::Layers(layers) => (layers.iter().zip(0..))
                .filter_map(|(layer, m)| Some((layer.first_unset()?, m)))
                .min(),
        };
        Verdict {
            holds: counterexample.is_none(),
            counterexample,
        }
    }
}

/// `□` or `♦` over time layers: each layer, from the horizon down, folded
/// with the one after it by `op` (AND or OR), a word at a time.
fn fold_down(layers: &mut [BitSet], op: fn(&mut BitSet, &BitSet)) {
    for m in (1..layers.len()).rev() {
        let (before, after) = layers.split_at_mut(m);
        op(&mut before[m - 1], &after[0]);
    }
}

/// `decided_i` at each node, read off `i`'s `StateId` node column.
fn decided_column<E: InformationExchange>(
    sys: &InterpretedSystem<E>,
    i: AgentId,
) -> impl Fn(usize) -> Option<Value> + '_ {
    let ids = sys.store().node_state_ids(i.index());
    let decided = sys.decided_table();
    move |x| decided[ids[x].index()]
}

impl<E: InformationExchange> InterpretedSystem<E> {
    /// Answers one formula with a counterexample-carrying [`Verdict`]
    /// through a one-formula [`QueryPlan`]. For families of related
    /// formulas, prefer [`InterpretedSystem::query_batch`] (shared
    /// subformulas are then evaluated once).
    pub fn query(&self, f: &Formula) -> Verdict {
        self.query_batch(std::slice::from_ref(f))
            .pop()
            .expect("one root, one verdict")
    }

    /// Answers a batch of formulas in one compiled pass: all roots are
    /// interned into one [`FormulaArena`], scheduled by one
    /// [`QueryPlan`], and evaluated by one [`EvalSession`], so every
    /// structurally shared subformula is computed exactly once. Verdicts
    /// are returned in input order.
    pub fn query_batch(&self, formulas: &[Formula]) -> Vec<Verdict> {
        let mut arena = FormulaArena::new();
        let roots: Vec<NodeId> = formulas.iter().map(|f| arena.intern(f)).collect();
        let plan = QueryPlan::new(&arena, &roots);
        let session = EvalSession::evaluate(self, &arena, &plan);
        roots.iter().map(|r| session.verdict(*r)).collect()
    }
}

/// The standard regression battery: every proposition kind, the
/// knowledge operators, and the temporal operators — 33 formulas at
/// `n = 3`. Shared by the equivalence suites and the benchmark's
/// `epistemic.battery_*` probes, so "the 33-formula battery" means the
/// same thing everywhere.
#[must_use]
pub fn standard_battery(n: usize) -> Vec<Formula> {
    let a = AgentId::new;
    let mut fs = vec![
        Formula::True,
        Formula::ExistsInit(Value::One),
        Formula::TimeIs(1),
        Formula::EveryoneNonfaulty(Box::new(Formula::ExistsInit(Value::One))),
        Formula::common_nonfaulty(Formula::ExistsInit(Value::Zero)),
        Formula::Next(Box::new(Formula::DecidedIs(a(0), Some(Value::One)))),
        Formula::Prev(Box::new(Formula::DecidedIs(a(0), None))),
        Formula::Henceforth(Box::new(Formula::DecidedIs(a(0), Some(Value::Zero)))),
        Formula::Eventually(Box::new(Formula::not(Formula::DecidedIs(a(0), None)))),
        Formula::someone_just_decided(n, Value::Zero),
        Formula::nobody_deciding(n, Value::Zero),
        Formula::no_nonfaulty_decided(n, Value::One),
    ];
    for i in 0..n {
        fs.push(Formula::InitIs(a(i), Value::Zero));
        fs.push(Formula::DecidedIs(a(i), Some(Value::One)));
        fs.push(Formula::DecidedIs(a(i), None));
        fs.push(Formula::Nonfaulty(a(i)));
        fs.push(Formula::JustDecided(a(i), Value::One));
        fs.push(Formula::Deciding(a(i), Value::Zero));
        fs.push(Formula::knows(a(i), Formula::ExistsInit(Value::Zero)));
    }
    fs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::PointId;
    use eba_core::prelude::*;
    use eba_sim::runner::Parallelism;

    fn sys() -> InterpretedSystem<MinExchange> {
        let params = Params::new(3, 1).unwrap();
        let ex = MinExchange::new(params);
        let proto = PMin::new(params);
        InterpretedSystem::from_context(
            Context::new(ex, &proto),
            4,
            1_000_000,
            Parallelism::Sequential,
        )
        .unwrap()
    }

    #[test]
    fn interning_dedups_structural_equality() {
        let mut arena = FormulaArena::new();
        let a = arena.intern(&Formula::ExistsInit(Value::Zero));
        let b = arena.intern(&Formula::ExistsInit(Value::Zero));
        assert_eq!(a, b);
        let f = Formula::implies(
            Formula::ExistsInit(Value::Zero),
            Formula::ExistsInit(Value::Zero),
        );
        let root = arena.intern(&f);
        // ∃0 already interned; only ¬∃0 and the Or are new.
        assert_eq!(arena.node_count(), 3);
        assert_eq!(arena.reachable_count(root), 3);
    }

    #[test]
    fn node_ids_are_topological() {
        let mut arena = FormulaArena::new();
        let f = Formula::knows(
            AgentId::new(1),
            Formula::And(vec![
                Formula::ExistsInit(Value::One),
                Formula::not(Formula::Nonfaulty(AgentId::new(0))),
            ]),
        );
        let root = arena.intern(&f);
        for (idx, node) in (0..arena.node_count()).map(|i| (i, arena.node(NodeId(i as u32)))) {
            for c in node.children() {
                assert!(c.index() < idx, "child {c:?} not before parent {idx}");
            }
        }
        assert_eq!(root.index(), arena.node_count() - 1);
    }

    #[test]
    fn plan_schedules_only_reachable_nodes() {
        let mut arena = FormulaArena::new();
        let _unused = arena.intern(&Formula::ExistsInit(Value::Zero));
        let root = arena.intern(&Formula::not(Formula::ExistsInit(Value::One)));
        let plan = QueryPlan::new(&arena, &[root]);
        assert_eq!(plan.evaluated_node_count(), 2);
        assert_eq!(plan.naive_node_count(), 2);
        assert_eq!(plan.roots(), &[root]);
    }

    #[test]
    fn batched_verdicts_match_recursive_eval() {
        let s = sys();
        for f in standard_battery(3) {
            let verdict = s.query(&f);
            let oracle = s.eval_recursive(&f);
            assert_eq!(verdict.holds, oracle.count() == s.point_count(), "{f:?}");
            match verdict.counterexample {
                None => assert!(verdict.holds),
                Some((run, time)) => {
                    assert!(!s.satisfied_at(&f, run, time), "{f:?}");
                }
            }
        }
    }

    #[test]
    fn batch_shares_subformulas_across_roots() {
        let phi = Formula::ExistsInit(Value::Zero);
        let roots = [
            Formula::knows(AgentId::new(0), phi.clone()),
            Formula::knows(AgentId::new(1), phi.clone()),
            Formula::common_nonfaulty(phi),
        ];
        let mut arena = FormulaArena::new();
        let ids: Vec<NodeId> = roots.iter().map(|f| arena.intern(f)).collect();
        let plan = QueryPlan::new(&arena, &ids);
        // φ is shared: 1 leaf + 3 operators = 4 distinct nodes, versus
        // 2 + 2 + 2 naively.
        assert_eq!(plan.evaluated_node_count(), 4);
        assert_eq!(plan.naive_node_count(), 6);
    }

    #[test]
    fn verdict_counterexample_is_first_falsifying_point() {
        let s = sys();
        // init_0 = 0 fails exactly on the runs where a0 prefers 1; the
        // engine must report the earliest such point.
        let f = Formula::InitIs(AgentId::new(0), Value::Zero);
        let verdict = s.query(&f);
        assert!(!verdict.holds);
        let (run, time) = verdict.counterexample.unwrap();
        assert!(!s.satisfied_at(&f, run, time));
        let set = s.eval_recursive(&f);
        let first = (0..s.point_count()).find(|p| !set.contains(*p)).unwrap();
        assert_eq!(s.point(run, time) as usize, first);
    }

    #[test]
    fn layered_counterexample_is_the_first_falsifying_point() {
        // `∧ ♦true` holds the formula as time layers. Its first failing
        // run at time 0 (the first with `init_a = 1`) and at later times
        // (the first with `init_b = 1`) differ, so the least `(run, time)`
        // is not the least `(time, run)` for one of the two orders.
        let s = sys();
        let init = |i| Formula::InitIs(AgentId::new(i), Value::Zero);
        for (a, b) in [(0, 1), (1, 0)] {
            let f = Formula::And(vec![
                Formula::Or(vec![
                    Formula::And(vec![Formula::TimeIs(0), init(a)]),
                    Formula::And(vec![Formula::not(Formula::TimeIs(0)), init(b)]),
                ]),
                Formula::Eventually(Box::new(Formula::True)),
            ]);
            let first = s.eval_recursive(&f).first_unset().unwrap() as PointId;
            let expected = Some((s.run_of(first), s.time_of(first)));
            assert_eq!(s.query(&f).counterexample, expected, "{f}");
        }
    }

    #[test]
    #[should_panic(expected = "different arena")]
    fn sessions_reject_plans_from_unrelated_arenas() {
        let s = sys();
        let mut a = FormulaArena::new();
        let root = a.intern(&Formula::ExistsInit(Value::One));
        let plan = QueryPlan::new(&a, &[root]);
        // Same node count, entirely different arena: must panic, not
        // silently resolve the plan's ids against the wrong table.
        let mut b = FormulaArena::new();
        let _ = b.intern(&Formula::ExistsInit(Value::Zero));
        let _ = EvalSession::evaluate(&s, &b, &plan);
    }

    #[test]
    fn standard_battery_has_33_formulas_at_n3_and_dedups() {
        let battery = standard_battery(3);
        assert_eq!(battery.len(), 33);
        let mut arena = FormulaArena::new();
        let roots: Vec<NodeId> = battery.iter().map(|f| arena.intern(f)).collect();
        let plan = QueryPlan::new(&arena, &roots);
        assert!(
            plan.evaluated_node_count() < plan.naive_node_count(),
            "dedup must fire: {} vs {}",
            plan.evaluated_node_count(),
            plan.naive_node_count()
        );
    }

    /// `K_i ♦φ`, `E_N ◯φ`, `C_N □φ` and `C_N(t-faulty ∧ ♦φ)` for each
    /// agent's `decided = v`: knowledge over an operand that looks ahead
    /// along runs runs over its interior, and must equal the recursive
    /// evaluator's point-level iteration. Returns how many results were
    /// neither empty nor everything.
    fn temporal_operands_agree<E: InformationExchange>(sys: &InterpretedSystem<E>) -> usize {
        let n = sys.params().n();
        let mut formulas = Vec::new();
        for (i, v) in AgentId::all(n).flat_map(|i| Value::ALL.map(|v| (i, v))) {
            let decided = || Box::new(Formula::DecidedIs(i, Some(v)));
            formulas.extend([
                Formula::knows(
                    AgentId::new((i.index() + 1) % n),
                    Formula::Eventually(decided()),
                ),
                Formula::EveryoneNonfaulty(Box::new(Formula::Next(decided()))),
                Formula::common_nonfaulty(Formula::Henceforth(decided())),
                Formula::common_t_faulty(Formula::Eventually(decided())),
            ]);
        }
        let mut arena = FormulaArena::new();
        let roots: Vec<NodeId> = formulas.iter().map(|f| arena.intern(f)).collect();
        let plan = QueryPlan::new(&arena, &roots);
        let session = EvalSession::evaluate(sys, &arena, &plan);
        let mut nontrivial = 0;
        for (f, root) in formulas.iter().zip(&roots) {
            let points = session.bitset(*root);
            assert_eq!(points, sys.eval_recursive(f), "{f}");
            nontrivial += usize::from(0 < points.count() && points.count() < sys.point_count());
        }
        nontrivial
    }

    #[test]
    fn knowledge_over_temporal_operands_equals_the_recursive_evaluator() {
        let params = Params::new(3, 1).unwrap();
        let auto = Parallelism::Auto;
        let basic = InterpretedSystem::from_context(Context::basic(params), 4, 1_000_000, auto);
        let fip = InterpretedSystem::from_context(Context::fip(params), 2, 1_000_000, auto);
        let nontrivial = [
            temporal_operands_agree(&sys()),
            temporal_operands_agree(&basic.unwrap()),
            temporal_operands_agree(&fip.unwrap()),
        ];
        assert!(nontrivial.iter().all(|count| *count > 0), "{nontrivial:?}");
    }
}
