//! The logic of knowledge and (bounded) time used in the paper's
//! specifications and knowledge-based programs.
//!
//! Formulas are evaluated set-wise over an [`InterpretedSystem`]: `eval`
//! returns the set of points satisfying the formula. Temporal operators
//! use *bounded* semantics at the horizon — `◯φ` is false at the last
//! time, `□φ` quantifies within the horizon. Systems are generated with a
//! horizon (`t + 3`) beyond the last possible decision (`t + 2`), and the
//! knowledge-based-program checks only interrogate times where this is
//! sound.

use std::fmt;

use eba_core::exchange::InformationExchange;
use eba_core::types::{AgentId, BitSet, Value};

use crate::query::{EvalSession, FormulaArena, QueryPlan};
use crate::system::{InterpretedSystem, PointId};

/// A formula of the epistemic-temporal logic.
///
/// Propositions are those of EBA contexts (Section 5): initial
/// preferences, decision status, time, membership in the nonfaulty set,
/// plus the derived `jdecided` ("just decided") and `deciding` forms used
/// by the programs `P0`/`P1`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Formula {
    /// Truth.
    True,
    /// `init_i = v`.
    InitIs(AgentId, Value),
    /// `decided_i = v` (`None` is `⊥`).
    DecidedIs(AgentId, Option<Value>),
    /// `time = k` (systems are synchronous, so time is global).
    TimeIs(u32),
    /// `i ∈ N`.
    Nonfaulty(AgentId),
    /// `∃v ≡ ⋁_j init_j = v`.
    ExistsInit(Value),
    /// `jdecided_i = v ≡ decided_i = v ∧ ⊖(decided_i = ⊥)`.
    JustDecided(AgentId, Value),
    /// `deciding_i = v ≡ decided_i = ⊥ ∧ ◯(decided_i = v)`.
    Deciding(AgentId, Value),
    /// Negation.
    Not(Box<Formula>),
    /// Conjunction (empty = true).
    And(Vec<Formula>),
    /// Disjunction (empty = false).
    Or(Vec<Formula>),
    /// `K_i φ`.
    Knows(AgentId, Box<Formula>),
    /// `E_N φ` — everyone in the (indexical) nonfaulty set knows `φ`.
    EveryoneNonfaulty(Box<Formula>),
    /// `C_N φ` — common knowledge among the nonfaulty.
    CommonNonfaulty(Box<Formula>),
    /// `◯φ` (false at the horizon).
    Next(Box<Formula>),
    /// `⊖φ` (false at time 0).
    Prev(Box<Formula>),
    /// `□φ` — at all times `≥` now, within the horizon.
    Henceforth(Box<Formula>),
    /// `♦φ` — at some time `≥` now, within the horizon.
    Eventually(Box<Formula>),
}

impl Formula {
    /// `¬φ`.
    #[allow(clippy::should_implement_trait)] // DSL constructor, deliberately named like the paper's ¬
    #[must_use]
    pub fn not(f: Formula) -> Formula {
        Formula::Not(Box::new(f))
    }

    /// `φ ⇒ ψ`.
    #[must_use]
    pub fn implies(f: Formula, g: Formula) -> Formula {
        Formula::Or(vec![Formula::not(f), g])
    }

    /// `K_i φ`.
    #[must_use]
    pub fn knows(agent: AgentId, f: Formula) -> Formula {
        Formula::Knows(agent, Box::new(f))
    }

    /// `C_N φ`.
    #[must_use]
    pub fn common_nonfaulty(f: Formula) -> Formula {
        Formula::CommonNonfaulty(Box::new(f))
    }

    /// `⋁_{j ∈ Agt} jdecided_j = v`.
    #[must_use]
    pub fn someone_just_decided(n: usize, v: Value) -> Formula {
        Formula::Or(
            AgentId::all(n)
                .map(|j| Formula::JustDecided(j, v))
                .collect(),
        )
    }

    /// `⋀_{j ∈ Agt} ¬(deciding_j = v)`.
    #[must_use]
    pub fn nobody_deciding(n: usize, v: Value) -> Formula {
        Formula::And(
            AgentId::all(n)
                .map(|j| Formula::not(Formula::Deciding(j, v)))
                .collect(),
        )
    }

    /// `no-decided_N(v) ≡ ⋀_j (j ∈ N ⇒ ¬(decided_j = v))`.
    #[must_use]
    pub fn no_nonfaulty_decided(n: usize, v: Value) -> Formula {
        Formula::And(
            AgentId::all(n)
                .map(|j| {
                    Formula::implies(
                        Formula::Nonfaulty(j),
                        Formula::not(Formula::DecidedIs(j, Some(v))),
                    )
                })
                .collect(),
        )
    }
}

/// The paper's notation, e.g. `K_a0(¬(deciding_a1 = 0) ∧ a2 ∈ N)`. A
/// nested `∧`/`∨` is bracketed, and so is the operand of `¬`, `◯`, `⊖`,
/// `□` or `♦` unless it is `true`, `∃v`, or a `¬` or `K_i` form.
impl fmt::Display for Formula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use Formula::*;
        let (op, g) = match self {
            True => return f.write_str("true"),
            InitIs(i, v) => return write!(f, "init_{i} = {v}"),
            DecidedIs(i, None) => return write!(f, "decided_{i} = ⊥"),
            DecidedIs(i, Some(v)) => return write!(f, "decided_{i} = {v}"),
            TimeIs(k) => return write!(f, "time = {k}"),
            Nonfaulty(i) => return write!(f, "{i} ∈ N"),
            ExistsInit(v) => return write!(f, "∃{v}"),
            JustDecided(i, v) => return write!(f, "jdecided_{i} = {v}"),
            Deciding(i, v) => return write!(f, "deciding_{i} = {v}"),
            And(gs) if gs.is_empty() => return f.write_str("true"),
            Or(gs) if gs.is_empty() => return f.write_str("false"),
            And(gs) | Or(gs) => {
                let op = if let And(_) = self { " ∧ " } else { " ∨ " };
                for (k, g) in gs.iter().enumerate() {
                    let sep = if k == 0 { "" } else { op };
                    match g {
                        And(hs) | Or(hs) if !hs.is_empty() => write!(f, "{sep}({g})")?,
                        _ => write!(f, "{sep}{g}")?,
                    }
                }
                return Ok(());
            }
            Knows(i, g) => return write!(f, "K_{i}({g})"),
            EveryoneNonfaulty(g) => return write!(f, "E_N({g})"),
            CommonNonfaulty(g) => return write!(f, "C_N({g})"),
            Not(g) => ("¬", g),
            Next(g) => ("◯", g),
            Prev(g) => ("⊖", g),
            Henceforth(g) => ("□", g),
            Eventually(g) => ("♦", g),
        };
        let bare = matches!(**g, True | ExistsInit(_) | Not(_) | Knows(..));
        let (open, close) = if bare { ("", "") } else { ("(", ")") };
        write!(f, "{op}{open}{g}{close}")
    }
}

impl<E: InformationExchange> InterpretedSystem<E> {
    /// Evaluates a formula over all points of the system, through the
    /// compiled query engine: the formula is interned into a one-root
    /// [`FormulaArena`], planned, and executed by an [`EvalSession`] —
    /// so even a single `eval` call deduplicates its own repeated
    /// subformulas. For families of related formulas, batch them with
    /// [`InterpretedSystem::query_batch`] (or an explicit
    /// [`QueryPlan`]) instead of calling `eval` per formula.
    ///
    /// The result is bit-for-bit identical to the pre-engine recursion,
    /// which survives as [`InterpretedSystem::eval_recursive`] and is
    /// compared against this wrapper across stacks × failure models ×
    /// horizons in `tests/query_engine_equivalence.rs`.
    pub fn eval(&self, f: &Formula) -> BitSet {
        let mut arena = FormulaArena::new();
        let root = arena.intern(f);
        let plan = QueryPlan::new(&arena, &[root]);
        EvalSession::evaluate(self, &arena, &plan).into_bitset(root)
    }

    /// The legacy recursive evaluator: a direct structural recursion
    /// over the formula tree, re-evaluating every occurrence of every
    /// subformula.
    ///
    /// Kept as the **independent oracle** the compiled engine is
    /// verified against (it shares no scheduling or interning machinery
    /// with [`EvalSession`]); [`InterpretedSystem::satisfied_at`] also
    /// routes through it so counterexample re-checks do not trust the
    /// engine that produced the witness. Propositions resolve through
    /// the interned [`RunStore`](eba_sim::store::RunStore): run-level
    /// facts (inits, nonfaulty membership) fill whole runs at a time,
    /// and state-level facts (`decided`) are looked up by `StateId` per
    /// point in the table [`InterpretedSystem::decided_table`] computes
    /// once per **distinct** state at construction.
    pub fn eval_recursive(&self, f: &Formula) -> BitSet {
        let count = self.point_count();
        match f {
            Formula::True => {
                let mut s = BitSet::new(count);
                s.fill();
                s
            }
            Formula::InitIs(i, v) => self.points_where_run(|r| self.inits(r)[i.index()] == *v),
            Formula::DecidedIs(i, v) => {
                let decided = self.decided_table();
                self.points_by(|pid| decided[self.state_id(pid, *i).index()] == *v)
            }
            Formula::TimeIs(k) => self.points_by(|pid| self.time_of(pid) == *k),
            Formula::Nonfaulty(i) => self.points_where_run(|r| self.nonfaulty(r).contains(*i)),
            Formula::ExistsInit(v) => self.points_where_run(|r| self.inits(r).contains(v)),
            Formula::JustDecided(i, v) => {
                let decided = self.decided_table();
                self.points_by(|pid| {
                    let m = self.time_of(pid);
                    m > 0
                        && decided[self.state_id(pid, *i).index()] == Some(*v)
                        && decided[self.state_id(pid - 1, *i).index()].is_none()
                })
            }
            Formula::Deciding(i, v) => {
                let decided = self.decided_table();
                self.points_by(|pid| {
                    let m = self.time_of(pid);
                    m < self.horizon()
                        && decided[self.state_id(pid, *i).index()].is_none()
                        && decided[self.state_id(pid + 1, *i).index()] == Some(*v)
                })
            }
            Formula::Not(g) => {
                let mut s = self.eval_recursive(g);
                s.invert();
                s
            }
            Formula::And(gs) => {
                let mut s = BitSet::new(count);
                s.fill();
                for g in gs {
                    s.intersect_with(&self.eval_recursive(g));
                }
                s
            }
            Formula::Or(gs) => {
                let mut s = BitSet::new(count);
                for g in gs {
                    s.union_with(&self.eval_recursive(g));
                }
                s
            }
            Formula::Knows(i, g) => self.knows_set(*i, &self.eval_recursive(g)),
            Formula::EveryoneNonfaulty(g) => self.everyone_nonfaulty_set(&self.eval_recursive(g)),
            Formula::CommonNonfaulty(g) => self.common_nonfaulty_set(&self.eval_recursive(g)),
            Formula::Next(g) => {
                let inner = self.eval_recursive(g);
                self.points_by(|pid| {
                    self.time_of(pid) < self.horizon() && inner.contains(pid as usize + 1)
                })
            }
            Formula::Prev(g) => {
                let inner = self.eval_recursive(g);
                self.points_by(|pid| self.time_of(pid) > 0 && inner.contains(pid as usize - 1))
            }
            Formula::Henceforth(g) => {
                let inner = self.eval_recursive(g);
                self.points_by(|pid| {
                    let run = self.run_of(pid);
                    (self.time_of(pid)..=self.horizon())
                        .all(|m| inner.contains(self.point(run, m) as usize))
                })
            }
            Formula::Eventually(g) => {
                let inner = self.eval_recursive(g);
                self.points_by(|pid| {
                    let run = self.run_of(pid);
                    (self.time_of(pid)..=self.horizon())
                        .any(|m| inner.contains(self.point(run, m) as usize))
                })
            }
        }
    }

    /// Whether the formula holds at the point `(run, time)`, evaluated
    /// by the **legacy recursion** — deliberately not the engine, so a
    /// [`Verdict`](crate::query::Verdict) counterexample can be
    /// re-checked through an independent code path.
    pub fn satisfied_at(&self, f: &Formula, run: usize, time: u32) -> bool {
        self.eval_recursive(f)
            .contains(self.point(run, time) as usize)
    }

    /// Whether the formula is valid (holds at every point) in the
    /// system — the boolean half of [`InterpretedSystem::query`].
    pub fn valid(&self, f: &Formula) -> bool {
        self.query(f).holds
    }

    /// Fills every point of every run satisfying the run-level predicate
    /// (points of a run are contiguous, so whole runs fill at once).
    pub(crate) fn points_where_run(&self, pred: impl Fn(usize) -> bool) -> BitSet {
        let mut s = BitSet::new(self.point_count());
        let per_run = self.horizon() as usize + 1;
        for r in 0..self.run_count() {
            if pred(r) {
                for pid in r * per_run..(r + 1) * per_run {
                    s.insert(pid);
                }
            }
        }
        s
    }

    pub(crate) fn points_by(&self, pred: impl Fn(PointId) -> bool) -> BitSet {
        let mut s = BitSet::new(self.point_count());
        for pid in 0..self.point_count() {
            if pred(pid as PointId) {
                s.insert(pid);
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn a(i: usize) -> AgentId {
        AgentId::new(i)
    }

    #[test]
    fn propositional_connectives() {
        let s = sys();
        let f = Formula::InitIs(a(0), Value::Zero);
        let not_f = Formula::not(f.clone());
        let mut both = s.eval(&f);
        both.intersect_with(&s.eval(&not_f));
        assert!(both.is_empty());
        let mut either = s.eval(&f);
        either.union_with(&s.eval(&not_f));
        assert_eq!(either.count(), s.point_count());
        assert!(s.valid(&Formula::implies(f.clone(), f)));
    }

    #[test]
    fn exists_init_matches_disjunction() {
        let s = sys();
        let exists = s.eval(&Formula::ExistsInit(Value::Zero));
        let disj = s.eval(&Formula::Or(
            (0..3).map(|i| Formula::InitIs(a(i), Value::Zero)).collect(),
        ));
        assert_eq!(exists, disj);
    }

    #[test]
    fn knowledge_axioms_hold() {
        let s = sys();
        let phi = Formula::ExistsInit(Value::Zero);
        // T: K_i φ ⇒ φ.
        assert!(s.valid(&Formula::implies(
            Formula::knows(a(1), phi.clone()),
            phi.clone()
        )));
        // 4 (positive introspection): K_i φ ⇒ K_i K_i φ.
        assert!(s.valid(&Formula::implies(
            Formula::knows(a(1), phi.clone()),
            Formula::knows(a(1), Formula::knows(a(1), phi.clone()))
        )));
        // 5 (negative introspection): ¬K_i φ ⇒ K_i ¬K_i φ.
        assert!(s.valid(&Formula::implies(
            Formula::not(Formula::knows(a(1), phi.clone())),
            Formula::knows(a(1), Formula::not(Formula::knows(a(1), phi)))
        )));
    }

    #[test]
    fn common_knowledge_fixpoint_property() {
        // C_N φ ⇒ E_N(φ ∧ C_N φ).
        let s = sys();
        let phi = Formula::ExistsInit(Value::One);
        let c = Formula::common_nonfaulty(phi.clone());
        let unfold =
            Formula::EveryoneNonfaulty(Box::new(Formula::And(vec![phi.clone(), c.clone()])));
        assert!(s.valid(&Formula::implies(c, unfold)));
    }

    #[test]
    fn just_decided_and_deciding_are_consistent() {
        let s = sys();
        // deciding_i = v at m ⟺ jdecided_i = v at m+1: check via ◯.
        let f = Formula::implies(
            Formula::Deciding(a(0), Value::One),
            Formula::Next(Box::new(Formula::JustDecided(a(0), Value::One))),
        );
        assert!(s.valid(&f));
        // jdecided never holds at time 0.
        let g = Formula::implies(
            Formula::TimeIs(0),
            Formula::not(Formula::JustDecided(a(0), Value::One)),
        );
        assert!(s.valid(&g));
    }

    #[test]
    fn temporal_duality() {
        let s = sys();
        let phi = Formula::DecidedIs(a(2), Some(Value::One));
        // □φ ⟺ ¬♦¬φ.
        let lhs = s.eval(&Formula::Henceforth(Box::new(phi.clone())));
        let rhs = s.eval(&Formula::not(Formula::Eventually(Box::new(Formula::not(
            phi,
        )))));
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn decisions_are_stable_once_made() {
        // Unique decision as a temporal validity: decided_i = v ⇒ □(decided_i = v).
        let s = sys();
        for i in 0..3 {
            for v in Value::ALL {
                let f = Formula::implies(
                    Formula::DecidedIs(a(i), Some(v)),
                    Formula::Henceforth(Box::new(Formula::DecidedIs(a(i), Some(v)))),
                );
                assert!(s.valid(&f), "agent {i} value {v}");
            }
        }
    }

    #[test]
    fn eba_spec_as_formulas() {
        // Agreement and Termination of Section 5 expressed in the logic and
        // model-checked over the full P_min system.
        let s = sys();
        for i in 0..3 {
            for j in 0..3 {
                let agree = Formula::not(Formula::And(vec![
                    Formula::Nonfaulty(a(i)),
                    Formula::Nonfaulty(a(j)),
                    Formula::DecidedIs(a(i), Some(Value::Zero)),
                    Formula::DecidedIs(a(j), Some(Value::One)),
                ]));
                assert!(s.valid(&agree), "agreement {i},{j}");
            }
            let terminate = Formula::implies(
                Formula::Nonfaulty(a(i)),
                Formula::Eventually(Box::new(Formula::not(Formula::DecidedIs(a(i), None)))),
            );
            // Termination within the horizon holds at time 0 of every run.
            let set = s.eval(&terminate);
            for r in 0..s.run_count() {
                assert!(set.contains(s.point(r, 0) as usize), "termination {i}");
            }
            let validity = Formula::implies(
                Formula::And(vec![
                    Formula::Nonfaulty(a(i)),
                    Formula::DecidedIs(a(i), Some(Value::Zero)),
                ]),
                Formula::ExistsInit(Value::Zero),
            );
            assert!(s.valid(&validity), "validity {i}");
        }
    }
}
