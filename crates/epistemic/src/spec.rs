//! The EBA correctness spec as named formulas, checked through the
//! compiled query engine.
//!
//! This is the formula-level statement of the spec, kept independent of
//! `eba-sim`'s trajectory-level judge (the `RunJudge` fold, behind
//! `judge_run` and `check_eba`) so that each cross-checks the other: the
//! two share no code, and the case table of `tests/engines_agree.rs`
//! (`EngineOracle` against the lockstep runner on every row) and the
//! fuzzer's oracle comparison hold them to the same verdicts. Agreement
//! is posed as one clause per ordered nonfaulty pair, strong Validity per
//! agent and value, and bounded Termination per agent — all interned into a single
//! [`FormulaArena`] batch so one [`EvalSession`] answers the whole spec
//! with witnessing `(run, time)` counterexamples. Every engine-produced
//! witness is re-checked through the independent recursive evaluator
//! ([`InterpretedSystem::satisfied_at`], which routes through
//! `eval_recursive`), so downstream consumers (the `--explain` reports,
//! the adversary fuzzer's [`EngineOracle`]) get oracle-confirmed verdicts
//! for free.

use eba_core::context::Context;
use eba_core::corpus::Case;
use eba_core::exchange::InformationExchange;
use eba_core::failures::FailureModel;
use eba_core::protocols::ActionProtocol;
use eba_core::types::{Action, AgentId, EbaError, Value};
use eba_sim::enumerate::EnumRun;
use eba_sim::fuzz::{CaseOracle, CaseOutcome, Violation};
use eba_sim::scenario::Scenario;
use eba_sim::store::RunStore;

use crate::formula::Formula;
use crate::query::{EvalSession, FormulaArena, NodeId, QueryPlan};
use crate::system::InterpretedSystem;

/// Where a spec root is judged: as a validity over every point, or only
/// at the time-0 point of every run (bounded Termination is a claim about
/// whole runs, not about suffixes).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CheckAt {
    /// The formula must hold at every point of the system.
    EveryPoint,
    /// The formula must hold at `(run, 0)` for every run.
    TimeZero,
}

/// One named EBA spec clause.
#[derive(Clone, Debug)]
pub struct SpecProperty {
    /// Human-readable name, e.g. `"Agreement(a0 = 0, a1 = 1)"`.
    pub name: String,
    /// The violated-clause kind as a stable lowercase identifier
    /// (`agreement`, `validity`, `termination`), matching
    /// [`eba_sim::fuzz::Violation::kind`].
    pub kind: &'static str,
    /// The formula itself.
    pub formula: Formula,
    /// Where the formula is judged.
    pub check_at: CheckAt,
}

impl SpecProperty {
    /// The formula whose validity is this clause: the formula itself when
    /// judged at every point, `time = 0 ⇒ formula` when judged at time 0,
    /// whose first falsifying point is `(first failing run, 0)`.
    pub fn as_validity(&self) -> Formula {
        match self.check_at {
            CheckAt::EveryPoint => self.formula.clone(),
            CheckAt::TimeZero => Formula::implies(Formula::TimeIs(0), self.formula.clone()),
        }
    }
}

/// The EBA spec for `n` agents: Agreement over ordered pairs, strong
/// Validity per agent and value, bounded Termination per agent.
pub fn eba_spec_properties(n: usize) -> Vec<SpecProperty> {
    let mut props = Vec::new();
    for i in AgentId::all(n) {
        for j in AgentId::all(n) {
            if i == j {
                continue;
            }
            props.push(SpecProperty {
                name: format!("Agreement({i} = 0, {j} = 1)"),
                kind: "agreement",
                formula: Formula::not(Formula::And(vec![
                    Formula::Nonfaulty(i),
                    Formula::Nonfaulty(j),
                    Formula::DecidedIs(i, Some(Value::Zero)),
                    Formula::DecidedIs(j, Some(Value::One)),
                ])),
                check_at: CheckAt::EveryPoint,
            });
        }
        for v in Value::ALL {
            props.push(SpecProperty {
                name: format!("StrongValidity({i}, {v})"),
                kind: "validity",
                formula: Formula::implies(Formula::DecidedIs(i, Some(v)), Formula::ExistsInit(v)),
                check_at: CheckAt::EveryPoint,
            });
        }
        props.push(SpecProperty {
            name: format!("Termination({i})"),
            kind: "termination",
            formula: Formula::implies(
                Formula::Nonfaulty(i),
                Formula::Eventually(Box::new(Formula::not(Formula::DecidedIs(i, None)))),
            ),
            check_at: CheckAt::TimeZero,
        });
    }
    props
}

/// One failing spec clause with its engine witness and the independent
/// oracle's confirmation of that witness.
#[derive(Clone, Debug)]
pub struct SpecVerdict {
    /// Name of the violated property.
    pub property: String,
    /// The violated-clause kind (`agreement`, `validity`, `termination`).
    pub kind: &'static str,
    /// The witnessing run index.
    pub run: usize,
    /// The witnessing time.
    pub time: u32,
    /// Whether `satisfied_at` (the `eval_recursive` path) confirmed the
    /// witness; `false` means an engine bug and is flagged by callers.
    pub oracle_confirmed: bool,
}

/// Poses the whole EBA spec as one compiled batch over `sys` and returns
/// every failing clause with an oracle-confirmed witness: each clause's
/// [`as_validity`](SpecProperty::as_validity) is a root, and its witness
/// is that root's first falsifying point.
pub fn check_spec<E: InformationExchange>(sys: &InterpretedSystem<E>) -> Vec<SpecVerdict> {
    let props = eba_spec_properties(sys.params().n());
    let mut arena = FormulaArena::new();
    let roots: Vec<NodeId> = (props.iter())
        .map(|p| arena.intern(&p.as_validity()))
        .collect();
    let plan = QueryPlan::new(&arena, &roots);
    let session = EvalSession::evaluate(sys, &arena, &plan);

    let mut verdicts = Vec::new();
    for (prop, root) in props.iter().zip(&roots) {
        let Some((run, time)) = session.verdict(*root).counterexample else {
            continue;
        };
        let oracle_confirmed = !sys.satisfied_at(&prop.formula, run, time);
        debug_assert!(
            oracle_confirmed,
            "{}: engine witness (run {run}, time {time}) not confirmed by the oracle",
            prop.name
        );
        verdicts.push(SpecVerdict {
            property: prop.name.clone(),
            kind: prop.kind,
            run,
            time,
            oracle_confirmed,
        });
    }
    verdicts
}

/// A [`CaseOracle`] backed by the compiled query engine: each fuzz case
/// is simulated once to obtain its trajectory, wrapped into a one-run
/// interpreted system, and judged against the formula spec — an
/// independent checker from the trace predicate the simulator-backed
/// [`TraceOracle`](eba_sim::fuzz::TraceOracle) uses, with every witness
/// confirmed by `eval_recursive`.
pub struct EngineOracle<E, P> {
    ctx: Context<E, P>,
}

impl<E, P> EngineOracle<E, P>
where
    E: InformationExchange + Clone,
    P: ActionProtocol<E>,
{
    /// Wraps a context; cases run under the context's failure model.
    pub fn new(ctx: Context<E, P>) -> Self {
        EngineOracle { ctx }
    }

    /// Builds the one-run interpreted system of a case.
    ///
    /// # Errors
    ///
    /// Propagates simulator and system-construction failures.
    pub fn system(&self, case: &Case) -> Result<InterpretedSystem<E>, EbaError> {
        let trace = Scenario::of(&self.ctx)
            .pattern(case.pattern.clone())
            .inits(&case.inits)
            .horizon(case.horizon)
            .run()?;
        let run = EnumRun {
            nonfaulty: case.pattern.nonfaulty(),
            inits: trace.inits.clone(),
            states: trace.states,
            actions: trace.actions,
        };
        let mut store = RunStore::new(self.ctx.params().n(), case.horizon);
        store.push_run(&run)?;
        InterpretedSystem::from_store(self.ctx.exchange().clone(), store)
    }

    /// Re-checks a case's first violation directly through the
    /// independent recursive evaluator (no engine involved): returns the
    /// confirmed violation, or `None` if the spec holds recursively.
    ///
    /// # Errors
    ///
    /// Propagates simulator and system-construction failures.
    pub fn confirm_recursively(&self, case: &Case) -> Result<Option<Violation>, EbaError> {
        let sys = self.system(case)?;
        for prop in eba_spec_properties(sys.params().n()) {
            let holds = match prop.check_at {
                CheckAt::EveryPoint => {
                    let sat = sys.eval_recursive(&prop.formula);
                    (0..sys.point_count()).all(|p| sat.contains(p))
                }
                CheckAt::TimeZero => sys.satisfied_at(&prop.formula, 0, 0),
            };
            if !holds {
                return Ok(Some(Violation {
                    kind: prop.kind.to_string(),
                    detail: format!("{} refuted by eval_recursive", prop.name),
                }));
            }
        }
        Ok(None)
    }
}

impl<E, P> CaseOracle for EngineOracle<E, P>
where
    E: InformationExchange + Clone,
    P: ActionProtocol<E>,
{
    fn model(&self) -> FailureModel {
        self.ctx.model()
    }

    fn check(&mut self, case: &Case) -> Result<CaseOutcome, EbaError> {
        let sys = self.system(case)?;
        let n = sys.params().n();
        let horizon_point = sys.point(0, sys.horizon());
        let decisions: Vec<Option<Value>> = AgentId::all(n)
            .map(|a| sys.decided_at(horizon_point, a))
            .collect();
        // Decision rounds from the stored actions: the first round whose
        // action is a decide.
        let mut rounds: Vec<Option<u32>> = vec![None; n];
        for m in 0..sys.horizon() {
            let point = sys.point(0, m);
            for (i, round) in rounds.iter_mut().enumerate() {
                if round.is_none()
                    && matches!(
                        sys.action_at(point, AgentId::new(i)),
                        Some(Action::Decide(_))
                    )
                {
                    *round = Some(m + 1);
                }
            }
        }
        let violation = check_spec(&sys).into_iter().next().map(|v| Violation {
            kind: v.kind.to_string(),
            detail: format!(
                "{} fails at (run {}, time {}){}",
                v.property,
                v.run,
                v.time,
                if v.oracle_confirmed {
                    " [oracle-confirmed]"
                } else {
                    " [NOT CONFIRMED by eval_recursive — engine bug?]"
                }
            ),
        });
        Ok(CaseOutcome {
            decisions,
            rounds,
            violation,
        })
    }
}
