//! The EBA specification of Section 5, checked on runs.

use std::fmt;

use eba_core::exchange::InformationExchange;
use eba_core::types::{Action, AgentId, AgentSet, Value};

use crate::enumerate::EnumRun;

/// A violation of one of the EBA properties.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SpecViolation {
    /// An agent decided twice (or its recorded decision changed).
    UniqueDecision {
        /// The offending agent.
        agent: AgentId,
        /// The round of the second decision.
        round: u32,
    },
    /// Two nonfaulty agents decided on different values.
    Agreement {
        /// One nonfaulty agent and its value.
        first: (AgentId, Value),
        /// Another nonfaulty agent and its conflicting value.
        second: (AgentId, Value),
    },
    /// An agent (faulty or not) decided a value nobody started with.
    Validity {
        /// The offending agent.
        agent: AgentId,
        /// The decided value.
        value: Value,
    },
    /// A nonfaulty agent never decided within the run.
    Termination {
        /// The undecided agent.
        agent: AgentId,
    },
    /// An agent decided later than a required bound.
    DecisionBound {
        /// The offending agent.
        agent: AgentId,
        /// The round it decided in.
        round: u32,
        /// The required bound.
        bound: u32,
    },
}

impl fmt::Display for SpecViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecViolation::UniqueDecision { agent, round } => {
                write!(
                    f,
                    "unique decision violated: {agent} re-decided in round {round}"
                )
            }
            SpecViolation::Agreement { first, second } => write!(
                f,
                "agreement violated: nonfaulty {} decided {} but nonfaulty {} decided {}",
                first.0, first.1, second.0, second.1
            ),
            SpecViolation::Validity { agent, value } => write!(
                f,
                "validity violated: {agent} decided {value} but no agent started with it"
            ),
            SpecViolation::Termination { agent } => {
                write!(f, "termination violated: nonfaulty {agent} never decided")
            }
            SpecViolation::DecisionBound {
                agent,
                round,
                bound,
            } => write!(
                f,
                "decision bound violated: {agent} decided in round {round} > {bound}"
            ),
        }
    }
}

impl std::error::Error for SpecViolation {}

/// The one trajectory-level statement of the EBA specification, over the
/// borrowed parts of a run (an [`EnumRun`] has them; [`check_eba`]
/// passes them). The clauses
/// are checked in this order and the first violated one is returned:
///
/// 1. **Unique Decision** — no agent performs a second `decide`, and a
///    `decided` component, once set, never changes;
/// 2. **Agreement** — all nonfaulty decisions agree;
/// 3. **Validity**, in its strong form — *every* agent's decision, faulty
///    agents included, matches some initial preference (Prop 6.1 shows
///    the paper's protocols satisfy it);
/// 4. **Termination** — every nonfaulty agent decides within the run.
///
/// An agent's decision is the value of its first `decide` action.
/// [`check_eba`], the estimator's `judge_case` and the fuzzer's
/// [`TraceOracle`](crate::fuzz::TraceOracle) all judge through this
/// function; `eba-epistemic`'s `check_spec` states the same clauses as
/// formulas and is kept independent of it as the cross-check.
///
/// # Errors
///
/// Returns the first violation found.
pub fn judge_run<E: InformationExchange>(
    ex: &E,
    nonfaulty: AgentSet,
    inits: &[Value],
    states: &[Vec<E::State>],
    actions: &[Vec<Action>],
) -> Result<(), SpecViolation> {
    let mut decisions: Vec<Option<Value>> = vec![None; inits.len()];
    for (i, decision) in decisions.iter_mut().enumerate() {
        let agent = AgentId::new(i);
        for (m, acts) in actions.iter().enumerate() {
            if let Action::Decide(v) = acts[i] {
                if decision.is_some() {
                    return Err(SpecViolation::UniqueDecision {
                        agent,
                        round: m as u32 + 1,
                    });
                }
                *decision = Some(v);
            }
        }
        let mut prev: Option<Value> = None;
        for (m, round) in states.iter().enumerate() {
            let now = ex.decided(&round[i]);
            if prev.is_some() && now != prev {
                return Err(SpecViolation::UniqueDecision {
                    agent,
                    round: m as u32,
                });
            }
            prev = now;
        }
    }
    let mut first: Option<(AgentId, Value)> = None;
    for a in nonfaulty.iter() {
        match (first, decisions[a.index()]) {
            (None, Some(v)) => first = Some((a, v)),
            (Some((fa, fv)), Some(v)) if fv != v => {
                return Err(SpecViolation::Agreement {
                    first: (fa, fv),
                    second: (a, v),
                });
            }
            _ => {}
        }
    }
    for (i, decision) in decisions.iter().enumerate() {
        if let Some(value) = *decision {
            if !inits.contains(&value) {
                return Err(SpecViolation::Validity {
                    agent: AgentId::new(i),
                    value,
                });
            }
        }
    }
    for a in nonfaulty.iter() {
        if decisions[a.index()].is_none() {
            return Err(SpecViolation::Termination { agent: a });
        }
    }
    Ok(())
}

/// Checks the EBA specification on a run: [`judge_run`] over the run's
/// nonfaulty set, initial preferences, states and actions.
///
/// # Errors
///
/// Returns the first violation found.
pub fn check_eba<E: InformationExchange>(ex: &E, run: &EnumRun<E>) -> Result<(), SpecViolation> {
    judge_run(ex, run.nonfaulty, &run.inits, &run.states, &run.actions)
}

/// Checks that every agent (faulty included — Prop 6.1 covers them)
/// decides by round `bound`, typically `t + 2`.
///
/// # Errors
///
/// Returns [`SpecViolation::DecisionBound`] or
/// [`SpecViolation::Termination`] on failure.
pub fn check_decides_by<E: InformationExchange>(
    run: &EnumRun<E>,
    bound: u32,
) -> Result<(), SpecViolation> {
    for (i, round) in run.decisions().0.into_iter().enumerate() {
        let agent = AgentId::new(i);
        match round {
            None => return Err(SpecViolation::Termination { agent }),
            Some(round) if round > bound => {
                return Err(SpecViolation::DecisionBound {
                    agent,
                    round,
                    bound,
                });
            }
            _ => {}
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;
    use eba_core::prelude::*;

    fn params() -> Params {
        Params::new(4, 1).unwrap()
    }

    #[test]
    fn failure_free_runs_satisfy_eba() {
        let ctx = Context::basic(params());
        for bits in 0..16u32 {
            let inits: Vec<Value> = (0..4)
                .map(|i| Value::from_bit(((bits >> i) & 1) as u8))
                .collect();
            let run = Scenario::of(&ctx).inits(&inits).run().unwrap();
            check_eba(ctx.exchange(), &run).unwrap();
            check_decides_by(&run, 3).unwrap();
        }
    }

    #[test]
    fn naive_protocol_violates_agreement_under_omissions() {
        // The introduction's r' run, at n = 3, t = 1: agent 0 is faulty
        // with init 0, silent except for one message to agent 2 in round 2.
        let p3 = Params::new(3, 1).unwrap();
        let ctx = Context::naive(p3);
        let faulty = AgentSet::singleton(AgentId::new(0));
        let mut pat = FailurePattern::new(p3, faulty.complement(3)).unwrap();
        pat.silence_agent(AgentId::new(0), 0..1, true).unwrap();
        // Round 2 (m = 1): deliver only to agent 2.
        pat.drop_message(1, AgentId::new(0), AgentId::new(0))
            .unwrap();
        pat.drop_message(1, AgentId::new(0), AgentId::new(1))
            .unwrap();
        pat.silence_agent(AgentId::new(0), 2..4, true).unwrap();
        let inits = [Value::Zero, Value::One, Value::One];
        let run = Scenario::of(&ctx).pattern(pat).inits(&inits).run().unwrap();
        let err = check_eba(ctx.exchange(), &run).unwrap_err();
        assert!(matches!(err, SpecViolation::Agreement { .. }), "got {err}");
    }

    #[test]
    fn termination_violation_detected() {
        // P_min with a horizon too short to reach the deadline round.
        let ctx = Context::minimal(params());
        let run = Scenario::of(&ctx)
            .inits(&[Value::One; 4])
            .horizon(1)
            .run()
            .unwrap();
        let err = check_eba(ctx.exchange(), &run).unwrap_err();
        assert!(matches!(err, SpecViolation::Termination { .. }));
    }

    #[test]
    fn decision_bound_violation_detected() {
        let ctx = Context::minimal(params());
        let run = Scenario::of(&ctx).inits(&[Value::One; 4]).run().unwrap();
        // Everyone decides in round t + 2 = 3; a bound of 2 must fail.
        let err = check_decides_by(&run, 2).unwrap_err();
        assert!(matches!(err, SpecViolation::DecisionBound { .. }));
    }

    #[test]
    fn violations_display_readably() {
        let v = SpecViolation::Agreement {
            first: (AgentId::new(0), Value::Zero),
            second: (AgentId::new(1), Value::One),
        };
        let s = v.to_string();
        assert!(s.contains("agreement"));
        assert!(s.contains("a0") && s.contains("a1"));
    }
}
