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

/// The one trajectory-level statement of the EBA specification, as a
/// fold over a run's rounds: feed it every round with
/// [`round`](Self::round), in order, then ask for the
/// [`verdict`](Self::verdict). The clauses are checked in this order and
/// the first violated one is returned:
///
/// 1. **Unique Decision** — no agent performs a second `decide`, and a
///    `decided` component, once set, never changes (agent by agent: an
///    agent's second `decide` before its changed component);
/// 2. **Agreement** — all nonfaulty decisions agree;
/// 3. **Validity**, in its strong form — *every* agent's decision, faulty
///    agents included, matches some initial preference (Prop 6.1 shows
///    the paper's protocols satisfy it);
/// 4. **Termination** — every nonfaulty agent decides within the run.
///
/// An agent's decision is the value of its first `decide` action. The
/// estimator folds each trial's rounds as they are stepped and keeps no
/// trajectory; [`judge_run`] replays a recorded one. `eba-epistemic`'s
/// `check_spec` states the same clauses as formulas and is kept
/// independent of it as the cross-check.
#[derive(Clone, Debug, Default)]
pub struct RunJudge {
    agents: Vec<AgentRecord>,
}

/// What the fold keeps of one agent.
#[derive(Clone, Copy, Debug, Default)]
struct AgentRecord {
    /// The value of its first `decide`.
    decision: Option<Value>,
    /// The round of its second `decide`, if any.
    redecided: Option<u32>,
    /// The first time its `decided` component changed once set, if ever.
    changed: Option<u32>,
}

impl RunJudge {
    /// Starts a run of `n` agents, forgetting the last one (its buffer is
    /// kept).
    pub fn start(&mut self, n: usize) {
        self.agents.clear();
        self.agents.resize(n, AgentRecord::default());
    }

    /// Folds in the 0-based round `m`: the global state at time `m`, the
    /// actions chosen in round `m + 1`, and the state they led to.
    pub fn round<E: InformationExchange>(
        &mut self,
        ex: &E,
        m: u32,
        previous: &[E::State],
        actions: &[Action],
        next: &[E::State],
    ) {
        for (i, record) in self.agents.iter_mut().enumerate() {
            if let Action::Decide(v) = actions[i] {
                match record.decision {
                    Some(_) => {
                        record.redecided.get_or_insert(m + 1);
                    }
                    None => record.decision = Some(v),
                }
            }
            let was = ex.decided(&previous[i]);
            if was.is_some() && ex.decided(&next[i]) != was {
                record.changed.get_or_insert(m + 1);
            }
        }
    }

    /// The first violated clause of the run folded so far, whose
    /// nonfaulty agents are `nonfaulty` and initial preferences `inits`.
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn verdict(&self, nonfaulty: AgentSet, inits: &[Value]) -> Result<(), SpecViolation> {
        for (i, record) in self.agents.iter().enumerate() {
            if let Some(round) = record.redecided.or(record.changed) {
                let agent = AgentId::new(i);
                return Err(SpecViolation::UniqueDecision { agent, round });
            }
        }
        let decision = |a: AgentId| self.agents[a.index()].decision;
        let mut first: Option<(AgentId, Value)> = None;
        for a in nonfaulty.iter() {
            match (first, decision(a)) {
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
        for (i, record) in self.agents.iter().enumerate() {
            if let Some(value) = record.decision {
                if !inits.contains(&value) {
                    return Err(SpecViolation::Validity {
                        agent: AgentId::new(i),
                        value,
                    });
                }
            }
        }
        match nonfaulty.iter().find(|&a| decision(a).is_none()) {
            Some(agent) => Err(SpecViolation::Termination { agent }),
            None => Ok(()),
        }
    }
}

/// Judges a recorded run, over its borrowed parts (an [`EnumRun`] has
/// them; [`check_eba`] passes them): `states` holds one global state per
/// time `0..=horizon` and `actions` one row per round. Replays the run
/// through a [`RunJudge`] and returns its verdict.
///
/// [`check_eba`] and the fuzzer's
/// [`TraceOracle`](crate::fuzz::TraceOracle) judge through this function.
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
    assert_eq!(states.len(), actions.len() + 1, "one state row per time");
    let mut judge = RunJudge::default();
    judge.start(inits.len());
    for (m, (pair, acts)) in states.windows(2).zip(actions).enumerate() {
        judge.round(ex, m as u32, &pair[0], acts, &pair[1]);
    }
    judge.verdict(nonfaulty, inits)
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
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn params() -> Params {
        Params::new(4, 1).unwrap()
    }

    /// The labelled oracle: the clauses of [`RunJudge`] checked agent by
    /// agent over a whole recorded run, as nested loops.
    fn judge_run_oracle<E: InformationExchange>(
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

    /// A hand-built `E_min` trajectory: its nonfaulty set, inits, states
    /// and actions.
    type Trajectory = (AgentSet, Vec<Value>, Vec<Vec<MinState>>, Vec<Vec<Action>>);

    /// A random trajectory from `seed`, of 1–5 agents and 0–5 rounds:
    /// agents decide at random rounds, sometimes twice, and their
    /// `decided` components usually follow the first decision but are
    /// sometimes set without one, changed or cleared.
    fn trajectory(seed: u64) -> Trajectory {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.random_range(1..=5usize);
        let horizon = rng.random_range(0..=5usize);
        let bit = |rng: &mut StdRng| Value::from_bit(rng.random_range(0..2u8));
        let nonfaulty = (0..n)
            .filter(|_| rng.random_bool(0.8))
            .map(AgentId::new)
            .collect();
        let inits: Vec<Value> = (0..n).map(|_| bit(&mut rng)).collect();
        let mut actions = vec![vec![Action::Noop; n]; horizon];
        let mut decided = vec![vec![None; n]; horizon + 1];
        for i in 0..n {
            let mut now = None;
            for m in 0..horizon {
                if rng.random_bool(0.3) {
                    let v = bit(&mut rng);
                    actions[m][i] = Action::Decide(v);
                    now = now.or(Some(v));
                }
                if rng.random_bool(0.08) {
                    now = [None, Some(bit(&mut rng))][rng.random_range(0..2usize)];
                }
                decided[m + 1][i] = now;
            }
        }
        let states = decided
            .iter()
            .enumerate()
            .map(|(time, row)| {
                (0..n)
                    .map(|i| MinState {
                        time: time as u32,
                        init: inits[i],
                        decided: row[i],
                        jd: None,
                    })
                    .collect()
            })
            .collect();
        (nonfaulty, inits, states, actions)
    }

    fn judge_both(seed: u64) -> (Result<(), SpecViolation>, Result<(), SpecViolation>) {
        let (nonfaulty, inits, states, actions) = trajectory(seed);
        let ex = MinExchange::new(Params::new(inits.len(), 0).unwrap());
        (
            judge_run(&ex, nonfaulty, &inits, &states, &actions),
            judge_run_oracle(&ex, nonfaulty, &inits, &states, &actions),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2_000))]

        /// The fold returns exactly the oracle's violation: clause, agent,
        /// round and values.
        #[test]
        fn the_fold_returns_the_oracles_violation(seed in any::<u64>()) {
            let (fold, oracle) = judge_both(seed);
            prop_assert_eq!(fold, oracle, "seed {}", seed);
        }
    }

    #[test]
    fn hand_built_trajectories_reach_every_clause() {
        // What the property above is checked on: each clause as the
        // verdict, both forms of a unique-decision violation, clean runs,
        // and runs breaking several clauses, where order decides.
        let mut seen = [0usize; 7];
        for seed in 0..2_000 {
            let (nonfaulty, inits, states, actions) = trajectory(seed);
            let (fold, oracle) = judge_both(seed);
            assert_eq!(fold, oracle, "seed {seed}");
            let decides = |i: usize| {
                let decides = actions
                    .iter()
                    .filter(|row| matches!(row[i], Action::Decide(_)));
                decides.count()
            };
            let kind = match oracle {
                Ok(()) => 0,
                Err(SpecViolation::UniqueDecision { agent, .. }) if decides(agent.index()) > 1 => 1,
                Err(SpecViolation::UniqueDecision { .. }) => 2,
                Err(SpecViolation::Agreement { .. }) => 3,
                Err(SpecViolation::Validity { .. }) => 4,
                Err(SpecViolation::Termination { .. }) => 5,
                Err(SpecViolation::DecisionBound { .. }) => unreachable!("not a fold clause"),
            };
            seen[kind] += 1;
            let n = inits.len();
            let unique = (0..n).any(|i| decides(i) > 1)
                || states.windows(2).any(|pair| {
                    (0..n).any(|i| {
                        pair[0][i]
                            .decided
                            .is_some_and(|v| pair[1][i].decided != Some(v))
                    })
                });
            let undecided = nonfaulty.iter().any(|a| decides(a.index()) == 0);
            seen[6] += usize::from(unique && undecided);
        }
        assert!(seen.iter().all(|&count| count > 20), "{seen:?}");
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
