//! `P_opt`: the polynomial-time optimal action protocol for the
//! full-information context `γ_fip,n,t` (Prop 7.9, Corollary 7.8).

use crate::exchange::{FipExchange, FipState};
use crate::graph::FipAnalysis;
use crate::types::{Action, AgentId, Params};

use super::ActionProtocol;

/// The `P_opt` program of Appendix A.2.7:
///
/// ```text
/// if decided ≠ ⊥        then noop
/// else if common_0      then decide(0)
/// else if common_1      then decide(1)
/// else if cond_0        then decide(0)
/// else if cond_1        then decide(1)
/// else noop
/// ```
///
/// All four tests are computed from the agent's communication graph in
/// polynomial time by [`FipAnalysis`]. `P_opt` implements the
/// knowledge-based program `P1` in `γ_fip,n,t` (Theorem A.21) and is
/// therefore optimal with respect to the full-information exchange
/// (Corollary 7.8) — this settles the open problem of Halpern, Moses &
/// Waarts (2001).
///
/// ```
/// use eba_core::prelude::*;
/// use eba_core::protocols::ActionProtocol;
///
/// # fn main() -> Result<(), EbaError> {
/// let params = Params::new(3, 1)?;
/// let ex = FipExchange::new(params);
/// let p = POpt::new(params);
/// // At time 0, an agent with initial preference 0 decides immediately.
/// let s = ex.initial_state(AgentId::new(0), Value::Zero);
/// assert_eq!(p.act(AgentId::new(0), &s), Action::Decide(Value::Zero));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy, Debug)]
pub struct POpt {
    params: Params,
    use_ck: bool,
}

impl POpt {
    /// Creates `P_opt` for the given parameters.
    pub fn new(params: Params) -> Self {
        POpt {
            params,
            use_ck: true,
        }
    }

    /// The ablated variant with the common-knowledge rules of `P1`
    /// disabled — effectively `P0` computed over full information. Used by
    /// the E4 ablation to quantify what the common-knowledge rules buy
    /// (Example 7.1: round 3 instead of round t + 2).
    pub fn without_common_knowledge(params: Params) -> Self {
        POpt {
            params,
            use_ck: false,
        }
    }
}

impl ActionProtocol<FipExchange> for POpt {
    fn name(&self) -> &'static str {
        if self.use_ck {
            "P_opt"
        } else {
            "P_opt∖CK"
        }
    }

    fn act(&self, agent: AgentId, state: &FipState) -> Action {
        if state.decided.is_some() {
            return Action::Noop;
        }
        let analysis = FipAnalysis::analyze_variant(&state.graph, self.params, agent, self.use_ck);
        // The cached `decided` flag must agree with the decision
        // re-simulated from the graph (the graph determines everything).
        debug_assert_eq!(
            analysis.owner_decision(),
            None,
            "state.decided = ⊥ but the graph says the owner already decided"
        );
        analysis.owner_action()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exchange::test_support::step;
    use crate::exchange::{FipExchange, InformationExchange};
    use crate::types::Value;

    fn a(i: usize) -> AgentId {
        AgentId::new(i)
    }

    /// Drives `(E_fip, P_opt)` for `rounds` rounds with full delivery,
    /// returning (decision value, decision round) per agent.
    fn run_failure_free(params: Params, inits: &[Value], rounds: u32) -> Vec<Option<(Value, u32)>> {
        let ex = FipExchange::new(params);
        let p = POpt::new(params);
        let n = params.n();
        let mut states: Vec<FipState> = (0..n).map(|i| ex.initial_state(a(i), inits[i])).collect();
        let mut decisions = vec![None; n];
        for round in 1..=rounds {
            let actions: Vec<Action> = (0..n).map(|i| p.act(a(i), &states[i])).collect();
            for (i, act) in actions.iter().enumerate() {
                if let Action::Decide(v) = act {
                    decisions[i].get_or_insert((*v, round));
                }
            }
            states = step(&ex, &states, &actions, |_, _| true);
        }
        decisions
    }

    #[test]
    fn all_ones_failure_free_round_two() {
        let params = Params::new(4, 2).unwrap();
        let d = run_failure_free(params, &[Value::One; 4], 3);
        assert!(d.iter().all(|x| *x == Some((Value::One, 2))));
    }

    #[test]
    fn zero_preference_decides_round_one_rest_round_two() {
        let params = Params::new(4, 2).unwrap();
        let inits = [Value::One, Value::Zero, Value::One, Value::One];
        let d = run_failure_free(params, &inits, 3);
        assert_eq!(d[1], Some((Value::Zero, 1)));
        for i in [0, 2, 3] {
            assert_eq!(d[i], Some((Value::Zero, 2)), "agent {i}");
        }
    }

    #[test]
    fn decided_agents_noop() {
        let params = Params::new(3, 1).unwrap();
        let ex = FipExchange::new(params);
        let p = POpt::new(params);
        let mut s = ex.initial_state(a(0), Value::Zero);
        s.decided = Some(Value::Zero);
        // Re-simulation is skipped entirely for decided agents.
        assert_eq!(p.act(a(0), &s), Action::Noop);
    }
}
