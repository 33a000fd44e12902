//! Full records of simulated runs.

use eba_core::exchange::InformationExchange;
use eba_core::failures::FailurePattern;
use eba_core::types::{Action, AgentId, AgentSet, Params, Value};

use crate::metrics::Metrics;

/// The EBA-context class of a message: the paper requires the message sets
/// `M_0` (sent while deciding 0), `M_1` (sent while deciding 1), and `M_2`
/// (everything else) to be disjoint, so receivers can tell whether the
/// sender is deciding. The class is determined by the sender's action in
/// the round the message was sent.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum MsgClass {
    /// The sender performed `decide(v)` in this round (`M_v`).
    Decide(Value),
    /// Any other message (`M_2`).
    Other,
}

impl MsgClass {
    /// Builds the class from the sender's action.
    pub fn of_action(action: Action) -> MsgClass {
        match action.decided_value() {
            Some(v) => MsgClass::Decide(v),
            None => MsgClass::Other,
        }
    }
}

/// A delivered (non-`⊥`) message.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Delivery {
    /// The sender.
    pub from: AgentId,
    /// The receiver.
    pub to: AgentId,
    /// The sender's action class in the sending round.
    pub class: MsgClass,
}

/// A complete record of one simulated run.
#[derive(Clone, Debug)]
pub struct Trace<E: InformationExchange> {
    /// The instance parameters.
    pub params: Params,
    /// The failure pattern the run was executed against.
    pub pattern: FailurePattern,
    /// The initial preferences.
    pub inits: Vec<Value>,
    /// `states[m][i]` — agent `i`'s local state at time `m`
    /// (`0 ..= horizon`).
    pub states: Vec<Vec<E::State>>,
    /// `actions[m][i]` — the action agent `i` performed at time `m`, i.e.
    /// in round `m + 1` (`0 .. horizon`).
    pub actions: Vec<Vec<Action>>,
    /// `deliveries[m]` — the non-`⊥` messages delivered in round `m + 1`.
    pub deliveries: Vec<Vec<Delivery>>,
    /// Aggregate measurements of the run.
    pub metrics: Metrics,
}

impl<E: InformationExchange> Trace<E> {
    /// The number of simulated rounds.
    pub fn horizon(&self) -> u32 {
        self.actions.len() as u32
    }

    /// The set of nonfaulty agents in this run.
    pub fn nonfaulty(&self) -> AgentSet {
        self.pattern.nonfaulty()
    }

    /// The round in which `agent` first decided (`1`-based), if any.
    pub fn decision_round(&self, agent: AgentId) -> Option<u32> {
        self.metrics.decision_rounds[agent.index()]
    }

    /// The value `agent` decided on, if any.
    pub fn decision_value(&self, agent: AgentId) -> Option<Value> {
        self.metrics.decision_values[agent.index()]
    }

    /// Whether every agent (faulty or not) has decided by the end.
    pub fn all_decided(&self) -> bool {
        self.metrics.decision_rounds.iter().all(Option::is_some)
    }

    /// The latest decision round among the given agents, if all decided.
    pub fn max_decision_round(&self, agents: AgentSet) -> Option<u32> {
        agents
            .iter()
            .map(|a| self.decision_round(a))
            .collect::<Option<Vec<_>>>()
            .map(|rs| rs.into_iter().max().unwrap_or(0))
    }

    /// The final state of `agent`.
    pub fn final_state(&self, agent: AgentId) -> &E::State {
        &self.states[self.states.len() - 1][agent.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn msg_class_of_action() {
        assert_eq!(MsgClass::of_action(Action::Noop), MsgClass::Other);
        assert_eq!(
            MsgClass::of_action(Action::Decide(Value::Zero)),
            MsgClass::Decide(Value::Zero)
        );
        assert_eq!(
            MsgClass::of_action(Action::Decide(Value::One)),
            MsgClass::Decide(Value::One)
        );
    }
}
