//! Views of a run: decision rounds and message/bit accounting.
//!
//! A run is fixed by the context, the failure pattern and the initial
//! preferences (§3), so everything measured here is a function of the
//! recorded [`EnumRun`] and the pattern it ran against — computed after
//! the fact, never accumulated while the run steps.

use eba_core::exchange::{record_decisions, select_round, InformationExchange};
use eba_core::failures::FailurePattern;
use eba_core::types::{AgentId, AgentSet, Value};

use crate::enumerate::EnumRun;

/// The message traffic of a run, the quantities of Prop 8.1.
///
/// Bit counts follow the paper's accounting: a message costs its
/// *logical* size (`InformationExchange::message_bits`), and every
/// non-`⊥` message chosen by `μ` counts as sent to each of the `n`
/// recipients whether or not the failure pattern delivers it (an omitted
/// message was still "sent" by the protocol; the adversary suppressed it).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Non-`⊥` messages handed to the network (including later-dropped).
    pub messages_sent: u64,
    /// Messages actually delivered.
    pub messages_delivered: u64,
    /// Total logical bits across sent messages.
    pub bits_sent: u64,
    /// Total logical bits across delivered messages.
    pub bits_delivered: u64,
}

impl Metrics {
    /// The traffic of `run` under `pattern`, the pattern it ran against:
    /// replays [`select_round`] over the recorded states and actions, so
    /// each non-`⊥` broadcast counts as `n` sends, plus one delivery
    /// wherever `pattern.delivers`.
    pub fn of<E: InformationExchange>(ex: &E, run: &EnumRun<E>, pattern: &FailurePattern) -> Self {
        debug_assert_eq!(pattern.nonfaulty(), run.nonfaulty, "the run's own pattern");
        let n = run.inits.len();
        let (mut metrics, mut outgoing) = (Metrics::default(), Vec::with_capacity(n));
        for (m, (states, actions)) in run.states.iter().zip(&run.actions).enumerate() {
            select_round(ex, states, actions, &mut outgoing);
            for (i, msg) in outgoing.iter().enumerate() {
                let Some(msg) = msg else { continue };
                let bits = ex.message_bits(msg);
                let dropped = pattern.dropped(m as u32, AgentId::new(i));
                let delivered = AgentId::all(n).filter(|&to| !dropped.contains(to)).count() as u64;
                metrics.messages_sent += n as u64;
                metrics.bits_sent += n as u64 * bits;
                metrics.messages_delivered += delivered;
                metrics.bits_delivered += delivered * bits;
            }
        }
        metrics
    }
}

/// The decision views, read off the actions with the kernel's
/// [`record_decisions`] rule: an agent's decision is its first `decide`,
/// dated the round after the one it was chosen in.
impl<E: InformationExchange> EnumRun<E> {
    /// Per-agent first decision rounds (`1`-based) and values.
    pub fn decisions(&self) -> (Vec<Option<u32>>, Vec<Option<Value>>) {
        let n = self.inits.len();
        let (mut rounds, mut values) = (vec![None; n], vec![None; n]);
        for (m, actions) in self.actions.iter().enumerate() {
            record_decisions(m as u32, actions, &mut rounds, &mut values);
        }
        (rounds, values)
    }

    /// The round in which `agent` first decided (`1`-based), if any.
    pub fn decision_round(&self, agent: AgentId) -> Option<u32> {
        self.decisions().0[agent.index()]
    }

    /// The value `agent` first decided on, if any.
    pub fn decision_value(&self, agent: AgentId) -> Option<Value> {
        self.decisions().1[agent.index()]
    }

    /// The latest decision round among `agents` (all of which must have
    /// decided), or `None` if any is undecided.
    pub fn max_decision_round(&self, agents: AgentSet) -> Option<u32> {
        let rounds = self.decisions().0;
        agents
            .iter()
            .try_fold(0, |max, a| Some(max.max(rounds[a.index()]?)))
    }

    /// The mean decision round among `agents` that decided.
    pub fn mean_decision_round(&self, agents: AgentSet) -> Option<f64> {
        let rounds = self.decisions().0;
        let decided: Vec<u32> = agents.iter().filter_map(|a| rounds[a.index()]).collect();
        if decided.is_empty() {
            None
        } else {
            Some(decided.iter().map(|r| *r as f64).sum::<f64>() / decided.len() as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eba_core::prelude::*;

    /// A run whose agents first decide in the given rounds (`None`:
    /// never), each deciding 1; only the actions matter to the views.
    fn deciding_in(rounds: &[Option<u32>]) -> EnumRun<MinExchange> {
        let horizon = rounds.iter().flatten().max().copied().unwrap_or(0);
        let act = |decides: bool| match decides {
            true => Action::Decide(Value::One),
            false => Action::Noop,
        };
        EnumRun {
            nonfaulty: AgentSet::full(rounds.len()),
            inits: vec![Value::One; rounds.len()],
            states: Vec::new(),
            actions: (1..=horizon)
                .map(|r| rounds.iter().map(|d| act(*d == Some(r))).collect())
                .collect(),
        }
    }

    #[test]
    fn max_and_mean_decision_rounds() {
        let run = deciding_in(&[Some(1), Some(3), Some(2)]);
        let all = AgentSet::full(3);
        assert_eq!(run.max_decision_round(all), Some(3));
        assert_eq!(run.mean_decision_round(all), Some(2.0));
        let pair: AgentSet = [0, 2].into_iter().map(AgentId::new).collect();
        assert_eq!(run.max_decision_round(pair), Some(2));
        assert_eq!(run.decision_value(AgentId::new(1)), Some(Value::One));
    }

    #[test]
    fn undecided_agent_blocks_max() {
        let run = deciding_in(&[Some(1), None]);
        assert_eq!(run.max_decision_round(AgentSet::full(2)), None);
        // Mean skips undecided agents instead.
        assert_eq!(run.mean_decision_round(AgentSet::full(2)), Some(1.0));
    }

    #[test]
    fn empty_set_mean_is_none() {
        let run = deciding_in(&[None, None]);
        assert_eq!(run.mean_decision_round(AgentSet::empty()), None);
        // max over the empty set is vacuously 0.
        assert_eq!(run.max_decision_round(AgentSet::empty()), Some(0));
    }
}
