//! The full-information exchange `E_fip(n)` of Section 7 / Appendix A.2.7.
//!
//! Every agent sends its entire communication graph to every agent in
//! every round, regardless of the action being performed, and merges the
//! graphs it receives. The graph is a compact (`O(n² t)`-bit) encoding of
//! the agent's complete view, following Moses & Tuttle.

use std::borrow::Borrow;
use std::fmt;

use crate::graph::CommGraph;
use crate::types::{Action, AgentId, Params, Value};

use super::InformationExchange;

/// The full-information exchange `E_fip(n)`.
///
/// ```
/// use eba_core::prelude::*;
///
/// # fn main() -> Result<(), EbaError> {
/// let ex = FipExchange::new(Params::new(3, 1)?);
/// let s = ex.initial_state(AgentId::new(0), Value::One);
/// // A full-information agent broadcasts its graph even on a noop:
/// let mut out = None;
/// ex.broadcast(AgentId::new(0), &s, Action::Noop, &mut out);
/// assert_eq!(out, Some(FipMsg(s.graph.clone())));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy, Debug)]
pub struct FipExchange {
    params: Params,
}

impl FipExchange {
    /// Creates the full-information exchange for the given parameters.
    pub fn new(params: Params) -> Self {
        FipExchange { params }
    }
}

/// A local state `⟨time, init, decided, G_{i,time}⟩` of `E_fip`.
///
/// The paper's optimality analysis (Section 7) notes that `decided` is
/// redundant under a full-information protocol — it is a deterministic
/// function of the graph — so keeping it does not refine the
/// indistinguishability relation; it is a cache.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct FipState {
    /// The current time.
    pub time: u32,
    /// The agent's initial preference.
    pub init: Value,
    /// The decision taken, if any (derivable from `graph`).
    pub decided: Option<Value>,
    /// The agent's communication graph `G_{i,time}`.
    pub graph: CommGraph,
}

impl fmt::Display for FipState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "⟨{}, {}, {}, G⟩",
            self.time,
            self.init,
            self.decided.map_or("⊥".into(), |v| v.to_string()),
        )
    }
}

/// A message of `E_fip`: the sender's entire communication graph.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct FipMsg(pub CommGraph);

/// `δ` merges the received messages as the graphs they are.
impl Borrow<CommGraph> for FipMsg {
    fn borrow(&self) -> &CommGraph {
        &self.0
    }
}

impl InformationExchange for FipExchange {
    type State = FipState;
    type Message = FipMsg;

    fn name(&self) -> &'static str {
        "E_fip"
    }

    fn params(&self) -> Params {
        self.params
    }

    fn initial_state(&self, agent: AgentId, init: Value) -> FipState {
        FipState {
            time: 0,
            init,
            decided: None,
            graph: CommGraph::initial(self.params.n(), agent, init),
        }
    }

    fn broadcast(&self, _: AgentId, state: &FipState, _: Action, out: &mut Option<FipMsg>) {
        // μ_ij(s, a) = G_{i, time_i} for every action a, copied into the
        // slot's own words.
        match out {
            Some(FipMsg(graph)) => graph.clone_from(&state.graph),
            None => *out = Some(FipMsg(state.graph.clone())),
        }
    }

    fn update(
        &self,
        agent: AgentId,
        state: &FipState,
        action: Action,
        received: &[Option<&FipMsg>],
        next: &mut FipState,
    ) {
        debug_assert_eq!(received.len(), self.params.n());
        next.time = state.time + 1;
        next.init = state.init;
        next.decided = action.decided_value().or(state.decided);
        state.graph.receive_round(agent, received, &mut next.graph);
    }

    fn time(&self, state: &FipState) -> u32 {
        state.time
    }

    fn init(&self, state: &FipState) -> Value {
        state.init
    }

    fn decided(&self, state: &FipState) -> Option<Value> {
        state.decided
    }

    fn message_bits(&self, msg: &FipMsg) -> u64 {
        msg.0.size_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::step;
    use super::*;
    use crate::graph::{EdgeLabel, PrefLabel};

    fn ex() -> FipExchange {
        FipExchange::new(Params::new(3, 1).unwrap())
    }

    fn a(i: usize) -> AgentId {
        AgentId::new(i)
    }

    #[test]
    fn initial_state_has_empty_graph() {
        let s = ex().initial_state(a(1), Value::Zero);
        assert_eq!(s.time, 0);
        assert_eq!(s.graph.time(), 0);
        assert_eq!(s.graph.pref(a(1)), PrefLabel::Known(Value::Zero));
    }

    #[test]
    fn update_merges_graphs_and_advances_time() {
        let e = ex();
        let states: Vec<_> = (0..3)
            .map(|i| e.initial_state(a(i), if i == 0 { Value::Zero } else { Value::One }))
            .collect();
        let next = step(&e, &states, &[Action::Noop; 3], |_, _| true);
        for s in &next {
            assert_eq!(s.time, 1);
            assert_eq!(s.graph.time(), 1);
            assert_eq!(s.graph.pref(a(0)), PrefLabel::Known(Value::Zero));
        }
    }

    #[test]
    fn omissions_are_recorded_in_the_graph() {
        let e = ex();
        let states: Vec<_> = (0..3).map(|i| e.initial_state(a(i), Value::One)).collect();
        let next = step(&e, &states, &[Action::Noop; 3], |from, to| {
            !(from == a(2) && to == a(0))
        });
        assert_eq!(next[0].graph.edge(1, a(2), a(0)), EdgeLabel::Dropped);
        assert_eq!(next[0].graph.edge(1, a(1), a(0)), EdgeLabel::Delivered);
        assert_eq!(next[1].graph.edge(1, a(2), a(1)), EdgeLabel::Delivered);
    }

    #[test]
    fn decision_recorded_in_state() {
        let e = ex();
        let states: Vec<_> = (0..3).map(|i| e.initial_state(a(i), Value::Zero)).collect();
        let next = step(
            &e,
            &states,
            &[Action::Decide(Value::Zero), Action::Noop, Action::Noop],
            |_, _| true,
        );
        assert_eq!(next[0].decided, Some(Value::Zero));
        assert_eq!(next[1].decided, None);
    }

    #[test]
    fn message_bits_match_graph_size() {
        let e = ex();
        let s = e.initial_state(a(0), Value::One);
        let mut msg = None;
        e.broadcast(a(0), &s, Action::Noop, &mut msg);
        assert_eq!(e.message_bits(&msg.unwrap()), s.graph.size_bits());
    }
}
