//! The naive "announce zeros" exchange used by the introduction's
//! impossibility argument.
//!
//! The introduction of the paper shows that no EBA protocol for omission
//! failures can be *0-biased* in the strong sense of deciding 0 as soon as
//! the agent learns that some agent had initial preference 0. This exchange
//! supports exactly that (incorrect) protocol: an agent that knows about a
//! 0 keeps broadcasting `zero-exists` every round, so a faulty agent can
//! reveal a 0 arbitrarily late to a subset of the agents — the scenario of
//! the paper's runs `r` and `r'`.

use std::fmt;

use crate::types::{Action, AgentId, Params, Value};

use super::InformationExchange;

/// The naive zero-announcing exchange (introduction, runs `r`/`r'`).
#[derive(Clone, Copy, Debug)]
pub struct NaiveExchange {
    params: Params,
}

impl NaiveExchange {
    /// Creates the naive exchange for the given parameters.
    pub fn new(params: Params) -> Self {
        NaiveExchange { params }
    }
}

/// A local state of the naive exchange.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct NaiveState {
    /// The current time.
    pub time: u32,
    /// The agent's initial preference.
    pub init: Value,
    /// The decision taken, if any.
    pub decided: Option<Value>,
    /// Whether the agent knows some agent had initial preference 0.
    pub knows_zero: bool,
}

impl fmt::Display for NaiveState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "⟨{}, {}, {}, {}⟩",
            self.time,
            self.init,
            self.decided.map_or("⊥".into(), |v| v.to_string()),
            if self.knows_zero { "0∃" } else { "·" },
        )
    }
}

/// A message of the naive exchange.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum NaiveMsg {
    /// The sender is deciding this value in the current round.
    Decide(Value),
    /// Some agent had initial preference 0.
    ZeroExists,
}

impl InformationExchange for NaiveExchange {
    type State = NaiveState;
    type Message = NaiveMsg;

    fn name(&self) -> &'static str {
        "E_naive"
    }

    fn params(&self) -> Params {
        self.params
    }

    fn initial_state(&self, _agent: AgentId, init: Value) -> NaiveState {
        NaiveState {
            time: 0,
            init,
            decided: None,
            knows_zero: init == Value::Zero,
        }
    }

    fn broadcast(&self, _: AgentId, s: &NaiveState, action: Action, out: &mut Option<NaiveMsg>) {
        *out = match action {
            Action::Decide(v) => Some(NaiveMsg::Decide(v)),
            Action::Noop => s.knows_zero.then_some(NaiveMsg::ZeroExists),
        };
    }

    fn update(
        &self,
        _agent: AgentId,
        state: &NaiveState,
        action: Action,
        received: &[Option<&NaiveMsg>],
        next: &mut NaiveState,
    ) {
        debug_assert_eq!(received.len(), self.params.n());
        let heard_zero = received
            .iter()
            .flatten()
            .any(|m| matches!(m, NaiveMsg::ZeroExists | NaiveMsg::Decide(Value::Zero)));
        *next = NaiveState {
            time: state.time + 1,
            init: state.init,
            decided: action.decided_value().or(state.decided),
            knows_zero: state.knows_zero || heard_zero,
        };
    }

    fn time(&self, state: &NaiveState) -> u32 {
        state.time
    }

    fn init(&self, state: &NaiveState) -> Value {
        state.init
    }

    fn decided(&self, state: &NaiveState) -> Option<Value> {
        state.decided
    }

    fn message_bits(&self, _msg: &NaiveMsg) -> u64 {
        2
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::step;
    use super::*;

    fn ex() -> NaiveExchange {
        NaiveExchange::new(Params::new(3, 1).unwrap())
    }

    fn a(i: usize) -> AgentId {
        AgentId::new(i)
    }

    #[test]
    fn zero_knowledge_starts_from_init() {
        let e = ex();
        assert!(e.initial_state(a(0), Value::Zero).knows_zero);
        assert!(!e.initial_state(a(0), Value::One).knows_zero);
    }

    #[test]
    fn zero_existence_propagates() {
        let e = ex();
        let states = vec![
            e.initial_state(a(0), Value::Zero),
            e.initial_state(a(1), Value::One),
            e.initial_state(a(2), Value::One),
        ];
        let next = step(&e, &states, &[Action::Noop; 3], |_, _| true);
        assert!(next.iter().all(|s| s.knows_zero));
    }

    #[test]
    fn zero_knowledge_is_persistent_and_relayed() {
        let e = ex();
        let states = vec![
            e.initial_state(a(0), Value::Zero),
            e.initial_state(a(1), Value::One),
            e.initial_state(a(2), Value::One),
        ];
        // Round 1: agent 0's broadcast reaches only agent 1.
        let r1 = step(&e, &states, &[Action::Noop; 3], |from, to| {
            from != a(0) || to == a(1)
        });
        assert!(r1[1].knows_zero);
        assert!(!r1[2].knows_zero);
        // Round 2: agent 0 silent; agent 1 relays.
        let r2 = step(&e, &r1, &[Action::Noop; 3], |from, _| from != a(0));
        assert!(r2[2].knows_zero);
    }

    #[test]
    fn decide_zero_message_conveys_zero() {
        let e = ex();
        let states = vec![
            e.initial_state(a(0), Value::Zero),
            e.initial_state(a(1), Value::One),
            e.initial_state(a(2), Value::One),
        ];
        let next = step(
            &e,
            &states,
            &[Action::Decide(Value::Zero), Action::Noop, Action::Noop],
            |_, _| true,
        );
        assert!(next[2].knows_zero);
    }

    #[test]
    fn decide_one_does_not_convey_zero() {
        let e = ex();
        let states = vec![
            e.initial_state(a(0), Value::One),
            e.initial_state(a(1), Value::One),
            e.initial_state(a(2), Value::One),
        ];
        let next = step(
            &e,
            &states,
            &[Action::Decide(Value::One), Action::Noop, Action::Noop],
            |_, _| true,
        );
        assert!(next.iter().all(|s| !s.knows_zero));
    }
}
