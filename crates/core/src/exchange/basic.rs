//! The basic information-exchange protocol `E_basic(n)` of Section 6.
//!
//! Like `E_min`, but an undecided agent with initial preference 1 (and no
//! decision heard) additionally broadcasts `(init, 1)` every round, and the
//! local state records `#1` — how many `(init, 1)` messages arrived in the
//! last round. Message sets: `M_0 = {0}`, `M_1 = {1}`,
//! `M_2 = {(init,1), ⊥}`.

use std::fmt;

use crate::types::{Action, AgentId, Params, Value};

use super::InformationExchange;

/// The basic information-exchange protocol `E_basic(n)`.
///
/// ```
/// use eba_core::prelude::*;
///
/// # fn main() -> Result<(), EbaError> {
/// let ex = BasicExchange::new(Params::new(4, 1)?);
/// let s = ex.initial_state(AgentId::new(2), Value::One);
/// // An undecided 1-preferring agent broadcasts (init, 1) on a noop:
/// let mut out = None;
/// ex.broadcast(AgentId::new(2), &s, Action::Noop, &mut out);
/// assert_eq!(out, Some(BasicMsg::Init1));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy, Debug)]
pub struct BasicExchange {
    params: Params,
}

impl BasicExchange {
    /// Creates the basic exchange for the given parameters.
    pub fn new(params: Params) -> Self {
        BasicExchange { params }
    }
}

/// A local state `⟨time, init, decided, jd, #1⟩` of `E_basic`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct BasicState {
    /// The current time.
    pub time: u32,
    /// The agent's initial preference.
    pub init: Value,
    /// The decision taken, if any.
    pub decided: Option<Value>,
    /// The value some agent was observed deciding in the last round, if any.
    pub jd: Option<Value>,
    /// `#1`: the number of `(init, 1)` messages received in the last round
    /// (0 once decided or once a decision message is received).
    pub ones: u16,
}

impl fmt::Display for BasicState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "⟨{}, {}, {}, {}, {}⟩",
            self.time,
            self.init,
            self.decided.map_or("⊥".into(), |v| v.to_string()),
            self.jd.map_or("⊥".into(), |v| v.to_string()),
            self.ones,
        )
    }
}

/// A message of `E_basic`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BasicMsg {
    /// The sender is deciding this value in the current round.
    Decide(Value),
    /// `(init, 1)`: the sender's initial preference is 1 and it is still
    /// undecided.
    Init1,
}

impl InformationExchange for BasicExchange {
    type State = BasicState;
    type Message = BasicMsg;

    fn name(&self) -> &'static str {
        "E_basic"
    }

    fn params(&self) -> Params {
        self.params
    }

    fn initial_state(&self, _agent: AgentId, init: Value) -> BasicState {
        BasicState {
            time: 0,
            init,
            decided: None,
            jd: None,
            ones: 0,
        }
    }

    fn broadcast(&self, _: AgentId, s: &BasicState, action: Action, out: &mut Option<BasicMsg>) {
        *out = match action {
            Action::Decide(v) => Some(BasicMsg::Decide(v)),
            // μ: broadcast (init, 1) iff the state has the form
            // ⟨m, 1, ⊥, ⊥, k⟩ — initial preference 1, undecided, no
            // decision heard.
            Action::Noop => (s.init == Value::One && s.decided.is_none() && s.jd.is_none())
                .then_some(BasicMsg::Init1),
        };
    }

    fn update(
        &self,
        _agent: AgentId,
        state: &BasicState,
        action: Action,
        received: &[Option<&BasicMsg>],
        next: &mut BasicState,
    ) {
        debug_assert_eq!(received.len(), self.params.n());
        let mut jd = None;
        let mut ones = 0u16;
        let mut heard_decision = false;
        for msg in received.iter().flatten() {
            match msg {
                BasicMsg::Decide(Value::Zero) => {
                    jd = Some(Value::Zero);
                    heard_decision = true;
                }
                BasicMsg::Decide(Value::One) => {
                    if jd.is_none() {
                        jd = Some(Value::One);
                    }
                    heard_decision = true;
                }
                BasicMsg::Init1 => ones += 1,
            }
        }
        let decided = action.decided_value().or(state.decided);
        // "#1 is updated to the number of (init,1) messages received this
        // round if decided = ⊥ and no decision message was received;
        // otherwise #1 is set to 0."
        let ones = if decided.is_none() && !heard_decision {
            ones
        } else {
            0
        };
        *next = BasicState {
            time: state.time + 1,
            init: state.init,
            decided,
            jd,
            ones,
        };
    }

    fn time(&self, state: &BasicState) -> u32 {
        state.time
    }

    fn init(&self, state: &BasicState) -> Value {
        state.init
    }

    fn decided(&self, state: &BasicState) -> Option<Value> {
        state.decided
    }

    fn message_bits(&self, _msg: &BasicMsg) -> u64 {
        // Three message kinds ({0, 1, (init,1)}): 2 bits.
        2
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::step;
    use super::*;

    fn ex() -> BasicExchange {
        BasicExchange::new(Params::new(4, 1).unwrap())
    }

    fn a(i: usize) -> AgentId {
        AgentId::new(i)
    }

    /// What `s` broadcasts on a noop.
    fn said(e: &BasicExchange, s: &BasicState) -> Option<BasicMsg> {
        let mut out = Some(BasicMsg::Decide(Value::Zero));
        e.broadcast(a(0), s, Action::Noop, &mut out);
        out
    }

    fn fresh(e: &BasicExchange, inits: [Value; 4]) -> Vec<BasicState> {
        inits
            .iter()
            .enumerate()
            .map(|(i, v)| e.initial_state(a(i), *v))
            .collect()
    }

    #[test]
    fn ones_counts_include_self() {
        let e = ex();
        let states = fresh(&e, [Value::One; 4]);
        let next = step(&e, &states, &[Action::Noop; 4], |_, _| true);
        // All 4 agents broadcast (init, 1); each counts 4, including its own.
        for s in &next {
            assert_eq!(s.ones, 4);
            assert_eq!(s.jd, None);
        }
    }

    #[test]
    fn zero_preferrer_stays_silent_on_noop() {
        let e = ex();
        let s = e.initial_state(a(0), Value::Zero);
        assert_eq!(said(&e, &s), None);
    }

    #[test]
    fn heard_decision_resets_ones() {
        let e = ex();
        let states = fresh(&e, [Value::Zero, Value::One, Value::One, Value::One]);
        let actions = [
            Action::Decide(Value::Zero),
            Action::Noop,
            Action::Noop,
            Action::Noop,
        ];
        let next = step(&e, &states, &actions, |_, _| true);
        for s in &next[1..] {
            // Three (init,1) messages were in flight, but the decision
            // message zeroes the count.
            assert_eq!(s.ones, 0);
            assert_eq!(s.jd, Some(Value::Zero));
        }
    }

    #[test]
    fn own_decision_resets_ones() {
        let e = ex();
        let states = fresh(&e, [Value::One; 4]);
        let actions = [
            Action::Decide(Value::One),
            Action::Noop,
            Action::Noop,
            Action::Noop,
        ];
        let next = step(&e, &states, &actions, |_, _| true);
        assert_eq!(next[0].ones, 0);
        assert_eq!(next[0].decided, Some(Value::One));
        // The others heard the decision: jd = 1 and ones reset.
        assert_eq!(next[1].jd, Some(Value::One));
        assert_eq!(next[1].ones, 0);
    }

    #[test]
    fn decided_agent_stops_broadcasting_init1() {
        let e = ex();
        let s = BasicState {
            time: 1,
            init: Value::One,
            decided: Some(Value::One),
            jd: None,
            ones: 0,
        };
        assert_eq!(said(&e, &s), None);
    }

    #[test]
    fn jd_set_suppresses_init1_broadcast() {
        // μ requires the state ⟨m, 1, ⊥, ⊥, k⟩: jd must be ⊥.
        let e = ex();
        let s = BasicState {
            time: 1,
            init: Value::One,
            decided: None,
            jd: Some(Value::One),
            ones: 0,
        };
        assert_eq!(said(&e, &s), None);
    }

    #[test]
    fn dropped_init1_lowers_count() {
        let e = ex();
        let states = fresh(&e, [Value::One; 4]);
        // Agent 0 is faulty and its broadcast reaches only agent 1.
        let next = step(&e, &states, &[Action::Noop; 4], |from, to| {
            from != a(0) || to == a(1)
        });
        assert_eq!(next[1].ones, 4);
        assert_eq!(next[0].ones, 3);
        assert_eq!(next[2].ones, 3);
    }

    #[test]
    fn zero_priority_in_jd() {
        let e = ex();
        let states = fresh(&e, [Value::Zero, Value::One, Value::One, Value::One]);
        let actions = [
            Action::Decide(Value::Zero),
            Action::Decide(Value::One),
            Action::Noop,
            Action::Noop,
        ];
        let next = step(&e, &states, &actions, |_, _| true);
        assert_eq!(next[2].jd, Some(Value::Zero));
    }

    #[test]
    fn two_bit_messages() {
        let e = ex();
        assert_eq!(e.message_bits(&BasicMsg::Init1), 2);
        assert_eq!(e.message_bits(&BasicMsg::Decide(Value::Zero)), 2);
    }
}
