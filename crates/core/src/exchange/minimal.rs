//! The minimal information-exchange protocol `E_min(n)` of Section 6.
//!
//! Agents keep only `⟨time, init, decided, jd⟩` and send a single bit — the
//! value they are deciding — in the round in which they decide; otherwise
//! they stay silent. Message sets: `M_0 = {0}`, `M_1 = {1}`, `M_2 = {⊥}`.

use std::fmt;

use crate::types::{Action, AgentId, Params, Value};

use super::InformationExchange;

/// The minimal information-exchange protocol `E_min(n)`.
///
/// ```
/// use eba_core::prelude::*;
///
/// # fn main() -> Result<(), EbaError> {
/// let ex = MinExchange::new(Params::new(3, 1)?);
/// let s = ex.initial_state(AgentId::new(0), Value::Zero);
/// // Deciding 0 broadcasts the bit 0 to every agent (including itself):
/// let mut out = None;
/// ex.broadcast(AgentId::new(0), &s, Action::Decide(Value::Zero), &mut out);
/// assert_eq!(out, Some(MinMsg(Value::Zero)));
/// // A noop sends nothing:
/// ex.broadcast(AgentId::new(0), &s, Action::Noop, &mut out);
/// assert_eq!(out, None);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy, Debug)]
pub struct MinExchange {
    params: Params,
}

impl MinExchange {
    /// Creates the minimal exchange for the given parameters.
    pub fn new(params: Params) -> Self {
        MinExchange { params }
    }
}

/// A local state `⟨time, init, decided, jd⟩` of `E_min`.
///
/// `jd = Some(v)` means the agent learned in the last round that some agent
/// *just decided* `v` (it received a message in `M_v`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct MinState {
    /// The current time (round number completed).
    pub time: u32,
    /// The agent's initial preference.
    pub init: Value,
    /// The decision taken, if any.
    pub decided: Option<Value>,
    /// The value some agent was observed deciding in the last round, if any.
    pub jd: Option<Value>,
}

impl fmt::Display for MinState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "⟨{}, {}, {}, {}⟩",
            self.time,
            self.init,
            self.decided.map_or("⊥".into(), |v| v.to_string()),
            self.jd.map_or("⊥".into(), |v| v.to_string()),
        )
    }
}

/// A message of `E_min`: the single bit being decided.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct MinMsg(pub Value);

/// Derives the `jd` component from a tuple of received messages, giving
/// priority to 0-decisions (consistent with the 0-biased decision rules:
/// a protocol implementing `P0` acts on a heard 0 before a heard 1).
fn jd_from<M: Copy, F: Fn(M) -> Value>(received: &[Option<M>], value_of: F) -> Option<Value> {
    let mut jd = None;
    for msg in received.iter().flatten() {
        match value_of(*msg) {
            Value::Zero => return Some(Value::Zero),
            Value::One => jd = Some(Value::One),
        }
    }
    jd
}

impl InformationExchange for MinExchange {
    type State = MinState;
    type Message = MinMsg;

    fn name(&self) -> &'static str {
        "E_min"
    }

    fn params(&self) -> Params {
        self.params
    }

    fn initial_state(&self, _agent: AgentId, init: Value) -> MinState {
        MinState {
            time: 0,
            init,
            decided: None,
            jd: None,
        }
    }

    fn broadcast(&self, _: AgentId, _: &MinState, action: Action, out: &mut Option<MinMsg>) {
        *out = action.decided_value().map(MinMsg);
    }

    fn update(
        &self,
        _agent: AgentId,
        state: &MinState,
        action: Action,
        received: &[Option<&MinMsg>],
        next: &mut MinState,
    ) {
        debug_assert_eq!(received.len(), self.params.n());
        *next = MinState {
            time: state.time + 1,
            init: state.init,
            decided: action.decided_value().or(state.decided),
            jd: jd_from(received, |&MinMsg(v)| v),
        };
    }

    fn time(&self, state: &MinState) -> u32 {
        state.time
    }

    fn init(&self, state: &MinState) -> Value {
        state.init
    }

    fn decided(&self, state: &MinState) -> Option<Value> {
        state.decided
    }

    fn message_bits(&self, _msg: &MinMsg) -> u64 {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::step;
    use super::*;

    fn ex() -> MinExchange {
        MinExchange::new(Params::new(3, 1).unwrap())
    }

    fn a(i: usize) -> AgentId {
        AgentId::new(i)
    }

    #[test]
    fn initial_state_shape() {
        let s = ex().initial_state(a(1), Value::One);
        assert_eq!(s.time, 0);
        assert_eq!(s.init, Value::One);
        assert_eq!(s.decided, None);
        assert_eq!(s.jd, None);
        assert_eq!(s.to_string(), "⟨0, 1, ⊥, ⊥⟩");
    }

    #[test]
    fn decide_broadcasts_and_records() {
        let e = ex();
        let states: Vec<_> = (0..3).map(|i| e.initial_state(a(i), Value::One)).collect();
        let actions = [Action::Decide(Value::One), Action::Noop, Action::Noop];
        let next = step(&e, &states, &actions, |_, _| true);
        assert_eq!(next[0].decided, Some(Value::One));
        assert_eq!(next[1].decided, None);
        // Everyone (including the decider) observed the just-decided 1.
        for s in &next {
            assert_eq!(s.time, 1);
            assert_eq!(s.jd, Some(Value::One));
        }
    }

    #[test]
    fn jd_prefers_zero_when_both_heard() {
        let e = ex();
        let states: Vec<_> = (0..3).map(|i| e.initial_state(a(i), Value::One)).collect();
        let actions = [
            Action::Decide(Value::One),
            Action::Decide(Value::Zero),
            Action::Noop,
        ];
        let next = step(&e, &states, &actions, |_, _| true);
        assert_eq!(next[2].jd, Some(Value::Zero));
    }

    #[test]
    fn jd_clears_when_silence() {
        let e = ex();
        let states: Vec<_> = (0..3).map(|i| e.initial_state(a(i), Value::One)).collect();
        let heard = step(
            &e,
            &states,
            &[Action::Decide(Value::Zero), Action::Noop, Action::Noop],
            |_, _| true,
        );
        assert_eq!(heard[1].jd, Some(Value::Zero));
        let quiet = step(&e, &heard, &[Action::Noop; 3], |_, _| true);
        assert_eq!(quiet[1].jd, None);
        assert_eq!(quiet[1].time, 2);
    }

    #[test]
    fn dropped_message_leaves_jd_unset() {
        let e = ex();
        let states: Vec<_> = (0..3).map(|i| e.initial_state(a(i), Value::One)).collect();
        let actions = [Action::Decide(Value::Zero), Action::Noop, Action::Noop];
        // Agent 0's message to agent 2 is dropped.
        let next = step(&e, &states, &actions, |from, to| {
            !(from == a(0) && to == a(2))
        });
        assert_eq!(next[1].jd, Some(Value::Zero));
        assert_eq!(next[2].jd, None);
    }

    #[test]
    fn decision_is_sticky() {
        let e = ex();
        let s = MinState {
            time: 2,
            init: Value::One,
            decided: Some(Value::One),
            jd: None,
        };
        let mut next = s;
        e.update(a(0), &s, Action::Noop, &[None, None, None], &mut next);
        assert_eq!(next.decided, Some(Value::One));
    }

    #[test]
    fn one_bit_messages() {
        assert_eq!(ex().message_bits(&MinMsg(Value::Zero)), 1);
    }
}
