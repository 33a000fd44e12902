//! Binary consensus values and protocol actions.

use std::fmt;

/// A binary consensus value (an initial preference or a decision).
///
/// ```
/// use eba_core::types::Value;
///
/// assert_eq!(Value::Zero.other(), Value::One);
/// assert_eq!(Value::One.to_string(), "1");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Value {
    /// The value `0`.
    Zero,
    /// The value `1`.
    One,
}

impl Value {
    /// Both values, in the order `[Zero, One]`.
    pub const ALL: [Value; 2] = [Value::Zero, Value::One];

    /// The opposite value (`1 - v` in the paper's notation).
    pub fn other(self) -> Value {
        match self {
            Value::Zero => Value::One,
            Value::One => Value::Zero,
        }
    }

    /// This value as a bit (`0` or `1`).
    pub fn as_bit(self) -> u8 {
        match self {
            Value::Zero => 0,
            Value::One => 1,
        }
    }

    /// Converts a bit into a value.
    ///
    /// # Panics
    ///
    /// Panics if `bit > 1`.
    pub fn from_bit(bit: u8) -> Value {
        match bit {
            0 => Value::Zero,
            1 => Value::One,
            _ => panic!("invalid bit {bit} for a binary value"),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_bit())
    }
}

/// An action of an EBA action protocol: decide on a value or do nothing.
///
/// The paper's action set is `A_i = {decide_i(v) | v ∈ {0,1}} ∪ {noop}`.
///
/// ```
/// use eba_core::types::{Action, Value};
///
/// assert_eq!(Action::Decide(Value::Zero).decided_value(), Some(Value::Zero));
/// assert_eq!(Action::Noop.decided_value(), None);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum Action {
    /// Do nothing this round.
    #[default]
    Noop,
    /// Decide on the given value.
    Decide(Value),
}

impl Action {
    /// The decided value, if this action is a decision.
    pub fn decided_value(self) -> Option<Value> {
        match self {
            Action::Noop => None,
            Action::Decide(v) => Some(v),
        }
    }
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::Noop => write!(f, "noop"),
            Action::Decide(v) => write!(f, "decide({v})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_roundtrip() {
        for v in Value::ALL {
            assert_eq!(Value::from_bit(v.as_bit()), v);
            assert_eq!(v.other().other(), v);
            assert_ne!(v.other(), v);
        }
    }

    #[test]
    #[should_panic(expected = "invalid bit")]
    fn from_bit_rejects_garbage() {
        let _ = Value::from_bit(2);
    }

    #[test]
    fn action_accessors() {
        assert_eq!(Action::default(), Action::Noop);
        assert_eq!(Action::Decide(Value::One).to_string(), "decide(1)");
        assert_eq!(Action::Noop.to_string(), "noop");
    }
}
