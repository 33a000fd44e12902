//! Edge and preference labels of communication graphs.

use std::fmt;

use crate::types::Value;

/// What an agent knows about a potential message (an edge of the
/// communication graph): delivered, omitted, or unknown (`?`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum EdgeLabel {
    /// The observer does not know whether the message was sent/delivered.
    #[default]
    Unknown,
    /// The observer knows the message was delivered (label `1`).
    Delivered,
    /// The observer knows the message was omitted (label `0`). Under
    /// sending omissions this is evidence that the sender is faulty.
    Dropped,
}

impl EdgeLabel {
    /// Merges knowledge from another observer. Known labels win over
    /// `Unknown`; two known labels must agree (they describe the same run).
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if both labels are known but disagree,
    /// which cannot happen for graphs arising from a single run.
    pub fn merge(self, other: EdgeLabel) -> EdgeLabel {
        match (self, other) {
            (EdgeLabel::Unknown, o) => o,
            (s, EdgeLabel::Unknown) => s,
            (s, o) => {
                debug_assert_eq!(s, o, "inconsistent edge labels from one run");
                s
            }
        }
    }

    /// Whether the label carries information (is not `?`).
    pub fn is_known(self) -> bool {
        self != EdgeLabel::Unknown
    }

    /// The label's 2-bit symbol, in memory and on the wire: `?` = 0,
    /// delivered = 1, dropped = 2 — so [`EdgeLabel::merge`] of two
    /// consistent labels is the OR of their symbols, and `0b11` is what
    /// two contradicting labels would OR to.
    pub fn bits(self) -> u64 {
        match self {
            EdgeLabel::Unknown => 0,
            EdgeLabel::Delivered => 1,
            EdgeLabel::Dropped => 2,
        }
    }

    /// The label a 2-bit symbol stands for (the inverse of
    /// [`EdgeLabel::bits`]).
    ///
    /// # Panics
    ///
    /// Panics if `bits` is not 0, 1 or 2.
    pub fn from_bits(bits: u64) -> EdgeLabel {
        match bits {
            0 => EdgeLabel::Unknown,
            1 => EdgeLabel::Delivered,
            2 => EdgeLabel::Dropped,
            other => panic!("invalid edge label bits {other}"),
        }
    }
}

impl fmt::Display for EdgeLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EdgeLabel::Unknown => write!(f, "?"),
            EdgeLabel::Delivered => write!(f, "1"),
            EdgeLabel::Dropped => write!(f, "0"),
        }
    }
}

/// What an agent knows about another agent's initial preference.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum PrefLabel {
    /// The initial preference is unknown (`?`).
    #[default]
    Unknown,
    /// The initial preference is known to be this value.
    Known(Value),
}

impl PrefLabel {
    /// Merges knowledge from another observer (see [`EdgeLabel::merge`]).
    pub fn merge(self, other: PrefLabel) -> PrefLabel {
        match (self, other) {
            (PrefLabel::Unknown, o) => o,
            (s, PrefLabel::Unknown) => s,
            (s, o) => {
                debug_assert_eq!(s, o, "inconsistent preference labels from one run");
                s
            }
        }
    }

    /// The known value, if any.
    pub fn value(self) -> Option<Value> {
        match self {
            PrefLabel::Unknown => None,
            PrefLabel::Known(v) => Some(v),
        }
    }

    /// The label's 2-bit symbol: `?` = 0, preference 0 = 1, preference
    /// 1 = 2 (see [`EdgeLabel::bits`]).
    pub fn bits(self) -> u64 {
        match self {
            PrefLabel::Unknown => 0,
            PrefLabel::Known(Value::Zero) => 1,
            PrefLabel::Known(Value::One) => 2,
        }
    }

    /// The label a 2-bit symbol stands for (the inverse of
    /// [`PrefLabel::bits`]).
    ///
    /// # Panics
    ///
    /// Panics if `bits` is not 0, 1 or 2.
    pub fn from_bits(bits: u64) -> PrefLabel {
        match bits {
            0 => PrefLabel::Unknown,
            1 => PrefLabel::Known(Value::Zero),
            2 => PrefLabel::Known(Value::One),
            other => panic!("invalid preference label bits {other}"),
        }
    }
}

impl fmt::Display for PrefLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PrefLabel::Unknown => write!(f, "?"),
            PrefLabel::Known(v) => write!(f, "{v}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_merge_prefers_information() {
        assert_eq!(
            EdgeLabel::Unknown.merge(EdgeLabel::Delivered),
            EdgeLabel::Delivered
        );
        assert_eq!(
            EdgeLabel::Dropped.merge(EdgeLabel::Unknown),
            EdgeLabel::Dropped
        );
        assert_eq!(
            EdgeLabel::Delivered.merge(EdgeLabel::Delivered),
            EdgeLabel::Delivered
        );
        assert_eq!(
            EdgeLabel::Unknown.merge(EdgeLabel::Unknown),
            EdgeLabel::Unknown
        );
    }

    #[test]
    fn pref_merge_and_value() {
        let k0 = PrefLabel::Known(Value::Zero);
        assert_eq!(PrefLabel::Unknown.merge(k0), k0);
        assert_eq!(k0.merge(PrefLabel::Unknown), k0);
        assert_eq!(k0.value(), Some(Value::Zero));
        assert_eq!(PrefLabel::Unknown.value(), None);
    }

    #[test]
    fn merging_consistent_labels_is_the_or_of_their_symbols() {
        let edges = [EdgeLabel::Unknown, EdgeLabel::Delivered, EdgeLabel::Dropped];
        let [zero, one] = Value::ALL.map(PrefLabel::Known);
        let prefs = [PrefLabel::Unknown, zero, one];
        for symbol in 0..3 {
            let (a, p) = (edges[symbol], prefs[symbol]);
            assert_eq!((a.bits(), p.bits()), (symbol as u64, symbol as u64));
            assert_eq!(EdgeLabel::from_bits(a.bits()), a);
            assert_eq!(PrefLabel::from_bits(p.bits()), p);
            // Every pair but the contradicting one, which ORs to 0b11.
            for other in (0..3).filter(|other| symbol | other != 0b11) {
                let merged = (symbol | other) as u64;
                assert_eq!(a.merge(edges[other]).bits(), merged);
                assert_eq!(p.merge(prefs[other]).bits(), merged);
            }
        }
    }

    #[test]
    fn labels_display_like_the_paper() {
        assert_eq!(EdgeLabel::Unknown.to_string(), "?");
        assert_eq!(EdgeLabel::Delivered.to_string(), "1");
        assert_eq!(EdgeLabel::Dropped.to_string(), "0");
        assert_eq!(PrefLabel::Known(Value::One).to_string(), "1");
    }
}
