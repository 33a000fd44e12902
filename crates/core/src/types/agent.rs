//! Agent identifiers and sets of agents.

use std::fmt;

/// Identifier of an agent: an index in `0..n`.
///
/// The paper numbers agents `1..=n`; we use 0-based indices throughout and
/// render them as `a0`, `a1`, … in human-readable output.
///
/// ```
/// use eba_core::types::AgentId;
///
/// let a = AgentId::new(3);
/// assert_eq!(a.index(), 3);
/// assert_eq!(a.to_string(), "a3");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct AgentId(u16);

impl AgentId {
    /// Maximum number of agents supported ([`AgentSet`] is a 128-bit set).
    pub const MAX_AGENTS: usize = 128;

    /// Creates an agent identifier from a 0-based index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= AgentId::MAX_AGENTS`.
    pub fn new(index: usize) -> Self {
        assert!(
            index < Self::MAX_AGENTS,
            "agent index {index} out of range (max {})",
            Self::MAX_AGENTS
        );
        AgentId(index as u16)
    }

    /// The 0-based index of this agent.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Iterates over all agents `a0..a(n-1)`.
    pub fn all(n: usize) -> impl Iterator<Item = AgentId> + Clone {
        (0..n).map(AgentId::new)
    }
}

impl fmt::Display for AgentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a{}", self.0)
    }
}

impl From<AgentId> for usize {
    fn from(a: AgentId) -> usize {
        a.index()
    }
}

/// A set of agents, stored as a 128-bit bitmask.
///
/// Used for the nonfaulty set `N` of a failure pattern, known-faulty sets in
/// communication-graph analysis, and subset enumeration for the
/// `∃A ⊆ Agt (|A| = t ∧ …)` quantifier of the `C_N(t-faulty ∧ …)` operator.
///
/// ```
/// use eba_core::types::{AgentId, AgentSet};
///
/// let mut s = AgentSet::empty();
/// s.insert(AgentId::new(0));
/// s.insert(AgentId::new(2));
/// assert_eq!(s.len(), 2);
/// assert!(s.contains(AgentId::new(2)));
/// assert_eq!(s.complement(3), AgentSet::singleton(AgentId::new(1)));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct AgentSet(u128);

impl AgentSet {
    /// The empty set.
    pub const fn empty() -> Self {
        AgentSet(0)
    }

    /// The set `{0, …, n-1}` of all `n` agents.
    ///
    /// # Panics
    ///
    /// Panics if `n > AgentId::MAX_AGENTS`.
    pub fn full(n: usize) -> Self {
        assert!(n <= AgentId::MAX_AGENTS);
        if n == 128 {
            AgentSet(u128::MAX)
        } else {
            AgentSet((1u128 << n) - 1)
        }
    }

    /// The singleton set `{agent}`.
    pub fn singleton(agent: AgentId) -> Self {
        AgentSet(1u128 << agent.index())
    }

    /// Inserts an agent; returns `true` if it was not already present.
    pub fn insert(&mut self, agent: AgentId) -> bool {
        let bit = 1u128 << agent.index();
        let was = self.0 & bit != 0;
        self.0 |= bit;
        !was
    }

    /// Removes an agent; returns `true` if it was present.
    pub fn remove(&mut self, agent: AgentId) -> bool {
        let bit = 1u128 << agent.index();
        let was = self.0 & bit != 0;
        self.0 &= !bit;
        was
    }

    /// Whether `agent` is a member.
    pub fn contains(self, agent: AgentId) -> bool {
        self.0 & (1u128 << agent.index()) != 0
    }

    /// Number of members.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether the set is empty.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Set union.
    pub fn union(self, other: AgentSet) -> AgentSet {
        AgentSet(self.0 | other.0)
    }

    /// Set intersection.
    pub fn intersection(self, other: AgentSet) -> AgentSet {
        AgentSet(self.0 & other.0)
    }

    /// Set difference `self \ other`.
    pub fn difference(self, other: AgentSet) -> AgentSet {
        AgentSet(self.0 & !other.0)
    }

    /// Complement with respect to the universe `{0, …, n-1}`.
    pub fn complement(self, n: usize) -> AgentSet {
        AgentSet(Self::full(n).0 & !self.0)
    }

    /// Whether `self ⊆ other`.
    pub fn is_subset(self, other: AgentSet) -> bool {
        self.0 & !other.0 == 0
    }

    /// Iterates over members in increasing index order. Each step takes
    /// the lowest set bit and clears it, so a walk costs one step per
    /// member, not one per possible agent.
    pub fn iter(self) -> impl Iterator<Item = AgentId> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            if bits == 0 {
                return None;
            }
            let lowest = bits.trailing_zeros() as u16;
            bits &= bits - 1;
            Some(AgentId(lowest))
        })
    }

    /// The raw 128-bit mask (stable, for hashing/dedup keys).
    pub fn bits(self) -> u128 {
        self.0
    }

    /// The set whose raw mask is `bits`: the inverse of
    /// [`bits`](Self::bits).
    pub const fn from_bits(bits: u128) -> AgentSet {
        AgentSet(bits)
    }
}

impl FromIterator<AgentId> for AgentSet {
    fn from_iter<T: IntoIterator<Item = AgentId>>(iter: T) -> Self {
        let mut s = AgentSet::empty();
        for a in iter {
            s.insert(a);
        }
        s
    }
}

impl fmt::Debug for AgentSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for a in self.iter() {
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
            first = false;
        }
        write!(f, "}}")
    }
}

impl fmt::Display for AgentSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Enumerates all subsets of `{0, …, n-1}` with exactly `k` members.
///
/// Used for the `∃A ⊆ Agt (|A| = t ∧ C_N(…))` quantifier in the paper's
/// `C_N(t-faulty ∧ φ)` abbreviation, and for enumerating faulty-set choices
/// of `SO(t)` failure patterns.
///
/// ```
/// use eba_core::types::subsets_of_size;
///
/// assert_eq!(subsets_of_size(4, 2).len(), 6);
/// assert_eq!(subsets_of_size(3, 0).len(), 1); // the empty set
/// ```
pub fn subsets_of_size(n: usize, k: usize) -> Vec<AgentSet> {
    let mut out = Vec::new();
    let mut current = AgentSet::empty();
    fn go(n: usize, k: usize, start: usize, current: &mut AgentSet, out: &mut Vec<AgentSet>) {
        if k == 0 {
            out.push(*current);
            return;
        }
        // Not enough agents remain to fill the subset.
        if start + k > n {
            return;
        }
        for i in start..=(n - k) {
            let a = AgentId::new(i);
            current.insert(a);
            go(n, k - 1, i + 1, current, out);
            current.remove(a);
        }
    }
    go(n, k, 0, &mut current, &mut out);
    out
}

/// Enumerates all subsets of `{0, …, n-1}` with at most `k` members
/// (including the empty set), smallest first.
pub fn subsets_up_to_size(n: usize, k: usize) -> Vec<AgentSet> {
    (0..=k.min(n)).flat_map(|s| subsets_of_size(n, s)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agent_display_and_index() {
        let a = AgentId::new(7);
        assert_eq!(a.index(), 7);
        assert_eq!(a.to_string(), "a7");
        assert_eq!(AgentId::all(3).count(), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn agent_out_of_range_panics() {
        let _ = AgentId::new(AgentId::MAX_AGENTS);
    }

    #[test]
    fn set_insert_remove_contains() {
        let mut s = AgentSet::empty();
        assert!(s.is_empty());
        assert!(s.insert(AgentId::new(5)));
        assert!(!s.insert(AgentId::new(5)));
        assert!(s.contains(AgentId::new(5)));
        assert_eq!(s.len(), 1);
        assert!(s.remove(AgentId::new(5)));
        assert!(!s.remove(AgentId::new(5)));
        assert!(s.is_empty());
    }

    #[test]
    fn set_algebra() {
        let a: AgentSet = [0, 1, 2].into_iter().map(AgentId::new).collect();
        let b: AgentSet = [2, 3].into_iter().map(AgentId::new).collect();
        assert_eq!(a.union(b).len(), 4);
        assert_eq!(a.intersection(b), AgentSet::singleton(AgentId::new(2)));
        assert_eq!(a.difference(b).len(), 2);
        assert!(AgentSet::singleton(AgentId::new(2)).is_subset(a));
        assert!(!a.is_subset(b));
        assert_eq!(a.complement(4), AgentSet::singleton(AgentId::new(3)));
    }

    #[test]
    fn full_set_boundaries() {
        assert_eq!(AgentSet::full(0), AgentSet::empty());
        assert_eq!(AgentSet::full(128).len(), 128);
        assert_eq!(AgentSet::full(7).len(), 7);
    }

    #[test]
    fn iter_ordering() {
        let s: AgentSet = [9, 1, 4].into_iter().map(AgentId::new).collect();
        let v: Vec<usize> = s.iter().map(|a| a.index()).collect();
        assert_eq!(v, vec![1, 4, 9]);
        // The edges of a set-bit walk over a `u128`: nothing set, the
        // lowest bit, both sides of the 64-bit half, the highest bit, and
        // every bit.
        for s in [
            AgentSet::empty(),
            AgentSet::singleton(AgentId::new(0)),
            [63, 64].into_iter().map(AgentId::new).collect(),
            AgentSet::singleton(AgentId::new(127)),
            AgentSet::full(128),
        ] {
            assert_eq!(s.iter().count(), s.len(), "{s}");
            assert_eq!(s.iter().collect::<AgentSet>(), s, "{s}");
            assert!(s.iter().zip(s.iter().skip(1)).all(|(a, b)| a < b), "{s}");
        }
    }

    #[test]
    fn subset_counts_are_binomial() {
        assert_eq!(subsets_of_size(5, 2).len(), 10);
        assert_eq!(subsets_of_size(5, 5).len(), 1);
        assert_eq!(subsets_of_size(5, 6).len(), 0);
        // 1 + 5 + 10 = 16
        assert_eq!(subsets_up_to_size(5, 2).len(), 16);
    }

    #[test]
    fn subsets_are_distinct_and_correct_size() {
        let subs = subsets_of_size(6, 3);
        let mut seen = std::collections::HashSet::new();
        for s in &subs {
            assert_eq!(s.len(), 3);
            assert!(seen.insert(s.bits()));
        }
    }

    #[test]
    fn display_of_set() {
        let s: AgentSet = [0, 2].into_iter().map(AgentId::new).collect();
        assert_eq!(format!("{s}"), "{a0, a2}");
        assert_eq!(format!("{:?}", AgentSet::empty()), "{}");
    }
}
