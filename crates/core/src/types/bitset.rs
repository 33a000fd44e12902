//! A compact growable bitset, used for vertex sets of communication graphs
//! and point sets of interpreted systems.

use std::fmt;
use std::ops::Range;

/// A fixed-capacity bitset over `0..len`.
///
/// ```
/// use eba_core::types::BitSet;
///
/// let mut s = BitSet::new(100);
/// s.insert(3);
/// s.insert(64);
/// assert!(s.contains(3) && s.contains(64) && !s.contains(65));
/// assert_eq!(s.count(), 2);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// Creates an empty bitset with capacity for indices `0..len`.
    pub fn new(len: usize) -> Self {
        BitSet {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// The set of every index in `0..len`.
    pub fn full(len: usize) -> Self {
        let mut set = BitSet::new(len);
        set.fill();
        set
    }

    /// The set of `i` in `0..len` for which `pred(i)` holds, built a word
    /// at a time, in increasing `i`.
    pub fn from_fn(len: usize, mut pred: impl FnMut(usize) -> bool) -> Self {
        let words = (0..len.div_ceil(64))
            .map(|w| {
                let bits = 64.min(len - w * 64);
                (0..bits).fold(0u64, |word, b| word | u64::from(pred(w * 64 + b)) << b)
            })
            .collect();
        BitSet { words, len }
    }

    /// The capacity (number of addressable indices).
    pub fn capacity(&self) -> usize {
        self.len
    }

    /// Inserts index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn insert(&mut self, i: usize) {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Inserts every index of `range`.
    ///
    /// # Panics
    ///
    /// Panics if `range` reaches past the capacity.
    pub fn insert_range(&mut self, range: Range<usize>) {
        for (w, mask) in self.word_masks(range) {
            self.words[w] |= mask;
        }
    }

    /// Inserts `at + (i - from.start)` for every index `i` of `from` that
    /// `src` holds: `src`'s bits of `from`, shifted to start at `at`, a
    /// word at a time.
    ///
    /// # Panics
    ///
    /// Panics if `from` reaches past `src`'s capacity or the shifted
    /// range past this set's.
    pub fn insert_shifted(&mut self, src: &BitSet, from: Range<usize>, at: usize) {
        let to = at..at + from.len();
        assert!(
            from.end <= src.len && to.end <= self.len,
            "bit ranges {from:?} → {to:?} out of range {} → {}",
            src.len,
            self.len
        );
        let mut j = at;
        while j < to.end {
            let fits = (to.end - j).min(64 - j % 64);
            let i = from.start + (j - at);
            let (w, b) = (i / 64, i % 64);
            let high = match b {
                0 => 0,
                _ => src.words.get(w + 1).map_or(0, |next| next << (64 - b)),
            };
            let bits = (src.words[w] >> b | high) & u64::MAX >> (64 - fits);
            self.words[j / 64] |= bits << (j % 64);
            j += fits;
        }
    }

    /// Whether every index of `range` is present (an empty range always
    /// is), a word at a time.
    ///
    /// # Panics
    ///
    /// Panics if `range` reaches past the capacity.
    pub fn contains_range(&self, range: Range<usize>) -> bool {
        self.word_masks(range)
            .all(|(w, mask)| self.words[w] & mask == mask)
    }

    /// The words `range` touches, each with the mask of its bits in
    /// `range`.
    fn word_masks(&self, range: Range<usize>) -> impl Iterator<Item = (usize, u64)> {
        assert!(
            range.end <= self.len,
            "bit range {range:?} out of range {}",
            self.len
        );
        let Range { start, end } = range;
        let words = if start < end {
            start / 64..end.div_ceil(64)
        } else {
            0..0
        };
        words.map(move |w| {
            let (lo, hi) = (start.max(w * 64) - w * 64, end.min(w * 64 + 64) - w * 64);
            (w, u64::MAX >> (64 - (hi - lo)) << lo)
        })
    }

    /// Removes index `i`.
    pub fn remove(&mut self, i: usize) {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        self.words[i / 64] &= !(1u64 << (i % 64));
    }

    /// Whether index `i` is present.
    pub fn contains(&self, i: usize) -> bool {
        i < self.len && self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Number of set bits.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether no bit is set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// In-place union with `other`.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    pub fn union_with(&mut self, other: &BitSet) {
        assert_eq!(self.len, other.len, "bitset capacity mismatch");
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w |= o;
        }
    }

    /// In-place intersection with `other`.
    pub fn intersect_with(&mut self, other: &BitSet) {
        assert_eq!(self.len, other.len, "bitset capacity mismatch");
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w &= o;
        }
    }

    /// Whether `self ⊆ other`.
    pub fn is_subset(&self, other: &BitSet) -> bool {
        assert_eq!(self.len, other.len, "bitset capacity mismatch");
        self.words
            .iter()
            .zip(&other.words)
            .all(|(w, o)| w & !o == 0)
    }

    /// Sets all bits in `0..capacity`.
    pub fn fill(&mut self) {
        for w in self.words.iter_mut() {
            *w = u64::MAX;
        }
        let rem = self.len % 64;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }

    /// Clears all bits.
    pub fn clear(&mut self) {
        for w in self.words.iter_mut() {
            *w = 0;
        }
    }

    /// Inverts all bits in `0..capacity`.
    pub fn invert(&mut self) {
        for w in self.words.iter_mut() {
            *w = !*w;
        }
        let rem = self.len % 64;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }

    /// The smallest index in `0..capacity` that is **not** set, or `None`
    /// when every index is set (including the empty-capacity case).
    ///
    /// This is the counterexample probe of validity checks: a formula's
    /// point set is valid iff it has no unset index.
    pub fn first_unset(&self) -> Option<usize> {
        for (wi, &w) in self.words.iter().enumerate() {
            if w != u64::MAX {
                let i = wi * 64 + (!w).trailing_zeros() as usize;
                // Bits at or beyond `len` are always zero, so an unset
                // index past the capacity means the set is full.
                return (i < self.len).then_some(i);
            }
        }
        None
    }

    /// Iterates over set indices in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let tz = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(wi * 64 + tz)
                }
            })
        })
    }
}

impl fmt::Debug for BitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut s = BitSet::new(130);
        s.insert(0);
        s.insert(129);
        assert!(s.contains(0));
        assert!(s.contains(129));
        assert!(!s.contains(64));
        s.remove(0);
        assert!(!s.contains(0));
        assert_eq!(s.count(), 1);
    }

    #[test]
    fn union_and_intersection() {
        let mut a = BitSet::new(70);
        let mut b = BitSet::new(70);
        a.insert(1);
        a.insert(65);
        b.insert(65);
        b.insert(2);
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.count(), 3);
        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i.iter().collect::<Vec<_>>(), vec![65]);
    }

    #[test]
    fn subset_relation() {
        let mut a = BitSet::new(10);
        let mut b = BitSet::new(10);
        a.insert(3);
        b.insert(3);
        b.insert(7);
        assert!(a.is_subset(&b));
        assert!(!b.is_subset(&a));
        assert!(BitSet::new(10).is_subset(&a));
    }

    #[test]
    fn invert_respects_capacity() {
        let mut s = BitSet::new(70);
        s.insert(1);
        s.invert();
        assert!(!s.contains(1));
        assert_eq!(s.count(), 69);
        s.invert();
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn fill_respects_capacity() {
        let mut s = BitSet::new(67);
        s.fill();
        assert_eq!(s, BitSet::full(67));
        assert_eq!(s.count(), 67);
        assert!(!s.contains(67));
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    fn first_unset_probes_validity() {
        let mut s = BitSet::new(70);
        s.fill();
        assert_eq!(s.first_unset(), None, "full set has no counterexample");
        s.remove(65);
        assert_eq!(s.first_unset(), Some(65));
        s.remove(3);
        assert_eq!(s.first_unset(), Some(3), "smallest unset index wins");
        assert_eq!(BitSet::new(0).first_unset(), None);
        assert_eq!(BitSet::new(64).first_unset(), Some(0));
    }

    #[test]
    fn iter_order() {
        let mut s = BitSet::new(200);
        for i in [199, 0, 63, 64, 128] {
            s.insert(i);
        }
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 63, 64, 128, 199]);
    }

    #[test]
    fn from_fn_matches_inserts() {
        for len in [0, 1, 63, 64, 65, 200] {
            let mut s = BitSet::new(len);
            let keep = |i: usize| i.is_multiple_of(3) || i == 63;
            (0..len).filter(|i| keep(*i)).for_each(|i| s.insert(i));
            assert_eq!(BitSet::from_fn(len, keep), s, "len {len}");
        }
    }

    #[test]
    fn insert_range_matches_inserts() {
        let mut s = BitSet::new(200);
        (60..130).for_each(|i| s.insert(i));
        let mut r = BitSet::new(200);
        r.insert_range(60..130);
        r.insert_range(7..7);
        assert_eq!(r, s);
    }

    /// Every range within a capacity.
    fn ranges(len: usize) -> impl Iterator<Item = Range<usize>> {
        (0..=len).flat_map(move |a| (a..=len).map(move |b| a..b))
    }

    #[test]
    fn range_primitives_match_the_per_bit_reference() {
        // Every range of every capacity up to two words and two bits.
        for len in 0..=130 {
            for range in ranges(len) {
                let mut set = BitSet::new(len);
                set.insert_range(range.clone());
                let expected = BitSet::from_fn(len, |i| range.contains(&i));
                assert_eq!(set, expected, "{len} {range:?}");
            }
            // Empty, full, full but for three bits whose gaps cross word
            // boundaries, and every third bit.
            let holes = [5, 70, 129];
            let bases = [
                BitSet::new(len),
                BitSet::from_fn(len, |_| true),
                BitSet::from_fn(len, |i| !holes.contains(&i)),
                BitSet::from_fn(len, |i| i % 3 == 0),
            ];
            for (base, range) in bases.iter().flat_map(|b| ranges(len).map(move |r| (b, r))) {
                let expected = range.clone().all(|i| base.contains(i));
                assert_eq!(
                    base.contains_range(range.clone()),
                    expected,
                    "{base:?} {range:?}"
                );
            }
        }
    }

    #[test]
    fn insert_shifted_matches_the_per_bit_reference() {
        let src = BitSet::from_fn(130, |i| i % 3 == 0 || (60..70).contains(&i));
        for from in ranges(130) {
            let ats = [0, 1, 63, 64, 65, 127, 130 - from.len()];
            for at in ats.into_iter().filter(|at| at + from.len() <= 130) {
                let mut set = BitSet::new(130);
                set.insert(at.saturating_sub(1));
                let mut expected = set.clone();
                set.insert_shifted(&src, from.clone(), at);
                for i in from.clone().filter(|i| src.contains(*i)) {
                    expected.insert(at + i - from.start);
                }
                assert_eq!(set, expected, "{from:?} at {at}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "bit range 3..6 out of range 5")]
    fn out_of_range_contains_range_panics() {
        let _ = BitSet::new(5).contains_range(3..6);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_insert_panics() {
        let mut s = BitSet::new(5);
        s.insert(5);
    }

    #[test]
    fn debug_format() {
        let mut s = BitSet::new(8);
        s.insert(2);
        assert_eq!(format!("{s:?}"), "{2}");
    }
}
