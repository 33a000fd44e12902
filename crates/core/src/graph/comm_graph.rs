//! The communication-graph data structure.

use std::borrow::Borrow;
use std::fmt;

use crate::types::{AgentId, Value};

use super::{EdgeLabel, PrefLabel};

/// Labels per `u64` word: 2 bits each.
const LABELS_PER_WORD: usize = 32;
/// The low bit of every 2-bit symbol in a word.
const LOW_BITS: u64 = 0x5555_5555_5555_5555;

/// A communication graph `G_{i,m}`: agent `i`'s compact view of the message
/// pattern up to time `m` under the full-information exchange.
///
/// Vertices are pairs `(agent, time)` with `time ≤ m`. For every round
/// `m' ∈ 1..=m` and ordered agent pair `(from, to)` there is an edge
/// `(from, m'-1) → (to, m')` carrying an [`EdgeLabel`]; every agent has a
/// [`PrefLabel`] (a label on its time-0 vertex).
///
/// Labels are stored as the wire format stores them: 2-bit symbols
/// ([`EdgeLabel::bits`], [`PrefLabel::bits`]) packed 32 to a word, low
/// bits first — `⌈n/32⌉` preference words, then `⌈time·n²/32⌉` edge words
/// indexed `(round - 1) * n² + from * n + to`. Padding bits are always
/// zero, so graphs with equal labels are `==` and hash alike, and merging
/// knowledge ([`EdgeLabel::merge`] label by label) is a word-wise OR.
///
/// ```
/// use eba_core::graph::{CommGraph, EdgeLabel, PrefLabel};
/// use eba_core::types::{AgentId, Value};
///
/// let g = CommGraph::initial(3, AgentId::new(1), Value::One);
/// assert_eq!(g.time(), 0);
/// assert_eq!(g.pref(AgentId::new(1)), PrefLabel::Known(Value::One));
/// assert_eq!(g.pref(AgentId::new(0)), PrefLabel::Unknown);
/// ```
#[derive(PartialEq, Eq, Hash)]
pub struct CommGraph {
    n: u16,
    time: u32,
    /// Preference words, then edge words.
    words: Vec<u64>,
}

/// By hand for `clone_from`, which copies into the target's own words.
impl Clone for CommGraph {
    fn clone(&self) -> Self {
        CommGraph {
            n: self.n,
            time: self.time,
            words: self.words.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        (self.n, self.time) = (source.n, source.time);
        self.words.clone_from(&source.words);
    }
}

/// The words that hold `labels` labels.
fn words_for(labels: usize) -> usize {
    labels.div_ceil(LABELS_PER_WORD)
}

/// The word of its section, and the shift within it, of label `idx`.
fn slot(idx: usize) -> (usize, usize) {
    (idx / LABELS_PER_WORD, 2 * (idx % LABELS_PER_WORD))
}

/// Edge label `idx` of the edge words.
fn label_at(edge_words: &[u64], idx: usize) -> EdgeLabel {
    let (word, shift) = slot(idx);
    EdgeLabel::from_bits(edge_words[word] >> shift & 0b11)
}

/// Whether a word holds the symbol `0b11`, which no label has: what two
/// known labels that disagree OR to.
fn has_invalid_symbol(word: u64) -> bool {
    word & (word >> 1) & LOW_BITS != 0
}

impl CommGraph {
    /// The graph `G_{i,0}`: agent `owner` knows only its own preference.
    pub fn initial(n: usize, owner: AgentId, init: Value) -> Self {
        assert!(owner.index() < n);
        let mut words = vec![0; words_for(n)];
        let (word, shift) = slot(owner.index());
        words[word] = PrefLabel::Known(init).bits() << shift;
        CommGraph {
            n: n as u16,
            time: 0,
            words,
        }
    }

    /// Reassembles a graph from its words ([`CommGraph::pref_words`]
    /// followed by [`CommGraph::edge_words`]), used by wire codecs. Padding
    /// bits are cleared.
    ///
    /// # Panics
    ///
    /// Panics if the word count is not that of an `(n, time)` graph or a
    /// label's symbol is `0b11`.
    pub fn from_words(n: usize, time: u32, words: impl IntoIterator<Item = u64>) -> CommGraph {
        let mut graph = CommGraph {
            n: n as u16,
            time,
            words: Vec::new(),
        };
        graph.read_words(n, time, words);
        graph
    }

    /// [`CommGraph::from_words`] into this graph, whatever graph it held:
    /// the words are written into its own word buffer.
    ///
    /// # Panics
    ///
    /// As [`CommGraph::from_words`].
    pub fn read_words(&mut self, n: usize, time: u32, words: impl IntoIterator<Item = u64>) {
        let edges = time as usize * n * n;
        (self.n, self.time) = (n as u16, time);
        self.words.clear();
        self.words.extend(words);
        assert_eq!(
            self.words.len(),
            words_for(n) + words_for(edges),
            "label word count"
        );
        let (pref_words, edge_words) = self.words.split_at_mut(words_for(n));
        for (section, labels, what) in [(pref_words, n, "preference"), (edge_words, edges, "edge")]
        {
            if let Some(last) = section.last_mut().filter(|_| slot(labels).1 != 0) {
                *last &= (1 << slot(labels).1) - 1;
            }
            let invalid = section.iter().any(|w| has_invalid_symbol(*w));
            assert!(!invalid, "invalid {what} label bits 3");
        }
    }

    /// The number of agents.
    pub fn n(&self) -> usize {
        self.n as usize
    }

    /// The time `m` of this graph (number of completed rounds).
    pub fn time(&self) -> u32 {
        self.time
    }

    /// The packed preference labels: label `agent` is bits
    /// `2·(agent % 32)..` of word `agent / 32`.
    pub fn pref_words(&self) -> &[u64] {
        &self.words[..words_for(self.n())]
    }

    /// The packed edge labels, laid out like the preference words over the
    /// index `(round - 1) * n² + from * n + to`.
    pub fn edge_words(&self) -> &[u64] {
        &self.words[words_for(self.n())..]
    }

    fn edge_index(&self, round: u32, from: AgentId, to: AgentId) -> usize {
        debug_assert!(
            round >= 1 && round <= self.time,
            "round {round} out of 1..={}",
            self.time
        );
        let n = self.n();
        (round as usize - 1) * n * n + from.index() * n + to.index()
    }

    fn edge_at(&self, idx: usize) -> EdgeLabel {
        label_at(self.edge_words(), idx)
    }

    /// The label of the edge `(from, round-1) → (to, round)`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `round` is not in `1..=time`.
    pub fn edge(&self, round: u32, from: AgentId, to: AgentId) -> EdgeLabel {
        self.edge_at(self.edge_index(round, from, to))
    }

    /// The labels of the `n` round-`round` edges into `to`, by sender: the
    /// column `edge(round, ·, to)`, located once.
    pub fn incoming(&self, round: u32, to: AgentId) -> impl Iterator<Item = EdgeLabel> + '_ {
        let (n, words) = (self.n(), self.edge_words());
        let first = self.edge_index(round, AgentId::new(0), to);
        (0..n).map(move |from| label_at(words, first + from * n))
    }

    /// Sets an edge label (merging with any existing knowledge).
    pub fn set_edge(&mut self, round: u32, from: AgentId, to: AgentId, label: EdgeLabel) {
        let (word, shift) = slot(self.edge_index(round, from, to));
        let at = words_for(self.n()) + word;
        self.words[at] |= label.bits() << shift;
        debug_assert!(
            !has_invalid_symbol(self.words[at]),
            "inconsistent edge labels from one run"
        );
    }

    /// The preference label of `agent`.
    pub fn pref(&self, agent: AgentId) -> PrefLabel {
        let (word, shift) = slot(agent.index());
        PrefLabel::from_bits(self.pref_words()[word] >> shift & 0b11)
    }

    /// Merges all knowledge from `other` into `self`.
    ///
    /// # Panics
    ///
    /// Panics if `other` covers more rounds than `self` or describes a
    /// different number of agents, and (in debug builds) if two known
    /// labels disagree, which cannot happen for graphs from a single run.
    pub fn merge_from(&mut self, other: &CommGraph) {
        assert_eq!(self.n, other.n, "agent-count mismatch in graph merge");
        assert!(
            other.time <= self.time,
            "cannot merge a newer graph (time {}) into time {}",
            other.time,
            self.time
        );
        let pref_words = words_for(self.n());
        // `other`'s word layout is a prefix of `self`'s.
        for (idx, (w, o)) in self.words.iter_mut().zip(&other.words).enumerate() {
            *w |= o;
            let what = if idx < pref_words {
                "preference"
            } else {
                "edge"
            };
            debug_assert!(
                !has_invalid_symbol(*w),
                "inconsistent {what} labels from one run"
            );
        }
    }

    /// The `δ` operation of the full-information exchange: writes into
    /// `next` the graph `G_{owner, m+1}` built from `G_{owner, m}` and the
    /// tuple of graphs received in round `m + 1` (entry `j` is the graph
    /// sent by agent `j`, `None` if no message arrived, which marks
    /// `j → owner` as omitted) — graphs, or messages that are graphs.
    /// `next` may hold any graph; it is overwritten in its own word
    /// buffer.
    ///
    /// # Panics
    ///
    /// Panics if `received.len()` differs from `n` or a received graph is
    /// not at time `m` (all agents are synchronous).
    pub fn receive_round<G: Borrow<CommGraph>>(
        &self,
        owner: AgentId,
        received: &[Option<&G>],
        next: &mut CommGraph,
    ) {
        let n = self.n();
        assert_eq!(received.len(), n, "expected one slot per agent");
        let time = self.time + 1;
        let len = words_for(n) + words_for(time as usize * n * n);
        (next.n, next.time) = (self.n, time);
        next.words.clear();
        next.words.reserve(len);
        next.words.extend_from_slice(&self.words);
        next.words.resize(len, 0);
        #[allow(clippy::needless_range_loop)] // j is a sender id, used both as index and AgentId
        for j in 0..n {
            let from = AgentId::new(j);
            match received[j].map(Borrow::borrow) {
                Some(g) => {
                    assert_eq!(g.time, self.time, "received a graph from a different round");
                    next.merge_from(g);
                    next.set_edge(time, from, owner, EdgeLabel::Delivered);
                }
                None => {
                    next.set_edge(time, from, owner, EdgeLabel::Dropped);
                }
            }
        }
    }

    /// The number of information bits in this graph: two bits per edge
    /// label and two per preference label (`{0, 1, ?}` fits in two bits).
    /// This is the `O(n² t)`-per-message / `O(n⁴ t²)`-per-run accounting
    /// that Section 8 compares against.
    pub fn size_bits(&self) -> u64 {
        let n = self.n() as u64;
        2 * (n + u64::from(self.time) * n * n)
    }

    /// Iterates over all `(round, from, to)` triples with a known label.
    pub fn known_edges(&self) -> impl Iterator<Item = (u32, AgentId, AgentId, EdgeLabel)> + '_ {
        let n = self.n();
        (0..self.time as usize * n * n).filter_map(move |idx| {
            let l = self.edge_at(idx);
            l.is_known().then(|| {
                let rem = idx % (n * n);
                let round = (idx / (n * n)) as u32 + 1;
                (round, AgentId::new(rem / n), AgentId::new(rem % n), l)
            })
        })
    }
}

impl fmt::Debug for CommGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "CommGraph(n={}, time={})", self.n, self.time)?;
        write!(f, "  prefs: [")?;
        for agent in AgentId::all(self.n()) {
            if agent.index() > 0 {
                write!(f, " ")?;
            }
            write!(f, "{}", self.pref(agent))?;
        }
        writeln!(f, "]")?;
        for round in 1..=self.time {
            write!(f, "  round {round}:")?;
            for from in AgentId::all(self.n()) {
                write!(f, " {from}→[")?;
                for to in AgentId::all(self.n()) {
                    write!(f, "{}", self.edge(round, from, to))?;
                }
                write!(f, "]")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_util::{fip_round, initial_graphs};
    use super::*;

    fn a(i: usize) -> AgentId {
        AgentId::new(i)
    }

    #[test]
    fn initial_graph_knows_only_own_pref() {
        let g = CommGraph::initial(4, a(2), Value::Zero);
        for i in 0..4 {
            if i == 2 {
                assert_eq!(g.pref(a(i)), PrefLabel::Known(Value::Zero));
            } else {
                assert_eq!(g.pref(a(i)), PrefLabel::Unknown);
            }
        }
        assert_eq!(g.size_bits(), 8);
    }

    #[test]
    fn failure_free_round_learns_everything() {
        let graphs = initial_graphs(&[Value::Zero, Value::One, Value::One]);
        let next = fip_round(&graphs, |_, _| true);
        for g in &next {
            assert_eq!(g.time(), 1);
            // Everyone knows all prefs after one failure-free round.
            assert_eq!(g.pref(a(0)), PrefLabel::Known(Value::Zero));
            assert_eq!(g.pref(a(1)), PrefLabel::Known(Value::One));
            // All incoming edges of every agent are labeled for the owner's
            // own row; other rows are known via relays only after round 2.
        }
        // Owner 0 knows its own incoming row.
        for from in 0..3 {
            assert_eq!(next[0].edge(1, a(from), a(0)), EdgeLabel::Delivered);
        }
        // Owner 0 cannot yet know what agent 1 received in round 1 (those
        // labels travel inside agent 1's round-2 message).
        assert_eq!(next[0].edge(1, a(2), a(1)), EdgeLabel::Unknown);
    }

    #[test]
    fn dropped_message_is_recorded_and_relayed() {
        let graphs = initial_graphs(&[Value::One, Value::One, Value::One]);
        // Agent 0 omits its round-1 message to agent 1 only.
        let r1 = fip_round(&graphs, |from, to| !(from == a(0) && to == a(1)));
        assert_eq!(r1[1].edge(1, a(0), a(1)), EdgeLabel::Dropped);
        assert_eq!(r1[2].edge(1, a(0), a(2)), EdgeLabel::Delivered);
        // Agent 2 does not yet know about the omission…
        assert_eq!(r1[2].edge(1, a(0), a(1)), EdgeLabel::Unknown);
        // …but learns it from agent 1's round-2 message.
        let r2 = fip_round(&r1, |_, _| true);
        assert_eq!(r2[2].edge(1, a(0), a(1)), EdgeLabel::Dropped);
        // And agent 1 learned 0's preference via agent 2's relay.
        assert_eq!(r2[1].pref(a(0)), PrefLabel::Known(Value::One));
    }

    #[test]
    fn merge_is_idempotent_and_monotone() {
        let graphs = initial_graphs(&[Value::Zero, Value::One, Value::One]);
        let r1 = fip_round(&graphs, |from, to| !(from == a(0) && to == a(1)));
        let mut merged = r1[1].clone();
        merged.merge_from(&graphs[2]); // older graph merges fine
        let again = {
            let mut m = merged.clone();
            m.merge_from(&graphs[2]);
            m
        };
        assert_eq!(merged, again, "merge must be idempotent");
        // Monotone: merging never erases knowledge.
        let known_before: Vec<_> = r1[1].known_edges().collect();
        for (round, from, to, label) in known_before {
            assert_eq!(merged.edge(round, from, to), label);
        }
    }

    #[test]
    #[should_panic(expected = "cannot merge a newer graph")]
    fn merge_rejects_newer_graph() {
        let graphs = initial_graphs(&[Value::One, Value::One]);
        let r1 = fip_round(&graphs, |_, _| true);
        let mut old = graphs[0].clone();
        old.merge_from(&r1[0]);
    }

    #[test]
    fn known_edges_enumeration() {
        let graphs = initial_graphs(&[Value::One, Value::One]);
        let r1 = fip_round(&graphs, |from, to| !(from == a(1) && to == a(0)));
        let known: Vec<_> = r1[0].known_edges().collect();
        // Agent 0 knows both of its incoming edges (one delivered, one dropped).
        assert_eq!(known.len(), 2);
        assert!(known.contains(&(1, a(0), a(0), EdgeLabel::Delivered)));
        assert!(known.contains(&(1, a(1), a(0), EdgeLabel::Dropped)));
    }

    #[test]
    fn size_bits_grows_quadratically_per_round() {
        let graphs = initial_graphs(&[Value::One; 5]);
        let r1 = fip_round(&graphs, |_, _| true);
        let r2 = fip_round(&r1, |_, _| true);
        assert_eq!(graphs[0].size_bits(), 2 * 5);
        assert_eq!(r1[0].size_bits(), 2 * (5 + 25));
        assert_eq!(r2[0].size_bits(), 2 * (5 + 50));
    }
}
