//! Failure patterns `(N, F)` (Section 3): which agents are faulty and
//! which messages are lost. A pattern carries no failure model; the
//! context's [`FailureModel`](super::FailureModel) judges it when a run
//! is admitted (`admit_scenario`).

use std::fmt;

use crate::types::{AgentId, AgentSet, EbaError, Params};

/// A failure pattern `(N, F)` from Section 3 of the paper.
///
/// `N` is the set of nonfaulty agents, and `F(m, i, j)` says whether the
/// message sent from `i` to `j` in round `m + 1` is delivered. Every
/// pattern has `|Agt − N| ≤ t` and drops only messages with a faulty
/// endpoint; which of those drops a run may face is the context's
/// failure model's decision, checked by
/// [`FailureModel::admits_pattern_up_to`](super::FailureModel::admits_pattern_up_to)
/// at admission.
///
/// Drops are stored sparsely per round; rounds beyond the recorded horizon
/// deliver everything.
///
/// ```
/// use eba_core::prelude::*;
///
/// # fn main() -> Result<(), EbaError> {
/// let params = Params::new(4, 1)?;
/// let faulty = AgentSet::singleton(AgentId::new(0));
/// let mut pat = FailurePattern::new(params, faulty.complement(4))?;
/// pat.drop_message(1, AgentId::new(0), AgentId::new(2))?;
/// assert!(pat.delivers(1, AgentId::new(0), AgentId::new(1)));
/// assert!(!pat.delivers(1, AgentId::new(0), AgentId::new(2)));
/// // No model drops a message between two nonfaulty agents:
/// assert!(pat.drop_message(0, AgentId::new(1), AgentId::new(2)).is_err());
/// // A receive-side drop is recorded; only GO(t) admits it.
/// pat.drop_message(0, AgentId::new(1), AgentId::new(0))?;
/// assert!(FailureModel::GeneralOmission.admits_pattern(&pat).is_ok());
/// assert!(FailureModel::SendingOmission.admits_pattern(&pat).is_err());
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct FailurePattern {
    params: Params,
    nonfaulty: AgentSet,
    /// `drops[m * n + from]` = the receivers whose round-`(m+1)` message
    /// from `from` is dropped. Grows on demand, and only when a row
    /// drops something: the derived `Eq` and `Hash` see its length.
    drops: Vec<AgentSet>,
}

impl FailurePattern {
    /// Creates a pattern with the given nonfaulty set and no drops.
    ///
    /// # Errors
    ///
    /// Returns [`EbaError::InvalidPattern`] if more than `t` agents are
    /// faulty or `nonfaulty` mentions agents outside `0..n`.
    pub fn new(params: Params, nonfaulty: AgentSet) -> Result<Self, EbaError> {
        if !nonfaulty.is_subset(AgentSet::full(params.n())) {
            return Err(EbaError::InvalidPattern(format!(
                "nonfaulty set {nonfaulty} mentions agents outside 0..{}",
                params.n()
            )));
        }
        let faulty_count = params.n() - nonfaulty.len();
        if faulty_count > params.t() {
            return Err(EbaError::InvalidPattern(format!(
                "{faulty_count} faulty agents exceeds t = {}",
                params.t()
            )));
        }
        Ok(FailurePattern {
            params,
            nonfaulty,
            drops: Vec::new(),
        })
    }

    /// The failure-free pattern: all agents nonfaulty, no drops. It is
    /// admissible in every model.
    pub fn failure_free(params: Params) -> Self {
        FailurePattern {
            params,
            nonfaulty: AgentSet::full(params.n()),
            drops: Vec::new(),
        }
    }

    /// The instance parameters.
    pub fn params(&self) -> Params {
        self.params
    }

    /// The set `N` of nonfaulty agents.
    pub fn nonfaulty(&self) -> AgentSet {
        self.nonfaulty
    }

    /// The set `Agt − N` of faulty agents.
    pub fn faulty(&self) -> AgentSet {
        self.nonfaulty.complement(self.params.n())
    }

    /// Whether `agent` is faulty in this pattern.
    pub fn is_faulty(&self, agent: AgentId) -> bool {
        !self.nonfaulty.contains(agent)
    }

    /// Whether the message from `from` to `to` sent in round `m + 1` is
    /// delivered (`F(m, from, to)` in the paper's notation).
    pub fn delivers(&self, m: u32, from: AgentId, to: AgentId) -> bool {
        !self.dropped(m, from).contains(to)
    }

    /// The receivers whose round-`(m + 1)` message from `from` is
    /// dropped: one row of `F`, read at once.
    pub fn dropped(&self, m: u32, from: AgentId) -> AgentSet {
        let idx = m as usize * self.params.n() + from.index();
        self.drops.get(idx).copied().unwrap_or_default()
    }

    /// Drops the message from `from` to `to` in round `m + 1`. Whether
    /// a model admits the drop (a receive-side drop is general-omission
    /// only; crashes constrain whole rounds) is checked at admission.
    ///
    /// # Errors
    ///
    /// Returns [`EbaError::InvalidPattern`] if both endpoints are
    /// nonfaulty: no model drops such a message.
    pub fn drop_message(&mut self, m: u32, from: AgentId, to: AgentId) -> Result<(), EbaError> {
        self.drop_row(m, from, AgentSet::singleton(to))
    }

    /// Drops the messages from `from` to every agent of `to` in round
    /// `m + 1`, writing the row once; an empty `to` records nothing.
    ///
    /// # Errors
    ///
    /// Returns [`EbaError::InvalidPattern`], recording nothing, if `from`
    /// and some receiver in `to` are both nonfaulty.
    pub fn drop_row(&mut self, m: u32, from: AgentId, to: AgentSet) -> Result<(), EbaError> {
        if !self.is_faulty(from) {
            if let Some(to) = to.intersection(self.nonfaulty).iter().next() {
                return Err(EbaError::InvalidPattern(format!(
                    "cannot drop a message between nonfaulty agents {from} and {to}"
                )));
            }
        }
        if to.is_empty() {
            return Ok(());
        }
        let idx = m as usize * self.params.n() + from.index();
        if idx >= self.drops.len() {
            self.drops.resize(idx + 1, AgentSet::empty());
        }
        self.drops[idx] = self.drops[idx].union(to);
        Ok(())
    }

    /// Makes room for the rows of rounds `1..=rounds` at once, so a
    /// sampler writing them in order moves the drops at most once.
    pub(super) fn reserve_rounds(&mut self, rounds: u32) {
        let rows = rounds as usize * self.params.n();
        self.drops
            .reserve_exact(rows.saturating_sub(self.drops.len()));
    }

    /// Drops every message `from` sends in rounds `m + 1` for
    /// `m ∈ rounds`, to every agent other than itself, and also to itself
    /// when `include_self` is set.
    ///
    /// # Errors
    ///
    /// Returns [`EbaError::InvalidPattern`] if `from` and one of the
    /// receivers are both nonfaulty.
    pub fn silence_agent(
        &mut self,
        from: AgentId,
        rounds: std::ops::Range<u32>,
        include_self: bool,
    ) -> Result<(), EbaError> {
        let mut to = AgentSet::full(self.params.n());
        if !include_self {
            to.remove(from);
        }
        rounds
            .into_iter()
            .try_for_each(|m| self.drop_row(m, from, to))
    }

    /// The recorded drops as `(round, from, to)` triples, in that
    /// lexicographic order.
    pub fn drops(&self) -> impl Iterator<Item = (u32, AgentId, AgentId)> + '_ {
        let n = self.params.n();
        self.drops.iter().enumerate().flat_map(move |(idx, &row)| {
            let (m, from) = ((idx / n) as u32, AgentId::new(idx % n));
            row.iter().map(move |to| (m, from, to))
        })
    }

    /// Total number of dropped (round, from, to) triples recorded.
    pub fn count_drops(&self) -> usize {
        self.drops.iter().map(|row| row.len()).sum()
    }

    /// The last round index with any recorded drop, plus one (0 if none).
    /// Rounds at or beyond this horizon deliver everything.
    pub fn drop_horizon(&self) -> u32 {
        let n = self.params.n();
        let mut horizon = 0;
        for (idx, row) in self.drops.iter().enumerate() {
            if !row.is_empty() {
                horizon = horizon.max((idx / n) as u32 + 1);
            }
        }
        horizon
    }
}

impl fmt::Debug for FailurePattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "FailurePattern {{ n: {}, t: {}, faulty: {}, drops: {} }}",
            self.params.n(),
            self.params.t(),
            self.faulty(),
            self.count_drops()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failures::FailureModel;

    fn params() -> Params {
        Params::new(4, 2).unwrap()
    }

    fn a(i: usize) -> AgentId {
        AgentId::new(i)
    }

    #[test]
    fn failure_free_delivers_everything() {
        let pat = FailurePattern::failure_free(params());
        for m in 0..10 {
            for i in 0..4 {
                for j in 0..4 {
                    assert!(pat.delivers(m, a(i), a(j)));
                }
            }
        }
        assert_eq!(pat.count_drops(), 0);
        assert_eq!(pat.faulty(), AgentSet::empty());
    }

    #[test]
    fn rejects_too_many_faulty() {
        let nf = AgentSet::singleton(a(0)); // 3 faulty > t = 2
        assert!(FailurePattern::new(params(), nf).is_err());
    }

    #[test]
    fn faulty_without_drops_is_allowed() {
        // Footnote 3: faulty agents may exhibit no faulty behavior.
        let nf: AgentSet = [1, 2, 3].into_iter().map(a).collect();
        let pat = FailurePattern::new(params(), nf).unwrap();
        assert!(pat.is_faulty(a(0)));
        assert_eq!(pat.count_drops(), 0);
        assert!(FailureModel::Crash.admits_pattern(&pat).is_ok());
    }

    #[test]
    fn general_omission_admits_receive_side_drops() {
        let nf: AgentSet = [1, 2, 3].into_iter().map(a).collect();
        let mut pat = FailurePattern::new(params(), nf).unwrap();
        // Receive side: nonfaulty 1 → faulty 0 is recorded; GO(t) admits
        // it and SO(t) does not.
        pat.drop_message(0, a(1), a(0)).unwrap();
        assert!(FailureModel::GeneralOmission.admits_pattern(&pat).is_ok());
        let err = FailureModel::SendingOmission
            .admits_pattern(&pat)
            .unwrap_err();
        assert!(err.to_string().contains("does not admit dropping"), "{err}");
        // No model admits drops between two nonfaulty agents.
        let err = pat.drop_message(0, a(1), a(2)).unwrap_err();
        assert!(err.to_string().contains("nonfaulty agents"), "{err}");
    }

    #[test]
    fn failure_free_model_admits_no_drops_or_faulty_sets() {
        let nf: AgentSet = [1, 2, 3].into_iter().map(a).collect();
        let mut pat = FailurePattern::new(params(), nf).unwrap();
        let err = FailureModel::FailureFree.admits_pattern(&pat).unwrap_err();
        assert!(err.to_string().contains("no faulty agents"), "{err}");
        pat.drop_message(0, a(0), a(1)).unwrap();
        assert!(FailureModel::FailureFree.admits_pattern(&pat).is_err());
        // With everyone nonfaulty there is nothing to drop.
        let mut free = FailurePattern::failure_free(params());
        assert!(free.drop_message(0, a(0), a(1)).is_err());
    }

    #[test]
    fn drop_respects_sending_omission_constraint() {
        let nf: AgentSet = [1, 2, 3].into_iter().map(a).collect();
        let mut pat = FailurePattern::new(params(), nf).unwrap();
        assert!(pat.drop_message(0, a(0), a(1)).is_ok());
        assert!(pat.drop_message(0, a(1), a(2)).is_err());
        assert!(!pat.delivers(0, a(0), a(1)));
        assert!(pat.delivers(0, a(0), a(2)));
        assert!(pat.delivers(1, a(0), a(1)));
        assert!(FailureModel::SendingOmission.admits_pattern(&pat).is_ok());
    }

    #[test]
    fn silence_agent_drops_all_rounds() {
        let nf: AgentSet = [1, 2, 3].into_iter().map(a).collect();
        let mut pat = FailurePattern::new(params(), nf).unwrap();
        pat.silence_agent(a(0), 0..3, false).unwrap();
        for m in 0..3 {
            for j in 1..4 {
                assert!(!pat.delivers(m, a(0), a(j)));
            }
            // Self-delivery kept when include_self = false.
            assert!(pat.delivers(m, a(0), a(0)));
        }
        assert!(pat.delivers(3, a(0), a(1)));
        assert_eq!(pat.count_drops(), 9);
        assert_eq!(pat.drop_horizon(), 3);
    }

    #[test]
    fn drops_lists_exactly_what_delivers_refuses() {
        let nf: AgentSet = [2, 3].into_iter().map(a).collect();
        let mut pat = FailurePattern::new(params(), nf).unwrap();
        for (m, from, to) in [
            (3, 1, 3),
            (0, 2, 0),
            (0, 0, 3),
            (1, 1, 1),
            (0, 0, 1),
            (3, 0, 2),
        ] {
            pat.drop_message(m, a(from), a(to)).unwrap();
        }
        let mut scan = Vec::new();
        for m in 0..pat.drop_horizon() {
            for from in params().agents() {
                for to in params().agents() {
                    if !pat.delivers(m, from, to) {
                        scan.push((m, from, to));
                    }
                }
            }
        }
        assert_eq!(pat.drops().collect::<Vec<_>>(), scan);
        assert_eq!(pat.drops().count(), pat.count_drops());
        assert_eq!(FailurePattern::failure_free(params()).drops().count(), 0);
    }

    #[test]
    fn debug_output_mentions_faulty_set() {
        let nf: AgentSet = [1, 2, 3].into_iter().map(a).collect();
        let pat = FailurePattern::new(params(), nf).unwrap();
        let s = format!("{pat:?}");
        assert!(s.contains("a0"));
    }
}
