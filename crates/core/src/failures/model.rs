//! The pluggable failure-model axis: which drops an adversary may choose.
//!
//! The paper develops its optimality results for the *sending-omissions*
//! model `SO(t)` (Section 3) and repeatedly contrasts it with crash and
//! general-omission failures. [`FailureModel`] makes that contrast a
//! first-class, selectable axis of the context: a [`FailurePattern`] is
//! just `(N, F)`, and the context's model decides which patterns a run
//! may face — at admission, through
//! [`admits_pattern_up_to`](FailureModel::admits_pattern_up_to) — and
//! which choices the exhaustive enumeration in `eba-sim` and the
//! randomized `AdversarySampler` make.
//! [`FailureModel::SendingOmission`] is the default.
//!
//! The four models form a strict hierarchy of adversary power:
//!
//! | model | who may drop what |
//! |---|---|
//! | [`FailureFree`](FailureModel::FailureFree) | nobody drops anything; every agent is nonfaulty |
//! | [`Crash`](FailureModel::Crash) | a faulty sender delivers a subset of one round's messages, then nothing ever again |
//! | [`SendingOmission`](FailureModel::SendingOmission) | a faulty sender may drop any outgoing message, any round |
//! | [`GeneralOmission`](FailureModel::GeneralOmission) | any message *to or from* a faulty agent may be dropped |
//!
//! Every failure-free pattern is a crash pattern, every crash pattern is
//! a sending-omission pattern, and every sending-omission pattern is a
//! general-omission pattern, so the enumerated run sets of a context are
//! nested in the same order.

use std::fmt;

use crate::types::{subsets_up_to_size, AgentSet, EbaError, Params};

use super::FailurePattern;

/// A failure model: the rule deciding which message drops an adversary
/// may choose, given the faulty set.
///
/// The fault bound `t` always comes from [`Params`]; the model only fixes
/// the *kind* of misbehavior the up-to-`t` faulty agents may exhibit
/// (`SO(t)`, `CR(t)`, … in the paper's notation).
///
/// ```
/// use eba_core::prelude::*;
///
/// # fn main() -> Result<(), EbaError> {
/// assert_eq!(FailureModel::default(), FailureModel::SendingOmission);
/// assert_eq!(FailureModel::by_name("crash")?, FailureModel::Crash);
/// assert_eq!(FailureModel::Crash.suffix(), "@crash");
/// // Receive-side drops are a general-omission privilege:
/// assert!(!FailureModel::SendingOmission.admits_drop(false, true));
/// assert!(FailureModel::GeneralOmission.admits_drop(false, true));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash, Debug)]
pub enum FailureModel {
    /// No failures: every agent is nonfaulty and every message is
    /// delivered.
    FailureFree,
    /// Crash failures `CR(t)`: a faulty agent may deliver an arbitrary
    /// subset of its messages in one round (its crashing round) and must
    /// then stay silent — to everyone, itself included — forever.
    Crash,
    /// Sending omissions `SO(t)` — the paper's model and the default:
    /// only messages from faulty *senders* may be dropped, independently
    /// per (round, receiver).
    #[default]
    SendingOmission,
    /// General omissions `GO(t)`: any message with a faulty endpoint may
    /// be dropped — faulty receivers may lose messages from nonfaulty
    /// senders.
    GeneralOmission,
}

/// Canonical model names, in increasing adversary power, as accepted by
/// [`FailureModel::by_name`], the registry's `@model` suffixes, and the
/// experiments CLI's `--model` flag.
pub const MODEL_NAMES: [&str; 4] = [
    "failure_free",
    "crash",
    "sending_omission",
    "general_omission",
];

impl FailureModel {
    /// Parses a model name. Accepts the canonical [`MODEL_NAMES`] plus
    /// the short aliases `free`/`none`, `so`/`sending`/`omission`, and
    /// `go`/`general`.
    ///
    /// # Errors
    ///
    /// Returns [`EbaError::InvalidInput`] listing the canonical names.
    pub fn by_name(name: &str) -> Result<Self, EbaError> {
        match name {
            "failure_free" | "free" | "none" => Ok(FailureModel::FailureFree),
            "crash" => Ok(FailureModel::Crash),
            "sending_omission" | "sending" | "omission" | "so" => Ok(FailureModel::SendingOmission),
            "general_omission" | "general" | "go" => Ok(FailureModel::GeneralOmission),
            other => Err(EbaError::InvalidInput(format!(
                "unknown failure model {other:?}; known models: {}",
                MODEL_NAMES.join(", ")
            ))),
        }
    }

    /// The canonical name (an entry of [`MODEL_NAMES`]).
    pub fn name(self) -> &'static str {
        match self {
            FailureModel::FailureFree => MODEL_NAMES[0],
            FailureModel::Crash => MODEL_NAMES[1],
            FailureModel::SendingOmission => MODEL_NAMES[2],
            FailureModel::GeneralOmission => MODEL_NAMES[3],
        }
    }

    /// The registry suffix qualifying a stack name with this model:
    /// `"@crash"`, `"@general_omission"`, … — empty for the default
    /// [`SendingOmission`](FailureModel::SendingOmission), so default
    /// qualified names coincide with the pre-model stack names.
    pub fn suffix(self) -> &'static str {
        match self {
            FailureModel::FailureFree => "@failure_free",
            FailureModel::Crash => "@crash",
            FailureModel::SendingOmission => "",
            FailureModel::GeneralOmission => "@general_omission",
        }
    }

    /// Whether this model admits dropping a single message given the
    /// fault status of its endpoints.
    ///
    /// This is the *per-message* rule; [`Crash`](FailureModel::Crash)
    /// additionally imposes the cross-round crash discipline, checked by
    /// [`admits_pattern`](FailureModel::admits_pattern).
    pub fn admits_drop(self, sender_faulty: bool, receiver_faulty: bool) -> bool {
        match self {
            FailureModel::FailureFree => false,
            FailureModel::Crash | FailureModel::SendingOmission => sender_faulty,
            FailureModel::GeneralOmission => sender_faulty || receiver_faulty,
        }
    }

    /// Whether a faulty set is an admissible environment choice under
    /// this model: [`FailureFree`](FailureModel::FailureFree) requires
    /// every agent nonfaulty, every other model admits any set of at most
    /// `t` faulty agents (who may still act nonfaulty — footnote 3).
    pub fn admits_faulty_count(self, faulty: usize) -> bool {
        match self {
            FailureModel::FailureFree => faulty == 0,
            _ => true, // the `≤ t` bound holds for every `FailurePattern`
        }
    }

    /// Checks that a complete pattern is admissible under this model:
    /// every recorded drop satisfies [`admits_drop`](Self::admits_drop),
    /// the faulty set satisfies
    /// [`admits_faulty_count`](Self::admits_faulty_count), and — for
    /// [`Crash`](FailureModel::Crash) — once a sender drops any message
    /// it drops *all* messages in every later round up to the pattern's
    /// drop horizon.
    ///
    /// # Errors
    ///
    /// Returns [`EbaError::InvalidPattern`] naming the first offending
    /// drop (or the crash-discipline violation).
    pub fn admits_pattern(self, pattern: &FailurePattern) -> Result<(), EbaError> {
        self.admits_pattern_up_to(pattern, pattern.drop_horizon())
    }

    /// [`admits_pattern`](Self::admits_pattern) for a run of `horizon`
    /// rounds: additionally rejects, under [`Crash`](FailureModel::Crash),
    /// a pattern whose recorded silence ends before the run does — the
    /// pattern delivers everything beyond its
    /// [`drop_horizon`](FailurePattern::drop_horizon), so a "crashed"
    /// sender would revive in the uncovered rounds. Entry points that
    /// know the run length (the `Scenario` builder, the transport
    /// cluster) use this form.
    ///
    /// # Errors
    ///
    /// As [`admits_pattern`](Self::admits_pattern), plus the
    /// crash-revival case above.
    pub fn admits_pattern_up_to(
        self,
        pattern: &FailurePattern,
        horizon: u32,
    ) -> Result<(), EbaError> {
        let params = pattern.params();
        // Beyond the recorded drops every message is delivered, so any
        // crashed sender revives there; a crash pattern must record its
        // silence through the whole run.
        if self == FailureModel::Crash
            && horizon > pattern.drop_horizon()
            && pattern.count_drops() > 0
        {
            return Err(EbaError::InvalidPattern(format!(
                "the crash model requires crashed senders to stay silent \
                 through the whole run, but the pattern records drops only \
                 up to round {} of {horizon}",
                pattern.drop_horizon()
            )));
        }
        if !self.admits_faulty_count(pattern.faulty().len()) {
            return Err(EbaError::InvalidPattern(format!(
                "the {} model admits no faulty agents, but {} are faulty",
                self.name(),
                pattern.faulty()
            )));
        }
        let recorded = pattern.drop_horizon();
        for from in params.agents() {
            let mut crashed = false;
            for m in 0..recorded {
                for to in params.agents() {
                    if !pattern.delivers(m, from, to)
                        && !self.admits_drop(pattern.is_faulty(from), pattern.is_faulty(to))
                    {
                        return Err(EbaError::InvalidPattern(format!(
                            "the {} model does not admit dropping the round-{} \
                             message from {from} to {to}",
                            self.name(),
                            m + 1
                        )));
                    }
                }
                if self == FailureModel::Crash {
                    let dropped_any = params.agents().any(|to| !pattern.delivers(m, from, to));
                    let dropped_all = params.agents().all(|to| !pattern.delivers(m, from, to));
                    if crashed && !dropped_all {
                        return Err(EbaError::InvalidPattern(format!(
                            "the crash model requires {from} to stay silent after \
                             its first drop round, but it sends again in round {}",
                            m + 1
                        )));
                    }
                    if dropped_any {
                        crashed = true;
                    }
                }
            }
        }
        Ok(())
    }

    /// Convenience check used by doctests and examples: whether `other`'s
    /// adversaries are a subset of this model's (the hierarchy
    /// `FailureFree ⊆ Crash ⊆ SendingOmission ⊆ GeneralOmission`).
    pub fn includes(self, other: FailureModel) -> bool {
        self.rank() >= other.rank()
    }

    fn rank(self) -> u8 {
        match self {
            FailureModel::FailureFree => 0,
            FailureModel::Crash => 1,
            FailureModel::SendingOmission => 2,
            FailureModel::GeneralOmission => 3,
        }
    }

    /// The admissible nonfaulty sets under this model: only the full
    /// agent set for [`FailureFree`](FailureModel::FailureFree), every
    /// `N ⊆ Agt` with `|Agt − N| ≤ t` otherwise.
    ///
    /// A faulty set is a *choice of the environment*, independent of
    /// whether any message is actually dropped: runs in which a faulty
    /// agent acts nonfaulty are distinct from runs in which that agent is
    /// nonfaulty (footnote 3 of the paper), and both must appear in the
    /// interpreted system.
    ///
    /// ```
    /// use eba_core::failures::FailureModel;
    /// use eba_core::types::Params;
    ///
    /// let params = Params::new(3, 1).unwrap();
    /// // N = Agt, plus the three choices of one faulty agent.
    /// assert_eq!(FailureModel::SendingOmission.nonfaulty_choices(params).len(), 4);
    /// assert_eq!(FailureModel::FailureFree.nonfaulty_choices(params).len(), 1);
    /// ```
    pub fn nonfaulty_choices(self, params: Params) -> Vec<AgentSet> {
        let n = params.n();
        match self {
            FailureModel::FailureFree => vec![AgentSet::full(n)],
            _ => (subsets_up_to_size(n, params.t()).into_iter())
                .map(|faulty| faulty.complement(n))
                .collect(),
        }
    }
}

impl fmt::Display for FailureModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{AgentId, AgentSet};

    fn params() -> Params {
        Params::new(4, 2).unwrap()
    }

    fn a(i: usize) -> AgentId {
        AgentId::new(i)
    }

    #[test]
    fn names_round_trip() {
        for name in MODEL_NAMES {
            let model = FailureModel::by_name(name).unwrap();
            assert_eq!(model.name(), name);
            assert_eq!(model.to_string(), name);
        }
        assert!(FailureModel::by_name("byzantine").is_err());
    }

    #[test]
    fn aliases_parse() {
        assert_eq!(
            FailureModel::by_name("so").unwrap(),
            FailureModel::SendingOmission
        );
        assert_eq!(
            FailureModel::by_name("go").unwrap(),
            FailureModel::GeneralOmission
        );
        assert_eq!(
            FailureModel::by_name("free").unwrap(),
            FailureModel::FailureFree
        );
    }

    #[test]
    fn suffixes_keep_the_default_unqualified() {
        assert_eq!(FailureModel::SendingOmission.suffix(), "");
        assert_eq!(FailureModel::Crash.suffix(), "@crash");
    }

    #[test]
    fn hierarchy_is_a_chain() {
        use FailureModel::*;
        let chain = [FailureFree, Crash, SendingOmission, GeneralOmission];
        for (i, lo) in chain.iter().enumerate() {
            for hi in &chain[i..] {
                assert!(hi.includes(*lo), "{hi} should include {lo}");
            }
            for hi in &chain[..i] {
                assert!(!hi.includes(*lo), "{hi} should not include {lo}");
            }
        }
    }

    #[test]
    fn failure_free_admits_nothing() {
        let model = FailureModel::FailureFree;
        assert!(!model.admits_drop(true, true));
        assert!(!model.admits_faulty_count(1));
        assert_eq!(model.nonfaulty_choices(params()).len(), 1);
    }

    #[test]
    fn general_omission_admits_receive_side_drops() {
        assert!(FailureModel::GeneralOmission.admits_drop(false, true));
        assert!(!FailureModel::SendingOmission.admits_drop(false, true));
        assert!(!FailureModel::Crash.admits_drop(false, true));
    }

    #[test]
    fn admits_pattern_checks_crash_discipline() {
        let nf: AgentSet = [1, 2, 3].into_iter().map(a).collect();
        let crash = FailureModel::Crash;

        // A revive after a drop round is a sending omission but not a crash.
        let mut revived = FailurePattern::new(params(), nf).unwrap();
        revived.drop_message(0, a(0), a(2)).unwrap();
        revived.drop_message(1, a(0), a(1)).unwrap();
        assert!(FailureModel::SendingOmission
            .admits_pattern(&revived)
            .is_ok());
        let err = crash.admits_pattern(&revived).unwrap_err();
        assert!(err.to_string().contains("stay silent"), "{err}");

        // A partial crash round (some messages still sent) is a crash in
        // progress, and stays one when total silence follows.
        let mut partial = FailurePattern::new(params(), nf).unwrap();
        for to in [2, 3, 0] {
            partial.drop_message(0, a(0), a(to)).unwrap();
        }
        assert!(crash.admits_pattern(&partial).is_ok());
        partial.silence_agent(a(0), 1..3, true).unwrap();
        assert!(crash.admits_pattern(&partial).is_ok());

        // Terminal silence: everything in round 1, nothing after.
        let mut terminal = FailurePattern::new(params(), nf).unwrap();
        terminal.silence_agent(a(0), 1..4, true).unwrap();
        assert!(crash.admits_pattern(&terminal).is_ok());

        // Drop, deliver again, drop: an omission, not a crash.
        let mut omission = FailurePattern::new(params(), nf).unwrap();
        omission.drop_message(0, a(0), a(1)).unwrap();
        omission.drop_message(2, a(0), a(1)).unwrap();
        assert!(crash.admits_pattern(&omission).is_err());
        assert!(FailureModel::SendingOmission
            .admits_pattern(&omission)
            .is_ok());
    }

    #[test]
    fn admits_pattern_rejects_faulty_agents_under_failure_free() {
        let nf: AgentSet = [1, 2, 3].into_iter().map(a).collect();
        let clean_but_faulty = FailurePattern::new(params(), nf).unwrap();
        let err = FailureModel::FailureFree
            .admits_pattern(&clean_but_faulty)
            .unwrap_err();
        assert!(err.to_string().contains("no faulty agents"), "{err}");
        let free = FailurePattern::failure_free(params());
        assert!(FailureModel::FailureFree.admits_pattern(&free).is_ok());
    }

    #[test]
    fn every_model_admits_the_failure_free_pattern() {
        let free = FailurePattern::failure_free(params());
        for name in MODEL_NAMES {
            let model = FailureModel::by_name(name).unwrap();
            assert!(model.admits_pattern(&free).is_ok(), "{model}");
        }
    }
}
