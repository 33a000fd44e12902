//! Adversary constructors and randomized samplers, parameterized by
//! [`FailureModel`].

use rand::seq::IteratorRandom;
use rand::Rng;

use crate::types::{AgentId, AgentSet, EbaError, Params};

use super::{FailureModel, FailurePattern};

/// Builds the "silent adversary" of Example 7.1: every agent in `faulty`
/// sends no messages to other agents in rounds `1..=rounds` (self-delivery
/// is kept, so faulty agents still remember their own state; this does not
/// affect any other agent's view).
///
/// # Errors
///
/// Returns [`EbaError::InvalidPattern`] if `faulty` has more than `t`
/// members.
pub fn silent_pattern(
    params: Params,
    faulty: AgentSet,
    rounds: u32,
) -> Result<FailurePattern, EbaError> {
    let mut pat = FailurePattern::new(params, faulty.complement(params.n()))?;
    for agent in faulty.iter() {
        pat.silence_agent(agent, 0..rounds, false)?;
    }
    Ok(pat)
}

/// Builds the general-omission "isolation adversary": every message *to or
/// from* an agent in `faulty` is dropped in rounds `1..=rounds`
/// (self-delivery is kept). Nonfaulty agents neither hear from nor reach
/// the isolated agents — the receive-side counterpart of
/// [`silent_pattern`], admissible only under
/// [`FailureModel::GeneralOmission`].
///
/// # Errors
///
/// Returns [`EbaError::InvalidPattern`] if `faulty` has more than `t`
/// members.
pub fn isolation_pattern(
    params: Params,
    faulty: AgentSet,
    rounds: u32,
) -> Result<FailurePattern, EbaError> {
    let mut pat = FailurePattern::new(params, faulty.complement(params.n()))?;
    for m in 0..rounds {
        for from in params.agents() {
            for to in params.agents() {
                if from != to && (faulty.contains(from) || faulty.contains(to)) {
                    pat.drop_message(m, from, to)?;
                }
            }
        }
    }
    Ok(pat)
}

/// Builds a crash-from-the-start pattern: every agent in `faulty` crashes
/// before round 1, sending nothing — to anyone, itself included — in
/// rounds `1..=rounds`. Unlike [`silent_pattern`] (which keeps
/// self-delivery), the result satisfies the crash discipline checked by
/// [`FailureModel::Crash`]`::admits_pattern`.
///
/// # Errors
///
/// Returns [`EbaError::InvalidPattern`] if `faulty` has more than `t`
/// members.
pub fn crashed_from_start_pattern(
    params: Params,
    faulty: AgentSet,
    rounds: u32,
) -> Result<FailurePattern, EbaError> {
    let mut pat = FailurePattern::new(params, faulty.complement(params.n()))?;
    for agent in faulty.iter() {
        pat.silence_agent(agent, 0..rounds, true)?;
    }
    Ok(pat)
}

/// Builds a crash pattern: each agent in `faulty` crashes in round
/// `crash_round[k] + 1` (indexed by position in the faulty set's iteration
/// order), delivering a random subset of its messages in the crashing round
/// and nothing afterwards, up to `horizon` rounds.
///
/// # Errors
///
/// Returns [`EbaError::InvalidPattern`] if `faulty` has more than `t`
/// members or `crash_round.len() != faulty.len()`.
pub fn crash_pattern<R: Rng + ?Sized>(
    params: Params,
    faulty: AgentSet,
    crash_round: &[u32],
    horizon: u32,
    rng: &mut R,
) -> Result<FailurePattern, EbaError> {
    if crash_round.len() != faulty.len() {
        return Err(EbaError::InvalidInput(format!(
            "crash_round has {} entries for {} faulty agents",
            crash_round.len(),
            faulty.len()
        )));
    }
    let mut pat = FailurePattern::new(params, faulty.complement(params.n()))?;
    for (agent, &cr) in faulty.iter().zip(crash_round) {
        // During the crashing round the agent may send to an arbitrary
        // prefix-free subset of agents ("possibly after sending some
        // messages"); afterwards it sends nothing, including to itself.
        for to in params.agents() {
            if rng.random_bool(0.5) {
                pat.drop_message(cr, agent, to)?;
            }
        }
        if cr + 1 < horizon {
            pat.silence_agent(agent, cr + 1..horizon, true)?;
        }
    }
    Ok(pat)
}

/// A randomized adversary for any [`FailureModel`].
///
/// Samples a faulty set of size at most `t` (always empty under
/// [`FailureModel::FailureFree`]) and drops, over rounds `1..=horizon`,
/// whatever the model admits:
///
/// * `SendingOmission` — each message *from* a faulty agent,
///   independently with probability `drop_prob`;
/// * `GeneralOmission` — each message with a faulty endpoint,
///   independently with probability `drop_prob`;
/// * `Crash` — each faulty agent picks a uniform crashing round, drops
///   each of that round's messages with probability `drop_prob`, and is
///   silent (self included) afterwards;
/// * `FailureFree` — nothing, ever.
///
/// No coin is drawn for an agent's message to itself: it is dropped only
/// in the rounds after a crash.
///
/// ```
/// use eba_core::prelude::*;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), EbaError> {
/// let params = Params::new(6, 2)?;
/// let sampler = AdversarySampler::new(FailureModel::Crash, params, 5, 0.5);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let pat = sampler.sample(&mut rng);
/// assert!(pat.faulty().len() <= 2);
/// // Every sampled pattern is admissible in its model:
/// assert!(FailureModel::Crash.admits_pattern(&pat).is_ok());
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct AdversarySampler {
    model: FailureModel,
    params: Params,
    horizon: u32,
    drop_prob: f64,
}

impl AdversarySampler {
    /// Creates a sampler for `model` over rounds `1..=horizon` with the
    /// given per-message drop probability.
    ///
    /// # Panics
    ///
    /// Panics if `drop_prob` is not within `[0, 1]`.
    pub fn new(model: FailureModel, params: Params, horizon: u32, drop_prob: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&drop_prob),
            "drop probability {drop_prob} outside [0, 1]"
        );
        AdversarySampler {
            model,
            params,
            horizon,
            drop_prob,
        }
    }

    /// The failure model this sampler draws adversaries from.
    pub fn model(&self) -> FailureModel {
        self.model
    }

    /// Samples a failure pattern. The faulty set size is uniform in
    /// `0..=t` (always 0 under [`FailureModel::FailureFree`]); faulty
    /// membership is uniform among agents.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> FailurePattern {
        if self.model == FailureModel::FailureFree {
            return self.sample_with_faulty(AgentSet::empty(), rng);
        }
        let k = rng.random_range(0..=self.params.t());
        let faulty: AgentSet = self
            .params
            .agents()
            .choose_multiple(rng, k)
            .into_iter()
            .collect();
        self.sample_with_faulty(faulty, rng)
    }

    /// Samples drops for a fixed faulty set.
    ///
    /// One coin is drawn per droppable message, in `(round, sender,
    /// receiver)` order (under `Crash`, sender by sender: its crashing
    /// round, then that round's coins), and each `(round, sender)` row is
    /// written once, with [`FailurePattern::drop_row`].
    ///
    /// # Panics
    ///
    /// Panics if `faulty` has more than `t` members (an internal contract
    /// violation; use [`FailurePattern::new`] for fallible construction).
    /// Under [`FailureModel::FailureFree`] nothing is dropped, and the
    /// model rejects a nonempty `faulty` at admission.
    pub fn sample_with_faulty<R: Rng + ?Sized>(
        &self,
        faulty: AgentSet,
        rng: &mut R,
    ) -> FailurePattern {
        let n = self.params.n();
        let mut pat = FailurePattern::new(self.params, faulty.complement(n))
            .expect("at most t faulty agents");
        if faulty.is_empty() {
            return pat;
        }
        pat.reserve_rounds(self.horizon);
        // The row of `from`'s messages to `to` that the coins drop, one
        // bit per coin (a coin is data, not a branch); no coin is drawn
        // for a message to itself.
        let coins = |rng: &mut R, from: AgentId, to: AgentSet| -> AgentSet {
            let row = to.iter().filter(|&to| to != from).fold(0, |row, to| {
                row | u128::from(rng.random_bool(self.drop_prob)) << to.index()
            });
            AgentSet::from_bits(row)
        };
        let everyone = AgentSet::full(n);
        let mut write = |m: u32, from: AgentId, row: AgentSet| {
            pat.drop_row(m, from, row).expect("endpoint is faulty");
        };
        match self.model {
            FailureModel::FailureFree => {}
            FailureModel::SendingOmission => {
                for m in 0..self.horizon {
                    for from in faulty.iter() {
                        write(m, from, coins(rng, from, everyone));
                    }
                }
            }
            FailureModel::GeneralOmission => {
                for m in 0..self.horizon {
                    for from in self.params.agents() {
                        let to = if faulty.contains(from) {
                            everyone
                        } else {
                            faulty
                        };
                        write(m, from, coins(rng, from, to));
                    }
                }
            }
            FailureModel::Crash if self.horizon > 0 => {
                for from in faulty.iter() {
                    let cr = rng.random_range(0..self.horizon);
                    write(cr, from, coins(rng, from, everyone));
                    for m in cr + 1..self.horizon {
                        write(m, from, everyone);
                    }
                }
            }
            // Zero rounds to crash in: like the other models at
            // horizon 0, nothing is ever dropped.
            FailureModel::Crash => {}
        }
        pat
    }
}

/// Samples a uniformly random faulty set of exactly `k` agents.
///
/// # Panics
///
/// Panics if `k > n`.
pub fn random_faulty_set<R: Rng + ?Sized>(params: Params, k: usize, rng: &mut R) -> AgentSet {
    assert!(k <= params.n());
    params
        .agents()
        .choose_multiple(rng, k)
        .into_iter()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn params() -> Params {
        Params::new(5, 2).unwrap()
    }

    #[test]
    fn silent_pattern_blocks_everything_but_self() {
        let faulty: AgentSet = [0, 1].into_iter().map(AgentId::new).collect();
        let pat = silent_pattern(params(), faulty, 4).unwrap();
        for m in 0..4 {
            for f in faulty.iter() {
                for to in params().agents() {
                    assert_eq!(pat.delivers(m, f, to), to == f);
                }
            }
            // Nonfaulty senders unaffected.
            assert!(pat.delivers(m, AgentId::new(2), AgentId::new(3)));
        }
    }

    #[test]
    fn silent_pattern_rejects_oversized_faulty_set() {
        let faulty: AgentSet = [0, 1, 2].into_iter().map(AgentId::new).collect();
        assert!(silent_pattern(params(), faulty, 3).is_err());
    }

    #[test]
    fn isolation_pattern_cuts_both_directions() {
        let faulty = AgentSet::singleton(AgentId::new(0));
        let pat = isolation_pattern(params(), faulty, 3).unwrap();
        for m in 0..3 {
            // Send side and receive side both cut; self-delivery kept.
            assert!(!pat.delivers(m, AgentId::new(0), AgentId::new(1)));
            assert!(!pat.delivers(m, AgentId::new(1), AgentId::new(0)));
            assert!(pat.delivers(m, AgentId::new(0), AgentId::new(0)));
            // Nonfaulty ↔ nonfaulty untouched.
            assert!(pat.delivers(m, AgentId::new(1), AgentId::new(2)));
        }
        assert!(FailureModel::GeneralOmission.admits_pattern(&pat).is_ok());
        assert!(FailureModel::SendingOmission.admits_pattern(&pat).is_err());
    }

    #[test]
    fn crashed_from_start_is_crash_disciplined() {
        let faulty = AgentSet::singleton(AgentId::new(1));
        let pat = crashed_from_start_pattern(params(), faulty, 4).unwrap();
        for m in 0..4 {
            for to in params().agents() {
                assert!(!pat.delivers(m, AgentId::new(1), to));
            }
        }
        assert!(FailureModel::Crash.admits_pattern(&pat).is_ok());
    }

    #[test]
    fn omission_sampler_respects_t_and_prob_bounds() {
        let mut rng = StdRng::seed_from_u64(42);
        let sampler = AdversarySampler::new(FailureModel::SendingOmission, params(), 4, 0.3);
        for _ in 0..200 {
            let pat = sampler.sample(&mut rng);
            assert!(pat.faulty().len() <= 2);
            // Every drop comes from a faulty sender.
            for m in 0..4 {
                for from in params().agents() {
                    for to in params().agents() {
                        if !pat.delivers(m, from, to) {
                            assert!(pat.is_faulty(from));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn omission_sampler_extremes() {
        let mut rng = StdRng::seed_from_u64(1);
        let faulty = AgentSet::singleton(AgentId::new(0));

        let sampler =
            |prob| AdversarySampler::new(FailureModel::SendingOmission, params(), 3, prob);
        let never = sampler(0.0);
        assert_eq!(never.sample_with_faulty(faulty, &mut rng).count_drops(), 0);

        let always = sampler(1.0);
        let pat = always.sample_with_faulty(faulty, &mut rng);
        // 4 receivers (self excluded) × 3 rounds.
        assert_eq!(pat.count_drops(), 12);
    }

    #[test]
    fn adversary_sampler_stays_admissible_in_every_model() {
        let mut rng = StdRng::seed_from_u64(0xEBA);
        for model in [
            FailureModel::FailureFree,
            FailureModel::Crash,
            FailureModel::SendingOmission,
            FailureModel::GeneralOmission,
        ] {
            let sampler = AdversarySampler::new(model, params(), 4, 0.5);
            for _ in 0..100 {
                let pat = sampler.sample(&mut rng);
                assert!(
                    model.admits_pattern(&pat).is_ok(),
                    "{model}: {pat:?} inadmissible"
                );
            }
        }
    }

    #[test]
    fn crash_samples_stay_silent_after_their_first_drop_round() {
        let mut rng = StdRng::seed_from_u64(7);
        let sampler = AdversarySampler::new(FailureModel::Crash, params(), 5, 0.6);
        for _ in 0..200 {
            let pat = sampler.sample(&mut rng);
            let horizon = pat.drop_horizon();
            for from in params().agents() {
                let mut dropped_before = false;
                for m in 0..horizon {
                    let all = params().agents().all(|to| !pat.delivers(m, from, to));
                    let any = params().agents().any(|to| !pat.delivers(m, from, to));
                    assert!(!dropped_before || all, "{pat:?}: {from} revived at {m}");
                    dropped_before |= any;
                }
            }
        }
    }

    #[test]
    fn general_omission_samples_only_touch_faulty_endpoints() {
        let mut rng = StdRng::seed_from_u64(21);
        let sampler = AdversarySampler::new(FailureModel::GeneralOmission, params(), 4, 0.5);
        let mut saw_receive_side = false;
        for _ in 0..200 {
            let pat = sampler.sample(&mut rng);
            for m in 0..4 {
                for from in params().agents() {
                    for to in params().agents() {
                        if !pat.delivers(m, from, to) {
                            assert!(pat.is_faulty(from) || pat.is_faulty(to));
                            saw_receive_side |= !pat.is_faulty(from);
                        }
                    }
                }
            }
        }
        assert!(saw_receive_side, "GO sampler never used its extra power");
    }

    #[test]
    fn crash_pattern_is_classified_as_crash() {
        let mut rng = StdRng::seed_from_u64(9);
        let faulty = AgentSet::singleton(AgentId::new(1));
        for _ in 0..50 {
            let pat = crash_pattern(params(), faulty, &[1], 5, &mut rng).unwrap();
            assert!(FailureModel::Crash.admits_pattern(&pat).is_ok(), "{pat:?}");
        }
    }

    #[test]
    fn crash_pattern_validates_round_vector() {
        let mut rng = StdRng::seed_from_u64(9);
        let faulty = AgentSet::singleton(AgentId::new(1));
        assert!(crash_pattern(params(), faulty, &[1, 2], 5, &mut rng).is_err());
    }

    #[test]
    fn random_faulty_set_size() {
        let mut rng = StdRng::seed_from_u64(3);
        for k in 0..=3 {
            assert_eq!(random_faulty_set(params(), k, &mut rng).len(), k);
        }
    }
}
