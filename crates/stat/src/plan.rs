//! Trial plans: how many samples to draw, from which adversary mixture.
//!
//! A [`TrialPlan`] fixes everything a statistical check needs besides the
//! stack itself: the trial budget, the RNG seed, the confidence level,
//! the horizon, and the [`SampleScheme`] — a *mixture* of
//! [`Stratum`] components, each one an [`AdversarySampler`] configuration
//! `(faulty-set size, per-message drop probability)` with a selection
//! weight. Every trial independently picks a stratum by weight, then a
//! faulty set, drops, and initial preferences within it, so trials are
//! i.i.d. draws from the mixture and the violation count is exactly
//! binomial — which is what makes the [`interval`](crate::interval) math
//! rigorous rather than approximate.
//!
//! [`AdversarySampler`]: eba_core::prelude::AdversarySampler

use eba_core::context::check_horizon;
use eba_core::prelude::{EbaError, FailureModel};

/// One mixture component: adversaries with exactly `faulty` faulty agents
/// and i.i.d. per-message drop probability `drop_prob` (over whatever the
/// model admits), selected with probability `weight`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Stratum {
    /// Faulty-set size (`0..=t`; membership is uniform among agents).
    pub faulty: usize,
    /// Per-admissible-message drop probability within the stratum.
    pub drop_prob: f64,
    /// Selection probability of the stratum (the `strata` constructors
    /// return normalized weights summing to 1).
    pub weight: f64,
}

/// The named adversary mixtures of the `--strata` CLI flag.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SampleScheme {
    /// The promoted [`AdversarySampler::sample`] distribution: faulty-set
    /// size uniform in `0..=t`, drop probability `1/2` — every admissible
    /// `(pattern, inits)` combination reachable, none favored.
    ///
    /// [`AdversarySampler::sample`]: eba_core::prelude::AdversarySampler::sample
    Uniform,
    /// Stratified by `(faulty-set size, drop intensity)`: each size
    /// `1..=t` crossed with drop levels `{1/4, 1/2, 3/4}` (plus the
    /// drop-free size-0 stratum), equal weights — per-stratum counts
    /// reveal *where* violations live.
    Stratified,
    /// Importance-weighted toward near-threshold adversaries: weight
    /// proportional to `faulty + 1`, drop levels `{1/2, 9/10}` with the
    /// heavy level double-weighted — more of the budget lands on the
    /// `k = t`, high-loss corner where omission bugs hide.
    Importance,
}

impl SampleScheme {
    /// The registered scheme names, as accepted by [`by_name`](Self::by_name).
    pub const NAMES: [&'static str; 3] = ["uniform", "stratified", "importance"];

    /// Parses a scheme name.
    ///
    /// # Errors
    ///
    /// Returns [`EbaError::InvalidInput`] listing the registered names.
    pub fn by_name(name: &str) -> Result<SampleScheme, EbaError> {
        match name {
            "uniform" => Ok(SampleScheme::Uniform),
            "stratified" => Ok(SampleScheme::Stratified),
            "importance" => Ok(SampleScheme::Importance),
            other => Err(EbaError::InvalidInput(format!(
                "unknown sampling scheme {other:?}; registered schemes: {}",
                Self::NAMES.join(", ")
            ))),
        }
    }

    /// The canonical name (inverse of [`by_name`](Self::by_name)).
    pub fn name(self) -> &'static str {
        match self {
            SampleScheme::Uniform => "uniform",
            SampleScheme::Stratified => "stratified",
            SampleScheme::Importance => "importance",
        }
    }

    /// The scheme's strata for a model at fault tolerance `t`, with
    /// normalized weights. Under [`FailureModel::FailureFree`] every
    /// scheme collapses to the single empty stratum (there is nothing to
    /// drop, so the mixtures would only differ in RNG consumption).
    pub fn strata(self, model: FailureModel, t: usize) -> Vec<Stratum> {
        if model == FailureModel::FailureFree || t == 0 {
            return vec![Stratum {
                faulty: 0,
                drop_prob: 0.0,
                weight: 1.0,
            }];
        }
        let mut raw: Vec<(usize, f64, f64)> = Vec::new();
        match self {
            SampleScheme::Uniform => {
                for k in 0..=t {
                    raw.push((k, 0.5, 1.0));
                }
            }
            SampleScheme::Stratified => {
                raw.push((0, 0.0, 1.0));
                for k in 1..=t {
                    for q in [0.25, 0.5, 0.75] {
                        raw.push((k, q, 1.0));
                    }
                }
            }
            SampleScheme::Importance => {
                raw.push((0, 0.0, 1.0));
                for k in 1..=t {
                    raw.push((k, 0.5, (k + 1) as f64));
                    raw.push((k, 0.9, 2.0 * (k + 1) as f64));
                }
            }
        }
        let total: f64 = raw.iter().map(|(_, _, w)| w).sum();
        raw.into_iter()
            .map(|(faulty, drop_prob, w)| Stratum {
                faulty,
                drop_prob,
                weight: w / total,
            })
            .collect()
    }
}

/// Everything a statistical check needs besides the stack: trial budget,
/// seed, confidence level, horizon, and the sampling mixture.
#[derive(Clone, Copy, Debug)]
pub struct TrialPlan {
    /// Total trials to draw.
    pub trials: u64,
    /// Root RNG seed. Per-block sub-seeds are derived deterministically,
    /// so the estimate is bit-reproducible at any worker count.
    pub seed: u64,
    /// Two-sided confidence level in `(0, 1)` (e.g. `0.95`).
    pub confidence: f64,
    /// Run horizon in rounds.
    pub horizon: u32,
    /// The adversary mixture to draw from.
    pub scheme: SampleScheme,
}

impl TrialPlan {
    /// A plan with the workspace defaults: 95% confidence, stratified
    /// sampling, seed `0xEBA`.
    pub fn new(trials: u64, horizon: u32) -> Self {
        TrialPlan {
            trials,
            seed: 0xEBA,
            confidence: 0.95,
            horizon,
            scheme: SampleScheme::Stratified,
        }
    }

    /// Validates the plan's numeric fields.
    ///
    /// # Errors
    ///
    /// Returns [`EbaError::InvalidInput`] when `trials == 0`, the horizon
    /// is 0 or above [`MAX_HORIZON`](eba_core::context::MAX_HORIZON) (the
    /// run kernel's own check, applied before the sampler sizes a pattern
    /// by it), or the confidence level leaves `(0, 1)`.
    pub fn validate(&self) -> Result<(), EbaError> {
        if self.trials == 0 {
            return Err(EbaError::InvalidInput("a plan needs trials > 0".into()));
        }
        if self.horizon == 0 {
            return Err(EbaError::InvalidInput("a plan needs horizon > 0".into()));
        }
        check_horizon(self.horizon)?;
        if !(self.confidence > 0.0 && self.confidence < 1.0) {
            return Err(EbaError::InvalidInput(format!(
                "confidence {} outside (0, 1)",
                self.confidence
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheme_names_round_trip() {
        for name in SampleScheme::NAMES {
            assert_eq!(SampleScheme::by_name(name).unwrap().name(), name);
        }
        let err = SampleScheme::by_name("bogus").unwrap_err();
        assert!(err.to_string().contains("stratified"));
    }

    #[test]
    fn strata_weights_are_normalized_and_cover_every_size() {
        for scheme in [
            SampleScheme::Uniform,
            SampleScheme::Stratified,
            SampleScheme::Importance,
        ] {
            for t in [1usize, 2, 4] {
                let strata = scheme.strata(FailureModel::GeneralOmission, t);
                let total: f64 = strata.iter().map(|s| s.weight).sum();
                assert!((total - 1.0).abs() < 1e-12, "{scheme:?} t={t}");
                for k in 0..=t {
                    assert!(
                        strata.iter().any(|s| s.faulty == k),
                        "{scheme:?} t={t} misses k={k}"
                    );
                }
                assert!(strata.iter().all(|s| s.faulty <= t));
            }
        }
    }

    #[test]
    fn importance_weights_favor_the_threshold() {
        let strata = SampleScheme::Importance.strata(FailureModel::SendingOmission, 4);
        let at = |k: usize| -> f64 {
            strata
                .iter()
                .filter(|s| s.faulty == k)
                .map(|s| s.weight)
                .sum()
        };
        assert!(at(4) > at(1));
        let heavy: f64 = strata
            .iter()
            .filter(|s| s.faulty == 4 && s.drop_prob > 0.8)
            .map(|s| s.weight)
            .sum();
        let light: f64 = strata
            .iter()
            .filter(|s| s.faulty == 4 && s.drop_prob < 0.8)
            .map(|s| s.weight)
            .sum();
        assert!(heavy > light);
    }

    #[test]
    fn failure_free_collapses_to_the_empty_stratum() {
        for scheme in [
            SampleScheme::Uniform,
            SampleScheme::Stratified,
            SampleScheme::Importance,
        ] {
            let strata = scheme.strata(FailureModel::FailureFree, 3);
            assert_eq!(strata.len(), 1);
            assert_eq!(strata[0].faulty, 0);
            assert_eq!(strata[0].weight, 1.0);
        }
    }

    #[test]
    fn plans_validate_their_numeric_fields() {
        use eba_core::context::MAX_HORIZON;
        assert!(TrialPlan::new(100, 4).validate().is_ok());
        assert!(TrialPlan::new(0, 4).validate().is_err());
        assert!(TrialPlan::new(10, 0).validate().is_err());
        assert!(TrialPlan::new(10, MAX_HORIZON).validate().is_ok());
        let err = TrialPlan::new(10, MAX_HORIZON + 1).validate().unwrap_err();
        assert!(err.to_string().contains("horizon: got 1025"), "{err}");
        let mut bad = TrialPlan::new(10, 4);
        bad.confidence = 1.0;
        assert!(bad.validate().is_err());
    }
}
