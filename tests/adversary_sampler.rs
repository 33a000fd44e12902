//! Property-based coverage for the `AdversarySampler` across all four
//! failure models — the sampling backend the statistical model checker
//! (`eba-stat`) promotes to a first-class role. Every sampled pattern
//! must be admissible in its model over the *full* run horizon, the
//! sampler must be deterministic under a fixed seed, and crash samples
//! must honor the crash-silence discipline (no revival after the crash
//! round).

use std::hash::{BuildHasher, RandomState};

use eba::core::failures::random_faulty_set;
use eba::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const MODELS: [FailureModel; 4] = [
    FailureModel::FailureFree,
    FailureModel::Crash,
    FailureModel::SendingOmission,
    FailureModel::GeneralOmission,
];

/// The full deliverability grid of a pattern over `horizon` rounds: two
/// patterns are the same adversary iff their grids and nonfaulty sets
/// agree (their derived `Eq` also sees how many drop rows they store).
fn delivery_grid(pattern: &FailurePattern, n: usize, horizon: u32) -> Vec<bool> {
    let mut grid = Vec::with_capacity(horizon as usize * n * n);
    for m in 0..horizon {
        for from in 0..n {
            for to in 0..n {
                grid.push(pattern.delivers(m, AgentId::new(from), AgentId::new(to)));
            }
        }
    }
    grid
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Whatever the sampler draws is admissible in its model up to the
    /// full sampling horizon — including the crash-revival check that
    /// `admits_pattern_up_to` adds over the drop horizon.
    #[test]
    fn samples_are_admissible_over_the_full_horizon(
        n in 3usize..7,
        seed in any::<u64>(),
        drop_prob in 0.0f64..=1.0,
    ) {
        let t = (n - 1) / 2;
        let params = Params::new(n, t).unwrap();
        let horizon = params.default_horizon();
        for model in MODELS {
            let sampler = AdversarySampler::new(model, params, horizon, drop_prob);
            let mut rng = StdRng::seed_from_u64(seed);
            let pattern = sampler.sample(&mut rng);
            prop_assert!(
                model.admits_pattern_up_to(&pattern, horizon).is_ok(),
                "{model} sample inadmissible: {pattern:?}"
            );
            prop_assert!(pattern.params().n() - pattern.nonfaulty().len() <= t);
        }
    }

    /// A fixed seed fixes the sample exactly: nonfaulty set and the whole
    /// delivery grid — the property the statistical checker's
    /// bit-reproducibility rests on.
    #[test]
    fn a_fixed_seed_reproduces_the_sample(
        n in 3usize..7,
        seed in any::<u64>(),
        drop_prob in 0.0f64..=1.0,
    ) {
        let t = (n - 1) / 2;
        let params = Params::new(n, t).unwrap();
        let horizon = params.default_horizon();
        for model in MODELS {
            let sampler = AdversarySampler::new(model, params, horizon, drop_prob);
            let a = sampler.sample(&mut StdRng::seed_from_u64(seed));
            let b = sampler.sample(&mut StdRng::seed_from_u64(seed));
            prop_assert_eq!(a.nonfaulty(), b.nonfaulty(), "{}", model);
            prop_assert_eq!(
                delivery_grid(&a, n, horizon),
                delivery_grid(&b, n, horizon),
                "{} delivery grids diverge under one seed", model
            );
            let c = sampler.sample(&mut StdRng::seed_from_u64(seed.wrapping_add(1)));
            // A different seed *may* coincide; only assert it stays legal.
            prop_assert!(model.admits_pattern_up_to(&c, horizon).is_ok());
        }
    }

    /// Crash samples are silent after their first failing round: before
    /// it every message is delivered, and from the round after it the
    /// agent delivers nothing at all (not even to itself) — no revival.
    #[test]
    fn crash_samples_never_revive(
        n in 3usize..7,
        seed in any::<u64>(),
        drop_prob in 0.0f64..=1.0,
    ) {
        let t = (n - 1) / 2;
        let params = Params::new(n, t).unwrap();
        let horizon = params.default_horizon();
        let sampler = AdversarySampler::new(FailureModel::Crash, params, horizon, drop_prob);
        let mut rng = StdRng::seed_from_u64(seed);
        let pattern = sampler.sample(&mut rng);
        for from in 0..n {
            let from = AgentId::new(from);
            let drops_any = |m: u32| {
                (0..n).any(|to| !pattern.delivers(m, from, AgentId::new(to)))
            };
            let first_drop = (0..horizon).find(|&m| drops_any(m));
            if pattern.nonfaulty().contains(from) {
                prop_assert!(first_drop.is_none(), "nonfaulty {from} drops: {pattern:?}");
                continue;
            }
            let Some(fd) = first_drop else { continue };
            // Fully live before the failing round, fully silent after it.
            for m in 0..fd {
                for to in 0..n {
                    prop_assert!(pattern.delivers(m, from, AgentId::new(to)));
                }
            }
            for m in fd + 1..horizon {
                for to in 0..n {
                    prop_assert!(
                        !pattern.delivers(m, from, AgentId::new(to)),
                        "crashed agent {from} revives in round {m}: {pattern:?}"
                    );
                }
            }
        }
    }

    /// `sample_with_faulty` honors the requested faulty set exactly, and
    /// only ever drops messages the model lets that set drop.
    #[test]
    fn sampling_with_a_fixed_faulty_set_respects_it(
        n in 3usize..7,
        seed in any::<u64>(),
        drop_prob in 0.0f64..=1.0,
        k_pick in any::<u64>(),
    ) {
        let t = (n - 1) / 2;
        let params = Params::new(n, t).unwrap();
        let horizon = params.default_horizon();
        let k = (k_pick % (t as u64 + 1)) as usize;
        let mut rng = StdRng::seed_from_u64(seed);
        let faulty = eba::core::failures::random_faulty_set(params, k, &mut rng);
        prop_assert_eq!(faulty.len(), k);
        for model in [
            FailureModel::Crash,
            FailureModel::SendingOmission,
            FailureModel::GeneralOmission,
        ] {
            let sampler = AdversarySampler::new(model, params, horizon, drop_prob);
            let pattern = sampler.sample_with_faulty(faulty, &mut rng);
            prop_assert_eq!(pattern.nonfaulty(), faulty.complement(n), "{}", model);
            prop_assert!(model.admits_pattern_up_to(&pattern, horizon).is_ok());
            if model == FailureModel::SendingOmission {
                // Only faulty senders may drop.
                for m in 0..horizon {
                    for from in pattern.nonfaulty().iter() {
                        for to in 0..n {
                            prop_assert!(pattern.delivers(m, from, AgentId::new(to)));
                        }
                    }
                }
            }
        }
        // FailureFree admits only the empty faulty set and never drops.
        if k == 0 {
            let sampler = AdversarySampler::new(FailureModel::FailureFree, params, horizon, drop_prob);
            let pattern = sampler.sample_with_faulty(AgentSet::empty(), &mut rng);
            prop_assert_eq!(pattern.count_drops(), 0);
        }
    }
}

/// The sampler's draws message by message, with one `drop_message` per
/// dropped message: the oracle for `AdversarySampler::sample_with_faulty`,
/// which writes each `(round, sender)` row once.
fn sample_per_message(
    model: FailureModel,
    params: Params,
    horizon: u32,
    drop_prob: f64,
    faulty: AgentSet,
    rng: &mut StdRng,
) -> FailurePattern {
    let mut pat = FailurePattern::new(params, faulty.complement(params.n())).unwrap();
    match model {
        FailureModel::FailureFree => {}
        FailureModel::SendingOmission => {
            for m in 0..horizon {
                for from in faulty.iter() {
                    for to in params.agents() {
                        if to != from && rng.random_bool(drop_prob) {
                            pat.drop_message(m, from, to).unwrap();
                        }
                    }
                }
            }
        }
        FailureModel::GeneralOmission => {
            for m in 0..horizon {
                for from in params.agents() {
                    for to in params.agents() {
                        let endpoint_faulty = faulty.contains(from) || faulty.contains(to);
                        if endpoint_faulty && to != from && rng.random_bool(drop_prob) {
                            pat.drop_message(m, from, to).unwrap();
                        }
                    }
                }
            }
        }
        FailureModel::Crash if horizon > 0 => {
            for from in faulty.iter() {
                let cr = rng.random_range(0..horizon);
                for to in params.agents() {
                    if to != from && rng.random_bool(drop_prob) {
                        pat.drop_message(cr, from, to).unwrap();
                    }
                }
                for m in cr + 1..horizon {
                    for to in params.agents() {
                        pat.drop_message(m, from, to).unwrap();
                    }
                }
            }
        }
        FailureModel::Crash => {}
    }
    pat
}

/// Row-wise sampling draws exactly the oracle's stream: from one seed,
/// the patterns are `==` and hash alike, and the generator's next draw
/// agrees, for every model, size and drop level.
#[test]
fn row_sampling_draws_the_per_message_stream() {
    let hasher = RandomState::new();
    for (n, t) in [(3, 1), (8, 3), (16, 4), (128, 42)] {
        let params = Params::new(n, t).unwrap();
        let horizon = params.default_horizon();
        for model in MODELS {
            for drop_prob in [0.0, 0.25, 1.0] {
                let sampler = AdversarySampler::new(model, params, horizon, drop_prob);
                let seed = (n * 1_000 + t) as u64;
                let (mut rows, mut oracle) =
                    (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
                for k in [t, 0, 1, t / 2] {
                    let k = if model == FailureModel::FailureFree {
                        0
                    } else {
                        k
                    };
                    let faulty = random_faulty_set(params, k, &mut rows);
                    assert_eq!(random_faulty_set(params, k, &mut oracle), faulty);
                    let got = sampler.sample_with_faulty(faulty, &mut rows);
                    let want =
                        sample_per_message(model, params, horizon, drop_prob, faulty, &mut oracle);
                    let at = format!("{model} at ({n}, {t}), drop {drop_prob}, {k} faulty");
                    assert_eq!(got, want, "{at}");
                    assert_eq!(hasher.hash_one(&got), hasher.hash_one(&want), "{at}");
                    assert_eq!(rows.random::<u64>(), oracle.random::<u64>(), "{at}");
                    if drop_prob == 0.0 && model != FailureModel::Crash {
                        // No row drops anything, so none is stored.
                        assert_eq!(
                            got,
                            FailurePattern::new(params, faulty.complement(n)).unwrap(),
                            "{at}"
                        );
                    }
                }
            }
        }
    }
}
