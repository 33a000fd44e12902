//! **E6 — decision-latency curves (Section 8 discussion).**
//!
//! The paper conjectures that "even in runs with failures, `P_basic` may
//! not be much worse than `P_fip`". This experiment produces the
//! figure-style series behind that claim: mean decision round of the
//! nonfaulty agents as a function of the per-message omission probability,
//! for all three protocols, on the adversarial all-ones input (where the
//! protocols differ most; any 0 collapses all three to round ≤ 2-ish).

use eba_core::prelude::*;
use eba_sim::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::table::Table;

/// One point of the latency curves.
#[derive(Clone, Debug)]
pub struct E6Row {
    /// Per-message omission probability for faulty senders.
    pub drop_prob: f64,
    /// Mean nonfaulty decision round under `P_min`.
    pub pmin_mean: f64,
    /// Mean nonfaulty decision round under `P_basic`.
    pub pbasic_mean: f64,
    /// Mean nonfaulty decision round under `P_opt`.
    pub popt_mean: f64,
}

/// Runs the sweep at the given `(n, t)` with `trials` random adversaries
/// per probability; the faulty set is a fixed maximal set so the curves
/// isolate the effect of drop intensity.
pub fn run(n: usize, t: usize, probs: &[f64], trials: u32, seed: u64) -> (Vec<E6Row>, Table) {
    let params = Params::new(n, t).expect("valid config");
    let inits = vec![Value::One; n];
    let faulty: AgentSet = (0..t).map(AgentId::new).collect();
    let min_ctx = Context::minimal(params);
    let basic_ctx = Context::basic(params);
    let fip_ctx = Context::fip(params);
    let mut rows = Vec::new();
    for &p in probs {
        let sampler = AdversarySampler::new(
            FailureModel::SendingOmission,
            params,
            params.default_horizon(),
            p,
        );
        let mut means = [0f64; 3];
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..trials {
            let pattern = sampler.sample_with_faulty(faulty, &mut rng);
            let nonfaulty = pattern.nonfaulty();
            let traces = [
                mean_of(
                    Scenario::of(&min_ctx)
                        .pattern(pattern.clone())
                        .inits(&inits)
                        .run()
                        .expect("run"),
                    nonfaulty,
                ),
                mean_of(
                    Scenario::of(&basic_ctx)
                        .pattern(pattern.clone())
                        .inits(&inits)
                        .run()
                        .expect("run"),
                    nonfaulty,
                ),
                mean_of(
                    Scenario::of(&fip_ctx)
                        .pattern(pattern.clone())
                        .inits(&inits)
                        .run()
                        .expect("run"),
                    nonfaulty,
                ),
            ];
            for (m, v) in means.iter_mut().zip(traces) {
                *m += v;
            }
        }
        rows.push(E6Row {
            drop_prob: p,
            pmin_mean: means[0] / trials as f64,
            pbasic_mean: means[1] / trials as f64,
            popt_mean: means[2] / trials as f64,
        });
    }

    let mut table = Table::new(
        "E6: decision latency vs omission intensity (Section 8)",
        "Mean nonfaulty decision round, all-ones input, fixed maximal \
         faulty set, varying per-message drop probability. Paper \
         conjecture: P_basic tracks P_fip closely; P_min pays its t + 2 \
         deadline everywhere.",
        &["drop prob", "P_min", "P_basic", "P_opt", "basic − opt"],
    );
    for r in &rows {
        table.push(vec![
            format!("{:.1}", r.drop_prob),
            format!("{:.2}", r.pmin_mean),
            format!("{:.2}", r.pbasic_mean),
            format!("{:.2}", r.popt_mean),
            format!("{:.2}", r.pbasic_mean - r.popt_mean),
        ]);
    }
    (rows, table)
}

/// Mean nonfaulty decision round of one run.
fn mean_of<E: eba_core::exchange::InformationExchange>(
    run: EnumRun<E>,
    nonfaulty: AgentSet,
) -> f64 {
    run.mean_decision_round(nonfaulty)
        .expect("all nonfaulty decide")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_drop_prob_matches_failure_free_rounds() {
        let (rows, _) = run(6, 2, &[0.0], 5, 3);
        let r = &rows[0];
        // t = 2: P_min waits for round 4; the others decide in round 2.
        assert_eq!(r.pmin_mean, 4.0);
        assert_eq!(r.pbasic_mean, 2.0);
        assert_eq!(r.popt_mean, 2.0);
    }

    #[test]
    fn pmin_is_never_faster_than_the_others() {
        let (rows, _) = run(6, 2, &[0.3, 0.7], 25, 9);
        for r in &rows {
            assert!(r.pmin_mean >= r.pbasic_mean - 1e-9, "{r:?}");
            assert!(r.pmin_mean >= r.popt_mean - 1e-9, "{r:?}");
        }
    }

    #[test]
    fn popt_is_never_slower_than_pbasic() {
        // Corresponding runs: P_opt (optimal for strictly more
        // information) should decide no later on average.
        let (rows, _) = run(6, 2, &[0.2, 0.5, 0.9], 25, 42);
        for r in &rows {
            assert!(r.popt_mean <= r.pbasic_mean + 1e-9, "{r:?}");
        }
    }
}
