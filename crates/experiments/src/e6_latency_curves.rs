//! **E6 — decision-latency curves (Section 8 discussion).**
//!
//! The paper conjectures that "even in runs with failures, `P_basic` may
//! not be much worse than `P_fip`". This experiment produces the
//! figure-style series behind that claim: mean decision round of the
//! nonfaulty agents as a function of the per-message omission probability,
//! for all three protocols, on the adversarial all-ones input (where the
//! protocols differ most; any 0 collapses all three to round ≤ 2-ish).

use eba_core::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::claims::{paper_stacks, CheckKind, Claim, Observe};
use crate::table::Table;

/// Runs the sweep at the given `(n, t)` with `trials` random adversaries
/// per probability; the faulty set is a fixed maximal set so the curves
/// isolate the effect of drop intensity.
pub fn run(n: usize, t: usize, probs: &[f64], trials: u32, seed: u64) -> Claim {
    let mut claim = Claim::new(
        "E6",
        "Section 8",
        "mean nonfaulty round P_min ≥ P_basic ≥ P_opt at every drop rate; t+2, 2, 2 at rate 0",
        CheckKind::Sampled,
        format!(
            "({n},{t}), p ∈ {:.1}..{:.1} × {trials} runs",
            probs[0],
            probs[probs.len() - 1]
        ),
        Table::new(
            "E6: decision latency vs omission intensity (Section 8)",
            "Mean nonfaulty decision round, all-ones input, fixed maximal \
             faulty set, varying per-message drop probability. Paper \
             conjecture: P_basic tracks P_fip closely; P_min pays its t + 2 \
             deadline everywhere.",
            &["drop prob", "P_min", "P_basic", "P_opt", "basic − opt"],
        ),
    );
    let params = Params::new(n, t).expect("valid config");
    let inits = vec![Value::One; n];
    let faulty: AgentSet = (0..t).map(AgentId::new).collect();
    let stacks = paper_stacks(params);
    for &p in probs {
        let sampler = AdversarySampler::new(
            FailureModel::SendingOmission,
            params,
            params.default_horizon(),
            p,
        );
        // Every stack faces the same `trials` patterns.
        let [pmin, pbasic, popt] = stacks.each_ref().map(|stack| {
            let mut rng = StdRng::seed_from_u64(seed);
            let total = (0..trials).fold(0f64, |sum, _| {
                let pattern = sampler.sample_with_faulty(faulty, &mut rng);
                let run = stack.visit(Observe(&pattern, &inits));
                sum + run.mean_round.expect("all nonfaulty decide")
            });
            total / trials as f64
        });
        let failure_free = (t as f64 + 2.0, 2.0, 2.0);
        claim.row(
            vec![
                format!("{p:.1}"),
                format!("{pmin:.2}"),
                format!("{pbasic:.2}"),
                format!("{popt:.2}"),
                format!("{:.2}", pbasic - popt),
            ],
            &[
                (
                    "P_min ≥ P_basic ≥ P_opt",
                    pmin >= pbasic - 1e-9 && pbasic >= popt - 1e-9 && pmin >= popt - 1e-9,
                ),
                (
                    "the failure-free rounds t + 2, 2, 2 at drop prob 0",
                    p != 0.0 || (pmin, pbasic, popt) == failure_free,
                ),
            ],
        );
    }
    claim
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::claims::assert_holds;

    #[test]
    fn zero_drop_prob_matches_failure_free_rounds() {
        assert_holds(run(6, 2, &[0.0], 5, 3));
    }

    #[test]
    fn pmin_is_never_faster_than_the_others() {
        assert_holds(run(6, 2, &[0.3, 0.7], 25, 9));
    }

    #[test]
    fn popt_is_never_slower_than_pbasic() {
        // Corresponding runs: P_opt (optimal for strictly more
        // information) should decide no later on average.
        assert_holds(run(6, 2, &[0.2, 0.5, 0.9], 25, 42));
    }
}
