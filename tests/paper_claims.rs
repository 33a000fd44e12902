//! Integration tests pinning the paper's headline claims, end to end
//! across the workspace crates.

use eba::experiments::{
    e1_bits, e2_failure_free_zero, e3_failure_free_ones, e4_silent_faulty, e5_termination,
    e8_bias_counterexample, e9_ck_onset, Claim,
};
use eba::prelude::*;

/// Prop 8.1: `P_min` sends exactly `n²` bits in *every* run (each agent
/// broadcasts a single bit exactly once, in its deciding round).
#[test]
fn prop_8_1_pmin_sends_exactly_n_squared_bits() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(81);
    for n in [3usize, 5, 8, 13] {
        let t = (n - 1) / 2;
        let params = Params::new(n, t).unwrap();
        let ctx = Context::minimal(params);
        let sampler = AdversarySampler::new(
            FailureModel::SendingOmission,
            params,
            params.default_horizon(),
            0.5,
        );
        for _ in 0..25 {
            let pattern = sampler.sample(&mut rng);
            let bits: u64 = rng.random();
            let inits: Vec<Value> = (0..n)
                .map(|i| Value::from_bit(((bits >> i) & 1) as u8))
                .collect();
            let run = Scenario::of(&ctx)
                .pattern(pattern.clone())
                .inits(&inits)
                .run()
                .unwrap();
            let traffic = Metrics::of(ctx.exchange(), &run, &pattern);
            assert_eq!(traffic.bits_sent, (n * n) as u64);
            assert_eq!(traffic.messages_sent, (n * n) as u64);
        }
    }
}

/// Prop 8.2: failure-free decision rounds for all three protocols.
#[test]
fn prop_8_2_failure_free_decision_rounds() {
    assert_holds(e2_failure_free_zero::run(&[4, 7, 10]));
    assert_holds(e3_failure_free_ones::run(10, &[0, 1, 2, 4]));
}

/// Example 7.1, exact: n = 20, t = 10, ten silent faulty agents, all
/// preferences 1 — P_fip decides in round 3, P_min/P_basic in round 12.
#[test]
fn example_7_1_headline_numbers() {
    assert_holds(e4_silent_faulty::run(20, 10, &[10]));
}

/// Prop 6.1 / 7.3: every agent (faulty included) decides by round `t + 2`
/// under heavy random omissions, and the EBA spec holds.
#[test]
fn termination_by_t_plus_2_under_heavy_loss() {
    assert_holds(e5_termination::run(&[(4, 1), (6, 2)], 250, 0.7, 62));
}

/// Prop 7.2 / Lemma A.4: the common-knowledge timeline is constant in
/// `(n, t)` for silent-faulty runs — faults known at time 1, common
/// knowledge at time 2, decision in round 3.
#[test]
fn common_knowledge_onset_is_constant() {
    assert_holds(e9_ck_onset::run(&[(5, 1), (8, 3), (14, 6)]));
}

/// The introduction's impossibility: the naive 0-biased protocol violates
/// Agreement under omissions but not under crashes; the 0-chain protocols
/// survive the same adversary.
#[test]
fn introduction_bias_counterexample() {
    assert_holds(e8_bias_counterexample::run(300, 99));
}

/// Section 8's cost ordering on failure-free runs: min ≪ basic ≪ fip in
/// bits, while basic already matches fip's round-2 decisions.
#[test]
fn section_8_cost_benefit_tradeoff() {
    assert_holds(e1_bits::run(&[(8, 3)]));
    assert_holds(e3_failure_free_ones::run(8, &[3]));
}

/// Panics, naming the broken rows, unless the claim holds.
fn assert_holds(claim: Claim) {
    assert!(claim.holds(), "{:#?}", claim.broken);
}
