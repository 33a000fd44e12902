//! Integration tests pinning the paper's headline claims, end to end
//! across the workspace crates.

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
    let (rows_a, _) = eba::experiments::e2_failure_free_zero::run(&[4, 7, 10]);
    for r in &rows_a {
        assert_eq!(r.zero_holder_round, 1);
        assert_eq!(r.max_other_round, 2);
        assert!(r.unanimous_zero);
    }
    let (rows_b, _) = eba::experiments::e3_failure_free_ones::run(10, &[0, 1, 2, 4]);
    for r in &rows_b {
        assert_eq!(r.pmin_round, r.t as u32 + 2);
        assert_eq!(r.pbasic_round, 2);
        assert_eq!(r.popt_round, 2);
    }
}

/// Example 7.1, exact: n = 20, t = 10, ten silent faulty agents, all
/// preferences 1 — P_fip decides in round 3, P_min/P_basic in round 12.
#[test]
fn example_7_1_headline_numbers() {
    let row = eba::experiments::e4_silent_faulty::example_7_1();
    assert_eq!(row.popt_round, 3);
    assert_eq!(row.pmin_round, 12);
    assert_eq!(row.pbasic_round, 12);
    assert_eq!(row.popt_no_ck_round, 12, "the CK rules are the whole story");
}

/// Prop 6.1 / 7.3: every agent (faulty included) decides by round `t + 2`
/// under heavy random omissions, and the EBA spec holds.
#[test]
fn termination_by_t_plus_2_under_heavy_loss() {
    let (rows, _) = eba::experiments::e5_termination::run(&[(4, 1), (6, 2)], 250, 0.7, 62);
    for r in &rows {
        assert_eq!(r.eba_violations, 0, "{r:?}");
        assert_eq!(r.chain_violations, 0, "{r:?}");
        assert!(r.max_round <= r.bound, "{r:?}");
    }
}

/// Prop 7.2 / Lemma A.4: the common-knowledge timeline is constant in
/// `(n, t)` for silent-faulty runs — faults known at time 1, common
/// knowledge at time 2, decision in round 3.
#[test]
fn common_knowledge_onset_is_constant() {
    let (rows, _) = eba::experiments::e9_ck_onset::run(&[(5, 1), (8, 3), (14, 6)]);
    for r in &rows {
        assert_eq!(
            (r.faults_known_time, r.ck_onset_time, r.popt_round),
            (1, 2, 3),
            "{r:?}"
        );
        assert_eq!(r.pmin_round, r.t as u32 + 2, "{r:?}");
    }
}

/// The introduction's impossibility: the naive 0-biased protocol violates
/// Agreement under omissions but not under crashes; the 0-chain protocols
/// survive the same adversary.
#[test]
fn introduction_bias_counterexample() {
    let (rows, _) = eba::experiments::e8_bias_counterexample::run(300, 99);
    let naive_rprime = rows
        .iter()
        .find(|r| r.scenario.starts_with("r'") && r.protocol == "P_naive")
        .unwrap();
    assert_eq!(naive_rprime.violations, 1);
    for r in rows
        .iter()
        .filter(|r| r.protocol != "P_naive" || !r.scenario.starts_with("r'"))
    {
        assert_eq!(r.violations, 0, "{r:?}");
    }
}

/// Section 8's cost ordering on failure-free runs: min ≪ basic ≪ fip in
/// bits, while basic already matches fip's round-2 decisions.
#[test]
fn section_8_cost_benefit_tradeoff() {
    let (rows, _) = eba::experiments::e1_bits::run(&[(8, 3)]);
    let ff = rows.iter().find(|r| r.scenario == "failure-free").unwrap();
    assert!(ff.min_bits < ff.basic_bits && ff.basic_bits < ff.fip_bits);
    // The decision-time side of the tradeoff:
    let (rounds, _) = eba::experiments::e3_failure_free_ones::run(8, &[3]);
    assert_eq!(rounds[0].pbasic_round, rounds[0].popt_round);
}
