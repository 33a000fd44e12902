//! **E5 — correctness under randomized adversaries (Prop 6.1 / 7.3).**
//!
//! Failure-injection campaign: random sending-omission adversaries and
//! random initial preferences. Every run must satisfy the four EBA
//! properties (Validity in its strong form, faulty agents included), the
//! `t + 2` decision bound, and — for the limited-information protocols — every
//! 0-decision must be backed by a 0-chain.

use eba_core::exchange::InformationExchange;
use eba_core::prelude::*;
use eba_core::protocols::ActionProtocol;
use eba_sim::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::table::{cell, Table};

/// Campaign outcome for one `(n, t, protocol)`.
#[derive(Clone, Debug)]
pub struct E5Row {
    /// Number of agents.
    pub n: usize,
    /// Fault tolerance.
    pub t: usize,
    /// Protocol name.
    pub protocol: &'static str,
    /// Runs executed.
    pub trials: u32,
    /// EBA violations observed (must be 0).
    pub eba_violations: u32,
    /// Chain-backing violations (must be 0; only checked where it applies).
    pub chain_violations: u32,
    /// Latest decision round observed across all runs and agents.
    pub max_round: u32,
    /// The bound `t + 2`.
    pub bound: u32,
    /// Mean decision round of nonfaulty agents.
    pub mean_round: f64,
}

/// Runs the campaign for all three protocols on each `(n, t)` config.
pub fn run(
    configs: &[(usize, usize)],
    trials: u32,
    drop_prob: f64,
    seed: u64,
) -> (Vec<E5Row>, Table) {
    let mut rows = Vec::new();
    for &(n, t) in configs {
        let params = Params::new(n, t).expect("valid config");
        rows.push(campaign(
            "P_min",
            &Context::minimal(params),
            trials,
            drop_prob,
            seed,
            true,
        ));
        rows.push(campaign(
            "P_basic",
            &Context::basic(params),
            trials,
            drop_prob,
            seed,
            true,
        ));
        rows.push(campaign(
            "P_opt",
            &Context::fip(params),
            trials,
            drop_prob,
            seed,
            // P_opt may decide through common knowledge, which is not
            // chain-backed — skip the chain check.
            false,
        ));
    }

    let mut table = Table::new(
        "E5: randomized-adversary campaign (Prop 6.1 / 7.3)",
        "Random omission adversaries and random inputs. The paper proves \
         zero violations and termination by round t + 2 for all three \
         protocols; 0-decisions of the limited-information protocols are \
         0-chain-backed (Lemma A.5).",
        &[
            "n",
            "t",
            "protocol",
            "trials",
            "EBA violations",
            "chain violations",
            "max round",
            "t+2",
            "mean round",
        ],
    );
    for r in &rows {
        table.push(vec![
            cell(r.n),
            cell(r.t),
            cell(r.protocol),
            cell(r.trials),
            cell(r.eba_violations),
            cell(r.chain_violations),
            cell(r.max_round),
            cell(r.bound),
            format!("{:.2}", r.mean_round),
        ]);
    }
    (rows, table)
}

fn campaign<E, P>(
    protocol: &'static str,
    ctx: &Context<E, P>,
    trials: u32,
    drop_prob: f64,
    seed: u64,
    check_chains: bool,
) -> E5Row
where
    E: InformationExchange,
    P: ActionProtocol<E>,
{
    let params = ctx.params();
    let n = params.n();
    let sampler = AdversarySampler::new(
        FailureModel::SendingOmission,
        params,
        params.default_horizon(),
        drop_prob,
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut eba_violations = 0;
    let mut chain_violations = 0;
    let mut max_round = 0;
    let mut sum_rounds = 0f64;
    let mut count_rounds = 0f64;
    for _ in 0..trials {
        let pattern = sampler.sample(&mut rng);
        let bits: u64 = rng.random();
        let inits: Vec<Value> = (0..n)
            .map(|i| Value::from_bit(((bits >> i) & 1) as u8))
            .collect();
        let run = Scenario::of(ctx)
            .pattern(pattern.clone())
            .inits(&inits)
            .run()
            .expect("run");
        if check_eba(ctx.exchange(), &run).is_err() {
            eba_violations += 1;
        }
        if check_decides_by(&run, params.decide_by_round()).is_err() {
            eba_violations += 1;
        }
        if check_chains && verify_zero_chains(ctx.exchange(), &run, &pattern).is_err() {
            chain_violations += 1;
        }
        let rounds = run.decisions().0;
        for a in pattern.nonfaulty().iter() {
            if let Some(r) = rounds[a.index()] {
                max_round = max_round.max(r);
                sum_rounds += r as f64;
                count_rounds += 1.0;
            }
        }
    }
    E5Row {
        n,
        t: params.t(),
        protocol,
        trials,
        eba_violations,
        chain_violations,
        max_round,
        bound: params.decide_by_round(),
        mean_round: sum_rounds / count_rounds.max(1.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_violations_on_small_configs() {
        let (rows, _) = run(&[(4, 1), (5, 2)], 150, 0.4, 11);
        for r in &rows {
            assert_eq!(r.eba_violations, 0, "{r:?}");
            assert_eq!(r.chain_violations, 0, "{r:?}");
            assert!(r.max_round <= r.bound, "{r:?}");
        }
    }

    #[test]
    fn popt_never_decides_later_than_bound_under_heavy_loss() {
        let (rows, _) = run(&[(5, 2)], 100, 0.8, 23);
        let popt = rows.iter().find(|r| r.protocol == "P_opt").unwrap();
        assert_eq!(popt.eba_violations, 0);
        assert!(popt.max_round <= popt.bound);
    }

    #[test]
    fn mean_rounds_are_sane() {
        let (rows, _) = run(&[(4, 1)], 100, 0.3, 5);
        for r in &rows {
            assert!(
                r.mean_round >= 1.0 && r.mean_round <= r.bound as f64,
                "{r:?}"
            );
        }
    }
}
