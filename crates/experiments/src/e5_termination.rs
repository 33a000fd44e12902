//! **E5 — correctness under randomized adversaries (Prop 6.1 / 7.3).**
//!
//! Failure-injection campaign: random sending-omission adversaries and
//! random initial preferences. Every run must satisfy the four EBA
//! properties (Validity in its strong form, faulty agents included), the
//! `t + 2` decision bound, and — for the limited-information protocols — every
//! 0-decision must be backed by a 0-chain.

use eba_core::prelude::*;
use eba_sim::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::claims::{pairs, paper_stacks, protocol_of, CheckKind, Claim};
use crate::table::{cell, Table};

/// Runs the campaign for all three protocols on each `(n, t)` config.
pub fn run(configs: &[(usize, usize)], trials: u32, drop_prob: f64, seed: u64) -> Claim {
    let mut claim = Claim::new(
        "E5",
        "Prop 6.1 / 7.3",
        "random omissions: EBA holds, all decide by round t+2, 0-decisions are 0-chain-backed",
        CheckKind::Sampled,
        format!("{} × {trials} runs, p = {drop_prob}", pairs(configs)),
        Table::new(
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
        ),
    );
    for &(n, t) in configs {
        let params = Params::new(n, t).expect("valid config");
        let bound = params.decide_by_round();
        for stack in paper_stacks(params) {
            let (eba_violations, chain_violations, max_round, mean_round) = stack.visit(Campaign {
                trials,
                drop_prob,
                seed,
                // P_opt may decide through common knowledge, which is not
                // chain-backed — skip the chain check.
                check_chains: !matches!(stack, NamedStack::Fip(_)),
            });
            claim.row(
                vec![
                    cell(n),
                    cell(t),
                    cell(protocol_of(&stack)),
                    cell(trials),
                    cell(eba_violations),
                    cell(chain_violations),
                    cell(max_round),
                    cell(bound),
                    format!("{mean_round:.2}"),
                ],
                &[
                    ("no EBA violation", eba_violations == 0),
                    ("no unbacked 0-decision", chain_violations == 0),
                    ("every decision by round t + 2", max_round <= bound),
                    (
                        "a mean round in [1, t + 2]",
                        (1.0..=bound as f64).contains(&mean_round),
                    ),
                ],
            );
        }
    }
    claim
}

/// `trials` seeded runs of one stack against random sending-omission
/// adversaries and random inputs.
struct Campaign {
    trials: u32,
    drop_prob: f64,
    seed: u64,
    check_chains: bool,
}

impl StackVisitor for Campaign {
    /// EBA violations (a run failing the spec or the `t + 2` bound),
    /// unbacked 0-decisions, and the latest and mean nonfaulty decision
    /// rounds.
    type Output = (u32, u32, u32, f64);

    fn visit<E, P>(self, ctx: &Context<E, P>) -> Self::Output
    where
        E: InformationExchange + Clone + Sync + 'static,
        P: ActionProtocol<E> + Clone + Sync + 'static,
    {
        let params = ctx.params();
        let n = params.n();
        let sampler = AdversarySampler::new(
            FailureModel::SendingOmission,
            params,
            params.default_horizon(),
            self.drop_prob,
        );
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut eba_violations = 0;
        let mut chain_violations = 0;
        let mut max_round = 0;
        let mut sum_rounds = 0f64;
        let mut count_rounds = 0f64;
        for _ in 0..self.trials {
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
            if self.check_chains && verify_zero_chains(ctx.exchange(), &run, &pattern).is_err() {
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
        let mean_round = sum_rounds / count_rounds.max(1.0);
        (eba_violations, chain_violations, max_round, mean_round)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::claims::assert_holds;

    #[test]
    fn no_violations_on_small_configs() {
        assert_holds(run(&[(4, 1), (5, 2)], 150, 0.4, 11));
    }

    #[test]
    fn popt_never_decides_later_than_bound_under_heavy_loss() {
        assert_holds(run(&[(5, 2)], 100, 0.8, 23));
    }

    #[test]
    fn mean_rounds_are_sane() {
        assert_holds(run(&[(4, 1)], 100, 0.3, 5));
    }
}
