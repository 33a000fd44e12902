//! **E8 — the introduction's impossibility argument.**
//!
//! No EBA protocol for omission failures can decide 0 the moment it hears
//! that *some* agent preferred 0. The paper's runs `r`/`r'` (n = 3):
//!
//! * `r` — agent 0 faulty and silent, all preferences 1: the nonfaulty
//!   agents must eventually decide 1 (round `t + 2 = 3`).
//! * `r'` — like `r`, but agent 0's preference is 0 and it reveals the 0
//!   to agent 2 *only*, in round 2. Agent 1 cannot distinguish `r'` from
//!   `r`, so it still decides 1 — while agent 2, following the naive
//!   0-biased rule, decides 0. Agreement breaks between two *nonfaulty*
//!   agents.
//!
//! Under **crash** failures the same naive protocol is safe (a zero alive
//! at time `t + 1` would need `t + 1` distinct crashed relays), which the
//! randomized crash campaign confirms. The fix for omissions is `P0`'s
//! 0-*chain* rule; the chain-rule protocols pass the identical adversary.

use eba_core::prelude::*;
use eba_sim::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::claims::{observe, paper_stacks, protocol_of, CheckKind, Claim, Observe};
use crate::table::{cell, Table};

/// Builds the `r'` adversary: agent 0 faulty, silent except one message
/// to agent 2 in round 2.
fn r_prime_pattern(params: Params) -> FailurePattern {
    let faulty = AgentSet::singleton(AgentId::new(0));
    let mut pat = FailurePattern::new(params, faulty.complement(3)).expect("1 ≤ t");
    let a = AgentId::new;
    pat.silence_agent(a(0), 0..1, true).expect("faulty");
    // Round 2 (m = 1): deliver only to agent 2.
    pat.drop_message(1, a(0), a(0)).expect("faulty");
    pat.drop_message(1, a(0), a(1)).expect("faulty");
    pat.silence_agent(a(0), 2..5, true).expect("faulty");
    pat
}

/// Appends one scenario row, checked against the paper's expectation.
fn row(
    claim: &mut Claim,
    (scenario, protocol): (&str, &str),
    trials: u32,
    violations: u32,
    (expected, ok): (&str, bool),
) {
    claim.row(
        vec![
            cell(scenario),
            cell(protocol),
            cell(trials),
            cell(violations),
            cell(expected),
        ],
        &[(expected, ok)],
    );
}

/// Runs the counterexample and the control campaigns.
pub fn run(crash_trials: u32, seed: u64) -> Claim {
    let mut claim = Claim::new(
        "E8",
        "Introduction",
        "deciding 0 on hearing a 0 breaks Agreement under omissions (r'), not under crashes",
        CheckKind::SingleRuns,
        format!("(3,1): r, r', {crash_trials} crash runs"),
        Table::new(
            "E8: the 0-biased impossibility (introduction)",
            "The naive hear-a-0-decide-0 protocol is safe under crash failures \
             but splits nonfaulty decisions under omissions (runs r / r'); the \
             0-chain protocols survive the identical adversary.",
            &[
                "scenario",
                "protocol",
                "trials",
                "violations",
                "paper expectation",
            ],
        ),
    );
    let params = Params::new(3, 1).expect("valid");
    let naive_ctx = Context::naive(params);

    // Run r: naive protocol, all ones, silent faulty agent — correct.
    let silent = silent_pattern(params, AgentSet::singleton(AgentId::new(0)), 5).unwrap();
    let r = observe(&naive_ctx, &silent, &[Value::One; 3]);
    let decide_1_in_3 = r.max_round == Some(3)
        && silent
            .nonfaulty()
            .iter()
            .all(|a| r.values[a.index()] == Some(Value::One));
    row(
        &mut claim,
        ("r (all-1, a0 silent)", "P_naive"),
        1,
        r.eba.is_err() as u32,
        (
            "no violation; nonfaulty decide 1 in round 3",
            r.eba.is_ok() && decide_1_in_3,
        ),
    );

    // Run r': naive protocol violates Agreement.
    let r_prime = r_prime_pattern(params);
    let inits = [Value::Zero, Value::One, Value::One];
    let violated = matches!(
        observe(&naive_ctx, &r_prime, &inits).eba,
        Err(SpecViolation::Agreement { .. })
    );
    row(
        &mut claim,
        ("r' (a0 reveals 0 late)", "P_naive"),
        1,
        violated as u32,
        ("AGREEMENT VIOLATED (the impossibility)", violated),
    );

    // Control: the chain-rule protocols survive the identical adversary.
    for stack in &paper_stacks(params)[..2] {
        let ok = stack.visit(Observe(&r_prime, &inits)).eba.is_ok();
        row(
            &mut claim,
            ("r' (same adversary)", protocol_of(stack)),
            1,
            !ok as u32,
            ("no violation (0-chain rule)", ok),
        );
    }

    // Crash campaign: the naive protocol is correct under crash failures.
    let mut rng = StdRng::seed_from_u64(seed);
    let mut violations = 0;
    for _ in 0..crash_trials {
        let faulty = AgentSet::singleton(AgentId::new(rng.random_range(0..3)));
        let crash_round = rng.random_range(0..4);
        let pattern = crash_pattern(params, faulty, &[crash_round], 5, &mut rng).unwrap();
        let bits: u32 = rng.random_range(0..8);
        let inits: Vec<Value> = (0..3)
            .map(|i| Value::from_bit(((bits >> i) & 1) as u8))
            .collect();
        violations += observe(&naive_ctx, &pattern, &inits).eba.is_err() as u32;
    }
    row(
        &mut claim,
        ("random crash adversaries", "P_naive"),
        crash_trials,
        violations,
        (
            "no violation (naive 0-bias is safe under crashes)",
            violations == 0,
        ),
    );
    claim
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::claims::assert_holds;

    #[test]
    fn the_counterexample_behaves_as_the_paper_says() {
        assert_holds(run(200, 7));
    }
}
