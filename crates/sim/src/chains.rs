//! 0-chain reconstruction (Section 6).
//!
//! A *0-chain* of length `m` in a run is a sequence of distinct agents
//! `i_0, …, i_m` where `i_0` has initial preference 0, each `i_{m'}` first
//! decides 0 in round `m' + 1`, and each `i_{m'}` (for `m' ≥ 1`) learned in
//! round `m'` that `i_{m'-1}` just decided 0 — i.e. received its
//! `M_0`-class message. 0-chains are the *only* mechanism by which the
//! paper's protocols decide 0, which is what makes the 0-biased rule safe
//! under omission failures.

use eba_core::exchange::{select_round, InformationExchange};
use eba_core::failures::FailurePattern;
use eba_core::types::{Action, AgentId, Value};

use crate::enumerate::EnumRun;

/// Reconstructs a 0-chain ending at `agent` from a run and the pattern it
/// ran against, if `agent` first decided 0 in some round `m + 1` having
/// received a 0-chain.
///
/// A link is an `M_0` delivery: a sender that performed `decide(0)` in
/// round `m`, a non-`⊥` broadcast ([`select_round`] replayed over the
/// recorded states) and a pattern that delivers it to the next agent.
///
/// Returns the chain `[i_0, …, i_m]` (ending with `agent`), or `None` if
/// `agent` never decided 0 or its decision is not chain-backed (which for
/// `P_min`/`P_basic` would indicate a protocol bug; for `P_opt` it happens
/// when the decision came from a common-knowledge rule instead).
pub fn zero_chain_ending_at<E: InformationExchange>(
    ex: &E,
    run: &EnumRun<E>,
    pattern: &FailurePattern,
    agent: AgentId,
) -> Option<Vec<AgentId>> {
    let m = first_zero_decision_time(run, agent)?;
    build_chain(ex, run, pattern, agent, m)
}

fn first_zero_decision_time<E: InformationExchange>(
    run: &EnumRun<E>,
    agent: AgentId,
) -> Option<u32> {
    for (m, acts) in run.actions.iter().enumerate() {
        match acts[agent.index()] {
            Action::Decide(Value::Zero) => return Some(m as u32),
            Action::Decide(Value::One) => return None,
            Action::Noop => {}
        }
    }
    None
}

fn build_chain<E: InformationExchange>(
    ex: &E,
    run: &EnumRun<E>,
    pattern: &FailurePattern,
    agent: AgentId,
    m: u32,
) -> Option<Vec<AgentId>> {
    if m == 0 {
        return (run.inits[agent.index()] == Value::Zero).then(|| vec![agent]);
    }
    // Find a predecessor that decided 0 in round m (action at time m - 1)
    // whose M_0-class message reached `agent` in round m.
    let time = m as usize - 1;
    let (states, actions) = (&run.states[time], &run.actions[time]);
    let mut outgoing = Vec::with_capacity(states.len());
    select_round(ex, states, actions, &mut outgoing);
    for (i, msg) in outgoing.iter().enumerate() {
        let from = AgentId::new(i);
        let m0 = msg.is_some() && actions[i] == Action::Decide(Value::Zero);
        if m0 && from != agent && pattern.delivers(m - 1, from, agent) {
            if let Some(mut chain) = build_chain(ex, run, pattern, from, m - 1) {
                // Chain agents are distinct because each agent decides once.
                debug_assert!(!chain.contains(&agent));
                chain.push(agent);
                return Some(chain);
            }
        }
    }
    None
}

/// Verifies that **every** 0-decision in the run is backed by a 0-chain,
/// returning the offending agent otherwise.
///
/// This is the empirical content of Lemma A.5 / the Agreement argument of
/// Prop 6.1 for the limited-information protocols. Decisions through
/// `P_opt`'s common-knowledge rules are not chain-backed, so this check
/// applies to `P_min`/`P_basic` runs (and to `P_opt` runs in which no
/// common-knowledge decision fires).
///
/// # Errors
///
/// Returns the first agent whose 0-decision has no chain.
pub fn verify_zero_chains<E: InformationExchange>(
    ex: &E,
    run: &EnumRun<E>,
    pattern: &FailurePattern,
) -> Result<(), AgentId> {
    let values = run.decisions().1;
    for agent in AgentId::all(run.inits.len()) {
        if values[agent.index()] == Some(Value::Zero)
            && zero_chain_ending_at(ex, run, pattern, agent).is_none()
        {
            return Err(agent);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;
    use eba_core::prelude::*;

    fn params() -> Params {
        Params::new(4, 2).unwrap()
    }

    /// One `E_min/P_min` run at the default horizon.
    fn run_min(pattern: &FailurePattern, inits: &[Value]) -> EnumRun<MinExchange> {
        Scenario::of(&Context::minimal(params()))
            .pattern(pattern.clone())
            .inits(inits)
            .run()
            .unwrap()
    }

    /// The 0-chain ending at `a(i)` in an `E_min` run.
    fn chain(
        run: &EnumRun<MinExchange>,
        pattern: &FailurePattern,
        i: usize,
    ) -> Option<Vec<AgentId>> {
        zero_chain_ending_at(&MinExchange::new(params()), run, pattern, a(i))
    }

    fn a(i: usize) -> AgentId {
        AgentId::new(i)
    }

    #[test]
    fn failure_free_chains_have_length_one_hop() {
        let pat = FailurePattern::failure_free(params());
        let inits = [Value::Zero, Value::One, Value::One, Value::One];
        let run = run_min(&pat, &inits);
        assert_eq!(chain(&run, &pat, 0), Some(vec![a(0)]));
        for i in 1..4 {
            assert_eq!(chain(&run, &pat, i), Some(vec![a(0), a(i)]));
        }
        verify_zero_chains(&MinExchange::new(params()), &run, &pat).unwrap();
    }

    #[test]
    fn relayed_chain_through_faulty_agents() {
        // a0 (faulty, init 0) reveals its decision only to a1 (faulty),
        // which reveals only to a2: chain a0 → a1 → a2 of length 2.
        let faulty: AgentSet = [0, 1].into_iter().map(a).collect();
        let mut pat = FailurePattern::new(params(), faulty.complement(4)).unwrap();
        for to in [0, 2, 3] {
            pat.drop_message(0, a(0), a(to)).unwrap();
        }
        for to in [0, 1, 3] {
            pat.drop_message(1, a(1), a(to)).unwrap();
        }
        let inits = [Value::Zero, Value::One, Value::One, Value::One];
        let run = run_min(&pat, &inits);
        assert_eq!(chain(&run, &pat, 2), Some(vec![a(0), a(1), a(2)]));
        // a3 hears a2's (nonfaulty) round-3 announcement: length-3 chain.
        assert_eq!(chain(&run, &pat, 3), Some(vec![a(0), a(1), a(2), a(3)]));
        verify_zero_chains(&MinExchange::new(params()), &run, &pat).unwrap();
    }

    #[test]
    fn a_link_needs_a_delivered_message() {
        // a0 and a1 (both faulty, init 0) decide 0 in round 1; a0's
        // announcement misses a2 only. a2's chain starts at a1, the one
        // whose message reached it; a3 heard both and takes the first.
        let faulty: AgentSet = [0, 1].into_iter().map(a).collect();
        let mut pat = FailurePattern::new(params(), faulty.complement(4)).unwrap();
        pat.drop_message(0, a(0), a(2)).unwrap();
        let inits = [Value::Zero, Value::Zero, Value::One, Value::One];
        let run = run_min(&pat, &inits);
        assert_eq!(chain(&run, &pat, 2), Some(vec![a(1), a(2)]));
        assert_eq!(chain(&run, &pat, 3), Some(vec![a(0), a(3)]));
        verify_zero_chains(&MinExchange::new(params()), &run, &pat).unwrap();
    }

    #[test]
    fn one_decisions_have_no_chain() {
        let pat = FailurePattern::failure_free(params());
        let run = run_min(&pat, &[Value::One; 4]);
        for i in 0..4 {
            assert_eq!(chain(&run, &pat, i), None);
        }
        verify_zero_chains(&MinExchange::new(params()), &run, &pat).unwrap();
    }

    #[test]
    fn pbasic_zero_decisions_are_chain_backed_under_random_adversaries() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let ctx = Context::basic(params());
        let sampler = AdversarySampler::new(FailureModel::SendingOmission, params(), 5, 0.4);
        let mut rng = StdRng::seed_from_u64(2024);
        for trial in 0..300 {
            let pat = sampler.sample(&mut rng);
            let bits: u32 = rng.random_range(0..16);
            let inits: Vec<Value> = (0..4)
                .map(|i| Value::from_bit(((bits >> i) & 1) as u8))
                .collect();
            let run = Scenario::of(&ctx)
                .pattern(pat.clone())
                .inits(&inits)
                .run()
                .unwrap();
            verify_zero_chains(ctx.exchange(), &run, &pat).unwrap_or_else(|agent| {
                panic!("trial {trial}: {agent} decided 0 without a 0-chain")
            });
        }
    }
}
