//! 0-chain reconstruction (Section 6).
//!
//! A *0-chain* of length `m` in a run is a sequence of distinct agents
//! `i_0, …, i_m` where `i_0` has initial preference 0, each `i_{m'}` first
//! decides 0 in round `m' + 1`, and each `i_{m'}` (for `m' ≥ 1`) learned in
//! round `m'` that `i_{m'-1}` just decided 0 — i.e. received its
//! `M_0`-class message. 0-chains are the *only* mechanism by which the
//! paper's protocols decide 0, which is what makes the 0-biased rule safe
//! under omission failures.

use eba_core::exchange::InformationExchange;
use eba_core::types::{Action, AgentId, Value};

use crate::trace::{MsgClass, Trace};

/// Reconstructs a 0-chain ending at `agent` from a trace, if `agent`
/// first decided 0 in some round `m + 1` having received a 0-chain.
///
/// Returns the chain `[i_0, …, i_m]` (ending with `agent`), or `None` if
/// `agent` never decided 0 or its decision is not chain-backed (which for
/// `P_min`/`P_basic` would indicate a protocol bug; for `P_opt` it happens
/// when the decision came from a common-knowledge rule instead).
pub fn zero_chain_ending_at<E: InformationExchange>(
    trace: &Trace<E>,
    agent: AgentId,
) -> Option<Vec<AgentId>> {
    let m = first_zero_decision_time(trace, agent)?;
    build_chain(trace, agent, m)
}

fn first_zero_decision_time<E: InformationExchange>(
    trace: &Trace<E>,
    agent: AgentId,
) -> Option<u32> {
    for (m, acts) in trace.actions.iter().enumerate() {
        match acts[agent.index()] {
            Action::Decide(Value::Zero) => return Some(m as u32),
            Action::Decide(Value::One) => return None,
            Action::Noop => {}
        }
    }
    None
}

fn build_chain<E: InformationExchange>(
    trace: &Trace<E>,
    agent: AgentId,
    m: u32,
) -> Option<Vec<AgentId>> {
    if m == 0 {
        return if trace.inits[agent.index()] == Value::Zero {
            Some(vec![agent])
        } else {
            None
        };
    }
    // Find a predecessor that decided 0 in round m (action at time m - 1)
    // whose M_0-class message reached `agent` in round m.
    for d in &trace.deliveries[m as usize - 1] {
        if d.to == agent && d.class == MsgClass::Decide(Value::Zero) && d.from != agent {
            if let Some(mut chain) = build_chain(trace, d.from, m - 1) {
                // Chain agents are distinct because each agent decides once.
                debug_assert!(!chain.contains(&agent));
                chain.push(agent);
                return Some(chain);
            }
        }
    }
    None
}

/// Verifies that **every** 0-decision in the trace is backed by a 0-chain,
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
pub fn verify_zero_chains<E: InformationExchange>(trace: &Trace<E>) -> Result<(), AgentId> {
    for i in 0..trace.params.n() {
        let agent = AgentId::new(i);
        if trace.decision_value(agent) == Some(Value::Zero)
            && zero_chain_ending_at(trace, agent).is_none()
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
    fn run_min(pattern: FailurePattern, inits: &[Value]) -> Trace<MinExchange> {
        Scenario::of(&Context::minimal(params()))
            .pattern(pattern)
            .inits(inits)
            .run()
            .unwrap()
    }

    fn a(i: usize) -> AgentId {
        AgentId::new(i)
    }

    #[test]
    fn failure_free_chains_have_length_one_hop() {
        let pat = FailurePattern::failure_free(params());
        let inits = [Value::Zero, Value::One, Value::One, Value::One];
        let trace = run_min(pat, &inits);
        assert_eq!(zero_chain_ending_at(&trace, a(0)), Some(vec![a(0)]));
        for i in 1..4 {
            let chain = zero_chain_ending_at(&trace, a(i)).unwrap();
            assert_eq!(chain, vec![a(0), a(i)]);
        }
        verify_zero_chains(&trace).unwrap();
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
        let trace = run_min(pat, &inits);
        let chain = zero_chain_ending_at(&trace, a(2)).unwrap();
        assert_eq!(chain, vec![a(0), a(1), a(2)]);
        // a3 hears a2's (nonfaulty) round-3 announcement: length-3 chain.
        let chain3 = zero_chain_ending_at(&trace, a(3)).unwrap();
        assert_eq!(chain3, vec![a(0), a(1), a(2), a(3)]);
        verify_zero_chains(&trace).unwrap();
    }

    #[test]
    fn one_decisions_have_no_chain() {
        let trace = run_min(FailurePattern::failure_free(params()), &[Value::One; 4]);
        for i in 0..4 {
            assert_eq!(zero_chain_ending_at(&trace, a(i)), None);
        }
        verify_zero_chains(&trace).unwrap();
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
            let trace = Scenario::of(&ctx).pattern(pat).inits(&inits).run().unwrap();
            verify_zero_chains(&trace).unwrap_or_else(|agent| {
                panic!("trial {trial}: {agent} decided 0 without a 0-chain")
            });
        }
    }
}
