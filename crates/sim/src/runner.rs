//! The run kernel: the one loop that executes a run of a context against
//! a failure pattern, following the global-transition semantics of
//! Section 3.

use eba_core::context::{validate_scenario_shape, Context};
use eba_core::exchange::{choose_actions, initial_states, step_round, InformationExchange};
use eba_core::failures::FailurePattern;
use eba_core::protocols::ActionProtocol;
use eba_core::types::{Action, EbaError, Value};

use crate::enumerate::EnumRun;

/// How much hardware parallelism batch work (exhaustive run enumeration,
/// sweeps) may use. A single simulated run is always sequential — rounds
/// are causally ordered — so this only affects APIs that process many
/// independent runs, such as
/// [`Scenario::enumerate`](crate::scenario::Scenario::enumerate).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Parallelism {
    /// Everything on the calling thread (the default).
    #[default]
    Sequential,
    /// One worker per available hardware thread.
    Auto,
    /// Exactly this many workers (`0` is treated as `1`).
    Fixed(usize),
}

impl Parallelism {
    /// The number of worker threads this setting resolves to on the
    /// current machine — always at least 1; in particular, `Fixed(0)`
    /// resolves to 1.
    #[must_use]
    pub fn worker_count(self) -> usize {
        match self {
            Parallelism::Sequential => 1,
            Parallelism::Auto => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            Parallelism::Fixed(k) => k.max(1),
        }
    }
}

/// Executes one run of `ctx` for `horizon` rounds and returns it. Each
/// round applies, in order: the action protocol (`P_i(s_i)`), message
/// selection (`μ_i`), the failure pattern (`F(m, i, j)`), and the state
/// update (`δ_i`) — exactly the global transition of Section 3, through
/// the shared [`step_round`] routine.
///
/// This is the only loop over the rounds of a lockstep run in the
/// workspace: [`Scenario::run`](crate::scenario::Scenario::run) and the
/// statistical estimator's `judge_case` both drive it. The run it
/// returns is the one run record; decisions, traffic
/// ([`Metrics::of`](crate::metrics::Metrics::of)) and 0-chains
/// ([`crate::chains`]) are views computed from it and its pattern. It
/// checks the input shapes only ([`validate_scenario_shape`], O(1),
/// which also refuses a horizon above
/// [`MAX_HORIZON`](eba_core::context::MAX_HORIZON)); whether the
/// context's failure model admits the pattern is the caller's business
/// (`Scenario` checks it, the estimator samples admissible patterns).
///
/// # Errors
///
/// Returns [`EbaError::InvalidInput`] if `inits.len() != n`, the pattern
/// was built for different parameters, or the horizon is too long.
pub fn run_rounds<E, P>(
    ctx: &Context<E, P>,
    pattern: &FailurePattern,
    inits: &[Value],
    horizon: u32,
) -> Result<EnumRun<E>, EbaError>
where
    E: InformationExchange,
    P: ActionProtocol<E>,
{
    let (ex, proto) = (ctx.exchange(), ctx.protocol());
    validate_scenario_shape(ctx.params(), pattern, inits, horizon)?;
    let mut states: Vec<Vec<E::State>> = Vec::with_capacity(horizon as usize + 1);
    let mut actions: Vec<Vec<Action>> = Vec::with_capacity(horizon as usize);
    states.push(initial_states(ex, inits));
    for m in 0..horizon {
        let current = &states[m as usize];
        let round_actions = choose_actions(proto, current);
        let next = step_round(ex, current, &round_actions, |from, to| {
            pattern.delivers(m, from, to)
        });
        states.push(next);
        actions.push(round_actions);
    }
    Ok(EnumRun {
        nonfaulty: pattern.nonfaulty(),
        inits: inits.to_vec(),
        states,
        actions,
    })
}

#[cfg(test)]
mod tests {
    use crate::chains::zero_chain_ending_at;
    use crate::enumerate::EnumRun;
    use crate::metrics::Metrics;
    use crate::scenario::Scenario;
    use eba_core::prelude::*;

    fn params() -> Params {
        Params::new(4, 1).unwrap()
    }

    /// One `E_min/P_min` run at the default horizon.
    fn run_min(
        pattern: &FailurePattern,
        inits: &[Value],
    ) -> Result<EnumRun<MinExchange>, EbaError> {
        Scenario::of(&Context::minimal(params()))
            .pattern(pattern.clone())
            .inits(inits)
            .run()
    }

    /// The traffic of an `E_min` run under `pattern`.
    fn traffic(run: &EnumRun<MinExchange>, pattern: &FailurePattern) -> Metrics {
        Metrics::of(&MinExchange::new(params()), run, pattern)
    }

    #[test]
    fn rejects_wrong_init_length() {
        let pat = FailurePattern::failure_free(params());
        let err = run_min(&pat, &[Value::One; 3]).unwrap_err();
        // The message names the argument and the expected length, in the
        // same format as the pattern-mismatch error.
        let msg = err.to_string();
        assert!(msg.contains("inits: got 3"), "{msg}");
        assert!(msg.contains("(expected n = 4)"), "{msg}");
    }

    #[test]
    fn reports_all_shape_errors_at_once() {
        let other = Params::new(5, 1).unwrap();
        let pat = FailurePattern::failure_free(other);
        let err = run_min(&pat, &[Value::One; 3]).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("inits: got 3"), "{msg}");
        assert!(msg.contains("pattern: got a pattern built for"), "{msg}");
    }

    #[test]
    fn rejects_mismatched_pattern() {
        // The kernel's own O(1) shape check, without the builder in front.
        let ctx = Context::minimal(params());
        let other = FailurePattern::failure_free(Params::new(5, 1).unwrap());
        let err = super::run_rounds(&ctx, &other, &[Value::One; 4], 4).unwrap_err();
        assert!(
            err.to_string().contains("pattern: got a pattern built for"),
            "{err}"
        );
    }

    #[test]
    fn pmin_failure_free_all_ones_decides_at_deadline() {
        // Prop 8.2(b): P_min waits until round t + 2.
        let pat = FailurePattern::failure_free(params());
        let run = run_min(&pat, &[Value::One; 4]).unwrap();
        for i in 0..4 {
            assert_eq!(run.decision_round(AgentId::new(i)), Some(3)); // t + 2
            assert_eq!(run.decision_value(AgentId::new(i)), Some(Value::One));
        }
    }

    #[test]
    fn pmin_zero_spreads_in_two_rounds() {
        // Prop 8.2(a).
        let pat = FailurePattern::failure_free(params());
        let inits = [Value::Zero, Value::One, Value::One, Value::One];
        let run = run_min(&pat, &inits).unwrap();
        assert_eq!(run.decision_round(AgentId::new(0)), Some(1));
        for i in 1..4 {
            assert_eq!(run.decision_round(AgentId::new(i)), Some(2));
            assert_eq!(run.decision_value(AgentId::new(i)), Some(Value::Zero));
        }
    }

    #[test]
    fn pmin_bit_count_is_n_squared() {
        // Prop 8.1: every agent broadcasts exactly one 1-bit message round.
        let pat = FailurePattern::failure_free(params());
        for inits in [[Value::One; 4], [Value::Zero; 4]] {
            let metrics = traffic(&run_min(&pat, &inits).unwrap(), &pat);
            assert_eq!(metrics.bits_sent, 16, "n² bits");
            assert_eq!(metrics.messages_sent, 16);
        }
    }

    #[test]
    fn deliveries_respect_the_pattern() {
        let a = AgentId::new;
        let faulty = AgentSet::singleton(a(0));
        let mut pat = FailurePattern::new(params(), faulty.complement(4)).unwrap();
        // Agent 0 has init 0, decides round 1, but its announcement reaches
        // only agent 1.
        for to in 2..4 {
            pat.drop_message(0, a(0), a(to)).unwrap();
        }
        pat.drop_message(0, a(0), a(0)).unwrap();
        let inits = [Value::Zero, Value::One, Value::One, Value::One];
        let run = run_min(&pat, &inits).unwrap();
        // Agent 1 hears the 0 and decides in round 2; 2 and 3 only hear
        // agent 1's announcement and decide in round 3.
        assert_eq!(run.decision_round(a(1)), Some(2));
        assert_eq!(run.decision_round(a(2)), Some(3));
        assert_eq!(run.decision_value(a(3)), Some(Value::Zero));
        // Round 1 delivers a0's Decide(0)-class message to a1 alone, so
        // every 0-chain but a0's own runs through a1.
        let ex = MinExchange::new(params());
        assert_eq!(
            zero_chain_ending_at(&ex, &run, &pat, a(1)),
            Some(vec![a(0), a(1)])
        );
        for i in 2..4 {
            let chain = zero_chain_ending_at(&ex, &run, &pat, a(i));
            assert_eq!(chain, Some(vec![a(0), a(1), a(i)]));
        }
        // Of a0's four round-1 sends, one arrives.
        let metrics = traffic(&run, &pat);
        assert_eq!(metrics.messages_sent - metrics.messages_delivered, 3);
    }

    #[test]
    fn delivered_bits_exclude_drops() {
        let faulty = AgentSet::singleton(AgentId::new(0));
        let mut pat = FailurePattern::new(params(), faulty.complement(4)).unwrap();
        pat.silence_agent(AgentId::new(0), 0..4, true).unwrap();
        let inits = [Value::Zero, Value::One, Value::One, Value::One];
        let metrics = traffic(&run_min(&pat, &inits).unwrap(), &pat);
        // Agent 0's 4 sent bits never arrive.
        assert_eq!(metrics.bits_sent - metrics.bits_delivered, 4);
    }

    #[test]
    fn horizon_override() {
        let run = Scenario::of(&Context::minimal(params()))
            .inits(&[Value::One; 4])
            .horizon(6)
            .run()
            .unwrap();
        assert_eq!(run.horizon(), 6);
        assert_eq!(run.states.len(), 7);
    }

    #[test]
    fn fip_popt_runs_through_the_runner() {
        let run = Scenario::of(&Context::fip(params()))
            .inits(&[Value::One; 4])
            .run()
            .unwrap();
        for i in 0..4 {
            assert_eq!(run.decision_round(AgentId::new(i)), Some(2));
        }
    }
}
