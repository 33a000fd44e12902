//! The run kernel: the one loop that executes a run of a context against
//! a failure pattern, following the global-transition semantics of
//! Section 3.

use eba_core::context::{validate_scenario_shape, Context};
use eba_core::exchange::{
    choose_actions, initial_states, record_decisions, step_round_observed, InformationExchange,
    RoundObserver,
};
use eba_core::failures::FailurePattern;
use eba_core::protocols::ActionProtocol;
use eba_core::types::{Action, AgentId, EbaError, Value};

use crate::enumerate::EnumRun;
use crate::metrics::Metrics;
use crate::trace::{Delivery, MsgClass};

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

/// Executes one run of `ctx` for `horizon` rounds and returns its
/// trajectory. Each round applies, in order: the action protocol
/// (`P_i(s_i)`), message selection (`μ_i`), the failure pattern
/// (`F(m, i, j)`), and the state update (`δ_i`) — exactly the global
/// transition of Section 3, through the shared
/// [`step_round_observed`] routine.
///
/// This is the only loop over the rounds of a lockstep run in the
/// workspace: [`Scenario::run`](crate::scenario::Scenario::run) drives it
/// with the observer that fills a [`Trace`](crate::trace::Trace)'s
/// metrics and deliveries, the statistical estimator's `judge_case` with
/// [`NoObserver`](eba_core::exchange::NoObserver). It checks the input
/// shapes only ([`validate_scenario_shape`], O(1)); whether the
/// context's failure model admits the pattern is the caller's business
/// (`Scenario` checks it, the estimator samples admissible patterns).
///
/// # Errors
///
/// Returns [`EbaError::InvalidInput`] if `inits.len() != n` or the
/// pattern was built for different parameters.
pub fn run_rounds<E, P>(
    ctx: &Context<E, P>,
    pattern: &FailurePattern,
    inits: &[Value],
    horizon: u32,
    observer: &mut impl RoundObserver<E>,
) -> Result<EnumRun<E>, EbaError>
where
    E: InformationExchange,
    P: ActionProtocol<E>,
{
    let (ex, proto) = (ctx.exchange(), ctx.protocol());
    validate_scenario_shape(ctx.params(), pattern, inits)?;
    let mut states: Vec<Vec<E::State>> = Vec::with_capacity(horizon as usize + 1);
    let mut actions: Vec<Vec<Action>> = Vec::with_capacity(horizon as usize);
    states.push(initial_states(ex, inits));
    for m in 0..horizon {
        let current = &states[m as usize];
        let round_actions = choose_actions(proto, current);
        let next = step_round_observed(
            ex,
            current,
            &round_actions,
            |from, to| pattern.delivers(m, from, to),
            observer,
        );
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

/// The [`RoundObserver`] behind [`Scenario::run`](crate::scenario::Scenario::run):
/// accumulates a trace's [`Metrics`] and per-round [`Delivery`] records
/// while [`run_rounds`] executes.
pub(crate) struct TraceObserver<'a, E: InformationExchange> {
    ex: &'a E,
    /// The current round's message class per sender.
    classes: Vec<MsgClass>,
    pub(crate) metrics: Metrics,
    pub(crate) deliveries: Vec<Vec<Delivery>>,
}

impl<'a, E: InformationExchange> TraceObserver<'a, E> {
    pub(crate) fn new(ex: &'a E) -> Self {
        TraceObserver {
            ex,
            classes: Vec::new(),
            metrics: Metrics::new(ex.params().n()),
            deliveries: Vec::new(),
        }
    }
}

impl<E: InformationExchange> RoundObserver<E> for TraceObserver<'_, E> {
    fn on_round(&mut self, actions: &[Action]) {
        record_decisions(
            self.metrics.rounds,
            actions,
            &mut self.metrics.decision_rounds,
            &mut self.metrics.decision_values,
        );
        self.metrics.rounds += 1;
        self.classes.clear();
        self.classes
            .extend(actions.iter().map(|a| MsgClass::of_action(*a)));
        self.deliveries.push(Vec::new());
    }

    fn on_send(&mut self, _from: AgentId, _to: AgentId, msg: &E::Message) {
        self.metrics.messages_sent += 1;
        self.metrics.bits_sent += self.ex.message_bits(msg);
    }

    fn on_deliver(&mut self, from: AgentId, to: AgentId, msg: &E::Message) {
        self.metrics.messages_delivered += 1;
        self.metrics.bits_delivered += self.ex.message_bits(msg);
        self.deliveries
            .last_mut()
            .expect("on_round precedes the round's deliveries")
            .push(Delivery {
                from,
                to,
                class: self.classes[from.index()],
            });
    }
}

#[cfg(test)]
mod tests {
    use crate::scenario::Scenario;
    use crate::trace::{MsgClass, Trace};
    use eba_core::prelude::*;

    fn params() -> Params {
        Params::new(4, 1).unwrap()
    }

    /// One `E_min/P_min` run at the default horizon.
    fn run_min(pattern: FailurePattern, inits: &[Value]) -> Result<Trace<MinExchange>, EbaError> {
        Scenario::of(&Context::minimal(params()))
            .pattern(pattern)
            .inits(inits)
            .run()
    }

    #[test]
    fn rejects_wrong_init_length() {
        let pat = FailurePattern::failure_free(params());
        let err = run_min(pat, &[Value::One; 3]).unwrap_err();
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
        let err = run_min(pat, &[Value::One; 3]).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("inits: got 3"), "{msg}");
        assert!(msg.contains("pattern: got a pattern built for"), "{msg}");
    }

    #[test]
    fn rejects_mismatched_pattern() {
        // The kernel's own O(1) shape check, without the builder in front.
        let ctx = Context::minimal(params());
        let other = FailurePattern::failure_free(Params::new(5, 1).unwrap());
        let err = super::run_rounds(
            &ctx,
            &other,
            &[Value::One; 4],
            4,
            &mut eba_core::exchange::NoObserver,
        )
        .unwrap_err();
        assert!(
            err.to_string().contains("pattern: got a pattern built for"),
            "{err}"
        );
    }

    #[test]
    fn pmin_failure_free_all_ones_decides_at_deadline() {
        // Prop 8.2(b): P_min waits until round t + 2.
        let pat = FailurePattern::failure_free(params());
        let trace = run_min(pat, &[Value::One; 4]).unwrap();
        for i in 0..4 {
            assert_eq!(trace.decision_round(AgentId::new(i)), Some(3)); // t + 2
            assert_eq!(trace.decision_value(AgentId::new(i)), Some(Value::One));
        }
    }

    #[test]
    fn pmin_zero_spreads_in_two_rounds() {
        // Prop 8.2(a).
        let pat = FailurePattern::failure_free(params());
        let inits = [Value::Zero, Value::One, Value::One, Value::One];
        let trace = run_min(pat, &inits).unwrap();
        assert_eq!(trace.decision_round(AgentId::new(0)), Some(1));
        for i in 1..4 {
            assert_eq!(trace.decision_round(AgentId::new(i)), Some(2));
            assert_eq!(trace.decision_value(AgentId::new(i)), Some(Value::Zero));
        }
    }

    #[test]
    fn pmin_bit_count_is_n_squared() {
        // Prop 8.1: every agent broadcasts exactly one 1-bit message round.
        for inits in [[Value::One; 4], [Value::Zero; 4]] {
            let trace = run_min(FailurePattern::failure_free(params()), &inits).unwrap();
            assert_eq!(trace.metrics.bits_sent, 16, "n² bits");
            assert_eq!(trace.metrics.messages_sent, 16);
        }
    }

    #[test]
    fn deliveries_respect_the_pattern() {
        let faulty = AgentSet::singleton(AgentId::new(0));
        let mut pat = FailurePattern::new(params(), faulty.complement(4)).unwrap();
        // Agent 0 has init 0, decides round 1, but its announcement reaches
        // only agent 1.
        for to in 2..4 {
            pat.drop_message(0, AgentId::new(0), AgentId::new(to))
                .unwrap();
        }
        pat.drop_message(0, AgentId::new(0), AgentId::new(0))
            .unwrap();
        let inits = [Value::Zero, Value::One, Value::One, Value::One];
        let trace = run_min(pat, &inits).unwrap();
        // Agent 1 hears the 0 and decides in round 2; 2 and 3 only hear
        // agent 1's announcement and decide in round 3.
        assert_eq!(trace.decision_round(AgentId::new(1)), Some(2));
        assert_eq!(trace.decision_round(AgentId::new(2)), Some(3));
        assert_eq!(trace.decision_value(AgentId::new(3)), Some(Value::Zero));
        // Round-1 deliveries: only 0 → 1 (a Decide(0)-class message).
        let r1: Vec<_> = trace.deliveries[0].iter().collect();
        assert_eq!(r1.len(), 1);
        assert_eq!(r1[0].from, AgentId::new(0));
        assert_eq!(r1[0].to, AgentId::new(1));
        assert_eq!(r1[0].class, MsgClass::Decide(Value::Zero));
    }

    #[test]
    fn delivered_bits_exclude_drops() {
        let faulty = AgentSet::singleton(AgentId::new(0));
        let mut pat = FailurePattern::new(params(), faulty.complement(4)).unwrap();
        pat.silence_agent(AgentId::new(0), 0..4, true).unwrap();
        let inits = [Value::Zero, Value::One, Value::One, Value::One];
        let trace = run_min(pat, &inits).unwrap();
        // Agent 0's 4 sent bits never arrive.
        assert_eq!(trace.metrics.bits_sent - trace.metrics.bits_delivered, 4);
    }

    #[test]
    fn horizon_override() {
        let trace = Scenario::of(&Context::minimal(params()))
            .inits(&[Value::One; 4])
            .horizon(6)
            .run()
            .unwrap();
        assert_eq!(trace.horizon(), 6);
        assert_eq!(trace.states.len(), 7);
        assert_eq!(trace.metrics.rounds, 6);
        assert_eq!(trace.deliveries.len(), 6);
    }

    #[test]
    fn fip_popt_runs_through_the_runner() {
        let trace = Scenario::of(&Context::fip(params()))
            .inits(&[Value::One; 4])
            .run()
            .unwrap();
        for i in 0..4 {
            assert_eq!(trace.decision_round(AgentId::new(i)), Some(2));
        }
    }
}
