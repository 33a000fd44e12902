//! Session specs: a [`SessionSpec`] describes one EBA session (stack,
//! pattern, inits, horizon); [`SessionSpec::build_engine`] compiles it
//! into `eba-transport`'s type-erased [`SessionEngine`], which advances
//! one synchronous round at a time over **encoded** wire frames, so
//! sessions running different stacks run through the same byte-level
//! loop (`eba_transport::run_engine`).

use eba_core::context::{Context, NamedStack, StackVisitor};
use eba_core::corpus::ScenarioSpec;
use eba_core::exchange::InformationExchange;
use eba_core::failures::FailurePattern;
use eba_core::protocols::ActionProtocol;
use eba_core::types::{EbaError, Params, Value};
use eba_sim::scenario::Scenario;
use eba_transport::{named_engine, SessionEngine};

/// Everything needed to run one consensus session on the service: a
/// qualified registry stack name, the `(n, t)` parameters, the failure
/// pattern governing omissions, initial preferences, and a horizon.
#[derive(Clone, Debug)]
pub struct SessionSpec {
    /// Qualified stack name (`E_fip/P_opt@crash`), as registered.
    pub stack: String,
    /// The `(n, t)` parameters.
    pub params: Params,
    /// The failure pattern whose omissions the session's frames suffer.
    pub pattern: FailurePattern,
    /// Initial preferences, one per agent.
    pub inits: Vec<Value>,
    /// Rounds to execute.
    pub horizon: u32,
}

impl SessionSpec {
    /// Bundles the pieces of a session.
    pub fn new(
        stack: impl Into<String>,
        params: Params,
        pattern: FailurePattern,
        inits: Vec<Value>,
        horizon: u32,
    ) -> Self {
        SessionSpec {
            stack: stack.into(),
            params,
            pattern,
            inits,
            horizon,
        }
    }

    /// Converts a parsed `.eba` scenario into a session — the bridge from
    /// the corpus format to the service. Admission happens when the
    /// engine is built.
    pub fn from_scenario(spec: &ScenarioSpec) -> Self {
        let case = spec.case.clone();
        SessionSpec::new(
            spec.qualified_stack(),
            spec.params(),
            case.pattern,
            case.inits,
            case.horizon,
        )
    }

    /// Compiles the spec into a runnable engine: registry lookup, then
    /// `eba-transport`'s [`named_engine`] (admission plus the stack's
    /// wire codec).
    ///
    /// # Errors
    ///
    /// Returns [`EbaError::InvalidInput`] for unknown stacks, shape
    /// mismatches, or a pattern inadmissible under the stack's failure
    /// model — every message prefixed with the qualified stack name.
    pub fn build_engine(&self) -> Result<Box<dyn SessionEngine>, EbaError> {
        let stack = NamedStack::by_name(&self.stack, self.params)?;
        named_engine(&stack, &self.pattern, &self.inits, self.horizon)
    }

    /// The decision vectors (rounds, values) the lockstep simulator
    /// (`Scenario::run`) derives for this spec — the reference the wire
    /// path is judged against. The two share `eba-core`'s round kernel;
    /// codecs, frame routing, omission injection on frames and the session
    /// loop are the wire path's alone.
    pub(crate) fn lockstep_decisions(&self) -> Result<DecisionVectors, EbaError> {
        struct Lockstep<'a>(&'a SessionSpec);
        impl StackVisitor for Lockstep<'_> {
            type Output = Result<DecisionVectors, EbaError>;
            fn visit<E, P>(self, ctx: &Context<E, P>) -> Self::Output
            where
                E: InformationExchange + Clone + Sync + 'static,
                P: ActionProtocol<E> + Clone + Sync + 'static,
            {
                let run = Scenario::of(ctx)
                    .pattern(self.0.pattern.clone())
                    .inits(&self.0.inits)
                    .horizon(self.0.horizon)
                    .run()?;
                Ok(run.decisions())
            }
        }
        NamedStack::by_name(&self.stack, self.params)?.visit(Lockstep(self))
    }
}

/// Per-agent first decision rounds and decision values.
type DecisionVectors = (Vec<Option<u32>>, Vec<Option<Value>>);

#[cfg(test)]
mod tests {
    use super::*;
    use eba_core::prelude::*;
    use eba_transport::run_engine;

    fn params() -> Params {
        Params::new(4, 1).unwrap()
    }

    #[test]
    fn engine_matches_the_lockstep_cluster_on_every_stack() {
        // The reference is the lockstep simulator (`Scenario::run`), not
        // the transport's loopback, which would be this engine again.
        let faulty = AgentSet::singleton(AgentId::new(0));
        let pattern = silent_pattern(params(), faulty, 4).unwrap();
        let inits = vec![Value::Zero, Value::One, Value::One, Value::One];
        for name in STACK_NAMES {
            let spec = SessionSpec::new(name, params(), pattern.clone(), inits.clone(), 4);
            let mut engine = spec.build_engine().unwrap();
            let run = run_engine(engine.as_mut(), &pattern);
            let (rounds, values) = spec.lockstep_decisions().unwrap();
            assert_eq!(run.decision_rounds, rounds, "{name}");
            assert_eq!(run.decision_values, values, "{name}");
        }
    }

    #[test]
    fn build_rejects_bad_shapes_with_the_qualified_name() {
        let pattern = FailurePattern::failure_free(params());
        let spec = SessionSpec::new(
            "E_basic/P_basic@crash",
            params(),
            pattern,
            vec![Value::One; 3],
            4,
        );
        let err = spec.build_engine().err().expect("shape must be rejected");
        let msg = eba_core::context::error_message(&err);
        assert!(msg.starts_with("E_basic/P_basic@crash: "), "{msg}");
        assert!(msg.contains("inits: got 3"), "{msg}");
    }

    #[test]
    fn build_rejects_inadmissible_patterns() {
        let faulty = AgentSet::singleton(AgentId::new(0));
        let pattern = isolation_pattern(params(), faulty, 4).unwrap();
        let spec = SessionSpec::new(
            "E_fip/P_opt@crash",
            params(),
            pattern,
            vec![Value::One; 4],
            4,
        );
        let err = spec.build_engine().err().expect("pattern must be rejected");
        let msg = eba_core::context::error_message(&err);
        assert!(msg.starts_with("E_fip/P_opt@crash: "), "{msg}");
        assert!(msg.contains("not admissible"), "{msg}");
    }

    #[test]
    fn from_scenario_round_trips_the_corpus_format() {
        let text = "stack = E_naive/P_naive\nmodel = general_omission\nn = 3\nt = 1\nhorizon = 4\nnonfaulty = 1 2\ninits = 0 1 1\ndrop = round 1 from 0 to 0 1\n";
        let parsed = eba_core::corpus::parse_scenario(text).unwrap();
        let spec = SessionSpec::from_scenario(&parsed.spec);
        assert_eq!(spec.stack, "E_naive/P_naive@general_omission");
        assert_eq!(spec.horizon, 4);
        let mut engine = spec.build_engine().unwrap();
        run_engine(engine.as_mut(), &spec.pattern);
        assert!(engine.finished());
    }
}
