//! Per-session protocol engines: a [`SessionSpec`] describes one EBA
//! session (stack, pattern, inits, horizon); [`SessionSpec::build_engine`]
//! compiles it into a type-erased [`SessionEngine`] that advances one
//! synchronous round at a time over **encoded** wire frames, so sessions
//! running different stacks multiplex over the same byte-level router.

use eba_core::context::{admit_scenario, Context, NamedStack};
use eba_core::corpus::ScenarioSpec;
use eba_core::exchange::InformationExchange;
use eba_core::failures::FailurePattern;
use eba_core::protocols::ActionProtocol;
use eba_core::types::{Action, AgentId, EbaError, Params, Value};
use eba_transport::{BasicCodec, FipCodec, MinCodec, NaiveCodec, WireCodec};

/// One round's encoded frames, indexed `[from][to]` (`None` = no message).
pub type RoundFrames = Vec<Vec<Option<Vec<u8>>>>;

/// Everything needed to run one consensus session on the service: a
/// qualified registry stack name, the `(n, t)` parameters, the failure
/// pattern governing omissions, initial preferences, and a horizon.
#[derive(Clone, Debug)]
pub struct SessionSpec {
    /// Qualified stack name (`E_fip/P_opt@crash`), as registered.
    pub stack: String,
    /// The `(n, t)` parameters.
    pub params: Params,
    /// The failure pattern injected at the service router.
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
    /// the corpus format to the service.
    ///
    /// # Errors
    ///
    /// Returns [`EbaError::InvalidPattern`](eba_core::types::EbaError)
    /// when the scenario's drops are inadmissible under its model.
    pub fn from_scenario(spec: &ScenarioSpec) -> Result<Self, EbaError> {
        Ok(SessionSpec {
            stack: spec.qualified_stack(),
            params: spec.params,
            pattern: spec.to_pattern()?,
            inits: spec.inits.clone(),
            horizon: spec.horizon,
        })
    }

    /// Compiles the spec into a runnable engine, pairing the registry
    /// stack with its wire codec exactly like `run_named_cluster`.
    ///
    /// # Errors
    ///
    /// Returns [`EbaError::InvalidInput`] for unknown stacks, shape
    /// mismatches, or a pattern inadmissible under the stack's failure
    /// model — every message prefixed with the qualified stack name.
    pub fn build_engine(&self) -> Result<Box<dyn SessionEngine>, EbaError> {
        let stack = NamedStack::by_name(&self.stack, self.params)?;
        admit_scenario(
            self.params,
            stack.model(),
            &self.pattern,
            &self.inits,
            self.horizon,
        )
        .map_err(|e| {
            EbaError::InvalidInput(format!(
                "{}: {}",
                stack.qualified_name(),
                eba_core::context::error_message(&e)
            ))
        })?;
        Ok(match stack {
            NamedStack::Min(ctx) => {
                Box::new(TypedEngine::new(ctx, MinCodec, &self.inits, self.horizon))
            }
            NamedStack::Basic(ctx) => {
                Box::new(TypedEngine::new(ctx, BasicCodec, &self.inits, self.horizon))
            }
            NamedStack::Fip(ctx) => {
                Box::new(TypedEngine::new(ctx, FipCodec, &self.inits, self.horizon))
            }
            NamedStack::Naive(ctx) => {
                Box::new(TypedEngine::new(ctx, NaiveCodec, &self.inits, self.horizon))
            }
        })
    }
}

/// A type-erased, resumable EBA session advancing one synchronous round
/// per [`outgoing`](SessionEngine::outgoing) /
/// [`deliver`](SessionEngine::deliver) pair.
///
/// The engine does **not** apply the failure pattern — omission injection
/// happens at the service router, exactly where the lockstep cluster
/// injects it, so the two paths drop the same frames in the same place.
pub trait SessionEngine: Send {
    /// Number of agents.
    fn n(&self) -> usize;

    /// The current (0-based) message round.
    fn round(&self) -> u32;

    /// Whether the horizon has been reached.
    fn finished(&self) -> bool;

    /// Computes every agent's action for the current round and returns
    /// the encoded outgoing frames `[from][to]`. Must be followed by
    /// [`deliver`](SessionEngine::deliver) for the same round.
    fn outgoing(&mut self) -> RoundFrames;

    /// Delivers the round's post-omission frames `[from][to]` and
    /// advances every agent's state, ending the round.
    fn deliver(&mut self, frames: RoundFrames);

    /// Per-agent first decision round (the round *after* the acting
    /// round, matching the lockstep runner's convention).
    fn decision_rounds(&self) -> &[Option<u32>];

    /// Per-agent decision value.
    fn decision_values(&self) -> &[Option<Value>];
}

/// The monomorphic engine behind [`SessionSpec::build_engine`]: one
/// `(E, P)` stack plus its codec, holding every agent's state in lockstep.
struct TypedEngine<E: InformationExchange, P, C> {
    ctx: Context<E, P>,
    codec: C,
    states: Vec<E::State>,
    /// Actions computed by `outgoing`, consumed by `deliver`.
    actions: Vec<Action>,
    awaiting_delivery: bool,
    decision_rounds: Vec<Option<u32>>,
    decision_values: Vec<Option<Value>>,
    round: u32,
    horizon: u32,
}

impl<E, P, C> TypedEngine<E, P, C>
where
    E: InformationExchange,
    P: ActionProtocol<E>,
    C: WireCodec<E::Message>,
{
    fn new(ctx: Context<E, P>, codec: C, inits: &[Value], horizon: u32) -> Self {
        let n = ctx.params().n();
        let states = (0..n)
            .map(|i| ctx.exchange().initial_state(AgentId::new(i), inits[i]))
            .collect();
        TypedEngine {
            ctx,
            codec,
            states,
            actions: vec![Action::Noop; n],
            awaiting_delivery: false,
            decision_rounds: vec![None; n],
            decision_values: vec![None; n],
            round: 0,
            horizon,
        }
    }
}

impl<E, P, C> SessionEngine for TypedEngine<E, P, C>
where
    E: InformationExchange + Send + Sync + 'static,
    P: ActionProtocol<E> + Send + Sync + 'static,
    C: WireCodec<E::Message> + Send + 'static,
    E::State: Send,
{
    fn n(&self) -> usize {
        self.ctx.params().n()
    }

    fn round(&self) -> u32 {
        self.round
    }

    fn finished(&self) -> bool {
        self.round >= self.horizon
    }

    fn outgoing(&mut self) -> RoundFrames {
        assert!(!self.finished(), "outgoing() past the horizon");
        assert!(
            !self.awaiting_delivery,
            "outgoing() called twice in a round"
        );
        self.awaiting_delivery = true;
        let n = self.n();
        let mut frames = Vec::with_capacity(n);
        for i in 0..n {
            let me = AgentId::new(i);
            let action = self.ctx.protocol().act(me, &self.states[i]);
            if let Action::Decide(v) = action {
                if self.decision_rounds[i].is_none() {
                    self.decision_rounds[i] = Some(self.round + 1);
                    self.decision_values[i] = Some(v);
                }
            }
            self.actions[i] = action;
            let outgoing = self.ctx.exchange().outgoing(me, &self.states[i], action);
            frames.push(
                outgoing
                    .iter()
                    .map(|msg| msg.as_ref().map(|msg| self.codec.encode(msg)))
                    .collect(),
            );
        }
        frames
    }

    fn deliver(&mut self, frames: RoundFrames) {
        assert!(self.awaiting_delivery, "deliver() without outgoing()");
        let n = self.n();
        assert_eq!(frames.len(), n, "delivery shape mismatch");
        #[allow(clippy::needless_range_loop)] // `to` is a receiver id
        for to in 0..n {
            let me = AgentId::new(to);
            let received: Vec<Option<E::Message>> = (0..n)
                .map(|from| {
                    frames[from][to]
                        .as_deref()
                        .map(|bytes| self.codec.decode(bytes))
                })
                .collect();
            self.states[to] =
                self.ctx
                    .exchange()
                    .update(me, &self.states[to], self.actions[to], &received);
        }
        self.round += 1;
        self.awaiting_delivery = false;
    }

    fn decision_rounds(&self) -> &[Option<u32>] {
        &self.decision_rounds
    }

    fn decision_values(&self) -> &[Option<Value>] {
        &self.decision_values
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eba_core::prelude::*;

    fn params() -> Params {
        Params::new(4, 1).unwrap()
    }

    /// Runs an engine to its horizon, applying `pattern` by hand exactly
    /// as the service router would.
    fn drive(engine: &mut dyn SessionEngine, pattern: &FailurePattern) {
        while !engine.finished() {
            let round = engine.round();
            let mut frames = engine.outgoing();
            for (from, row) in frames.iter_mut().enumerate() {
                for (to, frame) in row.iter_mut().enumerate() {
                    if !pattern.delivers(round, AgentId::new(from), AgentId::new(to)) {
                        *frame = None;
                    }
                }
            }
            engine.deliver(frames);
        }
    }

    #[test]
    fn engine_matches_the_lockstep_cluster_on_every_stack() {
        let faulty = AgentSet::singleton(AgentId::new(0));
        let pattern = silent_pattern(params(), faulty, 4).unwrap();
        let inits = vec![Value::Zero, Value::One, Value::One, Value::One];
        for name in STACK_NAMES {
            let spec = SessionSpec::new(name, params(), pattern.clone(), inits.clone(), 4);
            let mut engine = spec.build_engine().unwrap();
            drive(engine.as_mut(), &pattern);
            let stack = NamedStack::by_name(name, params()).unwrap();
            let oracle = eba_transport::run_named_cluster(&stack, &pattern, &inits, 4).unwrap();
            assert_eq!(engine.decision_rounds(), oracle.decision_rounds, "{name}");
            assert_eq!(engine.decision_values(), oracle.decision_values, "{name}");
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
        let spec = SessionSpec::from_scenario(&parsed.spec).unwrap();
        assert_eq!(spec.stack, "E_naive/P_naive@general_omission");
        assert_eq!(spec.horizon, 4);
        let mut engine = spec.build_engine().unwrap();
        drive(engine.as_mut(), &spec.pattern);
        assert!(engine.finished());
    }
}
