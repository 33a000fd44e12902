//! Contexts `γ = (E, F, π)` as first-class values, and a string-keyed
//! registry of the paper's named protocol stacks.
//!
//! The paper's notion of optimality is *relative to a context*: an
//! information-exchange protocol `E`, the failure environment (`SO(t)`
//! unless another [`FailureModel`] is selected, with `t` fixed by
//! [`Params`]), and the interpretation `π` (fixed by the state
//! components every EBA exchange exposes). [`Context`] bundles the
//! free choices — the exchange, the action protocol living on it, and
//! the failure model that judges every pattern a run may face — so
//! that simulators, model checkers, experiments, and the benchmark take *one*
//! value instead of re-threading `(&exchange, &protocol, …)` positionally.
//!
//! The four stacks studied by the paper are registered by name
//! ([`STACK_NAMES`]): `"E_min/P_min"`, `"E_basic/P_basic"`,
//! `"E_fip/P_opt"`, and `"E_naive/P_naive"`. [`NamedStack::by_name`]
//! builds any of them at given parameters, and [`NamedStack::visit`]
//! dispatches a generic computation ([`StackVisitor`]) to the concrete
//! monomorphized types — this is how the experiments CLI, the benchmark,
//! and the transport cluster select stacks from strings.

use crate::exchange::{
    BasicExchange, FipExchange, InformationExchange, MinExchange, NaiveExchange,
};
use crate::failures::{FailureModel, FailurePattern};
use crate::protocols::{ActionProtocol, NaiveZeroBiased, PBasic, PMin, POpt};
use crate::types::{EbaError, Params, Value};

/// A context `γ`: an information-exchange protocol plus the action
/// protocol under study, over the failure environment fixed by the
/// exchange's [`Params`] and the context's [`FailureModel`] (the paper's
/// `SO(t)` by default).
///
/// `Context` is the unit of composition for every downstream API: the
/// `eba-sim` `Scenario` builder runs and enumerates contexts, the
/// epistemic model checker builds interpreted systems from them, and the
/// registry ([`NamedStack`]) names the paper's four stacks — optionally
/// model-qualified, e.g. `"E_fip/P_opt@crash"`.
///
/// ```
/// use eba_core::prelude::*;
///
/// # fn main() -> Result<(), EbaError> {
/// let params = Params::new(4, 1)?;
/// let ctx = Context::basic(params);
/// assert_eq!(ctx.name(), "E_basic/P_basic");
/// assert_eq!(ctx.model(), FailureModel::SendingOmission);
/// let crashy = ctx.with_model(FailureModel::Crash);
/// assert_eq!(crashy.qualified_name(), "E_basic/P_basic@crash");
/// assert_eq!(crashy.params(), params);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Context<E, P> {
    exchange: E,
    protocol: P,
    model: FailureModel,
}

impl<E, P> Context<E, P>
where
    E: InformationExchange,
    P: ActionProtocol<E>,
{
    /// Bundles an exchange and an action protocol into a context over the
    /// default sending-omissions environment; select another failure
    /// model with [`with_model`](Context::with_model).
    pub fn new(exchange: E, protocol: P) -> Self {
        Context {
            exchange,
            protocol,
            model: FailureModel::SendingOmission,
        }
    }

    /// The same stack over a different failure environment.
    #[must_use]
    pub fn with_model(mut self, model: FailureModel) -> Self {
        self.model = model;
        self
    }

    /// The failure model of the environment (`SO(t)` unless overridden).
    pub fn model(&self) -> FailureModel {
        self.model
    }

    /// The information-exchange protocol `E`.
    pub fn exchange(&self) -> &E {
        &self.exchange
    }

    /// The action protocol `P`.
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// The instance parameters `(n, t)` of the `SO(t)` environment.
    pub fn params(&self) -> Params {
        self.exchange.params()
    }

    /// The stack name, `"<exchange>/<protocol>"` (e.g. `"E_min/P_min"`),
    /// without the model qualifier.
    pub fn name(&self) -> String {
        format!("{}/{}", self.exchange.name(), self.protocol.name())
    }

    /// The model-qualified stack name: [`name`](Context::name) plus the
    /// model suffix (e.g. `"E_min/P_min@crash"`); identical to the plain
    /// name for the default sending-omissions model, so pre-model names
    /// keep meaning what they always meant.
    pub fn qualified_name(&self) -> String {
        format!("{}{}", self.name(), self.model.suffix())
    }

    /// Splits the context back into its parts (the model is dropped).
    pub fn into_parts(self) -> (E, P) {
        (self.exchange, self.protocol)
    }
}

impl Context<MinExchange, PMin> {
    /// The minimal-information stack `E_min/P_min` (Thm 6.5).
    pub fn minimal(params: Params) -> Self {
        Context::new(MinExchange::new(params), PMin::new(params))
    }
}

impl Context<BasicExchange, PBasic> {
    /// The basic stack `E_basic/P_basic` (Thm 6.6).
    pub fn basic(params: Params) -> Self {
        Context::new(BasicExchange::new(params), PBasic::new(params))
    }
}

impl Context<FipExchange, POpt> {
    /// The full-information stack `E_fip/P_opt` (Prop 7.9 / Cor 7.8).
    pub fn fip(params: Params) -> Self {
        Context::new(FipExchange::new(params), POpt::new(params))
    }
}

impl Context<NaiveExchange, NaiveZeroBiased> {
    /// The introduction's 0-biased stack `E_naive/P_naive`, which violates
    /// Agreement under omission failures.
    pub fn naive(params: Params) -> Self {
        Context::new(NaiveExchange::new(params), NaiveZeroBiased::new(params))
    }
}

/// The base names of the registered stacks, in registry order. Each may
/// be qualified with a failure model as `"<stack>@<model>"` (e.g.
/// `"E_fip/P_opt@crash"`, see
/// [`MODEL_NAMES`](crate::failures::MODEL_NAMES)); the unqualified name
/// selects the paper's sending-omissions environment.
pub const STACK_NAMES: [&str; 4] = [
    "E_min/P_min",
    "E_basic/P_basic",
    "E_fip/P_opt",
    "E_naive/P_naive",
];

/// A generic computation over a context, dispatched by [`NamedStack::visit`].
///
/// This is the bridge from string-keyed stack selection back to static
/// dispatch: implement `visit` once, generically, and `NamedStack` calls
/// it with the concrete monomorphized exchange/protocol pair. The bounds
/// cover everything the batch APIs need (threaded enumeration, the
/// transport's round engine, interpreted-system construction).
pub trait StackVisitor {
    /// The result of the computation.
    type Output;

    /// Runs the computation on one concrete stack.
    fn visit<E, P>(self, ctx: &Context<E, P>) -> Self::Output
    where
        E: InformationExchange + Clone + Sync + 'static,
        P: ActionProtocol<E> + Clone + Sync + 'static;
}

/// One of the registered stacks, built by name via [`NamedStack::by_name`].
///
/// The registry is an enum rather than a trait object because
/// [`InformationExchange`] has associated state/message types; the enum
/// keeps every downstream use fully monomorphized while still letting
/// callers select stacks from strings.
///
/// ```
/// use eba_core::prelude::*;
///
/// # fn main() -> Result<(), EbaError> {
/// let params = Params::new(3, 1)?;
/// let stack = NamedStack::by_name("E_fip/P_opt", params)?;
/// assert_eq!(stack.name(), "E_fip/P_opt");
/// // Model-qualified entries select another failure environment:
/// let crashy = NamedStack::by_name("E_fip/P_opt@crash", params)?;
/// assert_eq!(crashy.model(), FailureModel::Crash);
/// assert_eq!(crashy.qualified_name(), "E_fip/P_opt@crash");
/// assert!(NamedStack::by_name("E_min/P_basic", params).is_err());
/// assert!(NamedStack::by_name("E_min/P_min@byzantine", params).is_err());
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub enum NamedStack {
    /// `E_min/P_min`.
    Min(Context<MinExchange, PMin>),
    /// `E_basic/P_basic`.
    Basic(Context<BasicExchange, PBasic>),
    /// `E_fip/P_opt`.
    Fip(Context<FipExchange, POpt>),
    /// `E_naive/P_naive`.
    Naive(Context<NaiveExchange, NaiveZeroBiased>),
}

impl NamedStack {
    /// Builds the stack registered under `name` at the given parameters.
    /// `name` is a base stack name from [`STACK_NAMES`], optionally
    /// qualified with a failure model: `"E_basic/P_basic@crash"`,
    /// `"E_fip/P_opt@general_omission"`, … (unqualified names select the
    /// default sending-omissions environment).
    ///
    /// # Errors
    ///
    /// Returns [`EbaError::InvalidInput`] naming the registered stacks if
    /// the base name is not one of [`STACK_NAMES`], or the known models
    /// if the `@model` qualifier is unrecognized.
    pub fn by_name(name: &str, params: Params) -> Result<NamedStack, EbaError> {
        let (base, model) = match name.split_once('@') {
            Some((base, model)) => (base, FailureModel::by_name(model)?),
            None => (name, FailureModel::SendingOmission),
        };
        let stack = match base {
            "E_min/P_min" => NamedStack::Min(Context::minimal(params).with_model(model)),
            "E_basic/P_basic" => NamedStack::Basic(Context::basic(params).with_model(model)),
            "E_fip/P_opt" => NamedStack::Fip(Context::fip(params).with_model(model)),
            "E_naive/P_naive" => NamedStack::Naive(Context::naive(params).with_model(model)),
            other => {
                return Err(EbaError::InvalidInput(format!(
                    "unknown stack {other:?}; registered stacks: {} \
                     (optionally qualified as <stack>@<model>)",
                    STACK_NAMES.join(", ")
                )))
            }
        };
        Ok(stack)
    }

    /// The registered base name of this stack (without the model
    /// qualifier; see [`qualified_name`](NamedStack::qualified_name)).
    pub fn name(&self) -> &'static str {
        match self {
            NamedStack::Min(_) => STACK_NAMES[0],
            NamedStack::Basic(_) => STACK_NAMES[1],
            NamedStack::Fip(_) => STACK_NAMES[2],
            NamedStack::Naive(_) => STACK_NAMES[3],
        }
    }

    /// The model-qualified registry name, round-tripping through
    /// [`by_name`](NamedStack::by_name): `"E_basic/P_basic@crash"`, or
    /// the bare base name for the default sending-omissions model.
    pub fn qualified_name(&self) -> String {
        format!("{}{}", self.name(), self.model().suffix())
    }

    /// The failure model of this stack's environment.
    pub fn model(&self) -> FailureModel {
        match self {
            NamedStack::Min(c) => c.model(),
            NamedStack::Basic(c) => c.model(),
            NamedStack::Fip(c) => c.model(),
            NamedStack::Naive(c) => c.model(),
        }
    }

    /// The instance parameters.
    pub fn params(&self) -> Params {
        match self {
            NamedStack::Min(c) => c.params(),
            NamedStack::Basic(c) => c.params(),
            NamedStack::Fip(c) => c.params(),
            NamedStack::Naive(c) => c.params(),
        }
    }

    /// Dispatches `visitor` to the concrete context.
    pub fn visit<V: StackVisitor>(&self, visitor: V) -> V::Output {
        match self {
            NamedStack::Min(c) => visitor.visit(c),
            NamedStack::Basic(c) => visitor.visit(c),
            NamedStack::Fip(c) => visitor.visit(c),
            NamedStack::Naive(c) => visitor.visit(c),
        }
    }
}

/// The longest horizon any entry point runs, in rounds. Every registry
/// stack decides by round `t + 2 ≤ AgentId::MAX_AGENTS + 1 = 129`, so a
/// longer run only repeats `noop`s; refusing it keeps an `.eba` file, a
/// session spec or a trial plan from sizing a run's buffers by an
/// arbitrary `u32`.
pub const MAX_HORIZON: u32 = 1024;

/// Refuses a horizon above [`MAX_HORIZON`], naming the `horizon` argument.
///
/// # Errors
///
/// Returns [`EbaError::InvalidInput`] for `horizon > MAX_HORIZON`.
pub fn check_horizon(horizon: u32) -> Result<(), EbaError> {
    if horizon > MAX_HORIZON {
        return Err(EbaError::InvalidInput(format!(
            "horizon: got {horizon} rounds (expected at most MAX_HORIZON = {MAX_HORIZON}: \
             every stack decides by round t + 2)"
        )));
    }
    Ok(())
}

/// Validates the shape of scenario inputs against a context's parameters
/// in O(1), reporting **every** problem at once (not just the first):
/// each problem names the offending argument and states the expected
/// shape, and a horizon above [`MAX_HORIZON`] is one of them
/// ([`check_horizon`]). This is the whole check of the run kernel
/// ([`step_rounds`](crate::exchange::step_rounds)), whose callers sample
/// or build their own patterns; entry points that accept a pattern from
/// outside go through [`admit_scenario`], which starts with it.
///
/// # Errors
///
/// Returns [`EbaError::InvalidInput`] listing, `; `-separated, every
/// argument whose shape disagrees with `params`.
pub fn validate_scenario_shape(
    params: Params,
    pattern: &FailurePattern,
    inits: &[Value],
    horizon: u32,
) -> Result<(), EbaError> {
    let mut problems = Vec::new();
    if inits.len() != params.n() {
        problems.push(format!(
            "inits: got {} initial preferences (expected n = {})",
            inits.len(),
            params.n()
        ));
    }
    if pattern.params() != params {
        problems.push(format!(
            "pattern: got a pattern built for {} (expected {})",
            pattern.params(),
            params
        ));
    }
    if let Err(e) = check_horizon(horizon) {
        problems.push(error_message(&e));
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(EbaError::InvalidInput(problems.join("; ")))
    }
}

/// The one admission check every entry point that takes a pattern from
/// outside applies (the `Scenario` builder, the `.eba` validator, the
/// transport's engine compiler): [`validate_scenario_shape`], then the
/// pattern against `model`, the model of the context it is to run in —
/// the one judge of which patterns a run may face — through the whole
/// `horizon` ([`FailureModel::admits_pattern_up_to`]). That catches a
/// receive-side drop outside general omissions, a crashed sender that
/// resumes sending, and a crash whose recorded silence ends before the
/// run does, which would otherwise silently revive.
///
/// # Errors
///
/// Returns [`EbaError::InvalidInput`] listing every problem found,
/// `; `-separated (the model check needs a pattern of the right
/// parameters and a horizon it can walk, so a parameter mismatch or a
/// refused horizon is reported without it).
pub fn admit_scenario(
    params: Params,
    model: FailureModel,
    pattern: &FailurePattern,
    inits: &[Value],
    horizon: u32,
) -> Result<(), EbaError> {
    let mut problems: Vec<String> = validate_scenario_shape(params, pattern, inits, horizon)
        .err()
        .iter()
        .map(error_message)
        .collect();
    if pattern.params() == params && horizon <= MAX_HORIZON {
        if let Err(e) = model.admits_pattern_up_to(pattern, horizon) {
            problems.push(format!(
                "pattern: not admissible under the context's {model} model ({})",
                error_message(&e)
            ));
        }
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(EbaError::InvalidInput(problems.join("; ")))
    }
}

/// The payload of an [`EbaError`], without the variant prefix its
/// `Display` impl adds — for splicing one error's message into another.
pub fn error_message(e: &EbaError) -> String {
    match e {
        EbaError::InvalidParams(msg)
        | EbaError::InvalidPattern(msg)
        | EbaError::InvalidInput(msg) => msg.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> Params {
        Params::new(4, 1).unwrap()
    }

    #[test]
    fn contexts_report_their_names() {
        assert_eq!(Context::minimal(params()).name(), "E_min/P_min");
        assert_eq!(Context::basic(params()).name(), "E_basic/P_basic");
        assert_eq!(Context::fip(params()).name(), "E_fip/P_opt");
        assert_eq!(Context::naive(params()).name(), "E_naive/P_naive");
    }

    #[test]
    fn every_registered_name_builds_and_round_trips() {
        for name in STACK_NAMES {
            let stack = NamedStack::by_name(name, params()).unwrap();
            assert_eq!(stack.name(), name);
            assert_eq!(stack.params(), params());
        }
    }

    #[test]
    fn unknown_stack_names_every_registered_one() {
        let err = NamedStack::by_name("E_min/P_opt", params()).unwrap_err();
        let msg = err.to_string();
        for name in STACK_NAMES {
            assert!(msg.contains(name), "{msg}");
        }
    }

    #[test]
    fn visitor_reaches_the_concrete_context() {
        struct NameOf;
        impl StackVisitor for NameOf {
            type Output = String;
            fn visit<E, P>(self, ctx: &Context<E, P>) -> String
            where
                E: InformationExchange + Clone + Sync + 'static,
                P: ActionProtocol<E> + Clone + Sync + 'static,
            {
                ctx.name()
            }
        }
        for name in STACK_NAMES {
            let stack = NamedStack::by_name(name, params()).unwrap();
            assert_eq!(stack.visit(NameOf), name);
        }
    }

    #[test]
    fn qualified_names_round_trip_through_the_registry() {
        use crate::failures::MODEL_NAMES;
        for base in STACK_NAMES {
            for model_name in MODEL_NAMES {
                let model = FailureModel::by_name(model_name).unwrap();
                let qualified = format!("{base}{}", model.suffix());
                let stack = NamedStack::by_name(&qualified, params()).unwrap();
                assert_eq!(stack.name(), base);
                assert_eq!(stack.model(), model);
                assert_eq!(stack.qualified_name(), qualified);
                // Explicit `@sending_omission` also parses, to the same stack.
                let explicit = format!("{base}@{model_name}");
                assert_eq!(
                    NamedStack::by_name(&explicit, params()).unwrap().model(),
                    model
                );
            }
        }
    }

    #[test]
    fn unknown_model_qualifier_is_rejected_with_the_model_list() {
        let err = NamedStack::by_name("E_min/P_min@byzantine", params()).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("general_omission"), "{msg}");
    }

    #[test]
    fn with_model_rides_on_copy_contexts() {
        let ctx = Context::fip(params()).with_model(FailureModel::GeneralOmission);
        assert_eq!(ctx.model(), FailureModel::GeneralOmission);
        assert_eq!(ctx.qualified_name(), "E_fip/P_opt@general_omission");
        // `name()` stays the unqualified stack name.
        assert_eq!(ctx.name(), "E_fip/P_opt");
    }

    #[test]
    fn shape_validation_rejects_model_inconsistent_patterns() {
        // A sender that drops, delivers, then drops again violates the
        // crash discipline; `drop_message` cannot see that, admission under
        // a crash context does. The same pattern is a valid SO(t) one.
        use crate::types::{AgentId, AgentSet};
        let p = params();
        let faulty = AgentSet::singleton(AgentId::new(0));
        let mut pat = FailurePattern::new(p, faulty.complement(p.n())).unwrap();
        for m in [0, 2] {
            pat.drop_message(m, AgentId::new(0), AgentId::new(1))
                .unwrap();
        }
        let inits = [Value::One; 4];
        let err = admit_scenario(p, FailureModel::Crash, &pat, &inits, 4).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("not admissible under the context's crash model"),
            "{msg}"
        );
        assert!(msg.contains("stay silent"), "{msg}");
        assert!(admit_scenario(p, FailureModel::SendingOmission, &pat, &inits, 4).is_ok());
    }

    #[test]
    fn shape_validation_reports_all_problems() {
        let pattern = FailurePattern::failure_free(Params::new(5, 1).unwrap());
        let err =
            validate_scenario_shape(params(), &pattern, &[Value::One; 3], u32::MAX).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("inits: got 3"), "{msg}");
        assert!(msg.contains("expected n = 4"), "{msg}");
        assert!(msg.contains("pattern: got a pattern built for"), "{msg}");
        assert!(msg.contains("(n = 5, t = 1)"), "{msg}");
        assert!(msg.contains("horizon: got 4294967295 rounds"), "{msg}");
    }

    #[test]
    fn shape_validation_accepts_matching_inputs() {
        let pattern = FailurePattern::failure_free(params());
        for horizon in [0, 4, MAX_HORIZON] {
            assert!(validate_scenario_shape(params(), &pattern, &[Value::One; 4], horizon).is_ok());
        }
    }

    #[test]
    fn into_parts_returns_the_bundle() {
        let ctx = Context::minimal(params());
        let (ex, proto) = ctx.into_parts();
        assert_eq!(ex.name(), "E_min");
        assert_eq!(ActionProtocol::<MinExchange>::name(&proto), "P_min");
    }
}
