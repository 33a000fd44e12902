#![warn(missing_docs)]

//! Core library for *Optimal Eventual Byzantine Agreement Protocols with
//! Omission Failures* (Alpturer, Halpern & van der Meyden, PODC 2023).
//!
//! The paper separates an agreement protocol into an **information-exchange
//! protocol** (what local state agents keep and which messages they send;
//! the [`exchange::InformationExchange`] trait) and an **action protocol**
//! (when agents decide; the [`protocols::ActionProtocol`] trait). This crate
//! provides:
//!
//! * the shared vocabulary ([`types`]): agents, binary values, actions,
//!   agent sets, and the `(n, t)` parameters of the failure environment;
//! * first-class contexts ([`context`]): [`context::Context`] bundles an
//!   exchange with an action protocol over a selectable failure model,
//!   and the string-keyed registry ([`context::NamedStack`]) builds the
//!   paper's four stacks by name — optionally model-qualified, e.g.
//!   `"E_fip/P_opt@crash"`;
//! * the pluggable failure models ([`failures`]):
//!   [`failures::FailureModel`] (failure-free / crash / sending-omission /
//!   general-omission), failure patterns `(N, F)` judged by the
//!   context's model, and model-parameterized adversary samplers
//!   ([`failures::AdversarySampler`]);
//! * three information-exchange protocols from the paper ([`exchange`]):
//!   the minimal exchange `E_min`, the basic exchange `E_basic`, and the
//!   full-information exchange `E_fip` built on communication graphs, plus
//!   the naive "announce zeros" exchange used by the introduction's
//!   impossibility argument;
//! * communication graphs and their polynomial-time knowledge analysis
//!   ([`graph`]): causal cones, the `f`/`D`/`d`/`V` functions, and the
//!   `common_v` / `cond_0` / `cond_1` decision conditions of Appendix A.2.7;
//! * the concrete action protocols ([`protocols`]): `P_min` (Thm 6.5),
//!   `P_basic` (Thm 6.6), `P_opt` (Prop 7.9), and the naive 0-biased
//!   protocol that the introduction proves incorrect under omissions;
//! * descriptions of the knowledge-based programs `P0` and `P1` ([`kbp`]);
//!   their semantics (knowledge tests evaluated in interpreted systems)
//!   live in the `eba-epistemic` crate.
//!
//! # Example
//!
//! Contexts are the entry point everything downstream (the `eba-sim`
//! `Scenario` builder, the model checker, the transport) composes over.
//! Build the basic stack for 5 agents tolerating 2 omission-faulty
//! agents, then the same stack over the crash environment:
//!
//! ```
//! use eba_core::prelude::*;
//!
//! # fn main() -> Result<(), EbaError> {
//! let params = Params::new(5, 2)?;
//! let ctx = Context::basic(params);
//! assert_eq!(ctx.name(), "E_basic/P_basic");
//! assert_eq!(ctx.model(), FailureModel::SendingOmission);
//! let crashy = NamedStack::by_name("E_basic/P_basic@crash", params)?;
//! assert_eq!(crashy.model(), FailureModel::Crash);
//! # Ok(())
//! # }
//! ```

pub mod context;
pub mod corpus;
pub mod exchange;
pub mod failures;
pub mod graph;
pub mod kbp;
pub mod protocols;
pub mod types;

/// Convenient re-exports of the most commonly used items.
pub mod prelude {
    pub use crate::context::{
        validate_scenario_shape, Context, NamedStack, StackVisitor, STACK_NAMES,
    };
    pub use crate::corpus::{parse_scenario, Case, ParsedScenario, ScenarioSpec};
    pub use crate::exchange::{
        BasicExchange, BasicMsg, BasicState, FipExchange, FipMsg, FipState, InformationExchange,
        MinExchange, MinMsg, MinState, NaiveExchange, NaiveMsg, NaiveState,
    };
    pub use crate::failures::{
        crash_pattern, crashed_from_start_pattern, isolation_pattern, silent_pattern,
        AdversarySampler, FailureModel, FailurePattern, MODEL_NAMES,
    };
    pub use crate::graph::{CommGraph, EdgeLabel, FipAnalysis, PrefLabel};
    pub use crate::protocols::{ActionProtocol, NaiveZeroBiased, PBasic, PMin, POpt};
    pub use crate::types::{Action, AgentId, AgentSet, EbaError, Params, Value};
}
