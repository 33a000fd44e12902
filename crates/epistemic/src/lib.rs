#![warn(missing_docs)]

//! Epistemic model checking for EBA protocols: the runs-and-systems
//! machinery of Sections 2 and 4 of the paper, realized over exhaustively
//! enumerated systems.
//!
//! * [`system`] — interpreted systems `I = (R_{E,F,P}, π)`: points,
//!   per-agent indistinguishability classes;
//! * [`formula`] — a logic of knowledge and (bounded) time: the
//!   propositions of EBA contexts, `K_i`, `E_N`, `C_N` over the indexical
//!   nonfaulty set, and temporal operators;
//! * [`query`] — the compiled query engine: a hash-consed
//!   [`FormulaArena`](query::FormulaArena) interning shared subformulas
//!   once, a [`QueryPlan`](query::QueryPlan) scheduling a *batch* of
//!   root formulas over the shared DAG, and an
//!   [`EvalSession`](query::EvalSession) answering every root with a
//!   counterexample-carrying [`Verdict`](query::Verdict) in one pass;
//! * [`kbp`] — the knowledge-based programs `P0` and `P1`, stated once as
//!   ordered `(guard, action)` rules over formulas, and the action each
//!   prescribes at every point of a system;
//! * [`implements`] — the implements-check: does a concrete action
//!   protocol agree with a knowledge-based program at every reachable
//!   local state? This is the machine-checked form of Theorems 6.5, 6.6,
//!   and A.21 on small instances;
//! * [`oracle`] — test support: the collect-then-classify reference
//!   construction the interned systems are verified against.
//!
//! Knowledge is always relative to a context — including its failure
//! model: systems are built from a first-class
//! [`Context`](eba_core::context::Context) whose model fixes the run set
//! being quantified over (`SO(t)` by default; `@crash`, `@failure_free`,
//! `@general_omission` contexts yield different systems).
//!
//! # Example: verify Theorem 6.5 at `n = 3, t = 1`
//!
//! ```
//! use eba_core::prelude::*;
//! use eba_core::kbp::KnowledgeBasedProgram;
//! use eba_epistemic::prelude::*;
//! use eba_sim::prelude::*;
//!
//! # fn main() -> Result<(), EbaError> {
//! let params = Params::new(3, 1)?;
//! let ctx = Context::minimal(params);
//! let system = InterpretedSystem::from_context(ctx, 4, 1_000_000, Parallelism::Auto)?;
//! let proto = PMin::new(params);
//! let report = check_implements(&system, &proto, KnowledgeBasedProgram::P0);
//! assert!(report.is_ok(), "P_min implements P0: {report:?}");
//! # Ok(())
//! # }
//! ```

pub mod formula;
pub mod implements;
pub mod kbp;
pub mod oracle;
pub mod query;
pub mod spec;
pub mod system;

/// Convenient re-exports of the most commonly used items.
pub mod prelude {
    pub use crate::formula::Formula;
    pub use crate::implements::{check_implements, ImplementsReport, Mismatch};
    pub use crate::kbp::{ck_guard, prescriptions, rules};
    pub use crate::query::{
        standard_battery, EvalSession, FormulaArena, NodeId, QueryPlan, Verdict,
    };
    pub use crate::spec::{
        check_spec, eba_spec_properties, CheckAt, EngineOracle, SpecProperty, SpecVerdict,
    };
    pub use crate::system::{InterpretedSystem, PointId};
}
