#![warn(missing_docs)]

//! Lockstep simulation of EBA protocols: the run-generation semantics of
//! Section 3 of *Optimal Eventual Byzantine Agreement Protocols with
//! Omission Failures* (PODC 2023), plus everything needed to evaluate runs:
//!
//! * [`scenario`] — the [`scenario::Scenario`] builder over a first-class
//!   [`Context`](eba_core::context::Context): the one way to run or
//!   enumerate a stack;
//! * [`runner`] — [`runner::run_rounds`]: the kernel's one loop over a
//!   run's rounds ([`step_rounds`](eba_core::exchange::step_rounds), which
//!   executes `(context, failure pattern, initial preferences)` round by
//!   round in caller-owned buffers, handing each round to an observer)
//!   over the lockstep channel, recording the run as an
//!   [`enumerate::EnumRun`], the one run record the enumerator yields
//!   too;
//! * [`metrics`] — views of a run: decision rounds, and exact
//!   message/bit accounting ([`metrics::Metrics::of`], the quantities of
//!   Prop 8.1 / 8.2) replayed from the run and its pattern;
//! * [`spec`] — the four EBA correctness properties of Section 5, stated
//!   once as a fold over a run's rounds ([`spec::RunJudge`]; a recorded
//!   run is replayed through it by [`spec::judge_run`]);
//! * [`dominance`] — the `≤_γ` comparison between action protocols over
//!   corresponding runs;
//! * [`chains`] — 0-chain reconstruction (Section 6) from a run and its
//!   pattern;
//! * [`enumerate`] — the engine behind `Scenario`'s exhaustive
//!   generation of **all** runs `R_{E,F,P}` of a context for small
//!   `(n, t)`, under any
//!   [`FailureModel`](eba_core::failures::FailureModel), used by
//!   `eba-epistemic` to build interpreted systems; sequential or sharded
//!   across threads with bit-for-bit identical output, collected or
//!   streamed through a [`sink::RunSink`];
//! * [`store`] — the interned [`store::RunStore`]: a
//!   [`store::StateArena`] keeps each distinct local state once behind a
//!   [`store::StateId`], the store keeps the enumerator's prefix tree,
//!   one node per distinct `(N, inits, prefix)`, and it is itself a
//!   [`sink::RunSink`], so complete run sets stream into deduplicated
//!   storage without the run vector ever materializing.
//!
//! # Example
//!
//! ```
//! use eba_core::prelude::*;
//! use eba_sim::prelude::*;
//!
//! # fn main() -> Result<(), EbaError> {
//! let ctx = Context::basic(Params::new(4, 1)?);
//! let run = Scenario::of(&ctx).inits(&[Value::One; 4]).run()?;
//! check_eba(ctx.exchange(), &run).expect("EBA holds");
//! // Prop 8.2(b): everyone decides 1 in round 2 with P_basic.
//! assert_eq!(run.max_decision_round(AgentSet::full(4)), Some(2));
//! // Prop 8.1: each agent broadcasts `(init, 1)` in round 1 and its
//! // decision in round 2, so 2n² = 32 messages of 2 bits.
//! let pattern = FailurePattern::failure_free(ctx.params());
//! let traffic = Metrics::of(ctx.exchange(), &run, &pattern);
//! assert_eq!((traffic.messages_sent, traffic.bits_sent), (32, 64));
//! # Ok(())
//! # }
//! ```

pub mod chains;
pub mod dominance;
pub mod enumerate;
pub mod fuzz;
pub mod metrics;
pub mod render;
pub mod runner;
pub mod scenario;
pub mod sink;
pub mod spec;
pub mod store;

/// Convenient re-exports of the most commonly used items.
pub mod prelude {
    pub use crate::chains::{verify_zero_chains, zero_chain_ending_at};
    pub use crate::dominance::{compare_corresponding, DominanceSummary, RunComparison};
    pub use crate::enumerate::EnumRun;
    pub use crate::fuzz::{
        fuzz, shrink_candidates, shrink_case, violation_kind, CaseOracle, CaseOutcome, FuzzConfig,
        FuzzReport, TraceOracle, Violation,
    };
    pub use crate::metrics::Metrics;
    pub use crate::render::render_timeline;
    pub use crate::runner::{run_rounds, Parallelism};
    pub use crate::scenario::Scenario;
    pub use crate::sink::RunSink;
    pub use crate::spec::{check_decides_by, check_eba, judge_run, RunJudge, SpecViolation};
    pub use crate::store::{PointId, RunStore, StateArena, StateId};
    pub use eba_core::exchange::{lockstep, step_rounds, RoundBuffers};
}
