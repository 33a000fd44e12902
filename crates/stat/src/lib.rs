//! Monte Carlo statistical model checking for EBA stacks.
//!
//! The exhaustive enumerators in `eba-sim` answer "does any admissible
//! run violate the spec?" — but their run sets grow exponentially, and
//! past `n ≈ 8` the question has to change shape. This crate asks the
//! statistical version instead: *what fraction of runs drawn from an
//! explicit adversary distribution violate the spec*, with a rigorous
//! confidence interval around the answer. At `n = 16, t = 4` — far
//! beyond exhaustive reach — a seeded estimate with a tight error bar
//! takes seconds.
//!
//! The pipeline:
//!
//! ```text
//!   TrialPlan ──► SampleScheme strata ──► AdversarySampler + inits
//!       │               (mixture)             (one trial)
//!       │                                        │
//!       │         step_rounds (the core kernel, lockstep channel,
//!       │                        │        the block's reused buffers)
//!       │                  each round ──► RunJudge (the spec fold)
//!       │                                        │
//!       └──► blocks × workers ──► fold in block order ──► Estimate
//!                                        │
//!                       Wilson / Clopper–Pearson intervals,
//!                       per-stratum counts, `.eba` repros
//! ```
//!
//! Because every trial is an i.i.d. draw from the plan's mixture, the
//! violation count is exactly binomial and the [`interval`] math is
//! rigorous, not asymptotic hand-waving (Wilson) plus exact
//! (Clopper–Pearson). Because trials are sharded in fixed seeded blocks,
//! the estimate is bit-reproducible at any worker count. And because the
//! same trial executor powers an exact weighted enumeration for small
//! instances ([`mod@reference`]), the estimator is cross-validated against
//! ground truth — the `(3, 1)` and `(4, 1)` intervals must bracket the
//! known exhaustive verdicts.
//!
//! ```
//! use eba_core::prelude::*;
//! use eba_sim::prelude::Parallelism;
//! use eba_stat::prelude::*;
//!
//! # fn main() -> Result<(), EbaError> {
//! let params = Params::new(4, 1)?;
//! let stack = NamedStack::by_name("E_min/P_min@sending_omission", params)?;
//! let plan = TrialPlan::new(2_000, 4);
//! let est = estimate(&stack, &plan, Parallelism::Auto)?;
//! assert_eq!(est.violations, 0);
//! assert!(est.validity_interval().hi == 1.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod estimate;
pub mod interval;
pub mod plan;
pub mod reference;

/// The crate's commonly used types and entry points.
pub mod prelude {
    pub use crate::estimate::{
        estimate, judge_case, Estimate, StratumCount, ViolatingSample, MAX_REPROS, TRIAL_BLOCK,
        VIOLATION_KINDS,
    };
    pub use crate::interval::{clopper_pearson, wilson, Interval};
    pub use crate::plan::{SampleScheme, Stratum, TrialPlan};
    pub use crate::reference::{exact_violation_probability, REFERENCE_BUDGET};
}
