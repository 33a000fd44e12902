//! The failure models of Section 3 and their adversaries: pluggable
//! [`FailureModel`]s (failure-free / crash / sending-omission /
//! general-omission), failure patterns `(N, F)` governed by a model, and
//! adversary samplers for randomized experiments.
//!
//! The paper's results are developed for the sending-omissions model
//! `SO(t)`, which stays the default everywhere; [`FailureModel`] turns
//! the contrasts the paper draws against crash and general-omission
//! failures into selectable scenario axes.

mod enumerate;
mod model;
mod pattern;
mod sampler;

pub use enumerate::{init_configs, nonfaulty_choices};
pub use model::{FailureModel, MODEL_NAMES};
pub use pattern::{FailurePattern, PatternClass};
pub use sampler::{
    crash_pattern, crashed_from_start_pattern, isolation_pattern, random_faulty_set,
    silent_pattern, AdversarySampler,
};
