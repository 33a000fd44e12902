//! The failure models of Section 3 and their adversaries: pluggable
//! [`FailureModel`]s (failure-free / crash / sending-omission /
//! general-omission), failure patterns `(N, F)`, and adversary samplers
//! for randomized experiments.
//!
//! The paper's results are developed for the sending-omissions model
//! `SO(t)`, which stays the default everywhere; [`FailureModel`] turns
//! the contrasts the paper draws against crash and general-omission
//! failures into a selectable axis of the context. A pattern names no
//! model: the context's model is the one judge of which patterns a run
//! may face.

mod enumerate;
mod model;
mod pattern;
mod sampler;

pub use enumerate::init_configs;
pub use model::{FailureModel, MODEL_NAMES};
pub use pattern::FailurePattern;
pub use sampler::{
    crash_pattern, crashed_from_start_pattern, isolation_pattern, random_faulty_set,
    silent_pattern, AdversarySampler,
};
