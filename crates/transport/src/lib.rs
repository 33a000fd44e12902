#![warn(missing_docs)]

//! The EBA protocols over encoded frames: hand-rolled wire codecs, so
//! the byte counts of Prop 8.1 are measured on encoded frames, and the
//! wire channel, a [`Channel`](eba_core::exchange::Channel) of
//! `eba-core`'s one loop over a run's rounds: a round's broadcasts are
//! encoded once each into one buffer, each recipient gets a [`Frame`]
//! mark, the failure pattern drops marks ([`apply_pattern`]), and each
//! sender's bytes are decoded once if any of its marks survive.
//! [`run_named_cluster`] runs a registry stack that way on the calling
//! thread, and `eba-service` once per session; [`SessionEngine`]
//! ([`named_engine`]) is a loop-free, one-round adaptor over the same
//! channel, kept for the benchmark's layer probe. The wire must agree
//! exactly with the lockstep simulator on every run: the two share the
//! kernel and its loop, so the cross-checks catch a codec that loses
//! information or a channel that drops or counts frames wrongly.
//!
//! # Example
//!
//! ```
//! use eba_core::prelude::*;
//! use eba_transport::run_named_cluster;
//!
//! # fn main() -> Result<(), EbaError> {
//! let params = Params::new(4, 1)?;
//! let stack = NamedStack::by_name("E_basic/P_basic", params)?;
//! let pattern = FailurePattern::failure_free(params);
//! let report = run_named_cluster(&stack, &pattern, &[Value::One; 4], 4)?;
//! assert!(report.decision_rounds.iter().all(|r| *r == Some(2)));
//! assert_eq!(report.frames_sent, report.round_traffic.iter().map(|t| t.sent).sum());
//! # Ok(())
//! # }
//! ```

mod channel;
mod cluster;
mod codec;
mod engine;

pub use channel::{apply_pattern, Frame, RoundFrames, RoundTraffic};
pub use cluster::{run_named_cluster, ClusterSummary};
pub use codec::{BasicCodec, FipCodec, MinCodec, NaiveCodec, WireCodec};
pub use engine::{named_engine, SessionEngine};
