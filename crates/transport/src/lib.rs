#![warn(missing_docs)]

//! The EBA protocols over encoded frames: wire codecs, the round engine,
//! and a single-threaded loopback driver.
//!
//! The paper's protocols are round-synchronous; this crate realizes one
//! round at the byte level — every agent acts and its broadcast is
//! encoded once, into one buffer that holds the round's broadcasts
//! ([`SessionEngine::frame`]), and each recipient gets a [`Frame`], a
//! `Copy` mark with no bytes ([`SessionEngine::outgoing`]); the failure
//! pattern drops marks ([`apply_pattern`]); each sender's bytes are
//! decoded once if any of its marks survive, and every state updates
//! ([`SessionEngine::deliver`]) — with hand-rolled wire codecs so the
//! byte counts of Prop 8.1 are measured on actual encoded frames rather
//! than estimated (a sender's bytes count once per mark, as the bytes a
//! network would carry). [`run_engine`] is the one loop over an engine:
//! [`run_named_cluster`] calls it on the calling thread, `eba-service`
//! once per session on a worker pool.
//!
//! The engine must agree exactly with the lockstep simulator (`eba-sim`)
//! on every run — decision rounds, decision values, final states — which
//! the cross-check tests enforce. Shared with the simulator: the round
//! kernel ([`eba_core::exchange`] — `P`, `μ`, `δ` and the first-decision
//! rule are called from there only). Independent of it: the codecs, frame
//! routing, omission injection on frames, and the session loop — so the
//! differential catches a codec that loses information or a loop that
//! routes, drops or counts frames wrongly, not a kernel bug.
//!
//! Stacks carry their failure model onto the wire too: the injected
//! pattern must be admissible under the stack's
//! [`FailureModel`](eba_core::failures::FailureModel), and registry names
//! accept model-qualified stacks like `"E_basic/P_basic@crash"`.
//!
//! # Example
//!
//! ```
//! use eba_core::prelude::*;
//! use eba_transport::{named_engine, run_engine};
//!
//! # fn main() -> Result<(), EbaError> {
//! let params = Params::new(4, 1)?;
//! let stack = NamedStack::by_name("E_basic/P_basic", params)?;
//! let pattern = FailurePattern::failure_free(params);
//! let mut engine = named_engine(&stack, &pattern, &[Value::One; 4], 4)?;
//! let report = run_engine(engine.as_mut(), &pattern);
//! assert!(report.decision_rounds.iter().all(|r| *r == Some(2)));
//! assert_eq!(report.frames_sent, report.round_traffic.iter().map(|t| t.sent).sum());
//! # Ok(())
//! # }
//! ```

mod cluster;
mod codec;
mod engine;

pub use cluster::{run_engine, run_named_cluster, ClusterSummary};
pub use codec::{BasicCodec, FipCodec, MinCodec, NaiveCodec, WireCodec};
pub use engine::{apply_pattern, named_engine, Frame, RoundFrames, RoundTraffic, SessionEngine};
