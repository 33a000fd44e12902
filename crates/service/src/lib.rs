#![warn(missing_docs)]

//! Multiplexed consensus service: thousands of concurrent EBA sessions,
//! each a run-to-completion task on a fixed worker pool.
//!
//! `eba-transport` holds the round engine and the loop that drives one
//! session to its horizon; this crate runs arbitrarily many of those
//! loops — each its own stack, failure pattern, and horizon — on scoped
//! worker threads fed by one job channel and reporting on one completion
//! channel (`std::sync::mpsc`), bounded by a session table:
//!
//! * [`SessionSpec`] describes one session and compiles
//!   ([`SessionSpec::build_engine`]) into `eba-transport`'s type-erased
//!   [`SessionEngine`] (re-exported here), stepping the stack one
//!   synchronous round at a time over encoded wire frames.
//! * [`SessionTable`] is the dense `SessionId(u32)` arena bounding how
//!   many sessions are live — admission control blocks (and counts a
//!   deferral) when it is full.
//! * [`run_service`] drives a batch: each admitted session is one job
//!   that runs its engine to the horizon on a pool worker
//!   ([`run_engine`](eba_transport::run_engine), its omissions injected
//!   inline) and reports once; the driver folds every session's
//!   [`RoundTraffic`](eba_transport::RoundTraffic) — the same counters
//!   the loopback `ClusterSummary` carries.
//! * [`ServiceReport`] aggregates decisions, drop counts, backpressure
//!   deferrals, and the verdict of sampled oracle cross-checks against
//!   the lockstep simulator (`Scenario::run`).
//!
//! ```
//! use eba_core::prelude::*;
//! use eba_service::{run_service, ServiceConfig, SessionSpec};
//!
//! # fn main() -> Result<(), EbaError> {
//! let params = Params::new(3, 1)?;
//! let specs: Vec<SessionSpec> = (0..16)
//!     .map(|i| {
//!         SessionSpec::new(
//!             "E_fip/P_opt",
//!             params,
//!             FailurePattern::failure_free(params),
//!             vec![Value::from_bit((i % 2) as u8); 3],
//!             4,
//!         )
//!     })
//!     .collect();
//! let config = ServiceConfig {
//!     workers: 2,
//!     capacity: 8,
//!     oracle_stride: Some(4),
//!     ..Default::default()
//! };
//! let report = run_service(&specs, &config)?;
//! assert_eq!(report.admitted, 16);
//! assert_eq!(report.decided_sessions(), 16);
//! assert_eq!(report.oracle_mismatches, 0);
//! # Ok(())
//! # }
//! ```

mod engine;
mod report;
mod service;
mod table;

pub use eba_transport::{RoundFrames, SessionEngine};
pub use engine::SessionSpec;
pub use report::{ServiceReport, SessionOutcome};
pub use service::{run_service, ServiceConfig};
pub use table::{SessionId, SessionTable};
