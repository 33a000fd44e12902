#![warn(missing_docs)]

//! Multiplexed consensus service: thousands of concurrent EBA sessions,
//! each run to completion on one thread of a fixed pool or on the caller.
//!
//! `eba-transport` holds the round engine and the loop that drives one
//! session to its horizon; this crate runs arbitrarily many of those
//! loops — each its own stack, failure pattern, and horizon — on the
//! workspace's one ordered parallel map
//! ([`Parallelism::for_each_ordered_within`](eba_sim::runner::Parallelism::for_each_ordered_within)),
//! whose window of `capacity` sessions is the admission bound:
//!
//! * [`SessionSpec`] describes one session and compiles
//!   ([`SessionSpec::build_engine`]) into `eba-transport`'s type-erased
//!   [`SessionEngine`] (re-exported here), stepping the stack one
//!   synchronous round at a time over encoded wire frames.
//! * [`run_service`] drives a batch: a pool thread, or the calling thread
//!   while the session it retires next is not done, takes the lowest spec
//!   in the window, builds its engine, runs it to the horizon
//!   ([`run_engine`](eba_transport::run_engine), its omissions injected
//!   inline) and records it; the calling thread retires the sessions in
//!   spec order, admitting one more each time, and folds every session's
//!   [`RoundTraffic`](eba_transport::RoundTraffic) — the same counters
//!   the loopback `ClusterSummary` carries. There are no channels and no
//!   timeout: a hung engine hangs the call.
//! * [`ServiceReport`] aggregates decisions, drop counts, backpressure
//!   deferrals, and the verdict of sampled oracle cross-checks against
//!   the lockstep simulator (`Scenario::run`).
//! * [`SessionTable`], a dense `SessionId(u32)` slot arena, is not on the
//!   service's path; it stays public for the benchmark's layer probes.
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
