#![warn(missing_docs)]

//! Multiplexed consensus service: thousands of concurrent EBA sessions,
//! each run to completion on one thread of a fixed pool or on the caller.
//!
//! A [`SessionSpec`] (a registry stack, a failure pattern, inits and a
//! horizon) runs as `eba-transport`'s loopback does: `eba-core`'s one
//! loop over the wire channel. [`run_service`] runs a batch on the
//! workspace's one ordered parallel map, whose window of `capacity`
//! sessions is the admission bound, and retires the sessions in spec
//! order into a [`ServiceReport`]: decisions, per-round
//! [`RoundTraffic`](eba_transport::RoundTraffic), deferrals, and sampled
//! cross-checks against the lockstep simulator. [`SessionTable`] and
//! [`SessionEngine`] ([`SessionSpec::build_engine`]) are not on the
//! service's path; they stay public for the benchmark's layer probes.
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

pub use eba_transport::SessionEngine;
pub use engine::SessionSpec;
pub use report::{ServiceReport, SessionOutcome};
pub use service::{run_service, ServiceConfig};
pub use table::{SessionId, SessionTable};
