#![warn(missing_docs)]

//! A threaded message-passing runtime for the EBA protocols.
//!
//! The paper's protocols are round-synchronous; this crate realizes them
//! over real OS threads and channels: one thread per agent, a router
//! enforcing round boundaries, omission-fault injection at the router, and
//! hand-rolled wire codecs so the byte counts of Prop 8.1 are measured on
//! actual encoded frames rather than estimated.
//!
//! The runtime must agree exactly with the lockstep simulator (`eba-sim`)
//! on every run — decision rounds, decision values, final states — which
//! the cross-check tests enforce.
//!
//! Contexts carry their failure model onto the wire too: the injected
//! pattern must be admissible under the context's
//! [`FailureModel`](eba_core::failures::FailureModel), and registry
//! names (`run_named_cluster`) accept model-qualified stacks like
//! `"E_basic/P_basic@crash"`.
//!
//! # Example
//!
//! ```
//! use eba_core::prelude::*;
//! use eba_transport::{run_context_cluster, BasicCodec};
//!
//! # fn main() -> Result<(), EbaError> {
//! let params = Params::new(4, 1)?;
//! let ctx = Context::basic(params);
//! let pattern = FailurePattern::failure_free(params);
//! let report = run_context_cluster(&ctx, &BasicCodec, &pattern, &[Value::One; 4], 4)?;
//! assert!(report.decision_rounds.iter().all(|r| *r == Some(2)));
//! # Ok(())
//! # }
//! ```

mod cluster;
mod codec;

pub use cluster::{
    run_context_cluster, run_named_cluster, ClusterSummary, RoundTraffic, TransportReport,
};
pub use codec::{BasicCodec, FipCodec, MinCodec, NaiveCodec, WireCodec};
