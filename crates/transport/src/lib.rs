#![warn(missing_docs)]

//! The EBA protocols over encoded frames: wire codecs, the round engine,
//! and single-threaded loopback drivers.
//!
//! The paper's protocols are round-synchronous; this crate realizes one
//! round at the byte level — every agent acts and its messages are
//! encoded ([`SessionEngine::outgoing`]), the failure pattern drops
//! frames ([`apply_pattern`]), the survivors are decoded and every state
//! updates ([`SessionEngine::deliver`]) — with hand-rolled wire codecs so
//! the byte counts of Prop 8.1 are measured on actual encoded frames
//! rather than estimated. [`run_engine`] is the one loop over a
//! type-erased engine: [`run_named_cluster`] calls it on the calling
//! thread, `eba-service` once per session on a worker pool.
//! [`run_context_cluster`] loops the typed engine the same way, to
//! return final states as well.
//!
//! The engine must agree exactly with the lockstep simulator (`eba-sim`),
//! which shares neither codec nor engine with it, on every run — decision
//! rounds, decision values, final states — which the cross-check tests
//! enforce.
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
mod engine;

pub use cluster::{
    run_context_cluster, run_engine, run_named_cluster, ClusterSummary, TransportReport,
};
pub use codec::{BasicCodec, FipCodec, MinCodec, NaiveCodec, WireCodec};
pub use engine::{apply_pattern, named_engine, RoundFrames, RoundTraffic, SessionEngine};
