#![warn(missing_docs)]

//! Facade crate for the EBA workspace: a reproduction of *Optimal Eventual
//! Byzantine Agreement Protocols with Omission Failures* (Alpturer, Halpern
//! & van der Meyden, PODC 2023).
//!
//! Re-exports the workspace crates under one roof:
//!
//! * [`core`] — protocols, exchanges, failure model, communication graphs;
//! * [`sim`] — the lockstep round simulator, the one run record and its
//!   views (decisions, traffic, 0-chains), EBA spec checking, and
//!   exhaustive run enumeration;
//! * [`epistemic`] — interpreted systems, the epistemic model checker, and
//!   the knowledge-based-program implements-checker;
//! * [`transport`] — wire codecs and the round engine that runs a stack
//!   over encoded frames, with omission fault injection;
//! * [`service`] — the multiplexed consensus service (thousands of
//!   concurrent sessions over a worker pool);
//! * [`stat`] — the Monte Carlo statistical model checker (estimated
//!   violation probability with Wilson / Clopper–Pearson confidence
//!   intervals, sharded reproducibly across workers);
//! * [`experiments`] — the table/figure generators (E1–E9).
//!
//! See `README.md` for a tour and `examples/` for runnable entry points.

pub use eba_core as core;
pub use eba_epistemic as epistemic;
pub use eba_experiments as experiments;
pub use eba_service as service;
pub use eba_sim as sim;
pub use eba_stat as stat;
pub use eba_transport as transport;

/// One-stop prelude: the commonly used types from every crate.
pub mod prelude {
    pub use eba_core::prelude::*;
    pub use eba_sim::prelude::*;
}
