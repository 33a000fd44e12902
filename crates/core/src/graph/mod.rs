//! Communication graphs and their polynomial-time knowledge analysis
//! (Appendix A.2.7 of the paper, after Moses & Tuttle).
//!
//! A communication graph `G_{i,m}` compactly describes everything agent `i`
//! knows at time `m` under the full-information exchange: for every
//! potential message (an edge `(j, m'-1) → (j', m')`) whether `i` knows it
//! was delivered, knows it was omitted, or does not know (`?`), plus what
//! `i` knows of each agent's initial preference.
//!
//! On top of the raw graph, [`FipAnalysis`] computes — all in polynomial
//! time:
//!
//! * causal **cones** (the hears-from relation `(j, m') →_r (i, m)`),
//! * `f(j, m')` — the faulty agents `i` knows `j` knows about,
//! * `D(S, m')` — distributed knowledge of faulty agents within a set `S`,
//! * `V(j, m')` — the initial values `i` knows `j` knows about,
//! * `d(j, m')` — the (re-simulated) action of `j` in round `m' + 1`,
//! * the decision conditions `common_v`, `cond_0`, `cond_1` of the
//!   polynomial-time protocol `P_opt` (Definition A.19).

mod analysis;
mod comm_graph;
mod cone;
mod knowledge;
mod label;
#[cfg(test)]
mod reference;
#[cfg(test)]
pub(crate) mod test_util;

pub use analysis::FipAnalysis;
pub use comm_graph::CommGraph;
pub use cone::ConeTable;
pub use knowledge::KnowledgeTables;
pub use label::{EdgeLabel, PrefLabel};
