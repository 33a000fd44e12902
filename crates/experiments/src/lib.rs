#![warn(missing_docs)]

//! Experiment harness: checks the paper's claims and regenerates every
//! table of its evaluation (`docs/GUIDE.md` §1 maps paper sections to
//! modules).
//!
//! The claims ledger ([`claims`]) — one [`Claim`] per experiment, each
//! checked on every row of its table as the row is computed:
//!
//! | Id | Paper source | Claim | Check |
//! |----|--------------|-------|-------|
//! | E1 | Prop 8.1 | `P_min` sends `n²` bits, `P_basic` ≤ `2(t+2)·n²`, FIP `O(n⁴t²)`; min < basic < FIP | single runs |
//! | E2 | Prop 8.2(a) | failure-free with one 0: its holder decides 0 in round 1, the rest in round 2 | single runs |
//! | E3 | Prop 8.2(b) | failure-free all-ones: `P_min` decides in round `t+2`, `P_basic` and `P_opt` in round 2 | single runs |
//! | E4 | Example 7.1 | `k` silent faulty: `P_basic` in round `k+2`, `P_opt` in round 3 at `k = t`, `P_min` in `t+2` | single runs |
//! | E5 | Prop 6.1 / 7.3 | random omissions: EBA holds, all decide by round `t+2`, 0-decisions are 0-chain-backed | sampled |
//! | E6 | Section 8 | mean nonfaulty round `P_min` ≥ `P_basic` ≥ `P_opt` at every drop rate | sampled |
//! | E7 | Thms 6.5/6.6/A.21 | `P_min` and `P_basic` implement `P0`; `P_opt` implements `P1` | implements |
//! | E8 | Introduction | deciding 0 on hearing a 0 breaks Agreement under omissions, not under crashes | single runs |
//! | E9 | Prop 7.2 / Lemma A.4 | `t` silent faulty: faults known at time 1, common knowledge at 2, `P_opt` decides in round 3 | single runs |
//!
//! The `eba-experiments` binary prints the ledger, then every claim's
//! table as markdown (the content of `EXPERIMENTS.md`), and exits 1 if a
//! claim broke.
//!
//! The binary also runs a failure-model comparison battery
//! (`-- --model crash`, see [`model_battery`]) that measures decision
//! time, bits and validity of all four stacks under a selected
//! [`FailureModel`](eba_core::failures::FailureModel); `-- --stack
//! E_basic/P_basic` prints one registry-selected stack's row of it, and
//! the two flags compose (`-- --stack E_fip/P_opt --model general`).
//! `--explain` re-examines failing spec rows through the compiled query
//! engine and prints a witnessing `(run, time)` counterexample per
//! violated property (see [`explain`]). The binary's output is verdicts
//! and counts; performance is measured in one place, the repo's
//! benchmark under `bench/`.
//!
//! Every claim holds as it is computed:
//!
//! ```
//! // Example 7.1 at (8, 3): P_opt decides in round 3 once all t agents
//! // are silent, P_basic in round k + 2.
//! let claim = eba_experiments::e4_silent_faulty::run(8, 3, &[1, 3]);
//! assert!(claim.holds(), "{:?}", claim.broken);
//! assert_eq!(claim.table.rows[1][5], "3");
//! ```

pub mod claims;
pub mod corpus;
pub mod e1_bits;
pub mod e2_failure_free_zero;
pub mod e3_failure_free_ones;
pub mod e4_silent_faulty;
pub mod e5_termination;
pub mod e6_latency_curves;
pub mod e7_implements;
pub mod e8_bias_counterexample;
pub mod e9_ck_onset;
pub mod estimate_cli;
pub mod explain;
pub mod fuzz_cli;
pub mod model_battery;
pub mod service_cli;
pub mod table;

pub use claims::Claim;
pub use table::Table;
