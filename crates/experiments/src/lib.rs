#![warn(missing_docs)]

//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation (`docs/GUIDE.md` §1 maps paper sections to modules).
//!
//! | Id | Paper source | Claim reproduced |
//! |----|--------------|------------------|
//! | E1 | Prop 8.1 | message complexity: `n²` / `O(n²t)` / `O(n⁴t²)` bits |
//! | E2 | Prop 8.2(a) | failure-free with a 0: everyone decides by round 2 |
//! | E3 | Prop 8.2(b) | failure-free all-ones: `t+2` vs round 2 |
//! | E4 | Example 7.1 | silent faulty: P_opt round 3, P_min/P_basic round 12 |
//! | E5 | Prop 6.1/7.3 | EBA + decide-by-`t+2` under random adversaries |
//! | E6 | Section 8 | decision-latency curves vs omission rate |
//! | E7 | Thms 6.5/6.6/A.21 | implements-checks by epistemic model checking |
//! | E8 | Introduction | the 0-biased impossibility (runs `r`/`r'`) |
//! | E9 | Prop 7.2/Lemma A.4 | common-knowledge onset and one-round decisions |
//!
//! Each module exposes a typed `run(…)` entry point returning both the raw
//! records and a renderable [`table::Table`]; the `eba-experiments` binary
//! prints all of them as markdown (the content of `EXPERIMENTS.md`).
//!
//! The binary can also run a single registry-selected stack
//! (`-- --stack E_basic/P_basic`, see [`stack_summary`]), exercising the
//! string-keyed stack registry end to end: lockstep runs, the wire
//! loopback, and a streamed exhaustive spec check — and a failure-model
//! comparison battery (`-- --model crash`, see [`model_battery`]) that
//! measures decision time and validity of all four stacks under a
//! selected [`FailureModel`](eba_core::failures::FailureModel). The two
//! flags compose: `-- --stack E_fip/P_opt --model general` summarizes one
//! stack in one model. `--explain` re-examines failing spec rows through
//! the compiled query engine and prints a witnessing `(run, time)`
//! counterexample per violated property (see [`explain`]). The binary's
//! output is verdicts and counts; performance is measured in one place,
//! the repo's benchmark under `bench/`.
//!
//! Every experiment drives the protocols through the first-class
//! `Context`/`Scenario` API:
//!
//! ```
//! use eba_core::prelude::*;
//! use eba_sim::prelude::*;
//!
//! # fn main() -> Result<(), EbaError> {
//! // The scenario E4 sweeps: P_opt against Example 7.1's silent faulty.
//! let params = Params::new(4, 1)?;
//! let ctx = Context::fip(params);
//! let silent = silent_pattern(params, AgentSet::singleton(AgentId::new(0)), 4)?;
//! let nonfaulty = silent.nonfaulty();
//! let trace = Scenario::of(&ctx).pattern(silent).inits(&[Value::One; 4]).run()?;
//! assert_eq!(trace.max_decision_round(nonfaulty), Some(3));
//! # Ok(())
//! # }
//! ```

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
pub mod stack_summary;
pub mod table;

pub use table::Table;
