//! Registry-driven single-stack summary, behind the experiments CLI's
//! `--stack <name>` flag.
//!
//! Given a registered stack name (see [`STACK_NAMES`]), optionally
//! model-qualified (`E_basic/P_basic@crash`), this runs one standard
//! battery — a failure-free run, a run against the model's
//! representative adversary, the same run over encoded frames, and a
//! **streamed** exhaustive spec check over every run of the context
//! under its failure model — and renders the results as a table. The
//! exhaustive check folds each run through a counting `RunSink`, so
//! even the ~100k-run `E_fip/P_opt` context is checked without
//! materializing a `Vec` of trajectories.

use eba_core::prelude::*;
use eba_transport::run_named_cluster;

use crate::model_battery::{measure_stack, CoreMeasurements};
use crate::table::{cell, Table};

/// Everything the battery measured for one stack.
#[derive(Clone, Debug)]
pub struct StackSummary {
    /// The registered stack name.
    pub stack: String,
    /// Number of agents.
    pub n: usize,
    /// Fault tolerance.
    pub t: usize,
    /// Max decision round on the failure-free all-ones run.
    pub failure_free_round: Option<u32>,
    /// Logical bits sent on that run.
    pub bits_sent: u64,
    /// Bytes of the encoded frames sent on the same scenario.
    pub wire_bytes: u64,
    /// Max nonfaulty decision round against the model's representative
    /// adversary with `t` faulty agents — silence under sending
    /// omissions, crash-from-the-start under crash, isolation under
    /// general omissions (`None` when failure-free, `t = 0`, or
    /// `n − t < 2`).
    pub silent_round: Option<u32>,
    /// Deduplicated runs streamed through the exhaustive spec check, or
    /// why the enumeration was skipped (instance too large, over-branchy
    /// round, …).
    pub enumerated_runs: Result<usize, EbaError>,
    /// How many of those runs satisfy the EBA spec at the horizon
    /// (0 whenever `enumerated_runs` is an error — a partial tally from
    /// an aborted enumeration would be meaningless).
    pub spec_ok_runs: usize,
}

/// Per-context half of the battery: everything that doesn't need a wire
/// codec — the shared core of [`measure_stack`], with the full streaming
/// budget so even the 25.2M-run `E_fip/P_opt@general_omission` context
/// is checked to a real verdict (nothing is ever collected).
struct Battery;

impl StackVisitor for Battery {
    type Output = CoreMeasurements;

    fn visit<E, P>(self, ctx: &Context<E, P>) -> CoreMeasurements
    where
        E: InformationExchange + Clone + Sync + 'static,
        P: ActionProtocol<E> + Clone + Sync + 'static,
    {
        measure_stack(ctx, crate::model_battery::DEFAULT_ENUM_LIMIT)
    }
}

/// Runs the battery for the stack registered under `name` at `(n, t)`.
///
/// # Errors
///
/// Returns [`EbaError::InvalidInput`] for an unknown stack name (listing
/// the registered ones) or [`EbaError::InvalidParams`] for invalid
/// `(n, t)`.
pub fn run(name: &str, n: usize, t: usize) -> Result<(StackSummary, Table), EbaError> {
    let params = Params::new(n, t)?;
    let stack = NamedStack::by_name(name, params)?;

    let outcome = stack.visit(Battery);
    let inits = vec![Value::One; n];
    let wire = run_named_cluster(
        &stack,
        &FailurePattern::failure_free(params),
        &inits,
        params.default_horizon(),
    )?;

    let summary = StackSummary {
        stack: stack.qualified_name(),
        n,
        t,
        failure_free_round: outcome.failure_free_round,
        bits_sent: outcome.bits_sent,
        wire_bytes: wire.wire_bytes_sent,
        silent_round: outcome.adversary_round,
        enumerated_runs: outcome.enumerated_runs,
        spec_ok_runs: outcome.spec_ok_runs,
    };

    let or_dash = |v: Option<u32>| v.map_or_else(|| "—".to_string(), |r| r.to_string());
    let mut table = Table::new(
        format!("Stack summary: {} at (n = {n}, t = {t})", summary.stack),
        "Registry-selected stack battery: failure-free and silent-faulty \
         runs, wire bytes of the encoded frames, and a streamed \
         exhaustive EBA spec check over every run of the context (no run \
         set is ever materialized).",
        &["measurement", "value"],
    );
    table.push(vec![
        cell("failure-free all-ones: max decision round"),
        or_dash(summary.failure_free_round),
    ]);
    table.push(vec![
        cell("failure-free all-ones: logical bits sent"),
        cell(summary.bits_sent),
    ]);
    table.push(vec![
        cell("failure-free all-ones: wire bytes (encoded frames)"),
        cell(summary.wire_bytes),
    ]);
    table.push(vec![
        cell("model adversary (k = t): max nonfaulty decision round"),
        or_dash(summary.silent_round),
    ]);
    match &summary.enumerated_runs {
        Ok(total) => {
            table.push(vec![cell("exhaustive runs (streamed)"), cell(total)]);
            table.push(vec![
                cell("runs satisfying the EBA spec"),
                format!("{}/{}", summary.spec_ok_runs, total),
            ]);
        }
        Err(e) => table.push(vec![
            cell("exhaustive runs (streamed)"),
            format!("skipped: {e}"),
        ]),
    }
    Ok((summary, table))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_registered_stack_summarizes() {
        for name in STACK_NAMES {
            let (summary, table) = run(name, 3, 1).unwrap();
            assert_eq!(summary.stack, name);
            assert!(summary.bits_sent > 0, "{name}");
            assert!(summary.wire_bytes > 0, "{name}");
            let total = summary.enumerated_runs.expect("small instance");
            assert!(total > 0, "{name}");
            if name == "E_naive/P_naive" {
                // The introduction's protocol violates Agreement under
                // omissions, so some enumerated runs must fail the spec.
                assert!(summary.spec_ok_runs < total, "{name}");
            } else {
                assert_eq!(summary.spec_ok_runs, total, "{name}");
            }
            assert!(table.to_markdown().contains(name));
        }
    }

    #[test]
    fn unknown_stack_is_rejected_with_the_registry() {
        let err = run("E_bogus/P_bogus", 3, 1).unwrap_err();
        assert!(err.to_string().contains("E_min/P_min"));
    }
}
