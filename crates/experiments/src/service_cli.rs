//! `--serve`/`--load`: the consensus service behind the experiments CLI.
//!
//! `--serve <dir>` runs every `.eba` scenario in a directory as a
//! concurrent session on the multiplexed service (the corpus as a
//! workload instead of a lockstep battery). `--load` generates a
//! deterministic seeded mix — all four stacks crossed with all four
//! failure models, adversary patterns sampled per session — and pushes it
//! through the service at a fixed table capacity. Both modes print the
//! run's counts, wall time and session-latency percentiles, and
//! oracle-confirm a sampled subset of decision vectors against the
//! lockstep simulator (`Scenario::run`), exiting 1 if any of them
//! disagrees ([`oracle_verdict`]). Neither prints a rate: one run's
//! multiplexed phase lasts tens of milliseconds, too short a window to
//! divide by. The service's throughput is the `ops_per_s` of the
//! `service_mixed_n3` and `service_fip_n8` workloads under `bench/`.

use std::path::Path;

use eba_core::prelude::*;
use eba_service::{run_service, ServiceConfig, ServiceReport, SessionSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::corpus::load_dir;
use crate::table::Table;

/// Parameters of a synthetic `--load` run.
#[derive(Clone, Debug)]
pub struct LoadConfig {
    /// Total sessions to generate.
    pub sessions: usize,
    /// Agents per session.
    pub n: usize,
    /// Fault tolerance per session.
    pub t: usize,
    /// RNG seed for the adversary/init mix.
    pub seed: u64,
    /// Per-message drop probability of the sampled adversaries.
    pub drop_prob: f64,
    /// Pool threads beside the calling thread, which runs sessions too
    /// (`0` = one per core).
    pub workers: usize,
    /// Session-table capacity (the concurrency level).
    pub capacity: usize,
    /// Oracle cross-check stride (`0` = no checks, `1` = every session).
    pub oracle_stride: usize,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            sessions: 4096,
            n: 3,
            t: 1,
            seed: 0xEBA,
            drop_prob: 0.25,
            workers: 0,
            capacity: 1024,
            oracle_stride: 17,
        }
    }
}

/// Generates the deterministic `--load` session mix: stacks and models in
/// round-robin, adversary patterns and initial preferences drawn from the
/// seeded RNG (admissible under each session's model by construction).
///
/// # Errors
///
/// Returns [`EbaError::InvalidParams`] for an invalid `(n, t)`.
pub fn synthetic_mix(config: &LoadConfig) -> Result<Vec<SessionSpec>, EbaError> {
    let params = Params::new(config.n, config.t)?;
    let horizon = params.default_horizon();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut specs = Vec::with_capacity(config.sessions);
    for i in 0..config.sessions {
        let stack = STACK_NAMES[i % STACK_NAMES.len()];
        let model =
            FailureModel::by_name(MODEL_NAMES[(i / STACK_NAMES.len()) % MODEL_NAMES.len()])?;
        let sampler = AdversarySampler::new(model, params, horizon, config.drop_prob);
        let pattern = sampler.sample(&mut rng);
        let inits: Vec<Value> = (0..config.n)
            .map(|_| Value::from_bit(rng.random_range(0..2u8)))
            .collect();
        specs.push(SessionSpec::new(
            format!("{stack}{}", model.suffix()),
            params,
            pattern,
            inits,
            horizon,
        ));
    }
    Ok(specs)
}

fn service_config(workers: usize, capacity: usize, oracle_stride: usize) -> ServiceConfig {
    ServiceConfig {
        workers,
        capacity,
        oracle_stride: (oracle_stride > 0).then_some(oracle_stride),
    }
}

fn summary_table(title: &str, caption: &str, report: &ServiceReport) -> Table {
    let traffic = report.total_traffic();
    let mut table = Table::new(
        title,
        caption,
        &[
            "sessions",
            "decided",
            "peak in-flight",
            "deferrals",
            "frames sent",
            "frames dropped",
            "wall s",
            "p50/p90/p99 ms",
            "oracle",
        ],
    );
    let oracle = if report.oracle_checked == 0 {
        "—".to_string()
    } else {
        format!(
            "{}/{} ok",
            report.oracle_checked - report.oracle_mismatches,
            report.oracle_checked
        )
    };
    let latency = report.latency_percentiles().map_or_else(
        || "—".to_string(),
        |(p50, p90, p99)| format!("{:.2}/{:.2}/{:.2}", p50 * 1e3, p90 * 1e3, p99 * 1e3),
    );
    table.push(vec![
        report.outcomes.len().to_string(),
        report.decided_sessions().to_string(),
        report.peak_in_flight.to_string(),
        report.deferrals.to_string(),
        traffic.sent.to_string(),
        traffic.dropped().to_string(),
        format!("{:.3}", report.service_seconds),
        latency,
        oracle,
    ]);
    table
}

/// The check `--load` and `--serve` advertise, as the exit verdict: a run
/// fails when any oracle-checked session's decision vector disagrees
/// with the lockstep simulator. Undecided sessions are not an error — a
/// stack may legitimately not decide under a pattern.
///
/// # Errors
///
/// Returns the message the CLI prints before exiting 1.
pub fn oracle_verdict(report: &ServiceReport) -> Result<(), String> {
    match report.oracle_mismatches {
        0 => Ok(()),
        k => Err(format!(
            "{k} of {} oracle-checked sessions disagree with the lockstep simulator",
            report.oracle_checked
        )),
    }
}

/// Runs the synthetic seeded load mix through the service.
///
/// # Errors
///
/// Propagates [`run_service`] errors (a spec that does not build) and
/// invalid `(n, t)`.
pub fn run_load(config: &LoadConfig) -> Result<(ServiceReport, Table), EbaError> {
    let specs = synthetic_mix(config)?;
    let service = service_config(config.workers, config.capacity, config.oracle_stride);
    let report = run_service(&specs, &service)?;
    let table = summary_table(
        "Service load",
        &format!(
            "{} sessions ({} stacks × {} models, seed {:#x}) multiplexed at capacity {}.",
            config.sessions,
            STACK_NAMES.len(),
            MODEL_NAMES.len(),
            config.seed,
            config.capacity,
        ),
        &report,
    );
    Ok((report, table))
}

/// Runs every `.eba` scenario of a corpus directory as a service session.
///
/// # Errors
///
/// Returns corpus load errors (`<path>:<line>:`-prefixed) and
/// [`run_service`] errors.
pub fn run_serve(
    dir: &Path,
    workers: usize,
    capacity: usize,
) -> Result<(ServiceReport, Table), EbaError> {
    let scenarios = load_dir(dir)?;
    let specs: Vec<SessionSpec> = scenarios
        .iter()
        .map(|s| SessionSpec::from_scenario(&s.spec))
        .collect();
    let service = service_config(workers, capacity, 1);
    let report = run_service(&specs, &service)?;
    let table = summary_table(
        "Service corpus run",
        &format!(
            "{} scenarios from {} as concurrent sessions (every decision oracle-checked).",
            specs.len(),
            dir.display(),
        ),
        &report,
    );
    Ok((report, table))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> LoadConfig {
        LoadConfig {
            sessions: 64,
            capacity: 16,
            workers: 2,
            oracle_stride: 8,
            ..Default::default()
        }
    }

    #[test]
    fn the_load_mix_is_deterministic_and_oracle_clean() {
        let config = tiny_config();
        let a = synthetic_mix(&config).unwrap();
        let b = synthetic_mix(&config).unwrap();
        assert_eq!(a.len(), 64);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.stack, y.stack);
            assert_eq!(x.inits, y.inits);
        }

        let (report, _) = run_load(&config).unwrap();
        assert_eq!(report.outcomes.len(), 64);
        // Outcomes come back in spec order, and a session's stack is its
        // spec's: all 16 stack × model combinations ran.
        assert!((0..64).eq(report.outcomes.iter().map(|o| o.spec_index)));
        let stack = |o: &eba_service::SessionOutcome| a[o.spec_index].stack.as_str();
        let distinct: std::collections::BTreeSet<&str> =
            report.outcomes.iter().map(stack).collect();
        assert_eq!(distinct.len(), 16);
        assert_eq!(report.decided_sessions(), 64);
        assert!(report.oracle_checked >= 64 / 8);
        assert_eq!(report.oracle_mismatches, 0);
    }

    #[test]
    fn the_load_table_shows_the_cells_ci_greps() {
        // CI's load smoke reads the verdicts off the printed row: sessions
        // and decided side by side, the saturated table, and a clean
        // oracle cell.
        let (report, table) = run_load(&tiny_config()).unwrap();
        let markdown = table.to_markdown();
        assert!(
            markdown.contains("| sessions | decided | peak in-flight |"),
            "{markdown}"
        );
        assert!(markdown.contains("\n| 64 | 64 | 16 |"), "{markdown}");
        assert!(report.oracle_checked > 0);
        let k = report.oracle_checked;
        assert!(markdown.contains(&format!("| {k}/{k} ok |")), "{markdown}");
    }

    #[test]
    fn an_oracle_mismatch_is_the_failing_verdict() {
        assert_eq!(oracle_verdict(&ServiceReport::default()), Ok(()));
        let doctored = ServiceReport {
            oracle_checked: 3,
            oracle_mismatches: 1,
            ..Default::default()
        };
        assert_eq!(
            oracle_verdict(&doctored).unwrap_err(),
            "1 of 3 oracle-checked sessions disagree with the lockstep simulator"
        );
    }

    #[test]
    fn defaulted_workers_resolve_and_session_walls_are_measured() {
        // `--workers` left at its 0 default resolves to the worker pool's
        // real thread count in the report.
        let config = LoadConfig {
            workers: 0,
            ..tiny_config()
        };
        let (report, _) = run_load(&config).unwrap();
        assert!(report.workers > 0);
        assert!(report.outcomes.iter().all(|o| o.wall_seconds > 0.0));
        let (p50, p90, p99) = report.latency_percentiles().unwrap();
        assert!(p50 <= p90 && p90 <= p99);
    }

    #[test]
    fn serve_runs_the_committed_corpus() {
        let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../corpus");
        let (report, table) = run_serve(&dir, 2, 8).unwrap();
        assert!(report.outcomes.len() >= 10);
        assert_eq!(
            report.oracle_checked,
            report.outcomes.len(),
            "--serve oracle-checks every scenario"
        );
        assert_eq!(report.oracle_mismatches, 0);
        assert!(table.to_markdown().contains("Service corpus run"));
    }
}
