//! The multiplexed service runtime: sessions as run-to-completion tasks
//! on a worker pool, admission control at the driver.
//!
//! Topology for a batch of specs on a pool of `workers` threads:
//!
//! ```text
//!   driver (block_on) ──admits──▶ session tasks (one `run_engine` each)
//!        ▲                                  │
//!        └──── (outcome, round traffic) ────┘
//! ```
//!
//! * A failure pattern is fixed before round 1 and a stack is
//!   deterministic, so a session has nothing to wait for between rounds:
//!   every admitted session is one task that runs its [`SessionEngine`]
//!   to the horizon with [`run_engine`] — omissions injected inline from
//!   its own [`FailurePattern`] — and then makes its single send, the
//!   [`SessionOutcome`] and its per-round [`RoundTraffic`], on the
//!   completion mailbox.
//! * The driver admits specs while the [`SessionTable`] has room; when it
//!   is full it waits for a completion (counted as a *deferral* — the
//!   backpressure signal) before admitting more, and folds each retired
//!   session's traffic into [`ServiceReport::round_traffic`].
//!
//! Deadlock freedom: the completion mailbox's capacity equals the table
//! capacity, so the at most `capacity` in-flight sessions can never
//! block on reporting — a worker never parks inside a session. The
//! driver additionally guards every wait with
//! [`ServiceConfig::stall_timeout`], so a runtime bug surfaces as an
//! error instead of a hang.

use std::time::{Duration, Instant};

use exec::{block_on, mailbox, timeout, Executor, MailboxSender};

use eba_core::context::error_message;
use eba_core::failures::FailurePattern;
use eba_core::types::EbaError;
use eba_sim::runner::Parallelism;
use eba_transport::{run_engine, RoundTraffic, SessionEngine};

use crate::engine::SessionSpec;
use crate::report::{ServiceReport, SessionOutcome};
use crate::table::{SessionId, SessionTable};

/// Tuning knobs for [`run_service`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Worker threads in the pool (`0` = one per available core).
    pub workers: usize,
    /// Session table capacity — the maximum concurrently live sessions.
    pub capacity: usize,
    /// How long the driver waits on a completion before declaring the
    /// service stalled.
    pub stall_timeout: Duration,
    /// Cross-check every `k`-th admitted session's decision vector
    /// against the lockstep simulator (`Scenario::run`: same round kernel,
    /// but no codec, frame routing, byte-level omission or session loop;
    /// `None` = no checks, `Some(1)` = every session).
    pub oracle_stride: Option<usize>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 0,
            capacity: 1024,
            stall_timeout: Duration::from_secs(30),
            oracle_stride: None,
        }
    }
}

/// What a session task reports when it is done: its outcome and its
/// per-round traffic (index = round).
type Completion = (SessionOutcome, Vec<RoundTraffic>);

/// Opens a session's record at admission. Every heap buffer that outlives
/// the task — the decision vectors here, the traffic vector beside it —
/// is allocated by the driver and only filled by the task, so the thread
/// that frees it (the driver at retirement, the caller with the report)
/// is the thread that allocated it. Under an allocator with per-thread
/// arenas (glibc), buffers allocated on a worker and freed by the caller
/// seed the caller's free lists with chunks of the worker's arena, and
/// the caller's next growing `Vec`s then grow there instead of reusing
/// its own freed memory: the process's peak RSS swung by 5 MiB from one
/// run to the next.
fn open_outcome(id: SessionId, spec_index: usize, spec: &SessionSpec) -> Completion {
    let n = spec.params.n();
    let outcome = SessionOutcome {
        id,
        spec_index,
        stack: spec.stack.clone(),
        decision_values: Vec::with_capacity(n),
        decision_rounds: Vec::with_capacity(n),
        decided_round: None,
        rounds: 0,
        frames_sent: 0,
        frames_dropped: 0,
        wall_seconds: 0.0,
    };
    (outcome, Vec::with_capacity(spec.horizon as usize))
}

/// A session task: run the engine to its horizon, fill in the record the
/// driver opened, then report. The send fails only if the driver has
/// already returned (an earlier spec failed to build, or the service
/// stalled); the session is then simply dropped.
async fn run_session(
    (mut outcome, mut traffic): Completion,
    mut engine: Box<dyn SessionEngine>,
    pattern: FailurePattern,
    admitted: Instant,
    completions: MailboxSender<Completion>,
) {
    let run = run_engine(engine.as_mut(), &pattern);
    outcome.decided_round = pattern
        .nonfaulty()
        .iter()
        .map(|a| run.decision_rounds[a.index()])
        .try_fold(0u32, |acc, r| r.map(|r| acc.max(r)));
    outcome
        .decision_values
        .extend_from_slice(&run.decision_values);
    outcome
        .decision_rounds
        .extend_from_slice(&run.decision_rounds);
    outcome.rounds = run.rounds;
    outcome.frames_sent = run.frames_sent;
    outcome.frames_dropped = run.round_traffic.iter().map(RoundTraffic::dropped).sum();
    traffic.extend_from_slice(&run.round_traffic);
    outcome.wall_seconds = admitted.elapsed().as_secs_f64();
    let _ = completions.send((outcome, traffic)).await;
}

/// Retires one completed session: frees its slot, folds its per-round
/// traffic into the service-wide counters and files its outcome.
fn retire(
    (outcome, traffic): Completion,
    table: &mut SessionTable<usize>,
    report: &mut ServiceReport,
) {
    table.remove(outcome.id);
    if report.round_traffic.len() < traffic.len() {
        report
            .round_traffic
            .resize(traffic.len(), RoundTraffic::default());
    }
    for (total, round) in report.round_traffic.iter_mut().zip(&traffic) {
        total.absorb(round);
    }
    report.outcomes.push(outcome);
}

/// Runs every spec to completion on a multiplexed worker pool and returns
/// the aggregate [`ServiceReport`].
///
/// Sessions are admitted in spec order, at most
/// [`ServiceConfig::capacity`] in flight; each runs its stack over
/// encoded wire frames with omissions injected from its own
/// [`FailurePattern`]. With [`ServiceConfig::oracle_stride`] set, every
/// `k`-th admitted session's decision vector is re-derived by the
/// lockstep simulator (`Scenario::run`) and compared — the same
/// oracle-confirmation discipline the fuzzer and query engine use.
///
/// # Errors
///
/// Returns [`EbaError::InvalidInput`] when a spec fails to build (unknown
/// stack, bad shape, inadmissible pattern — prefixed `session <i>:`),
/// or when the service stalls ([`ServiceConfig::stall_timeout`] with no
/// completion, which indicates a runtime bug, not a protocol outcome).
pub fn run_service(
    specs: &[SessionSpec],
    config: &ServiceConfig,
) -> Result<ServiceReport, EbaError> {
    let workers = match config.workers {
        0 => Parallelism::Auto.worker_count(),
        workers => workers,
    };
    let capacity = config.capacity.max(1);
    let pool = Executor::new(workers);
    // Capacity = table capacity: at most `capacity` sessions are ever
    // in flight, so completion sends can never block (deadlock freedom).
    let (completion_tx, mut completion_rx) = mailbox::<Completion>(capacity);

    let stall = config.stall_timeout;
    let driver = async {
        let mut table: SessionTable<usize> = SessionTable::with_capacity(capacity);
        let mut report = ServiceReport::default();
        for (spec_index, spec) in specs.iter().enumerate() {
            let engine = spec.build_engine().map_err(|e| {
                EbaError::InvalidInput(format!("session {spec_index}: {}", error_message(&e)))
            })?;
            while table.is_full() {
                report.deferrals += 1;
                let done = timeout(stall, completion_rx.recv()).await.map_err(|_| {
                    EbaError::InvalidInput(format!(
                        "service stalled: no completion within {stall:?} \
                         with {} sessions in flight",
                        table.len()
                    ))
                })?;
                let done = done.expect("driver still holds a completion sender");
                retire(done, &mut table, &mut report);
            }
            let id = table.insert(spec_index).expect("table has room");
            let admitted = Instant::now();
            report.admitted += 1;
            report.peak_in_flight = report.peak_in_flight.max(table.len());
            let _detached = pool.spawn(run_session(
                open_outcome(id, spec_index, spec),
                engine,
                spec.pattern.clone(),
                admitted,
                completion_tx.clone(),
            ));
        }
        while !table.is_empty() {
            let done = timeout(stall, completion_rx.recv()).await.map_err(|_| {
                EbaError::InvalidInput(format!(
                    "service stalled during teardown: no completion within \
                     {stall:?} with {} sessions in flight",
                    table.len()
                ))
            })?;
            let done = done.expect("driver still holds a completion sender");
            retire(done, &mut table, &mut report);
        }
        Ok::<ServiceReport, EbaError>(report)
    };
    let t0 = Instant::now();
    let mut report = block_on(driver)?;
    report.service_seconds = t0.elapsed().as_secs_f64();
    report.workers = workers;

    if let Some(stride) = config.oracle_stride {
        let stride = stride.max(1);
        for outcome in &report.outcomes {
            if outcome.spec_index % stride != 0 {
                continue;
            }
            let (rounds, values) = specs[outcome.spec_index].lockstep_decisions()?;
            report.oracle_checked += 1;
            if rounds != outcome.decision_rounds || values != outcome.decision_values {
                report.oracle_mismatches += 1;
            }
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eba_core::prelude::*;

    fn params() -> Params {
        Params::new(3, 1).unwrap()
    }

    fn spec_for(stack: &str, seed_drop: bool) -> SessionSpec {
        let pattern = if seed_drop {
            let faulty = AgentSet::singleton(AgentId::new(0));
            silent_pattern(params(), faulty, 4).unwrap()
        } else {
            FailurePattern::failure_free(params())
        };
        SessionSpec::new(
            stack,
            params(),
            pattern,
            vec![Value::Zero, Value::One, Value::One],
            4,
        )
    }

    #[test]
    fn a_small_batch_completes_and_oracle_checks_clean() {
        let specs: Vec<SessionSpec> = ["E_min/P_min", "E_basic/P_basic", "E_fip/P_opt"]
            .iter()
            .flat_map(|s| [spec_for(s, false), spec_for(s, true)])
            .collect();
        let config = ServiceConfig {
            workers: 2,
            capacity: 4,
            oracle_stride: Some(1),
            ..Default::default()
        };
        let report = run_service(&specs, &config).unwrap();
        assert_eq!(report.admitted, 6);
        assert_eq!(report.outcomes.len(), 6);
        assert_eq!(report.oracle_checked, 6);
        assert_eq!(report.oracle_mismatches, 0);
        assert_eq!(report.decided_sessions(), 6);
        assert!(report.total_traffic().sent > 0);
    }

    #[test]
    fn a_full_table_defers_admission_but_never_deadlocks() {
        let specs: Vec<SessionSpec> = (0..32)
            .map(|_| spec_for("E_basic/P_basic", false))
            .collect();
        let config = ServiceConfig {
            workers: 2,
            capacity: 2,
            stall_timeout: Duration::from_secs(10),
            ..Default::default()
        };
        let report = run_service(&specs, &config).unwrap();
        assert_eq!(report.admitted, 32);
        assert_eq!(report.outcomes.len(), 32);
        assert!(report.deferrals > 0, "capacity 2 must defer 32 sessions");
        assert_eq!(report.peak_in_flight, 2);
    }

    #[test]
    fn bad_specs_error_with_their_index() {
        let mut bad = spec_for("E_min/P_min", false);
        bad.inits.pop();
        let specs = vec![spec_for("E_min/P_min", false), bad];
        let err = run_service(&specs, &ServiceConfig::default()).unwrap_err();
        let msg = error_message(&err);
        assert!(msg.starts_with("session 1: "), "{msg}");
    }

    #[test]
    fn session_walls_are_clocked_from_admission() {
        // One worker and a table as large as the batch: the driver admits
        // all 256 sessions before the first completion, so the last
        // session to run waited behind most of the batch. A clock started
        // at the task's first poll would read the ~10 µs a session takes
        // to run — a hundredth of the service time, not a quarter.
        let specs: Vec<SessionSpec> = (0..256).map(|_| spec_for("E_fip/P_opt", false)).collect();
        let config = ServiceConfig {
            workers: 1,
            capacity: specs.len(),
            ..Default::default()
        };
        let report = run_service(&specs, &config).unwrap();
        assert_eq!(report.deferrals, 0);
        let slowest = report
            .outcomes
            .iter()
            .map(|o| o.wall_seconds)
            .fold(0.0, f64::max);
        assert!(
            slowest >= report.service_seconds / 4.0,
            "slowest session {slowest} s of {} s",
            report.service_seconds
        );
    }

    #[test]
    fn per_session_drops_sum_to_the_service_totals() {
        let specs = vec![
            spec_for("E_min/P_min", true),
            spec_for("E_min/P_min", false),
        ];
        let config = ServiceConfig {
            workers: 2,
            oracle_stride: Some(1),
            ..Default::default()
        };
        let report = run_service(&specs, &config).unwrap();
        assert_eq!(report.oracle_mismatches, 0);
        let total = report.total_traffic();
        let sent: u64 = report.outcomes.iter().map(|o| o.frames_sent).sum();
        let dropped: u64 = report.outcomes.iter().map(|o| o.frames_dropped).sum();
        assert_eq!(total.sent, sent);
        assert_eq!(total.dropped(), dropped);
        assert!(dropped > 0, "the silent pattern must drop frames");
    }
}
