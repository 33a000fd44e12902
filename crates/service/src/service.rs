//! The multiplexed service runtime: sessions run to completion on scoped
//! worker threads, admission control at the driver.
//!
//! ```text
//!   driver ──job channel──▶ `workers` threads (one `run_engine` per job)
//!      ▲                                │
//!      └────── completion channel ──────┘  (outcome, round traffic)
//! ```
//!
//! * A failure pattern is fixed before round 1 and a stack is
//!   deterministic, so a session has nothing to wait for between rounds.
//!   A worker takes an admitted session off the job channel, whose
//!   receiver the workers share behind a `Mutex`, runs its
//!   [`SessionEngine`] to the horizon with [`run_engine`] — omissions
//!   injected inline from its spec's failure pattern — and sends back
//!   the [`SessionOutcome`] and its per-round [`RoundTraffic`].
//! * The driver admits specs while the [`SessionTable`] has room. A spec
//!   that finds it full waits for one completion (a *deferral*, the
//!   backpressure signal). Each retired session's traffic is folded into
//!   [`ServiceReport::round_traffic`].
//!
//! Deadlock freedom: both channels are unbounded, so no send blocks, and
//! at most `capacity` sessions are in flight. Every driver wait is
//! bounded by [`ServiceConfig::stall_timeout`]; a panicking session is
//! caught on its worker, so its lost completion surfaces as that error.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use eba_core::context::error_message;
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

/// What a session reports when it is done: its outcome and its
/// per-round traffic (index = round).
type Completion = (SessionOutcome, Vec<RoundTraffic>);

/// An admitted session: its opened record, engine, spec and admission time.
type Job<'s> = (Completion, Box<dyn SessionEngine>, &'s SessionSpec, Instant);

/// Opens a session's record at admission. Every heap buffer that outlives
/// the session — the decision vectors here, the traffic vector beside it —
/// is allocated by the driver and only filled by the worker, so the thread
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

/// Runs a session's engine to its horizon and fills in the record the
/// driver opened.
fn run_session(job: Job<'_>) -> Completion {
    let ((mut outcome, mut traffic), mut engine, SessionSpec { pattern, .. }, admitted) = job;
    let run = run_engine(engine.as_mut(), pattern);
    outcome.decided_round = pattern
        .nonfaulty()
        .iter()
        .map(|a| run.decision_rounds[a.index()])
        .try_fold(0u32, |acc, r| r.map(|r| acc.max(r)));
    outcome.decision_values.extend(&run.decision_values);
    outcome.decision_rounds.extend(&run.decision_rounds);
    outcome.rounds = run.rounds;
    outcome.frames_sent = run.frames_sent;
    outcome.frames_dropped = run.round_traffic.iter().map(RoundTraffic::dropped).sum();
    traffic.extend_from_slice(&run.round_traffic);
    outcome.wall_seconds = admitted.elapsed().as_secs_f64();
    (outcome, traffic)
}

/// A worker: runs jobs until the driver closes the job channel and it is
/// drained. A session that panics reports nothing; the worker goes on. No
/// panic can poison the lock: it is held only across `recv`.
fn work(jobs: &Mutex<mpsc::Receiver<Job<'_>>>, completions: &mpsc::Sender<Completion>) {
    while let Some(job) = jobs.lock().ok().and_then(|jobs| jobs.recv().ok()) {
        if let Ok(done) = catch_unwind(AssertUnwindSafe(|| run_session(job))) {
            let _ = completions.send(done);
        }
    }
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

/// Runs every spec to completion on a pool of worker threads and returns
/// the aggregate [`ServiceReport`].
///
/// Sessions are admitted in spec order, at most
/// [`ServiceConfig::capacity`] in flight; each runs its stack over
/// encoded wire frames with omissions injected from its own failure
/// pattern. With [`ServiceConfig::oracle_stride`] set, every `k`-th
/// admitted session's decision vector is re-derived by the lockstep
/// simulator (`Scenario::run`) and compared — the same
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
    let (job_tx, job_rx) = mpsc::channel();
    let jobs = Mutex::new(job_rx);
    let (completion_tx, completion_rx) = mpsc::channel();
    let t0 = Instant::now();
    let mut report = thread::scope(|scope| {
        let jobs = &jobs;
        // Each worker gets its own completion sender; the driver keeps none.
        for completions in vec![completion_tx; workers] {
            scope.spawn(move || work(jobs, &completions));
        }
        drive(specs, config, job_tx, completion_rx)
    })?;
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

/// The driver: admits specs in order, hands each session to the workers
/// and retires it. Its channel ends drop on return, so the workers stop.
fn drive<'s>(
    specs: &'s [SessionSpec],
    config: &ServiceConfig,
    jobs: mpsc::Sender<Job<'s>>,
    completions: mpsc::Receiver<Completion>,
) -> Result<ServiceReport, EbaError> {
    let stall = config.stall_timeout;
    let stalled = |in_flight| {
        EbaError::InvalidInput(format!(
            "service stalled: no completion within {stall:?} with {in_flight} sessions in flight"
        ))
    };
    let next = |in_flight| {
        completions
            .recv_timeout(stall)
            .map_err(|_| stalled(in_flight))
    };
    let mut table: SessionTable<usize> = SessionTable::with_capacity(config.capacity.max(1));
    let mut report = ServiceReport::default();
    for (spec_index, spec) in specs.iter().enumerate() {
        let engine = spec.build_engine().map_err(|e| {
            EbaError::InvalidInput(format!("session {spec_index}: {}", error_message(&e)))
        })?;
        if table.is_full() {
            report.deferrals += 1;
            retire(next(table.len())?, &mut table, &mut report);
        }
        let id = table.insert(spec_index).expect("table has room");
        report.admitted += 1;
        report.peak_in_flight = report.peak_in_flight.max(table.len());
        let record = open_outcome(id, spec_index, spec);
        let sent = jobs.send((record, engine, spec, Instant::now()));
        sent.map_err(|_| stalled(table.len()))?;
    }
    while !table.is_empty() {
        retire(next(table.len())?, &mut table, &mut report);
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
        // all 256 sessions before it retires any, so the last
        // session to run waited behind most of the batch. A clock started
        // when a worker picks the session up would read the ~10 µs it takes
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

    /// An engine whose first round panics, as a session with a bug would.
    struct Panicking;

    impl SessionEngine for Panicking {
        fn round(&self) -> u32 {
            0
        }
        fn finished(&self) -> bool {
            false
        }
        fn outgoing(&mut self) -> eba_transport::RoundFrames {
            panic!("a session bug")
        }
        fn deliver(&mut self, _: eba_transport::RoundFrames) {}
        fn decision_rounds(&self) -> &[Option<u32>] {
            &[]
        }
        fn decision_values(&self) -> &[Option<Value>] {
            &[]
        }
    }

    #[test]
    fn a_panicking_session_leaves_its_worker_serving_the_next_job() {
        let spec = spec_for("E_fip/P_opt", false);
        let mut table = SessionTable::with_capacity(2);
        let (job_tx, job_rx) = mpsc::channel();
        let (completion_tx, completion_rx) = mpsc::channel();
        let engines: [Box<dyn SessionEngine>; 2] =
            [Box::new(Panicking), spec.build_engine().unwrap()];
        for (spec_index, engine) in engines.into_iter().enumerate() {
            let record = open_outcome(table.insert(spec_index).unwrap(), spec_index, &spec);
            let job = (record, engine, &spec, Instant::now());
            job_tx.send(job).unwrap();
        }
        drop(job_tx);
        work(&Mutex::new(job_rx), &completion_tx);
        drop(completion_tx);
        let done: Vec<Completion> = completion_rx.iter().collect();
        assert_eq!(done.len(), 1, "the panicking session reports nothing");
        let (outcome, traffic) = &done[0];
        assert_eq!(outcome.spec_index, 1);
        assert!(outcome.decided_round.is_some());
        assert_eq!(traffic.len(), outcome.rounds as usize);
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
