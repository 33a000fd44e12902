//! The multiplexed service runtime: sessions as tasks, routers as
//! batch-draining tasks, admission control at the driver.
//!
//! Topology for a batch of specs on a pool of `workers` threads:
//!
//! ```text
//!   driver (block_on) ──admits──▶ session tasks ──envelopes──▶ routers
//!        ▲                            ▲  │                        │
//!        └────── completions ─────────┘  └──── delivered frames ──┘
//! ```
//!
//! * Every admitted session runs as one task holding its
//!   [`SessionEngine`]; each round it sends its encoded frames to its
//!   router (assignment: table slot mod router count) and awaits the
//!   post-omission delivery.
//! * Each router drains its bounded mailbox with `recv_batch` — all
//!   pending round messages for that router's sessions in one wakeup —
//!   applies each session's [`FailurePattern`], counts
//!   [`RoundTraffic`], and replies with the delivered frames.
//! * The driver admits specs while the [`SessionTable`] has room; when it
//!   is full it waits for a completion (counted as a *deferral* — the
//!   backpressure signal) before admitting more. Bounded mailboxes
//!   backpressure the routers the same way.
//!
//! Deadlock freedom: the completion mailbox's capacity equals the table
//! capacity, so at most `capacity` in-flight sessions can never block on
//! reporting; reply mailboxes hold one round each and their receiver is
//! always awaiting; router mailboxes are drained unconditionally. The
//! driver additionally guards every wait with
//! [`ServiceConfig::stall_timeout`], so a runtime bug surfaces as an
//! error instead of a hang.

use std::sync::Arc;
use std::time::Duration;

use exec::{block_on, mailbox, timeout, Executor, Mailbox, MailboxSender};

use eba_core::context::error_message;
use eba_core::failures::FailurePattern;
use eba_core::types::EbaError;
use eba_sim::runner::Parallelism;
use eba_transport::{apply_pattern, RoundFrames, RoundTraffic, SessionEngine};

use crate::engine::SessionSpec;
use crate::report::{ServiceReport, SessionOutcome};
use crate::table::{SessionId, SessionTable};

/// Tuning knobs for [`run_service`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Worker threads in the pool (`0` = one per available core); the
    /// service runs one router task per worker.
    pub workers: usize,
    /// Session table capacity — the maximum concurrently live sessions.
    pub capacity: usize,
    /// How long the driver waits on a completion before declaring the
    /// service stalled.
    pub stall_timeout: Duration,
    /// Cross-check every `k`-th admitted session's decision vector
    /// against the lockstep simulator (`Scenario::run`, which shares
    /// neither codec nor engine with the service; `None` = no checks,
    /// `Some(1)` = every session).
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

/// Capacity of each router's mailbox, in envelopes.
const ROUTER_MAILBOX: usize = 256;

/// One session's round, in flight to a router.
struct Envelope {
    round: u32,
    frames: RoundFrames,
    pattern: Arc<FailurePattern>,
    reply: MailboxSender<(RoundFrames, RoundTraffic)>,
}

/// A router task: drain every queued envelope in one wakeup, inject
/// omissions, reply. Returns its per-round traffic totals when every
/// envelope sender (the driver and all its sessions) has hung up.
async fn route(mut rx: Mailbox<Envelope>) -> Vec<RoundTraffic> {
    let mut per_round: Vec<RoundTraffic> = Vec::new();
    loop {
        let batch = rx.recv_batch().await;
        if batch.is_empty() {
            return per_round;
        }
        for envelope in batch {
            let (delivered, traffic) =
                apply_pattern(envelope.round, envelope.frames, &envelope.pattern);
            let round = envelope.round as usize;
            if per_round.len() <= round {
                per_round.resize(round + 1, RoundTraffic::default());
            }
            per_round[round].absorb(&traffic);
            // A dead session (teardown path) just loses its reply.
            let _ = envelope.reply.send((delivered, traffic)).await;
        }
    }
}

/// A session task: run the engine to its horizon round by round through
/// the router, then report the outcome. Exits quietly if the service is
/// tearing down (router or completion mailbox gone).
async fn drive_session(
    id: SessionId,
    spec_index: usize,
    stack: String,
    mut engine: Box<dyn SessionEngine>,
    pattern: Arc<FailurePattern>,
    router: MailboxSender<Envelope>,
    completions: MailboxSender<SessionOutcome>,
) {
    let t0 = std::time::Instant::now();
    let (reply_tx, mut reply_rx) = mailbox::<(RoundFrames, RoundTraffic)>(1);
    let mut frames_sent = 0u64;
    let mut frames_dropped = 0u64;
    while !engine.finished() {
        let envelope = Envelope {
            round: engine.round(),
            frames: engine.outgoing(),
            pattern: Arc::clone(&pattern),
            reply: reply_tx.clone(),
        };
        if router.send(envelope).await.is_err() {
            return;
        }
        let Some((delivered, traffic)) = reply_rx.recv().await else {
            return;
        };
        frames_sent += traffic.sent;
        frames_dropped += traffic.dropped();
        engine.deliver(delivered);
    }
    let nonfaulty = pattern.nonfaulty();
    let decision_rounds = engine.decision_rounds().to_vec();
    let decided_round = nonfaulty
        .iter()
        .map(|a| decision_rounds[a.index()])
        .try_fold(0u32, |acc, r| r.map(|r| acc.max(r)));
    let outcome = SessionOutcome {
        id,
        spec_index,
        stack,
        decision_values: engine.decision_values().to_vec(),
        decision_rounds,
        decided_round,
        rounds: engine.round(),
        frames_sent,
        frames_dropped,
        wall_seconds: t0.elapsed().as_secs_f64(),
    };
    let _ = completions.send(outcome).await;
}

/// Runs every spec to completion on a multiplexed worker pool and returns
/// the aggregate [`ServiceReport`].
///
/// Sessions are admitted in spec order, at most
/// [`ServiceConfig::capacity`] in flight; each runs its stack over
/// encoded wire frames with omissions injected at the router from its own
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

    let mut router_txs = Vec::with_capacity(workers);
    let mut router_handles = Vec::with_capacity(workers);
    for _ in 0..workers {
        let (tx, rx) = mailbox::<Envelope>(ROUTER_MAILBOX);
        router_txs.push(tx);
        router_handles.push(pool.spawn(route(rx)));
    }
    // Capacity = table capacity: at most `capacity` sessions are ever
    // in flight, so completion sends can never block (deadlock freedom).
    let (completion_tx, mut completion_rx) = mailbox::<SessionOutcome>(capacity);

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
                table.remove(done.id);
                report.outcomes.push(done);
            }
            let id = table.insert(spec_index).expect("table has room");
            report.admitted += 1;
            report.peak_in_flight = report.peak_in_flight.max(table.len());
            let _detached = pool.spawn(drive_session(
                id,
                spec_index,
                spec.stack.clone(),
                engine,
                Arc::new(spec.pattern.clone()),
                router_txs[id.index() % router_txs.len()].clone(),
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
            table.remove(done.id);
            report.outcomes.push(done);
        }
        Ok::<ServiceReport, EbaError>(report)
    };
    let t0 = std::time::Instant::now();
    let mut report = block_on(driver)?;
    report.workers = workers;

    // Graceful teardown: hang up the envelope senders so the routers
    // drain and return their traffic, then merge it.
    drop(router_txs);
    drop(completion_tx);
    for handle in router_handles {
        let per_round = block_on(handle);
        for (round, traffic) in per_round.iter().enumerate() {
            if report.round_traffic.len() <= round {
                report
                    .round_traffic
                    .resize(round + 1, RoundTraffic::default());
            }
            report.round_traffic[round].absorb(traffic);
        }
    }
    report.service_seconds = t0.elapsed().as_secs_f64();

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
