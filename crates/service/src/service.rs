//! The multiplexed service runtime: each session runs to completion on
//! one thread, and sessions retire in spec order.
//!
//! ```text
//!   specs ──▶ Parallelism::for_each_ordered_within(capacity, …)
//!               produce(i): admit → step_rounds over    pool threads
//!                           the wire → record           and the caller
//!               consume:    admit i + capacity, retire i   the caller
//! ```
//!
//! A failure pattern is fixed before round 1 and a stack is
//! deterministic, so a session has nothing to wait for between rounds:
//! whichever thread claims it runs it to its horizon with `eba-transport`'s
//! `run_named_cluster` and records it, and the calling thread retires the
//! sessions in spec order, folding their traffic. Admission is the
//! window: spec `i` is admitted at the start when `i < capacity`,
//! otherwise when spec `i − capacity` retires — the spec that waited for
//! it is a *deferral*, the backpressure signal. A session that panics is
//! caught where it runs and completes unfilled: no rounds and no
//! decisions. Nothing times a session out: a hung session hangs the
//! call, on whichever thread it runs.

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use eba_core::context::{error_message, NamedStack};
use eba_core::corpus::Case;
use eba_core::failures::FailurePattern;
use eba_core::types::EbaError;
use eba_sim::fuzz::CaseOracle;
use eba_sim::runner::Parallelism;
use eba_transport::{ClusterSummary, RoundTraffic};

use crate::engine::SessionSpec;
use crate::report::{ServiceReport, SessionOutcome};

/// Tuning knobs for [`run_service`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Pool threads beside the calling thread, which runs sessions too
    /// (`0` = one per available core, as [`Parallelism::Auto`] resolves:
    /// one thread more than the cores).
    pub workers: usize,
    /// The admission window — the maximum sessions admitted and not yet
    /// retired (`0` is treated as 1).
    pub capacity: usize,
    /// Cross-check every `k`-th admitted session's decision vector
    /// against the lockstep simulator (`Scenario::run`: the same round
    /// kernel and loop, but no codec, frame marking, byte-level omission
    /// or decoding; `None` = no checks, `Some(1)` = every session).
    pub oracle_stride: Option<usize>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 0,
            capacity: 1024,
            oracle_stride: None,
        }
    }
}

/// What a session reports when it is done: its outcome, its per-round
/// traffic (index = round), and when its thread started and finished it.
type Completion = (SessionOutcome, Vec<RoundTraffic>, Range<Instant>);

/// Runs a session — `run`, on this thread, so that every buffer it
/// allocates is freed here — and records it. A session that panics
/// completes unfilled: no rounds, no frames, no decisions.
///
/// # Errors
///
/// What `run` returns, prefixed `session <spec_index>:`.
fn run_session(
    spec_index: usize,
    pattern: &FailurePattern,
    run: impl FnOnce() -> Result<ClusterSummary, EbaError>,
) -> Result<Completion, EbaError> {
    let started = Instant::now();
    let run = catch_unwind(AssertUnwindSafe(run)).unwrap_or_else(|_| Ok(Default::default()));
    let run = run.map_err(|e| {
        EbaError::InvalidInput(format!("session {spec_index}: {}", error_message(&e)))
    })?;
    let decided_round = (pattern.nonfaulty().iter())
        .map(|a| run.decision_rounds.get(a.index()).copied().flatten())
        .try_fold(0u32, |acc, r| r.map(|r| acc.max(r)));
    let outcome = SessionOutcome {
        spec_index,
        decided_round,
        rounds: run.rounds,
        frames_sent: run.frames_sent,
        frames_dropped: run.round_traffic.iter().map(RoundTraffic::dropped).sum(),
        decision_rounds: run.decision_rounds,
        decision_values: run.decision_values,
        wall_seconds: 0.0,
    };
    Ok((outcome, run.round_traffic, started..Instant::now()))
}

/// Runs every spec to completion on a pool of worker threads and on the
/// calling thread, and returns the aggregate [`ServiceReport`], its
/// outcomes in spec order.
///
/// Sessions are admitted in spec order, at most
/// [`ServiceConfig::capacity`] admitted and not yet retired; each runs its
/// stack over encoded wire frames with omissions injected from its own
/// failure pattern. With [`ServiceConfig::oracle_stride`] set, every
/// `k`-th admitted session's decision vector is re-derived by the lockstep
/// simulator (the stack's [`CaseOracle`], a `TraceOracle`) and compared —
/// the same oracle-confirmation discipline the fuzzer and query engine use.
///
/// # Errors
///
/// Returns [`EbaError::InvalidInput`] for the first spec, in spec order,
/// that fails to build (unknown stack, bad shape, inadmissible pattern —
/// prefixed `session <i>:`). A hung engine hangs the call.
pub fn run_service(
    specs: &[SessionSpec],
    config: &ServiceConfig,
) -> Result<ServiceReport, EbaError> {
    let workers = match config.workers {
        0 => Parallelism::Auto.worker_count(),
        workers => workers,
    };
    let capacity = config.capacity.max(1);
    let mut report = ServiceReport {
        admitted: specs.len(),
        deferrals: specs.len().saturating_sub(capacity) as u64,
        peak_in_flight: specs.len().min(capacity),
        workers,
        ..Default::default()
    };
    let t0 = Instant::now();
    // When each session in the window was admitted: spec `i` in slot
    // `i % capacity`, which spec `i + capacity` takes over as `i` retires.
    // That clock is read after the window let `i + capacity` in, so the
    // session may have started first: its start then bounds its admission.
    let mut admitted = vec![t0; report.peak_in_flight];
    let retire = |done: Result<Completion, EbaError>| {
        let (mut outcome, traffic, ran) = done?;
        let admission = &mut admitted[outcome.spec_index % capacity];
        outcome.wall_seconds = (ran.end - ran.start.min(*admission)).as_secs_f64();
        *admission = Instant::now();
        if report.round_traffic.len() < traffic.len() {
            report
                .round_traffic
                .resize(traffic.len(), RoundTraffic::default());
        }
        for (total, round) in report.round_traffic.iter_mut().zip(&traffic) {
            total.absorb(round);
        }
        report.outcomes.push(outcome);
        Ok(())
    };
    Parallelism::Fixed(workers + 1).for_each_ordered_within(
        capacity,
        specs.len(),
        |i| run_session(i, &specs[i].pattern, || specs[i].run()),
        retire,
    )?;
    report.service_seconds = t0.elapsed().as_secs_f64();

    if let Some(stride) = config.oracle_stride {
        let stride = stride.max(1);
        for outcome in &report.outcomes {
            if outcome.spec_index % stride != 0 {
                continue;
            }
            let spec = &specs[outcome.spec_index];
            let case = Case {
                pattern: spec.pattern.clone(),
                inits: spec.inits.clone(),
                horizon: spec.horizon,
            };
            let lockstep = NamedStack::by_name(&spec.stack, spec.params)?.check(&case)?;
            report.oracle_checked += 1;
            if lockstep.rounds != outcome.decision_rounds
                || lockstep.decisions != outcome.decision_values
            {
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
        // Sums of walls, not single walls, so that no one session's
        // scheduling can decide the outcome.
        let specs: Vec<SessionSpec> = (0..256).map(|_| spec_for("E_fip/P_opt", false)).collect();
        let workers = 1;
        let walls = |capacity| {
            let config = ServiceConfig {
                workers,
                capacity,
                ..Default::default()
            };
            let report = run_service(&specs, &config).unwrap();
            let sum: f64 = report.outcomes.iter().map(|o| o.wall_seconds).sum();
            (sum, report.service_seconds)
        };
        // A window as large as the batch admits every session at the
        // start, so each wall runs from there. A clock started when a
        // thread picks a session up sums at most `workers + 1` service
        // times: each thread's sessions are disjoint spans of the service.
        let (sum, service) = walls(specs.len());
        let threads = (workers + 1) as f64;
        assert!(
            sum > threads * service,
            "walls sum to {sum} s, not over {threads} × the service's {service} s"
        );
        // A window of 8: spec `i` is admitted as spec `i − 8` retires, so
        // at any instant at most 9 sessions are between their admission
        // and their retirement, and the walls sum to at most 9 service
        // times on every schedule; a clock left at the start reads about
        // half the batch's.
        let (sum, service) = walls(8);
        assert!(
            sum <= 9.0 * service,
            "walls sum to {sum} s, over 9 × the service's {service} s"
        );
    }

    #[test]
    fn a_panicking_session_completes_unfilled_and_the_next_one_decides() {
        // Two sessions on the two threads of the ordered map, one at a
        // time through a window of one: whichever thread runs the
        // panicking one, the next session still runs and decides.
        let spec = spec_for("E_fip/P_opt", false);
        let mut done = Vec::new();
        let session = |i| match i {
            0 => panic!("a session bug"),
            _ => spec.run(),
        };
        Parallelism::Fixed(2)
            .for_each_ordered_within(
                1,
                2,
                |i| run_session(i, &spec.pattern, || session(i)).unwrap(),
                |c| {
                    done.push(c);
                    Ok::<_, EbaError>(())
                },
            )
            .unwrap();
        assert_eq!(done.len(), 2, "the panicking session completes too");
        let (failed, traffic, _) = &done[0];
        assert_eq!((failed.spec_index, failed.rounds), (0, 0));
        assert!(failed.decision_rounds.is_empty() && failed.decision_values.is_empty());
        assert_eq!(failed.decided_round, None);
        assert!(traffic.is_empty());
        let (outcome, traffic, _) = &done[1];
        assert_eq!(outcome.spec_index, 1);
        assert!(outcome.decided_round.is_some());
        assert_eq!(traffic.len(), outcome.rounds as usize);
    }

    #[test]
    fn one_batch_yields_equal_outcomes_on_one_and_three_workers() {
        let specs: Vec<SessionSpec> = (0..96)
            .map(|i| spec_for(STACK_NAMES[i % STACK_NAMES.len()], i % 3 == 0))
            .collect();
        let outcomes = |workers| {
            let config = ServiceConfig {
                workers,
                capacity: 8,
                ..Default::default()
            };
            let report = run_service(&specs, &config).unwrap();
            let walls_aside = |o| SessionOutcome {
                wall_seconds: 0.0,
                ..o
            };
            report
                .outcomes
                .into_iter()
                .map(walls_aside)
                .collect::<Vec<_>>()
        };
        let one = outcomes(1);
        assert_eq!(one.len(), specs.len());
        assert!((0..specs.len()).eq(one.iter().map(|o| o.spec_index)));
        assert_eq!(one, outcomes(3));
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
