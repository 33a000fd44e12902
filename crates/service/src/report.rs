//! Service-level observability: per-session outcomes and the aggregate
//! [`ServiceReport`], sharing [`RoundTraffic`] with the transport's
//! loopback so both drivers of the round engine report comparable
//! counters.

use eba_transport::RoundTraffic;

use eba_core::types::Value;

use crate::table::SessionId;

/// The terminal record of one session. The driver opens it at admission
/// and the thread that runs it, a worker or the driver, fills it in once
/// the engine reaches its horizon. A session whose engine panicked
/// completes with the record as it was opened: no rounds, no frames,
/// empty decision vectors, `decided_round` `None`, and only its wall time
/// filled in.
#[derive(Clone, Debug)]
pub struct SessionOutcome {
    /// The (recycled) table slot the session ran in.
    pub id: SessionId,
    /// Index of the session's spec in the submitted batch — stable across
    /// slot reuse, and the key for oracle cross-checks.
    pub spec_index: usize,
    /// Qualified stack name (`E_fip/P_opt@crash`).
    pub stack: String,
    /// Per-agent first decision round (lockstep convention: the round
    /// after the acting round); empty if the engine panicked.
    pub decision_rounds: Vec<Option<u32>>,
    /// Per-agent decision value; empty if the engine panicked.
    pub decision_values: Vec<Option<Value>>,
    /// Round the session fully decided — the latest decision round over
    /// the pattern's nonfaulty agents, `None` if any of them never
    /// decided.
    pub decided_round: Option<u32>,
    /// Rounds executed (`0` if the engine panicked).
    pub rounds: u32,
    /// Frames this session's agents sent (dropped frames included).
    pub frames_sent: u64,
    /// Frames the session's failure pattern suppressed.
    pub frames_dropped: u64,
    /// Wall-clock seconds from the session's admission (the driver's
    /// clock, taken as it enters the table) to its completion report —
    /// includes the wait for a thread behind the sessions admitted
    /// before it, so the percentiles over these reflect observed service
    /// latency, not isolated session cost.
    pub wall_seconds: f64,
}

/// The aggregate outcome of a [`run_service`](crate::run_service) batch.
#[derive(Clone, Debug, Default)]
pub struct ServiceReport {
    /// One outcome per admitted session, in completion order.
    pub outcomes: Vec<SessionOutcome>,
    /// Sessions admitted (equals the submitted batch when nothing errors).
    pub admitted: usize,
    /// Times admission had to wait for a completion because the session
    /// table was full — the backpressure counter.
    pub deferrals: u64,
    /// Highest number of concurrently live sessions observed.
    pub peak_in_flight: usize,
    /// Service-wide per-round sent/delivered counters (index = round),
    /// folded from every session as the driver retires it — the same
    /// shape the loopback `ClusterSummary` reports per run.
    pub round_traffic: Vec<RoundTraffic>,
    /// Wall-clock seconds of the multiplexed phase (admission through
    /// teardown), excluding the optional oracle pass.
    pub service_seconds: f64,
    /// Sessions cross-checked against the lockstep oracle.
    pub oracle_checked: usize,
    /// Cross-checked sessions whose decision vector disagreed with the
    /// oracle (must be zero; nonzero means a runtime bug, such as a
    /// session whose engine panicked).
    pub oracle_mismatches: usize,
    /// Pool threads the service ran beside the calling thread, which also
    /// runs sessions while it waits — the *resolved* count, not the
    /// configured one (a `workers: 0` config resolves to the machine's
    /// available parallelism).
    pub workers: usize,
}

impl ServiceReport {
    /// Sessions whose nonfaulty agents all decided.
    pub fn decided_sessions(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.decided_round.is_some())
            .count()
    }

    /// Total frames sent/delivered across all sessions and rounds.
    pub fn total_traffic(&self) -> RoundTraffic {
        let mut total = RoundTraffic::default();
        for t in &self.round_traffic {
            total.absorb(t);
        }
        total
    }

    /// Session wall-time percentiles `(p50, p90, p99)` in seconds, by
    /// the nearest-rank method over all outcomes. `None` when no session
    /// completed.
    pub fn latency_percentiles(&self) -> Option<(f64, f64, f64)> {
        if self.outcomes.is_empty() {
            return None;
        }
        let mut walls: Vec<f64> = self.outcomes.iter().map(|o| o.wall_seconds).collect();
        walls.sort_by(|a, b| a.partial_cmp(b).expect("finite wall times"));
        let rank = |p: f64| -> f64 {
            // Nearest-rank: the ⌈p·n⌉-th smallest value (1-indexed).
            let k = (p * walls.len() as f64).ceil() as usize;
            walls[k.clamp(1, walls.len()) - 1]
        };
        Some((rank(0.50), rank(0.90), rank(0.99)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(spec_index: usize, decided_round: Option<u32>) -> SessionOutcome {
        SessionOutcome {
            id: crate::SessionId::from_raw_for_tests(0),
            spec_index,
            stack: "E_min/P_min".into(),
            decision_rounds: vec![],
            decision_values: vec![],
            decided_round,
            rounds: 4,
            frames_sent: 0,
            frames_dropped: 0,
            wall_seconds: 0.0,
        }
    }

    #[test]
    fn decided_sessions_skips_sessions_without_a_decided_round() {
        let report = ServiceReport {
            outcomes: vec![
                outcome(0, Some(2)),
                outcome(1, Some(2)),
                outcome(2, Some(3)),
                outcome(3, None),
            ],
            admitted: 4,
            ..Default::default()
        };
        assert_eq!(report.decided_sessions(), 3);
    }

    #[test]
    fn latency_percentiles_use_nearest_rank() {
        let mut outcomes: Vec<SessionOutcome> = (1..=100)
            .map(|k| SessionOutcome {
                wall_seconds: k as f64 / 100.0,
                ..outcome(k, Some(2))
            })
            .collect();
        // Shuffled order must not matter.
        outcomes.reverse();
        let report = ServiceReport {
            outcomes,
            ..Default::default()
        };
        let (p50, p90, p99) = report.latency_percentiles().unwrap();
        assert_eq!((p50, p90, p99), (0.50, 0.90, 0.99));
        assert!(ServiceReport::default().latency_percentiles().is_none());
        // A single outcome is every percentile.
        let one = ServiceReport {
            outcomes: vec![SessionOutcome {
                wall_seconds: 0.25,
                ..outcome(0, None)
            }],
            ..Default::default()
        };
        assert_eq!(one.latency_percentiles().unwrap(), (0.25, 0.25, 0.25));
    }

    #[test]
    fn total_traffic_folds_rounds() {
        let report = ServiceReport {
            round_traffic: vec![
                RoundTraffic {
                    sent: 10,
                    delivered: 8,
                },
                RoundTraffic {
                    sent: 6,
                    delivered: 6,
                },
            ],
            ..Default::default()
        };
        let total = report.total_traffic();
        assert_eq!(total.sent, 16);
        assert_eq!(total.dropped(), 2);
    }
}
