//! The metric tables: every name, unit, direction and bound the benchmark
//! reports. `BENCHMARK.json` at the repo root lists the same tables (a
//! unit test keeps the two in step), and `compare` reads the bounds from
//! the result files, which copy them from here.

/// Which direction is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

use Better::{Higher, Lower};

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    pub fn by_name(name: &str) -> Option<Better> {
        match name {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may get worse
    /// before `compare` calls it a regression (end-to-end metrics only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    e2e(name, unit, better, 0.0)
}

/// End-to-end metrics, reported by every workload with tracing off. An
/// *operation* is the workload's closed-loop unit: a session, a full
/// model-check pipeline, an `estimate` call; `ops_per_s` counts its unit
/// of work (sessions, system points, trials).
///
/// The bounds are what this 2-vCPU shared sandbox can hold: ten runs of
/// one commit spread (IQR ÷ median) by 10–20 % on the timing metrics, so
/// nothing tighter than the contract's maximum would be a usable gate.
pub const END_TO_END: [MetricDef; 4] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("ops_per_s", "1/s", Higher, 0.25),
    e2e("op_p50_ms", "ms", Lower, 0.25),
    e2e("peak_rss_mib", "MiB", Lower, 0.15),
];

/// Per-layer metrics, reported by the traced run only.
pub const PER_LAYER: [MetricDef; 51] = [
    layer("core.sampler.sample_us", "us", Lower),
    layer("core.fip.analyze_us", "us", Lower),
    layer("core.corpus.parse_us", "us", Lower),
    layer("sim.run.basic_n16_us", "us", Lower),
    layer("sim.run.fip_n8_us", "us", Lower),
    layer("sim.check_eba_us", "us", Lower),
    layer("sim.enumerate.fip_so_s", "s", Lower),
    layer("sim.enumerate.basic_go_s", "s", Lower),
    layer("sim.enumerate.basic_go_share", "ratio", Higher),
    layer("sim.enumerate.fip_so_runs", "count", Lower),
    layer("sim.enumerate.basic_go_runs", "count", Lower),
    layer("sim.store.intern_s", "s", Lower),
    layer("sim.store.distinct_share", "ratio", Lower),
    layer("epistemic.classes_s", "s", Lower),
    layer("epistemic.plan_compile_us", "us", Lower),
    layer("epistemic.battery_eval_s", "s", Lower),
    layer("epistemic.spec_check_s", "s", Lower),
    layer("epistemic.implements_s", "s", Lower),
    layer("epistemic.battery_nodes_evaluated", "count", Lower),
    layer("epistemic.battery_nodes_naive", "count", Lower),
    layer("epistemic.implements_comparisons", "count", Lower),
    layer("transport.fip.encode_us", "us", Lower),
    layer("transport.fip.decode_us", "us", Lower),
    layer("transport.fip.frame_bytes", "count", Lower),
    layer("transport.basic.roundtrip_ns", "ns", Lower),
    layer("transport.cluster.session_us", "us", Lower),
    layer("service.build_engine_us.mixed_n3", "us", Lower),
    layer("service.build_engine_us.fip_n8", "us", Lower),
    layer("service.engine_session_us.mixed_n3", "us", Lower),
    layer("service.engine_session_us.fip_n8", "us", Lower),
    layer("service.runtime_share.mixed_n3", "ratio", Lower),
    layer("service.runtime_share.fip_n8", "ratio", Lower),
    layer("service.session_p99_ms.mixed_n3", "ms", Lower),
    layer("service.session_p99_ms.fip_n8", "ms", Lower),
    layer("service.solo_session_us", "us", Lower),
    layer("service.table.insert_remove_ns", "ns", Lower),
    layer("service.deferrals", "count", Lower),
    layer("service.peak_in_flight", "count", Higher),
    layer("service.frames_sent", "count", Lower),
    layer("service.frames_dropped", "count", Lower),
    layer("exec.spawn_join_ns", "ns", Lower),
    layer("exec.mailbox.pingpong_ns", "ns", Lower),
    layer("exec.mailbox.batch_msg_ns", "ns", Lower),
    layer("exec.mailbox.mean_batch", "count", Higher),
    layer("exec.timeout.ready_ns", "ns", Lower),
    layer("stat.judge_case_us.basic_n16", "us", Lower),
    layer("stat.trials_per_s.seq", "1/s", Higher),
    layer("stat.scaling_efficiency", "ratio", Higher),
    layer("workload.iteration_s", "s", Lower),
    layer("workload.traced_iteration_s", "s", Lower),
    layer("trace_overhead_share", "ratio", Lower),
];
