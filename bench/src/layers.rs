//! The per-layer probe suite of the traced run.
//!
//! Every probe calls one layer's public functions from here, inside a
//! span named after the layer, on inputs generated from the seed. The
//! suite is the same for every workload, so every per-layer metric is
//! measured in every traced run; the service and model-check probes are
//! reduced copies of the end-to-end workloads (same generator, same
//! capacity, fewer sessions; sequential instead of threaded), so their
//! numbers line up with the workload they are named after.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use eba_core::prelude::*;
use eba_service::{SessionEngine, SessionSpec, SessionTable};
use eba_sim::prelude::*;
use eba_stat::prelude::{estimate, judge_case, SampleScheme, TrialPlan};
use eba_transport::{run_named_cluster, BasicCodec, FipCodec, WireCodec};
use exec::{block_on, mailbox, timeout, Executor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::run::{service_iteration, Counts, Pipeline, Threads};
use crate::span::{total_seconds, Span, Tracer};
use crate::stats::percentile;
use crate::workloads::{fip_n8_specs, mixed_n3_specs, random_inits, FIP_CAPACITY, MIXED_CAPACITY};

/// Sessions in the service probes: a quarter of each workload's batch.
const MIXED_PROBE_SESSIONS: usize = 65_536;
const FIP_PROBE_SESSIONS: usize = 4_096;
/// Trials in the estimator probes.
const STAT_PROBE_TRIALS: u64 = 32_768;

type ProbeResult = Result<(), String>;

fn err(e: EbaError) -> String {
    e.to_string()
}

/// The probe suite: runs each layer's probes and collects metric values
/// by name.
pub struct Layers<'a> {
    pub seed: u64,
    pub threads: Threads,
    pub tracer: &'a Tracer,
    pub metrics: BTreeMap<&'static str, f64>,
}

/// A sampled `(pattern, inits)` case.
type Case = (FailurePattern, Vec<Value>);

impl Layers<'_> {
    /// Runs `op` `reps` times inside one span; returns seconds per call.
    fn per_op(&self, span: &str, reps: usize, mut op: impl FnMut(usize)) -> f64 {
        let t0 = Instant::now();
        self.tracer.span(span, || (0..reps).for_each(&mut op));
        t0.elapsed().as_secs_f64() / reps as f64
    }

    fn timed<T>(&self, span: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let t0 = Instant::now();
        let out = self.tracer.span(span, f);
        (out, t0.elapsed().as_secs_f64())
    }

    fn put(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    fn rng(&self, salt: u64) -> StdRng {
        StdRng::seed_from_u64(self.seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    fn cases(&self, params: Params, model: FailureModel, count: usize, salt: u64) -> Vec<Case> {
        let mut rng = self.rng(salt);
        let sampler = AdversarySampler::new(model, params, params.default_horizon(), 0.25);
        (0..count)
            .map(|_| {
                let pattern = sampler.sample(&mut rng);
                (pattern, random_inits(&mut rng, params.n()))
            })
            .collect()
    }

    /// Runs every layer's probes.
    pub fn run_all(&mut self) -> ProbeResult {
        self.core_and_transport_codecs()?;
        self.sim_and_stat_runs()?;
        self.modelcheck_stages()?;
        self.service()?;
        self.exec();
        self.stat_estimator()
    }

    /// `core` sampler/analysis/parser probes, and the `transport` codec
    /// probes that share their `(8, 3)` silent-faulty run.
    fn core_and_transport_codecs(&mut self) -> ProbeResult {
        let n16 = Params::new(16, 4).map_err(err)?;
        let sampler = AdversarySampler::new(
            FailureModel::GeneralOmission,
            n16,
            n16.default_horizon(),
            0.25,
        );
        let mut rng = self.rng(1);
        let s = self.per_op("core.sampler.sample", 20_000, |_| {
            black_box(sampler.sample(&mut rng));
        });
        self.put("core.sampler.sample_us", s * 1e6);

        let n8 = Params::new(8, 3).map_err(err)?;
        let ctx = Context::fip(n8);
        let horizon = n8.default_horizon();
        let faulty: AgentSet = (0..3).map(AgentId::new).collect();
        let pattern = silent_pattern(n8, faulty, horizon).map_err(err)?;
        let inits: Vec<Value> = (0..8).map(|i| Value::from_bit((i % 2) as u8)).collect();
        let trace = Scenario::of(&ctx)
            .pattern(pattern)
            .inits(&inits)
            .run()
            .map_err(err)?;
        let owner = AgentId::new(7);
        let graph = &trace.final_state(owner).graph;
        let s = self.per_op("core.fip.analyze", 200, |_| {
            black_box(FipAnalysis::analyze(graph, n8, owner).owner_action());
        });
        self.put("core.fip.analyze_us", s * 1e6);

        let corpus = Path::new(env!("CARGO_MANIFEST_DIR")).join("../corpus");
        let mut texts = Vec::new();
        for entry in std::fs::read_dir(&corpus).map_err(|e| format!("{}: {e}", corpus.display()))? {
            let path = entry.map_err(|e| e.to_string())?.path();
            if path.extension().is_some_and(|ext| ext == "eba") {
                texts.push(std::fs::read_to_string(&path).map_err(|e| e.to_string())?);
            }
        }
        if texts.is_empty() {
            return Err(format!("{}: no .eba files", corpus.display()));
        }
        let mut parse_failures = 0;
        let s = self.per_op("core.corpus.parse", 500 * texts.len(), |k| {
            parse_failures += usize::from(parse_scenario(&texts[k % texts.len()]).is_err());
        });
        if parse_failures > 0 {
            return Err("a committed corpus file failed to parse".into());
        }
        self.put("core.corpus.parse_us", s * 1e6);

        // The round-3 message of a nonfaulty agent: its time-2 graph.
        let msg = FipMsg(trace.states[2][owner.index()].graph.clone());
        let frame = FipCodec.encode(&msg);
        if FipCodec.decode(&frame) != msg {
            return Err("FipCodec round trip changed the message".into());
        }
        let s = self.per_op("transport.fip.encode", 2_000, |_| {
            black_box(FipCodec.encode(black_box(&msg)));
        });
        self.put("transport.fip.encode_us", s * 1e6);
        let s = self.per_op("transport.fip.decode", 2_000, |_| {
            black_box(FipCodec.decode(black_box(&frame)));
        });
        self.put("transport.fip.decode_us", s * 1e6);
        self.put("transport.fip.frame_bytes", frame.len() as f64);
        let basic = BasicMsg::Decide(Value::One);
        let s = self.per_op("transport.basic.roundtrip", 1_000_000, |_| {
            black_box(BasicCodec.decode(&BasicCodec.encode(black_box(&basic))));
        });
        self.put("transport.basic.roundtrip_ns", s * 1e9);
        Ok(())
    }

    /// Single lockstep runs, the trace-level spec judge, and the
    /// estimator's per-case judge — lower bounds on a trial's cost.
    fn sim_and_stat_runs(&mut self) -> ProbeResult {
        let n16 = Params::new(16, 4).map_err(err)?;
        let basic = Context::basic(n16);
        let cases = self.cases(n16, FailureModel::SendingOmission, 256, 2);
        let mut traces = Vec::with_capacity(cases.len());
        let mut failure = None;
        let s = self.per_op("sim.run.basic_n16", 4 * cases.len(), |k| {
            let (pattern, inits) = &cases[k % cases.len()];
            match Scenario::of(&basic)
                .pattern(pattern.clone())
                .inits(inits)
                .run()
            {
                Ok(trace) if k < cases.len() => traces.push(trace),
                Ok(_) => {}
                Err(e) => failure = Some(err(e)),
            }
        });
        if let Some(e) = failure {
            return Err(e);
        }
        self.put("sim.run.basic_n16_us", s * 1e6);
        let mut violations = 0;
        let s = self.per_op("sim.check_eba", 16 * traces.len(), |k| {
            violations +=
                usize::from(check_eba(basic.exchange(), &traces[k % traces.len()]).is_err());
        });
        if violations > 0 {
            return Err("E_basic/P_basic violated EBA on a sampled run".into());
        }
        self.put("sim.check_eba_us", s * 1e6);
        let horizon = n16.default_horizon();
        let s = self.per_op("stat.judge_case", 4 * cases.len(), |k| {
            let (pattern, inits) = &cases[k % cases.len()];
            violations += usize::from(!matches!(
                judge_case(&basic, pattern, inits, horizon),
                Ok(None)
            ));
        });
        if violations > 0 {
            return Err("judge_case flagged a sampled E_basic/P_basic run".into());
        }
        self.put("stat.judge_case_us.basic_n16", s * 1e6);

        let n8 = Params::new(8, 3).map_err(err)?;
        let fip = Context::fip(n8);
        let cases = self.cases(n8, FailureModel::SendingOmission, 32, 3);
        let s = self.per_op("sim.run.fip_n8", cases.len(), |k| {
            let (pattern, inits) = &cases[k];
            violations += usize::from(
                Scenario::of(&fip)
                    .pattern(pattern.clone())
                    .inits(inits)
                    .run()
                    .is_err(),
            );
        });
        if violations > 0 {
            return Err("a sampled E_fip/P_opt run failed".into());
        }
        self.put("sim.run.fip_n8_us", s * 1e6);
        Ok(())
    }

    /// The model-check pipeline stage by stage, sequentially: a counting
    /// sink isolates the enumerator, the rest comes from the pipeline's
    /// own stage spans.
    fn modelcheck_stages(&mut self) -> ProbeResult {
        let n3 = Params::new(3, 1).map_err(err)?;
        let horizon = 4;

        let fip = Context::fip(n3);
        let (runs, enumerate_s) = self.timed("sim.enumerate.fip_so", || {
            Scenario::of(&fip)
                .horizon(horizon)
                .enumerate_into(&mut |_run: EnumRun<FipExchange>| Ok(()))
        });
        self.put("sim.enumerate.fip_so_s", enumerate_s);
        self.put("sim.enumerate.fip_so_runs", runs.map_err(err)? as f64);
        let stages = self.sequential_pipeline("E_fip/P_opt@sending_omission", n3, horizon)?;
        let counts = &stages.counts;
        self.put(
            "sim.store.intern_s",
            stages.seconds("sim.enumerate_store") - enumerate_s,
        );
        self.put(
            "sim.store.distinct_share",
            counts["distinct_states"] as f64 / (n3.n() as u64 * counts["points"]) as f64,
        );
        self.put("epistemic.classes_s", stages.seconds("epistemic.classes"));
        self.put(
            "epistemic.plan_compile_us",
            stages.seconds("epistemic.plan_compile") * 1e6,
        );
        self.put(
            "epistemic.battery_eval_s",
            stages.seconds("epistemic.battery_eval"),
        );
        self.put(
            "epistemic.spec_check_s",
            stages.seconds("epistemic.spec_check"),
        );
        self.put(
            "epistemic.implements_s",
            stages.seconds("epistemic.implements"),
        );
        self.put(
            "epistemic.battery_nodes_evaluated",
            counts["battery_nodes_evaluated"] as f64,
        );
        self.put(
            "epistemic.battery_nodes_naive",
            counts["battery_nodes_naive"] as f64,
        );
        self.put(
            "epistemic.implements_comparisons",
            counts["implements_comparisons"] as f64,
        );

        let basic = Context::basic(n3).with_model(FailureModel::GeneralOmission);
        let (runs, enumerate_s) = self.timed("sim.enumerate.basic_go", || {
            Scenario::of(&basic)
                .horizon(horizon)
                .enumerate_into(&mut |_run: EnumRun<BasicExchange>| Ok(()))
        });
        self.put("sim.enumerate.basic_go_s", enumerate_s);
        self.put("sim.enumerate.basic_go_runs", runs.map_err(err)? as f64);
        // Both sides from one pipeline run, so the host's fast and slow
        // phases cancel: its enumeration span (interning 39 states is
        // nothing) over the whole pipeline.
        let stages = self.sequential_pipeline("E_basic/P_basic@general_omission", n3, horizon)?;
        self.put(
            "sim.enumerate.basic_go_share",
            stages.seconds("sim.enumerate_store") / stages.seconds("pipeline"),
        );
        Ok(())
    }

    fn sequential_pipeline(
        &self,
        stack: &str,
        params: Params,
        horizon: u32,
    ) -> Result<Stages, String> {
        let stack = NamedStack::by_name(stack, params).map_err(err)?;
        let mark = self.tracer.len();
        let counts = self
            .tracer
            .span("pipeline", || {
                stack.visit(Pipeline {
                    horizon,
                    parallelism: Parallelism::Sequential,
                    tracer: self.tracer,
                })
            })
            .map_err(err)?;
        Ok(Stages {
            spans: self.tracer.spans_since(mark),
            counts,
        })
    }

    /// Engine compile and step cost without the runtime, then the same
    /// sessions through the runtime: what is left over is the runtime's.
    fn service(&mut self) -> ProbeResult {
        let workers = self.threads.service_workers();
        let mixed = mixed_n3_specs(self.seed, MIXED_PROBE_SESSIONS);
        let fip = fip_n8_specs(self.seed, FIP_PROBE_SESSIONS);

        let (build, session) = self.engine_costs("mixed_n3", &mixed[..8_192])?;
        self.put("service.build_engine_us.mixed_n3", build * 1e6);
        self.put("service.engine_session_us.mixed_n3", session * 1e6);
        let it = service_iteration(&mixed, MIXED_CAPACITY, workers, self.tracer).map_err(err)?;
        if it.failed > 0 {
            return Err("a mixed_n3 probe session did not decide".into());
        }
        self.put(
            "service.runtime_share.mixed_n3",
            1.0 - mixed.len() as f64 * session / (workers as f64 * it.wall_s),
        );
        self.put(
            "service.session_p99_ms.mixed_n3",
            percentile(&it.latencies_s, 0.99) * 1e3,
        );
        self.put("service.deferrals", it.counts["deferrals"] as f64);
        self.put("service.peak_in_flight", it.counts["peak_in_flight"] as f64);
        self.put("service.frames_sent", it.counts["frames_sent"] as f64);
        self.put("service.frames_dropped", it.counts["frames_dropped"] as f64);

        let (build, session) = self.engine_costs("fip_n8", &fip[..2_048])?;
        self.put("service.build_engine_us.fip_n8", build * 1e6);
        self.put("service.engine_session_us.fip_n8", session * 1e6);
        let it = service_iteration(&fip, FIP_CAPACITY, workers, self.tracer).map_err(err)?;
        if it.failed > 0 {
            return Err("a fip_n8 probe session did not decide".into());
        }
        self.put(
            "service.runtime_share.fip_n8",
            1.0 - fip.len() as f64 * session / (workers as f64 * it.wall_s),
        );
        self.put(
            "service.session_p99_ms.fip_n8",
            percentile(&it.latencies_s, 0.99) * 1e3,
        );

        // Capacity 1: one session at a time, so its wall time is the
        // un-queued round trip through executor, router and mailboxes.
        let solo = &mixed[..2_048];
        let it = self
            .tracer
            .span("service.solo", || {
                service_iteration(solo, 1, workers, self.tracer)
            })
            .map_err(err)?;
        self.put(
            "service.solo_session_us",
            it.wall_s / solo.len() as f64 * 1e6,
        );

        let mut table: SessionTable<usize> = SessionTable::with_capacity(MIXED_CAPACITY);
        let mut ids: Vec<_> = (0..MIXED_CAPACITY)
            .map(|i| table.insert(i).expect("room"))
            .collect();
        let s = self.per_op("service.table.insert_remove", 2_000_000, |k| {
            let slot = k % MIXED_CAPACITY;
            table.remove(ids[slot]);
            ids[slot] = table.insert(k).expect("a slot was just freed");
        });
        black_box(&table);
        self.put("service.table.insert_remove_ns", s * 1e9);

        let cluster = &mixed[..256];
        let mut failure = None;
        let s = self.per_op("transport.cluster.session", cluster.len(), |k| {
            let spec = &cluster[k];
            let outcome = NamedStack::by_name(&spec.stack, spec.params).and_then(|stack| {
                run_named_cluster(&stack, &spec.pattern, &spec.inits, spec.horizon)
            });
            if let Err(e) = outcome {
                failure = Some(err(e));
            }
        });
        if let Some(e) = failure {
            return Err(e);
        }
        self.put("transport.cluster.session_us", s * 1e6);
        Ok(())
    }

    /// `(build_engine, drive-to-horizon)` seconds per session over
    /// `specs`, with omissions applied by hand as the router would.
    fn engine_costs(&self, tag: &str, specs: &[SessionSpec]) -> Result<(f64, f64), String> {
        let mut engines: Vec<Box<dyn SessionEngine>> = Vec::with_capacity(specs.len());
        let mut failure = None;
        let build = self.per_op(
            &format!("service.build_engine.{tag}"),
            specs.len(),
            |k| match specs[k].build_engine() {
                Ok(engine) => engines.push(engine),
                Err(e) => failure = Some(err(e)),
            },
        );
        if let Some(e) = failure {
            return Err(e);
        }
        let session = self.per_op(&format!("service.engine_session.{tag}"), specs.len(), |k| {
            let (engine, pattern) = (&mut engines[k], &specs[k].pattern);
            while !engine.finished() {
                let round = engine.round();
                let mut frames = engine.outgoing();
                for (from, row) in frames.iter_mut().enumerate() {
                    for (to, frame) in row.iter_mut().enumerate() {
                        if !pattern.delivers(round, AgentId::new(from), AgentId::new(to)) {
                            *frame = None;
                        }
                    }
                }
                engine.deliver(frames);
            }
        });
        Ok((build, session))
    }

    /// The runtime's primitives on their own: task spawn/join, mailbox
    /// round trips and batch drains, and a timeout around a ready future.
    fn exec(&mut self) {
        let pool = Executor::new(self.threads.service_workers());
        let s = self.per_op("exec.spawn_join", 20_000, |k| {
            black_box(block_on(pool.spawn(async move { k })));
        });
        self.put("exec.spawn_join_ns", s * 1e9);

        let (ping_tx, mut ping_rx) = mailbox::<usize>(1);
        let (pong_tx, mut pong_rx) = mailbox::<usize>(1);
        let echo = pool.spawn(async move {
            while let Some(k) = ping_rx.recv().await {
                if pong_tx.send(k).await.is_err() {
                    break;
                }
            }
        });
        let s = self.per_op("exec.mailbox.pingpong", 20_000, |k| {
            block_on(async {
                ping_tx.send(k).await.expect("echo task is alive");
                black_box(pong_rx.recv().await);
            });
        });
        drop(ping_tx);
        block_on(echo);
        self.put("exec.mailbox.pingpong_ns", s * 1e9);

        const MESSAGES: usize = 400_000;
        let (tx, mut rx) = mailbox::<usize>(256);
        let producer = pool.spawn(async move {
            for k in 0..MESSAGES {
                if tx.send(k).await.is_err() {
                    break;
                }
            }
        });
        let (batches, batch_s) = self.timed("exec.mailbox.batch", || {
            block_on(async {
                let mut batches = 0usize;
                loop {
                    let batch = rx.recv_batch().await;
                    if batch.is_empty() {
                        return batches;
                    }
                    batches += 1;
                }
            })
        });
        block_on(producer);
        self.put("exec.mailbox.batch_msg_ns", batch_s / MESSAGES as f64 * 1e9);
        self.put("exec.mailbox.mean_batch", MESSAGES as f64 / batches as f64);

        let s = self.per_op("exec.timeout.ready", 200_000, |k| {
            black_box(block_on(timeout(
                Duration::from_secs(1),
                std::future::ready(k),
            )))
            .ok();
        });
        self.put("exec.timeout.ready_ns", s * 1e9);
    }

    /// Sequential estimator rate, and how much of `threads` × that rate
    /// the block-sharded estimator actually reaches.
    fn stat_estimator(&mut self) -> ProbeResult {
        let params = Params::new(16, 4).map_err(err)?;
        let stack = NamedStack::by_name("E_basic/P_basic", params).map_err(err)?;
        let plan = TrialPlan {
            trials: STAT_PROBE_TRIALS,
            seed: self.rng(4).random(),
            confidence: 0.95,
            horizon: params.default_horizon(),
            scheme: SampleScheme::Stratified,
        };
        let (seq, seq_s) = self.timed("stat.estimate.seq", || {
            estimate(&stack, &plan, Parallelism::Sequential)
        });
        let (par, par_s) = self.timed("stat.estimate.threads", || {
            estimate(&stack, &plan, self.threads.parallelism())
        });
        let (seq, par) = (seq.map_err(err)?, par.map_err(err)?);
        if seq.violations != 0 || par.violations != seq.violations {
            return Err("the estimator found violations of a correct stack".into());
        }
        let seq_rate = plan.trials as f64 / seq_s;
        self.put("stat.trials_per_s.seq", seq_rate);
        self.put(
            "stat.scaling_efficiency",
            plan.trials as f64 / par_s / (self.threads.threads as f64 * seq_rate),
        );
        Ok(())
    }
}

/// The spans and counts of one sequential pipeline.
struct Stages {
    spans: Vec<Span>,
    counts: Counts,
}

impl Stages {
    fn seconds(&self, name: &str) -> f64 {
        total_seconds(&self.spans, name)
    }
}
