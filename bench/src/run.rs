//! One timed iteration of each workload kind, with the counts its output
//! check compares against `expect/<workload>.json`.

use std::collections::BTreeMap;
use std::time::Instant;

use eba_core::kbp::KnowledgeBasedProgram;
use eba_core::prelude::*;
use eba_epistemic::prelude::*;
use eba_service::{run_service, ServiceConfig, ServiceReport, SessionSpec};
use eba_sim::prelude::*;
use eba_stat::prelude::estimate;

use crate::span::Tracer;
use crate::workloads::Inputs;

/// Exact counts read off the layers' public reports, by name.
pub type Counts = BTreeMap<String, u64>;

/// The thread budget, resolved once per process and recorded in every
/// result: results compare only at equal `threads`.
#[derive(Clone, Copy, Debug)]
pub struct Threads {
    pub nproc: usize,
    pub threads: usize,
}

impl Threads {
    pub fn resolve() -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
        Threads {
            nproc,
            threads: nproc.min(4),
        }
    }

    /// Service worker threads: the calling thread is the closed-loop load
    /// generator, so it gets one of the `threads`.
    pub fn service_workers(self) -> usize {
        self.threads.saturating_sub(1).max(1)
    }

    pub fn parallelism(self) -> Parallelism {
        Parallelism::Fixed(self.threads)
    }
}

/// What one iteration did and how long each closed-loop operation took.
pub struct Iteration {
    /// Wall seconds of the iteration's calls into the layers.
    pub wall_s: f64,
    /// Units of work completed (sessions, system points, trials).
    pub ops: u64,
    /// Seconds per operation (session, pipeline, `estimate` call).
    pub latencies_s: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub counts: Counts,
}

fn service_config(workers: usize, capacity: usize, oracle: bool) -> ServiceConfig {
    ServiceConfig {
        workers,
        capacity,
        oracle_stride: oracle.then_some(1),
        ..Default::default()
    }
}

fn service_counts(report: &ServiceReport) -> Counts {
    let traffic = report.total_traffic();
    Counts::from([
        ("admitted".into(), report.admitted as u64),
        ("decided".into(), report.decided_sessions() as u64),
        ("deferrals".into(), report.deferrals),
        ("peak_in_flight".into(), report.peak_in_flight as u64),
        ("frames_sent".into(), traffic.sent),
        ("frames_dropped".into(), traffic.dropped()),
    ])
}

/// Pushes `specs` through the service once; sessions that are not fully
/// decided count as failed.
pub fn service_iteration(
    specs: &[SessionSpec],
    capacity: usize,
    workers: usize,
    tracer: &Tracer,
) -> Result<Iteration, EbaError> {
    let config = service_config(workers, capacity, false);
    let t0 = Instant::now();
    let report = tracer.span("service.run_service", || run_service(specs, &config))?;
    let wall_s = t0.elapsed().as_secs_f64();
    let counts = service_counts(&report);
    Ok(Iteration {
        wall_s,
        ops: report.outcomes.len() as u64,
        latencies_s: report.outcomes.iter().map(|o| o.wall_seconds).collect(),
        attempted: specs.len() as u64,
        failed: (specs.len() - report.decided_sessions()) as u64,
        counts,
    })
}

/// The untimed oracle pass: every `stride`-th spec re-run with each
/// decision vector compared against the lockstep cluster. Returns
/// `(attempted, failed)`.
pub fn service_oracle_pass(
    specs: &[SessionSpec],
    stride: usize,
    capacity: usize,
    workers: usize,
    tracer: &Tracer,
) -> Result<(u64, u64), EbaError> {
    let sample: Vec<SessionSpec> = specs.iter().step_by(stride).cloned().collect();
    let config = service_config(workers, capacity, true);
    let report = tracer.span("transport.oracle_pass", || run_service(&sample, &config))?;
    let undecided = sample.len() - report.decided_sessions();
    Ok((
        report.oracle_checked as u64,
        (undecided + report.oracle_mismatches) as u64,
    ))
}

/// The model-check pipeline on one registry stack: enumerate → intern →
/// classes → spec → battery → implements, each stage in its own span.
pub struct Pipeline<'a> {
    pub horizon: u32,
    pub parallelism: Parallelism,
    pub tracer: &'a Tracer,
}

impl StackVisitor for Pipeline<'_> {
    type Output = Result<Counts, EbaError>;

    fn visit<E, P>(self, ctx: &Context<E, P>) -> Self::Output
    where
        E: InformationExchange + Clone + Sync + 'static,
        P: ActionProtocol<E> + Clone + Sync + 'static,
    {
        let tracer = self.tracer;
        let n = ctx.params().n();
        let store = tracer.span("sim.enumerate_store", || {
            Scenario::of(ctx)
                .horizon(self.horizon)
                .parallelism(self.parallelism)
                .enumerate_store()
        })?;
        let sys = tracer.span("epistemic.classes", || {
            InterpretedSystem::from_store(ctx.exchange().clone(), store)
        })?;
        let violations = tracer.span("epistemic.spec_check", || check_spec(&sys));
        let battery = standard_battery(n);
        let (arena, plan) = tracer.span("epistemic.plan_compile", || {
            let mut arena = FormulaArena::new();
            let roots: Vec<NodeId> = battery.iter().map(|f| arena.intern(f)).collect();
            let plan = QueryPlan::new(&arena, &roots);
            (arena, plan)
        });
        let session = tracer.span("epistemic.battery_eval", || {
            EvalSession::evaluate(&sys, &arena, &plan)
        });
        let holds = plan
            .roots()
            .iter()
            .filter(|root| session.verdict(**root).holds)
            .count();
        let implements = tracer.span("epistemic.implements", || {
            check_implements(&sys, ctx.protocol(), KnowledgeBasedProgram::P1)
        });
        Ok(Counts::from([
            ("runs".into(), sys.run_count() as u64),
            ("points".into(), sys.point_count() as u64),
            ("distinct_states".into(), sys.distinct_states() as u64),
            ("spec_violations".into(), violations.len() as u64),
            ("battery_formulas".into(), battery.len() as u64),
            ("battery_holds".into(), holds as u64),
            (
                "battery_nodes_evaluated".into(),
                session.nodes_evaluated() as u64,
            ),
            ("battery_nodes_naive".into(), plan.naive_node_count() as u64),
            (
                "implements_comparisons".into(),
                implements.comparisons as u64,
            ),
            (
                "implements_mismatches".into(),
                implements.mismatches.len() as u64,
            ),
        ]))
    }
}

fn modelcheck_iteration(
    stack: &str,
    params: Params,
    horizon: u32,
    pipelines: usize,
    parallelism: Parallelism,
    tracer: &Tracer,
) -> Result<Iteration, EbaError> {
    let stack = NamedStack::by_name(stack, params)?;
    let mut latencies_s = Vec::with_capacity(pipelines);
    let mut counts = Counts::new();
    let mut failed = 0;
    let t0 = Instant::now();
    for _ in 0..pipelines {
        let t1 = Instant::now();
        let pipeline_counts = tracer.span("pipeline", || {
            stack.visit(Pipeline {
                horizon,
                parallelism,
                tracer,
            })
        })?;
        latencies_s.push(t1.elapsed().as_secs_f64());
        // A pipeline that disagrees with its predecessors is a failure
        // here; disagreement with the pinned counts is caught by the
        // caller's expectation check.
        if !counts.is_empty() && counts != pipeline_counts {
            failed += 1;
        }
        counts = pipeline_counts;
    }
    Ok(Iteration {
        wall_s: t0.elapsed().as_secs_f64(),
        ops: counts["points"] * pipelines as u64,
        latencies_s,
        attempted: pipelines as u64,
        failed,
        counts,
    })
}

/// Runs one timed iteration of `inputs`.
pub fn iterate(inputs: &Inputs, threads: Threads, tracer: &Tracer) -> Result<Iteration, EbaError> {
    match inputs {
        Inputs::Service { specs, capacity } => {
            service_iteration(specs, *capacity, threads.service_workers(), tracer)
        }
        Inputs::Modelcheck {
            stack,
            params,
            horizon,
            pipelines,
        } => modelcheck_iteration(
            stack,
            *params,
            *horizon,
            *pipelines,
            threads.parallelism(),
            tracer,
        ),
        Inputs::Estimate {
            stack,
            params,
            plan,
        } => {
            let stack = NamedStack::by_name(stack, *params)?;
            let t0 = Instant::now();
            let est = tracer.span("stat.estimate", || {
                estimate(&stack, plan, threads.parallelism())
            })?;
            let wall_s = t0.elapsed().as_secs_f64();
            Ok(Iteration {
                wall_s,
                ops: est.trials,
                latencies_s: vec![wall_s],
                attempted: plan.trials,
                failed: est.violations + (plan.trials - est.trials),
                counts: Counts::from([
                    ("trials".into(), est.trials),
                    ("violations".into(), est.violations),
                ]),
            })
        }
    }
}
