//! The comparisons the exhaustive agreement suites share. The table of
//! what "agree" means, and which test checks each line of it, heads
//! `tests/engines_agree.rs`; the suites that build small systems inline
//! (`run_store_equivalence`, `query_engine_equivalence`,
//! `parallel_enumeration`) read the same functions from here, so every
//! system is compared in one way wherever it is built. `exhaustive_correctness`
//! and `engines_agree` judge runs with the same two judges ([`both_judges`]).

// Each test binary uses its own subset of these helpers.
#![allow(dead_code)]

use eba::core::exchange::InformationExchange;
use eba::core::kbp::KnowledgeBasedProgram;
use eba::core::protocols::ActionProtocol;
use eba::core::types::EbaError;
use eba::epistemic::oracle;
use eba::epistemic::prelude::*;
use eba::prelude::*;

/// The run budget of every system built here.
pub const LIMIT: usize = 10_000_000;

/// The sequential stream of `ctx` at `horizon`, collected.
pub fn collect<E, P>(ctx: &Context<E, P>, horizon: u32) -> Vec<EnumRun<E>>
where
    E: InformationExchange + Sync,
    P: ActionProtocol<E> + Sync,
{
    Scenario::of(ctx)
        .horizon(horizon)
        .enumerate()
        .expect("enumerable")
}

/// Asserts that the stream of `ctx` at `horizon` under `Fixed(k)`, for
/// each `k` in `workers`, is `runs` run by run, in order.
pub fn assert_streams_equal<E, P>(
    ctx: &Context<E, P>,
    horizon: u32,
    runs: &[EnumRun<E>],
    workers: &[usize],
) where
    E: InformationExchange + Sync,
    P: ActionProtocol<E> + Sync,
{
    let label = ctx.qualified_name();
    for &k in workers {
        let mut next = 0;
        let total = Scenario::of(ctx)
            .horizon(horizon)
            .parallelism(Parallelism::Fixed(k))
            .enumerate_into(&mut |run: EnumRun<E>| {
                let at = || format!("{label} h={horizon}, {k} workers, run {next}");
                let reference = runs.get(next).unwrap_or_else(|| panic!("{}: extra", at()));
                assert_eq!(run.nonfaulty, reference.nonfaulty, "{}", at());
                assert_eq!(run.inits, reference.inits, "{}", at());
                assert_eq!(run.states, reference.states, "{}", at());
                assert_eq!(run.actions, reference.actions, "{}", at());
                next += 1;
                Ok(())
            })
            .expect("parallel stream");
        assert_eq!(
            (total, next),
            (runs.len(), runs.len()),
            "{label} h={horizon}, {k} workers"
        );
    }
}

/// Checks the four EBA properties plus strong Validity and the `t + 2`
/// bound directly on an enumerated run: a judge written out here,
/// independently of `judge_run`.
pub fn check_enum_run<E: InformationExchange>(ex: &E, run: &EnumRun<E>) -> Result<(), String> {
    let n = ex.params().n();
    let bound = ex.params().decide_by_round();
    let final_states = run.states.last().unwrap();

    for i in 0..n {
        let agent = AgentId::new(i);
        // Unique decision: at most one Decide action.
        let decisions: Vec<(usize, Value)> = run
            .actions
            .iter()
            .enumerate()
            .filter_map(|(m, acts)| acts[i].decided_value().map(|v| (m, v)))
            .collect();
        if decisions.len() > 1 {
            return Err(format!("{agent} decided twice: {decisions:?}"));
        }
        // Termination within t + 2 — for every agent (Prop 6.1).
        match decisions.first() {
            None => return Err(format!("{agent} never decided")),
            Some((m, _)) if *m as u32 + 1 > bound => {
                return Err(format!("{agent} decided in round {} > {bound}", m + 1));
            }
            _ => {}
        }
        // Strong validity.
        if let Some(v) = ex.decided(&final_states[i]) {
            if !run.inits.contains(&v) {
                return Err(format!("{agent} decided unheld value {v}"));
            }
        }
    }
    // Agreement among nonfaulty agents.
    let mut nonfaulty_values = run
        .nonfaulty
        .iter()
        .filter_map(|a| ex.decided(&final_states[a.index()]));
    if let Some(first) = nonfaulty_values.next() {
        if nonfaulty_values.any(|v| v != first) {
            return Err(format!(
                "nonfaulty agents disagree in run with N = {}",
                run.nonfaulty
            ));
        }
    }
    Ok(())
}

/// Both judges' verdict on one run, the first rejection named.
pub fn both_judges<E: InformationExchange>(ex: &E, run: &EnumRun<E>) -> Result<(), EbaError> {
    check_enum_run(ex, run).map_err(EbaError::InvalidInput)?;
    judge_run(ex, run.nonfaulty, &run.inits, &run.states, &run.actions)
        .map_err(|v| EbaError::InvalidInput(format!("judge_run: {v}")))
}

/// The standard battery compiled into one plan.
pub struct Battery {
    pub formulas: Vec<Formula>,
    pub arena: FormulaArena,
    pub roots: Vec<NodeId>,
    pub plan: QueryPlan,
}

impl Battery {
    pub fn new(n: usize) -> Battery {
        let formulas = standard_battery(n);
        let mut arena = FormulaArena::new();
        let roots: Vec<NodeId> = formulas.iter().map(|f| arena.intern(f)).collect();
        let plan = QueryPlan::new(&arena, &roots);
        Battery {
            formulas,
            arena,
            roots,
            plan,
        }
    }

    pub fn evaluate<'s, E: InformationExchange>(
        &self,
        sys: &'s InterpretedSystem<E>,
    ) -> EvalSession<'s, E> {
        EvalSession::evaluate(sys, &self.arena, &self.plan)
    }
}

/// The node store, the chain system and the raw trajectories they were
/// built from must agree on everything observable (the table's first
/// three lines). Returns the node store's `P0` and `P1` reports.
pub fn agree<E, P>(
    label: &str,
    protocol: &P,
    runs: &[EnumRun<E>],
    nodes: &InterpretedSystem<E>,
    chains: &InterpretedSystem<E>,
) -> [ImplementsReport; 2]
where
    E: InformationExchange + Sync,
    P: ActionProtocol<E> + Sync,
{
    // The implements reports take longest (on the chain system above
    // all), so they run on a thread of their own beside the rest.
    std::thread::scope(|scope| {
        let reports = scope.spawn(|| {
            [KnowledgeBasedProgram::P0, KnowledgeBasedProgram::P1].map(|program| {
                let a = check_implements(nodes, protocol, program);
                let b = check_implements(chains, protocol, program);
                let name = program.name();
                assert_eq!(a.comparisons, b.comparisons, "{label}: {name}");
                assert_eq!(a.mismatches, b.mismatches, "{label}: {name}");
                a
            })
        });
        agree_on_runs_and_queries(label, runs, nodes, chains);
        reports
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    })
}

/// Everything [`agree`] compares but the implements reports.
fn agree_on_runs_and_queries<E: InformationExchange>(
    label: &str,
    runs: &[EnumRun<E>],
    nodes: &InterpretedSystem<E>,
    chains: &InterpretedSystem<E>,
) {
    let (n, horizon) = (nodes.params().n(), nodes.horizon());

    // The node store against the raw trajectories: a path that bypasses
    // the store code both systems share, so interning bugs cannot cancel
    // out.
    assert_eq!(nodes.run_count(), runs.len(), "{label}: runs");
    for (r, run) in runs.iter().enumerate() {
        assert_eq!(nodes.nonfaulty(r), run.nonfaulty, "{label}: run {r}");
        assert_eq!(nodes.inits(r), &run.inits[..], "{label}: run {r}");
        for m in 0..=horizon {
            let point = nodes.point(r, m);
            for agent in AgentId::all(n) {
                let (time, i) = (m as usize, agent.index());
                let state = nodes.local_state(point, agent);
                let action = (m < horizon).then(|| run.actions[time][i]);
                let at = || format!("{label}: run {r} time {m} {agent}");
                assert_eq!(state, &run.states[time][i], "{}", at());
                assert_eq!(nodes.action_at(point, agent), action, "{}", at());
            }
        }
    }

    // The streamed store against the pushed one: the same ids, interned
    // in the same arena order, at every slot, and the same runs.
    let (streamed, pushed) = (nodes.store(), chains.store());
    assert_eq!(streamed.run_count(), pushed.run_count(), "{label}: runs");
    assert_eq!(nodes.point_count(), chains.point_count(), "{label}: points");
    assert_eq!(
        streamed.arena().states(),
        pushed.arena().states(),
        "{label}: arena order"
    );
    for agent in 0..n {
        for point in 0..pushed.point_count() {
            assert_eq!(
                streamed.state_id(agent, point),
                pushed.state_id(agent, point),
                "{label}: agent {agent} point {point}"
            );
        }
    }
    for run in 0..pushed.run_count() {
        assert_eq!(streamed.nonfaulty(run), pushed.nonfaulty(run), "{label}");
        assert_eq!(streamed.inits(run), pushed.inits(run), "{label}");
        for round in 0..horizon {
            for agent in 0..n {
                assert_eq!(
                    streamed.action(run, round, agent),
                    pushed.action(run, round, agent),
                    "{label}: run {run} round {round} agent {agent}"
                );
            }
        }
    }
    assert!(streamed.node_count() <= pushed.node_count(), "{label}");
    assert_eq!(pushed.node_count(), chains.point_count(), "{label}");

    // The node store against the chain system, as point sets.
    for agent in AgentId::all(n) {
        let (a, b) = (nodes.class_partition(agent), chains.class_partition(agent));
        assert_eq!(a, b, "{label}: {agent}'s classes");
    }
    let battery = Battery::new(n);
    let (a, b) = (battery.evaluate(nodes), battery.evaluate(chains));
    for (f, root) in battery.formulas.iter().zip(&battery.roots) {
        assert_eq!(a.bitset(*root), b.bitset(*root), "{label}: {f:?}");
        assert_eq!(a.verdict(*root), b.verdict(*root), "{label}: {f:?}");
    }
    let spec = |sys: &InterpretedSystem<E>| {
        let verdicts = check_spec(sys).into_iter();
        verdicts
            .map(|v| (v.property, v.run, v.time, v.oracle_confirmed))
            .collect::<Vec<_>>()
    };
    assert_eq!(spec(nodes), spec(chains), "{label}: spec");
}

/// The batched query engine against the recursive evaluator on the
/// standard battery: equal point sets and verdicts, and every failing
/// verdict's witness confirmed by the recursion.
pub fn engine_equals_recursion<E: InformationExchange>(label: &str, sys: &InterpretedSystem<E>) {
    let battery = Battery::new(sys.params().n());
    let session = battery.evaluate(sys);
    for (f, root) in battery.formulas.iter().zip(&battery.roots) {
        let oracle = sys.eval_recursive(f);
        assert_eq!(session.bitset(*root), oracle, "{label}: {f:?}");

        let verdict = session.verdict(*root);
        assert_eq!(
            verdict.holds,
            oracle.count() == sys.point_count(),
            "{label}: {f:?}"
        );
        assert_eq!(verdict.holds, sys.valid(f), "{label}: {f:?}");
        match verdict.counterexample {
            None => assert!(verdict.holds, "{label}: {f:?}"),
            Some((run, time)) => {
                assert!(run < sys.run_count() && time <= sys.horizon(), "{label}");
                // `satisfied_at`, on the recursion's point set at hand.
                assert!(
                    !oracle.contains(sys.point(run, time) as usize),
                    "{label}: unconfirmed witness (run {run}, time {time}) for {f:?}"
                );
            }
        }
    }

    // The one-formula wrappers ride the same engine; spot-check them on
    // the operators with the most machinery (knowledge, fixpoints,
    // temporal). `P1`'s two guard bodies hold 2·C(n, t) `C_N` towers
    // between them.
    let params = sys.params();
    for f in [
        Formula::common_nonfaulty(Formula::ExistsInit(Value::Zero)),
        Formula::common_nonfaulty(Formula::ExistsInit(Value::One)),
        ck_guard(params, Value::Zero),
        ck_guard(params, Value::One),
        Formula::knows(
            AgentId::new(0),
            Formula::Eventually(Box::new(Formula::not(Formula::DecidedIs(
                AgentId::new(1),
                None,
            )))),
        ),
    ] {
        assert_eq!(sys.eval(&f), sys.eval_recursive(&f), "{label}: {f:?}");
    }

    // Hash-consing must actually fire across the battery.
    let plan = &battery.plan;
    assert!(
        plan.evaluated_node_count() < plan.naive_node_count(),
        "{label}: {} nodes batched vs {} naive",
        plan.evaluated_node_count(),
        plan.naive_node_count()
    );
}

/// One system of the sweep: a registry name, its parameters, a horizon.
pub struct System {
    pub name: String,
    pub params: Params,
    pub horizon: u32,
}

/// Every (3, 1) registry system at horizons 2 to 4 — `E_fip` at 2, and
/// at 4 under `failure_free` and `crash` (`E_fip@SO` at 4 is
/// `engines_agree`'s fixture; `E_fip@GO` at 4 is 25.2M runs) — and
/// `SO(t)` at (4, 1), horizon 4, for the three stacks whose runs a
/// collected vector holds: 45 systems.
pub fn sweep() -> Vec<System> {
    let params = Params::new(3, 1).unwrap();
    let mut systems = Vec::new();
    for base in STACK_NAMES {
        for model in MODEL_NAMES {
            let horizons: &[u32] = match (base, model) {
                ("E_fip/P_opt", "failure_free" | "crash") => &[2, 4],
                ("E_fip/P_opt", _) => &[2],
                _ => &[2, 3, 4],
            };
            for &horizon in horizons {
                let name = format!("{base}@{model}");
                systems.push(System {
                    name,
                    params,
                    horizon,
                });
            }
        }
    }
    let params = Params::new(4, 1).unwrap();
    for base in ["E_min/P_min", "E_basic/P_basic", "E_naive/P_naive"] {
        let (name, horizon) = (base.to_string(), params.default_horizon());
        systems.push(System {
            name,
            params,
            horizon,
        });
    }
    systems
}

/// Runs `check` on the `k`-th system for every `k`, the systems spread
/// over every core.
pub fn check_each(systems: &[System], check: impl Fn(usize, &System) + Sync) {
    let done =
        Parallelism::Auto.for_each_ordered(systems.len(), |k| check(k, &systems[k]), Ok::<_, ()>);
    done.unwrap();
}

/// Builds one system three ways — collected, node store on `workers`
/// workers, chain system over the collected runs — and [`agree`]s them.
pub struct ThreeBuilds {
    pub horizon: u32,
    pub workers: usize,
}

impl StackVisitor for ThreeBuilds {
    type Output = ();

    fn visit<E, P>(self, ctx: &Context<E, P>)
    where
        E: InformationExchange + Clone + Sync + 'static,
        P: ActionProtocol<E> + Clone + Sync + 'static,
    {
        let (horizon, workers) = (self.horizon, self.workers);
        let label = format!("{} h={horizon} w={workers}", ctx.qualified_name());
        let runs = collect(ctx, horizon);
        let parallelism = Parallelism::Fixed(workers);
        let nodes = InterpretedSystem::from_context(ctx.clone(), horizon, LIMIT, parallelism)
            .expect("node store");
        let chains = oracle::from_runs(ctx.exchange().clone(), &runs, horizon).expect("chains");
        agree(&label, ctx.protocol(), &runs, &nodes, &chains);
    }
}
