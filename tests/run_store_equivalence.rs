//! The interned `RunStore` backbone must be a *refactor*, not a semantic
//! change: for every registered stack, failure model, and horizon, the
//! streamed arena-backed `InterpretedSystem::from_context` produces
//! **bit-for-bit** the same interpreted system as the reference
//! collect-then-classify `oracle::from_runs` path — same run metadata, same
//! indistinguishability-class partition, same `eval` bitsets, same
//! implements-check verdicts — and every arena-resolved state/action is
//! additionally compared against the **raw** collected trajectories, a
//! path that bypasses the storage code the two systems share. The
//! acceptance test at the bottom streams the full ~98k-run `E_fip/P_opt`
//! `(3, 1)` system through the arena and checks Theorem A.21's verdict
//! on it.

use eba::core::exchange::InformationExchange;
use eba::core::kbp::KnowledgeBasedProgram;
use eba::core::protocols::ActionProtocol;
use eba::epistemic::oracle;
use eba::epistemic::prelude::*;
use eba::prelude::*;
use proptest::prelude::*;

/// Builds one stack's system both ways and asserts bit-for-bit equality
/// of everything observable.
struct StoreEqualsLegacy {
    horizon: u32,
    parallelism: Parallelism,
    label: String,
}

impl StackVisitor for StoreEqualsLegacy {
    type Output = ();

    fn visit<E, P>(self, ctx: &Context<E, P>)
    where
        E: InformationExchange + Clone + Sync + 'static,
        P: ActionProtocol<E> + Clone + Sync + 'static,
    {
        let label = &self.label;
        let n = ctx.params().n();

        // Legacy oracle input: collect the run vector.
        let runs: Vec<EnumRun<E>> = Scenario::of(ctx)
            .horizon(self.horizon)
            .enumerate()
            .expect("collectable");

        // Streamed arena path: never materializes the run vector.
        let streamed = InterpretedSystem::from_context(ctx.clone(), self.horizon, 10_000_000, {
            self.parallelism
        })
        .expect("streamed build");

        // Every arena-resolved state and action must equal the RAW
        // collected trajectories — a check that does not route through
        // the `RunStore` code both systems share for storage, so
        // interning bookkeeping bugs cannot cancel out.
        assert_eq!(streamed.run_count(), runs.len(), "{label}");
        for (r, run) in runs.iter().enumerate() {
            assert_eq!(streamed.nonfaulty(r), run.nonfaulty, "{label} run {r}");
            assert_eq!(streamed.inits(r), &run.inits[..], "{label} run {r}");
            for m in 0..=self.horizon {
                let pid = streamed.point(r, m);
                for i in 0..n {
                    let agent = AgentId::new(i);
                    assert_eq!(
                        streamed.local_state(pid, agent),
                        &run.states[m as usize][i],
                        "{label} run {r} time {m} agent {i}"
                    );
                    let raw_action = (m < self.horizon).then(|| run.actions[m as usize][i]);
                    assert_eq!(
                        streamed.action_at(pid, agent),
                        raw_action,
                        "{label} run {r} time {m} agent {i}"
                    );
                }
            }
        }

        // Legacy oracle: classes computed by the original hash-then-group
        // classifier directly over the raw run vector.
        let legacy =
            oracle::from_runs(ctx.exchange().clone(), runs, self.horizon).expect("legacy build");
        assert_eq!(streamed.point_count(), legacy.point_count(), "{label}");

        // Same indistinguishability-class partition, canonically.
        for i in 0..n {
            let agent = AgentId::new(i);
            assert_eq!(
                streamed.class_partition(agent),
                legacy.class_partition(agent),
                "{label} agent {i}"
            );
        }

        // Same `eval` bitsets across the standard formula battery (the
        // shared 33-formula battery from `eba_epistemic::query`).
        for f in standard_battery(n) {
            assert_eq!(streamed.eval(&f), legacy.eval(&f), "{label}: {f:?}");
        }

        // Same implements-check verdicts (P0 keeps the battery cheap).
        let s = check_implements(&streamed, ctx.protocol(), KnowledgeBasedProgram::P0);
        let l = check_implements(&legacy, ctx.protocol(), KnowledgeBasedProgram::P0);
        assert_eq!(s.comparisons, l.comparisons, "{label}");
        assert_eq!(s.mismatches, l.mismatches, "{label}");
    }
}

proptest! {
    // 10 cases keep the debug-mode suite affordable (~15 s/case: every
    // case builds two complete systems and model-checks both); the shim's
    // deterministic seeding makes the sampled grid stable across runs,
    // and the horizon-4 fip coverage lives in the acceptance test below.
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Streamed ≡ legacy across stacks × failure models × horizons ×
    /// worker counts.
    #[test]
    fn run_store_system_equals_legacy_system(
        stack_idx in 0usize..4,
        model_idx in 0usize..4,
        horizon in 2u32..=4,
        workers in 1usize..=4,
    ) {
        let params = Params::new(3, 1).unwrap();
        let base = STACK_NAMES[stack_idx];
        let model = [
            FailureModel::FailureFree,
            FailureModel::Crash,
            FailureModel::SendingOmission,
            FailureModel::GeneralOmission,
        ][model_idx];
        // The full-information run set grows exponentially in the
        // horizon (and explodes under general omissions); keep the
        // debug-mode cases affordable — the full fip horizon-4 system is
        // covered by the acceptance test below.
        let horizon = if base == "E_fip/P_opt" { 2 } else { horizon };
        let name = format!("{base}{}", model.suffix());
        let stack = NamedStack::by_name(&name, params).unwrap();
        stack.visit(StoreEqualsLegacy {
            horizon,
            parallelism: Parallelism::Fixed(workers),
            label: format!("{name} h={horizon} w={workers}"),
        });
    }
}

/// The store `enumerate_store` builds from the engine's trees against
/// the store `push_run` builds from `enumerate()`'s materialised runs.
struct StoreIdentity {
    horizon: u32,
    label: String,
}

impl StackVisitor for StoreIdentity {
    type Output = ();

    fn visit<E, P>(self, ctx: &Context<E, P>)
    where
        E: InformationExchange + Clone + Sync + 'static,
        P: ActionProtocol<E> + Clone + Sync + 'static,
    {
        let label = &self.label;
        let n = ctx.params().n();
        let scenario = Scenario::of(ctx).horizon(self.horizon);
        let streamed = scenario
            .clone()
            .parallelism(Parallelism::Fixed(2))
            .enumerate_store()
            .expect("streamed store");
        let mut pushed: RunStore<E> = RunStore::new(n, self.horizon);
        for run in scenario.enumerate().expect("collectable") {
            pushed.push_run(&run).expect("pushed store");
        }

        assert_eq!(streamed.run_count(), pushed.run_count(), "{label}");
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
            for round in 0..self.horizon {
                for agent in 0..n {
                    assert_eq!(
                        streamed.action(run, round, agent),
                        pushed.action(run, round, agent),
                        "{label}: run {run} round {round} agent {agent}"
                    );
                }
            }
        }
    }
}

/// `RunStore` takes the enumerator's items without re-interning every
/// point; `push_run` over the collected runs is the independent oracle
/// that it assigns the same ids, in the same arena order, to every slot.
#[test]
fn streamed_store_is_identical_to_the_pushed_store() {
    let params = Params::new(3, 1).unwrap();
    for base in STACK_NAMES {
        for model in MODEL_NAMES {
            // As above: the fip run set is only affordable in debug
            // builds at horizon 2.
            let horizons = if base == "E_fip/P_opt" { 2..=2 } else { 2..=4 };
            for horizon in horizons {
                let name = format!("{base}@{model}");
                NamedStack::by_name(&name, params)
                    .unwrap()
                    .visit(StoreIdentity {
                        horizon,
                        label: format!("{name} h={horizon}"),
                    });
            }
        }
    }
}

/// Acceptance: the full `E_fip/P_opt` `(3, 1)` system — every sending-
/// omission failure pattern, ~98k runs — builds through the streaming
/// arena path with verdicts identical to the legacy oracle, and the
/// machine-checked Theorem A.21 (P_opt implements P1) holds on it.
#[test]
fn full_fip_system_streams_with_identical_verdicts() {
    let params = Params::new(3, 1).unwrap();
    let ctx = Context::fip(params);
    let streamed =
        InterpretedSystem::from_context(ctx, 4, 10_000_000, Parallelism::Auto).expect("streams");
    assert!(
        streamed.run_count() > 90_000,
        "full pattern coverage, got {}",
        streamed.run_count()
    );
    // The arena actually deduplicates: far fewer distinct states than
    // (agent, point) slots.
    let slots = params.n() * streamed.point_count();
    assert!(
        streamed.distinct_states() * 4 < slots,
        "interning won {} of {slots}",
        streamed.distinct_states()
    );

    let oracle_ctx = Context::fip(params);
    let runs = Scenario::of(&oracle_ctx)
        .horizon(4)
        .enumerate()
        .expect("collectable");
    let legacy = oracle::from_runs(FipExchange::new(params), runs, 4).expect("legacy build");
    for i in 0..3 {
        let agent = AgentId::new(i);
        assert_eq!(
            streamed.class_partition(agent),
            legacy.class_partition(agent),
            "agent {i}"
        );
    }
    // Spot-check eval equality on the guards the programs actually use.
    for f in [
        Formula::someone_just_decided(3, Value::Zero),
        Formula::nobody_deciding(3, Value::Zero),
        Formula::knows(AgentId::new(0), Formula::ExistsInit(Value::Zero)),
    ] {
        assert_eq!(streamed.eval(&f), legacy.eval(&f), "{f:?}");
    }

    // Theorem A.21 on the streamed system.
    let proto = POpt::new(params);
    let report = check_implements(&streamed, &proto, KnowledgeBasedProgram::P1);
    assert!(
        report.is_ok(),
        "{} mismatches; first: {:?}",
        report.mismatches.len(),
        &report.mismatches[..report.mismatches.len().min(5)]
    );
    assert_eq!(report.runs, legacy.run_count());
}

/// The node store against the chain oracle, `oracle::from_runs`: one
/// unshared chain of nodes per run, classes by hash-then-group. They must
/// agree on every class partition as point sets, on every standard-battery
/// and spec verdict with its counterexample, and on the `P0` and `P1`
/// implements reports, mismatch order included.
struct NodesEqualChains {
    horizon: u32,
}

impl StackVisitor for NodesEqualChains {
    type Output = ();

    fn visit<E, P>(self, ctx: &Context<E, P>)
    where
        E: InformationExchange + Clone + Sync + 'static,
        P: ActionProtocol<E> + Clone + Sync + 'static,
    {
        let (label, n) = (ctx.qualified_name(), ctx.params().n());
        let (horizon, parallelism) = (self.horizon, Parallelism::Auto);
        let nodes = InterpretedSystem::from_context(ctx.clone(), horizon, 10_000_000, parallelism)
            .expect("node store");
        let runs = Scenario::of(ctx)
            .horizon(horizon)
            .enumerate()
            .expect("runs");
        let chains = oracle::from_runs(ctx.exchange().clone(), runs, horizon).expect("chains");
        assert!(
            nodes.store().node_count() <= chains.store().node_count(),
            "{label}"
        );
        assert_eq!(chains.store().node_count(), chains.point_count(), "{label}");
        for agent in AgentId::all(n) {
            let (a, b) = (nodes.class_partition(agent), chains.class_partition(agent));
            assert_eq!(a, b, "{label}: {agent}'s classes");
        }
        let battery = standard_battery(n);
        let verdicts = |sys: &InterpretedSystem<E>| {
            let mut arena = FormulaArena::new();
            let roots: Vec<NodeId> = battery.iter().map(|f| arena.intern(f)).collect();
            let plan = QueryPlan::new(&arena, &roots);
            let session = EvalSession::evaluate(sys, &arena, &plan);
            roots
                .iter()
                .map(|root| session.verdict(*root))
                .collect::<Vec<_>>()
        };
        assert_eq!(verdicts(&nodes), verdicts(&chains), "{label}: battery");
        let spec = |sys: &InterpretedSystem<E>| {
            let verdicts = check_spec(sys).into_iter();
            verdicts
                .map(|v| (v.property, v.run, v.time, v.oracle_confirmed))
                .collect::<Vec<_>>()
        };
        assert_eq!(spec(&nodes), spec(&chains), "{label}: spec");
        for program in [KnowledgeBasedProgram::P0, KnowledgeBasedProgram::P1] {
            let a = check_implements(&nodes, ctx.protocol(), program);
            let b = check_implements(&chains, ctx.protocol(), program);
            let name = program.name();
            assert_eq!(a.comparisons, b.comparisons, "{label}: {name}");
            assert_eq!(a.mismatches, b.mismatches, "{label}: {name}");
        }
    }
}

/// Every (3, 1) registry system at horizon 4, `E_fip@general_omission`
/// (25.2M runs) at horizon 2, and `SO(t)` at (4, 1) for the three
/// stacks whose runs a collected vector holds.
#[test]
fn node_store_agrees_with_the_chain_oracle() {
    let params = Params::new(3, 1).unwrap();
    for base in STACK_NAMES {
        for model in MODEL_NAMES {
            let name = format!("{base}@{model}");
            let big = name == "E_fip/P_opt@general_omission";
            let horizon = if big { 2 } else { 4 };
            let stack = NamedStack::by_name(&name, params).unwrap();
            stack.visit(NodesEqualChains { horizon });
        }
    }
    let params = Params::new(4, 1).unwrap();
    for base in ["E_min/P_min", "E_basic/P_basic", "E_naive/P_naive"] {
        let stack = NamedStack::by_name(base, params).unwrap();
        stack.visit(NodesEqualChains {
            horizon: params.default_horizon(),
        });
    }
}

/// The distinct `(N, inits, global-state prefix)` nodes of a store's
/// runs, counted post hoc from its points, `(all, below the horizon)`,
/// and the same two counts of the store's node table.
struct PrefixNodes;

impl StackVisitor for PrefixNodes {
    type Output = [(usize, usize); 2];

    fn visit<E, P>(self, ctx: &Context<E, P>) -> Self::Output
    where
        E: InformationExchange + Clone + Sync + 'static,
        P: ActionProtocol<E> + Clone + Sync + 'static,
    {
        let store = Scenario::of(ctx)
            .horizon(4)
            .parallelism(Parallelism::Auto)
            .enumerate_store()
            .expect("enumerable");
        let (n, per_run) = (store.agents(), 5);
        let mut prefixes = std::collections::HashSet::new();
        let mut below = 0;
        for run in 0..store.run_count() {
            let mut prefix = Vec::with_capacity(per_run * n);
            for time in 0..per_run {
                prefix.extend((0..n).map(|agent| store.state_id(agent, run * per_run + time)));
                let key = (
                    store.nonfaulty(run),
                    store.inits(run).to_vec(),
                    prefix.clone(),
                );
                if prefixes.insert(key) && time + 1 < per_run {
                    below += 1;
                }
            }
        }
        let inner = store.node_count() - store.run_count();
        [(prefixes.len(), below), (store.node_count(), inner)]
    }
}

/// The prefix tree of every (3, 1) horizon-4 registry system but the
/// 25.2M-run `E_fip@general_omission`: its distinct nodes, and those
/// below the horizon, where a knowledge-based program is evaluated. The
/// store keeps exactly these nodes, except under `Crash`, where a prefix
/// reached under two sets of not-yet-crashed agents may keep two records
/// (`CRASH_RECORDS`).
#[test]
fn prefix_tree_node_counts_are_pinned() {
    const CRASH_RECORDS: [(&str, usize, usize); 1] = [("E_basic/P_basic@crash", 394, 299)];
    const NODES: [(&str, usize, usize); 15] = [
        ("E_min/P_min@failure_free", 40, 32),
        ("E_min/P_min@crash", 307, 233),
        ("E_min/P_min@sending_omission", 307, 233),
        ("E_min/P_min@general_omission", 781, 509),
        ("E_basic/P_basic@failure_free", 40, 32),
        ("E_basic/P_basic@crash", 391, 296),
        ("E_basic/P_basic@sending_omission", 559, 401),
        ("E_basic/P_basic@general_omission", 5_002, 1_742),
        ("E_naive/P_naive@failure_free", 40, 32),
        ("E_naive/P_naive@crash", 196, 155),
        ("E_naive/P_naive@sending_omission", 250, 182),
        ("E_naive/P_naive@general_omission", 340, 236),
        ("E_fip/P_opt@failure_free", 40, 32),
        ("E_fip/P_opt@crash", 1_840, 1_136),
        ("E_fip/P_opt@sending_omission", 112_384, 14_072),
    ];
    let params = Params::new(3, 1).unwrap();
    let counts = NODES.map(|(name, _, _)| {
        let [(nodes, below), stored] = NamedStack::by_name(name, params)
            .unwrap()
            .visit(PrefixNodes);
        println!("{name}: {nodes} nodes, {below} below the horizon; the store keeps {stored:?}");
        let records = CRASH_RECORDS.iter().find(|row| row.0 == name);
        assert_eq!(
            stored,
            records.map_or((nodes, below), |row| (row.1, row.2)),
            "{name}"
        );
        (name, nodes, below)
    });
    assert_eq!(counts, NODES);
}
