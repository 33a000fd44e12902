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

/// The store `enumerate_store` builds from the engine's id rows against
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
