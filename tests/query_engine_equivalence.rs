//! The compiled query engine must be a *refactor* of formula
//! evaluation, not a semantic change: for every registered stack,
//! failure model, and horizon, the batched
//! `FormulaArena`/`QueryPlan`/`EvalSession` pipeline produces
//! **bit-for-bit** the same point sets as the legacy recursive
//! evaluator (`eval_recursive`, the independent oracle), the same
//! `valid` verdicts, and — for every failing formula — a counterexample
//! point that the oracle confirms via `satisfied_at`. The unit tests at
//! the bottom pin the dedup guarantee: one compiled battery plan
//! evaluates strictly fewer nodes than the same formulas evaluated
//! independently.

use eba::core::exchange::InformationExchange;
use eba::core::protocols::ActionProtocol;
use eba::epistemic::prelude::*;
use eba::prelude::*;
use proptest::prelude::*;

/// Builds one stack's system and checks engine ≡ oracle on the standard
/// battery, with verified counterexamples.
struct EngineEqualsOracle {
    horizon: u32,
    label: String,
}

impl StackVisitor for EngineEqualsOracle {
    type Output = ();

    fn visit<E, P>(self, ctx: &Context<E, P>)
    where
        E: InformationExchange + Clone + Sync + 'static,
        P: ActionProtocol<E> + Clone + Sync + 'static,
    {
        let label = &self.label;
        let n = ctx.params().n();
        let sys = InterpretedSystem::from_context(ctx.clone(), self.horizon, 10_000_000, {
            Parallelism::Auto
        })
        .expect("enumerable");

        let battery = standard_battery(n);

        // One compiled batch for the whole battery…
        let mut arena = FormulaArena::new();
        let roots: Vec<NodeId> = battery.iter().map(|f| arena.intern(f)).collect();
        let plan = QueryPlan::new(&arena, &roots);
        let session = EvalSession::evaluate(&sys, &arena, &plan);

        // …must agree with the legacy recursion bitset-for-bitset, and
        // every failing verdict must carry an oracle-confirmed witness.
        for (f, root) in battery.iter().zip(&roots) {
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
                    assert!(
                        !sys.satisfied_at(f, run, time),
                        "{label}: unconfirmed witness (run {run}, time {time}) for {f:?}"
                    );
                }
            }
        }

        // The one-formula compatibility wrappers ride the same engine;
        // spot-check them against the oracle on the operators with the
        // most machinery (knowledge, fixpoints, temporal). `P1`'s two
        // guard bodies hold 2·C(n, t) `C_N` towers between them.
        let params = ctx.params();
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
        assert!(
            plan.evaluated_node_count() < plan.naive_node_count(),
            "{label}: {} nodes batched vs {} naive",
            plan.evaluated_node_count(),
            plan.naive_node_count()
        );
    }
}

proptest! {
    // Each case builds one complete system and model-checks the full
    // battery through both pipelines; 10 deterministic cases keep the
    // debug suite affordable while covering the stack × model × horizon
    // grid (the shim's seeding is stable across runs).
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Engine ≡ oracle across stacks × failure models × horizons.
    #[test]
    fn batched_evaluation_equals_legacy_recursion(
        stack_idx in 0usize..4,
        model_idx in 0usize..4,
        horizon in 2u32..=4,
    ) {
        let params = Params::new(3, 1).unwrap();
        let base = STACK_NAMES[stack_idx];
        let model = [
            FailureModel::FailureFree,
            FailureModel::Crash,
            FailureModel::SendingOmission,
            FailureModel::GeneralOmission,
        ][model_idx];
        // The full-information run set explodes with the horizon (and
        // under general omissions); cap it like the run-store suite.
        let horizon = if base == "E_fip/P_opt" { 2 } else { horizon };
        let name = format!("{base}{}", model.suffix());
        let stack = NamedStack::by_name(&name, params).unwrap();
        stack.visit(EngineEqualsOracle {
            horizon,
            label: format!("{name} h={horizon}"),
        });
    }
}

/// The acceptance dedup bound: compiling the 33-formula battery into one
/// plan evaluates strictly fewer nodes than 33 independent `eval` calls
/// would — the shared `K_i` bodies, decided-disjunctions, and `C_N`
/// towers exist once. (The bound is a property of the plan alone, so no
/// system build is needed; the fip `(3, 1)` battery *timing* is the
/// benchmark's `epistemic.battery_eval_s`.)
#[test]
fn battery_plan_dedups_shared_subformulas() {
    for n in [3usize, 4, 5] {
        let battery = standard_battery(n);
        let mut arena = FormulaArena::new();
        let roots: Vec<NodeId> = battery.iter().map(|f| arena.intern(f)).collect();
        let plan = QueryPlan::new(&arena, &roots);
        assert!(
            plan.evaluated_node_count() < plan.naive_node_count(),
            "n = {n}: {} batched vs {} naive",
            plan.evaluated_node_count(),
            plan.naive_node_count()
        );
        // And per-formula: the naive total is the sum of each root's own
        // reachable set, which one recursive eval would traverse.
        let per_root: usize = roots.iter().map(|r| arena.reachable_count(*r)).sum();
        assert_eq!(plan.naive_node_count(), per_root);
    }
}

/// The P1 guard family — the `ck_guard` towers for both values
/// plus the per-agent `K_i` wrappers — shares its `¬(i ∈ N)` leaves and
/// decided-propositions across the whole batch.
#[test]
fn p1_guard_family_dedups_across_values_and_agents() {
    let params = Params::new(4, 2).unwrap();
    let n = params.n();
    let mut arena = FormulaArena::new();
    let mut roots = Vec::new();
    for v in Value::ALL {
        let ck = ck_guard(params, v);
        for i in AgentId::all(n) {
            roots.push(arena.intern(&Formula::knows(i, ck.clone())));
        }
    }
    let plan = QueryPlan::new(&arena, &roots);
    assert!(
        plan.evaluated_node_count() * 2 < plan.naive_node_count(),
        "towers must be massively shared: {} vs {}",
        plan.evaluated_node_count(),
        plan.naive_node_count()
    );
}

/// A failing spec formula on a protocol known to violate Agreement:
/// the verdict's counterexample must be a real, oracle-confirmed point.
#[test]
fn agreement_violation_carries_a_confirmed_witness() {
    let params = Params::new(3, 1).unwrap();
    let ctx = Context::naive(params);
    let sys = InterpretedSystem::from_context(ctx, 4, 1_000_000, Parallelism::Auto).unwrap();
    let mut found = false;
    for i in AgentId::all(3) {
        for j in AgentId::all(3) {
            let agree = Formula::not(Formula::And(vec![
                Formula::Nonfaulty(i),
                Formula::Nonfaulty(j),
                Formula::DecidedIs(i, Some(Value::Zero)),
                Formula::DecidedIs(j, Some(Value::One)),
            ]));
            let verdict = sys.query(&agree);
            if verdict.holds {
                continue;
            }
            found = true;
            let (run, time) = verdict.counterexample.expect("failing ⇒ witness");
            assert!(!sys.satisfied_at(&agree, run, time), "{i} {j}");
            // The witness is human-meaningful: both agents nonfaulty
            // and split on their decision at that very point.
            let pid = sys.point(run, time);
            assert!(sys.nonfaulty(run).contains(i) && sys.nonfaulty(run).contains(j));
            assert_eq!(sys.decided_at(pid, i), Some(Value::Zero));
            assert_eq!(sys.decided_at(pid, j), Some(Value::One));
        }
    }
    assert!(found, "the naive protocol must violate Agreement somewhere");
}
