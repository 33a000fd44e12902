//! The compiled query engine is a refactor of formula evaluation, not a
//! semantic change: on every system of the sweep ([`common::sweep`]) the
//! batched `FormulaArena`/`QueryPlan`/`EvalSession` pipeline produces
//! the same point sets as the recursive evaluator (`eval_recursive`, the
//! independent oracle), the same `valid` verdicts, and for every failing
//! formula a counterexample outside the oracle's point set
//! ([`common::engine_equals_recursion`]). The plan-level dedup bounds and
//! a confirmed agreement witness are tests in `engines_agree`.

mod common;

use common::{check_each, engine_equals_recursion, sweep, LIMIT};
use eba::core::exchange::InformationExchange;
use eba::core::protocols::ActionProtocol;
use eba::epistemic::prelude::*;
use eba::prelude::*;

/// Builds one system's node store and checks engine ≡ recursion on it.
struct EngineEqualsRecursion {
    horizon: u32,
}

impl StackVisitor for EngineEqualsRecursion {
    type Output = ();

    fn visit<E, P>(self, ctx: &Context<E, P>)
    where
        E: InformationExchange + Clone + Sync + 'static,
        P: ActionProtocol<E> + Clone + Sync + 'static,
    {
        let label = format!("{} h={}", ctx.qualified_name(), self.horizon);
        let sys = InterpretedSystem::from_context(ctx.clone(), self.horizon, LIMIT, {
            Parallelism::Sequential
        })
        .expect("enumerable");
        engine_equals_recursion(&label, &sys);
    }
}

/// Engine ≡ recursion on every system of the sweep: every (3, 1) stack ×
/// failure model × horizon 2 to 4 (`E_fip` at 2, and at 4 without
/// omissions) and `SO(t)` at (4, 1).
#[test]
fn batched_evaluation_equals_legacy_recursion() {
    check_each(&sweep(), |_, s| {
        let stack = NamedStack::by_name(&s.name, s.params).unwrap();
        stack.visit(EngineEqualsRecursion { horizon: s.horizon });
    });
}
