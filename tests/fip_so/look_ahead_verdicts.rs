//! The look-ahead operators `◯`, `□` and `♦` against the recursive
//! oracle on the full horizon-4 `(3, 1)` systems of `E_min`, `E_basic`
//! and `E_fip` under sending omissions (`E_fip`'s is [`FIP_SO`]'s node
//! store): every root of the standard battery that looks ahead along
//! runs, and each agent's `Termination` clause, both as stated and as
//! the spec check judges it (`time = 0 ⇒ φ`). Each root's point set must
//! equal `eval_recursive`'s, and its verdict must name the oracle set's
//! first unset point in point order, read back as `(run, time)`.

use crate::common::LIMIT;
use crate::FIP_SO;
use eba::core::exchange::InformationExchange;
use eba::core::protocols::ActionProtocol;
use eba::epistemic::prelude::*;
use eba::prelude::*;

/// Whether `f` looks ahead along runs somewhere below its root.
fn looks_ahead(f: &Formula) -> bool {
    match f {
        Formula::Next(_) | Formula::Henceforth(_) | Formula::Eventually(_) => true,
        Formula::Not(g)
        | Formula::Prev(g)
        | Formula::Knows(_, g)
        | Formula::EveryoneNonfaulty(g)
        | Formula::CommonNonfaulty(g)
        | Formula::CommonTFaulty(g) => looks_ahead(g),
        Formula::And(gs) | Formula::Or(gs) => gs.iter().any(looks_ahead),
        _ => false,
    }
}

/// The roots under test at `n` agents.
fn roots(n: usize) -> Vec<Formula> {
    let mut roots: Vec<Formula> = standard_battery(n)
        .into_iter()
        .filter(looks_ahead)
        .collect();
    assert_eq!(roots.len(), 3, "the battery's ◯, □ and ♦ roots");
    for prop in eba_spec_properties(n) {
        if prop.kind == "termination" {
            roots.push(Formula::implies(Formula::TimeIs(0), prop.formula.clone()));
            roots.push(prop.formula);
        }
    }
    assert_eq!(roots.len(), 3 + 2 * n);
    roots
}

/// Checks every root on `sys` in one batch; returns how many were not
/// valid, so that their counterexamples were compared.
fn layers_agree<E: InformationExchange>(sys: &InterpretedSystem<E>) -> usize {
    let formulas = roots(sys.params().n());
    let mut arena = FormulaArena::new();
    let ids: Vec<NodeId> = formulas.iter().map(|f| arena.intern(f)).collect();
    let plan = QueryPlan::new(&arena, &ids);
    let session = EvalSession::evaluate(sys, &arena, &plan);
    let mut refuted = 0;
    for (f, id) in formulas.iter().zip(&ids) {
        let oracle = sys.eval_recursive(f);
        assert_eq!(session.bitset(*id), oracle, "{f}");
        let first = oracle.first_unset().map(|p| {
            let p = p as PointId;
            (sys.run_of(p), sys.time_of(p))
        });
        let verdict = session.verdict(*id);
        assert_eq!(verdict.counterexample, first, "{f}");
        assert_eq!(verdict.holds, first.is_none(), "{f}");
        refuted += usize::from(first.is_some());
    }
    refuted
}

fn system<E, P>(ctx: Context<E, P>) -> InterpretedSystem<E>
where
    E: InformationExchange + Sync,
    P: ActionProtocol<E> + Sync,
{
    InterpretedSystem::from_context(ctx, 4, LIMIT, Parallelism::Auto).unwrap()
}

#[test]
fn look_ahead_roots_equal_the_oracle_with_its_first_counterexample() {
    let params = Params::new(3, 1).unwrap();
    let refuted = [
        layers_agree(&system(Context::minimal(params))),
        layers_agree(&system(Context::basic(params))),
        layers_agree(FIP_SO.nodes()),
    ];
    assert!(refuted.iter().all(|count| *count > 0), "{refuted:?}");
}
