//! `C_N(t-faulty ∧ φ)` is one operator, evaluated by one worklist pass
//! (`InterpretedSystem::common_t_faulty_set`). `eval_recursive` expands
//! it into the paper's `C(n, t)` towers and iterates each to its
//! fixpoint. This suite holds the two to each other across stacks,
//! failure models and `(n, t)`, for every `φ` that `P1` needs, and checks
//! the pass's precondition: no run has more than `t` faulty agents.
//!
//! The two largest `E_fip` systems, (3, 1) under sending omissions
//! (98,312 runs) and (4, 2) under crash (559,376 runs), run only without
//! debug assertions, as the release epistemic suite does; the 25.2M-run
//! (3, 1) general-omission one is left out.

use eba_core::exchange::InformationExchange;
use eba_core::failures::MODEL_NAMES;
use eba_core::prelude::*;
use eba_epistemic::prelude::*;
use eba_sim::prelude::*;

/// The systems of this suite: every stack at (3, 1) and (2, 1) in every
/// model, and at (3, 0) and (4, 2) under crash and failure-free.
fn stacks() -> Vec<NamedStack> {
    let mut names = Vec::new();
    for (n, t) in [(3, 1), (2, 1), (3, 0), (4, 2)] {
        let models = if t == 1 {
            &MODEL_NAMES[..]
        } else {
            &MODEL_NAMES[..2]
        };
        for stack in STACK_NAMES {
            for model in models {
                names.push((format!("{stack}@{model}"), n, t));
            }
        }
    }
    let too_big = |name: &str, n, t| {
        let big = [
            ("E_fip/P_opt@sending_omission", 3, 1),
            ("E_fip/P_opt@crash", 4, 2),
        ];
        (name, n, t) == ("E_fip/P_opt@general_omission", 3, 1)
            || cfg!(debug_assertions) && big.contains(&(name, n, t))
    };
    names
        .into_iter()
        .filter(|(name, n, t)| !too_big(name, *n, *t))
        .map(|(name, n, t)| NamedStack::by_name(&name, Params::new(n, t).unwrap()).unwrap())
        .collect()
}

/// `φ` = `true`, `∃0`, `∃1`, and the bodies of `P1`'s two guards,
/// `no-decided_N(1−v) ∧ ∃v`.
fn phis(params: Params) -> Vec<Formula> {
    let mut phis = vec![Formula::True];
    phis.extend(Value::ALL.map(Formula::ExistsInit));
    phis.extend(Value::ALL.map(|v| match ck_guard(params, v) {
        Formula::CommonTFaulty(body) => *body,
        other => panic!("ck_guard is not one C_N(t-faulty ∧ φ): {other}"),
    }));
    phis
}

/// The stack's system at its default horizon.
fn build<E, P>(ctx: &Context<E, P>) -> InterpretedSystem<E>
where
    E: InformationExchange + Clone + Sync + 'static,
    P: ActionProtocol<E> + Clone + Sync + 'static,
{
    let horizon = ctx.params().default_horizon();
    InterpretedSystem::from_context(ctx.clone(), horizon, 10_000_000, Parallelism::Auto).unwrap()
}

struct AtMostTFaulty;

impl StackVisitor for AtMostTFaulty {
    type Output = ();

    fn visit<E, P>(self, ctx: &Context<E, P>)
    where
        E: InformationExchange + Clone + Sync + 'static,
        P: ActionProtocol<E> + Clone + Sync + 'static,
    {
        let sys = build(ctx);
        let (n, t) = (sys.params().n(), sys.params().t());
        for r in 0..sys.run_count() {
            let nonfaulty = sys.nonfaulty(r).len();
            let name = ctx.qualified_name();
            assert!(
                nonfaulty >= n - t,
                "{name} ({n}, {t}) run {r}: |N| = {nonfaulty}"
            );
        }
    }
}

/// Checks one pass ≡ towers for every `φ`; returns how many points each
/// fixpoint holds, and the system's point count.
struct OnePassEqualsTowers;

impl StackVisitor for OnePassEqualsTowers {
    type Output = (Vec<usize>, usize);

    fn visit<E, P>(self, ctx: &Context<E, P>) -> Self::Output
    where
        E: InformationExchange + Clone + Sync + 'static,
        P: ActionProtocol<E> + Clone + Sync + 'static,
    {
        let sys = build(ctx);
        let params = sys.params();
        let label = format!("{} ({}, {})", ctx.qualified_name(), params.n(), params.t());
        let counts = phis(params)
            .into_iter()
            .map(|phi| {
                let one_pass = sys.eval(&Formula::common_t_faulty(phi.clone()));
                let towers = sys.eval_recursive(&Formula::t_faulty_towers(params, phi.clone()));
                assert_eq!(one_pass, towers, "{label}: C_N(t-faulty ∧ {phi})");
                one_pass.count()
            })
            .collect();
        (counts, sys.point_count())
    }
}

#[test]
fn every_run_has_at_most_t_faulty_agents() {
    for stack in stacks() {
        stack.visit(AtMostTFaulty);
    }
}

#[test]
fn one_pass_equals_the_towers() {
    for stack in stacks() {
        let (counts, points) = stack.visit(OnePassEqualsTowers);
        let params = stack.params();
        // The rows that show the pass is not trivially empty: `P1`'s two
        // guard bodies on the `E_fip` sending-omission systems.
        let pinned = match (stack.qualified_name().as_str(), params.n(), params.t()) {
            ("E_fip/P_opt", 2, 1) => Some((vec![4_100, 2_732], 10_260)),
            ("E_fip/P_opt", 3, 1) => Some((vec![224_304, 42_576], 491_560)),
            _ => None,
        };
        if let Some(pinned) = pinned {
            assert_eq!(
                (counts[3..].to_vec(), points),
                pinned,
                "{}",
                stack.qualified_name()
            );
        }
    }
}
