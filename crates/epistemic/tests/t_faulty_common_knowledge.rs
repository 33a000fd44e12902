//! `C_N(t-faulty ∧ φ)` is one operator, evaluated by one worklist pass
//! (`InterpretedSystem::common_t_faulty_set`). `eval_recursive` expands
//! it into the paper's `C(n, t)` towers and iterates each to its
//! fixpoint. This suite holds the two to each other across stacks,
//! failure models and `(n, t)`, for every `φ` that `P1` needs, and checks
//! the pass's precondition: no run has more than `t` faulty agents. Each
//! system is built once per run of this file, and both checks read it.
//!
//! The two largest `E_fip` systems, (3, 1) under sending omissions
//! (98,312 runs) and (4, 2) under crash (559,376 runs), run only without
//! debug assertions, as the release epistemic suite does; the 25.2M-run
//! (3, 1) general-omission one is left out.

use std::sync::OnceLock;

use eba_core::exchange::InformationExchange;
use eba_core::failures::MODEL_NAMES;
use eba_core::prelude::*;
use eba_core::types::BitSet;
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

/// What one system says to both checks: the first run with more than
/// `t` faulty agents, if any, and for each `φ` the one pass's and the
/// towers' point sets.
struct Answers {
    label: String,
    too_faulty: Option<(usize, usize)>,
    fixpoints: Vec<(Formula, BitSet, BitSet)>,
    points: usize,
}

/// Builds the stack's system at its default horizon once and answers
/// both checks on it.
struct Answer;

impl StackVisitor for Answer {
    type Output = Answers;

    fn visit<E, P>(self, ctx: &Context<E, P>) -> Self::Output
    where
        E: InformationExchange + Clone + Sync + 'static,
        P: ActionProtocol<E> + Clone + Sync + 'static,
    {
        let horizon = ctx.params().default_horizon();
        let sys =
            InterpretedSystem::from_context(ctx.clone(), horizon, 10_000_000, Parallelism::Auto)
                .unwrap();
        let params = sys.params();
        let (n, t) = (params.n(), params.t());
        let too_faulty = (0..sys.run_count())
            .map(|r| (r, sys.nonfaulty(r).len()))
            .find(|(_, nonfaulty)| *nonfaulty < n - t);
        let fixpoints = phis(params)
            .into_iter()
            .map(|phi| {
                let one_pass = sys.eval(&Formula::common_t_faulty(phi.clone()));
                let towers = sys.eval_recursive(&Formula::t_faulty_towers(params, phi.clone()));
                (phi, one_pass, towers)
            })
            .collect();
        Answers {
            label: format!("{} ({n}, {t})", ctx.qualified_name()),
            too_faulty,
            fixpoints,
            points: sys.point_count(),
        }
    }
}

/// Every system of [`stacks`], each built once per run of this file, with
/// its answers to both checks: two at a time, as the two tests ran when
/// each built its own.
fn answers() -> &'static [(NamedStack, Answers)] {
    static ANSWERS: OnceLock<Vec<(NamedStack, Answers)>> = OnceLock::new();
    ANSWERS.get_or_init(|| {
        let stacks = stacks();
        let mut answers = Vec::new();
        let answer = |k: usize| stacks[k].visit(Answer);
        let done = Parallelism::Fixed(2).for_each_ordered(stacks.len(), answer, |a| {
            answers.push(a);
            Ok::<_, ()>(())
        });
        done.unwrap();
        stacks.into_iter().zip(answers).collect()
    })
}

#[test]
fn every_run_has_at_most_t_faulty_agents() {
    for (_, answers) in answers() {
        let label = &answers.label;
        assert!(
            answers.too_faulty.is_none(),
            "{label}: (run, |N|) = {:?}",
            answers.too_faulty
        );
    }
}

#[test]
fn one_pass_equals_the_towers() {
    for (stack, answers) in answers() {
        let label = &answers.label;
        for (phi, one_pass, towers) in &answers.fixpoints {
            assert_eq!(one_pass, towers, "{label}: C_N(t-faulty ∧ {phi})");
        }
        let counts: Vec<usize> = (answers.fixpoints.iter())
            .map(|(_, one_pass, _)| one_pass.count())
            .collect();
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
                (counts[3..].to_vec(), answers.points),
                pinned,
                "{}",
                stack.qualified_name()
            );
        }
    }
}
