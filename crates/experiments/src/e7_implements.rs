//! **E7 — the implementation theorems, machine-checked.**
//!
//! Exhaustive epistemic model checking of the paper's implementation
//! theorems on small instances:
//!
//! * Thm 6.5 — `P_min` implements `P0` in `γ_min,n,t`;
//! * Thm 6.6 — `P_basic` implements `P0` in `γ_basic,n,t`;
//! * Section 7 — `P1 ≡ P0` in the limited-information contexts;
//! * Thm A.21 — `P_opt` implements `P1` in `γ_fip,n,t`.
//!
//! Optimality then follows from the paper's theorems (6.3, 7.6/7.7): an
//! implementation of the knowledge-based program in a safe context is
//! optimal, so these checks are the machine-checkable core of Cor 6.7 and
//! Cor 7.8.

use eba_core::kbp::KnowledgeBasedProgram;
use eba_core::prelude::*;
use eba_epistemic::prelude::*;
use eba_sim::runner::Parallelism;

use crate::claims::{protocol_of, CheckKind, Claim};
use crate::table::{cell, Table};

/// One instance to check: a registered stack at `(n, t)`, and the
/// programs to check its protocol against, in table order.
pub type Instance = (&'static str, usize, usize, &'static [KnowledgeBasedProgram]);

/// Enumerates the context's system once and checks its protocol against
/// each program.
struct Check(&'static [KnowledgeBasedProgram]);

impl StackVisitor for Check {
    type Output = Vec<(KnowledgeBasedProgram, ImplementsReport)>;

    fn visit<E, P>(self, ctx: &Context<E, P>) -> Self::Output
    where
        E: InformationExchange + Clone + Sync + 'static,
        P: ActionProtocol<E> + Clone + Sync + 'static,
    {
        let sys = InterpretedSystem::from_context(
            ctx.clone(),
            ctx.params().default_horizon(),
            10_000_000,
            Parallelism::Auto,
        )
        .expect("enumerable");
        self.0
            .iter()
            .map(|&program| (program, check_implements(&sys, ctx.protocol(), program)))
            .collect()
    }
}

/// The context's label: `γ_min(3,1)` for `E_min/P_min` at `(3, 1)`.
fn context_label(&(stack, n, t, _): &Instance) -> String {
    let exchange = stack.split_once('/').expect("E_x/P_y").0;
    format!("γ_{}({n},{t})", exchange.trim_start_matches("E_"))
}

/// Runs the checks.
pub fn run(instances: &[Instance]) -> Claim {
    let grid: Vec<String> = instances.iter().map(context_label).collect();
    let mut claim = Claim::new(
        "E7",
        "Thms 6.5/6.6/A.21",
        "P_min and P_basic implement P0 (≡ P1 at t = 1); P_opt implements P1",
        CheckKind::Implements,
        grid.join(" "),
        Table::new(
            "E7: implementation theorems by exhaustive model checking",
            "Zero mismatches = the protocol implements the knowledge-based \
             program on that instance (Thms 6.5/6.6/A.21); optimality follows \
             by Thms 6.3 and 7.6/7.7. Note P0 ≡ P1 throughout at t = 1 (a \
             hidden 0-chain needs more silent extenders than one faulty agent \
             provides by the time common knowledge can first arrive).",
            &[
                "context",
                "protocol",
                "program",
                "runs",
                "comparisons",
                "plan nodes",
                "mismatches",
            ],
        ),
    );
    for (instance, context) in instances.iter().zip(grid) {
        let &(name, n, t, programs) = instance;
        let stack =
            NamedStack::by_name(name, Params::new(n, t).expect("valid")).expect("registered");
        for (program, report) in stack.visit(Check(programs)) {
            claim.row(
                vec![
                    context.clone(),
                    cell(protocol_of(&stack)),
                    cell(program.name()),
                    cell(report.runs),
                    cell(report.comparisons),
                    cell(report.evaluated_nodes),
                    cell(report.mismatches.len()),
                ],
                &[
                    ("zero mismatches", report.is_ok()),
                    (
                        "a nonempty system and guard plan",
                        report.runs > 0 && report.comparisons > 0 && report.evaluated_nodes > 0,
                    ),
                ],
            );
        }
    }
    claim
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::claims::assert_holds;
    use KnowledgeBasedProgram::P0;

    #[test]
    fn light_configuration_all_pass() {
        let claim = assert_holds(run(crate::claims::E7_QUICK));
        assert_eq!(claim.table.rows.len(), 5);
    }

    #[test]
    fn n4_t2_minimal_context_passes() {
        let claim = assert_holds(run(&[("E_min/P_min", 4, 2, &[P0])]));
        let runs: usize = claim.table.rows[0][3].parse().unwrap();
        assert!(runs > 1000, "nontrivial system: {runs} runs");
    }
}
