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

use crate::table::{cell, Table};

/// Outcome of one implements-check.
#[derive(Clone, Debug)]
pub struct E7Row {
    /// The context checked, e.g. `γ_min(3,1)`.
    pub context: String,
    /// The concrete protocol.
    pub protocol: &'static str,
    /// The knowledge-based program.
    pub program: &'static str,
    /// Runs in the interpreted system.
    pub runs: usize,
    /// `(point, agent)` pairs compared.
    pub comparisons: usize,
    /// Distinct formula nodes the program's compiled guard plan
    /// evaluated (shared bodies and `C_N` towers counted once).
    pub plan_nodes: usize,
    /// Disagreements (0 = the theorem holds on this instance).
    pub mismatches: usize,
}

/// Which checks to perform.
#[derive(Clone, Copy, Debug)]
pub struct E7Config {
    /// Include the (heavier) full-information check of Thm A.21.
    pub include_fip: bool,
    /// Include the `(4, 2)` minimal-context instance.
    pub include_n4_t2: bool,
}

impl Default for E7Config {
    fn default() -> Self {
        E7Config {
            include_fip: true,
            include_n4_t2: true,
        }
    }
}

/// Enumerates `ctx`'s system once and checks its protocol against each
/// program; `label` names the context, e.g. `min` for `γ_min(n,t)`.
fn check<E, P>(ctx: Context<E, P>, label: &str, programs: &[KnowledgeBasedProgram]) -> Vec<E7Row>
where
    E: InformationExchange + Sync,
    P: ActionProtocol<E> + Clone + Sync,
{
    let params = ctx.params();
    let proto = ctx.protocol().clone();
    let sys = InterpretedSystem::from_context(
        ctx,
        params.default_horizon(),
        10_000_000,
        Parallelism::Auto,
    )
    .expect("enumerable");
    let context = format!("γ_{label}({},{})", params.n(), params.t());
    programs
        .iter()
        .map(|&program| {
            let report = check_implements(&sys, &proto, program);
            E7Row {
                context: context.clone(),
                protocol: proto.name(),
                program: program.name(),
                runs: report.runs,
                comparisons: report.comparisons,
                plan_nodes: report.evaluated_nodes,
                mismatches: report.mismatches.len(),
            }
        })
        .collect()
}

/// Runs the checks.
pub fn run(config: E7Config) -> (Vec<E7Row>, Table) {
    use KnowledgeBasedProgram::{P0, P1};
    let params = |n, t| Params::new(n, t).expect("valid");
    let mut rows = check(Context::minimal(params(3, 1)), "min", &[P0, P1]);
    rows.extend(check(Context::minimal(params(4, 1)), "min", &[P0]));
    if config.include_n4_t2 {
        rows.extend(check(Context::minimal(params(4, 2)), "min", &[P0]));
    }
    rows.extend(check(Context::basic(params(3, 1)), "basic", &[P0, P1]));
    if config.include_fip {
        rows.extend(check(Context::fip(params(3, 1)), "fip", &[P1, P0]));
    }

    let mut table = Table::new(
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
    );
    for r in &rows {
        table.push(vec![
            cell(&r.context),
            cell(r.protocol),
            cell(r.program),
            cell(r.runs),
            cell(r.comparisons),
            cell(r.plan_nodes),
            cell(r.mismatches),
        ]);
    }
    (rows, table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn light_configuration_all_pass() {
        let (rows, _) = run(E7Config {
            include_fip: false,
            include_n4_t2: false,
        });
        assert_eq!(rows.len(), 5);
        for r in &rows {
            assert_eq!(r.mismatches, 0, "{r:?}");
            assert!(r.runs > 0 && r.comparisons > 0);
            assert!(r.plan_nodes > 0, "{r:?}");
        }
    }

    #[test]
    fn n4_t2_minimal_context_passes() {
        let (rows, _) = run(E7Config {
            include_fip: false,
            include_n4_t2: true,
        });
        let big = rows.iter().find(|r| r.context == "γ_min(4,2)").unwrap();
        assert_eq!(big.mismatches, 0);
        assert!(big.runs > 1000, "nontrivial system: {} runs", big.runs);
    }
}
