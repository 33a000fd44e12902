//! The claims ledger: one [`Claim`] per paper statement E1–E9, each with
//! its expectation stated once, on the row that computes it.
//!
//! Every `eN::run` returns its claim: the table it prints, and the rows
//! whose expectation broke, each named by its cells. [`sweep`] runs all
//! nine on the quick or the full grid, and [`ledger`] renders one line
//! per claim — the binary prints it ahead of the tables and exits 1 if
//! any claim broke.

use std::fmt;

use eba_core::kbp::KnowledgeBasedProgram::{P0, P1};
use eba_core::prelude::*;
use eba_sim::prelude::*;

use crate::table::{cell, Table};
use crate::{
    e1_bits, e2_failure_free_zero, e3_failure_free_ones, e4_silent_faulty, e5_termination,
    e6_latency_curves, e7_implements, e8_bias_counterexample, e9_ck_onset,
};

/// How a claim is checked.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CheckKind {
    /// Constructed runs: fixed patterns and preferences, one run each.
    SingleRuns,
    /// Seeded random adversaries, every run judged.
    Sampled,
    /// A protocol compared with a knowledge-based program at every point
    /// of the complete interpreted system.
    Implements,
}

impl fmt::Display for CheckKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CheckKind::SingleRuns => "single runs",
            CheckKind::Sampled => "sampled",
            CheckKind::Implements => "implements",
        })
    }
}

/// One paper claim checked on one grid: its table, and the rows that
/// broke their expectation.
#[derive(Clone, Debug)]
pub struct Claim {
    /// The experiment id, `E1` … `E9`.
    pub id: &'static str,
    /// Where the paper states it.
    pub source: &'static str,
    /// The claim in one line.
    pub statement: &'static str,
    /// How it is checked.
    pub kind: CheckKind,
    /// The instances it was checked on.
    pub grid: String,
    /// The claim's table, one row per check.
    pub table: Table,
    /// One line per broken expectation, naming the row and what it
    /// expected (empty: the claim holds).
    pub broken: Vec<String>,
}

impl Claim {
    /// A claim with no rows yet.
    pub fn new(
        id: &'static str,
        source: &'static str,
        statement: &'static str,
        kind: CheckKind,
        grid: String,
        table: Table,
    ) -> Self {
        Claim {
            id,
            source,
            statement,
            kind,
            grid,
            table,
            broken: Vec::new(),
        }
    }

    /// Appends a row to the table and checks it: each `(expected, ok)`
    /// that is not `ok` records the row, by its cells, as broken.
    pub fn row(&mut self, cells: Vec<String>, expectations: &[(&str, bool)]) {
        for (expected, _) in expectations.iter().filter(|(_, ok)| !ok) {
            self.broken.push(format!(
                "{} row `{}`: expected {expected}",
                self.id,
                cells.join(" | ")
            ));
        }
        self.table.push(cells);
    }

    /// Whether no row broke.
    pub fn holds(&self) -> bool {
        self.broken.is_empty()
    }
}

/// E7's quick grid: the limited-information contexts up to `(4, 1)`.
pub(crate) const E7_QUICK: &[e7_implements::Instance] = &[
    ("E_min/P_min", 3, 1, &[P0, P1]),
    ("E_min/P_min", 4, 1, &[P0]),
    ("E_basic/P_basic", 3, 1, &[P0, P1]),
];

/// E7's full grid adds `γ_min(4,2)` and the ~98k-run `γ_fip(3,1)`.
const E7_FULL: &[e7_implements::Instance] = &[
    ("E_min/P_min", 3, 1, &[P0, P1]),
    ("E_min/P_min", 4, 1, &[P0]),
    ("E_min/P_min", 4, 2, &[P0]),
    ("E_basic/P_basic", 3, 1, &[P0, P1]),
    ("E_fip/P_opt", 3, 1, &[P1, P0]),
];

/// Runs E1–E9 on the quick or the full grid.
pub fn sweep(quick: bool) -> Vec<Claim> {
    let e1: &[(usize, usize)] = if quick {
        &[(4, 1), (8, 3)]
    } else {
        &[(4, 1), (6, 2), (8, 3), (12, 5), (16, 7), (20, 9), (24, 11)]
    };
    let e2: &[usize] = if quick {
        &[4, 6]
    } else {
        &[3, 4, 6, 9, 12, 16]
    };
    let e3: &[usize] = if quick {
        &[1, 3]
    } else {
        &[0, 1, 2, 3, 4, 5, 7, 9]
    };
    let (n4, t4) = if quick { (8, 3) } else { (20, 10) };
    let e5: &[(usize, usize)] = if quick {
        &[(4, 1)]
    } else {
        &[(4, 1), (5, 2), (6, 2), (7, 3)]
    };
    let probs: Vec<f64> = (0..=10).map(|i| i as f64 / 10.0).collect();
    // (3, 1) is exhaustively enumerable, so the full sweep also carries
    // the query-engine cross-check column for that row.
    let e9: &[(usize, usize)] = if quick {
        &[(4, 1), (6, 2)]
    } else {
        &[(3, 1), (4, 1), (6, 2), (8, 3), (12, 5), (16, 7), (20, 9)]
    };
    let trials = if quick { 100 } else { 1000 };
    vec![
        e1_bits::run(e1),
        e2_failure_free_zero::run(e2),
        e3_failure_free_ones::run(12, e3),
        e4_silent_faulty::run(n4, t4, &(1..=t4).collect::<Vec<_>>()),
        e5_termination::run(e5, trials, 0.4, 0xEBA),
        e6_latency_curves::run(8, 3, &probs, if quick { 20 } else { 200 }, 0xEBA),
        e7_implements::run(if quick { E7_QUICK } else { E7_FULL }),
        e8_bias_counterexample::run(trials, 0xEBA),
        e9_ck_onset::run(e9),
    ]
}

/// One line per claim: where the paper states it, how and where it was
/// checked, and whether it held.
pub fn ledger(claims: &[Claim]) -> Table {
    let mut table = Table::new(
        "Claims ledger",
        "Each claim is checked on every row of its table below, as the row \
         is computed.",
        &["id", "source", "claim", "check", "grid", "rows", "verdict"],
    );
    for c in claims {
        table.push(vec![
            cell(c.id),
            cell(c.source),
            cell(c.statement),
            cell(c.kind),
            c.grid.clone(),
            cell(c.table.rows.len()),
            match c.broken.len() {
                0 => cell("✓ holds"),
                k => format!("✗ {k} broken"),
            },
        ]);
    }
    table
}

/// The ledger's last line: `All 9 claims hold.`, or which broke.
pub fn verdict(claims: &[Claim]) -> String {
    let broken: Vec<&str> = claims.iter().filter(|c| !c.holds()).map(|c| c.id).collect();
    match broken.len() {
        0 => format!("All {} claims hold.", claims.len()),
        k => format!(
            "{k} of {} claims broken: {}.",
            claims.len(),
            broken.join(", ")
        ),
    }
}

/// Panics, naming the broken rows, unless `claim` holds.
#[cfg(test)]
pub(crate) fn assert_holds(claim: Claim) -> Claim {
    assert!(claim.holds(), "{:#?}", claim.broken);
    claim
}

/// `(n, t)` pairs as a grid cell.
pub(crate) fn pairs(configs: &[(usize, usize)]) -> String {
    let pairs: Vec<String> = configs.iter().map(|(n, t)| format!("({n},{t})")).collect();
    pairs.join(" ")
}

/// The three stacks of the paper's evaluation, in table order.
pub(crate) fn paper_stacks(params: Params) -> [NamedStack; 3] {
    ["E_min/P_min", "E_basic/P_basic", "E_fip/P_opt"]
        .map(|name| NamedStack::by_name(name, params).expect("registered"))
}

/// The protocol half of a stack's registered name: `P_min` for
/// `E_min/P_min`.
pub(crate) fn protocol_of(stack: &NamedStack) -> &'static str {
    stack.name().split_once('/').expect("E_x/P_y").1
}

/// What a claim reads off one run.
#[derive(Clone, Debug)]
pub(crate) struct Observed {
    /// Per-agent first decision rounds.
    pub(crate) rounds: Vec<Option<u32>>,
    /// Per-agent decided values.
    pub(crate) values: Vec<Option<Value>>,
    /// Latest decision round of the pattern's nonfaulty agents (`None`
    /// if one never decides).
    pub(crate) max_round: Option<u32>,
    /// Their mean decision round.
    pub(crate) mean_round: Option<f64>,
    /// Logical bits sent (Prop 8.1's accounting).
    pub(crate) bits_sent: u64,
    /// The run's EBA verdict.
    pub(crate) eba: Result<(), SpecViolation>,
}

/// Runs `ctx` against `pattern` from `inits` and observes the run.
pub(crate) fn observe<E, P>(
    ctx: &Context<E, P>,
    pattern: &FailurePattern,
    inits: &[Value],
) -> Observed
where
    E: InformationExchange,
    P: ActionProtocol<E>,
{
    let run = Scenario::of(ctx)
        .pattern(pattern.clone())
        .inits(inits)
        .run()
        .expect("run");
    let nonfaulty = pattern.nonfaulty();
    let (rounds, values) = run.decisions();
    Observed {
        rounds,
        values,
        max_round: run.max_decision_round(nonfaulty),
        mean_round: run.mean_decision_round(nonfaulty),
        bits_sent: Metrics::of(ctx.exchange(), &run, pattern).bits_sent,
        eba: check_eba(ctx.exchange(), &run),
    }
}

/// [`observe`] on a registered stack.
pub(crate) struct Observe<'a>(pub(crate) &'a FailurePattern, pub(crate) &'a [Value]);

impl StackVisitor for Observe<'_> {
    type Output = Observed;

    fn visit<E, P>(self, ctx: &Context<E, P>) -> Observed
    where
        E: InformationExchange + Clone + Sync + 'static,
        P: ActionProtocol<E> + Clone + Sync + 'static,
    {
        observe(ctx, self.0, self.1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_broken_row_fails_the_claim_and_is_named() {
        let mut claim = Claim::new(
            "E0",
            "Prop 0",
            "rounds are small",
            CheckKind::SingleRuns,
            pairs(&[(3, 1)]),
            Table::new("E0", "caption", &["n", "round"]),
        );
        claim.row(vec![cell(3), cell(2)], &[("round ≤ 2", true)]);
        assert!(claim.holds());
        claim.row(vec![cell(4), cell(5)], &[("round ≤ 2", false)]);
        assert!(!claim.holds());
        assert_eq!(claim.broken, ["E0 row `4 | 5`: expected round ≤ 2"]);
        let claims = [claim];
        let ledger = ledger(&claims).to_markdown();
        assert!(
            ledger.contains(
                "| E0 | Prop 0 | rounds are small | single runs | (3,1) | 2 | ✗ 1 broken |"
            ),
            "{ledger}"
        );
        assert_eq!(verdict(&claims), "1 of 1 claims broken: E0.");
    }
}
