//! `--explain`: counterexample reports behind the experiments CLI.
//!
//! The battery tables (`--model`, `--stack`) report failing spec checks as a
//! bare count (`E_naive/P_naive@general_omission`: 98/104 runs EBA-ok).
//! With `--explain`, a failing row is re-examined through the compiled
//! query engine: the EBA spec is posed as one batched
//! [`QueryPlan`] over the row's
//! interpreted system, and every failing property is reported with its
//! witnessing `(run, time)` point plus the run's failure pattern
//! footprint (nonfaulty/faulty split), initial preferences, and decision
//! outcome — the [`Verdict`] counterexamples the engine carries, instead
//! of just a tally.

use std::fmt;

use eba_core::prelude::*;
use eba_epistemic::prelude::*;
use eba_sim::prelude::*;

/// Run-count ceiling the CLI passes to [`explain`] as `limit`: a failing
/// row with more runs keeps its streamed verdict but is not rebuilt as
/// an interpreted system (the 25.2M-run `E_fip/P_opt@general_omission`
/// set would be a 126M-point system).
pub const SYSTEM_BUILD_LIMIT: usize = 2_000_000;

/// One failing spec property with its witnessing point and the
/// witnessing run's visible configuration.
#[derive(Clone, Debug)]
pub struct SpecCounterexample {
    /// Human-readable name of the violated property.
    pub property: String,
    /// The witnessing run index within the interpreted system.
    pub run: usize,
    /// The witnessing time.
    pub time: u32,
    /// Whether the independent legacy recursion (`satisfied_at`)
    /// confirmed the witness — always re-checked, in release too; a
    /// `false` here means an engine bug and is flagged in the rendered
    /// report.
    pub oracle_confirmed: bool,
    /// The run's nonfaulty set `N` (the failure pattern's footprint —
    /// runs are deduplicated by `(N, trajectory)`, so `N` plus the
    /// trajectory is everything the logic can see of the pattern).
    pub nonfaulty: AgentSet,
    /// The run's initial preferences.
    pub inits: Vec<Value>,
    /// Every agent's `decided` component at the horizon of that run.
    pub horizon_decisions: Vec<Option<Value>>,
}

/// The `--explain` report for one stack: every failing EBA spec formula
/// with a machine-checked counterexample.
#[derive(Clone, Debug)]
pub struct ExplainReport {
    /// The model-qualified stack name.
    pub stack: String,
    /// Runs in the interpreted system the spec was checked over.
    pub runs: usize,
    /// Spec formulas posed (agreement pairs, strong validity,
    /// termination).
    pub properties: usize,
    /// The failing properties, one witness each (empty = the formula
    /// spec holds everywhere and the row's failures are outside the
    /// formula battery's scope).
    pub findings: Vec<SpecCounterexample>,
}

impl fmt::Display for ExplainReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "### Counterexamples: {} — {}/{} spec formulas fail over {} runs",
            self.stack,
            self.findings.len(),
            self.properties,
            self.runs
        )?;
        for c in &self.findings {
            let faulty = c.nonfaulty.complement(self.agents());
            let flag = if c.oracle_confirmed {
                ""
            } else {
                " [NOT CONFIRMED by the legacy oracle — engine bug?]"
            };
            writeln!(
                f,
                "* `{}` fails at (run {}, time {}){flag}",
                c.property, c.run, c.time
            )?;
            write!(
                f,
                "    nonfaulty = {}, faulty = {}, inits = [",
                c.nonfaulty, faulty
            )?;
            for (k, v) in c.inits.iter().enumerate() {
                write!(f, "{}{v}", if k > 0 { ", " } else { "" })?;
            }
            write!(f, "], decided at horizon: ")?;
            for (k, d) in c.horizon_decisions.iter().enumerate() {
                let rendered = d.map_or_else(|| "⊥".to_string(), |v| v.to_string());
                write!(f, "{}a{k} = {rendered}", if k > 0 { ", " } else { "" })?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

impl ExplainReport {
    fn agents(&self) -> usize {
        self.findings.first().map_or(0, |c| c.inits.len())
    }
}

struct Explainer {
    horizon: u32,
    limit: usize,
}

impl StackVisitor for Explainer {
    type Output = Result<ExplainReport, EbaError>;

    fn visit<E, P>(self, ctx: &Context<E, P>) -> Result<ExplainReport, EbaError>
    where
        E: InformationExchange + Clone + Sync + 'static,
        P: ActionProtocol<E> + Clone + Sync + 'static,
    {
        let n = ctx.params().n();
        let sys = InterpretedSystem::from_context(
            ctx.clone(),
            self.horizon,
            self.limit,
            Parallelism::Auto,
        )?;

        // The EBA spec as named formulas (shared with the fuzzer's
        // engine oracle): one compiled batch, shared leaves interned
        // once, witnesses from verdicts, every witness re-checked through
        // the independent legacy recursion (`check_spec`). An unconfirmed
        // witness would mean an engine bug — it is still reported, but
        // loudly flagged.
        let properties = eba_spec_properties(n).len();
        let mut findings = Vec::new();
        for v in check_spec(&sys) {
            let horizon_point = sys.point(v.run, sys.horizon());
            findings.push(SpecCounterexample {
                property: v.property,
                run: v.run,
                time: v.time,
                oracle_confirmed: v.oracle_confirmed,
                nonfaulty: sys.nonfaulty(v.run),
                inits: sys.inits(v.run).to_vec(),
                horizon_decisions: AgentId::all(n)
                    .map(|a| sys.decided_at(horizon_point, a))
                    .collect(),
            });
        }
        Ok(ExplainReport {
            stack: ctx.qualified_name(),
            runs: sys.run_count(),
            properties,
            findings,
        })
    }
}

/// Builds the interpreted system of the (optionally model-qualified)
/// registered stack `name` at `(n, t)` and reports a counterexample for
/// every failing EBA spec formula.
///
/// # Errors
///
/// Returns [`EbaError::InvalidInput`] for an unknown stack name, and
/// propagates system-construction failures — in particular when the
/// run set exceeds `limit`, which callers should surface as "row too
/// large to explain" rather than a hard failure.
pub fn explain(name: &str, n: usize, t: usize, limit: usize) -> Result<ExplainReport, EbaError> {
    let params = Params::new(n, t)?;
    let stack = NamedStack::by_name(name, params)?;
    stack.visit(Explainer {
        horizon: params.default_horizon(),
        limit,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn naive_stack_failures_carry_verified_witnesses() {
        // The introduction's protocol violates Agreement under sending
        // omissions; --explain must pin a (run, time) witness that the
        // independent recursive oracle confirms.
        let report = explain("E_naive/P_naive", 3, 1, 1_000_000).unwrap();
        assert!(!report.findings.is_empty(), "agreement must fail");
        let mut sys_checked = 0usize;
        for c in &report.findings {
            assert!(c.property.starts_with("Agreement"), "{}", c.property);
            assert!(c.oracle_confirmed, "{}", c.property);
            assert_eq!(c.inits.len(), 3);
            assert!(c.nonfaulty.len() >= 2, "n - t nonfaulty");
            // Witness shape: two nonfaulty agents split their decision.
            let decided: Vec<Option<Value>> = c
                .nonfaulty
                .iter()
                .map(|a| c.horizon_decisions[a.index()])
                .collect();
            assert!(decided.contains(&Some(Value::Zero)));
            assert!(decided.contains(&Some(Value::One)));
            sys_checked += 1;
        }
        assert!(sys_checked > 0);
        let rendered = report.to_string();
        assert!(rendered.contains("Agreement"));
        assert!(rendered.contains("nonfaulty"));
    }

    #[test]
    fn clean_stacks_have_no_findings() {
        let report = explain("E_min/P_min@crash", 3, 1, 1_000_000).unwrap();
        assert!(report.findings.is_empty(), "{report}");
        assert!(report.properties > 0);
    }

    #[test]
    fn oversized_rows_are_reported_as_errors_not_truncated() {
        let err = explain("E_min/P_min", 3, 1, 2).unwrap_err();
        assert!(err.to_string().contains("limit"), "{err}");
    }
}
