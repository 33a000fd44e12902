//! `--fuzz`: the coverage-guided adversary fuzzer behind the CLI.
//!
//! Seeds come from `--corpus` scenarios matching the selected stack and
//! `(n, t)` (when given), falling back to built-in failure-free seeds.
//! The search itself runs in `eba-sim` ([`eba_sim::fuzz::fuzz`]) against
//! the epistemic [`EngineOracle`] — every candidate is judged by the
//! compiled query engine, not the trace predicate — and the shrunk
//! witness is re-confirmed through the independent `eval_recursive`
//! evaluator before the report is rendered and the `.eba` repro written.

use std::fmt::Write as _;
use std::path::Path;

use eba_core::prelude::*;
use eba_epistemic::prelude::*;
use eba_sim::prelude::*;

/// Options of one `--fuzz` invocation.
#[derive(Clone, Debug)]
pub struct FuzzCliConfig {
    /// Model-qualified stack name.
    pub stack: String,
    /// Instance parameters.
    pub n: usize,
    /// Fault tolerance.
    pub t: usize,
    /// RNG seed (`--fuzz-seed`).
    pub seed: u64,
    /// Mutation budget (`--fuzz-iters`).
    pub iterations: usize,
    /// Seed corpus directory (`--corpus`), if any.
    pub corpus: Option<std::path::PathBuf>,
    /// Where to write the shrunk `.eba` repro (`--fuzz-out`), if anywhere.
    pub out: Option<std::path::PathBuf>,
}

/// The rendered outcome of one `--fuzz` invocation.
#[derive(Clone, Debug)]
pub struct FuzzCliReport {
    /// The human-readable report text.
    pub text: String,
    /// Whether a violation was found, shrunk, and recursively confirmed.
    pub found_and_confirmed: bool,
}

struct FuzzRunner {
    params: Params,
    seeds: Vec<Case>,
    config: FuzzConfig,
    out: Option<std::path::PathBuf>,
}

impl StackVisitor for FuzzRunner {
    type Output = Result<FuzzCliReport, EbaError>;

    fn visit<E, P>(self, ctx: &Context<E, P>) -> Self::Output
    where
        E: InformationExchange + Clone + Sync + 'static,
        P: ActionProtocol<E> + Clone + Sync + 'static,
    {
        let qualified = ctx.qualified_name();
        let mut oracle = EngineOracle::new(ctx.clone());
        let report = fuzz(&self.seeds, &self.config, &mut oracle)?;

        let mut text = String::new();
        let _ = writeln!(
            text,
            "## Fuzzing {qualified} (n = {}, t = {})\n",
            self.params.n(),
            self.params.t()
        );
        let _ = writeln!(
            text,
            "seed = {}, budget = {} mutants, seeds = {}: ran {} cases, \
             {} coverage signatures, pool of {}",
            self.config.seed,
            self.config.iterations,
            self.seeds.len(),
            report.cases_run,
            report.coverage,
            report.pool
        );
        let Some(found) = report.found else {
            let _ = writeln!(text, "\nno spec violation found");
            return Ok(FuzzCliReport {
                text,
                found_and_confirmed: false,
            });
        };

        let (fd, fh, fo) = found.first.size();
        let (sd, sh, so) = found.shrunk.size();
        let _ = writeln!(
            text,
            "\nviolation found: {} — {}",
            found.violation.kind, found.violation.detail
        );
        let _ = writeln!(
            text,
            "first sample: {fd} drops, horizon {fh}, {fo} one-inits"
        );
        let _ = writeln!(
            text,
            "shrunk:       {sd} drops, horizon {sh}, {so} one-inits \
             ({} shrink steps)",
            found.shrink_steps
        );

        // Final witness contract: the minimal case must be refuted by the
        // independent recursive evaluator too, not just the engine.
        let confirmed = oracle.confirm_recursively(&found.shrunk)?;
        let confirmed_same = confirmed
            .as_ref()
            .is_some_and(|v| v.kind == found.violation.kind);
        let _ = writeln!(
            text,
            "eval_recursive confirmation: {}",
            match &confirmed {
                Some(v) if confirmed_same => format!("confirmed ({})", v.detail),
                Some(v) => format!("DIFFERENT clause: {}", v.detail),
                None => "NOT CONFIRMED — engine bug?".to_string(),
            }
        );

        let spec = ScenarioSpec {
            stack: ctx.name(),
            model: ctx.model(),
            case: found.shrunk,
        };
        let _ = writeln!(text, "\nminimal scenario:\n```\n{}```", spec.print());
        if let Some(path) = &self.out {
            std::fs::write(path, spec.print()).map_err(|e| {
                EbaError::InvalidInput(format!("--fuzz-out {}: {e}", path.display()))
            })?;
            let _ = writeln!(text, "repro written to {}", path.display());
        }
        Ok(FuzzCliReport {
            text,
            found_and_confirmed: confirmed_same,
        })
    }
}

/// Built-in seeds when no corpus is supplied (or none of it matches):
/// failure-free patterns over a few initial-preference mixes.
fn default_seeds(params: Params) -> Vec<Case> {
    let n = params.n();
    let mut mixed = vec![Value::One; n];
    mixed[0] = Value::Zero;
    [vec![Value::Zero; n], vec![Value::One; n], mixed]
        .into_iter()
        .map(|inits| Case {
            pattern: FailurePattern::failure_free(params),
            inits,
            horizon: params.default_horizon(),
        })
        .collect()
}

/// Runs one `--fuzz` invocation.
///
/// # Errors
///
/// Returns [`EbaError`] for unknown stacks, corpus load failures, and
/// oracle execution failures.
pub fn run(config: &FuzzCliConfig) -> Result<FuzzCliReport, EbaError> {
    let params = Params::new(config.n, config.t)?;
    let stack = NamedStack::by_name(&config.stack, params)?;

    let mut seeds = Vec::new();
    if let Some(dir) = &config.corpus {
        seeds = corpus_seeds(dir, &stack)?;
    }
    if seeds.is_empty() {
        seeds = default_seeds(params);
    }

    stack.visit(FuzzRunner {
        params,
        seeds,
        config: FuzzConfig {
            seed: config.seed,
            iterations: config.iterations,
        },
        out: config.out.clone(),
    })
}

/// Seeds from the corpus scenarios that run the selected stack at the
/// selected parameters.
fn corpus_seeds(dir: &Path, stack: &NamedStack) -> Result<Vec<Case>, EbaError> {
    Ok(crate::corpus::load_dir(dir)?
        .into_iter()
        .map(|loaded| loaded.spec)
        .filter(|spec| {
            spec.qualified_stack() == stack.qualified_name() && spec.params() == stack.params()
        })
        .map(|spec| spec.case)
        .collect())
}
