//! `--estimate`: Monte Carlo statistical model checking behind the CLI.
//!
//! Where the `--stack`/`--model` batteries enumerate every admissible
//! run, `--estimate` samples: it draws seeded i.i.d. trials from an
//! explicit adversary mixture ([`SampleScheme`]), judges each against
//! the EBA spec, and reports the violation probability with Wilson and
//! Clopper–Pearson confidence intervals — estimated EBA validity with an
//! error bar, at instance sizes (`n = 16, t = 4` and beyond) no
//! exhaustive enumeration can touch.
//!
//! `--self-check` cross-validates the estimator on the spot: for small
//! instances the exact violation probability of the very same mixture is
//! computed by weighted enumeration
//! ([`exact_violation_probability`]) and the report states whether the
//! interval brackets it. `--estimate-out` exports the highest-novelty
//! violating samples as `.eba` repros — the same corpus format `--fuzz`
//! seeds from, so the fuzzer and the estimator share one repro path.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use eba_core::prelude::*;
use eba_sim::prelude::Parallelism;
use eba_stat::prelude::*;

use crate::table::{cell, Table};

/// Options of one `--estimate` invocation.
#[derive(Clone, Debug)]
pub struct EstimateCliConfig {
    /// Stack name, optionally model-qualified.
    pub stack: String,
    /// Number of agents.
    pub n: usize,
    /// Fault tolerance.
    pub t: usize,
    /// Trial budget (`--trials`).
    pub trials: u64,
    /// Root RNG seed (`--seed`).
    pub seed: u64,
    /// Two-sided confidence level (`--confidence`).
    pub confidence: f64,
    /// Sampling mixture (`--strata`).
    pub scheme: SampleScheme,
    /// Run horizon; defaults to the instance's `default_horizon()`.
    pub horizon: Option<u32>,
    /// Worker threads (`--workers`; 0 = auto).
    pub workers: usize,
    /// Cross-validate against the exact reference (`--self-check`).
    pub self_check: bool,
    /// Directory for `.eba` repros of violating samples (`--estimate-out`).
    pub out: Option<PathBuf>,
}

impl Default for EstimateCliConfig {
    fn default() -> Self {
        EstimateCliConfig {
            stack: "E_min/P_min".into(),
            n: 3,
            t: 1,
            trials: 100_000,
            seed: 0xEBA,
            confidence: 0.95,
            scheme: SampleScheme::Stratified,
            horizon: None,
            workers: 0,
            self_check: false,
            out: None,
        }
    }
}

/// The self-check verdict: the exact mixture probability and whether the
/// Monte Carlo interval brackets it.
#[derive(Clone, Copy, Debug)]
pub struct SelfCheckOutcome {
    /// Exact violation probability of the plan's mixture.
    pub exact: f64,
    /// Whether the Wilson interval contains it.
    pub within: bool,
}

/// The outcome of one `--estimate` invocation.
#[derive(Clone, Debug)]
pub struct EstimateCliReport {
    /// Human-readable report (headline, strata table, repro notes).
    pub text: String,
    /// The finished estimate.
    pub estimate: Estimate,
    /// The self-check verdict, when `--self-check` ran.
    pub self_check: Option<SelfCheckOutcome>,
    /// `.eba` repro files written under `--estimate-out`.
    pub repro_paths: Vec<PathBuf>,
}

/// Probability formatting: exact zeros stay `0`, small magnitudes go
/// scientific, the rest print with six decimals.
fn fmt_p(p: f64) -> String {
    if p == 0.0 {
        "0".into()
    } else if p < 1e-3 {
        format!("{p:.3e}")
    } else {
        format!("{p:.6}")
    }
}

/// Runs one `--estimate` invocation against a named stack.
///
/// # Errors
///
/// Returns [`EbaError`] for unknown stacks, invalid plans, execution
/// failures, unwritable repro files, and self-check requests beyond the
/// exact reference's enumeration budget.
pub fn run(config: &EstimateCliConfig) -> Result<EstimateCliReport, EbaError> {
    let params = Params::new(config.n, config.t)?;
    let stack = NamedStack::by_name(&config.stack, params)?;
    let horizon = config.horizon.unwrap_or_else(|| params.default_horizon());
    let plan = TrialPlan {
        trials: config.trials,
        seed: config.seed,
        confidence: config.confidence,
        horizon,
        scheme: config.scheme,
    };
    let parallelism = match config.workers {
        0 => Parallelism::Auto,
        k => Parallelism::Fixed(k),
    };
    let est = estimate(&stack, &plan, parallelism)?;

    let mut text = String::new();
    let _ = writeln!(
        text,
        "## Statistical check: {} (n = {}, t = {})\n",
        est.stack, est.n, est.t
    );
    let _ = writeln!(
        text,
        "plan: {} trials, scheme {}, seed {:#x}, horizon {}, {:.0}% confidence",
        est.trials,
        est.scheme,
        est.seed,
        est.horizon,
        est.confidence * 100.0
    );
    let _ = writeln!(
        text,
        "run:  {} violations on {} workers in {:.2}s ({:.0} trials/s)",
        est.violations,
        est.workers,
        est.elapsed_seconds,
        est.trials_per_sec()
    );
    let _ = writeln!(
        text,
        "violation probability: p̂ = {} ± {} — Wilson [{}, {}], Clopper–Pearson [{}, {}]",
        fmt_p(est.violation_rate()),
        fmt_p(est.wilson.half_width()),
        fmt_p(est.wilson.lo),
        fmt_p(est.wilson.hi),
        fmt_p(est.clopper_pearson.lo),
        fmt_p(est.clopper_pearson.hi),
    );
    let validity = est.validity_interval();
    let _ = writeln!(
        text,
        "estimated EBA validity: {} (≥ {} at {:.0}% confidence)",
        fmt_p(est.validity()),
        fmt_p(validity.lo),
        est.confidence * 100.0
    );
    if est.violations > 0 {
        let kinds: Vec<String> = VIOLATION_KINDS
            .iter()
            .zip(&est.kind_counts)
            .filter(|(_, c)| **c > 0)
            .map(|(k, c)| format!("{k}: {c}"))
            .collect();
        let _ = writeln!(text, "violated clauses: {}", kinds.join(", "));
    }
    let _ = writeln!(text, "\n{}", strata_table(&est));

    let self_check = if config.self_check {
        let exact = exact_violation_probability(&stack, &plan)?;
        let within = est.wilson.contains(exact);
        let _ = writeln!(
            text,
            "self-check: exact violation probability {} — estimate interval {}",
            fmt_p(exact),
            if within {
                "within bounds"
            } else {
                "OUTSIDE BOUNDS"
            }
        );
        Some(SelfCheckOutcome { exact, within })
    } else {
        None
    };

    let mut repro_paths = Vec::new();
    if let Some(dir) = &config.out {
        repro_paths = write_repros(dir, &stack, &est)?;
        for path in &repro_paths {
            let _ = writeln!(text, "repro written to {}", path.display());
        }
    } else if !est.repros.is_empty() {
        let _ = writeln!(
            text,
            "{} violating sample(s) captured (pass --estimate-out <dir> to export .eba repros)",
            est.repros.len()
        );
    }

    Ok(EstimateCliReport {
        text,
        estimate: est,
        self_check,
        repro_paths,
    })
}

/// The per-stratum allocation table.
fn strata_table(est: &Estimate) -> Table {
    let mut table = Table::new(
        format!("Strata — {} scheme", est.scheme),
        "per-stratum trial allocation and observed violations",
        &[
            "faulty",
            "drop prob",
            "weight",
            "trials",
            "violations",
            "rate",
        ],
    );
    for s in &est.strata {
        let rate = if s.trials == 0 {
            "—".to_string()
        } else {
            fmt_p(s.violations as f64 / s.trials as f64)
        };
        table.push(vec![
            cell(s.stratum.faulty),
            cell(format!("{:.2}", s.stratum.drop_prob)),
            cell(format!("{:.3}", s.stratum.weight)),
            cell(s.trials),
            cell(s.violations),
            cell(rate),
        ]);
    }
    table
}

/// Writes the estimate's violating samples as `.eba` scenarios under
/// `dir` (created if missing), named `stat_<k>_<clause>.eba` — loadable
/// by `--corpus` and usable as `--fuzz` seeds.
fn write_repros(dir: &Path, stack: &NamedStack, est: &Estimate) -> Result<Vec<PathBuf>, EbaError> {
    if est.repros.is_empty() {
        return Ok(Vec::new());
    }
    std::fs::create_dir_all(dir)
        .map_err(|e| EbaError::InvalidInput(format!("--estimate-out {}: {e}", dir.display())))?;
    let mut paths = Vec::new();
    for (k, repro) in est.repros.iter().enumerate() {
        let spec = ScenarioSpec {
            stack: stack.name().to_string(),
            model: stack.model(),
            case: repro.case.clone(),
        };
        let path = dir.join(format!("stat_{:02}_{}.eba", k + 1, repro.kind));
        std::fs::write(&path, spec.print())
            .map_err(|e| EbaError::InvalidInput(format!("{}: {e}", path.display())))?;
        paths.push(path);
    }
    Ok(paths)
}

/// Runs `--estimate` over every scenario of a `.eba` corpus directory:
/// each scenario's stack and horizon become an estimate target, with the
/// scenario's instance parameters.
///
/// # Errors
///
/// Propagates corpus load failures (each naming its file) and estimate
/// failures.
pub fn run_corpus(dir: &Path, config: &EstimateCliConfig) -> Result<Table, EbaError> {
    let scenarios = crate::corpus::load_dir(dir)?;
    let mut table = Table::new(
        format!("Statistical corpus check — {}", dir.display()),
        format!(
            "{} scenarios, {} trials each, {} scheme, seed {:#x}",
            scenarios.len(),
            config.trials,
            config.scheme.name(),
            config.seed
        ),
        &[
            "file",
            "stack",
            "(n, t)",
            "violations",
            "p̂",
            "wilson",
            "validity ≥",
        ],
    );
    for loaded in scenarios {
        let spec = &loaded.spec;
        let stack = spec.to_stack()?;
        let plan = TrialPlan {
            trials: config.trials,
            seed: config.seed,
            confidence: config.confidence,
            horizon: spec.case.horizon,
            scheme: config.scheme,
        };
        let parallelism = match config.workers {
            0 => Parallelism::Auto,
            k => Parallelism::Fixed(k),
        };
        let est = estimate(&stack, &plan, parallelism).map_err(|e| {
            EbaError::InvalidInput(format!(
                "{}: {}",
                loaded.path.display(),
                eba_core::context::error_message(&e)
            ))
        })?;
        let file = loaded.path.file_name().map_or_else(
            || loaded.path.display().to_string(),
            |f| f.to_string_lossy().into_owned(),
        );
        table.push(vec![
            cell(&file),
            cell(&est.stack),
            cell(format!("({}, {})", est.n, est.t)),
            cell(est.violations),
            cell(fmt_p(est.violation_rate())),
            cell(format!(
                "[{}, {}]",
                fmt_p(est.wilson.lo),
                fmt_p(est.wilson.hi)
            )),
            cell(fmt_p(est.validity_interval().lo)),
        ]);
    }
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(stack: &str) -> EstimateCliConfig {
        EstimateCliConfig {
            stack: stack.into(),
            trials: 2_048,
            workers: 2,
            ..EstimateCliConfig::default()
        }
    }

    #[test]
    fn a_correct_stack_reports_full_validity() {
        let report = run(&tiny("E_min/P_min@sending_omission")).unwrap();
        assert_eq!(report.estimate.violations, 0);
        assert!(report.text.contains("estimated EBA validity: 1"));
        assert!(report.text.contains("Strata"));
        assert!(report.repro_paths.is_empty());
    }

    #[test]
    fn self_check_brackets_the_exact_reference() {
        let config = EstimateCliConfig {
            trials: 8_192,
            scheme: SampleScheme::Uniform,
            self_check: true,
            ..tiny("E_naive/P_naive@sending_omission")
        };
        let report = run(&config).unwrap();
        let sc = report.self_check.expect("self-check ran");
        assert!(sc.exact > 0.0);
        assert!(
            sc.within,
            "exact {} vs {:?}",
            sc.exact, report.estimate.wilson
        );
        assert!(report.text.contains("within bounds"));
    }

    #[test]
    fn repros_are_written_as_loadable_scenarios() {
        let dir = std::env::temp_dir().join(format!("eba_stat_repros_{}", std::process::id()));
        let config = EstimateCliConfig {
            out: Some(dir.clone()),
            ..tiny("E_naive/P_naive@general_omission")
        };
        let report = run(&config).unwrap();
        assert!(!report.repro_paths.is_empty());
        // The exported repros are themselves a loadable corpus, and each
        // one replays to a spec violation.
        let (rows, _) = crate::corpus::run(&dir).unwrap();
        assert_eq!(rows.len(), report.repro_paths.len());
        for row in &rows {
            assert!(row.violation.is_some(), "{}", row.file);
        }
        // And the corpus estimate mode accepts the same directory.
        let table = run_corpus(&dir, &tiny("E_naive/P_naive@general_omission")).unwrap();
        assert_eq!(table.rows.len(), rows.len());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn estimates_match_across_worker_flag_settings() {
        let base = run(&tiny("E_naive/P_naive@sending_omission")).unwrap();
        let sequential = run(&EstimateCliConfig {
            workers: 1,
            ..tiny("E_naive/P_naive@sending_omission")
        })
        .unwrap();
        assert_eq!(base.estimate.violations, sequential.estimate.violations);
        assert_eq!(base.estimate.kind_counts, sequential.estimate.kind_counts);
    }
}
