//! `--corpus <dir>`: load a directory of `.eba` scenario files and run
//! the per-scenario battery.
//!
//! Each file is parsed ([`parse_scenario`]), semantically validated
//! (shape against `(n, t)`, pattern against the model up to the horizon),
//! and executed once through the lockstep simulator; the battery table
//! reports every scenario's decisions and spec verdict. All load-time
//! errors carry the source file path — and, for parse and shape problems,
//! the 1-based line of the offending field ([`eba_core::corpus::FieldLines::locate`]).

use std::fs;
use std::path::{Path, PathBuf};

use eba_core::prelude::*;
use eba_sim::prelude::*;

use crate::table::{cell, Table};

/// One scenario loaded from disk.
#[derive(Clone, Debug)]
pub struct LoadedScenario {
    /// Where it came from.
    pub path: PathBuf,
    /// The parsed scenario.
    pub spec: ScenarioSpec,
}

/// Loads every `.eba` file in `dir` (sorted by file name), rejecting the
/// whole corpus on the first malformed or inadmissible scenario.
///
/// # Errors
///
/// Returns [`EbaError::InvalidInput`] whose message is prefixed
/// `<path>:<line>:` for parse errors and relocatable shape/admissibility
/// errors, or `<path>:` when no line applies.
pub fn load_dir(dir: &Path) -> Result<Vec<LoadedScenario>, EbaError> {
    let entries =
        fs::read_dir(dir).map_err(|e| EbaError::InvalidInput(format!("{}: {e}", dir.display())))?;
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "eba"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(EbaError::InvalidInput(format!(
            "{}: no .eba files found",
            dir.display()
        )));
    }
    let mut out = Vec::new();
    for path in paths {
        let text = fs::read_to_string(&path)
            .map_err(|e| EbaError::InvalidInput(format!("{}: {e}", path.display())))?;
        let parsed = eba_core::corpus::parse_scenario(&text).map_err(|e| {
            EbaError::InvalidInput(format!("{}:{}", path.display(), relocate_parse(&e)))
        })?;
        // Semantic admissibility, every problem relocated to the file
        // via the recorded field lines: shape problems name
        // `inits:`/`pattern:`; model problems mention the drops.
        if let Err(e) = parsed.spec.validate() {
            let located: Vec<String> = eba_core::context::error_message(&e)
                .split("; ")
                .map(|problem| match parsed.lines.locate(problem) {
                    0 => format!("{}: {problem}", path.display()),
                    line => format!("{}:{line}: {problem}", path.display()),
                })
                .collect();
            return Err(EbaError::InvalidInput(located.join("; ")));
        }
        out.push(LoadedScenario {
            path,
            spec: parsed.spec,
        });
    }
    Ok(out)
}

/// Renders a parse error as `:<line>: field ...` (no line for whole-file
/// problems).
fn relocate_parse(e: &eba_core::corpus::ParseError) -> String {
    if e.line == 0 {
        format!(" field `{}`: {}", e.field, e.message)
    } else {
        format!("{}: field `{}`: {}", e.line, e.field, e.message)
    }
}

/// One battery row: a scenario's single-run outcome.
#[derive(Clone, Debug)]
pub struct CorpusRow {
    /// Source file (name only).
    pub file: String,
    /// Model-qualified stack.
    pub stack: String,
    /// The scenario.
    pub spec: ScenarioSpec,
    /// Each agent's decision at the horizon.
    pub decisions: Vec<Option<Value>>,
    /// The spec verdict: `None` = EBA holds on this run.
    pub violation: Option<Violation>,
}

/// Runs every loaded scenario once and tabulates the outcomes.
///
/// # Errors
///
/// Propagates load and execution failures (each already naming its file).
pub fn run(dir: &Path) -> Result<(Vec<CorpusRow>, Table), EbaError> {
    let scenarios = load_dir(dir)?;
    let mut rows = Vec::new();
    let mut table = Table::new(
        format!("Corpus battery — {}", dir.display()),
        format!("{} scenarios, one lockstep run each", scenarios.len()),
        &[
            "file", "stack", "(n, t)", "horizon", "drops", "decided", "verdict",
        ],
    );
    for loaded in scenarios {
        let spec = loaded.spec;
        let mut stack = spec.to_stack()?;
        let CaseOutcome {
            decisions,
            violation,
            ..
        } = stack.check(&spec.case).map_err(|e| {
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
        let decided: Vec<String> = decisions
            .iter()
            .map(|d| d.map_or_else(|| "⊥".to_string(), |v| v.to_string()))
            .collect();
        let verdict = violation
            .as_ref()
            .map_or_else(|| "ok".to_string(), |v| v.kind.clone());
        table.push(vec![
            cell(&file),
            cell(stack.qualified_name()),
            cell(format!("({}, {})", spec.params().n(), spec.params().t())),
            cell(spec.case.horizon),
            cell(spec.case.pattern.count_drops()),
            cell(decided.join(" ")),
            cell(&verdict),
        ]);
        rows.push(CorpusRow {
            file,
            stack: stack.qualified_name(),
            spec,
            decisions,
            violation,
        });
    }
    Ok((rows, table))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_committed_corpus_violates_agreement_on_exactly_the_whisper_scenarios() {
        let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../corpus");
        let (rows, _) = run(&dir).unwrap();
        for row in &rows {
            assert_eq!(
                row.violation.as_ref().map(|v| v.kind.as_str()),
                row.file.contains("whisper").then_some("agreement"),
                "{}",
                row.file
            );
        }
        let violating = rows.iter().filter(|r| r.violation.is_some()).count();
        assert_eq!(violating, 2, "both whisper scenarios are committed");
    }
}
