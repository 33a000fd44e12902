//! The `.eba` textual scenario format: a hand-rolled parser/printer for
//! corpus files describing one scenario each, and [`Case`], the inputs
//! of one run.
//!
//! A scenario file names a registered stack, a failure model, the `(n, t)`
//! parameters, and one [`Case`]: a failure pattern (nonfaulty set plus
//! omission drops), the initial preferences and a horizon:
//!
//! ```text
//! # whisper: agent 0 tells only agent 2 its preference
//! stack = E_naive/P_naive
//! model = general_omission
//! n = 3
//! t = 1
//! horizon = 4
//! nonfaulty = 1 2
//! inits = 0 1 1
//! drop = round 1 from 0 to 0 1
//! ```
//!
//! Lines are `key = value`; `#` starts a comment; blank lines are skipped.
//! Round indices in `drop` lines are 0-based message rounds, matching
//! [`FailurePattern::drop_message`]. The printer emits a canonical form
//! (keys in a fixed order, drops sorted and grouped by round and sender)
//! so `parse ∘ print ≡ id` on [`ScenarioSpec`] values and
//! `print ∘ parse ≡ id` on canonical text.
//!
//! The pattern is built while parsing, so every error of the file's own
//! making is a [`ParseError`] carrying the 1-based source line and the
//! offending field: too many faulty agents, a drop between two nonfaulty
//! agents, a drop at or past the horizon. What is left to admission
//! ([`admit_scenario`], behind [`ScenarioSpec::validate`]) — input shapes
//! and the pattern versus the model — is relocated to the source file
//! through [`FieldLines::locate`].

use std::fmt;

use crate::context::{admit_scenario, error_message, NamedStack, STACK_NAMES};
use crate::failures::{FailureModel, FailurePattern};
use crate::types::{AgentId, AgentSet, EbaError, Params, Value};

/// One run's inputs, as the paper fixes a run (§3): a failure pattern
/// `(N, F)`, the initial preferences and a horizon. The stack it runs on
/// is named elsewhere — by a [`ScenarioSpec`], or by whoever holds the
/// context.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Case {
    /// The failure pattern.
    pub pattern: FailurePattern,
    /// Initial preferences, one per agent.
    pub inits: Vec<Value>,
    /// The run horizon (rounds).
    pub horizon: u32,
}

impl Case {
    /// The case's size in shrink order: recorded drops, then horizon,
    /// then the number of `1` initial preferences. Shrinking only moves
    /// strictly downward in the lexicographic order on this triple.
    pub fn size(&self) -> (usize, u32, usize) {
        (
            self.pattern.count_drops(),
            self.horizon,
            self.inits.iter().filter(|v| **v == Value::One).count(),
        )
    }
}

/// One parsed scenario: a registry stack, the failure model of its
/// environment, and the case it runs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScenarioSpec {
    /// Base stack name (an entry of [`STACK_NAMES`], unqualified).
    pub stack: String,
    /// The failure model of the scenario's environment.
    pub model: FailureModel,
    /// The run: pattern, initial preferences and horizon.
    pub case: Case,
}

/// Source lines (1-based) of the fields of a parsed scenario, for
/// relocating semantic errors back to the file.
#[derive(Clone, Debug, Default)]
pub struct FieldLines {
    /// Line of the `inits` key (0 if defaulted).
    pub inits: usize,
    /// Line of the `nonfaulty` key (0 if defaulted).
    pub nonfaulty: usize,
    /// Line of the first `drop` key (0 if none).
    pub first_drop: usize,
    /// Line of the `horizon` key (0 if defaulted).
    pub horizon: usize,
}

impl FieldLines {
    /// Best-effort source line for one problem reported by
    /// [`ScenarioSpec::validate`]: the
    /// problems are prefixed by the argument they concern (`inits:`,
    /// `horizon:`, `pattern:`) or mention the pattern's drops. Returns 0
    /// when the field never appeared in the file.
    pub fn locate(&self, problem: &str) -> usize {
        if problem.starts_with("inits") {
            self.inits
        } else if problem.starts_with("horizon") {
            self.horizon
        } else if problem.contains("drop") || problem.contains("silent") {
            if self.first_drop != 0 {
                self.first_drop
            } else {
                self.horizon
            }
        } else {
            self.nonfaulty
        }
    }
}

/// A scenario file rejected by [`parse_scenario`]: the offending field and
/// its 1-based source line (0 when the problem is the file as a whole,
/// e.g. a missing required key).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line of the offending input, or 0 for whole-file problems.
    pub line: usize,
    /// The field (key) the problem concerns.
    pub field: &'static str,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "field `{}`: {}", self.field, self.message)
        } else {
            write!(
                f,
                "line {}: field `{}`: {}",
                self.line, self.field, self.message
            )
        }
    }
}

impl std::error::Error for ParseError {}

/// A successfully parsed scenario plus the source lines of its fields.
#[derive(Clone, Debug)]
pub struct ParsedScenario {
    /// The scenario.
    pub spec: ScenarioSpec,
    /// Where each field was defined (for error relocation).
    pub lines: FieldLines,
}

fn err(line: usize, field: &'static str, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        field,
        message: message.into(),
    }
}

fn parse_num<T: std::str::FromStr>(
    line: usize,
    field: &'static str,
    raw: &str,
) -> Result<T, ParseError> {
    raw.trim().parse().map_err(|_| {
        err(
            line,
            field,
            format!("expected a number, got {:?}", raw.trim()),
        )
    })
}

/// Fills a single-valued key's slot with its line and value, refusing a
/// second definition.
fn once<T>(
    slot: &mut Option<(usize, T)>,
    line: usize,
    field: &'static str,
    value: T,
) -> Result<(), ParseError> {
    match slot.replace((line, value)) {
        Some(_) => Err(err(line, field, "duplicate key")),
        None => Ok(()),
    }
}

/// Parses one `.eba` scenario file.
///
/// Every key is checked for shape (required keys present, agent indices
/// inside `0..n`), and the failure pattern is built from the `nonfaulty`
/// and `drop` lines, so more than `t` faulty agents, a drop between two
/// nonfaulty agents or a drop at or past the horizon is rejected at its
/// own line. Admissibility — input shapes versus `(n, t)`, the pattern
/// versus the model — is [`ScenarioSpec::validate`]'s job, whose errors
/// can be relocated to the file via [`FieldLines::locate`].
///
/// # Errors
///
/// Returns a [`ParseError`] naming the offending field and 1-based line.
pub fn parse_scenario(text: &str) -> Result<ParsedScenario, ParseError> {
    let mut stack: Option<(usize, String)> = None;
    let mut model: Option<(usize, FailureModel)> = None;
    let mut n: Option<(usize, usize)> = None;
    let mut t: Option<(usize, usize)> = None;
    let mut horizon: Option<(usize, u32)> = None;
    let mut nonfaulty_raw: Option<(usize, String)> = None;
    let mut inits_raw: Option<(usize, String)> = None;
    let mut drops_raw: Vec<(usize, String)> = Vec::new();

    for (idx, raw_line) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw_line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(err(lineno, "line", "expected `key = value`"));
        };
        let key = key.trim();
        let value = value.trim().to_string();
        match key {
            "stack" => once(&mut stack, lineno, "stack", value)?,
            "model" => {
                let parsed = FailureModel::by_name(&value)
                    .map_err(|e| err(lineno, "model", error_message(&e)))?;
                once(&mut model, lineno, "model", parsed)?;
            }
            "n" => once(&mut n, lineno, "n", parse_num(lineno, "n", &value)?)?,
            "t" => once(&mut t, lineno, "t", parse_num(lineno, "t", &value)?)?,
            "horizon" => once(
                &mut horizon,
                lineno,
                "horizon",
                parse_num(lineno, "horizon", &value)?,
            )?,
            "nonfaulty" => once(&mut nonfaulty_raw, lineno, "nonfaulty", value)?,
            "inits" => once(&mut inits_raw, lineno, "inits", value)?,
            "drop" => drops_raw.push((lineno, value)),
            other => {
                return Err(err(
                    lineno,
                    "line",
                    format!(
                        "unknown key {other:?}; expected one of stack, model, n, t, \
                         horizon, nonfaulty, inits, drop"
                    ),
                ));
            }
        }
    }

    let (stack_line, stack) = stack.ok_or_else(|| err(0, "stack", "missing required key"))?;
    if stack.contains('@') {
        return Err(err(
            stack_line,
            "stack",
            "use the base stack name and a separate `model` key (no `@` qualifier)",
        ));
    }
    if !STACK_NAMES.contains(&stack.as_str()) {
        return Err(err(
            stack_line,
            "stack",
            format!(
                "unknown stack {stack:?}; registered stacks: {}",
                STACK_NAMES.join(", ")
            ),
        ));
    }
    let (_, model) = model.ok_or_else(|| err(0, "model", "missing required key"))?;
    let (n_line, n) = n.ok_or_else(|| err(0, "n", "missing required key"))?;
    let (_, t) = t.ok_or_else(|| err(0, "t", "missing required key"))?;
    let params = Params::new(n, t).map_err(|e| err(n_line, "n", error_message(&e)))?;

    let (inits_line, inits_raw) =
        inits_raw.ok_or_else(|| err(0, "inits", "missing required key"))?;
    let mut inits = Vec::new();
    for token in inits_raw.split_whitespace() {
        match token {
            "0" => inits.push(Value::Zero),
            "1" => inits.push(Value::One),
            other => {
                return Err(err(
                    inits_line,
                    "inits",
                    format!("expected a space-separated list of 0/1 bits, got {other:?}"),
                ));
            }
        }
    }

    let (nonfaulty_line, nonfaulty) = match nonfaulty_raw {
        None => (0, AgentSet::full(params.n())),
        Some((lineno, raw)) if raw == "all" => (lineno, AgentSet::full(params.n())),
        Some((lineno, raw)) => {
            let mut set = AgentSet::default();
            for token in raw.split_whitespace() {
                let i: usize = parse_num(lineno, "nonfaulty", token)?;
                if i >= params.n() {
                    return Err(err(
                        lineno,
                        "nonfaulty",
                        format!("agent {i} is outside 0..{}", params.n()),
                    ));
                }
                set.insert(AgentId::new(i));
            }
            (lineno, set)
        }
    };
    let mut pattern = FailurePattern::new(params, nonfaulty)
        .map_err(|e| err(nonfaulty_line, "nonfaulty", error_message(&e)))?;

    let (horizon_line, horizon) = horizon.unwrap_or((0, params.default_horizon()));
    for (lineno, raw) in &drops_raw {
        parse_drop(*lineno, raw, horizon, &mut pattern)?;
    }

    Ok(ParsedScenario {
        spec: ScenarioSpec {
            stack,
            model,
            case: Case {
                pattern,
                inits,
                horizon,
            },
        },
        lines: FieldLines {
            inits: inits_line,
            nonfaulty: nonfaulty_line,
            first_drop: drops_raw.first().map_or(0, |(lineno, _)| *lineno),
            horizon: horizon_line,
        },
    })
}

/// Parses one `drop = round <m> from <i> to <j> [<j>...]` value into
/// `pattern`.
fn parse_drop(
    lineno: usize,
    raw: &str,
    horizon: u32,
    pattern: &mut FailurePattern,
) -> Result<(), ParseError> {
    let tokens: Vec<&str> = raw.split_whitespace().collect();
    let shape = "expected `round <m> from <i> to <j> [<j>...]`";
    if tokens.len() < 6 || tokens[0] != "round" || tokens[2] != "from" || tokens[4] != "to" {
        return Err(err(lineno, "drop", format!("{shape}, got {raw:?}")));
    }
    let round: u32 = parse_num(lineno, "drop", tokens[1])?;
    if round >= horizon {
        return Err(err(
            lineno,
            "drop",
            format!("round {round} is at or past the horizon {horizon}"),
        ));
    }
    let n = pattern.params().n();
    let agent = |token: &str| -> Result<AgentId, ParseError> {
        let i: usize = parse_num(lineno, "drop", token)?;
        if i >= n {
            return Err(err(lineno, "drop", format!("agent {i} is outside 0..{n}")));
        }
        Ok(AgentId::new(i))
    };
    let from = agent(tokens[3])?;
    for token in &tokens[5..] {
        pattern
            .drop_message(round, from, agent(token)?)
            .map_err(|e| err(lineno, "drop", error_message(&e)))?;
    }
    Ok(())
}

impl ScenarioSpec {
    /// The `(n, t)` parameters, as the case's pattern records them.
    pub fn params(&self) -> Params {
        self.case.pattern.params()
    }

    /// The model-qualified registry name (`"<stack>@<model>"`, or the bare
    /// base name for the default sending-omissions model), resolvable via
    /// [`NamedStack::by_name`].
    pub fn qualified_stack(&self) -> String {
        format!("{}{}", self.stack, self.model.suffix())
    }

    /// Builds the stack this scenario runs on.
    ///
    /// # Errors
    ///
    /// Returns [`EbaError::InvalidInput`] if the stack name is unknown
    /// (cannot happen for parsed specs) or the parameters are invalid.
    pub fn to_stack(&self) -> Result<NamedStack, EbaError> {
        NamedStack::by_name(&self.qualified_stack(), self.params())
    }

    /// Checks the scenario's semantic admissibility with the one
    /// admission check every entry point applies ([`admit_scenario`]):
    /// input shapes versus `(n, t)` and the pattern versus the model up
    /// to the horizon.
    ///
    /// # Errors
    ///
    /// Returns [`EbaError::InvalidInput`] listing every problem found,
    /// `; `-separated; use [`FieldLines::locate`] to report each against
    /// the source file.
    pub fn validate(&self) -> Result<(), EbaError> {
        let case = &self.case;
        admit_scenario(
            self.params(),
            self.model,
            &case.pattern,
            &case.inits,
            case.horizon,
        )
    }

    /// Prints the canonical `.eba` form: fixed key order, drops sorted and
    /// grouped by `(round, sender)`, the full nonfaulty set spelled `all`.
    pub fn print(&self) -> String {
        use fmt::Write as _;
        let Case {
            pattern,
            inits,
            horizon,
        } = &self.case;
        let params = self.params();
        let mut out = String::new();
        let _ = writeln!(out, "stack = {}", self.stack);
        let _ = writeln!(out, "model = {}", self.model.name());
        let _ = writeln!(out, "n = {}", params.n());
        let _ = writeln!(out, "t = {}", params.t());
        let _ = writeln!(out, "horizon = {horizon}");
        if pattern.nonfaulty() == AgentSet::full(params.n()) {
            let _ = writeln!(out, "nonfaulty = all");
        } else {
            let agents: Vec<String> = pattern
                .nonfaulty()
                .iter()
                .map(|a| a.index().to_string())
                .collect();
            let _ = writeln!(out, "nonfaulty = {}", agents.join(" "));
        }
        let bits: Vec<&str> = inits
            .iter()
            .map(|v| if *v == Value::One { "1" } else { "0" })
            .collect();
        let _ = writeln!(out, "inits = {}", bits.join(" "));

        let drops: Vec<_> = pattern.drops().collect();
        for group in drops.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
            let (m, from, _) = group[0];
            let receivers: Vec<String> = group.iter().map(|d| d.2.index().to_string()).collect();
            let _ = writeln!(
                out,
                "drop = round {m} from {} to {}",
                from.index(),
                receivers.join(" ")
            );
        }
        out
    }
}

impl fmt::Display for ScenarioSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.print())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn whisper_text() -> &'static str {
        "# whisper\n\
         stack = E_naive/P_naive\n\
         model = general_omission\n\
         n = 3\n\
         t = 1\n\
         horizon = 4\n\
         nonfaulty = 1 2\n\
         inits = 0 1 1\n\
         drop = round 0 from 0 to 0 1 2\n\
         drop = round 1 from 0 to 0 1\n\
         drop = round 2 from 0 to 0 1 2\n\
         drop = round 3 from 0 to 0 1 2\n"
    }

    #[test]
    fn parses_and_round_trips() {
        let parsed = parse_scenario(whisper_text()).unwrap();
        let spec = &parsed.spec;
        assert_eq!(spec.stack, "E_naive/P_naive");
        assert_eq!(spec.model, FailureModel::GeneralOmission);
        assert_eq!(spec.params().n(), 3);
        assert_eq!(spec.case.horizon, 4);
        assert_eq!(spec.case.pattern.count_drops(), 11);
        assert_eq!(parsed.lines.inits, 8);
        spec.validate().unwrap();

        let printed = spec.print();
        let reparsed = parse_scenario(&printed).unwrap().spec;
        assert_eq!(&reparsed, spec);
        // Canonical text is a fixpoint of print ∘ parse.
        assert_eq!(reparsed.print(), printed);
    }

    #[test]
    fn errors_name_field_and_line() {
        let bad =
            "stack = E_naive/P_naive\nmodel = general_omission\nn = 3\nt = 1\ninits = 0 2 1\n";
        let e = parse_scenario(bad).unwrap_err();
        assert_eq!(e.field, "inits");
        assert_eq!(e.line, 5);
        assert!(e.to_string().contains("line 5"), "{e}");

        let missing = "model = crash\nn = 3\nt = 1\ninits = 0 0 0\n";
        let e = parse_scenario(missing).unwrap_err();
        assert_eq!(e.field, "stack");
        assert_eq!(e.line, 0);
    }

    #[test]
    fn drop_grammar_is_checked() {
        let text = "stack = E_min/P_min\nmodel = general_omission\nn = 3\nt = 1\n\
                    inits = 0 0 0\nnonfaulty = 1 2\ndrop = round 1 of 0 to 2\n";
        let e = parse_scenario(text).unwrap_err();
        assert_eq!(e.field, "drop");
        assert_eq!(e.line, 7);
    }
}
