//! Coverage-guided adversary fuzzing with greedy counterexample shrinking.
//!
//! The fuzzer explores the space of admissible adversaries of one scenario.
//! A candidate is a [`Case`] — pattern, initial preferences and horizon,
//! the type a `.eba` file parses to — and the stack it runs on is fixed
//! by the [`CaseOracle`]. Starting from seed cases it mutates failure
//! patterns and initial preferences under the oracle's context's
//! [`FailureModel`] (a case carries no model of its own), keeps mutants
//! with a *novel* coverage signature (nonfaulty footprint plus decision
//! vector, decision rounds, and verdict), and stops at the first spec
//! violation. The violating case is then minimized by
//! [`shrink_case`] — greedily dropping whole rounds of omissions,
//! shrinking drop sets, lowering the horizon, and canonicalizing initial
//! preferences toward zero — re-checking every candidate through the
//! supplied [`CaseOracle`] and accepting it only if the *same kind* of
//! violation persists.
//!
//! The oracle is pluggable so the search can run against the lockstep
//! simulator ([`TraceOracle`]) while final witnesses are confirmed by an
//! independent checker (the epistemic query engine plus `eval_recursive`,
//! wired up in `eba-experiments`).

use std::collections::HashSet;

use eba_core::context::{Context, NamedStack, StackVisitor};
use eba_core::corpus::Case;
use eba_core::exchange::InformationExchange;
use eba_core::failures::{FailureModel, FailurePattern};
use eba_core::protocols::ActionProtocol;
use eba_core::types::{AgentId, EbaError, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::scenario::Scenario;
use crate::spec::{check_eba, SpecViolation};

/// A spec violation as reported by an oracle: the clause kind (one of
/// `agreement`, `validity`, `termination`, `unique_decision`,
/// `decision_bound`) and a human-readable detail line.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Violation {
    /// The violated clause, as a stable lowercase identifier.
    pub kind: String,
    /// What exactly went wrong.
    pub detail: String,
}

/// The observable outcome of one case, as reported by an oracle: the
/// coverage signature (decisions and decision rounds at the horizon) plus
/// the first spec violation, if any.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CaseOutcome {
    /// Each agent's decided value at the horizon (`None` = undecided).
    pub decisions: Vec<Option<Value>>,
    /// Each agent's decision round (1-based; `None` = undecided).
    pub rounds: Vec<Option<u32>>,
    /// The first violated EBA clause, if any.
    pub violation: Option<Violation>,
}

/// Evaluates one [`Case`] on a fixed stack.
pub trait CaseOracle {
    /// The failure model of the oracle's context: the one judge of which
    /// cases the search may propose.
    fn model(&self) -> FailureModel;

    /// Runs the case and reports its outcome.
    ///
    /// # Errors
    ///
    /// Returns [`EbaError`] if the case cannot be executed at all (an
    /// inadmissible pattern slipping past the fuzzer's own validation).
    fn check(&mut self, case: &Case) -> Result<CaseOutcome, EbaError>;
}

/// The simulator-backed oracle: runs the case through the lockstep
/// [`Scenario`] runner and checks the run with [`check_eba`].
pub struct TraceOracle<'c, E, P> {
    ctx: &'c Context<E, P>,
}

impl<'c, E, P> TraceOracle<'c, E, P>
where
    E: InformationExchange,
    P: ActionProtocol<E>,
{
    /// Wraps a context; cases run under the context's failure model.
    pub fn new(ctx: &'c Context<E, P>) -> Self {
        TraceOracle { ctx }
    }
}

/// The stable identifier of a [`SpecViolation`] clause.
pub fn violation_kind(v: &SpecViolation) -> &'static str {
    match v {
        SpecViolation::UniqueDecision { .. } => "unique_decision",
        SpecViolation::Agreement { .. } => "agreement",
        SpecViolation::Validity { .. } => "validity",
        SpecViolation::Termination { .. } => "termination",
        SpecViolation::DecisionBound { .. } => "decision_bound",
    }
}

impl<E, P> CaseOracle for TraceOracle<'_, E, P>
where
    E: InformationExchange,
    P: ActionProtocol<E>,
{
    fn model(&self) -> FailureModel {
        self.ctx.model()
    }

    fn check(&mut self, case: &Case) -> Result<CaseOutcome, EbaError> {
        let run = Scenario::of(self.ctx)
            .pattern(case.pattern.clone())
            .inits(&case.inits)
            .horizon(case.horizon)
            .run()?;
        let violation = check_eba(self.ctx.exchange(), &run)
            .err()
            .map(|v| Violation {
                kind: violation_kind(&v).to_string(),
                detail: v.to_string(),
            });
        let (rounds, decisions) = run.decisions();
        Ok(CaseOutcome {
            decisions,
            rounds,
            violation,
        })
    }
}

/// A registry stack as an oracle: each case runs through the
/// [`TraceOracle`] of the stack's context. The lockstep reference of the
/// service's oracle pass and of the corpus battery.
impl CaseOracle for NamedStack {
    fn model(&self) -> FailureModel {
        NamedStack::model(self)
    }

    fn check(&mut self, case: &Case) -> Result<CaseOutcome, EbaError> {
        struct Check<'c>(&'c Case);
        impl StackVisitor for Check<'_> {
            type Output = Result<CaseOutcome, EbaError>;
            fn visit<E, P>(self, ctx: &Context<E, P>) -> Self::Output
            where
                E: InformationExchange + Clone + Sync + 'static,
                P: ActionProtocol<E> + Clone + Sync + 'static,
            {
                TraceOracle::new(ctx).check(self.0)
            }
        }
        self.visit(Check(case))
    }
}

/// Fuzzing-loop configuration.
#[derive(Clone, Debug)]
pub struct FuzzConfig {
    /// RNG seed; the whole search is deterministic in it.
    pub seed: u64,
    /// Maximum number of mutants to evaluate.
    pub iterations: usize,
}

/// A found, shrunk violation.
#[derive(Clone, Debug)]
pub struct FoundViolation {
    /// The violated clause (of the shrunk case).
    pub violation: Violation,
    /// The first violating sample, as drawn.
    pub first: Case,
    /// The greedily minimized case (same violation kind).
    pub shrunk: Case,
    /// Number of accepted shrink steps.
    pub shrink_steps: usize,
}

/// What a fuzzing run did.
#[derive(Clone, Debug)]
pub struct FuzzReport {
    /// Cases evaluated (seeds plus mutants).
    pub cases_run: usize,
    /// Distinct coverage signatures observed.
    pub coverage: usize,
    /// Size of the final seed pool.
    pub pool: usize,
    /// The first violation found (search stops there), shrunk.
    pub found: Option<FoundViolation>,
}

type Signature = (
    u128,
    Vec<Option<Value>>,
    Vec<Option<u32>>,
    Option<Violation>,
);

/// The coverage signature of an evaluated case: the adversary's nonfaulty
/// footprint plus the observable outcome. The footprint matters: swapping
/// the nonfaulty set is behaviorally invisible until drops are layered on
/// top, so a purely behavioral signature would discard exactly the
/// stepping-stone cases the search needs to keep.
fn signature(case: &Case, outcome: &CaseOutcome) -> Signature {
    (
        case.pattern.nonfaulty().bits(),
        outcome.decisions.clone(),
        outcome.rounds.clone(),
        outcome.violation.clone(),
    )
}

/// Checks that a case is admissible: its pattern against `model` up to
/// the case's horizon.
fn admissible(case: &Case, model: FailureModel) -> bool {
    model
        .admits_pattern_up_to(&case.pattern, case.horizon)
        .is_ok()
}

/// Rebuilds a pattern from parts, silently skipping drops the model
/// rejects (used when the nonfaulty set changes under a mutation).
fn rebuild_pattern(
    model: FailureModel,
    template: &Case,
    nonfaulty: eba_core::types::AgentSet,
    drops: &[(u32, AgentId, AgentId)],
) -> Result<FailurePattern, EbaError> {
    let mut pattern = FailurePattern::new(template.pattern.params(), nonfaulty)?;
    for &(m, from, to) in drops {
        if model.admits_drop(pattern.is_faulty(from), pattern.is_faulty(to)) {
            pattern.drop_message(m, from, to)?;
        }
    }
    Ok(pattern)
}

/// Applies one random mutation under `model`; returns `None` when the
/// drawn mutation is a no-op or inadmissible (the caller retries).
fn mutate(case: &Case, model: FailureModel, rng: &mut StdRng) -> Option<Case> {
    let params = case.pattern.params();
    let n = params.n();
    let mut next = case.clone();
    match rng.random_range(0..5u32) {
        // Flip one initial preference.
        0 => {
            let i = rng.random_range(0..n);
            next.inits[i] = if next.inits[i] == Value::One {
                Value::Zero
            } else {
                Value::One
            };
        }
        // Add one admissible drop.
        1 => {
            let m = rng.random_range(0..case.horizon);
            let from = AgentId::new(rng.random_range(0..n));
            let to = AgentId::new(rng.random_range(0..n));
            next.pattern.drop_message(m, from, to).ok()?;
        }
        // Remove one recorded drop.
        2 => {
            let drops: Vec<_> = case.pattern.drops().collect();
            if drops.is_empty() {
                return None;
            }
            let victim = drops[rng.random_range(0..drops.len())];
            let kept: Vec<_> = drops.into_iter().filter(|d| *d != victim).collect();
            next.pattern = rebuild_pattern(model, case, case.pattern.nonfaulty(), &kept).ok()?;
        }
        // Silence one faulty agent for one round.
        3 => {
            let faulty: Vec<AgentId> = params
                .agents()
                .filter(|a| case.pattern.is_faulty(*a))
                .collect();
            if faulty.is_empty() {
                return None;
            }
            let from = faulty[rng.random_range(0..faulty.len())];
            let m = rng.random_range(0..case.horizon);
            next.pattern.silence_agent(from, m..m + 1, false).ok()?;
        }
        // Swap the nonfaulty set for another the model admits, keeping
        // whichever drops remain admissible.
        _ => {
            let choices = model.nonfaulty_choices(params);
            if choices.is_empty() {
                return None;
            }
            let nonfaulty = choices[rng.random_range(0..choices.len())];
            let drops: Vec<_> = case.pattern.drops().collect();
            next.pattern = rebuild_pattern(model, case, nonfaulty, &drops).ok()?;
        }
    }
    if next == *case || !admissible(&next, model) {
        return None;
    }
    Some(next)
}

/// Runs the coverage-guided search: evaluates every seed, then up to
/// `config.iterations` mutants of pool members, growing the pool on novel
/// signatures. Stops at the first violation and shrinks it.
///
/// # Errors
///
/// Returns [`EbaError::InvalidInput`] when `seeds` is empty, or any error
/// the oracle reports while executing a case.
pub fn fuzz<O: CaseOracle>(
    seeds: &[Case],
    config: &FuzzConfig,
    oracle: &mut O,
) -> Result<FuzzReport, EbaError> {
    if seeds.is_empty() {
        return Err(EbaError::InvalidInput(
            "fuzzing needs at least one seed case".into(),
        ));
    }
    let model = oracle.model();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut seen: HashSet<Signature> = HashSet::new();
    let mut pool: Vec<Case> = Vec::new();
    let mut cases_run = 0usize;

    let evaluate = |case: Case,
                    oracle: &mut O,
                    seen: &mut HashSet<Signature>,
                    pool: &mut Vec<Case>,
                    cases_run: &mut usize|
     -> Result<Option<(Case, Violation)>, EbaError> {
        let outcome = oracle.check(&case)?;
        *cases_run += 1;
        if let Some(v) = outcome.violation.clone() {
            return Ok(Some((case, v)));
        }
        if seen.insert(signature(&case, &outcome)) {
            pool.push(case);
        }
        Ok(None)
    };

    let mut hit: Option<(Case, Violation)> = None;
    for seed in seeds {
        if !admissible(seed, model) {
            return Err(EbaError::InvalidPattern(format!(
                "a fuzz seed is inadmissible under the {model} model and its horizon"
            )));
        }
        if let Some(found) = evaluate(seed.clone(), oracle, &mut seen, &mut pool, &mut cases_run)? {
            hit = Some(found);
            break;
        }
    }
    if hit.is_none() && pool.is_empty() {
        // Every seed produced the same signature; keep at least one.
        pool.push(seeds[0].clone());
    }
    if hit.is_none() {
        for _ in 0..config.iterations {
            let base = &pool[rng.random_range(0..pool.len())];
            let Some(mutant) = mutate(base, model, &mut rng) else {
                continue;
            };
            if let Some(found) = evaluate(mutant, oracle, &mut seen, &mut pool, &mut cases_run)? {
                hit = Some(found);
                break;
            }
        }
    }

    let found = match hit {
        None => None,
        Some((first, violation)) => {
            let (shrunk, shrink_steps) = shrink_case(&first, &violation.kind, oracle)?;
            let final_violation = oracle.check(&shrunk)?.violation.unwrap_or(violation);
            Some(FoundViolation {
                violation: final_violation,
                first,
                shrunk,
                shrink_steps,
            })
        }
    };
    Ok(FuzzReport {
        cases_run,
        coverage: seen.len(),
        pool: pool.len(),
        found,
    })
}

/// Proposes strictly smaller candidates for a violating case, most
/// aggressive first: drop whole rounds of omissions, drop single
/// omissions, lower the horizon (truncating drops past it), and flip `1`
/// initial preferences to `0` — each admissible under `model`.
pub fn shrink_candidates(case: &Case, model: FailureModel) -> Vec<Case> {
    let nonfaulty = case.pattern.nonfaulty();
    let drops: Vec<_> = case.pattern.drops().collect();
    let mut out = Vec::new();

    // 1. Remove every drop in one round.
    let mut rounds: Vec<u32> = drops.iter().map(|d| d.0).collect();
    rounds.sort_unstable();
    rounds.dedup();
    for round in &rounds {
        let kept: Vec<_> = drops.iter().filter(|d| d.0 != *round).copied().collect();
        if let Ok(pattern) = rebuild_pattern(model, case, nonfaulty, &kept) {
            out.push(Case {
                pattern,
                ..case.clone()
            });
        }
    }
    // 2. Remove one drop.
    if rounds.len() > 1 || drops.len() > 1 {
        for victim in &drops {
            let kept: Vec<_> = drops.iter().filter(|d| *d != victim).copied().collect();
            if let Ok(pattern) = rebuild_pattern(model, case, nonfaulty, &kept) {
                out.push(Case {
                    pattern,
                    ..case.clone()
                });
            }
        }
    }
    // 3. Lower the horizon, truncating drops past it.
    if case.horizon > 1 {
        let horizon = case.horizon - 1;
        let kept: Vec<_> = drops.iter().filter(|d| d.0 < horizon).copied().collect();
        if let Ok(pattern) = rebuild_pattern(model, case, nonfaulty, &kept) {
            out.push(Case {
                pattern,
                inits: case.inits.clone(),
                horizon,
            });
        }
    }
    // 4. Canonicalize initial preferences toward zero.
    for (i, v) in case.inits.iter().enumerate() {
        if *v == Value::One {
            let mut inits = case.inits.clone();
            inits[i] = Value::Zero;
            out.push(Case {
                pattern: case.pattern.clone(),
                inits,
                horizon: case.horizon,
            });
        }
    }
    out.retain(|c| admissible(c, model));
    out
}

/// Greedily minimizes a violating case: repeatedly adopts the first
/// [`shrink_candidates`] entry on which the oracle still reports a
/// violation of the same `kind`, until no candidate is accepted.
///
/// # Errors
///
/// Propagates oracle execution errors.
pub fn shrink_case<O: CaseOracle>(
    case: &Case,
    kind: &str,
    oracle: &mut O,
) -> Result<(Case, usize), EbaError> {
    let mut current = case.clone();
    let mut steps = 0usize;
    'outer: loop {
        for cand in shrink_candidates(&current, oracle.model()) {
            debug_assert!(cand.size() < current.size());
            let outcome = oracle.check(&cand)?;
            if outcome.violation.as_ref().is_some_and(|v| v.kind == kind) {
                current = cand;
                steps += 1;
                continue 'outer;
            }
        }
        return Ok((current, steps));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eba_core::prelude::*;

    fn whisper_case(params: Params) -> Case {
        // Faulty agent 0 stays silent except its round-2 message to agent
        // 2: the E_naive Agreement counterexample from the introduction.
        let nonfaulty = AgentSet::singleton(AgentId::new(0)).complement(3);
        let mut pattern = FailurePattern::new(params, nonfaulty).unwrap();
        pattern.silence_agent(AgentId::new(0), 0..1, false).unwrap();
        pattern
            .drop_message(1, AgentId::new(0), AgentId::new(1))
            .unwrap();
        pattern.silence_agent(AgentId::new(0), 2..4, false).unwrap();
        Case {
            pattern,
            inits: vec![Value::Zero, Value::One, Value::One],
            horizon: 4,
        }
    }

    #[test]
    fn trace_oracle_reports_the_known_agreement_violation() {
        let params = Params::new(3, 1).unwrap();
        let ctx = Context::naive(params).with_model(FailureModel::GeneralOmission);
        let mut oracle = TraceOracle::new(&ctx);
        let case = whisper_case(params);
        let outcome = oracle.check(&case).unwrap();
        assert_eq!(
            outcome.violation.as_ref().map(|v| v.kind.as_str()),
            Some("agreement"),
            "{outcome:?}"
        );
    }

    #[test]
    fn shrinking_reaches_a_fixpoint_and_preserves_the_violation() {
        let params = Params::new(3, 1).unwrap();
        let ctx = Context::naive(params).with_model(FailureModel::GeneralOmission);
        let mut oracle = TraceOracle::new(&ctx);
        let case = whisper_case(params);
        let (shrunk, steps) = shrink_case(&case, "agreement", &mut oracle).unwrap();
        assert!(steps > 0, "the whisper case is not minimal");
        assert!(shrunk.size() < case.size());
        let outcome = oracle.check(&shrunk).unwrap();
        assert_eq!(
            outcome.violation.as_ref().map(|v| v.kind.as_str()),
            Some("agreement")
        );
        // One more pass accepts nothing.
        let (again, more) = shrink_case(&shrunk, "agreement", &mut oracle).unwrap();
        assert_eq!(more, 0);
        assert_eq!(again, shrunk);
    }

    #[test]
    fn fuzz_is_deterministic_in_the_seed() {
        let params = Params::new(3, 1).unwrap();
        let ctx = Context::naive(params).with_model(FailureModel::GeneralOmission);
        let seed = Case {
            pattern: FailurePattern::failure_free(params),
            inits: vec![Value::Zero, Value::One, Value::One],
            horizon: 4,
        };
        let config = FuzzConfig {
            seed: 7,
            iterations: 400,
        };
        let mut o1 = TraceOracle::new(&ctx);
        let r1 = fuzz(std::slice::from_ref(&seed), &config, &mut o1).unwrap();
        let mut o2 = TraceOracle::new(&ctx);
        let r2 = fuzz(std::slice::from_ref(&seed), &config, &mut o2).unwrap();
        assert_eq!(r1.cases_run, r2.cases_run);
        assert_eq!(r1.coverage, r2.coverage);
        assert_eq!(
            r1.found.as_ref().map(|f| f.shrunk.clone()),
            r2.found.as_ref().map(|f| f.shrunk.clone())
        );
    }
}
