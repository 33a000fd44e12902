//! The dominance order `≤_γ` on action protocols (Section 5).
//!
//! Runs of two action protocols *correspond* if they share the initial
//! global state — the same initial preferences and the same failure
//! pattern (the information-exchange protocol is fixed by the context).
//! `P` dominates `P'` if, in every pair of corresponding runs, every agent
//! that is nonfaulty decides at least as early under `P` as under `P'`.
//!
//! Dominance over *all* runs cannot be established by testing; this module
//! provides the per-run comparison and aggregation used by the
//! mutant-based optimality experiments (`tests/optimality_mutants.rs`;
//! `docs/GUIDE.md` §1, the Thm 6.5 / 6.6 row).

use eba_core::context::Context;
use eba_core::corpus::Case;
use eba_core::exchange::InformationExchange;
use eba_core::protocols::ActionProtocol;
use eba_core::types::EbaError;

use crate::enumerate::EnumRun;
use crate::scenario::Scenario;

/// The outcome of comparing one pair of corresponding runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RunComparison {
    /// Every nonfaulty agent decides in the same round under both.
    Equal,
    /// Left decides no later everywhere and strictly earlier somewhere.
    LeftEarlier,
    /// Right decides no later everywhere and strictly earlier somewhere.
    RightEarlier,
    /// Each side is strictly earlier for some nonfaulty agent.
    Mixed,
}

/// Runs `case` under two action protocols over the same exchange and
/// compares the corresponding runs it yields: both share the case's
/// pattern and initial preferences by construction.
///
/// An undecided nonfaulty agent counts as deciding at round `∞` (later
/// than any decision).
///
/// # Errors
///
/// Returns [`EbaError::InvalidInput`] if either context refuses the case
/// (see [`Scenario::run`]).
pub fn compare_corresponding<E, P, Q>(
    left: &Context<E, P>,
    right: &Context<E, Q>,
    case: &Case,
) -> Result<RunComparison, EbaError>
where
    E: InformationExchange,
    P: ActionProtocol<E>,
    Q: ActionProtocol<E>,
{
    let rounds = |run: EnumRun<E>| run.decisions().0;
    let (left, right) = (
        rounds(run_case(left, case)?),
        rounds(run_case(right, case)?),
    );
    let mut left_strict = false;
    let mut right_strict = false;
    for a in case.pattern.nonfaulty().iter() {
        let l = left[a.index()].map_or(u64::MAX, u64::from);
        let r = right[a.index()].map_or(u64::MAX, u64::from);
        if l < r {
            left_strict = true;
        }
        if r < l {
            right_strict = true;
        }
    }
    Ok(match (left_strict, right_strict) {
        (false, false) => RunComparison::Equal,
        (true, false) => RunComparison::LeftEarlier,
        (false, true) => RunComparison::RightEarlier,
        (true, true) => RunComparison::Mixed,
    })
}

/// One run of `case` under `ctx`.
fn run_case<E, P>(ctx: &Context<E, P>, case: &Case) -> Result<EnumRun<E>, EbaError>
where
    E: InformationExchange,
    P: ActionProtocol<E>,
{
    Scenario::of(ctx)
        .pattern(case.pattern.clone())
        .inits(&case.inits)
        .horizon(case.horizon)
        .run()
}

/// Aggregated comparisons over a family of corresponding runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DominanceSummary {
    /// Runs decided identically.
    pub equal: u64,
    /// Runs where the left protocol was strictly earlier (and never later).
    pub left_earlier: u64,
    /// Runs where the right protocol was strictly earlier (and never later).
    pub right_earlier: u64,
    /// Runs where each side won somewhere.
    pub mixed: u64,
}

impl DominanceSummary {
    /// Folds one comparison into the summary.
    pub fn record(&mut self, cmp: RunComparison) {
        match cmp {
            RunComparison::Equal => self.equal += 1,
            RunComparison::LeftEarlier => self.left_earlier += 1,
            RunComparison::RightEarlier => self.right_earlier += 1,
            RunComparison::Mixed => self.mixed += 1,
        }
    }

    /// Whether the observations are consistent with "left dominates right"
    /// (right never strictly earlier, left strictly earlier somewhere).
    pub fn left_dominates(&self) -> bool {
        self.right_earlier == 0 && self.mixed == 0 && self.left_earlier > 0
    }

    /// Whether the protocols are incomparable on the observed runs: each
    /// is strictly earlier in some run (or within one run).
    pub fn incomparable(&self) -> bool {
        self.mixed > 0 || (self.left_earlier > 0 && self.right_earlier > 0)
    }

    /// Total runs compared.
    pub fn total(&self) -> u64 {
        self.equal + self.left_earlier + self.right_earlier + self.mixed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eba_core::prelude::*;

    fn params() -> Params {
        Params::new(4, 2).unwrap()
    }

    /// A failure-free case of the default horizon.
    fn failure_free(inits: &[Value]) -> Case {
        Case {
            pattern: FailurePattern::failure_free(params()),
            inits: inits.to_vec(),
            horizon: params().default_horizon(),
        }
    }

    /// P_basic against a deliberately slowed variant of itself: ignore the
    /// #1 shortcut, i.e. behave like P_min inside E_basic.
    #[derive(Clone, Copy, Debug)]
    struct SlowBasic(Params);

    impl eba_core::protocols::ActionProtocol<BasicExchange> for SlowBasic {
        fn name(&self) -> &'static str {
            "P_basic_slow"
        }

        fn act(&self, _agent: AgentId, state: &BasicState) -> Action {
            if state.decided.is_some() {
                return Action::Noop;
            }
            if state.init == Value::Zero || state.jd == Some(Value::Zero) {
                return Action::Decide(Value::Zero);
            }
            if state.time > self.0.t() as u32 || state.jd == Some(Value::One) {
                return Action::Decide(Value::One);
            }
            Action::Noop
        }
    }

    #[test]
    fn pbasic_dominates_its_slow_variant_on_all_ones() {
        let case = failure_free(&[Value::One; 4]);
        let (fast, slow) = (
            Context::basic(params()),
            Context::new(BasicExchange::new(params()), SlowBasic(params())),
        );
        assert_eq!(
            compare_corresponding(&fast, &slow, &case).unwrap(),
            RunComparison::LeftEarlier
        );
        // Round 2 vs round t + 2 = 4.
        assert_eq!(run_case(&fast, &case).unwrap().decisions().0, [Some(2); 4]);
        assert_eq!(run_case(&slow, &case).unwrap().decisions().0, [Some(4); 4]);
    }

    #[test]
    fn identical_protocols_compare_equal() {
        let case = failure_free(&[Value::Zero, Value::One, Value::One, Value::One]);
        let ctx = Context::basic(params());
        assert_eq!(
            compare_corresponding(&ctx, &ctx, &case).unwrap(),
            RunComparison::Equal
        );
    }

    #[test]
    fn summary_aggregation_and_verdicts() {
        let mut s = DominanceSummary::default();
        s.record(RunComparison::Equal);
        s.record(RunComparison::LeftEarlier);
        assert!(s.left_dominates());
        assert!(!s.incomparable());
        s.record(RunComparison::RightEarlier);
        assert!(s.incomparable());
        assert_eq!(s.total(), 3);
    }
}
