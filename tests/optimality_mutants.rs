//! Mutant-based optimality evidence (`docs/GUIDE.md` §1, fidelity notes).
//!
//! Full optimality is a theorem (Cor 6.7 / 7.8, obtained via the
//! implements-checks of E7 plus Thms 6.3 / 7.6); what testing *can* show
//! is the other half of the trade-off surface:
//!
//! * protocols that try to decide **earlier** than the paper's rules break
//!   the EBA specification on some run (found by exhaustive enumeration);
//! * protocols that decide **later** remain correct but are strictly
//!   dominated on corresponding runs.

use eba::core::protocols::ActionProtocol;
use eba::prelude::*;

/// An eager mutant of `P_min`: decides 1 one round before the deadline.
#[derive(Clone, Copy, Debug)]
struct EagerMin(Params);

impl ActionProtocol<MinExchange> for EagerMin {
    fn name(&self) -> &'static str {
        "P_min_eager"
    }
    fn act(&self, _agent: AgentId, s: &MinState) -> Action {
        if s.decided.is_some() {
            return Action::Noop;
        }
        if s.init == Value::Zero || s.jd == Some(Value::Zero) {
            return Action::Decide(Value::Zero);
        }
        if s.time >= self.0.t() as u32 {
            return Action::Decide(Value::One);
        }
        Action::Noop
    }
}

/// A lazy mutant of `P_min`: waits one extra round before deciding 1.
#[derive(Clone, Copy, Debug)]
struct LazyMin(Params);

impl ActionProtocol<MinExchange> for LazyMin {
    fn name(&self) -> &'static str {
        "P_min_lazy"
    }
    fn act(&self, _agent: AgentId, s: &MinState) -> Action {
        if s.decided.is_some() {
            return Action::Noop;
        }
        if s.init == Value::Zero || s.jd == Some(Value::Zero) {
            return Action::Decide(Value::Zero);
        }
        if s.time >= self.0.t() as u32 + 2 {
            return Action::Decide(Value::One);
        }
        Action::Noop
    }
}

/// A mutant that decides **1** on hearing a 0-decision — immediately at
/// odds with the 0-decider, so exhaustive enumeration must catch an
/// Agreement violation between nonfaulty agents.
#[derive(Clone, Copy, Debug)]
struct ContrarianMin(Params);

impl ActionProtocol<MinExchange> for ContrarianMin {
    fn name(&self) -> &'static str {
        "P_min_contrarian"
    }
    fn act(&self, _agent: AgentId, s: &MinState) -> Action {
        if s.decided.is_some() {
            return Action::Noop;
        }
        if s.jd == Some(Value::Zero) {
            return Action::Decide(Value::One);
        }
        if s.init == Value::Zero {
            return Action::Decide(Value::Zero);
        }
        if s.time > self.0.t() as u32 {
            return Action::Decide(Value::One);
        }
        Action::Noop
    }
}

/// Searches all enumerated runs for an EBA violation; returns how many
/// runs violate.
fn count_violations<P: ActionProtocol<MinExchange> + Sync>(params: Params, proto: P) -> usize {
    let ctx = Context::new(MinExchange::new(params), proto);
    let runs = Scenario::of(&ctx)
        .horizon(params.default_horizon() + 1)
        .parallelism(Parallelism::Auto)
        .enumerate()
        .expect("enumerable");
    runs.iter()
        .filter(|run| {
            judge_run(
                ctx.exchange(),
                run.nonfaulty,
                &run.inits,
                &run.states,
                &run.actions,
            )
            .is_err()
        })
        .count()
}

#[test]
fn eager_mutant_violates_eba_somewhere() {
    // Deciding 1 at time t (instead of t + 1) races a hidden 0-chain:
    // exhaustive enumeration finds Agreement violations.
    let params = Params::new(3, 1).unwrap();
    let violations = count_violations(params, EagerMin(params));
    assert!(violations > 0, "the eager mutant must break on some run");
    // The real P_min passes the identical enumeration.
    assert_eq!(count_violations(params, PMin::new(params)), 0);
}

#[test]
fn contrarian_mutant_breaks_agreement() {
    let params = Params::new(3, 1).unwrap();
    let violations = count_violations(params, ContrarianMin(params));
    assert!(
        violations > 0,
        "deciding 0 on a heard 1 must break agreement"
    );
}

#[test]
fn lazy_mutant_is_correct_but_strictly_dominated() {
    let params = Params::new(4, 1).unwrap();
    // Correct on every enumerated run…
    assert_eq!(count_violations(params, LazyMin(params)), 0);
    // …but strictly dominated by P_min over corresponding runs.
    let pmin = Context::minimal(params);
    let lazy = Context::new(MinExchange::new(params), LazyMin(params));
    let horizon = params.default_horizon() + 1;
    let mut summary = DominanceSummary::default();
    for nonfaulty in FailureModel::SendingOmission.nonfaulty_choices(params) {
        let pattern = FailurePattern::new(params, nonfaulty).unwrap();
        for inits in eba::core::failures::init_configs(4) {
            let case = Case {
                pattern: pattern.clone(),
                inits,
                horizon,
            };
            summary.record(compare_corresponding(&pmin, &lazy, &case).unwrap());
        }
    }
    assert!(
        summary.left_dominates(),
        "P_min must dominate the lazy mutant: {summary:?}"
    );
}

#[test]
fn pmin_and_pbasic_are_incomparable_only_in_speed_never_in_safety() {
    // P_basic (more information) decides earlier on the all-ones runs and
    // never later anywhere — observed over a sweep of drop-free patterns
    // with every faulty-set choice.
    let params = Params::new(4, 2).unwrap();
    let (min_ctx, basic_ctx) = (Context::minimal(params), Context::basic(params));
    for nonfaulty in FailureModel::SendingOmission.nonfaulty_choices(params) {
        let pattern = FailurePattern::new(params, nonfaulty).unwrap();
        for inits in eba::core::failures::init_configs(4) {
            let a = Scenario::of(&min_ctx)
                .pattern(pattern.clone())
                .inits(&inits)
                .run()
                .unwrap();
            let b = Scenario::of(&basic_ctx)
                .pattern(pattern.clone())
                .inits(&inits)
                .run()
                .unwrap();
            for agent in nonfaulty.iter() {
                let ra = a.decision_round(agent).unwrap();
                let rb = b.decision_round(agent).unwrap();
                assert!(rb <= ra, "{agent}: basic {rb} vs min {ra}");
            }
        }
    }
}
