//! Every judge of the EBA specification names the same clause on the
//! same run: the trajectory-level `judge_run` behind `check_eba`, the
//! fuzzer's `TraceOracle` and the estimator's `judge_case`, and the
//! independent formula-level `check_spec` behind `EngineOracle`.

use eba::epistemic::prelude::*;
use eba::prelude::*;
use eba::stat::prelude::judge_case;

/// `P_min`, except that agent 0 decides 0 at time 0 whatever it holds.
#[derive(Clone, Copy, Debug)]
struct ZeroAtOnce(PMin);

impl ActionProtocol<MinExchange> for ZeroAtOnce {
    fn name(&self) -> &'static str {
        "P_min_zero_at_once"
    }
    fn act(&self, agent: AgentId, state: &MinState) -> Action {
        if agent == AgentId::new(0) && state.time == 0 {
            Action::Decide(Value::Zero)
        } else {
            self.0.act(agent, state)
        }
    }
}

/// Validity is strong: a *faulty* agent deciding a value nobody holds is a
/// violation for every judge. Agent 0 is faulty and silent, decides 0 at
/// time 0, and everyone (agent 0 included) starts with 1; the nonfaulty
/// agents never hear of it and decide 1 at the deadline, so every other
/// clause holds.
#[test]
fn a_faulty_agent_deciding_an_unheld_value_violates_validity_for_every_judge() {
    let params = Params::new(3, 1).unwrap();
    let ctx = Context::new(MinExchange::new(params), ZeroAtOnce(PMin::new(params)));
    let faulty = AgentSet::singleton(AgentId::new(0));
    let case = Case {
        pattern: silent_pattern(params, faulty, 4).unwrap(),
        inits: vec![Value::One; 3],
        horizon: 4,
    };

    let trace = Scenario::of(&ctx)
        .pattern(case.pattern.clone())
        .inits(&case.inits)
        .horizon(case.horizon)
        .run()
        .unwrap();
    assert_eq!(
        check_eba(ctx.exchange(), &trace),
        Err(SpecViolation::Validity {
            agent: AgentId::new(0),
            value: Value::Zero,
        })
    );

    let kind = |outcome: CaseOutcome| outcome.violation.map(|v| v.kind);
    let trace_verdict = TraceOracle::new(&ctx).check(&case).unwrap();
    assert_eq!(kind(trace_verdict).as_deref(), Some("validity"));
    let engine_verdict = EngineOracle::new(ctx).check(&case).unwrap();
    assert_eq!(kind(engine_verdict).as_deref(), Some("validity"));

    assert_eq!(
        judge_case(&ctx, &case.pattern, &case.inits, case.horizon).unwrap(),
        Some("validity")
    );
}
