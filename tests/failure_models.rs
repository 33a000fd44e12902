//! Acceptance suite for the pluggable failure-model subsystem: `Crash`
//! and `GeneralOmission` open genuinely new scenario families — non-empty
//! run sets, distinct from (and nested around) the sending-omission one —
//! and every entry point enforces the context's model.

use eba::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `Crash` and `GeneralOmission` open non-empty, distinct run sets, and
/// the four models nest along the hierarchy.
#[test]
fn crash_and_general_omission_are_new_nonempty_scenario_families() {
    let params = Params::new(3, 1).unwrap();
    let ctx = Context::basic(params);
    let keys = |model: FailureModel| -> std::collections::HashSet<(u128, String)> {
        let mut set = std::collections::HashSet::new();
        Scenario::of(&ctx.with_model(model))
            .horizon(4)
            .enumerate_into(&mut |run: EnumRun<BasicExchange>| {
                set.insert((run.nonfaulty.bits(), format!("{:?}", run.states)));
                Ok(())
            })
            .unwrap();
        set
    };
    let free = keys(FailureModel::FailureFree);
    let crash = keys(FailureModel::Crash);
    let so = keys(FailureModel::SendingOmission);
    let go = keys(FailureModel::GeneralOmission);
    assert!(!crash.is_empty() && !go.is_empty());
    // Nested: FF ⊂ CR ⊂ SO ⊂ GO, strictly at every link for this stack.
    assert!(free.is_subset(&crash) && free.len() < crash.len());
    assert!(crash.is_subset(&so) && crash.len() < so.len());
    assert!(so.is_subset(&go) && so.len() < go.len());
}

/// Crash patterns sampled by the model-parameterized `AdversarySampler`
/// stay silent — to every receiver, themselves included — after their
/// first drop round.
#[test]
fn crash_samples_stay_silent_after_first_drop_round() {
    let params = Params::new(5, 2).unwrap();
    let sampler = AdversarySampler::new(FailureModel::Crash, params, 5, 0.7);
    let mut rng = StdRng::seed_from_u64(0xC4A5);
    for _ in 0..300 {
        let pat = sampler.sample(&mut rng);
        for from in params.agents() {
            let mut crashed = false;
            for m in 0..pat.drop_horizon() {
                let dropped_all = params.agents().all(|to| !pat.delivers(m, from, to));
                let dropped_any = params.agents().any(|to| !pat.delivers(m, from, to));
                assert!(!crashed || dropped_all, "{from} revived in round {}", m + 1);
                crashed |= dropped_any;
            }
        }
        assert!(FailureModel::Crash.admits_pattern(&pat).is_ok());
    }
}

/// A crash pattern whose recorded silence ends before the run does would
/// silently revive (patterns deliver everything beyond their drop
/// horizon) — `Scenario::run` under the crash model must reject it
/// instead of producing a non-crash run.
#[test]
fn crash_model_rejects_patterns_that_revive_past_their_drop_horizon() {
    let params = Params::new(4, 1).unwrap();
    let faulty = AgentSet::singleton(AgentId::new(0));
    // Crashed for rounds 1–2 only; a horizon-6 run would revive it.
    let short = crashed_from_start_pattern(params, faulty, 2).unwrap();
    let ctx = Context::basic(params).with_model(FailureModel::Crash);
    let err = Scenario::of(&ctx)
        .pattern(short.clone())
        .inits(&[Value::One; 4])
        .horizon(6)
        .run()
        .unwrap_err();
    assert!(err.to_string().contains("stay silent"), "{err}");
    // The same pattern is fine when the run ends with the silence…
    assert!(Scenario::of(&ctx)
        .pattern(short.clone())
        .inits(&[Value::One; 4])
        .horizon(2)
        .run()
        .is_ok());
    // …and under SO(t), where reviving senders are legal.
    assert!(Scenario::of(&ctx.with_model(FailureModel::SendingOmission))
        .pattern(short)
        .inits(&[Value::One; 4])
        .horizon(6)
        .run()
        .is_ok());
}

/// `GeneralOmission` admits receive-side drops that `SendingOmission`
/// rejects — at the pattern level and end to end through `Scenario::run`.
#[test]
fn general_omission_admits_receive_side_drops_sending_omission_rejects() {
    let params = Params::new(4, 1).unwrap();
    let faulty = AgentSet::singleton(AgentId::new(0));
    let nonfaulty = faulty.complement(4);

    // Pattern level.
    let mut go = FailurePattern::new(params, nonfaulty).unwrap();
    go.drop_message(0, AgentId::new(1), AgentId::new(0))
        .unwrap();
    assert!(FailureModel::SendingOmission.admits_pattern(&go).is_err());
    assert!(FailureModel::GeneralOmission.admits_pattern(&go).is_ok());

    // End to end: the GO pattern runs in a GO scenario and is rejected
    // by the default SO(t) one.
    let ctx = Context::basic(params);
    let ok = Scenario::of(&ctx.with_model(FailureModel::GeneralOmission))
        .pattern(go.clone())
        .inits(&[Value::One; 4])
        .run();
    assert!(ok.is_ok());
    let err = Scenario::of(&ctx)
        .pattern(go)
        .inits(&[Value::One; 4])
        .run()
        .unwrap_err();
    assert!(err.to_string().contains("sending_omission model"), "{err}");
}

/// Model-qualified registry names flow through the whole stack: the
/// battery runs a `@crash` stack and reports its qualified name.
#[test]
fn model_qualified_stack_reaches_the_experiments_battery() {
    let (rows, table) =
        eba::experiments::model_battery::run_stack("E_min/P_min@crash", 3, 1).unwrap();
    assert_eq!(rows[0].stack, "E_min/P_min@crash");
    let total = *rows[0].enumerated_runs.as_ref().expect("small instance");
    assert!(total > 0);
    assert_eq!(rows[0].spec_ok_runs, total);
    assert!(table.to_markdown().contains("@crash"));
}
