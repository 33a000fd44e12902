//! Failure-model walkthrough: one stack, four environments.
//!
//! Runs `E_basic/P_basic` at `(n, t) = (4, 1)` against each failure
//! model's representative adversary, then exhaustively enumerates the
//! `(3, 1)` context under all four models to show the run-set hierarchy
//! `FailureFree ⊂ Crash ⊂ SendingOmission ⊂ GeneralOmission`.
//!
//! Run with `cargo run --release --example failure_models`.

use eba::prelude::*;
use eba::sim::enumerate::EnumRun;

fn main() -> Result<(), EbaError> {
    let params = Params::new(4, 1)?;
    let faulty = AgentSet::singleton(AgentId::new(0));
    let inits = [Value::Zero, Value::One, Value::One, Value::One];
    let horizon = params.default_horizon();

    println!("=== E_basic/P_basic at (4, 1): one adversary per model ===");
    let ctx = Context::basic(params);

    // Sending omissions (the paper's model, the default): agent 0 is
    // silent toward everyone else.
    let silent = silent_pattern(params, faulty, horizon)?;
    let trace = Scenario::of(&ctx).pattern(silent).inits(&inits).run()?;
    let so_round = trace.max_decision_round(faulty.complement(4)).unwrap();
    println!("sending_omission: silent a0, nonfaulty decide by round {so_round}");

    // Crash: agent 0 crashes before round 1 (self-delivery lost too).
    let crashed = crashed_from_start_pattern(params, faulty, horizon)?;
    let crash_ctx = ctx.with_model(FailureModel::Crash);
    let trace = Scenario::of(&crash_ctx)
        .pattern(crashed)
        .inits(&inits)
        .run()?;
    let crash_round = trace.max_decision_round(faulty.complement(4)).unwrap();
    println!("crash:            crashed a0, nonfaulty decide by round {crash_round}");

    // General omissions: agent 0 is fully isolated — its *incoming*
    // messages are dropped as well, which SO(t) cannot express.
    let isolated = isolation_pattern(params, faulty, horizon)?;
    assert!(
        FailureModel::SendingOmission
            .admits_pattern(&isolated)
            .is_err(),
        "isolation needs receive-side drops"
    );
    let go_ctx = ctx.with_model(FailureModel::GeneralOmission);
    let trace = Scenario::of(&go_ctx)
        .pattern(isolated)
        .inits(&inits)
        .run()?;
    let go_round = trace.max_decision_round(faulty.complement(4)).unwrap();
    println!("general_omission: isolated a0, nonfaulty decide by round {go_round}");
    // The faulty agent holds the only 0 and never announces it, so in
    // every model the nonfaulty wait out the t + 2 = 3 deadline.
    assert_eq!((so_round, crash_round, go_round), (3, 3, 3));

    println!();
    println!("=== exhaustive run sets at (3, 1): the model hierarchy ===");
    let small = Context::basic(Params::new(3, 1)?);
    let mut counts = Vec::new();
    for model in [
        FailureModel::FailureFree,
        FailureModel::Crash,
        FailureModel::SendingOmission,
        FailureModel::GeneralOmission,
    ] {
        let mut count = 0usize;
        Scenario::of(&small.with_model(model)).enumerate_into(&mut |_run: EnumRun<
            BasicExchange,
        >| {
            count += 1;
            Ok(())
        })?;
        println!("{:<17} {count:>6} deduplicated runs", model.name());
        counts.push(count);
    }
    assert!(
        counts.windows(2).all(|w| w[0] < w[1]),
        "run sets must grow strictly with adversary power: {counts:?}"
    );
    println!("every weaker model's run set is contained in the stronger one's");
    Ok(())
}
