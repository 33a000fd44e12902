//! Run the full-information protocol over a byte-level wire protocol,
//! with omission faults injected between encode and decode.
//!
//! Every message is encoded by a hand-rolled codec, dropped or delivered
//! by the failure pattern, and decoded again — the same round engine the
//! service multiplexes, looped on this thread; the outcome is
//! cross-checked against the lockstep simulator — same rounds, same
//! decisions, same number of messages.
//!
//! ```text
//! cargo run --release --example wire_loopback
//! ```

use eba::prelude::*;
use eba::transport::run_named_cluster;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let params = Params::new(8, 3)?;
    let ctx = Context::fip(params);

    // Three faulty agents, silent for the first two rounds.
    let faulty: AgentSet = (0..3).map(AgentId::new).collect();
    let mut pattern = FailurePattern::new(params, faulty.complement(8))?;
    for agent in faulty.iter() {
        pattern.silence_agent(agent, 0..2, false)?;
    }
    let inits = vec![
        Value::One,
        Value::Zero,
        Value::One,
        Value::One,
        Value::One,
        Value::One,
        Value::One,
        Value::One,
    ];
    let horizon = params.default_horizon();

    println!("== 8 agents over encoded frames, 3 faulty, full-information exchange ==\n");
    let report = run_named_cluster(&NamedStack::Fip(ctx), &pattern, &inits, horizon)?;
    for agent in params.agents() {
        println!(
            "  {agent}: decided {} in round {}",
            report.decision_values[agent.index()].map_or("⊥".into(), |v| v.to_string()),
            report.decision_rounds[agent.index()].map_or("∞".into(), |r| r.to_string()),
        );
    }
    println!(
        "\n  wire traffic: {} frames, {} bytes sent, {} bytes delivered",
        report.frames_sent, report.wire_bytes_sent, report.wire_bytes_delivered
    );

    // Cross-check against the lockstep simulator.
    let run = Scenario::of(&ctx)
        .pattern(pattern.clone())
        .inits(&inits)
        .horizon(horizon)
        .run()?;
    let (rounds, values) = run.decisions();
    assert_eq!(report.decision_rounds, rounds);
    assert_eq!(report.decision_values, values);
    let traffic = Metrics::of(ctx.exchange(), &run, &pattern);
    assert_eq!(report.frames_sent, traffic.messages_sent);
    println!("  lockstep cross-check: identical decisions and message counts ✓");
    Ok(())
}
