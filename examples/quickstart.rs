//! Quickstart: a complete, asserting walkthrough of the crate.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Two scenarios, both checked with `assert!`s so the example doubles as
//! an executable piece of documentation (CI runs it):
//!
//! 1. **Failure-free `P_opt`** — the paper's optimal protocol over the
//!    full-information exchange decides in round 2 when nothing fails
//!    (Prop 8.2 analogue for the FIP), printed round by round.
//! 2. **`P_basic` under omissions** — a faulty agent drops messages, the
//!    protocol still satisfies the EBA specification, and every
//!    0-decision is justified by a 0-chain.

use eba::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    failure_free_popt()?;
    lossy_pbasic()?;
    println!("\nquickstart: all assertions passed");
    Ok(())
}

/// Scenario 1: `P_opt` on a failure-free run, round-by-round.
fn failure_free_popt() -> Result<(), Box<dyn std::error::Error>> {
    // 5 agents, at most 2 omission-faulty (the SO(2) context).
    let params = Params::new(5, 2)?;

    // The context γ: P_opt reads the communication graph of the
    // full-information exchange E_fip; together they are optimal among
    // EBA protocols (Prop 7.9 / Cor 7.8). `Context::fip` bundles the
    // pair; the registry (`NamedStack::by_name("E_fip/P_opt", …)`) builds
    // the same stack from a string.
    let ctx = Context::fip(params);

    // Agent 0 prefers 0, everyone else prefers 1 — and nobody fails
    // (the failure-free pattern is the Scenario default).
    let inits = vec![Value::Zero, Value::One, Value::One, Value::One, Value::One];
    let run = Scenario::of(&ctx).inits(&inits).run()?;

    println!("== scenario 1: {} on a failure-free run ==", ctx.name());

    // Round-by-round state: `states[m][i]` is agent i's state at time m.
    for (m, round_states) in run.states.iter().enumerate() {
        println!("  time {m}:");
        for (i, state) in round_states.iter().enumerate() {
            println!("    a{i}: {state}");
        }
        if m >= 2 {
            println!("    … (all later rounds are quiescent)");
            break;
        }
    }

    // Agent 0 holds the 0 and can decide it immediately (round 1); with
    // full information and no failures everyone else hears the 0 in round
    // 1 and decides it in round 2 — no EBA protocol can be faster.
    for agent in params.agents() {
        assert_eq!(run.decision_value(agent), Some(Value::Zero));
        let expected = if agent == AgentId::new(0) { 1 } else { 2 };
        assert_eq!(run.decision_round(agent), Some(expected));
    }
    println!("  a0 decided 0 in round 1; everyone else in round 2 (optimal)");

    // The four EBA properties of Section 5 hold (Validity in its strong
    // form, faulty agents included).
    check_eba(ctx.exchange(), &run)?;
    check_decides_by(&run, params.decide_by_round())?;
    Ok(())
}

/// Scenario 2: `P_basic` against a sending-omission adversary.
fn lossy_pbasic() -> Result<(), Box<dyn std::error::Error>> {
    let params = Params::new(5, 2)?;
    let ctx = Context::basic(params);

    let inits = vec![Value::Zero, Value::One, Value::One, Value::One, Value::One];

    // Adversary: agent 4 is faulty and drops its round-1 and round-2
    // messages to agents 1 and 2.
    let mut pattern =
        FailurePattern::new(params, AgentSet::singleton(AgentId::new(4)).complement(5))?;
    for m in 0..2 {
        pattern.drop_message(m, AgentId::new(4), AgentId::new(1))?;
        pattern.drop_message(m, AgentId::new(4), AgentId::new(2))?;
    }

    let run = Scenario::of(&ctx)
        .pattern(pattern.clone())
        .inits(&inits)
        .run()?;
    let (rounds, values) = run.decisions();

    println!("\n== scenario 2: {} under omissions ==", ctx.name());
    for agent in params.agents() {
        println!(
            "  {agent}: decided {} in round {} ({})",
            values[agent.index()].map_or("⊥".into(), |v| v.to_string()),
            rounds[agent.index()].map_or("∞".into(), |r| r.to_string()),
            if pattern.is_faulty(agent) {
                "faulty"
            } else {
                "nonfaulty"
            },
        );
    }
    // Traffic is a view of the run and its pattern (Prop 8.1's counts).
    let traffic = Metrics::of(ctx.exchange(), &run, &pattern);
    println!(
        "  messages sent: {} ({} bits); delivered: {}",
        traffic.messages_sent, traffic.bits_sent, traffic.messages_delivered,
    );

    // The spec holds on every run of the context, lossy or not (Prop 6.1);
    // decisions arrive by round t + 2.
    check_eba(ctx.exchange(), &run)?;
    check_decides_by(&run, params.decide_by_round())?;
    assert!(rounds
        .iter()
        .all(|r| r.is_some_and(|round| round <= params.decide_by_round())));
    // Agreement on the only value anyone held besides 1's majority: the 0
    // spread from agent 0, so everyone decides 0.
    assert!(values.iter().all(|v| *v == Some(Value::Zero)));
    println!(
        "  EBA specification: satisfied (decisions by round t + 2 = {})",
        params.decide_by_round()
    );

    // Every 0-decision is backed by a 0-chain (the paper's key safety
    // device against omission failures): an unbroken path of Decide(0)
    // messages from an agent that initially preferred 0.
    let chain = zero_chain_ending_at(ctx.exchange(), &run, &pattern, AgentId::new(3))
        .expect("a3 decided 0");
    let rendered: Vec<String> = chain.iter().map(|a| a.to_string()).collect();
    println!("  0-chain into a3: {}", rendered.join(" → "));
    // (The Err carries the first agent whose 0-decision lacks a chain.)
    verify_zero_chains(ctx.exchange(), &run, &pattern)
        .map_err(|a| format!("{a} decided 0 without a 0-chain"))?;

    // A compact timeline of the whole run.
    println!("\n{}", render_timeline(&run));
    Ok(())
}
