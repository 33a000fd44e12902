//! Example 7.1 from the paper, live: `n = 20`, `t = 10`, agents 0–9
//! faulty and totally silent, every initial preference 1.
//!
//! The full-information protocol `P_opt` gains common knowledge of the
//! faulty set after two rounds and decides in **round 3**; `P_min` and
//! `P_basic` cannot rule out a hidden 0-chain and wait until **round 12**
//! (`t + 2`). The ablated `P_opt∖CK` shows that the common-knowledge
//! rules are exactly what buys the speedup.
//!
//! ```text
//! cargo run --release --example silent_adversary
//! ```

use eba::core::graph::FipAnalysis;
use eba::core::protocols::ActionProtocol;
use eba::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let params = Params::new(20, 10)?;
    let silent: AgentSet = (0..10).map(AgentId::new).collect();
    let pattern = silent_pattern(params, silent, params.default_horizon())?;
    let inits = vec![Value::One; 20];
    let observer = AgentId::new(10); // a nonfaulty agent

    println!("== Example 7.1: n = 20, t = 10, agents a0–a9 silent, all prefer 1 ==\n");

    // The epistemic timeline, from the observer's own communication graph.
    let fip_ctx = Context::fip(params);
    let trace = Scenario::of(&fip_ctx)
        .pattern(pattern.clone())
        .inits(&inits)
        .run()?;
    for m in 0..=3u32 {
        let state = &trace.states[m as usize][observer.index()];
        let analysis = FipAnalysis::analyze(&state.graph, params, observer);
        println!(
            "time {m}: {observer} knows {:2} faulty agents; C_N(t-faulty ∧ no-decided ∧ ∃1) {}",
            analysis.owner_known_faulty().len(),
            if analysis.common_knowledge_holds(Value::One) {
                "HOLDS → decide next round"
            } else {
                "does not hold"
            },
        );
    }
    println!();

    // Decision rounds for all four protocols on the same adversary.
    let rounds = |name: &str, r: u32| println!("  {name:<10} decides in round {r}");
    rounds(
        fip_ctx.protocol().name(),
        trace
            .max_decision_round(pattern.nonfaulty())
            .expect("all decide"),
    );
    let no_ck_ctx = Context::new(
        FipExchange::new(params),
        POpt::without_common_knowledge(params),
    );
    let t2 = Scenario::of(&no_ck_ctx)
        .pattern(pattern.clone())
        .inits(&inits)
        .run()?;
    rounds(
        no_ck_ctx.protocol().name(),
        t2.max_decision_round(pattern.nonfaulty()).unwrap(),
    );
    let basic_ctx = Context::basic(params);
    let basic = Scenario::of(&basic_ctx)
        .pattern(pattern.clone())
        .inits(&inits)
        .run()?;
    rounds(
        "P_basic",
        basic.max_decision_round(pattern.nonfaulty()).unwrap(),
    );
    let min_ctx = Context::minimal(params);
    let min = Scenario::of(&min_ctx)
        .pattern(pattern.clone())
        .inits(&inits)
        .run()?;
    rounds(
        "P_min",
        min.max_decision_round(pattern.nonfaulty()).unwrap(),
    );

    println!("\npaper: P_fip decides in round 3; P_min and P_basic in round 12.");
    Ok(())
}
