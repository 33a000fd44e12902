//! Human-readable rendering of traces: a compact per-agent timeline for
//! debugging protocols and for the runnable examples.

use eba_core::exchange::InformationExchange;
use eba_core::types::{Action, AgentId, Value};

use crate::trace::{MsgClass, Trace};

/// Renders a run as an ASCII timeline, one row per agent and one column
/// per round:
///
/// ```text
/// round     | 1 2 3 4 |
/// a0        | 0 · · · | decided 0 in round 1
/// a1 (F)    | · 0 · · | decided 0 in round 2  [faulty]
/// a2        | · 0 · · | decided 0 in round 2
/// ```
///
/// Cells: `·` = noop, `0`/`1` = the decision taken in that round.
pub fn render_timeline<E: InformationExchange>(trace: &Trace<E>) -> String {
    let n = trace.params.n();
    let horizon = trace.horizon();
    let mut out = String::new();
    out.push_str("round     |");
    for r in 1..=horizon {
        out.push_str(&format!(" {r}"));
    }
    out.push_str(" |\n");
    for i in 0..n {
        let agent = AgentId::new(i);
        let faulty = trace.pattern.is_faulty(agent);
        let label = format!("{agent}{}", if faulty { " (F)" } else { "" });
        out.push_str(&format!("{label:<10}|"));
        for m in 0..horizon {
            let cell = match trace.actions[m as usize][i] {
                Action::Noop => "·".to_string(),
                Action::Decide(v) => v.to_string(),
            };
            out.push_str(&format!(" {cell}"));
        }
        out.push_str(" |");
        match (trace.decision_value(agent), trace.decision_round(agent)) {
            (Some(v), Some(r)) => out.push_str(&format!(" decided {v} in round {r}")),
            _ => out.push_str(" undecided"),
        }
        if faulty {
            out.push_str("  [faulty]");
        }
        out.push('\n');
    }
    out
}

/// Renders the deliveries of one round as arrows, decision announcements
/// highlighted:
///
/// ```text
/// round 2: a0 →0 a1, a0 →0 a2, a3 → a1
/// ```
pub fn render_round_deliveries<E: InformationExchange>(trace: &Trace<E>, round: u32) -> String {
    assert!(round >= 1 && round <= trace.horizon(), "round out of range");
    let mut parts = Vec::new();
    for d in &trace.deliveries[round as usize - 1] {
        let arrow = match d.class {
            MsgClass::Decide(Value::Zero) => "→0",
            MsgClass::Decide(Value::One) => "→1",
            MsgClass::Other => "→",
        };
        parts.push(format!("{} {arrow} {}", d.from, d.to));
    }
    format!(
        "round {round}: {}",
        if parts.is_empty() {
            "(silence)".into()
        } else {
            parts.join(", ")
        }
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;
    use eba_core::prelude::*;

    fn sample_trace() -> Trace<MinExchange> {
        let params = Params::new(3, 1).unwrap();
        let faulty = AgentSet::singleton(AgentId::new(0));
        Scenario::of(&Context::minimal(params))
            .pattern(silent_pattern(params, faulty, 4).unwrap())
            .inits(&[Value::Zero, Value::One, Value::One])
            .run()
            .unwrap()
    }

    #[test]
    fn timeline_shape_and_content() {
        let trace = sample_trace();
        let s = render_timeline(&trace);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4, "header + one row per agent");
        assert!(lines[0].starts_with("round"));
        // a0 is faulty and decides 0 in round 1.
        assert!(lines[1].contains("a0 (F)"));
        assert!(lines[1].contains("decided 0 in round 1"));
        assert!(lines[1].contains("[faulty]"));
        // The nonfaulty agents never hear the silent 0 and decide 1 at the
        // deadline.
        assert!(lines[2].contains("decided 1 in round 3"));
        assert!(!lines[2].contains("[faulty]"));
    }

    #[test]
    fn undecided_agents_are_marked() {
        let trace = Scenario::of(&Context::minimal(Params::new(3, 1).unwrap()))
            .inits(&[Value::One; 3])
            .horizon(1)
            .run()
            .unwrap();
        let s = render_timeline(&trace);
        assert_eq!(s.matches("undecided").count(), 3);
    }

    #[test]
    fn round_deliveries_render_decision_arrows() {
        let trace = sample_trace();
        // Round 1: a0's decide-0 broadcast is silenced except to itself;
        // self-delivery is kept by silent_pattern.
        let r1 = render_round_deliveries(&trace, 1);
        assert!(r1.contains("a0 →0 a0"), "{r1}");
        assert!(!r1.contains("a0 →0 a1"), "{r1}");
        // Round 3: the nonfaulty deadline decisions are announced.
        let r3 = render_round_deliveries(&trace, 3);
        assert!(r3.contains("a1 →1"), "{r3}");
    }

    #[test]
    #[should_panic(expected = "round out of range")]
    fn round_zero_is_rejected() {
        let trace = sample_trace();
        let _ = render_round_deliveries(&trace, 0);
    }
}
