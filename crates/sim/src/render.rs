//! Human-readable rendering of runs: a compact per-agent timeline for
//! debugging protocols and for the runnable examples.

use eba_core::exchange::InformationExchange;
use eba_core::types::{Action, AgentId};

use crate::enumerate::EnumRun;

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
pub fn render_timeline<E: InformationExchange>(run: &EnumRun<E>) -> String {
    let horizon = run.horizon();
    let (rounds, values) = run.decisions();
    let mut out = String::new();
    out.push_str("round     |");
    for r in 1..=horizon {
        out.push_str(&format!(" {r}"));
    }
    out.push_str(" |\n");
    for agent in AgentId::all(run.inits.len()) {
        let i = agent.index();
        let faulty = !run.nonfaulty.contains(agent);
        let label = format!("{agent}{}", if faulty { " (F)" } else { "" });
        out.push_str(&format!("{label:<10}|"));
        for m in 0..horizon {
            let cell = match run.actions[m as usize][i] {
                Action::Noop => "·".to_string(),
                Action::Decide(v) => v.to_string(),
            };
            out.push_str(&format!(" {cell}"));
        }
        out.push_str(" |");
        match (values[i], rounds[i]) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;
    use eba_core::prelude::*;

    fn sample_run() -> EnumRun<MinExchange> {
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
        let run = sample_run();
        let s = render_timeline(&run);
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
        let run = Scenario::of(&Context::minimal(Params::new(3, 1).unwrap()))
            .inits(&[Value::One; 3])
            .horizon(1)
            .run()
            .unwrap();
        let s = render_timeline(&run);
        assert_eq!(s.matches("undecided").count(), 3);
    }
}
