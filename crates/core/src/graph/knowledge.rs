//! The `f`, `D`, and `V` functions of Appendix A.2.7.
//!
//! For a graph `G_{i,m}`:
//!
//! * `f(j, m')` — the set of faulty agents that `i` knows that `j` knows
//!   about at time `m'`;
//! * `D(S, m') = ⋃_{k ∈ S} f(k, m')` — the faulty agents distributedly
//!   known within `S`;
//! * `V(j, m')` — the set of initial values that `i` knows `j` knows about.
//!
//! All are computed bottom-up in `O(n² · m)` table operations. The values
//! are meaningful only for vertices inside the graph owner's cone (labels
//! elsewhere are `?`); the analysis respects this.
//!
//! `f` adds the sender of every omitted edge `(k, m'−1) → (j, m')`: under
//! sending omission (the paper's model, and crash) an omission proves its
//! sender faulty, so `f(j, m')` is a set of faulty agents of size at most
//! `t`. Under general omission a receiver may miss frames itself, so `f`
//! is only the set of agents `j` knows to have an omission *on some edge
//! with it* — the sender, or `j` itself, is faulty — and can name more
//! than `t` agents when `j` is faulty. `D(S, m')` over agents that
//! delivered to an observer is contained in the observer's `f` in every
//! model; the analysis asserts equality only where `|f| ≤ t`.

use crate::types::{AgentId, AgentSet, Value};

use super::{CommGraph, EdgeLabel};

/// Precomputed `f` and `V` tables for every vertex of a graph.
pub struct KnowledgeTables {
    n: usize,
    time: u32,
    /// `known[vid]` = `(f(j, m'), V(j, m'))`, the values as a bitmask: bit
    /// `v` set iff `v ∈ V(j, m')`. One table, one allocation.
    known: Vec<(AgentSet, u8)>,
}

impl KnowledgeTables {
    /// Computes the tables for `graph`.
    #[allow(clippy::needless_range_loop)] // j indexes agents across several tables
    pub fn compute(graph: &CommGraph) -> Self {
        let n = graph.n();
        let time = graph.time();
        let vcount = (time as usize + 1) * n;
        let mut known = vec![(AgentSet::empty(), 0u8); vcount];
        // Time 0: an agent knows only its own initial value (if labeled).
        for j in 0..n {
            if let Some(v) = graph.pref(AgentId::new(j)).value() {
                known[j].1 = 1 << v.as_bit();
            }
        }
        for m in 1..=time {
            for j in 0..n {
                let vid = m as usize * n + j;
                let prev = (m as usize - 1) * n + j;
                // Persistence.
                let (mut f, mut vals) = known[prev];
                for (k, label) in graph.incoming(m, AgentId::new(j)).enumerate() {
                    match label {
                        EdgeLabel::Dropped => {
                            // Under sending omissions, a missing message
                            // proves the sender faulty.
                            f.insert(AgentId::new(k));
                        }
                        EdgeLabel::Delivered => {
                            let (kf, kvals) = known[(m as usize - 1) * n + k];
                            f = f.union(kf);
                            vals |= kvals;
                        }
                        EdgeLabel::Unknown => {}
                    }
                }
                known[vid] = (f, vals);
            }
        }
        KnowledgeTables { n, time, known }
    }

    fn vid(&self, agent: AgentId, m: u32) -> usize {
        debug_assert!(m <= self.time && agent.index() < self.n);
        m as usize * self.n + agent.index()
    }

    /// `f(agent, m)`: the faulty agents known at `(agent, m)`.
    pub fn known_faulty(&self, agent: AgentId, m: u32) -> AgentSet {
        self.known[self.vid(agent, m)].0
    }

    /// Whether `v ∈ V(agent, m)`: the vertex knows some agent started with
    /// initial preference `v`.
    pub fn knows_value(&self, agent: AgentId, m: u32, v: Value) -> bool {
        self.known[self.vid(agent, m)].1 & (1 << v.as_bit()) != 0
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_util::{fip_round, fip_rounds_failure_free, initial_graphs};
    use super::*;

    fn a(i: usize) -> AgentId {
        AgentId::new(i)
    }

    #[test]
    fn no_failures_no_known_faulty() {
        let graphs = fip_rounds_failure_free(&[Value::Zero, Value::One, Value::One], 3);
        let k = KnowledgeTables::compute(&graphs[0]);
        for m in 0..=3 {
            for j in 0..3 {
                assert!(k.known_faulty(a(j), m).is_empty());
            }
        }
    }

    #[test]
    fn direct_omission_detected() {
        let graphs = initial_graphs(&[Value::One; 3]);
        let r1 = fip_round(&graphs, |from, to| !(from == a(0) && to == a(1)));
        let k = KnowledgeTables::compute(&r1[1]);
        assert_eq!(
            k.known_faulty(a(1), 1),
            AgentSet::singleton(a(0)),
            "a1 must know a0 is faulty after the omission"
        );
        assert!(k.known_faulty(a(2), 0).is_empty());
    }

    #[test]
    fn faultiness_knowledge_is_relayed() {
        let graphs = initial_graphs(&[Value::One; 3]);
        let r1 = fip_round(&graphs, |from, to| !(from == a(0) && to == a(1)));
        let r2 = fip_round(&r1, |_, _| true);
        // Agent 2 learns in round 2 (via agent 1) that agent 0 is faulty.
        let k = KnowledgeTables::compute(&r2[2]);
        assert!(k.known_faulty(a(2), 2).contains(a(0)));
        // At time 1 agent 2 did not know yet.
        assert!(k.known_faulty(a(2), 1).is_empty());
    }

    #[test]
    fn value_knowledge_spreads() {
        let graphs = initial_graphs(&[Value::Zero, Value::One, Value::One]);
        let k0 = KnowledgeTables::compute(&graphs[1]);
        assert!(k0.knows_value(a(1), 0, Value::One));
        assert!(!k0.knows_value(a(1), 0, Value::Zero));
        let r1 = fip_rounds_failure_free(&[Value::Zero, Value::One, Value::One], 1);
        let k1 = KnowledgeTables::compute(&r1[1]);
        assert!(k1.knows_value(a(1), 1, Value::Zero));
        assert!(k1.knows_value(a(1), 1, Value::One));
    }

    #[test]
    fn value_knowledge_blocked_by_omission() {
        let graphs = initial_graphs(&[Value::Zero, Value::One, Value::One]);
        // a0 (the only zero) silent towards a1 and a2.
        let r1 = fip_round(&graphs, |from, to| from != a(0) || to == a(0));
        let k = KnowledgeTables::compute(&r1[1]);
        assert!(!k.knows_value(a(1), 1, Value::Zero));
        assert!(k.knows_value(a(1), 1, Value::One));
    }
}
