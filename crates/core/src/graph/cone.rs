//! Causal cones: the hears-from relation of Definition A.1.
//!
//! `(j', m')` *hears from* `(j, m)` in a run if there is a chain of
//! delivered messages (with time passing freely at each agent) from `(j, m)`
//! to `(j', m')`. The cone of a vertex `(j, m)` is the set of vertices it
//! hears from — exactly the part of the run that determines `j`'s local
//! state at time `m` under the full-information exchange.
//!
//! Agents always "hear from" their own past regardless of self-message
//! drops, because `δ` retains the agent's own graph across rounds.

use crate::types::{AgentId, BitSet};

use super::{CommGraph, EdgeLabel};

/// Precomputed cones for every vertex of a communication graph.
///
/// Cones are computed from the *known-delivered* edges of the graph. For
/// vertices inside the graph owner's cone this is exactly the true
/// hears-from relation of the underlying run; labels outside the owner's
/// cone are `?`, so cones of out-of-cone vertices are underapproximations
/// and must not be used (the analysis never does).
pub struct ConeTable {
    n: usize,
    time: u32,
    /// `cones[vid(j, m)]` = the set of vertex ids `(j, m)` hears from.
    cones: Vec<BitSet>,
}

impl ConeTable {
    /// Computes cones bottom-up over all vertices of `graph`.
    pub fn compute(graph: &CommGraph) -> Self {
        let n = graph.n();
        let time = graph.time();
        let vcount = (time as usize + 1) * n;
        let mut cones: Vec<BitSet> = Vec::with_capacity(vcount);
        for m in 0..=time {
            for j in 0..n {
                let vid = Self::vid_raw(n, AgentId::new(j), m);
                let mut cone = if m == 0 {
                    BitSet::new(vcount)
                } else {
                    // Persistence: everything known at (j, m-1) is known at
                    // (j, m).
                    cones[Self::vid_raw(n, AgentId::new(j), m - 1)].clone()
                };
                cone.insert(vid);
                if m >= 1 {
                    for (k, label) in graph.incoming(m, AgentId::new(j)).enumerate() {
                        if label == EdgeLabel::Delivered {
                            let prev = Self::vid_raw(n, AgentId::new(k), m - 1);
                            cone.union_with(&cones[prev]);
                        }
                    }
                }
                cones.push(cone);
            }
        }
        ConeTable { n, time, cones }
    }

    fn vid_raw(n: usize, agent: AgentId, m: u32) -> usize {
        m as usize * n + agent.index()
    }

    /// The vertex id of `(agent, m)` within this table's graph.
    pub fn vid(&self, agent: AgentId, m: u32) -> usize {
        debug_assert!(m <= self.time && agent.index() < self.n);
        Self::vid_raw(self.n, agent, m)
    }

    /// The cone (hears-from set) of `(agent, m)`.
    pub fn cone(&self, agent: AgentId, m: u32) -> &BitSet {
        &self.cones[self.vid(agent, m)]
    }

    /// Whether `(src, src_m)` is heard from by `(dst, dst_m)`.
    pub fn hears_from(&self, dst: AgentId, dst_m: u32, src: AgentId, src_m: u32) -> bool {
        self.cone(dst, dst_m).contains(self.vid(src, src_m))
    }

    /// The latest time `m'` such that `(src, m')` is in the cone of
    /// `(dst, m)`, or `-1` if none — `last_{dst,src}` of Definition A.6.
    pub fn last_heard(&self, dst: AgentId, m: u32, src: AgentId) -> i64 {
        let cone = self.cone(dst, m);
        for mm in (0..=m).rev() {
            if cone.contains(self.vid(src, mm)) {
                return mm as i64;
            }
        }
        -1
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_util::{fip_round, initial_graphs};
    use super::*;
    use crate::types::Value;

    fn a(i: usize) -> AgentId {
        AgentId::new(i)
    }

    #[test]
    fn cone_at_time_zero_is_self() {
        let graphs = initial_graphs(&[Value::One; 3]);
        let t = ConeTable::compute(&graphs[0]);
        assert_eq!(t.cone(a(0), 0).count(), 1);
        assert!(t.hears_from(a(0), 0, a(0), 0));
    }

    #[test]
    fn failure_free_cone_is_everything() {
        let mut graphs = initial_graphs(&[Value::One; 3]);
        for _ in 0..2 {
            graphs = fip_round(&graphs, |_, _| true);
        }
        let t = ConeTable::compute(&graphs[1]);
        // After 2 failure-free rounds, (a1, 2) hears from every vertex at
        // times 0 and 1, plus itself at time 2 (no one's time-2 state can
        // have arrived yet): 3 + 3 + 1 = 7.
        assert_eq!(t.cone(a(1), 2).count(), 7);
        for j in 0..3 {
            assert!(t.hears_from(a(1), 2, a(j), 0));
            assert!(t.hears_from(a(1), 2, a(j), 1));
            assert_eq!(t.hears_from(a(1), 2, a(j), 2), j == 1);
        }
    }

    #[test]
    fn silent_agent_is_outside_cones() {
        let mut graphs = initial_graphs(&[Value::One; 3]);
        for _ in 0..2 {
            graphs = fip_round(&graphs, |from, to| from != a(0) || to == a(0));
        }
        let t = ConeTable::compute(&graphs[1]);
        // Agent 1 never hears from the silent agent 0 at any time.
        for m in 0..=2 {
            assert!(!t.hears_from(a(1), 2, a(0), m), "heard from (a0, {m})");
        }
        assert_eq!(t.last_heard(a(1), 2, a(0)), -1);
        // But hears from agent 2 at time 1 (delivered in round 2).
        assert!(t.hears_from(a(1), 2, a(2), 1));
        assert_eq!(t.last_heard(a(1), 2, a(2)), 1);
    }

    #[test]
    fn persistence_survives_self_message_drop() {
        // Agent 0 (faulty) drops even its message to itself; its own past
        // must still be in its cone because δ keeps the agent's own graph.
        let graphs = initial_graphs(&[Value::One; 3]);
        let r1 = fip_round(&graphs, |from, _| from != a(0));
        let t = ConeTable::compute(&r1[0]);
        assert!(t.hears_from(a(0), 1, a(0), 0));
        assert_eq!(t.last_heard(a(0), 1, a(0)), 1);
    }

    #[test]
    fn relayed_cone_membership() {
        // a0 → a1 in round 1 (only), then a1 → a2 in round 2:
        // (a2, 2) must hear from (a0, 0) transitively.
        let graphs = initial_graphs(&[Value::Zero, Value::One, Value::One]);
        let r1 = fip_round(&graphs, |from, to| from != a(0) || to == a(1));
        let r2 = fip_round(&r1, |from, _| from != a(0));
        let t = ConeTable::compute(&r2[2]);
        assert!(t.hears_from(a(2), 2, a(0), 0));
        assert!(!t.hears_from(a(2), 2, a(0), 1));
        assert_eq!(t.last_heard(a(2), 2, a(0)), 0);
    }

    #[test]
    fn cones_compose() {
        // cone(j, m') computed from the owner's graph equals the cone that
        // would be computed inside any observer containing (j, m').
        let mut graphs = initial_graphs(&[Value::Zero, Value::One, Value::One, Value::One]);
        // A mildly lossy schedule with a0 faulty.
        graphs = fip_round(&graphs, |from, to| from != a(0) || to.index() % 2 == 1);
        graphs = fip_round(&graphs, |from, to| from != a(0) || to == a(2));
        graphs = fip_round(&graphs, |_, _| true);
        let owner = ConeTable::compute(&graphs[3]);
        // (a1, 2) is in the owner's cone (a1 is nonfaulty). Its cone per the
        // owner's table must match the cone computed from a1's own graph.
        let inner = ConeTable::compute(&graphs[1]);
        let from_owner = owner.cone(a(1), 2);
        let from_inner = inner.cone(a(1), 2);
        for m in 0..=2u32 {
            for j in 0..4 {
                assert_eq!(
                    from_owner.contains(owner.vid(a(j), m)),
                    from_inner.contains(inner.vid(a(j), m)),
                    "cone mismatch at (a{j}, {m})"
                );
            }
        }
    }
}
