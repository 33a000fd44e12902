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

use crate::types::AgentId;

use super::{CommGraph, EdgeLabel};

/// Precomputed cones for every vertex of a communication graph.
///
/// Cones are computed from the *known-delivered* edges of the graph. For
/// vertices inside the graph owner's cone this is exactly the true
/// hears-from relation of the underlying run; labels outside the owner's
/// cone are `?`, so cones of out-of-cone vertices are underapproximations
/// and must not be used (the analysis never does).
///
/// The cones are one flat word table: a vertex's cone is `stride` words,
/// one bit per vertex id, and the table is one allocation however many
/// vertices the graph has.
pub struct ConeTable {
    n: usize,
    time: u32,
    /// Words per cone: `⌈vertices / 64⌉`.
    stride: usize,
    /// `words[vid(j, m) * stride..][..stride]` = the set of vertex ids
    /// `(j, m)` hears from.
    words: Vec<u64>,
}

impl ConeTable {
    /// Computes cones bottom-up over all vertices of `graph`.
    pub fn compute(graph: &CommGraph) -> Self {
        let (n, time) = (graph.n(), graph.time());
        let vcount = (time as usize + 1) * n;
        let stride = vcount.div_ceil(64);
        let mut words = vec![0; vcount * stride];
        for m in 0..=time {
            for j in 0..n {
                let agent = AgentId::new(j);
                let vid = Self::vid_raw(n, agent, m);
                // Every vertex of time m − 1 precedes (j, m) in the table.
                let (earlier, rest) = words.split_at_mut(vid * stride);
                let cone = &mut rest[..stride];
                let of = |k, m| &earlier[Self::vid_raw(n, AgentId::new(k), m) * stride..][..stride];
                if m >= 1 {
                    // Persistence: everything known at (j, m-1) is known at
                    // (j, m).
                    cone.copy_from_slice(of(j, m - 1));
                    for (k, label) in graph.incoming(m, agent).enumerate() {
                        if label == EdgeLabel::Delivered {
                            cone.iter_mut().zip(of(k, m - 1)).for_each(|(w, o)| *w |= o);
                        }
                    }
                }
                cone[vid / 64] |= 1 << (vid % 64);
            }
        }
        ConeTable {
            n,
            time,
            stride,
            words,
        }
    }

    fn vid_raw(n: usize, agent: AgentId, m: u32) -> usize {
        m as usize * n + agent.index()
    }

    fn vid(&self, agent: AgentId, m: u32) -> usize {
        debug_assert!(m <= self.time && agent.index() < self.n);
        Self::vid_raw(self.n, agent, m)
    }

    /// The cone (hears-from set) of `(agent, m)`, a bit per vertex id.
    fn cone(&self, agent: AgentId, m: u32) -> &[u64] {
        &self.words[self.vid(agent, m) * self.stride..][..self.stride]
    }

    /// Whether `(src, src_m)` is heard from by `(dst, dst_m)`.
    pub fn hears_from(&self, dst: AgentId, dst_m: u32, src: AgentId, src_m: u32) -> bool {
        let vid = self.vid(src, src_m);
        self.cone(dst, dst_m)[vid / 64] >> (vid % 64) & 1 != 0
    }

    /// The latest time `m'` such that `(src, m')` is in the cone of
    /// `(dst, m)`, or `-1` if none — `last_{dst,src}` of Definition A.6.
    pub fn last_heard(&self, dst: AgentId, m: u32, src: AgentId) -> i64 {
        (0..=m)
            .rev()
            .find(|&mm| self.hears_from(dst, m, src, mm))
            .map_or(-1, i64::from)
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_util::{fip_round, initial_graphs};
    use super::*;
    use crate::types::{BitSet, Value};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn a(i: usize) -> AgentId {
        AgentId::new(i)
    }

    /// The number of vertices `(agent, m)` hears from, itself included.
    fn cone_size(t: &ConeTable, agent: AgentId, m: u32) -> usize {
        t.cone(agent, m)
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }

    #[test]
    fn cone_at_time_zero_is_self() {
        let graphs = initial_graphs(&[Value::One; 3]);
        let t = ConeTable::compute(&graphs[0]);
        assert_eq!(cone_size(&t, a(0), 0), 1);
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
        assert_eq!(cone_size(&t, a(1), 2), 7);
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
        for m in 0..=2u32 {
            for j in 0..4 {
                assert_eq!(
                    owner.hears_from(a(1), 2, a(j), m),
                    inner.hears_from(a(1), 2, a(j), m),
                    "cone mismatch at (a{j}, {m})"
                );
            }
        }
    }

    /// The cone table as it was built before it was one flat word table —
    /// one `BitSet` per vertex, each cloned from the vertex's own past and
    /// unioned with its delivered senders' — kept as the reference the
    /// flat table is checked against.
    fn bitset_cones(graph: &CommGraph) -> Vec<BitSet> {
        let (n, time) = (graph.n(), graph.time());
        let vcount = (time as usize + 1) * n;
        let mut cones: Vec<BitSet> = Vec::with_capacity(vcount);
        for m in 0..=time {
            for j in 0..n {
                let mut cone = match m {
                    0 => BitSet::new(vcount),
                    _ => cones[(m as usize - 1) * n + j].clone(),
                };
                cone.insert(m as usize * n + j);
                if m >= 1 {
                    for (k, label) in graph.incoming(m, a(j)).enumerate() {
                        if label == EdgeLabel::Delivered {
                            cone.union_with(&cones[(m as usize - 1) * n + k]);
                        }
                    }
                }
                cones.push(cone);
            }
        }
        cones
    }

    #[test]
    fn flat_cones_equal_the_bitset_cones_on_lossy_graphs() {
        // 64-vertex boundaries: n = 8 at time 7 has exactly 64 vertices,
        // n = 9 crosses into a second word at time 7, n = 33 at time 1.
        let mut rng = StdRng::seed_from_u64(0xC0E);
        for (n, rounds) in [(3, 4), (8, 7), (9, 7), (33, 2)] {
            let inits: Vec<Value> = (0..n)
                .map(|_| Value::from_bit(rng.random_range(0..2)))
                .collect();
            let mut graphs = initial_graphs(&inits);
            for _ in 0..rounds {
                let arrives: Vec<bool> = (0..n * n).map(|_| rng.random_bool(0.7)).collect();
                graphs = fip_round(&graphs, |from, to| arrives[from.index() * n + to.index()]);
                for g in &graphs {
                    let (flat, reference) = (ConeTable::compute(g), bitset_cones(g));
                    let vertices = (0..=g.time()).flat_map(|m| (0..n).map(move |j| (a(j), m)));
                    for (v, (dst, dst_m)) in vertices.clone().enumerate() {
                        assert_eq!(cone_size(&flat, dst, dst_m), reference[v].count());
                        for (u, (src, src_m)) in vertices.clone().enumerate() {
                            assert_eq!(
                                flat.hears_from(dst, dst_m, src, src_m),
                                reference[v].contains(u),
                                "n = {n}: ({dst}, {dst_m}) hears from ({src}, {src_m})"
                            );
                        }
                    }
                }
            }
        }
    }
}
