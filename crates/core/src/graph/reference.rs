//! The label-at-a-time communication graph [`CommGraph`] was before it
//! packed its labels — one enum per label in two `Vec`s, merged through
//! [`EdgeLabel::merge`] / [`PrefLabel::merge`] — kept as the reference
//! model the packed graph is checked against, label for label.

use std::hash::{BuildHasher, RandomState};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::types::{AgentId, Value};

use super::{CommGraph, EdgeLabel, PrefLabel};

#[derive(Clone, PartialEq, Eq, Debug)]
struct RefGraph {
    n: usize,
    time: u32,
    prefs: Vec<PrefLabel>,
    /// Indexed `(round - 1) * n² + from * n + to`.
    edges: Vec<EdgeLabel>,
}

impl RefGraph {
    fn initial(n: usize, owner: AgentId, init: Value) -> Self {
        let mut prefs = vec![PrefLabel::Unknown; n];
        prefs[owner.index()] = PrefLabel::Known(init);
        RefGraph {
            n,
            time: 0,
            prefs,
            edges: Vec::new(),
        }
    }

    fn edge_index(&self, round: u32, from: AgentId, to: AgentId) -> usize {
        (round as usize - 1) * self.n * self.n + from.index() * self.n + to.index()
    }

    fn set_edge(&mut self, round: u32, from: AgentId, to: AgentId, label: EdgeLabel) {
        let idx = self.edge_index(round, from, to);
        self.edges[idx] = self.edges[idx].merge(label);
    }

    fn merge_from(&mut self, other: &RefGraph) {
        for (p, o) in self.prefs.iter_mut().zip(&other.prefs) {
            *p = p.merge(*o);
        }
        for (e, o) in self.edges.iter_mut().zip(&other.edges) {
            *e = e.merge(*o);
        }
    }

    fn receive_round(&self, owner: AgentId, received: &[Option<&RefGraph>]) -> RefGraph {
        let mut next = self.clone();
        next.time += 1;
        next.edges
            .resize(next.time as usize * self.n * self.n, EdgeLabel::Unknown);
        for (j, msg) in received.iter().enumerate() {
            let label = match msg {
                Some(g) => {
                    next.merge_from(g);
                    EdgeLabel::Delivered
                }
                None => EdgeLabel::Dropped,
            };
            next.set_edge(next.time, AgentId::new(j), owner, label);
        }
        next
    }

    fn known_edges(&self) -> Vec<(u32, AgentId, AgentId, EdgeLabel)> {
        let n = self.n;
        let known = self.edges.iter().enumerate().filter(|(_, l)| l.is_known());
        known
            .map(|(idx, &l)| {
                let rem = idx % (n * n);
                let round = (idx / (n * n)) as u32 + 1;
                (round, AgentId::new(rem / n), AgentId::new(rem % n), l)
            })
            .collect()
    }

    /// What `CommGraph`'s `Debug` printed for these labels.
    fn render(&self) -> String {
        let prefs: Vec<String> = self.prefs.iter().map(|p| p.to_string()).collect();
        let mut out = format!("CommGraph(n={}, time={})\n", self.n, self.time);
        out += &format!("  prefs: [{}]\n", prefs.join(" "));
        for round in 1..=self.time {
            out += &format!("  round {round}:");
            for from in AgentId::all(self.n) {
                let row =
                    AgentId::all(self.n).map(|to| self.edges[self.edge_index(round, from, to)]);
                let row: String = row.map(|l| l.to_string()).collect();
                out += &format!(" {from}→[{row}]");
            }
            out += "\n";
        }
        out
    }
}

/// Asserts that `packed` carries exactly `model`'s labels behind every
/// logical accessor.
fn assert_same_labels(packed: &CommGraph, model: &RefGraph) {
    let n = model.n;
    assert_eq!((packed.n(), packed.time()), (n, model.time));
    for agent in AgentId::all(n) {
        assert_eq!(packed.pref(agent), model.prefs[agent.index()], "{agent}");
    }
    for round in 1..=model.time {
        for to in AgentId::all(n) {
            let column: Vec<EdgeLabel> = packed.incoming(round, to).collect();
            for from in AgentId::all(n) {
                let label = model.edges[model.edge_index(round, from, to)];
                assert_eq!(packed.edge(round, from, to), label, "{round} {from} {to}");
                assert_eq!(column[from.index()], label, "{round} {from} {to}");
            }
        }
    }
    assert_eq!(
        packed.known_edges().collect::<Vec<_>>(),
        model.known_edges()
    );
    assert_eq!(
        packed.size_bits(),
        2 * (model.prefs.len() + model.edges.len()) as u64
    );
    assert_eq!(format!("{packed:?}"), model.render());
    let words = [packed.pref_words(), packed.edge_words()].concat();
    let rebuilt = CommGraph::from_words(n, packed.time(), words);
    assert_eq!(&rebuilt, packed, "from_words ∘ words = id");
}

/// One lossy full-information run (any message lost with probability
/// 0.3) stepped through both graphs: `[time][agent]`.
fn lossy_run(n: usize, rounds: u32, rng: &mut StdRng) -> Vec<Vec<(CommGraph, RefGraph)>> {
    let initial = |i| {
        let (agent, init) = (AgentId::new(i), Value::from_bit(rng.random_range(0..2)));
        let pair = (
            CommGraph::initial(n, agent, init),
            RefGraph::initial(n, agent, init),
        );
        assert_same_labels(&pair.0, &pair.1);
        pair
    };
    let mut run = vec![(0..n).map(initial).collect::<Vec<_>>()];
    for _ in 0..rounds {
        let now = run.last().unwrap();
        let next = (0..n).map(|to| {
            let arrives: Vec<bool> = (0..n).map(|_| rng.random_bool(0.7)).collect();
            let heard = |from: usize| arrives[from].then_some(&now[from]);
            let packed: Vec<_> = (0..n).map(|from| heard(from).map(|g| &g.0)).collect();
            let model: Vec<_> = (0..n).map(|from| heard(from).map(|g| &g.1)).collect();
            let owner = AgentId::new(to);
            let pair = (
                now[to].0.receive_round(owner, &packed),
                now[to].1.receive_round(owner, &model),
            );
            assert_same_labels(&pair.0, &pair.1);
            pair
        });
        let next = next.collect();
        run.push(next);
    }
    run
}

/// Word-aligned label counts (4, 8), straddling ones (1, 3, 5, 9) and
/// `n > 32`, where the preferences span two words.
const SIZES: [usize; 7] = [1, 3, 4, 5, 8, 9, 33];

#[test]
fn packed_graph_equals_the_label_at_a_time_graph() {
    let mut rng = StdRng::seed_from_u64(0xEBA);
    for n in SIZES {
        for _ in 0..if n < 32 { 6 } else { 2 } {
            lossy_run(n, 4, &mut rng);
        }
    }
}

#[test]
fn merge_agrees_with_the_model_and_is_a_join() {
    let mut rng = StdRng::seed_from_u64(0xEBA + 1);
    let hasher = RandomState::new();
    for n in SIZES {
        let run = lossy_run(n, 4, &mut rng);
        let last = run.last().unwrap();
        // Merge random earlier graphs of the run into an agent's final
        // one, in two orders.
        for _ in 0..4 {
            let pick = |_| {
                let time = rng.random_range(0..run.len());
                &run[time][rng.random_range(0..n)]
            };
            let picks: Vec<_> = (0..5).map(pick).collect();
            let (base, base_model) = &last[rng.random_range(0..n)];
            let (mut forward, mut backward, mut model) =
                (base.clone(), base.clone(), base_model.clone());
            for (i, (g, m)) in picks.iter().enumerate() {
                forward.merge_from(g);
                model.merge_from(m);
                assert_same_labels(&forward, &model);
                backward.merge_from(&picks[picks.len() - 1 - i].0);
            }
            // Order-independent: same labels by another route is the same
            // graph, to `==` and to the hasher (so it interns once).
            assert_eq!(forward, backward);
            assert_eq!(hasher.hash_one(&forward), hasher.hash_one(&backward));
            // Idempotent.
            let mut again = forward.clone();
            again.merge_from(&picks[0].0);
            again.merge_from(base);
            assert_eq!(again, forward);
            // Monotone: nothing known before is lost or changed.
            for (round, from, to, label) in base.known_edges() {
                assert_eq!(forward.edge(round, from, to), label);
            }
            for agent in AgentId::all(n) {
                let before = base.pref(agent);
                assert!(before == PrefLabel::Unknown || forward.pref(agent) == before);
            }
        }
    }
}

/// Two one-round graphs of two agents, differing in `flip`: what agent 1
/// holds cannot come from the run agent 0's graph comes from.
#[cfg(debug_assertions)]
fn contradicting(flip: impl Fn(&mut CommGraph)) -> (CommGraph, CommGraph) {
    let g = |i| CommGraph::initial(2, AgentId::new(i), Value::Zero);
    let mine = g(0).receive_round(AgentId::new(0), &[Some(&g(0)), None]);
    let mut theirs = g(1).receive_round(AgentId::new(1), &[None, None]);
    flip(&mut theirs);
    (mine, theirs)
}

#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "inconsistent edge labels from one run")]
fn merging_a_delivered_onto_a_dropped_edge_panics() {
    let (mut mine, theirs) = contradicting(|g| {
        g.set_edge(1, AgentId::new(1), AgentId::new(0), EdgeLabel::Delivered);
    });
    mine.merge_from(&theirs);
}

#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "inconsistent edge labels from one run")]
fn setting_a_dropped_edge_delivered_panics() {
    let (mut mine, _) = contradicting(|_| ());
    mine.set_edge(1, AgentId::new(1), AgentId::new(0), EdgeLabel::Delivered);
}

#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "inconsistent preference labels from one run")]
fn merging_a_pref_zero_onto_a_pref_one_panics() {
    let (mut mine, _) = contradicting(|_| ());
    let theirs = CommGraph::initial(2, AgentId::new(0), Value::One);
    mine.merge_from(&theirs);
}

#[test]
#[should_panic(expected = "agent-count mismatch in graph merge")]
fn merge_rejects_another_agent_count() {
    let mut mine = CommGraph::initial(2, AgentId::new(0), Value::One);
    mine.merge_from(&CommGraph::initial(3, AgentId::new(0), Value::One));
}
