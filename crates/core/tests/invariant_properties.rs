//! Property-based invariants of the core data structures (proptest):
//! agent-set algebra, failure-pattern laws, communication-graph merge and
//! cone laws under random delivery schedules, and the soundness of the
//! graph knowledge tables against ground truth.

use eba_core::context::admit_scenario;
use eba_core::graph::{CommGraph, ConeTable, EdgeLabel, KnowledgeTables};
use eba_core::prelude::*;
use proptest::prelude::*;

// ---------- helpers: random synchronous FIP schedules ----------

/// A schedule: for each round and (from, to) pair, whether the message is
/// delivered. Only faulty senders may drop.
#[derive(Clone, Debug)]
struct Schedule {
    n: usize,
    rounds: u32,
    faulty: AgentSet,
    drops: Vec<(u32, usize, usize)>,
}

impl Schedule {
    fn delivers(&self, round: u32, from: usize, to: usize) -> bool {
        !self.drops.contains(&(round, from, to))
    }
}

fn schedule_strategy(n: usize, t: usize, rounds: u32) -> impl Strategy<Value = Schedule> {
    let faulty = proptest::sample::subsequence((0..n).collect::<Vec<_>>(), 0..=t);
    (faulty, proptest::collection::vec(0u64..u64::MAX, 0..12)).prop_map(move |(faulty_v, seeds)| {
        let faulty: AgentSet = faulty_v.iter().map(|i| AgentId::new(*i)).collect();
        let mut drops = Vec::new();
        for s in seeds {
            let round = (s % rounds as u64) as u32;
            let from = ((s >> 8) % n as u64) as usize;
            let to = ((s >> 16) % n as u64) as usize;
            if faulty.contains(AgentId::new(from)) {
                drops.push((round, from, to));
            }
        }
        Schedule {
            n,
            rounds,
            faulty,
            drops,
        }
    })
}

/// Runs the full-information exchange over a schedule, returning each
/// agent's graph at the end.
fn run_fip(inits: &[Value], sched: &Schedule) -> Vec<CommGraph> {
    let n = sched.n;
    let mut graphs: Vec<CommGraph> = inits
        .iter()
        .enumerate()
        .map(|(i, v)| CommGraph::initial(n, AgentId::new(i), *v))
        .collect();
    for round in 0..sched.rounds {
        graphs = (0..n)
            .map(|to| {
                let received: Vec<Option<&CommGraph>> = (0..n)
                    .map(|from| {
                        if sched.delivers(round, from, to) {
                            Some(&graphs[from])
                        } else {
                            None
                        }
                    })
                    .collect();
                let mut next = graphs[to].clone();
                graphs[to].receive_round(AgentId::new(to), &received, &mut next);
                next
            })
            .collect();
    }
    graphs
}

fn inits_from_bits(n: usize, bits: u64) -> Vec<Value> {
    (0..n)
        .map(|i| Value::from_bit(((bits >> i) & 1) as u8))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // ---------- AgentSet algebra ----------

    #[test]
    fn agent_set_de_morgan(a in any::<u128>(), b in any::<u128>(), n in 1usize..65) {
        let mask = AgentSet::full(n);
        let a: AgentSet = AgentId::all(128).filter(|x| a & (1 << x.index()) != 0)
            .collect::<AgentSet>().intersection(mask);
        let b: AgentSet = AgentId::all(128).filter(|x| b & (1 << x.index()) != 0)
            .collect::<AgentSet>().intersection(mask);
        prop_assert_eq!(
            a.union(b).complement(n),
            a.complement(n).intersection(b.complement(n))
        );
        prop_assert_eq!(
            a.intersection(b).complement(n),
            a.complement(n).union(b.complement(n))
        );
        prop_assert_eq!(a.difference(b), a.intersection(b.complement(n)));
        prop_assert_eq!(a.union(b).len() + a.intersection(b).len(), a.len() + b.len());
    }

    // ---------- FailurePattern laws ----------

    #[test]
    fn pattern_drops_only_from_faulty(seed in any::<u64>(), p in 0.0f64..1.0) {
        use rand::SeedableRng;
        let params = Params::new(6, 2).unwrap();
        let sampler = AdversarySampler::new(FailureModel::SendingOmission, params, 5, p);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let pat = sampler.sample(&mut rng);
        prop_assert!(pat.faulty().len() <= 2);
        for m in 0..6u32 {
            for from in params.agents() {
                for to in params.agents() {
                    if !pat.delivers(m, from, to) {
                        prop_assert!(pat.is_faulty(from));
                    }
                }
            }
        }
        // Beyond the recorded horizon everything is delivered.
        let h = pat.drop_horizon();
        for from in params.agents() {
            for to in params.agents() {
                prop_assert!(pat.delivers(h + 3, from, to));
            }
        }
    }

    /// Admission follows the hierarchy: a pattern sampled under `M` is
    /// admitted under `M` and under every model that includes `M`.
    #[test]
    fn admission_follows_the_model_hierarchy(
        model in 0usize..4,
        wide in any::<bool>(),
        seed in any::<u64>(),
        bits in any::<u64>(),
        p in 0.0f64..1.0,
    ) {
        use rand::SeedableRng;
        let params = if wide { Params::new(5, 2) } else { Params::new(4, 1) }.unwrap();
        let model = FailureModel::by_name(MODEL_NAMES[model]).unwrap();
        let horizon = params.default_horizon();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let pattern = AdversarySampler::new(model, params, horizon, p).sample(&mut rng);
        let inits = inits_from_bits(params.n(), bits);
        for wider in MODEL_NAMES.map(|name| FailureModel::by_name(name).unwrap()) {
            if wider.includes(model) {
                let admitted = admit_scenario(params, wider, &pattern, &inits, horizon);
                prop_assert!(admitted.is_ok(), "{model} pattern under {wider}: {admitted:?}");
            }
        }
    }

    // ---------- CommGraph merge laws ----------

    /// Merging any two same-time graphs from one run is conflict-free,
    /// idempotent, and commutative.
    #[test]
    fn graph_merge_laws(
        sched in schedule_strategy(4, 2, 3),
        bits in any::<u64>(),
        i in 0usize..4,
        j in 0usize..4,
    ) {
        let graphs = run_fip(&inits_from_bits(4, bits), &sched);
        let (a, b) = (&graphs[i], &graphs[j]);
        let mut ab = a.clone();
        ab.merge_from(b);
        let mut ba = b.clone();
        ba.merge_from(a);
        prop_assert_eq!(&ab, &ba, "merge is commutative on same-run graphs");
        let mut abb = ab.clone();
        abb.merge_from(b);
        prop_assert_eq!(&ab, &abb, "merge is idempotent");
        // Monotone: ab retains everything a knew.
        for (round, from, to, label) in a.known_edges() {
            prop_assert_eq!(ab.edge(round, from, to), label);
        }
    }

    /// The graph owner's own incoming edges are always fully labeled, and
    /// labels match the schedule.
    #[test]
    fn own_observations_are_complete_and_correct(
        sched in schedule_strategy(4, 2, 3),
        bits in any::<u64>(),
        owner in 0usize..4,
    ) {
        let graphs = run_fip(&inits_from_bits(4, bits), &sched);
        let g = &graphs[owner];
        for round in 1..=3u32 {
            for from in 0..4 {
                let expected = if sched.delivers(round - 1, from, owner) {
                    EdgeLabel::Delivered
                } else {
                    EdgeLabel::Dropped
                };
                prop_assert_eq!(
                    g.edge(round, AgentId::new(from), AgentId::new(owner)),
                    expected,
                    "round {} {} → owner", round, from
                );
            }
        }
    }

    /// Cones computed from one agent's graph agree with cones computed
    /// from any other agent's graph on their shared vertices (cone
    /// composition, the key soundness fact behind the decision matrix).
    #[test]
    fn cones_agree_between_observers(
        sched in schedule_strategy(4, 2, 3),
        bits in any::<u64>(),
    ) {
        let graphs = run_fip(&inits_from_bits(4, bits), &sched);
        let tables: Vec<ConeTable> = graphs.iter().map(ConeTable::compute).collect();
        for x in 0..4 {
            for y in 0..4 {
                // Shared vertex (j, m) in both observers' cones: its own
                // cone must be identical from both viewpoints.
                for j in 0..4 {
                    for m in 0..=2u32 {
                        let aj = AgentId::new(j);
                        let in_x = tables[x].hears_from(AgentId::new(x), 3, aj, m);
                        let in_y = tables[y].hears_from(AgentId::new(y), 3, aj, m);
                        if in_x && in_y {
                            for k in 0..4 {
                                for mm in 0..=m {
                                    prop_assert_eq!(
                                        tables[x].hears_from(aj, m, AgentId::new(k), mm),
                                        tables[y].hears_from(aj, m, AgentId::new(k), mm),
                                        "cone of ({}, {}) disagrees", j, m
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// Knowledge tables are sound: known-faulty ⊆ actually-faulty, and a
    /// known value is genuinely held by some agent.
    #[test]
    fn knowledge_tables_are_sound(
        sched in schedule_strategy(5, 2, 3),
        bits in any::<u64>(),
        owner in 0usize..5,
    ) {
        let inits = inits_from_bits(5, bits);
        let graphs = run_fip(&inits, &sched);
        let g = &graphs[owner];
        let know = KnowledgeTables::compute(g);
        let cones = ConeTable::compute(g);
        let me = AgentId::new(owner);
        for m in 0..=3u32 {
            for j in 0..5 {
                let aj = AgentId::new(j);
                if !cones.hears_from(me, 3, aj, m) {
                    continue; // table entries outside the cone are unused
                }
                let kf = know.known_faulty(aj, m);
                prop_assert!(
                    kf.is_subset(sched.faulty),
                    "({}, {}) claims faulty {:?} ⊄ {:?}", j, m, kf, sched.faulty
                );
                for v in Value::ALL {
                    if know.knows_value(aj, m, v) {
                        prop_assert!(
                            inits.contains(&v),
                            "({}, {}) knows a {} that nobody holds", j, m, v
                        );
                    }
                }
            }
        }
    }

    /// The graph bit size follows the closed form 2(n + time·n²).
    #[test]
    fn graph_size_closed_form(
        sched in schedule_strategy(4, 1, 3),
        bits in any::<u64>(),
    ) {
        let graphs = run_fip(&inits_from_bits(4, bits), &sched);
        for g in &graphs {
            prop_assert_eq!(g.size_bits(), 2 * (4 + g.time() as u64 * 16));
        }
    }
}
