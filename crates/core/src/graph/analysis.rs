//! The polynomial-time decision analysis of Appendix A.2.7: re-simulating
//! other agents' decisions (`d`), and the `common_v` / `cond_0` / `cond_1`
//! tests of the concrete protocol `P_opt`.
//!
//! Because the full-information exchange relays complete views, an agent
//! whose cone contains `(j, m')` can reconstruct agent `j`'s exact view at
//! time `m'` and deterministically replay `P_opt`'s decision at that
//! vertex. The analysis computes this *decision matrix* bottom-up over the
//! owner's cone, then evaluates the owner's own action at the current time.
//!
//! Fidelity notes (see `docs/GUIDE.md` §1): the paper's Definition A.19 contains
//! two typos that we resolve in the direction dictated by the surrounding
//! lemmas — `cond_1` follows Prop A.7 (it holds iff the hidden-0-chain
//! counting condition *fails*), and `common_v`'s distributed-knowledge test
//! follows Lemma A.20 (`|D(f̄(i,m,G), m−1, G)| = t` ⟺ `C_N(t-faulty)` at
//! time `m`). Both readings are validated against a brute-force epistemic
//! model checker in `eba-epistemic`.

use crate::types::{Action, AgentId, AgentSet, Params, Value};

use super::{CommGraph, ConeTable, EdgeLabel, KnowledgeTables};

/// Full decision analysis of a communication graph from its owner's
/// viewpoint.
///
/// ```
/// use eba_core::graph::{CommGraph, FipAnalysis};
/// use eba_core::types::{Action, AgentId, Params, Value};
///
/// // A failure-free round among three 1-preferring agents…
/// let params = Params::new(3, 1).unwrap();
/// let inits = [Value::One, Value::One, Value::One];
/// let graphs: Vec<CommGraph> = (0..3)
///     .map(|i| CommGraph::initial(3, AgentId::new(i), inits[i]))
///     .collect();
/// let refs: Vec<Option<&CommGraph>> = graphs.iter().map(Some).collect();
/// let mut g0 = graphs[0].clone();
/// graphs[0].receive_round(AgentId::new(0), &refs, &mut g0);
/// // …lets agent 0 decide 1 in round 2: it heard from everyone, so no
/// // hidden 0-chain can exist (Corollary A.8).
/// let analysis = FipAnalysis::analyze(&g0, params, AgentId::new(0));
/// assert_eq!(analysis.owner_action(), Action::Decide(Value::One));
/// ```
pub struct FipAnalysis<'g> {
    graph: &'g CommGraph,
    params: Params,
    owner: AgentId,
    cones: ConeTable,
    know: KnowledgeTables,
    /// `decisions[m * n + j]` = the action of `j` in round `m + 1`
    /// (`d(j, m)` re-simulated), for `m < graph.time()`; `None` outside the
    /// owner's cone.
    decisions: Vec<Option<Action>>,
    /// Whether the common-knowledge rules are active (see
    /// [`FipAnalysis::analyze_variant`]).
    use_ck: bool,
}

impl<'g> FipAnalysis<'g> {
    /// Analyzes `graph` from `owner`'s viewpoint.
    ///
    /// # Panics
    ///
    /// Panics if `graph` is for a different number of agents than `params`.
    pub fn analyze(graph: &'g CommGraph, params: Params, owner: AgentId) -> Self {
        Self::analyze_variant(graph, params, owner, true)
    }

    /// Like [`FipAnalysis::analyze`], but with the common-knowledge rules
    /// of `P1` optionally disabled (`use_ck = false`), leaving only `P0`'s
    /// chain rules. The re-simulated decision matrix uses the same variant
    /// (every agent is assumed to run the same program). This is the
    /// ablation studied in experiment E4: without the common-knowledge
    /// rules, full information decides no earlier than `P_basic` in
    /// Example 7.1.
    pub fn analyze_variant(
        graph: &'g CommGraph,
        params: Params,
        owner: AgentId,
        use_ck: bool,
    ) -> Self {
        assert_eq!(graph.n(), params.n(), "graph/params agent-count mismatch");
        let cones = ConeTable::compute(graph);
        let know = KnowledgeTables::compute(graph);
        let n = params.n();
        let time = graph.time();
        let mut decisions: Vec<Option<Action>> = vec![None; time as usize * n];
        for m in 0..time {
            for j in 0..n {
                let aj = AgentId::new(j);
                if !cones.hears_from(owner, time, aj, m) {
                    continue;
                }
                let already = (0..m)
                    .any(|mm| matches!(decisions[mm as usize * n + j], Some(Action::Decide(_))));
                let act = popt_rule(
                    graph, &cones, &know, &decisions, params, aj, m, already, use_ck,
                );
                decisions[m as usize * n + j] = Some(act);
            }
        }
        FipAnalysis {
            graph,
            params,
            owner,
            cones,
            know,
            decisions,
            use_ck,
        }
    }

    /// The action `P_opt` prescribes for the owner at the current time.
    pub fn owner_action(&self) -> Action {
        let time = self.graph.time();
        let n = self.params.n();
        let already = (0..time).any(|mm| {
            matches!(
                self.decisions[mm as usize * n + self.owner.index()],
                Some(Action::Decide(_))
            )
        });
        popt_rule(
            self.graph,
            &self.cones,
            &self.know,
            &self.decisions,
            self.params,
            self.owner,
            time,
            already,
            self.use_ck,
        )
    }

    /// `d(j, m)`: what the owner knows of agent `j`'s action in round
    /// `m + 1`. `None` means `?` — `(j, m)` is outside the owner's cone.
    ///
    /// # Panics
    ///
    /// Panics if `m >= graph.time()` (only past rounds are determined).
    pub fn known_action(&self, j: AgentId, m: u32) -> Option<Action> {
        assert!(m < self.graph.time(), "d(j, m) is defined for m < time");
        self.decisions[m as usize * self.params.n() + j.index()]
    }

    /// The owner's decision per the re-simulated matrix: the first
    /// `Decide` in its own column, with the round (`m + 1`) it happened.
    pub fn owner_decision(&self) -> Option<(Value, u32)> {
        let n = self.params.n();
        for m in 0..self.graph.time() {
            if let Some(Action::Decide(v)) = self.decisions[m as usize * n + self.owner.index()] {
                return Some((v, m + 1));
            }
        }
        None
    }

    /// Whether the `common_v` condition holds for the owner now — i.e.
    /// the owner knows `C_N(t-faulty ∧ no-decided_N(1−v) ∧ ∃v)` holds.
    pub fn common_knowledge_holds(&self, v: Value) -> bool {
        common_v(
            self.graph,
            &self.cones,
            &self.know,
            &self.decisions,
            self.params,
            self.owner,
            self.graph.time(),
            v,
        )
    }

    /// The faulty agents the owner knows about (`f(i, m, G_{i,m})`).
    pub fn owner_known_faulty(&self) -> AgentSet {
        self.know.known_faulty(self.owner, self.graph.time())
    }

    /// The cone table (exposed for inspection and tests).
    pub fn cones(&self) -> &ConeTable {
        &self.cones
    }

    /// The knowledge tables (exposed for inspection and tests).
    pub fn knowledge(&self) -> &KnowledgeTables {
        &self.know
    }
}

/// The `P_opt` program (Appendix A.2.7) evaluated at vertex `(j, m)`:
///
/// ```text
/// if decided ≠ ⊥           then noop
/// else if common_0         then decide(0)
/// else if common_1         then decide(1)
/// else if cond_0           then decide(0)
/// else if cond_1           then decide(1)
/// else noop
/// ```
#[allow(clippy::too_many_arguments)]
fn popt_rule(
    g: &CommGraph,
    cones: &ConeTable,
    know: &KnowledgeTables,
    decisions: &[Option<Action>],
    params: Params,
    j: AgentId,
    m: u32,
    already_decided: bool,
    use_ck: bool,
) -> Action {
    if already_decided {
        return Action::Noop;
    }
    if use_ck && common_v(g, cones, know, decisions, params, j, m, Value::Zero) {
        return Action::Decide(Value::Zero);
    }
    if use_ck && common_v(g, cones, know, decisions, params, j, m, Value::One) {
        return Action::Decide(Value::One);
    }
    if cond0(g, decisions, params, j, m) {
        return Action::Decide(Value::Zero);
    }
    if cond1(g, cones, decisions, params, j, m) {
        return Action::Decide(Value::One);
    }
    Action::Noop
}

/// `common_v(j, m)`: `j` knows at time `m` that
/// `C_N(t-faulty ∧ no-decided_N(1−v) ∧ ∃v)` holds (Definition A.19 with the
/// Lemma A.20 form of the distributed-knowledge test):
///
/// 1. `|D(f̄(j,m,G), m−1, G)| = t` — the agents `j` considers possibly
///    nonfaulty distributedly knew `t` faulty agents at time `m − 1`
///    (⟺ `C_N(t-faulty)` holds at time `m`, Lemma A.20);
/// 2. no possibly-nonfaulty agent has decided `1 − v` in rounds `≤ m`;
/// 3. some agent outside the distributed faulty set knew `∃v` at `m − 1`.
#[allow(clippy::too_many_arguments)]
fn common_v(
    _g: &CommGraph,
    cones: &ConeTable,
    know: &KnowledgeTables,
    decisions: &[Option<Action>],
    params: Params,
    j: AgentId,
    m: u32,
    v: Value,
) -> bool {
    if m == 0 {
        // Common knowledge of ∃v requires at least one round of exchange.
        return false;
    }
    let n = params.n();
    let t = params.t();
    let kf = know.known_faulty(j, m);
    let maybe_nonfaulty = kf.complement(n);
    // D(f̄(j, m), m − 1): each k ∈ f̄ delivered its round-m message to j
    // (otherwise k ∈ f(j, m)), so (k, m−1) is in j's cone and f(k, m−1) is
    // meaningful.
    let mut dist = AgentSet::empty();
    for k in maybe_nonfaulty.iter() {
        debug_assert!(cones.hears_from(j, m, k, m - 1), "{k} escaped f(j,{m})");
        dist = dist.union(know.known_faulty(k, m - 1));
    }
    if dist.len() != t {
        return false;
    }
    // j heard from every agent in f̄ this round, so it knows what they
    // knew: D(f̄, m − 1) ⊆ f(j, m) in every model. With |D| = t that makes
    // f(j, m) = D unless f(j, m) names more than t agents, which only a
    // receiver that missed frames under general omission can do
    // (`KnowledgeTables`).
    debug_assert!(dist.is_subset(kf), "D(f̄, m−1) = {dist} ⊄ f(j,{m}) = {kf}");
    debug_assert!(
        kf.len() > t || kf == dist,
        "f(j,{m}) = {kf} must equal D(f̄, m−1) = {dist} when |D| = t ≥ |f(j,{m})|"
    );
    // Condition 2: no possibly-nonfaulty agent has decided 1 − v.
    for k in maybe_nonfaulty.iter() {
        for mm in 0..m {
            if decisions[mm as usize * n + k.index()] == Some(Action::Decide(v.other())) {
                return false;
            }
        }
    }
    // Condition 3: some (truly nonfaulty) agent knew ∃v at time m − 1.
    let truly_nonfaulty = dist.complement(n);
    truly_nonfaulty
        .iter()
        .any(|k| know.knows_value(k, m - 1, v))
}

/// `cond_0(j, m)`: at `m = 0`, the agent's own initial preference is 0;
/// afterwards, `j` received a round-`m` message from an agent that decided
/// 0 in round `m` — i.e. `j` received a 0-chain.
fn cond0(g: &CommGraph, decisions: &[Option<Action>], params: Params, j: AgentId, m: u32) -> bool {
    if m == 0 {
        return g.pref(j).value() == Some(Value::Zero);
    }
    let n = params.n();
    g.incoming(m, j).enumerate().any(|(k, label)| {
        label == EdgeLabel::Delivered
            && decisions[(m as usize - 1) * n + k] == Some(Action::Decide(Value::Zero))
    })
}

/// `cond_1(j, m)`: `j` knows no agent can be deciding 0 in round `m + 1`.
///
/// Per Prop A.7, `j` *cannot rule out* a deciding-0 agent iff for every
/// `m″ ∈ (len, m]` there are at least `m″ − len` agents that `j` last heard
/// from before `m″` and that were still undecided when last heard (they
/// could silently extend the longest 0-chain `j` knows about, of length
/// `len`, up to round `m + 1`). `cond_1` is the negation.
fn cond1(
    g: &CommGraph,
    cones: &ConeTable,
    decisions: &[Option<Action>],
    params: Params,
    j: AgentId,
    m: u32,
) -> bool {
    let _ = g;
    if m == 0 {
        // A 0-chain of length 0 (an unseen 0 preference) can never be
        // ruled out at time 0 unless n = 1 with init 1 — but with n = 1
        // the agent knows everything; handle via the counting below.
        if params.n() == 1 {
            return true;
        }
        return false;
    }
    let n = params.n();
    // len: the longest 0-chain j knows about — the latest known Decide(0).
    let mut len = -1i64;
    for mm in 0..m {
        for k in 0..n {
            if cones.hears_from(j, m, AgentId::new(k), mm)
                && decisions[mm as usize * n + k] == Some(Action::Decide(Value::Zero))
            {
                len = len.max(mm as i64);
            }
        }
    }
    // last[k]: the latest time j heard from k; eligible[k]: k was still
    // undecided as far as j knows (no decision up to last[k]).
    let mut last = [-1i64; AgentId::MAX_AGENTS];
    let mut eligible = [false; AgentId::MAX_AGENTS];
    for k in 0..n {
        let ak = AgentId::new(k);
        if ak == j {
            // j hears from itself at time m; it can never extend a hidden
            // chain invisibly.
            last[k] = m as i64;
            eligible[k] = false;
            continue;
        }
        last[k] = cones.last_heard(j, m, ak);
        eligible[k] = (0..=last[k])
            .all(|mm| !matches!(decisions[mm as usize * n + k], Some(Action::Decide(_))));
    }
    // The counting condition of Prop A.7: a hidden chain is possible iff
    // every m″ in (len, m] has enough silent-and-undecided extenders.
    for m2 in (len + 1)..=(m as i64) {
        let extenders = (0..n).filter(|&k| eligible[k] && last[k] < m2).count() as i64;
        if extenders < m2 - len {
            // Too few possible extenders: no agent can be deciding 0.
            return true;
        }
    }
    false
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // tests index agents/graphs by id
mod tests {
    use super::super::test_util::{fip_round, fip_rounds_failure_free, initial_graphs};
    use super::*;

    fn a(i: usize) -> AgentId {
        AgentId::new(i)
    }

    fn params(n: usize, t: usize) -> Params {
        Params::new(n, t).unwrap()
    }

    /// Runs `P_opt` (via repeated analysis) for all agents over a delivery
    /// schedule, returning per-agent decision rounds and values.
    fn run_popt(
        inits: &[Value],
        p: Params,
        rounds: u32,
        delivers: impl Fn(u32, AgentId, AgentId) -> bool,
    ) -> Vec<Option<(Value, u32)>> {
        let n = inits.len();
        let mut graphs = initial_graphs(inits);
        let mut decided: Vec<Option<(Value, u32)>> = vec![None; n];
        for round in 1..=rounds {
            // Decisions are taken at time round-1, visible in round `round`.
            for (i, g) in graphs.iter().enumerate() {
                if decided[i].is_none() {
                    let analysis = FipAnalysis::analyze(g, p, a(i));
                    if let Action::Decide(v) = analysis.owner_action() {
                        decided[i] = Some((v, round));
                    }
                }
            }
            graphs = fip_round(&graphs, |from, to| delivers(round, from, to));
        }
        // Final chance to decide at the horizon.
        for (i, g) in graphs.iter().enumerate() {
            if decided[i].is_none() {
                let analysis = FipAnalysis::analyze(g, p, a(i));
                if let Action::Decide(v) = analysis.owner_action() {
                    decided[i] = Some((v, rounds + 1));
                }
            }
        }
        decided
    }

    #[test]
    fn failure_free_all_ones_decides_round_two() {
        // Prop 8.2(b): P_fip decides 1 in round 2 when all prefer 1.
        for (n, t) in [(3, 1), (5, 2), (6, 3)] {
            let decided = run_popt(&vec![Value::One; n], params(n, t), 3, |_, _, _| true);
            for d in decided {
                assert_eq!(d, Some((Value::One, 2)));
            }
        }
    }

    #[test]
    fn failure_free_with_zero_decides_round_two() {
        // Prop 8.2(a): the zero-holder decides in round 1, the rest by 2.
        let inits = [Value::Zero, Value::One, Value::One, Value::One];
        let decided = run_popt(&inits, params(4, 1), 3, |_, _, _| true);
        assert_eq!(decided[0], Some((Value::Zero, 1)));
        for d in &decided[1..] {
            assert_eq!(*d, Some((Value::Zero, 2)));
        }
    }

    #[test]
    fn example_7_1_shape_silent_faulty_all_ones() {
        // Example 7.1 scaled down: n = 6, t = 3, agents 0–2 faulty and
        // silent, all prefer 1. The nonfaulty agents learn all t faults in
        // round 1, gain common knowledge in round 2, and decide in round 3.
        let n = 6;
        let t = 3;
        let silent = |from: AgentId| from.index() < 3;
        let decided = run_popt(&vec![Value::One; n], params(n, t), 5, |_, from, to| {
            !silent(from) || from == to
        });
        for i in 3..6 {
            assert_eq!(decided[i], Some((Value::One, 3)), "agent {i}");
        }
    }

    #[test]
    fn common_knowledge_onset_matches_example() {
        let n = 6;
        let p = params(n, 3);
        let mut graphs = initial_graphs(&vec![Value::One; n]);
        let silent = |from: AgentId| from.index() < 3;
        graphs = fip_round(&graphs, |from, to| !silent(from) || from == to);
        let at1 = FipAnalysis::analyze(&graphs[4], p, a(4));
        assert_eq!(at1.owner_known_faulty().len(), 3);
        assert!(
            !at1.common_knowledge_holds(Value::One),
            "distributed knowledge at time 0 was empty"
        );
        graphs = fip_round(&graphs, |from, to| !silent(from) || from == to);
        let at2 = FipAnalysis::analyze(&graphs[4], p, a(4));
        assert!(at2.common_knowledge_holds(Value::One));
        assert!(!at2.common_knowledge_holds(Value::Zero), "no zero exists");
    }

    #[test]
    fn single_omission_does_not_unlock_round_two() {
        // One dropped message (t = 1) is seen by its victim in round 1, but
        // distributed knowledge at time 0 is empty, so no round-2 common
        // knowledge; cond_1 must also fail for the victim (it cannot rule
        // out a chain through the faulty agent).
        let p = params(3, 1);
        let mut graphs = initial_graphs(&[Value::One; 3]);
        graphs = fip_round(&graphs, |from, to| !(from == a(0) && to == a(1)));
        let victim = FipAnalysis::analyze(&graphs[1], p, a(1));
        assert_eq!(victim.owner_action(), Action::Noop);
        // An agent that heard from everyone decides 1 (Corollary A.8).
        let lucky = FipAnalysis::analyze(&graphs[2], p, a(2));
        assert_eq!(lucky.owner_action(), Action::Decide(Value::One));
    }

    #[test]
    fn zero_chain_through_faulty_agent_reaches_decision() {
        // a0 (faulty, init 0) decides 0 in round 1 and only a1 hears it in
        // round 1; a1 decides 0 in round 2; everyone hears a1 in round 2.
        let p = params(3, 1);
        let inits = [Value::Zero, Value::One, Value::One];
        let decided = run_popt(&inits, p, 4, |round, from, to| {
            if from == a(0) {
                round == 1 && to == a(1)
            } else {
                true
            }
        });
        assert_eq!(decided[0], Some((Value::Zero, 1)));
        assert_eq!(decided[1], Some((Value::Zero, 2)));
        assert_eq!(decided[2], Some((Value::Zero, 3)));
    }

    #[test]
    fn known_action_matrix_matches_run() {
        // The re-simulated d(j, m') entries agree with the actions agents
        // actually took.
        let p = params(4, 1);
        let inits = [Value::Zero, Value::One, Value::One, Value::One];
        let n = 4;
        let mut graphs = initial_graphs(&inits);
        let mut actual: Vec<Vec<Action>> = Vec::new();
        for round in 1..=3u32 {
            let actions: Vec<Action> = (0..n)
                .map(|i| {
                    let analysis = FipAnalysis::analyze(&graphs[i], p, a(i));
                    let already = analysis.owner_decision().is_some();
                    if already {
                        Action::Noop
                    } else {
                        analysis.owner_action()
                    }
                })
                .collect();
            actual.push(actions);
            let deliver = move |from: AgentId, to: AgentId| {
                // a3 faulty: drops to a2 in round 1 only.
                !(round == 1 && from == a(3) && to == a(2))
            };
            graphs = fip_round(&graphs, deliver);
        }
        // Check every in-cone matrix entry of every agent at the horizon.
        for i in 0..n {
            let analysis = FipAnalysis::analyze(&graphs[i], p, a(i));
            for m in 0..3u32 {
                for j in 0..n {
                    if let Some(d) = analysis.known_action(a(j), m) {
                        assert_eq!(
                            d, actual[m as usize][j],
                            "owner a{i}: d(a{j}, {m}) disagrees with the run"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn longest_zero_chain_tracking() {
        let p = params(3, 1);
        let inits = [Value::Zero, Value::One, Value::One];
        let graphs = fip_rounds_failure_free(&inits, 2);
        let analysis = FipAnalysis::analyze(&graphs[1], p, a(1));
        // a0 decided 0 in round 1 (a chain of length 0); a1 extends it
        // and decides 0 in round 2.
        assert_eq!(analysis.owner_decision(), Some((Value::Zero, 2)));
    }

    #[test]
    fn t_zero_everyone_decides_round_two_via_common_knowledge() {
        let p = params(3, 0);
        let decided = run_popt(&[Value::Zero, Value::One, Value::One], p, 3, |_, _, _| true);
        // The zero-holder decides round 1; with t = 0 common knowledge of
        // ∃0 holds at time 1, so the rest decide 0 in round 2.
        assert_eq!(decided[0], Some((Value::Zero, 1)));
        assert_eq!(decided[1], Some((Value::Zero, 2)));
        assert_eq!(decided[2], Some((Value::Zero, 2)));
    }

    /// Two (3,1) general-omission runs, sessions 462 and 494 of the
    /// seed-3770 service mix, in which a receiver that missed frames
    /// knows two agents "faulty" at t = 1, so `f(j, m)` strictly contains
    /// `D(f̄, m − 1)` with `|D| = t`. The analysis's assertions hold, every
    /// nonfaulty agent decides, and they agree.
    #[test]
    fn general_omission_receivers_may_know_more_than_t_faulty() {
        let heads = "stack = E_fip/P_opt\nmodel = general_omission\nn = 3\nt = 1\nhorizon = 4\n";
        let runs = [
            "nonfaulty = 0 1\ninits = 0 1 1\ndrop = round 0 from 0 to 2\n\
             drop = round 1 from 0 to 2\ndrop = round 1 from 1 to 2\n\
             drop = round 2 from 2 to 0 1\ndrop = round 3 from 2 to 1\n",
            "nonfaulty = 1 2\ninits = 0 1 1\ndrop = round 0 from 0 to 1\n\
             drop = round 0 from 2 to 0\ndrop = round 2 from 0 to 1\n\
             drop = round 3 from 1 to 0\n",
        ];
        for run in runs {
            let case = crate::corpus::parse_scenario(&format!("{heads}{run}"))
                .unwrap()
                .spec
                .case;
            let p = case.pattern.params();
            let delivers = |round, from, to| case.pattern.delivers(round - 1, from, to);
            let decided = run_popt(&case.inits, p, case.horizon, delivers);
            let nonfaulty = case.pattern.nonfaulty();
            let values: Vec<_> = nonfaulty
                .iter()
                .map(|j| decided[j.index()].expect("a nonfaulty agent decides").0)
                .collect();
            assert!(
                values.windows(2).all(|w| w[0] == w[1]),
                "{run}: {decided:?}"
            );
        }
    }

    #[test]
    fn termination_by_t_plus_two_under_adversarial_silence() {
        // Even with a faulty agent that stays silent the whole run, every
        // agent decides by round t + 2 (Prop 7.3).
        let p = params(4, 2);
        let decided = run_popt(&[Value::One; 4], p, 5, |_, from, to| {
            from.index() >= 2 || from == to
        });
        for (i, d) in decided.iter().enumerate() {
            let (v, round) = d.expect("all agents decide");
            assert_eq!(v, Value::One, "agent {i}");
            assert!(round <= 4, "agent {i} decided in round {round} > t+2");
        }
    }
}
