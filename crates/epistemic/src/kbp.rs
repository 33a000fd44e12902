//! Semantics of the knowledge-based programs `P0` and `P1`: the action
//! each prescribes at every point of an interpreted system.
//!
//! Given a system `I` (generated by some concrete protocol), the
//! interpretation `(P)^I` of a knowledge-based program evaluates its
//! knowledge tests at each local state and takes the first branch that
//! holds. A concrete protocol *implements* the program if its own action
//! coincides with `(P)^I` everywhere — see [`crate::implements`].

use eba_core::exchange::InformationExchange;
use eba_core::kbp::KnowledgeBasedProgram;
use eba_core::types::{subsets_of_size, Action, AgentId, Params, Value};

use crate::formula::Formula;
use crate::query::{EvalSession, FormulaArena, NodeId, QueryPlan};
use crate::system::{InterpretedSystem, PointId};

/// The paper's `C_N(t-faulty ∧ φ)` abbreviation:
/// `∃A ⊆ Agt (|A| = t ∧ C_N(⋀_{i ∈ A} (i ∉ N) ∧ φ))`.
pub fn ck_t_faulty_and(params: Params, phi: Formula) -> Formula {
    Formula::Or(
        subsets_of_size(params.n(), params.t())
            .into_iter()
            .map(|a| {
                let mut conj: Vec<Formula> = a
                    .iter()
                    .map(|i| Formula::not(Formula::Nonfaulty(i)))
                    .collect();
                conj.push(phi.clone());
                Formula::common_nonfaulty(Formula::And(conj))
            })
            .collect(),
    )
}

/// The action a knowledge-based program prescribes for every
/// `(point, agent)` pair of a system.
pub struct Prescriptions {
    n: usize,
    actions: Vec<Action>,
    evaluated_nodes: usize,
}

impl Prescriptions {
    /// The prescribed action for `agent` at `point`.
    pub fn at(&self, point: PointId, agent: AgentId) -> Action {
        self.actions[point as usize * self.n + agent.index()]
    }

    /// Distinct formula nodes the compiled guard plan evaluated — the
    /// size of the shared guard DAG across all agents and both values.
    pub fn evaluated_nodes(&self) -> usize {
        self.evaluated_nodes
    }
}

/// Evaluates the knowledge-based program over a system.
///
/// All guards — the shared test bodies *and* the per-agent `K_i`
/// wrappers — are compiled into **one** hash-consed
/// [`QueryPlan`] and evaluated by a single [`EvalSession`] pass: the
/// `someone_just_decided`/`nobody_deciding` disjunctions and (for `P1`)
/// the `C_N(t-faulty ∧ …)` towers, whose `∃A` quantifier expands into a
/// disjunction over all `C(n, t)` faulty-set candidates, exist once in
/// the arena no matter how many `K_i` roots mention them.
pub fn prescriptions<E: InformationExchange>(
    sys: &InterpretedSystem<E>,
    program: KnowledgeBasedProgram,
) -> Prescriptions {
    let params = sys.params();
    let n = params.n();
    let points = sys.point_count();

    // Compile the guard batch: one `K_i` root per agent per guard; the
    // arena hash-conses the bodies the roots share.
    let agents: Vec<AgentId> = AgentId::all(n).collect();
    let mut arena = FormulaArena::new();
    let mut known = |body: Formula| -> Vec<NodeId> {
        let root = |i: &AgentId| arena.intern(&Formula::knows(*i, body.clone()));
        agents.iter().map(root).collect()
    };
    let k_jdec0 = known(Formula::someone_just_decided(n, Value::Zero));
    let k_nodec0 = known(Formula::nobody_deciding(n, Value::Zero));
    let k_cks = match program {
        KnowledgeBasedProgram::P0 => None,
        KnowledgeBasedProgram::P1 => {
            let ck = |v: Value| {
                let undecided = Formula::no_nonfaulty_decided(n, v.other());
                ck_t_faulty_and(
                    params,
                    Formula::And(vec![undecided, Formula::ExistsInit(v)]),
                )
            };
            Some((known(ck(Value::Zero)), known(ck(Value::One))))
        }
    };
    let mut roots = [&k_jdec0[..], &k_nodec0[..]].concat();
    if let Some((k0, k1)) = &k_cks {
        roots.extend(k0.iter().chain(k1));
    }
    let plan = QueryPlan::new(&arena, &roots);
    let session = EvalSession::evaluate(sys, &arena, &plan);

    // The state-dependent guards (`decided`, `init`) are functions of the
    // local state alone, so they are looked up by `StateId` per point:
    // `decided` straight from the system's construction-time table,
    // `init` from one pass over the distinct states.
    let decided = sys.decided_table();
    let init_zero = sys.per_state_table(|s| sys.exchange().init(s) == Value::Zero);

    let mut actions = vec![Action::Noop; points * n];
    for i in 0..n {
        let agent = agents[i];
        let k_jdec0 = session.bitset(k_jdec0[i]);
        let k_nodec0 = session.bitset(k_nodec0[i]);
        let k_cks = k_cks
            .as_ref()
            .map(|(k0, k1)| (session.bitset(k0[i]), session.bitset(k1[i])));
        for pid in 0..points {
            let sid = sys.state_id(pid as PointId, agent).index();
            let act = if decided[sid].is_some() {
                Action::Noop
            } else if let Some((k0, _)) = k_cks.as_ref().filter(|(k0, _)| k0.contains(pid)) {
                debug_assert!(k0.contains(pid));
                Action::Decide(Value::Zero)
            } else if k_cks.as_ref().is_some_and(|(_, k1)| k1.contains(pid)) {
                Action::Decide(Value::One)
            } else if init_zero[sid] || k_jdec0.contains(pid) {
                Action::Decide(Value::Zero)
            } else if k_nodec0.contains(pid) {
                Action::Decide(Value::One)
            } else {
                Action::Noop
            };
            actions[pid * n + i] = act;
        }
    }
    Prescriptions {
        n,
        actions,
        evaluated_nodes: session.nodes_evaluated(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eba_core::prelude::*;
    use eba_sim::runner::Parallelism;

    fn min_system(n: usize, t: usize) -> InterpretedSystem<MinExchange> {
        let params = Params::new(n, t).unwrap();
        let ex = MinExchange::new(params);
        let proto = PMin::new(params);
        InterpretedSystem::from_context(
            Context::new(ex, &proto),
            params.default_horizon(),
            5_000_000,
            Parallelism::Sequential,
        )
        .unwrap()
    }

    #[test]
    fn ck_t_faulty_structure() {
        let params = Params::new(4, 2).unwrap();
        let f = ck_t_faulty_and(params, Formula::ExistsInit(Value::One));
        // C(4, 2) = 6 disjuncts.
        match f {
            Formula::Or(disjuncts) => assert_eq!(disjuncts.len(), 6),
            other => panic!("expected Or, got {other:?}"),
        }
    }

    #[test]
    fn p0_prescribes_zero_for_zero_initial_preference() {
        let sys = min_system(3, 1);
        let pres = prescriptions(&sys, eba_core::kbp::KnowledgeBasedProgram::P0);
        for r in 0..sys.run_count() {
            for i in 0..3 {
                let agent = AgentId::new(i);
                if sys.inits(r)[i] == Value::Zero {
                    assert_eq!(pres.at(sys.point(r, 0), agent), Action::Decide(Value::Zero));
                }
            }
        }
    }

    #[test]
    fn p0_never_prescribes_zero_in_all_ones_runs() {
        // Validity built into the program: without any 0 preference no
        // point satisfies the decide-0 guards.
        let sys = min_system(3, 1);
        let pres = prescriptions(&sys, eba_core::kbp::KnowledgeBasedProgram::P0);
        for r in 0..sys.run_count() {
            if sys.inits(r).contains(&Value::Zero) {
                continue;
            }
            for m in 0..sys.horizon() {
                for i in 0..3 {
                    assert_ne!(
                        pres.at(sys.point(r, m), AgentId::new(i)),
                        Action::Decide(Value::Zero)
                    );
                }
            }
        }
    }

    #[test]
    fn p1_equals_p0_in_minimal_context() {
        // Section 7: in γ_min agents never learn who is faulty, so the
        // common-knowledge guards never fire and P1 ≡ P0.
        let sys = min_system(3, 1);
        let p0 = prescriptions(&sys, eba_core::kbp::KnowledgeBasedProgram::P0);
        let p1 = prescriptions(&sys, eba_core::kbp::KnowledgeBasedProgram::P1);
        for pid in 0..sys.point_count() as u32 {
            for i in 0..3 {
                let agent = AgentId::new(i);
                assert_eq!(p0.at(pid, agent), p1.at(pid, agent));
            }
        }
    }

    #[test]
    fn prescriptions_respect_unique_decision() {
        // Once decided (state records it), the prescription is noop.
        let sys = min_system(3, 1);
        let pres = prescriptions(&sys, eba_core::kbp::KnowledgeBasedProgram::P0);
        for pid in 0..sys.point_count() as u32 {
            for i in 0..3 {
                let agent = AgentId::new(i);
                if sys.decided_at(pid, agent).is_some() {
                    assert_eq!(pres.at(pid, agent), Action::Noop);
                }
            }
        }
    }
}
