//! The knowledge-based programs `P0` and `P1` as rules, and the action
//! each prescribes at every point of an interpreted system.
//!
//! [`rules`] states each program once, as an ordered list of `(guard,
//! action)` pairs per agent: the first rule whose guard holds gives the
//! action, and `noop` where none holds. [`prescriptions`] evaluates them
//! over a system `I` to give `(P)^I`, which [`crate::implements`] compares
//! with a concrete protocol.

use eba_core::exchange::InformationExchange;
use eba_core::kbp::KnowledgeBasedProgram;
use eba_core::types::{subsets_of_size, Action, AgentId, AgentSet, BitSet, Params, Value};

use crate::formula::Formula;
use crate::query::{EvalSession, FormulaArena, NodeId, QueryPlan};
use crate::system::{InterpretedSystem, PointId};

/// The paper's `C_N(t-faulty ∧ φ)` abbreviation:
/// `∃A ⊆ Agt (|A| = t ∧ C_N(⋀_{i ∈ A} (i ∉ N) ∧ φ))`.
pub fn ck_t_faulty_and(params: Params, phi: Formula) -> Formula {
    let ck = |a: AgentSet| {
        let faulty = a.iter().map(|i| Formula::not(Formula::Nonfaulty(i)));
        Formula::common_nonfaulty(Formula::And(faulty.chain([phi.clone()]).collect()))
    };
    let candidates = subsets_of_size(params.n(), params.t());
    Formula::Or(candidates.into_iter().map(ck).collect())
}

/// The body of `P1`'s decide-`v` guard:
/// `C_N(t-faulty ∧ no-decided_N(1−v) ∧ ∃v)`.
pub fn ck_guard(params: Params, v: Value) -> Formula {
    ck_t_faulty_and(
        params,
        Formula::And(vec![
            Formula::no_nonfaulty_decided(params.n(), v.other()),
            Formula::ExistsInit(v),
        ]),
    )
}

/// The rules of `program` for `agent`, in order: `P0`'s three (Section
/// 6), and for `P1` (Section 7) the two `K_i(`[`ck_guard`]`(v))` rules
/// after the first.
pub fn rules(
    program: KnowledgeBasedProgram,
    params: Params,
    agent: AgentId,
) -> Vec<(Formula, Action)> {
    use Value::{One, Zero};
    let n = params.n();
    let knows_jdec0 = Formula::knows(agent, Formula::someone_just_decided(n, Zero));
    let mut rules = vec![
        (Formula::not(Formula::DecidedIs(agent, None)), Action::Noop),
        (
            Formula::Or(vec![Formula::InitIs(agent, Zero), knows_jdec0]),
            Action::Decide(Zero),
        ),
        (
            Formula::knows(agent, Formula::nobody_deciding(n, Zero)),
            Action::Decide(One),
        ),
    ];
    if program == KnowledgeBasedProgram::P1 {
        let ck = |v| {
            (
                Formula::knows(agent, ck_guard(params, v)),
                Action::Decide(v),
            )
        };
        rules.splice(1..1, Value::ALL.map(ck));
    }
    rules
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
    /// size of the shared guard DAG across all agents and rules.
    pub fn evaluated_nodes(&self) -> usize {
        self.evaluated_nodes
    }
}

/// Evaluates the knowledge-based program over a system: every agent's
/// [`rules`] are interned into **one** hash-consed [`FormulaArena`] (so
/// the `C_N(t-faulty ∧ …)` towers of `P1`, with their `C(n, t)`
/// faulty-set candidates, exist once however many `K_i` guards mention
/// them) and evaluated by one [`EvalSession`]; then a first-match loop
/// picks each agent's action at every point.
pub fn prescriptions<E: InformationExchange>(
    sys: &InterpretedSystem<E>,
    program: KnowledgeBasedProgram,
) -> Prescriptions {
    let params = sys.params();
    let mut arena = FormulaArena::new();
    let interned: Vec<Vec<(NodeId, Action)>> = params
        .agents()
        .map(|i| {
            let intern = |(guard, action): (Formula, Action)| (arena.intern(&guard), action);
            rules(program, params, i).into_iter().map(intern).collect()
        })
        .collect();
    let roots: Vec<NodeId> = interned.iter().flatten().map(|(guard, _)| *guard).collect();
    let plan = QueryPlan::new(&arena, &roots);
    let session = EvalSession::evaluate(sys, &arena, &plan);
    let guards: Vec<Vec<(&BitSet, Action)>> = interned
        .iter()
        .map(|agent_rules| {
            let lookup = |(guard, action): &(NodeId, Action)| (session.bitset(*guard), *action);
            agent_rules.iter().map(lookup).collect()
        })
        .collect();
    let actions = (0..sys.point_count())
        .flat_map(|pid| {
            guards.iter().map(move |agent_guards| {
                let first = agent_guards.iter().find(|(holds, _)| holds.contains(pid));
                first.map_or(Action::Noop, |(_, action)| *action)
            })
        })
        .collect();
    Prescriptions {
        n: params.n(),
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
    fn p1_is_p0_with_the_two_common_knowledge_rules_second() {
        let params = Params::new(4, 1).unwrap();
        for agent in params.agents() {
            let p0 = rules(KnowledgeBasedProgram::P0, params, agent);
            let mut p1 = rules(KnowledgeBasedProgram::P1, params, agent);
            let ck: Vec<_> = p1.drain(1..3).collect();
            assert_eq!(p1, p0, "{agent}");
            for (v, rule) in Value::ALL.into_iter().zip(ck) {
                let expected = (
                    Formula::knows(agent, ck_guard(params, v)),
                    Action::Decide(v),
                );
                assert_eq!(rule, expected, "{agent}");
            }
        }
    }

    #[test]
    fn p0_rules_render_in_the_papers_notation() {
        let params = Params::new(3, 1).unwrap();
        let text: Vec<String> = rules(KnowledgeBasedProgram::P0, params, AgentId::new(0))
            .iter()
            .map(|(guard, action)| format!("if {guard} then {action}"))
            .collect();
        assert_eq!(
            text,
            [
                "if ¬(decided_a0 = ⊥) then noop",
                "if init_a0 = 0 ∨ K_a0(jdecided_a0 = 0 ∨ jdecided_a1 = 0 ∨ jdecided_a2 = 0) \
                 then decide(0)",
                "if K_a0(¬(deciding_a0 = 0) ∧ ¬(deciding_a1 = 0) ∧ ¬(deciding_a2 = 0)) \
                 then decide(1)",
            ]
        );
    }

    /// The first-match loop over the compiled session agrees, at every
    /// `(point, agent)`, with the first rule whose guard the independent
    /// recursive evaluator says holds.
    #[test]
    fn first_match_agrees_with_the_recursive_evaluator() {
        struct FirstMatch;
        impl StackVisitor for FirstMatch {
            type Output = ();
            fn visit<E, P>(self, ctx: &Context<E, P>)
            where
                E: InformationExchange + Clone + Sync + 'static,
                P: ActionProtocol<E> + Clone + Sync + 'static,
            {
                let sys =
                    InterpretedSystem::from_context(ctx.clone(), 4, 1_000_000, Parallelism::Auto)
                        .unwrap();
                let params = sys.params();
                for program in [KnowledgeBasedProgram::P0, KnowledgeBasedProgram::P1] {
                    let pres = prescriptions(&sys, program);
                    for agent in params.agents() {
                        let guards: Vec<(BitSet, Action)> = rules(program, params, agent)
                            .into_iter()
                            .map(|(guard, action)| (sys.eval_recursive(&guard), action))
                            .collect();
                        for pid in 0..sys.point_count() {
                            let first = guards
                                .iter()
                                .find(|(holds, _)| holds.contains(pid))
                                .map_or(Action::Noop, |(_, action)| *action);
                            assert_eq!(
                                pres.at(pid as PointId, agent),
                                first,
                                "{} {} point {pid} {agent}",
                                ctx.qualified_name(),
                                program.name()
                            );
                        }
                    }
                }
            }
        }
        let params = Params::new(3, 1).unwrap();
        for stack in ["E_min/P_min", "E_basic/P_basic", "E_naive/P_naive"] {
            for model in ["sending_omission", "general_omission"] {
                let name = format!("{stack}@{model}");
                NamedStack::by_name(&name, params)
                    .unwrap()
                    .visit(FirstMatch);
            }
        }
    }

    #[test]
    fn p0_prescribes_zero_for_zero_initial_preference() {
        let sys = min_system(3, 1);
        let pres = prescriptions(&sys, KnowledgeBasedProgram::P0);
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
        let pres = prescriptions(&sys, KnowledgeBasedProgram::P0);
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
        let p0 = prescriptions(&sys, KnowledgeBasedProgram::P0);
        let p1 = prescriptions(&sys, KnowledgeBasedProgram::P1);
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
        let pres = prescriptions(&sys, KnowledgeBasedProgram::P0);
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
