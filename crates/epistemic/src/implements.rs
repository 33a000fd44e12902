//! The implements-check: a concrete action protocol against a
//! knowledge-based program (Section 4).
//!
//! `P` implements a knowledge-based program `P` in context `γ` if
//! `P_i(s) = (P_i)^{I}(s)` for every agent `i` and every local state `s`
//! arising in `I = I_{γ,P}`. Over an exhaustively enumerated system this
//! is a finite check — the machine-checked counterpart of Theorems 6.5
//! (`P_min` vs `P0`), 6.6 (`P_basic` vs `P0`), and A.21 (`P_opt` vs `P1`).

use std::fmt;

use eba_core::exchange::InformationExchange;
use eba_core::kbp::KnowledgeBasedProgram;
use eba_core::protocols::ActionProtocol;
use eba_core::types::{Action, AgentId};

use crate::kbp::prescriptions;
use crate::system::InterpretedSystem;

/// One disagreement between a protocol and a knowledge-based program.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Mismatch {
    /// The run index within the system.
    pub run: usize,
    /// The time of the point.
    pub time: u32,
    /// The disagreeing agent.
    pub agent: AgentId,
    /// What the concrete protocol did.
    pub actual: Action,
    /// What the knowledge-based program prescribes.
    pub prescribed: Action,
}

impl fmt::Display for Mismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "run {} time {}: {} did {} but the program prescribes {}",
            self.run, self.time, self.agent, self.actual, self.prescribed
        )
    }
}

/// The outcome of an implements-check.
#[derive(Clone, Debug)]
pub struct ImplementsReport {
    /// `(point, agent)` pairs compared.
    pub comparisons: usize,
    /// Runs in the system.
    pub runs: usize,
    /// Distinct formula nodes the program's compiled guard plan
    /// evaluated (see [`Prescriptions::evaluated_nodes`]).
    ///
    /// [`Prescriptions::evaluated_nodes`]: crate::kbp::Prescriptions::evaluated_nodes
    pub evaluated_nodes: usize,
    /// All disagreements found (empty iff the protocol implements the
    /// program).
    pub mismatches: Vec<Mismatch>,
}

impl ImplementsReport {
    /// Whether the protocol implements the program on this system.
    pub fn is_ok(&self) -> bool {
        self.mismatches.is_empty()
    }
}

/// Compares `proto`'s action with the program's prescription at every
/// point of the system and every agent.
///
/// Both are functions of the prefix-tree node, so each `(node, agent)`
/// pair below the horizon is compared once and weighs as the runs
/// through the node: `comparisons` counts `(point, agent)` pairs, and a
/// disagreement is listed at each of its points, in run, time and agent
/// order.
///
/// The system must have been generated by `proto` itself (the definition
/// of implementation interprets the program in `I_{γ,P}`); the recorded
/// actions are cross-checked against `proto.act` as a determinism guard.
pub fn check_implements<E, P>(
    sys: &InterpretedSystem<E>,
    proto: &P,
    program: KnowledgeBasedProgram,
) -> ImplementsReport
where
    E: InformationExchange,
    P: ActionProtocol<E>,
{
    let pres = prescriptions(sys, program);
    let (store, n, horizon) = (sys.store(), sys.params().n(), sys.horizon());
    let agents = || (0..n).map(AgentId::new);
    // The recorded and the prescribed action at a node, where they differ.
    let mismatch = |x: usize, agent: AgentId| {
        let (actual, prescribed) = (store.node_action(x, agent.index()), pres.at_node(x, agent));
        let state = store.arena().get(store.node_state_ids(agent.index())[x]);
        debug_assert_eq!(
            actual,
            proto.act(agent, state),
            "recorded action disagrees with the protocol (nondeterminism?)"
        );
        (actual != prescribed).then_some((actual, prescribed))
    };
    let mut comparisons = 0;
    // `wrong[x]`: some agent's action at node `x` is not the prescribed one.
    let mut wrong = vec![false; store.node_count()];
    for x in (0..store.node_count()).filter(|x| store.depth(*x) < horizon) {
        comparisons += n * store.runs(x).len();
        wrong[x] = agents().any(|agent| mismatch(x, agent).is_some());
    }
    let mut mismatches = Vec::new();
    if wrong.contains(&true) {
        store.for_each_chain(|run, chain| {
            let below = (0..).zip(&chain[..horizon as usize]);
            for (time, &x) in below.filter(|(_, x)| wrong[**x]) {
                for agent in agents() {
                    if let Some((actual, prescribed)) = mismatch(x, agent) {
                        mismatches.push(Mismatch {
                            run,
                            time,
                            agent,
                            actual,
                            prescribed,
                        });
                    }
                }
            }
        });
    }
    ImplementsReport {
        comparisons,
        runs: sys.run_count(),
        evaluated_nodes: pres.evaluated_nodes(),
        mismatches,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eba_core::prelude::*;
    use eba_core::types::{Params, Value};
    use eba_sim::runner::Parallelism;

    /// Theorem 6.5 at (3, 1): P_min implements P0 in γ_min.
    #[test]
    fn pmin_implements_p0_n3_t1() {
        let params = Params::new(3, 1).unwrap();
        let ex = MinExchange::new(params);
        let proto = PMin::new(params);
        let sys = InterpretedSystem::from_context(
            Context::new(ex, &proto),
            4,
            5_000_000,
            Parallelism::Sequential,
        )
        .unwrap();
        let report = check_implements(&sys, &proto, KnowledgeBasedProgram::P0);
        assert!(
            report.is_ok(),
            "first mismatches: {:?}",
            &report.mismatches[..report.mismatches.len().min(5)]
        );
        assert!(report.comparisons > 0);
    }

    /// Theorem 6.6 at (3, 1): P_basic implements P0 in γ_basic.
    #[test]
    fn pbasic_implements_p0_n3_t1() {
        let params = Params::new(3, 1).unwrap();
        let ex = BasicExchange::new(params);
        let proto = PBasic::new(params);
        let sys = InterpretedSystem::from_context(
            Context::new(ex, &proto),
            4,
            5_000_000,
            Parallelism::Sequential,
        )
        .unwrap();
        let report = check_implements(&sys, &proto, KnowledgeBasedProgram::P0);
        assert!(
            report.is_ok(),
            "first mismatches: {:?}",
            &report.mismatches[..report.mismatches.len().min(5)]
        );
    }

    /// P1 ≡ P0 in the minimal/basic contexts (Section 7), so P_min and
    /// P_basic also implement P1 there.
    #[test]
    fn pmin_and_pbasic_implement_p1_too() {
        let params = Params::new(3, 1).unwrap();
        {
            let ex = MinExchange::new(params);
            let proto = PMin::new(params);
            let sys = InterpretedSystem::from_context(
                Context::new(ex, &proto),
                4,
                5_000_000,
                Parallelism::Sequential,
            )
            .unwrap();
            assert!(check_implements(&sys, &proto, KnowledgeBasedProgram::P1).is_ok());
        }
        {
            let ex = BasicExchange::new(params);
            let proto = PBasic::new(params);
            let sys = InterpretedSystem::from_context(
                Context::new(ex, &proto),
                4,
                5_000_000,
                Parallelism::Sequential,
            )
            .unwrap();
            assert!(check_implements(&sys, &proto, KnowledgeBasedProgram::P1).is_ok());
        }
    }

    /// A deliberately broken protocol is caught: deciding 1 one round
    /// early violates the P0 prescription somewhere.
    #[test]
    fn eager_mutant_fails_the_check() {
        #[derive(Clone, Copy, Debug)]
        struct EagerMin(Params);
        impl ActionProtocol<MinExchange> for EagerMin {
            fn name(&self) -> &'static str {
                "P_min_eager"
            }
            fn act(&self, _agent: AgentId, s: &MinState) -> Action {
                if s.decided.is_some() {
                    return Action::Noop;
                }
                if s.init == Value::Zero || s.jd == Some(Value::Zero) {
                    return Action::Decide(Value::Zero);
                }
                if s.time >= self.0.t() as u32 {
                    // one round early!
                    return Action::Decide(Value::One);
                }
                Action::Noop
            }
        }
        let params = Params::new(3, 1).unwrap();
        let ex = MinExchange::new(params);
        let proto = EagerMin(params);
        let sys = InterpretedSystem::from_context(
            Context::new(ex, &proto),
            4,
            5_000_000,
            Parallelism::Sequential,
        )
        .unwrap();
        let report = check_implements(&sys, &proto, KnowledgeBasedProgram::P0);
        assert!(!report.is_ok(), "the eager mutant must not implement P0");
        // Every mismatch is an early/illegal 1-decision.
        for m in &report.mismatches {
            assert_eq!(m.actual, Action::Decide(Value::One));
        }
    }

    /// `check_implements` at (3, 1), horizon 4, for both programs, by
    /// registry name: `(stack@model, runs, mismatches)`. Comparisons are
    /// runs × 12, and `P0` and `P1` agree on every row. The `SO(t)` rows
    /// of `E_min`, `E_basic` and `E_fip` are Thms 6.5, 6.6 and A.21; the
    /// rest lie beyond the paper. `E_fip`'s sending-omission row is
    /// `engines_agree`'s `full_fip_system_agrees`, and its general-omission
    /// row (25.2M runs) is too heavy for a unit test.
    #[test]
    fn implements_table_at_3_1_across_models() {
        const TABLE: [(&str, usize, usize); 14] = [
            ("E_min/P_min@failure_free", 8, 3),
            ("E_min/P_min@crash", 74, 0),
            ("E_min/P_min@sending_omission", 74, 0),
            ("E_min/P_min@general_omission", 272, 0),
            ("E_basic/P_basic@failure_free", 8, 0),
            ("E_basic/P_basic@crash", 95, 0),
            ("E_basic/P_basic@sending_omission", 158, 0),
            ("E_basic/P_basic@general_omission", 3_260, 2_952),
            ("E_naive/P_naive@failure_free", 8, 3),
            ("E_naive/P_naive@crash", 41, 0),
            ("E_naive/P_naive@sending_omission", 68, 78),
            ("E_naive/P_naive@general_omission", 104, 114),
            ("E_fip/P_opt@failure_free", 8, 0),
            ("E_fip/P_opt@crash", 704, 0),
        ];
        struct Implements;
        impl StackVisitor for Implements {
            type Output = [(usize, usize, usize); 2];
            fn visit<E, P>(self, ctx: &Context<E, P>) -> Self::Output
            where
                E: InformationExchange + Clone + Sync + 'static,
                P: ActionProtocol<E> + Clone + Sync + 'static,
            {
                let sys =
                    InterpretedSystem::from_context(ctx.clone(), 4, 1_000_000, Parallelism::Auto)
                        .unwrap();
                [KnowledgeBasedProgram::P0, KnowledgeBasedProgram::P1].map(|program| {
                    let report = check_implements(&sys, ctx.protocol(), program);
                    (report.runs, report.comparisons, report.mismatches.len())
                })
            }
        }
        let params = Params::new(3, 1).unwrap();
        for (name, runs, mismatches) in TABLE {
            let got = NamedStack::by_name(name, params).unwrap().visit(Implements);
            assert_eq!(got, [(runs, runs * 12, mismatches); 2], "{name}");
        }
    }

    /// Theorem 6.5 at (4, 1): a larger minimal-context instance.
    #[test]
    fn pmin_implements_p0_n4_t1() {
        let params = Params::new(4, 1).unwrap();
        let ex = MinExchange::new(params);
        let proto = PMin::new(params);
        let sys = InterpretedSystem::from_context(
            Context::new(ex, &proto),
            4,
            5_000_000,
            Parallelism::Sequential,
        )
        .unwrap();
        let report = check_implements(&sys, &proto, KnowledgeBasedProgram::P0);
        assert!(
            report.is_ok(),
            "first mismatches: {:?}",
            &report.mismatches[..report.mismatches.len().min(5)]
        );
    }
}
