//! Model-checked validation of the paper's supporting lemmas on the
//! full-information system `γ_fip(3,1)` ([`FIP_SO`]'s node store) — these
//! are the load-bearing steps behind Theorem A.21 and the polynomial-time
//! `P_opt`:
//!
//! * **Prop A.2(a)** — `time > 0 ⇒ (⊖ dist_N(t-faulty) ⟺ C_N(t-faulty))`:
//!   common knowledge of the faulty set arises exactly one round after
//!   the nonfaulty agents *distributedly* know `t` faulty agents.
//! * **Lemma A.3** — when the guard `C_N(t-faulty ∧ no-decided ∧ ∃v)`
//!   holds, *every* agent knows it (everyone receives from the nonfaulty).
//! * **Lemma A.4** — once `C_N(t-faulty)` holds, every agent decides by
//!   the next round.
//! * **Lemma A.20 / Definition A.19** — the polynomial `common_v`
//!   condition computed from an agent's communication graph coincides
//!   with the brute-force `K_i(C_N(t-faulty ∧ no-decided_N(1−v) ∧ ∃v))`
//!   at every point (the correctness of `P_opt`'s common-knowledge test).

use crate::{FipSo, FIP_SO};
use eba::core::graph::FipAnalysis;
use eba::core::types::{subsets_of_size, BitSet};
use eba::epistemic::prelude::*;
use eba::prelude::*;

/// `γ_fip(3,1)` at horizon 4: the fixture's node store.
fn fip_system() -> (Params, &'static InterpretedSystem<FipExchange>) {
    (FipSo::ctx().params(), FIP_SO.nodes())
}

/// `dist_N(t-faulty)`: ∃A (|A| = t ∧ ∀i∈A ∃j (j ∈ N ∧ K_j(i ∉ N))).
fn dist_t_faulty(params: Params) -> Formula {
    let n = params.n();
    Formula::Or(
        subsets_of_size(n, params.t())
            .into_iter()
            .map(|a| {
                Formula::And(
                    a.iter()
                        .map(|i| {
                            Formula::Or(
                                AgentId::all(n)
                                    .map(|j| {
                                        Formula::And(vec![
                                            Formula::Nonfaulty(j),
                                            Formula::knows(j, Formula::not(Formula::Nonfaulty(i))),
                                        ])
                                    })
                                    .collect(),
                            )
                        })
                        .collect(),
                )
            })
            .collect(),
    )
}

/// `C_N(t-faulty)`.
fn ck_t_faulty() -> Formula {
    Formula::common_t_faulty(Formula::True)
}

#[test]
fn prop_a2a_ck_faulty_iff_previous_distributed_knowledge() {
    let (params, sys) = fip_system();
    let lhs = Formula::Prev(Box::new(dist_t_faulty(params)));
    let rhs = ck_t_faulty();
    let lhs_set = sys.eval(&lhs);
    let rhs_set = sys.eval(&rhs);
    let mut checked = 0usize;
    for pid in 0..sys.point_count() {
        if sys.time_of(pid as u32) == 0 {
            continue; // the equivalence is stated for time > 0
        }
        assert_eq!(
            lhs_set.contains(pid),
            rhs_set.contains(pid),
            "Prop A.2(a) fails at run {} time {}",
            sys.run_of(pid as u32),
            sys.time_of(pid as u32),
        );
        checked += 1;
    }
    assert!(checked > 300_000, "checked {checked} points");
    // And the property is non-vacuous: C_N(t-faulty) holds somewhere.
    assert!(rhs_set.count() > 0, "C_N(t-faulty) never held");
}

#[test]
fn lemma_a3_guard_is_known_to_everyone_when_it_holds() {
    let (params, sys) = fip_system();
    for v in Value::ALL {
        let guard_set = sys.eval(&ck_guard(params, v));
        assert!(guard_set.count() > 0, "guard({v}) never held — vacuous");
        for i in params.agents() {
            let knows = sys.knows_set(i, &guard_set);
            assert!(
                guard_set.is_subset(&knows),
                "Lemma A.3: {i} fails to know the guard({v}) somewhere"
            );
        }
    }
}

#[test]
fn lemma_a4_everyone_decides_within_one_round_of_ck() {
    let (params, sys) = fip_system();
    let ck = sys.eval(&ck_t_faulty());
    let all_decided_next = Formula::And(
        params
            .agents()
            .map(|i| Formula::Next(Box::new(Formula::not(Formula::DecidedIs(i, None)))))
            .collect(),
    );
    let next_set = sys.eval(&all_decided_next);
    let mut witnessed = 0usize;
    for pid in 0..sys.point_count() {
        if ck.contains(pid) && sys.time_of(pid as u32) < sys.horizon() {
            assert!(
                next_set.contains(pid),
                "Lemma A.4 fails at run {} time {}",
                sys.run_of(pid as u32),
                sys.time_of(pid as u32),
            );
            witnessed += 1;
        }
    }
    assert!(witnessed > 0, "C_N(t-faulty) never held before the horizon");
}

#[test]
fn common_v_graph_condition_matches_brute_force_knowledge() {
    let (params, sys) = fip_system();
    // Brute-force sets: K_i(C_N(t-faulty ∧ no-decided_N(1−v) ∧ ∃v)).
    let mut truth: Vec<Vec<BitSet>> = Vec::new(); // [v][agent]
    for v in Value::ALL {
        let set = sys.eval(&ck_guard(params, v));
        truth.push(params.agents().map(|i| sys.knows_set(i, &set)).collect());
    }
    // Compare against the polynomial-time graph condition on a systematic
    // sample of runs (every 17th), all times, all agents.
    let mut compared = 0usize;
    let mut positives = 0usize;
    for r in (0..sys.run_count()).step_by(17) {
        for m in 0..=sys.horizon() {
            for (iv, v) in Value::ALL.into_iter().enumerate() {
                for i in params.agents() {
                    let state = sys.local_state(sys.point(r, m), i);
                    let analysis = FipAnalysis::analyze(&state.graph, params, i);
                    let graph_says = analysis.common_knowledge_holds(v);
                    let logic_says = truth[iv][i.index()].contains(sys.point(r, m) as usize);
                    assert_eq!(
                        graph_says, logic_says,
                        "common_{v} mismatch: run {r}, time {m}, agent {i}"
                    );
                    compared += 1;
                    positives += graph_says as usize;
                }
            }
        }
    }
    assert!(compared > 50_000, "compared {compared} point-agent pairs");
    assert!(positives > 0, "the condition never fired in the sample");
}
