//! **E9 — common-knowledge onset (Prop 7.2 / Lemmas A.3–A.4).**
//!
//! Once the nonfaulty agents have common knowledge of who the `t` faulty
//! agents are, every agent decides within one round. In the silent-faulty
//! scenario the timeline is constant in `n` and `t`: distributed knowledge
//! of the faults at time 1, common knowledge (checked by the `common_v`
//! condition, Lemma A.20) at time 2, decision in round 3 — while the
//! limited-information protocols must wait `t + 2` rounds.
//!
//! The polynomial `common_v` condition used here is itself verified
//! against brute-force `C_N` model checking over the complete (streamed,
//! arena-backed) interpreted system in
//! `tests/fip_so/paper_lemmas.rs`, which is what licenses this
//! experiment's graph-level shortcut at scales (`n` up to 20) no
//! exhaustive run set could reach. On instances small enough to
//! enumerate exhaustively (`(3, 1)`), the experiment additionally
//! recomputes the onset through the **compiled query engine** — one
//! batched `K_observer(C_N(t-faulty ∧ …))` plan over the complete
//! interpreted system ([`model_checked_ck_onset`]) — and reports it next
//! to the graph shortcut.

use eba_core::graph::FipAnalysis;
use eba_core::prelude::*;
use eba_epistemic::prelude::*;
use eba_sim::prelude::*;

use crate::claims::{observe, pairs, CheckKind, Claim};
use crate::table::{cell, or_dash, Table};

/// The first time the observer (the first nonfaulty agent) satisfies
/// `K_i(`[`ck_guard`]`(1))`, i.e. `K_i(C_N(t-faulty ∧ no-decided_N(0) ∧
/// ∃1))`, on the silent-faulty all-ones run — the brute-force,
/// whole-system counterpart of the `common_1` graph condition, answered
/// by the compiled query engine ([`InterpretedSystem::eval`]).
///
/// The system is built at horizon 3: the onset is at time 2 and
/// knowledge at time `m` only depends on the time-`m` state sets, which
/// are prefix-stable across horizons, so the shorter system answers the
/// same question at a fraction of the cost of the full `t + 3` one.
///
/// # Errors
///
/// Propagates enumeration/system-construction failures (instance too
/// large), and reports [`EbaError::InvalidInput`] if the silent run is
/// missing from the enumerated system or common knowledge never arises
/// within the horizon.
pub fn model_checked_ck_onset(params: Params) -> Result<u32, EbaError> {
    let n = params.n();
    let t = params.t();
    let horizon = 3;
    let silent: AgentSet = (0..t).map(AgentId::new).collect();
    let pattern = silent_pattern(params, silent, horizon)?;
    let inits = vec![Value::One; n];
    let observer = AgentId::new(t);

    let ctx = Context::fip(params);
    let trace = Scenario::of(&ctx)
        .pattern(pattern)
        .inits(&inits)
        .horizon(horizon)
        .run()?;
    let sys = InterpretedSystem::from_context(
        Context::fip(params),
        horizon,
        2_000_000,
        Parallelism::Auto,
    )?;

    // Locate the silent run inside the complete system: same nonfaulty
    // set, same inits, same trajectory (runs are deduplicated by
    // exactly this key).
    let run = (0..sys.run_count())
        .find(|&r| {
            sys.nonfaulty(r) == trace.nonfaulty
                && sys.inits(r) == &inits[..]
                && (0..=horizon).all(|m| {
                    let pid = sys.point(r, m);
                    AgentId::all(n)
                        .all(|i| sys.local_state(pid, i) == &trace.states[m as usize][i.index()])
                })
        })
        .ok_or_else(|| {
            EbaError::InvalidInput("silent run not found in the enumerated system".into())
        })?;

    let holds = sys.eval(&Formula::knows(observer, ck_guard(params, Value::One)));
    (0..=horizon)
        .find(|&m| holds.contains(sys.point(run, m) as usize))
        .ok_or_else(|| {
            EbaError::InvalidInput("common knowledge never arose within the horizon".into())
        })
}

/// Runs the silent-faulty timeline for each `(n, t)` configuration.
pub fn run(configs: &[(usize, usize)]) -> Claim {
    let mut claim = Claim::new(
        "E9",
        "Prop 7.2 / Lemma A.4",
        "t silent faulty: faults known at time 1, common knowledge at 2, P_opt decides in round 3",
        CheckKind::SingleRuns,
        pairs(configs),
        Table::new(
            "E9: common-knowledge onset under silent faults (Prop 7.2)",
            "Silent-faulty all-ones runs. The epistemic timeline is constant: \
             every nonfaulty agent knows all t faults at time 1, common \
             knowledge arrives at time 2, P_opt decides in round 3 — while \
             P_min scales linearly with t. On (3, 1) the onset is also \
             recomputed by the batched query engine over the complete \
             interpreted system (— elsewhere: too large to enumerate).",
            &[
                "n",
                "t",
                "faults known (time)",
                "CK onset (time)",
                "CK onset (query engine)",
                "P_opt round",
                "P_min round",
            ],
        ),
    );
    for &(n, t) in configs {
        assert!(t >= 1, "need at least one silent agent");
        let params = Params::new(n, t).expect("valid config");
        let silent: AgentSet = (0..t).map(AgentId::new).collect();
        let pattern = silent_pattern(params, silent, params.default_horizon()).expect("t ≤ t");
        let inits = vec![Value::One; n];
        let observer = AgentId::new(t); // first nonfaulty agent

        let trace = Scenario::of(&Context::fip(params))
            .pattern(pattern.clone())
            .inits(&inits)
            .run()
            .expect("run");
        let (mut faults_known, mut ck_onset) = (None, None);
        for m in 0..=trace.horizon() {
            let state = &trace.states[m as usize][observer.index()];
            let analysis = FipAnalysis::analyze(&state.graph, params, observer);
            if analysis.owner_known_faulty().len() == t {
                faults_known = faults_known.or(Some(m));
            }
            if analysis.common_knowledge_holds(Value::One) {
                ck_onset = ck_onset.or(Some(m));
            }
        }
        let popt = trace.max_decision_round(pattern.nonfaulty());
        let pmin = observe(&Context::minimal(params), &pattern, &inits).max_round;

        // On exhaustively enumerable instances, cross-check the graph
        // shortcut against the compiled query engine over the complete
        // interpreted system.
        let model_checked = (n == 3 && t == 1)
            .then(|| model_checked_ck_onset(params).expect("(3, 1) is enumerable"));

        claim.row(
            vec![
                cell(n),
                cell(t),
                or_dash(faults_known),
                or_dash(ck_onset),
                or_dash(model_checked),
                or_dash(popt),
                or_dash(pmin),
            ],
            &[
                (
                    "faults known at time 1, common knowledge at time 2",
                    faults_known == Some(1) && ck_onset == Some(2),
                ),
                (
                    "P_opt decides the round after the onset: round 3",
                    popt == Some(3) && popt == ck_onset.map(|m| m + 1),
                ),
                ("P_min decides in round t + 2", pmin == Some(t as u32 + 2)),
                (
                    "the query engine finds the same onset",
                    model_checked.is_none() || model_checked == ck_onset,
                ),
            ],
        );
    }
    claim
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::claims::assert_holds;

    #[test]
    fn timeline_is_constant_across_scales() {
        let claim = assert_holds(run(&[(4, 1), (6, 2), (8, 3), (12, 5)]));
        // Too large to enumerate: no query-engine onset.
        assert!(claim.table.rows.iter().all(|r| r[4] == "—"));
    }

    #[test]
    fn query_engine_confirms_the_graph_shortcut_at_3_1() {
        let claim = assert_holds(run(&[(3, 1)]));
        assert_eq!(claim.table.rows[0][4], "2");
        assert!(claim.table.to_markdown().contains("query engine"));
    }

    #[test]
    fn decision_follows_ck_within_one_round() {
        // Lemma A.4: once C_N(t-faulty) holds every agent decides by the
        // next round.
        assert_holds(run(&[(6, 2), (10, 4)]));
    }
}
