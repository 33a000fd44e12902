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
//! `crates/epistemic/tests/paper_lemmas.rs`, which is what licenses this
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

use crate::table::{cell, Table};

/// Timeline of one silent-faulty configuration.
#[derive(Clone, Debug)]
pub struct E9Row {
    /// Number of agents.
    pub n: usize,
    /// Fault tolerance = number of silent agents.
    pub t: usize,
    /// First time a nonfaulty agent knows all `t` faults.
    pub faults_known_time: u32,
    /// First time the `common_v(1)` condition holds for a nonfaulty agent.
    pub ck_onset_time: u32,
    /// The same onset recomputed by the batched query engine over the
    /// complete interpreted system — `None` when the instance is too
    /// large to enumerate exhaustively (anything beyond `(3, 1)`).
    pub ck_onset_model_checked: Option<u32>,
    /// `P_opt`'s decision round (expected `ck_onset_time + 1`).
    pub popt_round: u32,
    /// `P_min`'s decision round (expected `t + 2`).
    pub pmin_round: u32,
}

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
pub fn run(configs: &[(usize, usize)]) -> (Vec<E9Row>, Table) {
    let mut rows = Vec::new();
    for &(n, t) in configs {
        assert!(t >= 1, "need at least one silent agent");
        let params = Params::new(n, t).expect("valid config");
        let silent: AgentSet = (0..t).map(AgentId::new).collect();
        let pattern = silent_pattern(params, silent, params.default_horizon()).expect("t ≤ t");
        let inits = vec![Value::One; n];
        let observer = AgentId::new(t); // first nonfaulty agent

        let fip_ctx = Context::fip(params);
        let trace = Scenario::of(&fip_ctx)
            .pattern(pattern.clone())
            .inits(&inits)
            .run()
            .expect("run");

        let mut faults_known_time = u32::MAX;
        let mut ck_onset_time = u32::MAX;
        for m in 0..=trace.horizon() {
            let state = &trace.states[m as usize][observer.index()];
            let analysis = FipAnalysis::analyze(&state.graph, params, observer);
            if faults_known_time == u32::MAX && analysis.owner_known_faulty().len() == t {
                faults_known_time = m;
            }
            if ck_onset_time == u32::MAX && analysis.common_knowledge_holds(Value::One) {
                ck_onset_time = m;
            }
        }

        let min_ctx = Context::minimal(params);
        let pmin_trace = Scenario::of(&min_ctx)
            .pattern(pattern.clone())
            .inits(&inits)
            .run()
            .expect("run");

        // On exhaustively enumerable instances, cross-check the graph
        // shortcut against the compiled query engine over the complete
        // interpreted system.
        let ck_onset_model_checked = (n == 3 && t == 1)
            .then(|| model_checked_ck_onset(params).expect("(3, 1) is enumerable"));

        rows.push(E9Row {
            n,
            t,
            faults_known_time,
            ck_onset_time,
            ck_onset_model_checked,
            popt_round: trace
                .max_decision_round(pattern.nonfaulty())
                .expect("all decide"),
            pmin_round: pmin_trace
                .max_decision_round(pattern.nonfaulty())
                .expect("all decide"),
        });
    }

    let mut table = Table::new(
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
    );
    for r in &rows {
        table.push(vec![
            cell(r.n),
            cell(r.t),
            cell(r.faults_known_time),
            cell(r.ck_onset_time),
            r.ck_onset_model_checked
                .map_or_else(|| "—".to_string(), |m| m.to_string()),
            cell(r.popt_round),
            cell(r.pmin_round),
        ]);
    }
    (rows, table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeline_is_constant_across_scales() {
        let (rows, _) = run(&[(4, 1), (6, 2), (8, 3), (12, 5)]);
        for r in &rows {
            assert_eq!(r.faults_known_time, 1, "{r:?}");
            assert_eq!(r.ck_onset_time, 2, "{r:?}");
            assert_eq!(r.popt_round, 3, "{r:?}");
            assert_eq!(r.pmin_round, r.t as u32 + 2, "{r:?}");
            assert!(r.ck_onset_model_checked.is_none(), "{r:?}");
        }
    }

    #[test]
    fn query_engine_confirms_the_graph_shortcut_at_3_1() {
        // The complete-system brute force (one compiled
        // K_observer(C_N(t-faulty ∧ …)) plan) must agree with the
        // polynomial graph condition: common knowledge at time 2.
        let (rows, table) = run(&[(3, 1)]);
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert_eq!(r.ck_onset_time, 2, "{r:?}");
        assert_eq!(r.ck_onset_model_checked, Some(r.ck_onset_time), "{r:?}");
        assert_eq!(r.popt_round, r.ck_onset_time + 1, "{r:?}");
        assert!(table.to_markdown().contains("query engine"));
    }

    #[test]
    fn decision_follows_ck_within_one_round() {
        // Lemma A.4: once C_N(t-faulty) holds every agent decides by the
        // next round.
        let (rows, _) = run(&[(6, 2), (10, 4)]);
        for r in &rows {
            assert_eq!(r.popt_round, r.ck_onset_time + 1, "{r:?}");
        }
    }
}
