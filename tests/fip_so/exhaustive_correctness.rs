//! `exhaustive_correctness`'s (3, 1) `E_fip` rows: every run of the
//! fixture passes both judges, and the ablated `P_opt∖CK` system is the
//! fixture run for run.

use crate::common::{assert_streams_equal, both_judges};
use crate::{FipSo, FIP_SO};
use eba::prelude::*;

#[test]
fn popt_is_correct_on_every_run_n3_t1() {
    let (ex, runs) = (*FipSo::ctx().exchange(), FIP_SO.runs());
    for (r, run) in runs.iter().enumerate() {
        both_judges(&ex, run).unwrap_or_else(|e| panic!("E_fip/P_opt run {r}: {e}"));
    }
    assert!(runs.len() >= 90_000, "covered {} distinct runs", runs.len());
}

/// Removing the common-knowledge rules costs speed, never correctness
/// (it is `P0`, which is correct in every EBA context — Prop 6.1). At
/// t = 1 it costs nothing either: a 0-chain hidden for `m` rounds needs
/// `m` silent extenders, so the hidden-chain rule fires exactly when
/// common knowledge of the faulty set first can, and every run of the
/// ablated system equals the fixture's — nonfaulty set, inits, states
/// and actions — whose correctness both judges check above. An ablation
/// that can differ from `P_opt` needs t ≥ 2.
#[test]
fn popt_ablated_is_still_correct_n3_t1() {
    let params = FipSo::ctx().params();
    let ablated = Context::new(
        FipExchange::new(params),
        POpt::without_common_knowledge(params),
    );
    assert_streams_equal(&ablated, FipSo::HORIZON, FIP_SO.runs(), &[2]);
}
