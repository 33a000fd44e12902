//! `exhaustive_correctness`'s (3, 1) `E_fip/P_opt` row: every run of the
//! fixture passes both judges.

use crate::common::both_judges;
use crate::{FipSo, FIP_SO};

#[test]
fn popt_is_correct_on_every_run_n3_t1() {
    let (ex, runs) = (*FipSo::ctx().exchange(), FIP_SO.runs());
    for (r, run) in runs.iter().enumerate() {
        both_judges(&ex, run).unwrap_or_else(|e| panic!("E_fip/P_opt run {r}: {e}"));
    }
    assert!(runs.len() >= 90_000, "covered {} distinct runs", runs.len());
}
