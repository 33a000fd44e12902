//! The node store is a refactor of the chain oracle, not a semantic
//! change: every system of the sweep ([`common::sweep`]) is built three
//! ways — collected, streamed into the node store, and as
//! `oracle::from_runs` chains over the collected runs — and the three
//! must agree on everything observable ([`common::agree`]: the raw
//! trajectories, the store's ids and arena order, class partitions, the
//! standard battery, `check_spec`, and the `P0`/`P1` reports). Each
//! system is checked once: the sweep is split by horizon across the three
//! tests below, and the node store's worker count cycles through 1 to 4
//! within each. The horizon-4 `E_fip@SO` system is `engines_agree`'s
//! `full_fip_system_agrees`.

mod common;

use common::{check_each, sweep, ThreeBuilds};
use eba::prelude::*;

/// [`common::agree`] on every system of the sweep at `horizon`.
fn systems_agree_at(horizon: u32) {
    let systems: Vec<_> = sweep()
        .into_iter()
        .filter(|s| s.horizon == horizon)
        .collect();
    assert!(!systems.is_empty());
    check_each(&systems, |k, s| {
        let stack = NamedStack::by_name(&s.name, s.params).unwrap();
        stack.visit(ThreeBuilds {
            horizon,
            workers: k % 4 + 1,
        });
    });
}

/// Horizon 2: every (3, 1) stack under every failure model, `E_fip`
/// included. The store built from the enumerator's items assigns the
/// same ids, in the same arena order, to every slot as `push_run` does
/// over the collected runs.
#[test]
fn streamed_store_is_identical_to_the_pushed_store() {
    systems_agree_at(2);
}

/// Horizon 3: every (3, 1) stack but `E_fip` under every failure model.
#[test]
fn run_store_system_equals_legacy_system() {
    systems_agree_at(3);
}

/// Horizon 4: every (3, 1) registry system but `E_fip` under sending
/// (the fixture's) and general omissions (25.2M runs), and `SO(t)` at
/// (4, 1) for `E_min`, `E_basic` and `E_naive`.
#[test]
fn node_store_agrees_with_the_chain_oracle() {
    systems_agree_at(4);
}
