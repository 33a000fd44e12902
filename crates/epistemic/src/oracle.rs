//! The reference construction of an interpreted system, kept apart from
//! [`InterpretedSystem`]'s constructors because nothing but tests should
//! call it: the exhaustive comparisons of `tests/common/mod.rs`, which
//! `tests/engines_agree.rs` tabulates, and the in-crate suites build the
//! same system through [`InterpretedSystem::from_context`] (the
//! enumerator's prefix tree, one counting sort per agent) and through
//! [`from_runs`] (a collected run vector pushed as one unshared chain per
//! run, so its nodes are its points, and hash-then-group over the raw
//! states), and require the class partitions, verdicts, states and
//! actions to agree exactly.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use eba_core::exchange::InformationExchange;
use eba_core::types::EbaError;
use eba_sim::enumerate::EnumRun;
use eba_sim::store::{ensure_point_capacity, PointId, RunStore};

use crate::system::{AgentClasses, InterpretedSystem};

/// Builds a system from pre-enumerated runs (they must all have the given
/// horizon): each run is one chain of nodes, so every node is a point,
/// numbered as the point, and classes are computed by a hash-then-group
/// classifier over the collected run vector, independently of the arena
/// sort, and laid out by the ids the store interned.
///
/// # Panics
///
/// Panics if a hash-grouped class is not exactly the points of one
/// `StateId`, i.e. if the classifier and the arena disagree.
///
/// # Errors
///
/// Returns [`EbaError::InvalidInput`] if some run's trajectory length
/// disagrees with `horizon`, if `runs.len() * (horizon + 1)` overflows
/// the `u32` point-id space, or if a run has more than `t` faulty agents.
pub fn from_runs<E: InformationExchange>(
    ex: E,
    runs: &[EnumRun<E>],
    horizon: u32,
) -> Result<InterpretedSystem<E>, EbaError> {
    ensure_point_capacity(runs.len(), horizon)?;
    for run in runs {
        if run.states.len() as u32 != horizon + 1 {
            return Err(EbaError::InvalidInput(format!(
                "run horizon mismatch: got {} states, expected horizon {} + 1",
                run.states.len(),
                horizon
            )));
        }
    }
    let n = ex.params().n();
    let mut store = RunStore::new(n, horizon);
    for run in runs {
        store.push_run(run)?;
    }
    let classes = (0..n)
        .map(|i| lay_out(classes_from_runs(runs, horizon, i), &store, i))
        .collect();
    InterpretedSystem::from_classes(ex, store, classes)
}

/// Places each of agent `i`'s classes at the span of its one `StateId`.
fn lay_out<E: InformationExchange>(
    mut classes: Vec<Vec<PointId>>,
    store: &RunStore<E>,
    i: usize,
) -> AgentClasses {
    let ids = store.node_state_ids(i);
    let id_of = |class: &Vec<PointId>| ids[class[0] as usize].index();
    classes.sort_unstable_by_key(id_of);
    let mut starts = vec![0u32; store.distinct_states() + 1];
    for class in &classes {
        let id = id_of(class);
        assert!(
            starts[id + 1] == 0 && class.iter().all(|p| ids[*p as usize].index() == id),
            "agent {i}: a hash-grouped class is not exactly the points of state id {id}"
        );
        starts[id + 1] = class.len() as u32;
    }
    for sid in 0..store.distinct_states() {
        starts[sid + 1] += starts[sid];
    }
    let nodes = classes.concat();
    AgentClasses { nodes, starts }
}

/// The classifier over a collected run vector: group agent `i`'s points
/// by local state via hash-sort, then split hash-equal spans by exact
/// equality. Each state is hashed exactly once, and hash-equal spans are
/// grouped by a single linear bucket walk. Each class is ascending.
fn classes_from_runs<E: InformationExchange>(
    runs: &[EnumRun<E>],
    horizon: u32,
    i: usize,
) -> Vec<Vec<PointId>> {
    let per_run = horizon as usize + 1;
    let mut hashed: Vec<(u64, PointId)> = Vec::with_capacity(runs.len() * per_run);
    for (r, run) in runs.iter().enumerate() {
        for (m, row) in run.states.iter().enumerate() {
            let mut h = DefaultHasher::new();
            row[i].hash(&mut h);
            hashed.push((h.finish(), (r * per_run + m) as PointId));
        }
    }
    hashed.sort_unstable();
    let state_of = |pid: PointId| &runs[pid as usize / per_run].states[pid as usize % per_run][i];
    let mut classes = Vec::new();
    for span in hashed.chunk_by(|a, b| a.0 == b.0) {
        // Group the (almost always single-state) span in one linear walk
        // over per-state buckets.
        let mut buckets: Vec<Vec<PointId>> = Vec::with_capacity(1);
        'points: for &(_, pid) in span {
            for bucket in &mut buckets {
                if state_of(bucket[0]) == state_of(pid) {
                    bucket.push(pid);
                    continue 'points;
                }
            }
            buckets.push(vec![pid]);
        }
        classes.append(&mut buckets);
    }
    classes
}
