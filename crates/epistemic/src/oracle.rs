//! The reference construction of an interpreted system, kept apart from
//! [`InterpretedSystem`]'s constructors because nothing but tests should
//! call it: `tests/run_store_equivalence.rs` and the in-crate suites build
//! the same system through [`InterpretedSystem::from_context`] (interned
//! arena, one integer sort per agent) and through [`from_runs`] (a
//! collected run vector, hash-then-group over the raw states), and
//! require the class partitions, states and actions to agree exactly.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use eba_core::exchange::InformationExchange;
use eba_core::types::EbaError;
use eba_sim::enumerate::EnumRun;
use eba_sim::store::{ensure_point_capacity, PointId, RunStore};

use crate::system::{AgentClasses, InterpretedSystem};

/// Builds a system from pre-enumerated runs (they must all have the given
/// horizon): classes are computed by a hash-then-group classifier over the
/// collected run vector, independently of the arena sort.
///
/// # Errors
///
/// Returns [`EbaError::InvalidInput`] if some run's trajectory length
/// disagrees with `horizon`, or if `runs.len() * (horizon + 1)` overflows
/// the `u32` point-id space.
pub fn from_runs<E: InformationExchange>(
    ex: E,
    runs: Vec<EnumRun<E>>,
    horizon: u32,
) -> Result<InterpretedSystem<E>, EbaError> {
    ensure_point_capacity(runs.len(), horizon)?;
    for run in &runs {
        if run.states.len() as u32 != horizon + 1 {
            return Err(EbaError::InvalidInput(format!(
                "run horizon mismatch: got {} states, expected horizon {} + 1",
                run.states.len(),
                horizon
            )));
        }
    }
    let n = ex.params().n();
    let classes = classes_from_runs(&runs, horizon, n);
    let mut store = RunStore::new(n, horizon);
    for run in &runs {
        store.push_run(run)?;
    }
    Ok(InterpretedSystem::from_classes(ex, store, classes))
}

/// The classifier over a collected run vector: group points by
/// agent-local state via hash-sort, then split hash-equal spans by exact
/// equality. Each state is hashed exactly once, and hash-equal spans are
/// grouped by a single linear bucket walk.
fn classes_from_runs<E: InformationExchange>(
    runs: &[EnumRun<E>],
    horizon: u32,
    n: usize,
) -> Vec<AgentClasses> {
    let per_run = horizon as usize + 1;
    let point_count = runs.len() * per_run;
    (0..n)
        .map(|i| {
            let mut hashed: Vec<(u64, PointId)> = Vec::with_capacity(point_count);
            for (r, run) in runs.iter().enumerate() {
                for (m, row) in run.states.iter().enumerate() {
                    let mut h = DefaultHasher::new();
                    row[i].hash(&mut h);
                    hashed.push((h.finish(), (r * per_run + m) as PointId));
                }
            }
            hashed.sort_unstable();
            let state_of =
                |pid: PointId| &runs[pid as usize / per_run].states[pid as usize % per_run][i];
            let mut points = Vec::with_capacity(point_count);
            let mut starts = vec![0u32];
            let mut span_start = 0usize;
            while span_start < hashed.len() {
                let hash = hashed[span_start].0;
                let mut span_end = span_start;
                while span_end < hashed.len() && hashed[span_end].0 == hash {
                    span_end += 1;
                }
                // Group the (almost always single-state) span in one
                // linear walk over per-state buckets.
                let mut buckets: Vec<Vec<PointId>> = Vec::with_capacity(1);
                'points: for &(_, pid) in &hashed[span_start..span_end] {
                    for bucket in &mut buckets {
                        if state_of(bucket[0]) == state_of(pid) {
                            bucket.push(pid);
                            continue 'points;
                        }
                    }
                    buckets.push(vec![pid]);
                }
                for bucket in buckets {
                    points.extend_from_slice(&bucket);
                    starts.push(points.len() as u32);
                }
                span_start = span_end;
            }
            AgentClasses { points, starts }
        })
        .collect()
}
