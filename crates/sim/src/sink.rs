//! Streaming consumers for exhaustive run enumeration.
//!
//! Collecting an enumeration into a `Vec<EnumRun<E>>` makes peak memory
//! proportional to the *total* number of runs —
//! ~100k trajectories for the full `E_fip/P_opt` `(3, 1)` context. Most
//! consumers (spec checking, metrics aggregation, dominance sweeps) only
//! *fold* over the runs, so [`RunSink`] lets them receive each run as it
//! is produced and drop it immediately: peak memory falls from the whole
//! run set to a few work items (`(N, inits)` shards of the search space)
//! held as prefix trees of interned state ids, plus the one run being
//! consumed.
//!
//! `Vec<EnumRun<E>>` itself is a sink (it collects), so is any
//! `FnMut(EnumRun<E>) -> Result<(), EbaError>` closure, and so is the
//! interning [`RunStore`](crate::store::RunStore) (it deduplicates states
//! into an arena as runs arrive); ad-hoc folds need no wrapper type:
//!
//! ```
//! use eba_core::prelude::*;
//! use eba_sim::prelude::*;
//!
//! # fn main() -> Result<(), EbaError> {
//! let ctx = Context::minimal(Params::new(3, 1)?);
//! // Count decided agents at the horizon without keeping any run alive.
//! let mut decided = 0usize;
//! let total = Scenario::of(&ctx)
//!     .horizon(4)
//!     .enumerate_into(&mut |run: EnumRun<MinExchange>| {
//!         let last = run.states.last().expect("nonempty");
//!         decided += last
//!             .iter()
//!             .filter(|s| ctx.exchange().decided(s).is_some())
//!             .count();
//!         Ok(())
//!     })?;
//! assert!(total > 0 && decided > 0);
//! # Ok(())
//! # }
//! ```

use eba_core::exchange::InformationExchange;
use eba_core::types::EbaError;

use crate::enumerate::{EnumRun, ItemRuns};

/// A streaming consumer of enumerated runs.
///
/// [`Scenario::enumerate_into`](crate::scenario::Scenario::enumerate_into)
/// feeds every run of the context to the sink **in the deterministic
/// enumeration order** (the order
/// [`Scenario::enumerate`](crate::scenario::Scenario::enumerate) returns
/// them in), even when the search is sharded across threads.
///
/// Returning an error from [`accept`](RunSink::accept) aborts the
/// enumeration and propagates the error; the sink may by then have
/// received an arbitrary prefix of the run set.
pub trait RunSink<E: InformationExchange> {
    /// Consumes one enumerated run.
    ///
    /// # Errors
    ///
    /// Any error aborts the enumeration and is propagated to the caller.
    fn accept(&mut self, run: EnumRun<E>) -> Result<(), EbaError>;

    /// Consumes the runs of one finished work item, in order. This is the
    /// method the engine calls; by default it materialises the runs one
    /// at a time and hands each to [`accept`](RunSink::accept). A sink
    /// that stores ids rather than states
    /// ([`RunStore`](crate::store::RunStore)) overrides it to take the
    /// item's tree of ids as it is.
    ///
    /// # Errors
    ///
    /// Any error aborts the enumeration and is propagated to the caller.
    fn accept_item(&mut self, item: ItemRuns<E>) -> Result<(), EbaError> {
        item.into_runs().try_for_each(|run| self.accept(run))
    }
}

/// Collecting sink: `Vec` gathers every run.
impl<E: InformationExchange> RunSink<E> for Vec<EnumRun<E>> {
    fn accept(&mut self, run: EnumRun<E>) -> Result<(), EbaError> {
        self.push(run);
        Ok(())
    }
}

/// Closure sink: any `FnMut(EnumRun<E>) -> Result<(), EbaError>` folds
/// over the stream without a wrapper type.
impl<E, F> RunSink<E> for F
where
    E: InformationExchange,
    F: FnMut(EnumRun<E>) -> Result<(), EbaError>,
{
    fn accept(&mut self, run: EnumRun<E>) -> Result<(), EbaError> {
        self(run)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;
    use eba_core::prelude::*;

    #[test]
    fn vec_sink_reproduces_enumerate_runs() {
        let ctx = Context::minimal(Params::new(3, 1).unwrap());
        let scenario = Scenario::of(&ctx).horizon(4).limit(100_000);
        let enumerated = scenario.enumerate().unwrap();
        let mut collected = Vec::new();
        let total = scenario.enumerate_into(&mut collected).unwrap();
        assert_eq!(total, enumerated.len());
        assert_eq!(collected.len(), enumerated.len());
        for (a, b) in collected.iter().zip(&enumerated) {
            assert_eq!(a.states, b.states);
        }
    }

    #[test]
    fn closure_sink_errors_abort_the_enumeration() {
        let ctx = Context::minimal(Params::new(3, 1).unwrap());
        let mut seen = 0usize;
        let err = Scenario::of(&ctx)
            .horizon(4)
            .enumerate_into(&mut |_run: EnumRun<MinExchange>| {
                seen += 1;
                if seen == 5 {
                    Err(EbaError::InvalidInput("sink full".into()))
                } else {
                    Ok(())
                }
            })
            .unwrap_err();
        assert!(err.to_string().contains("sink full"));
        assert_eq!(seen, 5);
    }
}
