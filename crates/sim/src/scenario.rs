//! The [`Scenario`] builder: one fluent entry point for running and
//! exhaustively enumerating a context.
//!
//! `Scenario` is a builder over a first-class [`Context`]: configure what
//! differs from the defaults, then [`run`](Scenario::run),
//! [`enumerate`](Scenario::enumerate), or stream with
//! [`enumerate_into`](Scenario::enumerate_into).
//!
//! Validation is [`admit_scenario`], the admission check shared with the
//! transport cluster and the service, so errors report **every** problem
//! at once, each naming the offending argument. The failure model is the
//! context's: it judges the pattern given to [`run`](Scenario::run) and
//! picks the adversary choices the enumeration explores; run a stack
//! under another model through [`Context::with_model`].

use eba_core::context::{admit_scenario, error_message, Context};
use eba_core::exchange::InformationExchange;
use eba_core::failures::FailurePattern;
use eba_core::protocols::ActionProtocol;
use eba_core::types::{EbaError, Value};

use crate::enumerate::{stream_runs, EnumRun};
use crate::runner::{run_rounds, Parallelism};
use crate::sink::RunSink;
use crate::store::RunStore;

/// Default run limit for exhaustive enumeration (same ballpark the test
/// suites use; override with [`Scenario::limit`]).
const DEFAULT_ENUM_LIMIT: usize = 10_000_000;

/// A configured execution of a context: which failure pattern, which
/// initial preferences, how many rounds, how much hardware.
///
/// Build one with [`Scenario::of`], override what you need, and finish
/// with [`run`](Scenario::run) (a single run),
/// [`enumerate`](Scenario::enumerate) (all runs of the context), or
/// [`enumerate_into`](Scenario::enumerate_into) (stream all runs through
/// a [`RunSink`] without collecting them).
///
/// ```
/// use eba_core::prelude::*;
/// use eba_sim::prelude::*;
///
/// # fn main() -> Result<(), EbaError> {
/// let ctx = Context::basic(Params::new(4, 1)?);
/// let run = Scenario::of(&ctx).inits(&[Value::One; 4]).run()?;
/// check_eba(ctx.exchange(), &run).expect("EBA holds");
/// // Prop 8.2(b): everyone decides 1 in round 2 with P_basic.
/// assert_eq!(run.max_decision_round(AgentSet::full(4)), Some(2));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct Scenario<'c, E, P> {
    ctx: &'c Context<E, P>,
    pattern: Option<FailurePattern>,
    inits: Option<Vec<Value>>,
    horizon: Option<u32>,
    parallelism: Parallelism,
    limit: usize,
}

impl<'c, E, P> Scenario<'c, E, P>
where
    E: InformationExchange,
    P: ActionProtocol<E>,
{
    /// Starts a scenario over `ctx` with the defaults: the failure-free
    /// pattern, no initial preferences yet (set [`inits`](Scenario::inits)
    /// before [`run`](Scenario::run)), the context's default horizon, and
    /// sequential execution.
    #[must_use]
    pub fn of(ctx: &'c Context<E, P>) -> Self {
        Scenario {
            ctx,
            pattern: None,
            inits: None,
            horizon: None,
            parallelism: Parallelism::Sequential,
            limit: DEFAULT_ENUM_LIMIT,
        }
    }

    /// Sets the failure pattern (defaults to failure-free). The pattern
    /// must be admissible under the context's failure model — e.g. a
    /// [`silent_pattern`](eba_core::failures::silent_pattern) is rejected
    /// under `FailureModel::FailureFree`.
    #[must_use]
    pub fn pattern(mut self, pattern: FailurePattern) -> Self {
        self.pattern = Some(pattern);
        self
    }

    /// Sets the initial preferences (required by [`run`](Scenario::run);
    /// ignored by the enumeration entry points, which cover every initial
    /// configuration).
    #[must_use]
    pub fn inits(mut self, inits: &[Value]) -> Self {
        self.inits = Some(inits.to_vec());
        self
    }

    /// Overrides the horizon (defaults to `params.default_horizon()`,
    /// i.e. `t + 3`).
    #[must_use]
    pub fn horizon(mut self, rounds: u32) -> Self {
        self.horizon = Some(rounds);
        self
    }

    /// Sets the hardware parallelism for the enumeration entry points
    /// (defaults to [`Parallelism::Sequential`]; a single
    /// [`run`](Scenario::run) is always sequential).
    #[must_use]
    pub fn parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Sets the deduplicated-run limit for the enumeration entry points
    /// (defaults to 10 million).
    #[must_use]
    pub fn limit(mut self, limit: usize) -> Self {
        self.limit = limit;
        self
    }

    /// Validates everything [`run`](Scenario::run) relies on, reporting
    /// **all** violations at once: missing or wrong-length initial
    /// preferences, a failure pattern built for different parameters, and
    /// a pattern the context's failure model does not admit through the
    /// whole horizon (see [`admit_scenario`]).
    ///
    /// # Errors
    ///
    /// Returns [`EbaError::InvalidInput`] listing every problem,
    /// `; `-separated, each naming the offending builder argument.
    pub fn validate(&self) -> Result<(), EbaError> {
        self.validate_with(&self.effective_pattern())
    }

    /// [`validate`](Scenario::validate) against an already-materialized
    /// pattern, so callers that need the pattern afterwards build it once.
    fn validate_with(&self, pattern: &FailurePattern) -> Result<(), EbaError> {
        let params = self.ctx.params();
        let admit = |inits: &[Value]| {
            admit_scenario(
                params,
                self.ctx.model(),
                pattern,
                inits,
                self.effective_horizon(),
            )
        };
        match &self.inits {
            Some(inits) => admit(inits),
            None => {
                let mut problems = vec![format!(
                    "inits: not set (expected n = {} initial preferences)",
                    params.n()
                )];
                if let Err(e) = admit(&vec![Value::One; params.n()]) {
                    problems.push(error_message(&e));
                }
                Err(EbaError::InvalidInput(problems.join("; ")))
            }
        }
    }

    /// Executes one run of the scenario on the calling thread and returns
    /// it: the same record the enumerator yields, whose decisions,
    /// traffic ([`Metrics::of`](crate::metrics::Metrics::of)) and
    /// 0-chains ([`crate::chains`]) are views of the run and the
    /// scenario's pattern.
    ///
    /// # Errors
    ///
    /// Returns [`EbaError::InvalidInput`] (via [`validate`](Scenario::validate))
    /// listing every problem if the inputs disagree with the context's
    /// parameters or failure model, or the horizon exceeds
    /// [`MAX_HORIZON`](eba_core::context::MAX_HORIZON).
    pub fn run(&self) -> Result<EnumRun<E>, EbaError> {
        let pattern = self.effective_pattern();
        self.validate_with(&pattern)?;
        let inits = self.inits.as_ref().expect("validated above");
        run_rounds(self.ctx, &pattern, inits, self.effective_horizon())
    }

    /// Collects every run of the context up to the horizon, deduplicated
    /// by `(N, trajectory)`, in the deterministic order described in
    /// [`crate::enumerate`] whatever the [`parallelism`](Scenario::parallelism).
    ///
    /// # Errors
    ///
    /// Returns [`EbaError::InvalidInput`] if a round branches too widely
    /// to enumerate or the deduplicated run count exceeds the limit.
    pub fn enumerate(&self) -> Result<Vec<EnumRun<E>>, EbaError>
    where
        E: Sync,
        P: Sync,
    {
        let mut runs = Vec::new();
        self.enumerate_into(&mut runs)?;
        Ok(runs)
    }

    /// Streams every run of the context through `sink` in deterministic
    /// enumeration order without collecting them, returning the number of
    /// runs delivered: the sink sees exactly the runs
    /// [`enumerate`](Scenario::enumerate) would return, in the same
    /// order, but nothing retains them — spec checks, metric folds, and
    /// dominance sweeps run in `O(work item)` memory instead of `O(runs)`.
    ///
    /// ```
    /// use eba_core::prelude::*;
    /// use eba_sim::prelude::*;
    ///
    /// # fn main() -> Result<(), EbaError> {
    /// let ctx = Context::minimal(Params::new(3, 0)?);
    /// let mut count = 0usize;
    /// let total = Scenario::of(&ctx)
    ///     .horizon(3)
    ///     .enumerate_into(&mut |_run: EnumRun<MinExchange>| {
    ///         count += 1;
    ///         Ok(())
    ///     })?;
    /// assert_eq!((count, total), (8, 8)); // 2^3 initial configurations
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// Fails exactly when [`enumerate`](Scenario::enumerate) fails, and
    /// additionally propagates any error the sink returns; on error the
    /// sink may have received a prefix of the run set.
    pub fn enumerate_into<S>(&self, sink: &mut S) -> Result<usize, EbaError>
    where
        E: Sync,
        P: Sync,
        S: RunSink<E>,
    {
        stream_runs(
            self.ctx,
            self.effective_horizon(),
            self.limit,
            self.parallelism,
            sink,
        )
    }

    /// Streams every run of the context into an interned [`RunStore`] —
    /// the arena-feeding face of
    /// [`enumerate_into`](Scenario::enumerate_into): each work item
    /// arrives as its prefix tree's records and only its distinct states
    /// are interned, so peak memory is the arena of distinct states plus
    /// the node table, never the run vector.
    ///
    /// This is what `InterpretedSystem::from_context` builds on in
    /// `eba-epistemic`.
    ///
    /// # Errors
    ///
    /// Fails exactly when [`enumerate`](Scenario::enumerate) fails, or
    /// when the run set overflows the store's `u32` point-id space.
    pub fn enumerate_store(&self) -> Result<RunStore<E>, EbaError>
    where
        E: Sync,
        P: Sync,
    {
        let mut store = RunStore::new(self.ctx.params().n(), self.effective_horizon());
        self.enumerate_into(&mut store)?;
        Ok(store)
    }

    fn effective_pattern(&self) -> FailurePattern {
        self.pattern
            .clone()
            .unwrap_or_else(|| FailurePattern::failure_free(self.ctx.params()))
    }

    fn effective_horizon(&self) -> u32 {
        self.horizon
            .unwrap_or_else(|| self.ctx.params().default_horizon())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Metrics;
    use eba_core::context::MAX_HORIZON;
    use eba_core::prelude::*;

    fn params() -> Params {
        Params::new(4, 1).unwrap()
    }

    #[test]
    fn default_pattern_is_failure_free() {
        let ctx = Context::minimal(params());
        let run = Scenario::of(&ctx).inits(&[Value::One; 4]).run().unwrap();
        assert_eq!(run.nonfaulty, AgentSet::full(4));
    }

    #[test]
    fn validation_reports_every_problem_at_once() {
        let ctx = Context::minimal(params());
        let foreign = FailurePattern::failure_free(Params::new(6, 2).unwrap());
        let err = Scenario::of(&ctx)
            .pattern(foreign)
            .inits(&[Value::One; 2])
            .run()
            .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("inits: got 2"), "{msg}");
        assert!(msg.contains("expected n = 4"), "{msg}");
        assert!(msg.contains("pattern: got a pattern built for"), "{msg}");
    }

    #[test]
    fn missing_inits_is_reported_alongside_pattern_mismatch() {
        let ctx = Context::minimal(params());
        let foreign = FailurePattern::failure_free(Params::new(6, 2).unwrap());
        let err = Scenario::of(&ctx).pattern(foreign).validate().unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("inits: not set"), "{msg}");
        assert!(msg.contains("pattern: got a pattern built for"), "{msg}");
    }

    #[test]
    fn horizon_and_deliveries_flow_through() {
        let ctx = Context::minimal(params());
        let scenario = Scenario::of(&ctx).inits(&[Value::One; 4]).horizon(6);
        let run = scenario.run().unwrap();
        assert_eq!(run.horizon(), 6);
        // All 16 messages are sent, and arrive, in the round everyone
        // decides (t + 2 = 3): nobody speaks in any other.
        let metrics = Metrics::of(ctx.exchange(), &run, &scenario.effective_pattern());
        assert_eq!(
            (metrics.messages_sent, metrics.messages_delivered),
            (16, 16)
        );
        assert_eq!(run.decisions().0, [Some(3); 4]);
    }

    #[test]
    fn a_horizon_past_the_cap_is_refused_before_running() {
        let ctx = Context::minimal(params());
        let scenario = Scenario::of(&ctx).inits(&[Value::One; 4]);
        let err = scenario.clone().horizon(u32::MAX).run().unwrap_err();
        assert!(err.to_string().contains("horizon: got 4294967295"), "{err}");
        let err = scenario
            .clone()
            .horizon(MAX_HORIZON + 1)
            .validate()
            .unwrap_err();
        assert!(err.to_string().contains("MAX_HORIZON"), "{err}");
        assert_eq!(
            scenario.horizon(MAX_HORIZON).run().unwrap().horizon(),
            MAX_HORIZON
        );
    }

    #[test]
    fn enumerate_into_counts_what_enumerate_collects() {
        let ctx = Context::minimal(Params::new(3, 1).unwrap());
        let collected = Scenario::of(&ctx).enumerate().unwrap();
        let mut count = 0usize;
        let total = Scenario::of(&ctx)
            .enumerate_into(&mut |_run: EnumRun<MinExchange>| {
                count += 1;
                Ok(())
            })
            .unwrap();
        assert_eq!(total, collected.len());
        assert_eq!(count, collected.len());
    }

    #[test]
    fn limit_is_enforced() {
        let ctx = Context::minimal(Params::new(3, 1).unwrap());
        let err = Scenario::of(&ctx).limit(10).enumerate().unwrap_err();
        assert!(err.to_string().contains("limit"));
    }
}
