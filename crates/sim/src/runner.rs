//! The run kernel: the one loop that executes a run of a context against
//! a failure pattern, following the global-transition semantics of
//! Section 3 — and [`Parallelism::for_each_ordered`], the one ordered
//! parallel map that the batch engines (exhaustive enumeration, Monte
//! Carlo estimation) run their independent work items on.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

use eba_core::context::{validate_scenario_shape, Context, MAX_HORIZON};
use eba_core::exchange::{choose_actions, initial_states, step_round, InformationExchange};
use eba_core::failures::FailurePattern;
use eba_core::protocols::ActionProtocol;
use eba_core::types::{Action, EbaError, Value};

use crate::enumerate::EnumRun;

/// How much hardware parallelism batch work (exhaustive run enumeration,
/// Monte Carlo estimation) may use. A single simulated run is always
/// sequential — rounds are causally ordered — so this only affects APIs
/// that process many independent runs, such as
/// [`Scenario::enumerate`](crate::scenario::Scenario::enumerate); they all
/// run on [`Parallelism::for_each_ordered`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Parallelism {
    /// Everything on the calling thread (the default).
    #[default]
    Sequential,
    /// One worker per available hardware thread.
    Auto,
    /// Exactly this many workers (`0` is treated as `1`).
    Fixed(usize),
}

impl Parallelism {
    /// The number of worker threads this setting resolves to on the
    /// current machine — always at least 1; in particular, `Fixed(0)`
    /// resolves to 1.
    #[must_use]
    pub fn worker_count(self) -> usize {
        match self {
            Parallelism::Sequential => 1,
            Parallelism::Auto => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            Parallelism::Fixed(k) => k.max(1),
        }
    }

    /// Feeds `produce(0)`, …, `produce(count - 1)` to `consume` in index
    /// order and stops at its first error: the result is that of
    /// `(0..count).map(produce).try_for_each(consume)`, which is what one
    /// worker runs, inline. With more, scoped threads produce the items
    /// and the calling thread consumes them. A thread claims the lowest
    /// unclaimed index once it lies within `2 × workers` items past the
    /// last one `consume` took, and a finished item waits in its slot
    /// until every earlier one is taken, so the items in flight never
    /// outgrow that window. A panic in `produce` or `consume` stops the
    /// window and is re-raised on the calling thread.
    pub fn for_each_ordered<T: Send, E>(
        self,
        count: usize,
        produce: impl Fn(usize) -> T + Sync,
        consume: impl FnMut(T) -> Result<(), E>,
    ) -> Result<(), E> {
        let workers = self.worker_count().min(count);
        if workers <= 1 {
            return (0..count).map(produce).try_for_each(consume);
        }
        let window = Window::new(WINDOW_PER_WORKER * workers);
        std::thread::scope(|scope| {
            let producers: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let _stop = StopOnPanic(&window);
                        while let Some(idx) = window.claim(count) {
                            window.deposit(idx, produce(idx));
                        }
                    })
                })
                .collect();
            let _stop = StopOnPanic(&window);
            // The window runs dry only when a producer panicked.
            let result = (0..count)
                .map_while(|_| window.take_next())
                .try_for_each(consume);
            window.stop();
            for producer in producers {
                if let Err(panic) = producer.join() {
                    std::panic::resume_unwind(panic);
                }
            }
            result
        })
    }
}

/// Window slots per worker: enough slack that a worker which finishes
/// early has a next item to start while a slow neighbour holds the
/// window's low end, small enough that the window stays a handful of
/// items.
const WINDOW_PER_WORKER: usize = 2;

/// The bounded reorder buffer of [`Parallelism::for_each_ordered`]:
/// producers claim indices in order, but only inside
/// `undelivered..undelivered + slots.len()`, and park a finished item in
/// the slot `idx % slots.len()` until the consumer has taken every
/// earlier one.
struct Window<T> {
    state: Mutex<WindowState<T>>,
    changed: Condvar,
}

struct WindowState<T> {
    /// The lowest index no producer has claimed.
    unclaimed: usize,
    /// The lowest index the consumer has not taken.
    undelivered: usize,
    slots: Vec<Option<T>>,
    /// Set when the consumer is done (finished or failed) or any thread
    /// panicked: nobody waits or claims past it.
    stopped: bool,
}

impl<T> Window<T> {
    fn new(size: usize) -> Self {
        Window {
            state: Mutex::new(WindowState {
                unclaimed: 0,
                undelivered: 0,
                slots: (0..size).map(|_| None).collect(),
                stopped: false,
            }),
            changed: Condvar::new(),
        }
    }

    /// The state is a few counters updated in single assignments, valid
    /// at every step, so a poisoned lock (a panic elsewhere, already on
    /// its way out through the scope) is still safe to read and stop.
    fn lock(&self) -> MutexGuard<'_, WindowState<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Locks the state once it is `ready` or the window stopped.
    fn wait_until(
        &self,
        mut ready: impl FnMut(&WindowState<T>) -> bool,
    ) -> MutexGuard<'_, WindowState<T>> {
        let blocked = |state: &mut WindowState<T>| !state.stopped && !ready(state);
        self.changed
            .wait_while(self.lock(), blocked)
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Claims the lowest unclaimed of `count` indices once it is inside
    /// the window; `None` when all are claimed or the window stopped.
    fn claim(&self, count: usize) -> Option<usize> {
        let mut state = self
            .wait_until(|s| s.unclaimed >= count || s.unclaimed < s.undelivered + s.slots.len());
        if state.stopped || state.unclaimed >= count {
            return None;
        }
        state.unclaimed += 1;
        Some(state.unclaimed - 1)
    }

    fn deposit(&self, idx: usize, item: T) {
        let mut state = self.lock();
        let size = state.slots.len();
        // Losing an item here would silently drop it from the stream.
        assert!(
            (state.undelivered..state.undelivered + size).contains(&idx),
            "item {idx} finished outside the window"
        );
        state.slots[idx % size] = Some(item);
        self.changed.notify_all();
    }

    /// Blocks until the next item in index order is there and takes it,
    /// which moves the window up by one; `None` once the window stopped.
    fn take_next(&self) -> Option<T> {
        let mut state = self.wait_until(|s| s.slots[s.undelivered % s.slots.len()].is_some());
        let slot = state.undelivered % state.slots.len();
        let item = state.slots[slot].take()?;
        state.undelivered += 1;
        self.changed.notify_all();
        Some(item)
    }

    fn stop(&self) {
        self.lock().stopped = true;
        self.changed.notify_all();
    }
}

/// Stops the window when its thread unwinds, so a panic on either side
/// is re-raised instead of leaving the other threads parked on the
/// window forever.
struct StopOnPanic<'a, T>(&'a Window<T>);

impl<T> Drop for StopOnPanic<'_, T> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.stop();
        }
    }
}

/// The buffers one lockstep run steps in, owned by the caller and
/// reused run after run: [`step_rounds`] fills them round by round, and
/// its observer reads them — or takes the rows it keeps, which the loop
/// then refills in fresh allocations.
pub struct RoundBuffers<E: InformationExchange> {
    /// The global state: the initial one, then after each round its
    /// successor.
    pub states: Vec<E::State>,
    /// The global state the round just stepped started from.
    pub previous: Vec<E::State>,
    /// The actions chosen in the round just stepped.
    pub actions: Vec<Action>,
    /// The round's broadcasts.
    outgoing: Vec<Option<E::Message>>,
}

impl<E: InformationExchange> Default for RoundBuffers<E> {
    fn default() -> Self {
        RoundBuffers {
            states: Vec::new(),
            previous: Vec::new(),
            actions: Vec::new(),
            outgoing: Vec::new(),
        }
    }
}

/// Steps one run of `ctx` for `horizon` rounds in `buffers`, and hands
/// each round to `observe(m, buffers)` once it is stepped: `previous`
/// holds the global state at time `m`, `actions` what was chosen in
/// round `m + 1`, and `states` the state at time `m + 1`. Each round
/// applies, in order: the action protocol (`P_i(s_i)`), message
/// selection (`μ_i`), the failure pattern (`F(m, i, j)`, one row per
/// sender), and the state update (`δ_i`) — exactly the global transition
/// of Section 3, through the shared [`step_round`] routine.
///
/// This is the only loop over the rounds of a lockstep run in the
/// workspace: [`run_rounds`] is it with an observer that records the
/// run, and the statistical estimator's trials are it with one that
/// judges the EBA spec as the run steps. It checks the input shapes only
/// ([`validate_scenario_shape`], O(1), which also refuses a horizon
/// above [`MAX_HORIZON`]); whether the context's failure model admits
/// the pattern is the caller's business (`Scenario` checks it, the
/// estimator samples admissible patterns).
///
/// # Errors
///
/// Returns [`EbaError::InvalidInput`] if `inits.len() != n`, the pattern
/// was built for different parameters, or the horizon is too long.
pub fn step_rounds<E, P>(
    ctx: &Context<E, P>,
    pattern: &FailurePattern,
    inits: &[Value],
    horizon: u32,
    buffers: &mut RoundBuffers<E>,
    mut observe: impl FnMut(u32, &mut RoundBuffers<E>),
) -> Result<(), EbaError>
where
    E: InformationExchange,
    P: ActionProtocol<E>,
{
    let (ex, proto) = (ctx.exchange(), ctx.protocol());
    validate_scenario_shape(ctx.params(), pattern, inits, horizon)?;
    initial_states(ex, inits, &mut buffers.states);
    for m in 0..horizon {
        let b = &mut *buffers;
        choose_actions(proto, &b.states, &mut b.actions);
        let (dropped, next) = (|from| pattern.dropped(m, from), &mut b.previous);
        step_round(ex, &b.states, &b.actions, dropped, &mut b.outgoing, next);
        std::mem::swap(&mut b.states, &mut b.previous);
        observe(m, b);
    }
    Ok(())
}

/// Executes one run of `ctx` for `horizon` rounds and returns it:
/// [`step_rounds`], keeping each round's rows. The run it returns is the
/// one run record; decisions, traffic
/// ([`Metrics::of`](crate::metrics::Metrics::of)) and 0-chains
/// ([`crate::chains`]) are views computed from it and its pattern.
/// [`Scenario::run`](crate::scenario::Scenario::run) drives it.
///
/// # Errors
///
/// As [`step_rounds`].
pub fn run_rounds<E, P>(
    ctx: &Context<E, P>,
    pattern: &FailurePattern,
    inits: &[Value],
    horizon: u32,
) -> Result<EnumRun<E>, EbaError>
where
    E: InformationExchange,
    P: ActionProtocol<E>,
{
    // Sized before the shape check: a horizon past the cap is refused
    // by `step_rounds`, not allocated for.
    let rounds = horizon.min(MAX_HORIZON) as usize;
    let mut states = Vec::with_capacity(rounds + 1);
    let mut actions = Vec::with_capacity(rounds);
    let mut buffers = RoundBuffers::default();
    step_rounds(ctx, pattern, inits, horizon, &mut buffers, |_, b| {
        states.push(std::mem::take(&mut b.previous));
        actions.push(std::mem::take(&mut b.actions));
    })?;
    states.push(buffers.states);
    Ok(EnumRun {
        nonfaulty: pattern.nonfaulty(),
        inits: inits.to_vec(),
        states,
        actions,
    })
}

#[cfg(test)]
mod tests {
    use super::Parallelism;
    use crate::chains::zero_chain_ending_at;
    use crate::enumerate::EnumRun;
    use crate::metrics::Metrics;
    use crate::scenario::Scenario;
    use eba_core::prelude::*;
    use std::sync::{mpsc, Mutex};

    fn params() -> Params {
        Params::new(4, 1).unwrap()
    }

    /// One `E_min/P_min` run at the default horizon.
    fn run_min(
        pattern: &FailurePattern,
        inits: &[Value],
    ) -> Result<EnumRun<MinExchange>, EbaError> {
        Scenario::of(&Context::minimal(params()))
            .pattern(pattern.clone())
            .inits(inits)
            .run()
    }

    /// The traffic of an `E_min` run under `pattern`.
    fn traffic(run: &EnumRun<MinExchange>, pattern: &FailurePattern) -> Metrics {
        Metrics::of(&MinExchange::new(params()), run, pattern)
    }

    #[test]
    fn rejects_wrong_init_length() {
        let pat = FailurePattern::failure_free(params());
        let err = run_min(&pat, &[Value::One; 3]).unwrap_err();
        // The message names the argument and the expected length, in the
        // same format as the pattern-mismatch error.
        let msg = err.to_string();
        assert!(msg.contains("inits: got 3"), "{msg}");
        assert!(msg.contains("(expected n = 4)"), "{msg}");
    }

    #[test]
    fn reports_all_shape_errors_at_once() {
        let other = Params::new(5, 1).unwrap();
        let pat = FailurePattern::failure_free(other);
        let err = run_min(&pat, &[Value::One; 3]).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("inits: got 3"), "{msg}");
        assert!(msg.contains("pattern: got a pattern built for"), "{msg}");
    }

    #[test]
    fn rejects_mismatched_pattern() {
        // The kernel's own O(1) shape check, without the builder in front.
        let ctx = Context::minimal(params());
        let other = FailurePattern::failure_free(Params::new(5, 1).unwrap());
        let err = super::run_rounds(&ctx, &other, &[Value::One; 4], 4).unwrap_err();
        assert!(
            err.to_string().contains("pattern: got a pattern built for"),
            "{err}"
        );
    }

    #[test]
    fn pmin_failure_free_all_ones_decides_at_deadline() {
        // Prop 8.2(b): P_min waits until round t + 2.
        let pat = FailurePattern::failure_free(params());
        let run = run_min(&pat, &[Value::One; 4]).unwrap();
        for i in 0..4 {
            assert_eq!(run.decision_round(AgentId::new(i)), Some(3)); // t + 2
            assert_eq!(run.decision_value(AgentId::new(i)), Some(Value::One));
        }
    }

    #[test]
    fn pmin_zero_spreads_in_two_rounds() {
        // Prop 8.2(a).
        let pat = FailurePattern::failure_free(params());
        let inits = [Value::Zero, Value::One, Value::One, Value::One];
        let run = run_min(&pat, &inits).unwrap();
        assert_eq!(run.decision_round(AgentId::new(0)), Some(1));
        for i in 1..4 {
            assert_eq!(run.decision_round(AgentId::new(i)), Some(2));
            assert_eq!(run.decision_value(AgentId::new(i)), Some(Value::Zero));
        }
    }

    #[test]
    fn pmin_bit_count_is_n_squared() {
        // Prop 8.1: every agent broadcasts exactly one 1-bit message round.
        let pat = FailurePattern::failure_free(params());
        for inits in [[Value::One; 4], [Value::Zero; 4]] {
            let metrics = traffic(&run_min(&pat, &inits).unwrap(), &pat);
            assert_eq!(metrics.bits_sent, 16, "n² bits");
            assert_eq!(metrics.messages_sent, 16);
        }
    }

    #[test]
    fn deliveries_respect_the_pattern() {
        let a = AgentId::new;
        let faulty = AgentSet::singleton(a(0));
        let mut pat = FailurePattern::new(params(), faulty.complement(4)).unwrap();
        // Agent 0 has init 0, decides round 1, but its announcement reaches
        // only agent 1.
        for to in 2..4 {
            pat.drop_message(0, a(0), a(to)).unwrap();
        }
        pat.drop_message(0, a(0), a(0)).unwrap();
        let inits = [Value::Zero, Value::One, Value::One, Value::One];
        let run = run_min(&pat, &inits).unwrap();
        // Agent 1 hears the 0 and decides in round 2; 2 and 3 only hear
        // agent 1's announcement and decide in round 3.
        assert_eq!(run.decision_round(a(1)), Some(2));
        assert_eq!(run.decision_round(a(2)), Some(3));
        assert_eq!(run.decision_value(a(3)), Some(Value::Zero));
        // Round 1 delivers a0's Decide(0)-class message to a1 alone, so
        // every 0-chain but a0's own runs through a1.
        let ex = MinExchange::new(params());
        assert_eq!(
            zero_chain_ending_at(&ex, &run, &pat, a(1)),
            Some(vec![a(0), a(1)])
        );
        for i in 2..4 {
            let chain = zero_chain_ending_at(&ex, &run, &pat, a(i));
            assert_eq!(chain, Some(vec![a(0), a(1), a(i)]));
        }
        // Of a0's four round-1 sends, one arrives.
        let metrics = traffic(&run, &pat);
        assert_eq!(metrics.messages_sent - metrics.messages_delivered, 3);
    }

    #[test]
    fn delivered_bits_exclude_drops() {
        let faulty = AgentSet::singleton(AgentId::new(0));
        let mut pat = FailurePattern::new(params(), faulty.complement(4)).unwrap();
        pat.silence_agent(AgentId::new(0), 0..4, true).unwrap();
        let inits = [Value::Zero, Value::One, Value::One, Value::One];
        let metrics = traffic(&run_min(&pat, &inits).unwrap(), &pat);
        // Agent 0's 4 sent bits never arrive.
        assert_eq!(metrics.bits_sent - metrics.bits_delivered, 4);
    }

    #[test]
    fn horizon_override() {
        let run = Scenario::of(&Context::minimal(params()))
            .inits(&[Value::One; 4])
            .horizon(6)
            .run()
            .unwrap();
        assert_eq!(run.horizon(), 6);
        assert_eq!(run.states.len(), 7);
    }

    /// Maps 64 items on 4 workers, a window of 8, calling `produce` and
    /// `consume` with each index. Returns the result, the order `consume`
    /// saw, the items started and the most items ever started but not
    /// yet returned from `consume`: the window plus the item the sink
    /// holds.
    fn ordered(
        produce: impl Fn(usize) + Sync,
        mut consume: impl FnMut(usize) -> Result<(), EbaError>,
    ) -> (Result<(), EbaError>, Vec<usize>, usize, usize) {
        // (started, returned from `consume`, most started but not returned)
        let counts = Mutex::new((0, 0, 0));
        let mut order = Vec::new();
        let result = Parallelism::Fixed(4).for_each_ordered(
            64,
            |idx| {
                {
                    let (started, returned, high_water) = &mut *counts.lock().unwrap();
                    *started += 1;
                    *high_water = (*started - *returned).max(*high_water);
                }
                produce(idx);
                idx
            },
            |idx| {
                order.push(idx);
                let result = consume(idx);
                counts.lock().unwrap().1 += 1;
                result
            },
        );
        let (started, _, high_water) = counts.into_inner().unwrap();
        (result, order, started, high_water)
    }

    #[test]
    fn ordered_map_bounds_the_items_in_flight() {
        // Skewed items and a slow sink, forced with channels: item 0 does
        // not finish before items 1..8 — all the window admits — have
        // started, and the sink does not return from item 0 before item
        // 8 — admitted by taking item 0 — has. So the producers do run
        // into the window, and must never get past it.
        let (early_tx, early_rx) = mpsc::channel();
        let (late_tx, late_rx) = mpsc::channel();
        let early_rx = Mutex::new(early_rx);
        let (result, order, _, high_water) = ordered(
            |idx| match idx {
                0 => (0..7).for_each(|_| early_rx.lock().unwrap().recv().unwrap()),
                1..=7 => early_tx.send(()).unwrap(),
                8 => late_tx.send(()).unwrap(),
                _ => {}
            },
            |idx| {
                if idx == 0 {
                    late_rx.recv().unwrap();
                }
                Ok(())
            },
        );
        result.unwrap();
        assert_eq!(order, (0..64).collect::<Vec<_>>());
        assert_eq!(
            high_water,
            2 * 4 + 1,
            "the window is reached, never exceeded"
        );
    }

    #[test]
    fn ordered_map_stops_within_one_window_of_a_sink_error() {
        let (result, order, started, high_water) = ordered(
            |_| {},
            |idx| match idx {
                3 => Err(EbaError::InvalidInput("sink aborted".into())),
                _ => Ok(()),
            },
        );
        assert!(result.unwrap_err().to_string().contains("sink aborted"));
        assert_eq!(order, [0, 1, 2, 3]);
        assert!(high_water <= 2 * 4 + 1);
        // Items 0..=3 were taken, so at most 4..12 were ever admitted.
        assert!(started <= 12, "{started} items started");
    }

    #[test]
    #[should_panic(expected = "sink panicked")]
    fn ordered_map_reraises_a_panicking_sink() {
        // The workers parked on the full window must be released, or the
        // scope never joins and the panic never surfaces.
        let _ = ordered(|_| {}, |_| panic!("sink panicked"));
    }

    #[test]
    #[should_panic(expected = "produce panicked")]
    fn ordered_map_reraises_a_panicking_producer() {
        // The sink waiting on the panicked item must be released, and the
        // producer's own panic, not the scope's, must surface.
        let _ = ordered(|idx| assert_ne!(idx, 5, "produce panicked"), |_| Ok(()));
    }

    #[test]
    fn fip_popt_runs_through_the_runner() {
        let run = Scenario::of(&Context::fip(params()))
            .inits(&[Value::One; 4])
            .run()
            .unwrap();
        for i in 0..4 {
            assert_eq!(run.decision_round(AgentId::new(i)), Some(2));
        }
    }
}
