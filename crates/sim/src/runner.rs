//! [`run_rounds`], the kernel's one loop over a run's rounds
//! ([`step_rounds`]) over the lockstep channel, recording the run — and
//! [`Parallelism::for_each_ordered`], the one ordered parallel map that
//! the batch engines (exhaustive enumeration, Monte Carlo estimation,
//! service sessions) run their independent work items on.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

use eba_core::context::{Context, MAX_HORIZON};
use eba_core::exchange::{lockstep, step_rounds, InformationExchange, RoundBuffers};
use eba_core::failures::FailurePattern;
use eba_core::protocols::ActionProtocol;
use eba_core::types::{EbaError, Value};

use crate::enumerate::EnumRun;

/// How much hardware parallelism batch work (run enumeration, Monte Carlo
/// estimation, service sessions) may use. A single simulated run is always
/// sequential — rounds are causally ordered — so this only affects APIs
/// that process many independent runs, such as
/// [`Scenario::enumerate`](crate::scenario::Scenario::enumerate); they all
/// run on [`Parallelism::for_each_ordered`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Parallelism {
    /// Everything on the calling thread (the default).
    #[default]
    Sequential,
    /// One thread per available hardware thread, the calling one included.
    Auto,
    /// Exactly this many threads, the calling one included (`0` is `1`).
    Fixed(usize),
}

impl Parallelism {
    /// The threads this setting resolves to on this machine, the calling
    /// one included: always at least 1, so `Fixed(0)` resolves to 1.
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

    /// [`for_each_ordered_within`](Self::for_each_ordered_within) a window
    /// of two items per thread, plus two: slack for a thread that finishes
    /// early while a slow one, the caller too, holds the window's low end.
    pub fn for_each_ordered<T: Send, E>(
        self,
        count: usize,
        produce: impl Fn(usize) -> T + Sync,
        consume: impl FnMut(T) -> Result<(), E>,
    ) -> Result<(), E> {
        let window = 2 * (self.worker_count() + 1);
        self.for_each_ordered_within(window, count, produce, consume)
    }

    /// Feeds `produce(0)`, …, `produce(count - 1)` to `consume` in index
    /// order and stops at its first error: the result is that of
    /// `(0..count).map(produce).try_for_each(consume)`, which is what one
    /// thread runs, inline. With more, scoped threads produce the items and
    /// the calling thread consumes them, producing the lowest unclaimed one
    /// itself while the one it waits for is not there. An index is claimed
    /// only within `window` items (at least one) past the last one taken,
    /// and a finished item waits until every earlier one is taken, so the
    /// items in flight never outgrow the window. A panic in `produce` or
    /// `consume` stops the window and is re-raised on the calling thread.
    pub fn for_each_ordered_within<T: Send, E>(
        self,
        window: usize,
        count: usize,
        produce: impl Fn(usize) -> T + Sync,
        consume: impl FnMut(T) -> Result<(), E>,
    ) -> Result<(), E> {
        let threads = self.worker_count().min(count);
        if threads <= 1 {
            return (0..count).map(produce).try_for_each(consume);
        }
        let window = Window::new(window.max(1), count);
        std::thread::scope(|scope| {
            let producers: Vec<_> = (1..threads)
                .map(|_| {
                    scope.spawn(|| {
                        let _stop = StopOnPanic(&window);
                        while let Some(idx) = window.claim() {
                            window.deposit(idx, produce(idx));
                        }
                    })
                })
                .collect();
            let _stop = StopOnPanic(&window);
            // The window runs dry only when a producer panicked.
            let result = (0..count)
                .map_while(|_| window.take_next(&produce))
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

/// The bounded reorder buffer of [`Parallelism::for_each_ordered`]:
/// indices are claimed in order inside `undelivered..undelivered + size`,
/// and an item waits in slot `idx % size` until every earlier one is taken.
struct Window<T> {
    state: Mutex<WindowState<T>>,
    changed: Condvar,
}

type Guard<'a, T> = MutexGuard<'a, WindowState<T>>;

struct WindowState<T> {
    /// The lowest index no thread has claimed.
    unclaimed: usize,
    /// The lowest index the consumer has not taken.
    undelivered: usize,
    /// One past the last index.
    count: usize,
    slots: Vec<Option<T>>,
    /// Set when the consumer is done (finished or failed) or any thread
    /// panicked: nobody waits or claims past it.
    stopped: bool,
    /// Threads blocked on `changed`, notified only if there are any: a
    /// `notify_all` costs as much without a waiter.
    waiting: usize,
}

impl<T> WindowState<T> {
    /// Whether the lowest unclaimed index lies inside the window.
    fn open(&self) -> bool {
        self.unclaimed < self.count.min(self.undelivered + self.slots.len())
    }

    /// Claims the lowest unclaimed index if it is inside the window.
    fn try_claim(&mut self) -> Option<usize> {
        let claimed = self.open() && !self.stopped;
        self.unclaimed += usize::from(claimed);
        claimed.then(|| self.unclaimed - 1)
    }
}

impl<T> Window<T> {
    fn new(size: usize, count: usize) -> Self {
        Window {
            state: Mutex::new(WindowState {
                unclaimed: 0,
                undelivered: 0,
                count,
                slots: (0..size).map(|_| None).collect(),
                stopped: false,
                waiting: 0,
            }),
            changed: Condvar::new(),
        }
    }

    /// The state is a few counters updated in single assignments, valid
    /// at every step, so a poisoned lock (a panic elsewhere, already on
    /// its way out through the scope) is still safe to read and stop.
    fn lock(&self) -> Guard<'_, T> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Locks the state once it is `ready` or the window stopped, counted
    /// as a waiter while it blocks.
    fn wait_until(&self, ready: impl Fn(&WindowState<T>) -> bool) -> Guard<'_, T> {
        let mut state = self.lock();
        while !state.stopped && !ready(&state) {
            state.waiting += 1;
            state = self
                .changed
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
            state.waiting -= 1;
        }
        state
    }

    /// A producer's claim: the lowest unclaimed index, once it is inside
    /// the window; `None` when all are claimed or the window stopped.
    fn claim(&self) -> Option<usize> {
        self.wait_until(|s| s.unclaimed >= s.count || s.open())
            .try_claim()
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
        if state.waiting > 0 {
            self.changed.notify_all();
        }
    }

    /// Takes the next item in index order, which moves the window up by
    /// one. While it is not there, produces the lowest unclaimed index in
    /// the window on this thread, or blocks when every one is claimed;
    /// `None` once the window stopped.
    fn take_next(&self, produce: &impl Fn(usize) -> T) -> Option<T> {
        loop {
            let ready = |s: &WindowState<T>| s.slots[s.undelivered % s.slots.len()].is_some();
            let mut state = self.wait_until(|s| ready(s) || s.open());
            let slot = state.undelivered % state.slots.len();
            if let Some(item) = state.slots[slot].take() {
                state.undelivered += 1;
                if state.waiting > 0 {
                    self.changed.notify_all();
                }
                return Some(item);
            }
            let idx = state.try_claim()?;
            drop(state);
            self.deposit(idx, produce(idx));
        }
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

/// Executes one run of `ctx` for `horizon` rounds and returns it:
/// [`step_rounds`] over the lockstep channel ([`lockstep`]), keeping each
/// round's rows. The run it returns is the
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
    let (channel, mut buffers) = (&mut lockstep(pattern), RoundBuffers::default());
    step_rounds(
        ctx,
        pattern,
        inits,
        horizon,
        channel,
        &mut buffers,
        |_, b| {
            states.push(std::mem::take(&mut b.previous));
            actions.push(std::mem::take(&mut b.actions));
        },
    )?;
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
    use std::time::Duration;

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

    /// Maps 64 items on 4 threads, a window of 10, calling `produce` and
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
        // not finish before items 1..10 — all the window admits — have
        // started, and the sink does not return from item 0 before item
        // 10 — admitted by taking item 0 — has. So the threads, the
        // caller among them, do run into the window, and must never get
        // past it.
        let (early_tx, early_rx) = mpsc::channel();
        let (late_tx, late_rx) = mpsc::channel();
        let early_rx = Mutex::new(early_rx);
        let (result, order, _, high_water) = ordered(
            |idx| match idx {
                0 => (0..9).for_each(|_| early_rx.lock().unwrap().recv().unwrap()),
                1..=9 => early_tx.send(()).unwrap(),
                10 => late_tx.send(()).unwrap(),
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
            2 * (4 + 1) + 1,
            "the window is reached, never exceeded"
        );
    }

    #[test]
    fn the_caller_produces_while_it_waits() {
        // Two threads, the caller and one producer. Item 0 finishes only
        // once item 1 has run, so whichever thread holds item 0, only the
        // other one can run item 1: a caller that only waited for item 0
        // would leave it to time out.
        let (tx, rx) = mpsc::channel();
        let rx = Mutex::new(rx);
        let mut order = Vec::new();
        let result = Parallelism::Fixed(2).for_each_ordered(
            4,
            |idx| {
                match idx {
                    0 => (rx.lock().unwrap().recv_timeout(Duration::from_secs(5)))
                        .expect("item 1 ran while item 0 waited for it"),
                    1 => tx.send(()).unwrap(),
                    _ => {}
                }
                idx
            },
            |idx| {
                order.push(idx);
                Ok::<_, EbaError>(())
            },
        );
        result.unwrap();
        assert_eq!(order, [0, 1, 2, 3]);
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
        assert!(high_water <= 2 * (4 + 1) + 1);
        // Items 0..=3 were taken, so at most 4..14 were ever admitted.
        assert!(started <= 14, "{started} items started");
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
