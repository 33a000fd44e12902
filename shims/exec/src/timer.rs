//! The timer reactor: one lazily started thread holding a deadline heap;
//! expired deadlines wake their registered waker.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::future::Future;
use std::pin::Pin;
use std::sync::{Condvar, Mutex, OnceLock};
use std::task::{Context, Poll, Waker};
use std::time::{Duration, Instant};

struct ReactorState {
    /// Min-heap of (deadline, timer id). Cancelled entries are detected
    /// lazily: an id absent from `wakers` is skipped when it surfaces,
    /// or swept by `cancel` once such entries are the majority.
    heap: BinaryHeap<Reverse<(Instant, u64)>>,
    wakers: HashMap<u64, Waker>,
    next_id: u64,
}

struct Reactor {
    state: Mutex<ReactorState>,
    changed: Condvar,
}

impl Reactor {
    fn global() -> &'static Reactor {
        static REACTOR: OnceLock<&'static Reactor> = OnceLock::new();
        REACTOR.get_or_init(|| {
            let reactor: &'static Reactor = Box::leak(Box::new(Reactor {
                state: Mutex::new(ReactorState {
                    heap: BinaryHeap::new(),
                    wakers: HashMap::new(),
                    next_id: 0,
                }),
                changed: Condvar::new(),
            }));
            std::thread::Builder::new()
                .name("exec-timer".into())
                .spawn(move || reactor.run())
                .expect("spawning the timer reactor thread");
            reactor
        })
    }

    fn run(&self) {
        let mut state = self.state.lock().unwrap();
        loop {
            let now = Instant::now();
            // Fire everything due, collecting wakers to invoke outside
            // the lock.
            let mut due = Vec::new();
            while let Some(&Reverse((deadline, id))) = state.heap.peek() {
                if deadline > now {
                    break;
                }
                state.heap.pop();
                if let Some(waker) = state.wakers.remove(&id) {
                    due.push(waker);
                }
            }
            if !due.is_empty() {
                drop(state);
                for waker in due {
                    waker.wake();
                }
                state = self.state.lock().unwrap();
                continue;
            }
            state = match state.heap.peek() {
                Some(&Reverse((deadline, _))) => {
                    let wait = deadline.saturating_duration_since(now);
                    self.changed.wait_timeout(state, wait).unwrap().0
                }
                None => self.changed.wait(state).unwrap(),
            };
        }
    }

    fn register(&self, deadline: Instant, waker: Waker) -> u64 {
        let mut state = self.state.lock().unwrap();
        let id = state.next_id;
        state.next_id += 1;
        // The reactor thread sleeps until the earliest deadline, so it
        // needs a nudge only when this one is earlier still. A caller
        // that arms one far-off timeout per wait (the service driver)
        // would otherwise wake this thread once per wait, for nothing.
        let earlier = state
            .heap
            .peek()
            .is_none_or(|&Reverse((first, _))| deadline < first);
        state.heap.push(Reverse((deadline, id)));
        state.wakers.insert(id, waker);
        drop(state);
        if earlier {
            self.changed.notify_one();
        }
        id
    }

    fn update_waker(&self, id: u64, waker: &Waker) {
        let mut state = self.state.lock().unwrap();
        if let Some(slot) = state.wakers.get_mut(&id) {
            slot.clone_from(waker);
        }
    }

    fn cancel(&self, id: u64) {
        // The heap entry is left in place and skipped when it surfaces —
        // or swept here once cancelled entries outnumber the live ones,
        // so a caller that arms and cancels a far-off timeout per wait
        // keeps the heap at a few dozen entries instead of growing it
        // (and waking this thread per stale entry) for the whole timeout.
        let mut state = self.state.lock().unwrap();
        state.wakers.remove(&id);
        if state.heap.len() > 2 * state.wakers.len() + 64 {
            let ReactorState { heap, wakers, .. } = &mut *state;
            heap.retain(|Reverse((_, id))| wakers.contains_key(id));
        }
    }
}

/// Future of [`sleep`] / [`sleep_until`]: resolves once its deadline has
/// passed. Dropping it cancels the timer.
#[derive(Debug)]
pub struct Sleep {
    deadline: Instant,
    id: Option<u64>,
}

impl Future for Sleep {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if Instant::now() >= self.deadline {
            if let Some(id) = self.id.take() {
                Reactor::global().cancel(id);
            }
            return Poll::Ready(());
        }
        match self.id {
            Some(id) => Reactor::global().update_waker(id, cx.waker()),
            None => {
                self.id = Some(Reactor::global().register(self.deadline, cx.waker().clone()));
            }
        }
        Poll::Pending
    }
}

impl Drop for Sleep {
    fn drop(&mut self) {
        if let Some(id) = self.id.take() {
            Reactor::global().cancel(id);
        }
    }
}

/// Resolves after `duration` has elapsed.
pub fn sleep(duration: Duration) -> Sleep {
    sleep_until(Instant::now() + duration)
}

/// Resolves once `deadline` has passed.
pub fn sleep_until(deadline: Instant) -> Sleep {
    Sleep { deadline, id: None }
}

/// Error returned by [`timeout`] when the deadline fires before the inner
/// future completes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Elapsed;

impl std::fmt::Display for Elapsed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("deadline elapsed")
    }
}

impl std::error::Error for Elapsed {}

/// Future of [`timeout`]: the inner future's output, or [`Elapsed`].
#[derive(Debug)]
pub struct Timeout<F> {
    future: F,
    sleep: Sleep,
}

impl<F: Future> Future for Timeout<F> {
    type Output = Result<F::Output, Elapsed>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        // SAFETY: structural pinning of both fields; neither is moved.
        let this = unsafe { self.get_unchecked_mut() };
        let future = unsafe { Pin::new_unchecked(&mut this.future) };
        if let Poll::Ready(value) = future.poll(cx) {
            return Poll::Ready(Ok(value));
        }
        match Pin::new(&mut this.sleep).poll(cx) {
            Poll::Ready(()) => Poll::Ready(Err(Elapsed)),
            Poll::Pending => Poll::Pending,
        }
    }
}

/// Runs `future` against a deadline `duration` from now; yields
/// `Err(Elapsed)` if the deadline fires first.
pub fn timeout<F: Future>(duration: Duration, future: F) -> Timeout<F> {
    Timeout {
        future,
        sleep: sleep(duration),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{block_on, Executor};

    #[test]
    fn sleep_waits_at_least_the_duration() {
        let start = Instant::now();
        block_on(sleep(Duration::from_millis(20)));
        assert!(start.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn timers_fire_in_deadline_order_across_tasks() {
        let pool = Executor::new(2);
        let t0 = Instant::now();
        let slow = pool.spawn(async move {
            sleep(Duration::from_millis(40)).await;
            t0.elapsed()
        });
        let fast = pool.spawn(async move {
            sleep(Duration::from_millis(5)).await;
            t0.elapsed()
        });
        let (slow, fast) = (block_on(slow), block_on(fast));
        assert!(fast < slow, "fast={fast:?} slow={slow:?}");
    }

    #[test]
    fn timeout_passes_through_a_prompt_future() {
        let value = block_on(timeout(Duration::from_millis(100), async { 5 }));
        assert_eq!(value, Ok(5));
    }

    #[test]
    fn cancelled_timeouts_do_not_pile_up_in_the_heap() {
        // Arm a far-off timeout (one pending poll) and drop it, the way a
        // driver waiting on a mailbox does once per wait.
        let mut cx = Context::from_waker(Waker::noop());
        for _ in 0..10_000 {
            let armed = timeout(Duration::from_secs(3600), std::future::pending::<()>());
            assert!(std::pin::pin!(armed).poll(&mut cx).is_pending());
        }
        let state = Reactor::global().state.lock().unwrap();
        assert!(
            state.heap.len() <= 2 * state.wakers.len() + 65,
            "{} heap entries for {} live timers",
            state.heap.len(),
            state.wakers.len()
        );
    }

    #[test]
    fn timeout_fires_on_a_stuck_future() {
        let result = block_on(timeout(
            Duration::from_millis(10),
            std::future::pending::<()>(),
        ));
        assert_eq!(result, Err(Elapsed));
    }
}
