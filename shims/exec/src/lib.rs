//! Vendored mini async runtime for the EBA workspace.
//!
//! The build environment has no registry access, so — in the spirit of the
//! `rand` and `proptest` shims — this workspace-local crate provides the
//! minimal executor/reactor surface the consensus service (`eba-service`)
//! multiplexes sessions on. Three pieces, all over `std` only:
//!
//! * [`Executor`] — a **fixed worker pool**: `new(workers)` spawns exactly
//!   that many OS threads, [`Executor::spawn`] schedules a future as a
//!   task on the shared run queue, wakers re-enqueue their task, and
//!   [`JoinHandle`] awaits (or, via [`block_on`], blocks on) the result.
//!   Thousands of tasks multiplex over the pool; a task only occupies a
//!   worker while it is actually being polled.
//! * [`sleep`] / [`timeout`] — a lazily started **timer reactor** thread
//!   holding a deadline heap; expired deadlines wake their registered
//!   waker, so timed futures cost no worker while waiting.
//! * [`mailbox`] — a **bounded async MPSC mailbox**:
//!   [`MailboxSender::send`] waits (backpressure) while the mailbox is
//!   full, [`Mailbox::recv`] waits while it is empty, and
//!   [`Mailbox::recv_batch`] drains everything queued in one wakeup; it
//!   has no caller under `crates/` and stays because `bench/` probes it
//!   (`exec.mailbox.batch_msg_ns`, `exec.mailbox.mean_batch`).
//!
//! ```
//! use exec::{block_on, mailbox, Executor};
//!
//! let pool = Executor::new(2);
//! let (tx, mut rx) = mailbox::<u32>(8);
//! let feeder = pool.spawn(async move {
//!     for i in 0..4 {
//!         tx.send(i).await.unwrap();
//!     }
//! });
//! let sum = block_on(async move {
//!     let mut sum = 0;
//!     while let Some(i) = rx.recv().await {
//!         sum += i;
//!     }
//!     sum
//! });
//! block_on(feeder);
//! assert_eq!(sum, 6);
//! ```

mod executor;
mod mailbox;
mod timer;

pub use executor::{block_on, yield_now, Executor, JoinHandle, YieldNow};
pub use mailbox::{
    mailbox, Mailbox, MailboxSender, RecvBatch, RecvFuture, SendError, SendFuture, TrySendError,
};
pub use timer::{sleep, sleep_until, timeout, Elapsed, Sleep, Timeout};
