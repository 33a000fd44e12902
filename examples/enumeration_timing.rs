//! Times sequential vs sharded exhaustive enumeration on the largest
//! instance the tier-1 suite exhausts (`E_fip/P_opt`, n = 3, t = 1,
//! horizon 4 — ~10⁵ deduplicated runs), verifies they agree, and then
//! spec-checks the same context through a streaming `RunSink` (no
//! collected `Vec` at all).
//!
//! ```text
//! cargo run --release --example enumeration_timing
//! ```

use std::time::Instant;

use eba::prelude::*;

fn main() {
    let params = Params::new(3, 1).unwrap();
    let ctx = Context::fip(params);
    let scenario = Scenario::of(&ctx).horizon(4);

    let t0 = Instant::now();
    let sequential = scenario.enumerate().unwrap();
    let sequential_time = t0.elapsed();
    println!(
        "sequential:        {} runs in {sequential_time:.2?}",
        sequential.len()
    );

    for parallelism in [
        Parallelism::Fixed(2),
        Parallelism::Fixed(4),
        Parallelism::Auto,
    ] {
        let t0 = Instant::now();
        let parallel = scenario
            .clone()
            .parallelism(parallelism)
            .enumerate()
            .unwrap();
        let elapsed = t0.elapsed();
        assert_eq!(sequential.len(), parallel.len());
        assert!(
            sequential
                .iter()
                .zip(&parallel)
                .all(|(s, p)| s.nonfaulty == p.nonfaulty && s.states == p.states),
            "parallel output must be bit-for-bit identical"
        );
        println!(
            "{:<18} {} runs in {elapsed:.2?} ({:.2}x, identical output)",
            format!("{parallelism:?}:"),
            parallel.len(),
            sequential_time.as_secs_f64() / elapsed.as_secs_f64()
        );
    }
    println!(
        "(workers resolved by Auto on this machine: {})",
        Parallelism::Auto.worker_count()
    );

    // Streaming: fold the EBA spec over every run through a sink — same
    // deterministic order, but nothing retains the ~10⁵ trajectories.
    let t0 = Instant::now();
    let mut decided_everywhere = 0usize;
    let total = scenario
        .parallelism(Parallelism::Auto)
        .enumerate_into(&mut |run: EnumRun<FipExchange>| {
            let last = run.states.last().expect("nonempty");
            if run
                .nonfaulty
                .iter()
                .all(|a| ctx.exchange().decided(&last[a.index()]).is_some())
            {
                decided_everywhere += 1;
            }
            Ok(())
        })
        .unwrap();
    println!(
        "streamed (sink):   {total} runs folded in {:.2?}; nonfaulty all decided in {decided_everywhere}",
        t0.elapsed()
    );
    assert_eq!(total, sequential.len());
    assert_eq!(decided_everywhere, total, "Termination on every run");
}
