//! Sharded enumeration is a drop-in replacement for sequential
//! enumeration: on a grid of small `(n, t)` instances and several worker
//! counts, `Scenario::enumerate` under `Parallelism::Fixed(k)` must return
//! the **same runs in the same order** as under `Parallelism::Sequential`,
//! and every run must receive the same EBA verdict.

use eba::core::exchange::InformationExchange;
use eba::core::protocols::ActionProtocol;
use eba::prelude::*;
use std::any::Any;
use std::hash::{Hash, Hasher};

/// The per-run verdict compared across enumerations: whether the run
/// satisfies the EBA spec (`judge_run`).
fn eba_verdict<E: InformationExchange>(ex: &E, run: &EnumRun<E>) -> bool {
    judge_run(ex, run.nonfaulty, &run.inits, &run.states, &run.actions).is_ok()
}

/// Asserts run-count, order, trajectory, and verdict equality between
/// sequential and sharded enumeration of one stack.
fn assert_identical<E, P>(ctx: &Context<E, P>, horizon: u32, label: &str)
where
    E: InformationExchange + Sync,
    P: ActionProtocol<E> + Sync,
{
    let ex = ctx.exchange();
    let sequential = Scenario::of(ctx)
        .horizon(horizon)
        .enumerate()
        .expect("sequential");
    for workers in [2usize, 4, 16] {
        let parallel = Scenario::of(ctx)
            .horizon(horizon)
            .parallelism(Parallelism::Fixed(workers))
            .enumerate()
            .expect("parallel");
        assert_eq!(
            sequential.len(),
            parallel.len(),
            "{label}: run count with {workers} workers"
        );
        for (i, (s, p)) in sequential.iter().zip(&parallel).enumerate() {
            assert_eq!(s.nonfaulty, p.nonfaulty, "{label}: run {i} nonfaulty set");
            assert_eq!(s.inits, p.inits, "{label}: run {i} inits");
            assert_eq!(s.states, p.states, "{label}: run {i} trajectory");
            assert_eq!(s.actions, p.actions, "{label}: run {i} actions");
            assert_eq!(
                eba_verdict(ex, s),
                eba_verdict(ex, p),
                "{label}: run {i} verdict"
            );
        }
    }
}

#[test]
fn pmin_parallel_equals_sequential_on_nt_grid() {
    for (n, t) in [(2, 1), (3, 0), (3, 1), (4, 1), (4, 2)] {
        let params = Params::new(n, t).unwrap();
        assert_identical(
            &Context::minimal(params),
            params.default_horizon(),
            &format!("P_min n={n} t={t}"),
        );
    }
}

#[test]
fn pbasic_parallel_equals_sequential_on_nt_grid() {
    for (n, t) in [(3, 1), (4, 1)] {
        let params = Params::new(n, t).unwrap();
        assert_identical(
            &Context::basic(params),
            params.default_horizon(),
            &format!("P_basic n={n} t={t}"),
        );
    }
}

#[test]
fn popt_parallel_equals_sequential() {
    // The FIP branches hardest (every agent sends every round), so keep
    // the instance small; it still covers thousands of runs.
    let params = Params::new(3, 1).unwrap();
    assert_identical(&Context::fip(params), 3, "P_opt n=3 t=1");
}

#[test]
fn parallel_all_verdicts_pass_for_correct_protocols() {
    // Sanity on top of equality: the paper's protocols are correct on
    // every enumerated run, so every verdict must be positive.
    let ctx = Context::minimal(Params::new(3, 1).unwrap());
    let runs = Scenario::of(&ctx)
        .parallelism(Parallelism::Fixed(4))
        .enumerate()
        .unwrap();
    assert!(!runs.is_empty());
    for run in &runs {
        assert!(
            eba_verdict(ctx.exchange(), run),
            "violation in N = {}",
            run.nonfaulty
        );
    }
}

/// FNV-1a over whatever `Hash` feeds it. Hand-rolled because the pinned
/// digests below must not move with the standard library's
/// `DefaultHasher`; they do assume a 64-bit little-endian host (`Hash`
/// writes lengths as native `usize`s).
struct Fnv1a(u64);

impl Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for byte in bytes {
            self.0 = (self.0 ^ u64::from(*byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Feeds `E_fip` states to `hasher` label by label, read through the
/// graph's accessors: the derived `Hash` of a [`CommGraph`] follows its
/// memory layout, and a digest that pins the run stream must not.
fn hash_fip_states(states: &[Vec<FipState>], hasher: &mut Fnv1a) {
    for s in states.iter().flatten() {
        (s.time, s.init, s.decided).hash(hasher);
        let g = &s.graph;
        for agent in AgentId::all(g.n()) {
            g.pref(agent).hash(hasher);
        }
        for round in 1..=g.time() {
            for from in AgentId::all(g.n()) {
                for to in AgentId::all(g.n()) {
                    g.edge(round, from, to).hash(hasher);
                }
            }
        }
    }
}

/// Run count and order-sensitive digest of one stack's run stream:
/// `nonfaulty, inits, states, actions` of every run, in emission order
/// (`E_fip` states through [`hash_fip_states`], every other stack's
/// through their derived `Hash`).
struct StreamDigest {
    horizon: u32,
    parallelism: Parallelism,
}

impl StackVisitor for StreamDigest {
    type Output = (usize, u64);

    fn visit<E, P>(self, ctx: &Context<E, P>) -> Self::Output
    where
        E: InformationExchange + Clone + Sync + 'static,
        P: ActionProtocol<E> + Clone + Sync + 'static,
    {
        let mut hasher = Fnv1a(0xcbf2_9ce4_8422_2325);
        let runs = Scenario::of(ctx)
            .horizon(self.horizon)
            .parallelism(self.parallelism)
            .enumerate_into(&mut |run: EnumRun<E>| {
                run.nonfaulty.bits().hash(&mut hasher);
                run.inits.hash(&mut hasher);
                match (&run.states as &dyn Any).downcast_ref::<Vec<Vec<FipState>>>() {
                    Some(fip) => hash_fip_states(fip, &mut hasher),
                    None => run.states.hash(&mut hasher),
                }
                run.actions.hash(&mut hasher);
                Ok(())
            })
            .expect("enumerable");
        (runs, hasher.finish())
    }
}

/// `(stack, n, runs, digest)` at `t = 1`, horizon 4, recorded on the
/// commit before the enumerator's DFS was rewritten (PR 21's parent,
/// release build, sequential). Equality with the sequential stream is
/// not enough to protect the emission order — a rewrite that reorders
/// both passes that — so the order itself is pinned here. The two
/// `E_fip` rows were re-recorded on PR 23's parent, still on the
/// label-per-byte graph, when their states moved to [`hash_fip_states`].
const PINNED_STREAMS: [(&str, usize, usize, u64); 22] = [
    ("E_min/P_min@failure_free", 3, 8, 0xe712fee7a5a15054),
    ("E_min/P_min@crash", 3, 74, 0x241bc18610dada84),
    ("E_min/P_min", 3, 74, 0x241bc18610dada84),
    ("E_min/P_min@general_omission", 3, 272, 0x63edd69e8cbdd8e5),
    ("E_min/P_min@failure_free", 4, 16, 0xdaf8a8319694cb65),
    ("E_min/P_min@crash", 4, 200, 0x7092fe6f363ce625),
    ("E_min/P_min", 4, 200, 0x7092fe6f363ce625),
    ("E_min/P_min@general_omission", 4, 1296, 0xc3d27f3a8cc9f4a5),
    ("E_basic/P_basic@failure_free", 3, 8, 0xabfb5b91dbb64207),
    ("E_basic/P_basic@crash", 3, 95, 0x8a5d3512973f5b88),
    ("E_basic/P_basic", 3, 158, 0xf1ff0c7a64e7358c),
    (
        "E_basic/P_basic@general_omission",
        3,
        3260,
        0x52b36c0aebbf8156,
    ),
    ("E_basic/P_basic@failure_free", 4, 16, 0x269fa8364e3ffd25),
    ("E_basic/P_basic@crash", 4, 260, 0x80e3d0ded1e6e67a),
    ("E_basic/P_basic", 4, 440, 0x1356af0c6f3225c5),
    (
        "E_basic/P_basic@general_omission",
        4,
        17392,
        0x82613e9fb55882c5,
    ),
    ("E_fip/P_opt@crash", 3, 704, 0xe4fe7f6e6a715dc5),
    ("E_fip/P_opt", 3, 98312, 0x0340856293d1ea05),
    ("E_naive/P_naive@failure_free", 3, 8, 0x8379c137e682ff9f),
    ("E_naive/P_naive@crash", 3, 41, 0x991aa8cb85665c26),
    ("E_naive/P_naive", 3, 68, 0x4b5d119f156a00a1),
    (
        "E_naive/P_naive@general_omission",
        3,
        104,
        0x9fd458d266a5f27c,
    ),
];

#[test]
fn run_stream_order_is_pinned_for_every_worker_count() {
    let mut actual = String::new();
    let mut moved = Vec::new();
    for (name, n, runs, digest) in PINNED_STREAMS {
        let stack = NamedStack::by_name(name, Params::new(n, 1).unwrap()).unwrap();
        for parallelism in [
            Parallelism::Sequential,
            Parallelism::Fixed(2),
            Parallelism::Fixed(16),
        ] {
            let got = stack.visit(StreamDigest {
                horizon: 4,
                parallelism,
            });
            if parallelism == Parallelism::Sequential {
                actual += &format!("    ({name:?}, {n}, {}, {:#018x}),\n", got.0, got.1);
            }
            if got != (runs, digest) {
                moved.push(format!("{name} n={n} {parallelism:?}"));
            }
        }
    }
    assert!(
        moved.is_empty(),
        "run streams moved: {moved:?}\nsequential streams now read:\n{actual}"
    );
}
