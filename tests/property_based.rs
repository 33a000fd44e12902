//! Property-based tests (proptest) across the whole stack: random
//! adversaries and random inputs. Whether each engine agrees with the
//! lockstep runner on a case, and the verdicts the paper promises there,
//! are `tests/engines_agree.rs`'s case table.

use eba::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A random instance: parameters, pattern, and inputs from a seed.
fn instance(
    n: usize,
    t: usize,
    drop_prob: f64,
    seed: u64,
    init_bits: u64,
) -> (Params, FailurePattern, Vec<Value>) {
    let params = Params::new(n, t).unwrap();
    let sampler = so_sampler(params, drop_prob);
    let mut rng = StdRng::seed_from_u64(seed);
    let pattern = sampler.sample(&mut rng);
    let inits = (0..n)
        .map(|i| Value::from_bit(((init_bits >> i) & 1) as u8))
        .collect();
    (params, pattern, inits)
}

/// The random sending-omissions adversary over the default horizon.
fn so_sampler(params: Params, drop_prob: f64) -> AdversarySampler {
    AdversarySampler::new(
        FailureModel::SendingOmission,
        params,
        params.default_horizon(),
        drop_prob,
    )
}

/// One run of `ctx` against `pattern` from `inits`, at the default horizon.
fn run_on<E, P>(ctx: &Context<E, P>, pattern: &FailurePattern, inits: &[Value]) -> EnumRun<E>
where
    E: InformationExchange,
    P: ActionProtocol<E>,
{
    Scenario::of(ctx)
        .pattern(pattern.clone())
        .inits(inits)
        .run()
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Corresponding-run sanity: with more information, P_opt never
    /// decides later than P_min for any nonfaulty agent (P_min's decisions
    /// are 0-chains — visible to the FIP too — or the fixed deadline).
    #[test]
    fn popt_pointwise_no_later_than_pmin(
        n in 3usize..6,
        seed in any::<u64>(),
        init_bits in any::<u64>(),
        drop_prob in 0.0f64..0.9,
    ) {
        let t = (n - 1) / 2;
        let (params, pattern, inits) = instance(n, t, drop_prob, seed, init_bits);
        let min_run = run_on(&Context::minimal(params), &pattern, &inits);
        let fip_run = run_on(&Context::fip(params), &pattern, &inits);
        for a in pattern.nonfaulty().iter() {
            let pmin = min_run.decision_round(a).unwrap();
            let popt = fip_run.decision_round(a).unwrap();
            prop_assert!(
                popt <= pmin,
                "{a}: P_opt decided in {popt}, P_min in {pmin}"
            );
        }
    }

    /// Determinism: the same instance always yields the same run.
    #[test]
    fn simulation_is_deterministic(
        seed in any::<u64>(),
        init_bits in any::<u64>(),
    ) {
        let (params, pattern, inits) = instance(5, 2, 0.5, seed, init_bits);
        let ctx = Context::basic(params);
        let a = run_on(&ctx, &pattern, &inits);
        let b = run_on(&ctx, &pattern, &inits);
        prop_assert_eq!(a.states, b.states);
        prop_assert_eq!(a.actions, b.actions);
    }

    /// Metrics bookkeeping: delivered ≤ sent, and they agree exactly on
    /// failure-free runs.
    #[test]
    fn metrics_accounting_is_consistent(
        init_bits in any::<u64>(),
        n in 3usize..8,
    ) {
        let params = Params::new(n, 1).unwrap();
        let inits: Vec<Value> = (0..n)
            .map(|i| Value::from_bit(((init_bits >> i) & 1) as u8))
            .collect();
        let ctx = Context::basic(params);
        let run = Scenario::of(&ctx).inits(&inits).run().unwrap();
        let metrics = Metrics::of(ctx.exchange(), &run, &FailurePattern::failure_free(params));
        prop_assert_eq!(metrics.bits_sent, metrics.bits_delivered);
        prop_assert_eq!(metrics.messages_sent, metrics.messages_delivered);
    }
}

/// Non-proptest: the FIP re-simulation (`d`) matches the actual actions on
/// a batch of random lossy runs — the agreement between the communication
/// graph analysis and ground truth.
#[test]
fn fip_decision_matrix_matches_reality_on_random_runs() {
    use eba::core::graph::FipAnalysis;
    use rand::Rng;
    let params = Params::new(5, 2).unwrap();
    let ctx = Context::fip(params);
    let sampler = so_sampler(params, 0.4);
    let mut rng = StdRng::seed_from_u64(1234);
    for _ in 0..60 {
        let pattern = sampler.sample(&mut rng);
        let bits: u32 = rng.random_range(0..32);
        let inits: Vec<Value> = (0..5)
            .map(|i| Value::from_bit(((bits >> i) & 1) as u8))
            .collect();
        let run = run_on(&ctx, &pattern, &inits);
        // For every agent and time: every in-cone entry of the re-simulated
        // decision matrix equals the action actually taken.
        for observer in params.agents() {
            let state = run.final_state(observer);
            let analysis = FipAnalysis::analyze(&state.graph, params, observer);
            for m in 0..run.horizon() - 1 {
                for j in params.agents() {
                    if let Some(d) = analysis.known_action(j, m) {
                        assert_eq!(
                            d,
                            run.actions[m as usize][j.index()],
                            "observer {observer}, d({j}, {m})"
                        );
                    }
                }
            }
        }
    }
}
