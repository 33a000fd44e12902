//! Property-based codec tests: every message any exchange can produce
//! survives an encode/decode roundtrip, including communication graphs
//! from arbitrary lossy schedules.

use eba_core::exchange::{initial_states, step_round, FipMsg, InformationExchange};
use eba_core::prelude::*;
use eba_transport::{FipCodec, WireCodec};
use proptest::prelude::*;

/// Drives a FIP run from proptest-chosen drops and checks the codec on
/// every graph that appears.
fn roundtrip_fip_run(
    n: usize,
    rounds: u32,
    faulty_bits: u8,
    drop_seeds: &[u64],
    init_bits: u8,
) -> Result<(), TestCaseError> {
    let params = Params::new(n, n - 2).unwrap();
    let ex = FipExchange::new(params);
    let faulty: Vec<usize> = (0..n)
        .filter(|i| faulty_bits & (1 << i) != 0)
        .take(n - 2)
        .collect();
    let dropped = |round: u32, from: usize, to: usize| {
        faulty.contains(&from)
            && drop_seeds.iter().any(|s| {
                (s % rounds as u64) as u32 == round
                    && ((s >> 8) % n as u64) as usize == from
                    && ((s >> 16) % n as u64) as usize == to
            })
    };
    let inits: Vec<Value> = (0..n)
        .map(|i| Value::from_bit((init_bits >> i) & 1))
        .collect();
    let (mut states, mut outgoing, mut next) = (Vec::new(), Vec::new(), Vec::new());
    initial_states(&ex, &inits, &mut states);
    for round in 0..rounds {
        let row = |from: AgentId| {
            let to = (0..n).filter(|&to| dropped(round, from.index(), to));
            to.map(AgentId::new).collect()
        };
        let noop = vec![Action::Noop; n];
        step_round(&ex, &states, &noop, row, &mut outgoing, &mut next);
        std::mem::swap(&mut states, &mut next);
        for s in &states {
            let msg = FipMsg(s.graph.clone());
            let frame = FipCodec.encode(&msg);
            prop_assert_eq!(FipCodec.decode(&frame), msg, "roundtrip at time {}", s.time);
            // Frame size tracks the logical bit count (header + padding).
            let bits = ex.message_bits(&FipMsg(s.graph.clone()));
            prop_assert!((frame.len() as u64) <= 6 + bits.div_ceil(8) + 2);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fip_codec_roundtrips_arbitrary_runs(
        n in 3usize..7,
        faulty_bits in any::<u8>(),
        drop_seeds in proptest::collection::vec(any::<u64>(), 0..16),
        init_bits in any::<u8>(),
    ) {
        roundtrip_fip_run(n, 3, faulty_bits, &drop_seeds, init_bits)?;
    }
}
