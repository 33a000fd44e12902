//! Prop 8.1's message accounting is a view of the run: [`Metrics::of`]
//! replays the round kernel's selection over a recorded run and must
//! agree with a hand count of the same run — every non-`⊥` broadcast is
//! `n` sends, recipient by recipient, and one delivery wherever the
//! pattern delivers, and nothing else is.

use eba_core::prelude::*;
use eba_sim::prelude::*;
use proptest::prelude::*;

fn inits_from_bits(n: usize, bits: u64) -> Vec<Value> {
    (0..n)
        .map(|i| Value::from_bit(((bits >> i) & 1) as u8))
        .collect()
}

/// Runs a stack through `round` under `pattern`, then checks the run's
/// [`Metrics::of`] against the hand count.
struct BroadcastContract<'a> {
    pattern: &'a FailurePattern,
    inits: &'a [Value],
    round: u32,
}

impl StackVisitor for BroadcastContract<'_> {
    type Output = Result<(), TestCaseError>;

    fn visit<E, P>(self, ctx: &Context<E, P>) -> Self::Output
    where
        E: InformationExchange + Clone + Sync + 'static,
        P: ActionProtocol<E> + Clone + Sync + 'static,
    {
        let (ex, pattern) = (ctx.exchange(), self.pattern);
        let run = run_rounds(ctx, pattern, self.inits, self.round + 1).unwrap();
        let agents = || AgentId::all(self.inits.len());
        let (mut hand, mut said) = (Metrics::default(), None);
        for (m, (states, actions)) in run.states.iter().zip(&run.actions).enumerate() {
            for from in agents() {
                ex.broadcast(
                    from,
                    &states[from.index()],
                    actions[from.index()],
                    &mut said,
                );
                let Some(msg) = &said else { continue };
                let bits = ex.message_bits(msg);
                for to in agents() {
                    hand.messages_sent += 1;
                    hand.bits_sent += bits;
                    if pattern.delivers(m as u32, from, to) {
                        hand.messages_delivered += 1;
                        hand.bits_delivered += bits;
                    }
                }
            }
        }
        prop_assert_eq!(Metrics::of(ex, &run, pattern), hand, "{}", ctx.name());
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn a_broadcast_is_n_sends_and_a_delivery_where_the_pattern_delivers(
        stack in 0usize..4,
        model in 0usize..4,
        round in 0u32..3,
        seed in any::<u64>(),
        bits in any::<u64>(),
    ) {
        use rand::SeedableRng;
        let params = Params::new(4, 1).unwrap();
        let model = FailureModel::by_name(MODEL_NAMES[model]).unwrap();
        let name = format!("{}{}", STACK_NAMES[stack], model.suffix());
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let pattern = AdversarySampler::new(model, params, 3, 0.35).sample(&mut rng);
        NamedStack::by_name(&name, params).unwrap().visit(BroadcastContract {
            pattern: &pattern,
            inits: &inits_from_bits(4, bits),
            round,
        })?;
    }
}
