#![warn(missing_docs)]

//! Shared scenario builders for the criterion benches.
//!
//! Each bench in `benches/` regenerates one of the paper's tables/figures
//! (E1–E7) or sweeps the scenario corpus (engineering performance is
//! measured by the repo's benchmark under `bench/`); this little library keeps the scenario construction in one place so the
//! benches measure protocol work, not setup boilerplate. Everything runs
//! through the first-class `Context`/`Scenario` API, so a bench can
//! select any registered stack — model-qualified or not — by name:
//!
//! ```
//! use eba_bench::{run_context, run_stack, silent_scenario};
//! use eba_core::prelude::*;
//!
//! // Example 7.1 at (n, t, k) = (8, 3, 3): P_opt decides in round 3.
//! let (params, pattern, inits) = silent_scenario(8, 3, 3);
//! assert_eq!(run_stack("E_fip/P_opt", params, &pattern, &inits), 3);
//! // The same stack over the crash environment, against a
//! // crash-disciplined adversary.
//! let faulty: AgentSet = (0..3).map(AgentId::new).collect();
//! let crashes = crashed_from_start_pattern(params, faulty, 6).unwrap();
//! let ctx = Context::fip(params).with_model(FailureModel::Crash);
//! assert_eq!(run_context(&ctx, &crashes, &inits), 3);
//! ```

use eba_core::prelude::*;
use eba_sim::prelude::*;

/// Builds the silent-faulty pattern of Example 7.1 for `(n, t, k)`.
pub fn silent_scenario(n: usize, t: usize, k: usize) -> (Params, FailurePattern, Vec<Value>) {
    let params = Params::new(n, t).expect("valid config");
    let silent: AgentSet = (0..k).map(AgentId::new).collect();
    let pattern = silent_pattern(params, silent, params.default_horizon()).expect("k ≤ t");
    (params, pattern, vec![Value::One; n])
}

/// Runs a context on a scenario; returns the max nonfaulty decision round.
pub fn run_context<E, P>(
    ctx: &eba_core::context::Context<E, P>,
    pattern: &FailurePattern,
    inits: &[Value],
) -> u32
where
    E: eba_core::exchange::InformationExchange,
    P: eba_core::protocols::ActionProtocol<E>,
{
    let trace = Scenario::of(ctx)
        .pattern(pattern.clone())
        .inits(inits)
        .run()
        .expect("run");
    trace
        .metrics
        .max_decision_round(pattern.nonfaulty())
        .expect("all decide")
}

/// Runs `P_min` on a scenario; returns the max nonfaulty decision round.
pub fn run_pmin(params: Params, pattern: &FailurePattern, inits: &[Value]) -> u32 {
    run_context(&Context::minimal(params), pattern, inits)
}

/// Runs `P_basic` on a scenario; returns the max nonfaulty decision round.
pub fn run_pbasic(params: Params, pattern: &FailurePattern, inits: &[Value]) -> u32 {
    run_context(&Context::basic(params), pattern, inits)
}

/// Runs `P_opt` on a scenario; returns the max nonfaulty decision round.
pub fn run_popt(params: Params, pattern: &FailurePattern, inits: &[Value]) -> u32 {
    run_context(&Context::fip(params), pattern, inits)
}

/// Runs a registry-selected stack by name on a scenario; returns the max
/// nonfaulty decision round.
pub fn run_stack(name: &str, params: Params, pattern: &FailurePattern, inits: &[Value]) -> u32 {
    struct MaxRound<'a> {
        pattern: &'a FailurePattern,
        inits: &'a [Value],
    }
    impl StackVisitor for MaxRound<'_> {
        type Output = u32;
        fn visit<E, P>(self, ctx: &Context<E, P>) -> u32
        where
            E: eba_core::exchange::InformationExchange + Clone + Sync + 'static,
            P: eba_core::protocols::ActionProtocol<E> + Clone + Sync + 'static,
        {
            run_context(ctx, self.pattern, self.inits)
        }
    }
    NamedStack::by_name(name, params)
        .expect("registered stack")
        .visit(MaxRound { pattern, inits })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_helpers_reproduce_example_7_1() {
        let (params, pattern, inits) = silent_scenario(20, 10, 10);
        assert_eq!(run_pmin(params, &pattern, &inits), 12);
        assert_eq!(run_pbasic(params, &pattern, &inits), 12);
        assert_eq!(run_popt(params, &pattern, &inits), 3);
    }

    #[test]
    fn registry_helpers_agree_with_the_typed_ones() {
        let (params, pattern, inits) = silent_scenario(8, 3, 3);
        assert_eq!(
            run_stack("E_min/P_min", params, &pattern, &inits),
            run_pmin(params, &pattern, &inits)
        );
        assert_eq!(
            run_stack("E_basic/P_basic", params, &pattern, &inits),
            run_pbasic(params, &pattern, &inits)
        );
        assert_eq!(
            run_stack("E_fip/P_opt", params, &pattern, &inits),
            run_popt(params, &pattern, &inits)
        );
    }
}
