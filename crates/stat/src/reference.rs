//! Exact violation probabilities for small instances, used to
//! cross-validate the Monte Carlo estimator.
//!
//! For a given stack and [`TrialPlan`], the sampled trials are i.i.d.
//! draws from a fully explicit mixture: stratum by weight, faulty set
//! uniform among the `C(n, k)` candidates, each admissible drop decided
//! by an independent `Bernoulli(q)` coin (plus, under crashes, a uniform
//! crash round per faulty agent), and each initial preference a fair
//! bit. Nothing about that distribution is approximate — so for small
//! `(n, t)` we can *enumerate* it: walk every faulty set, every drop
//! subset weighted `q^|S| (1 − q)^(D − |S|)`, every crash-round
//! assignment, and every init vector, judge each case with the same
//! [`judge_case`] executor the estimator
//! uses, and sum the probability mass of the violating cases.
//!
//! The result is the exact Bernoulli parameter `p` the estimator is
//! sampling. Cross-validation then demands the estimator's confidence
//! interval contain `p` — the strongest check a statistical checker can
//! face short of a formal proof, and the `--estimate --self-check` CLI
//! mode runs exactly this comparison against the known exhaustive
//! verdicts at `(3, 1)` and `(4, 1)`.

use eba_core::prelude::*;

use crate::estimate::judge_case;
use crate::plan::{Stratum, TrialPlan};

/// Enumeration budget: the number of concrete `(pattern, inits)` cases a
/// single [`exact_violation_probability`] call may judge before giving
/// up. Keeps an accidental `n = 16` reference request from running for
/// geological time.
pub const REFERENCE_BUDGET: u64 = 5_000_000;

/// All `(drop-coin outcomes, probability)` pairs for one stratum's
/// pattern distribution over a fixed faulty set, streamed through `f`.
///
/// `sites` lists the independent drop coins; each subset `S` occurs with
/// probability `q^|S| (1 − q)^(D − |S|)`.
fn for_each_drop_subset<F>(
    params: Params,
    faulty: AgentSet,
    sites: &[(u32, AgentId, AgentId)],
    q: f64,
    f: &mut F,
) -> Result<(), EbaError>
where
    F: FnMut(FailurePattern, f64) -> Result<(), EbaError>,
{
    let d = sites.len();
    assert!(d < 63, "drop-site count {d} out of enumeration range");
    for mask in 0u64..(1u64 << d) {
        let picked = mask.count_ones() as i32;
        let prob = q.powi(picked) * (1.0 - q).powi(d as i32 - picked);
        if prob == 0.0 {
            continue;
        }
        let mut pattern = FailurePattern::new(params, faulty.complement(params.n()))?;
        for (i, &(m, from, to)) in sites.iter().enumerate() {
            if mask & (1 << i) != 0 {
                pattern.drop_message(m, from, to)?;
            }
        }
        f(pattern, prob)?;
    }
    Ok(())
}

/// The independent drop sites of one stratum, mirroring the sampler's
/// coin layout for omission models.
fn drop_sites(
    model: FailureModel,
    params: Params,
    faulty: AgentSet,
    horizon: u32,
) -> Vec<(u32, AgentId, AgentId)> {
    let mut sites = Vec::new();
    for m in 0..horizon {
        match model {
            FailureModel::FailureFree | FailureModel::Crash => {}
            FailureModel::SendingOmission => {
                for from in faulty.iter() {
                    for to in params.agents() {
                        if to != from {
                            sites.push((m, from, to));
                        }
                    }
                }
            }
            FailureModel::GeneralOmission => {
                for from in params.agents() {
                    for to in params.agents() {
                        if from != to && (faulty.contains(from) || faulty.contains(to)) {
                            sites.push((m, from, to));
                        }
                    }
                }
            }
        }
    }
    sites
}

/// Streams every crash-pattern of one stratum over a fixed faulty set:
/// each faulty agent independently draws a uniform crash round in
/// `0..horizon`, drops that round's outgoing messages with probability
/// `q` each, and is silent afterwards — the sampler's exact procedure.
fn for_each_crash_pattern<F>(
    params: Params,
    faulty: AgentSet,
    horizon: u32,
    q: f64,
    f: &mut F,
) -> Result<(), EbaError>
where
    F: FnMut(FailurePattern, f64) -> Result<(), EbaError>,
{
    let agents: Vec<AgentId> = faulty.iter().collect();
    let round_prob = 1.0 / horizon as f64;
    // Odometer over per-agent crash rounds.
    let mut rounds = vec![0u32; agents.len()];
    loop {
        // For this crash-round assignment, the per-agent crash-round
        // drops are independent coins over that round's messages.
        let mut sites = Vec::new();
        for (a, &cr) in agents.iter().zip(&rounds) {
            for to in params.agents() {
                if to != *a {
                    sites.push((cr, *a, to));
                }
            }
        }
        let assignment_prob = round_prob.powi(agents.len() as i32);
        for_each_drop_subset(params, faulty, &sites, q, &mut |mut pattern, prob| {
            for (a, &cr) in agents.iter().zip(&rounds) {
                if cr + 1 < horizon {
                    pattern.silence_agent(*a, cr + 1..horizon, true)?;
                }
            }
            f(pattern, assignment_prob * prob)
        })?;
        // Advance the odometer.
        let mut i = 0;
        loop {
            if i == rounds.len() {
                return Ok(());
            }
            rounds[i] += 1;
            if rounds[i] < horizon {
                break;
            }
            rounds[i] = 0;
            i += 1;
        }
    }
}

/// Every faulty set of size `k` among `n` agents.
fn faulty_sets(n: usize, k: usize) -> Vec<AgentSet> {
    let mut out = Vec::new();
    for bits in 0u32..(1u32 << n) {
        if bits.count_ones() as usize == k {
            let mut set = AgentSet::empty();
            for i in 0..n {
                if bits & (1 << i) != 0 {
                    set.insert(AgentId::new(i));
                }
            }
            out.push(set);
        }
    }
    out
}

/// Computes the exact probability that a trial drawn from `plan`'s
/// mixture violates the EBA spec on `stack`, by weighted enumeration.
///
/// This is the ground truth the Monte Carlo estimate converges to; see
/// the module docs. Intended for small instances only.
///
/// # Errors
///
/// Returns [`EbaError::InvalidInput`] when the enumeration would exceed
/// [`REFERENCE_BUDGET`] judged cases, and propagates execution errors.
pub fn exact_violation_probability(stack: &NamedStack, plan: &TrialPlan) -> Result<f64, EbaError> {
    plan.validate()?;
    let params = stack.params();
    let strata = plan.scheme.strata(stack.model(), params.t());
    budget_check(stack.model(), params, plan, &strata)?;
    stack.visit(ReferenceVisitor {
        plan,
        strata: &strata,
    })
}

/// Pre-flight case count, so oversize requests fail fast instead of
/// after minutes of enumeration.
fn budget_check(
    model: FailureModel,
    params: Params,
    plan: &TrialPlan,
    strata: &[Stratum],
) -> Result<(), EbaError> {
    let n = params.n();
    if n > 20 {
        return Err(EbaError::InvalidInput(format!(
            "exact reference supports n ≤ 20, got {n}"
        )));
    }
    let inits = 1u64 << n;
    let mut total: u64 = 0;
    for stratum in strata {
        for faulty in faulty_sets(n, stratum.faulty) {
            let cases = match model {
                FailureModel::Crash => {
                    let coins = faulty.len() * (n - 1);
                    (plan.horizon as u64)
                        .checked_pow(faulty.len() as u32)
                        .and_then(|rounds| 1u64.checked_shl(coins as u32).map(|c| (rounds, c)))
                        .and_then(|(rounds, coins)| rounds.checked_mul(coins))
                }
                _ => {
                    let sites = drop_sites(model, params, faulty, plan.horizon).len();
                    if sites >= 63 {
                        None
                    } else {
                        Some(1u64 << sites)
                    }
                }
            };
            total = cases
                .and_then(|c| c.checked_mul(inits))
                .and_then(|c| total.checked_add(c))
                .ok_or_else(|| {
                    EbaError::InvalidInput("exact reference case count overflows".into())
                })?;
        }
    }
    if total > REFERENCE_BUDGET {
        return Err(EbaError::InvalidInput(format!(
            "exact reference needs {total} cases, over the {REFERENCE_BUDGET} budget"
        )));
    }
    Ok(())
}

struct ReferenceVisitor<'a> {
    plan: &'a TrialPlan,
    strata: &'a [Stratum],
}

impl StackVisitor for ReferenceVisitor<'_> {
    type Output = Result<f64, EbaError>;

    fn visit<E, P>(self, ctx: &Context<E, P>) -> Result<f64, EbaError>
    where
        E: InformationExchange + Clone + Sync + 'static,
        P: ActionProtocol<E> + Clone + Sync + 'static,
    {
        let params = ctx.params();
        let n = params.n();
        let model = ctx.model();
        let init_prob = 1.0 / (1u64 << n) as f64;
        let mut violation_mass = 0.0f64;
        let judge_pattern = |pattern: &FailurePattern, prob: f64| -> Result<f64, EbaError> {
            let mut mass = 0.0;
            for bits in 0u64..(1u64 << n) {
                let inits: Vec<Value> = (0..n)
                    .map(|i| Value::from_bit(((bits >> i) & 1) as u8))
                    .collect();
                if judge_case(ctx, pattern, &inits, self.plan.horizon)?.is_some() {
                    mass += prob * init_prob;
                }
            }
            Ok(mass)
        };
        for stratum in self.strata {
            let sets = faulty_sets(n, stratum.faulty);
            let set_prob = stratum.weight / sets.len() as f64;
            for faulty in sets {
                let mut stratum_mass = 0.0;
                match model {
                    FailureModel::Crash if !faulty.is_empty() => {
                        for_each_crash_pattern(
                            params,
                            faulty,
                            self.plan.horizon,
                            stratum.drop_prob,
                            &mut |pattern, prob| {
                                stratum_mass += judge_pattern(&pattern, prob)?;
                                Ok(())
                            },
                        )?;
                    }
                    _ => {
                        let sites = drop_sites(model, params, faulty, self.plan.horizon);
                        for_each_drop_subset(
                            params,
                            faulty,
                            &sites,
                            stratum.drop_prob,
                            &mut |pattern, prob| {
                                stratum_mass += judge_pattern(&pattern, prob)?;
                                Ok(())
                            },
                        )?;
                    }
                }
                violation_mass += set_prob * stratum_mass;
            }
        }
        Ok(violation_mass)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::estimate;
    use crate::plan::SampleScheme;
    use eba_core::context::admit_scenario;
    use eba_sim::prelude::Parallelism;

    fn plan(trials: u64, scheme: SampleScheme, horizon: u32) -> TrialPlan {
        TrialPlan {
            trials,
            seed: 0xEBA,
            confidence: 0.99,
            horizon,
            scheme,
        }
    }

    #[test]
    fn correct_stacks_have_exactly_zero_violation_mass() {
        let params = Params::new(3, 1).unwrap();
        let stack = NamedStack::by_name("E_min/P_min@sending_omission", params).unwrap();
        let p = exact_violation_probability(&stack, &plan(1, SampleScheme::Uniform, 4)).unwrap();
        assert_eq!(p, 0.0);
    }

    #[test]
    fn the_interval_brackets_the_exact_probability_at_3_1() {
        // E_naive/P_naive at (3, 1) under sending omissions: D = 8 drop
        // coins per faulty singleton, 6 144 judged cases per drop level —
        // instant, and the exhaustive battery says the stack is buggy.
        let params = Params::new(3, 1).unwrap();
        let stack = NamedStack::by_name("E_naive/P_naive@sending_omission", params).unwrap();
        let p = plan(20_000, SampleScheme::Uniform, 4);
        let exact = exact_violation_probability(&stack, &p).unwrap();
        assert!(exact > 0.0, "the naive stack must carry violation mass");
        let est = estimate(&stack, &p, Parallelism::Sequential).unwrap();
        assert!(
            est.wilson.contains(exact),
            "Wilson {:?} misses exact {exact}",
            est.wilson
        );
        assert!(
            est.clopper_pearson.contains(exact),
            "CP {:?} misses exact {exact}",
            est.clopper_pearson
        );
    }

    #[test]
    fn the_interval_brackets_the_exact_probability_under_crashes() {
        let params = Params::new(3, 1).unwrap();
        let stack = NamedStack::by_name("E_naive/P_naive@crash", params).unwrap();
        let p = plan(20_000, SampleScheme::Uniform, 3);
        let exact = exact_violation_probability(&stack, &p).unwrap();
        let est = estimate(&stack, &p, Parallelism::Sequential).unwrap();
        assert!(est.wilson.contains(exact), "{:?} vs {exact}", est.wilson);
    }

    #[test]
    fn oversize_references_fail_fast() {
        let params = Params::new(16, 4).unwrap();
        let stack = NamedStack::by_name("E_min/P_min", params).unwrap();
        let err =
            exact_violation_probability(&stack, &plan(1, SampleScheme::Stratified, 7)).unwrap_err();
        assert!(err.to_string().contains("budget") || err.to_string().contains("overflow"));
    }

    #[test]
    fn drop_site_layout_matches_the_sampler() {
        // With every coin landing "drop", the sampler's pattern lists
        // exactly the reference's sites, in the same order.
        use rand::SeedableRng;
        let params = Params::new(4, 2).unwrap();
        let horizon = 3;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xEBA);
        for model in [FailureModel::SendingOmission, FailureModel::GeneralOmission] {
            let sampler = AdversarySampler::new(model, params, horizon, 1.0);
            for faulty in faulty_sets(4, 1).into_iter().chain(faulty_sets(4, 2)) {
                let sampled: Vec<_> = sampler
                    .sample_with_faulty(faulty, &mut rng)
                    .drops()
                    .collect();
                let sites = drop_sites(model, params, faulty, horizon);
                assert_eq!(sampled, sites, "{model} faulty {faulty}");
            }
        }
        let faulty = AgentSet::singleton(AgentId::new(1));
        assert!(drop_sites(FailureModel::Crash, params, faulty, 2).is_empty());
    }

    #[test]
    fn streamed_patterns_are_a_distribution_the_model_admits() {
        let q = 0.3;
        for n in [3, 4] {
            let params = Params::new(n, 1).unwrap();
            // At (4, 1) under GO(t) that is 2^12 subsets, few enough that
            // their f64 sum stays within 1e-12 of 1.
            let horizon = 2;
            let inits = vec![Value::One; n];
            for model in [
                FailureModel::FailureFree,
                FailureModel::Crash,
                FailureModel::SendingOmission,
                FailureModel::GeneralOmission,
            ] {
                let faulty = if model == FailureModel::FailureFree {
                    AgentSet::empty()
                } else {
                    AgentSet::singleton(AgentId::new(n - 1))
                };
                let mut total = 0.0;
                let mut check = |pattern: FailurePattern, prob: f64| {
                    admit_scenario(params, model, &pattern, &inits, horizon)?;
                    total += prob;
                    Ok(())
                };
                if model == FailureModel::Crash {
                    for_each_crash_pattern(params, faulty, horizon, q, &mut check).unwrap();
                } else {
                    let sites = drop_sites(model, params, faulty, horizon);
                    for_each_drop_subset(params, faulty, &sites, q, &mut check).unwrap();
                }
                assert!((total - 1.0).abs() < 1e-12, "({n}, 1) {model}: {total}");
            }
        }
    }
}
