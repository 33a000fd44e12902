//! The Monte Carlo estimator: i.i.d. sampled runs, one verdict per run,
//! deterministic block-sharded parallelism.
//!
//! Each trial draws a stratum from the plan's mixture, a faulty set, a
//! failure pattern (via [`AdversarySampler`]), and uniform initial
//! preferences; steps the stack through the simulator's run loop
//! ([`step_rounds`]) in buffers its block owns and reuses; and judges
//! each round as it is stepped with the simulator's statement of the
//! spec ([`RunJudge`], the fold [`judge_run`] replays recorded runs
//! through). No trajectory is kept — a violating trial clones its
//! pattern, inits and final decisions, and only then — so a trial never
//! outlives its verdict, allocates only its faulty set and its pattern's
//! drop rows, and memory stays flat at any trial count or `n`.
//!
//! **Bit-reproducibility.** Trials are partitioned into fixed-size blocks
//! of [`TRIAL_BLOCK`]; block `b` runs on its own `StdRng` seeded
//! deterministically from `(plan.seed, b)`. The blocks run on
//! [`Parallelism::for_each_ordered`], which hands them back *in block
//! index* order whichever worker ran them, and each is folded into the
//! estimate as it arrives. So the estimate — counts, per-stratum tallies,
//! and exported repro samples — is identical for any worker count, and
//! so is a failure: the first failing block in index order is the error
//! returned. Only the wall-clock differs.
//!
//! **Rare-event confirmation.** Violating samples are deduplicated by a
//! novelty signature (nonfaulty footprint, decision vector, violated
//! clause — the fuzzer's coverage notion) and the survivors are re-judged
//! through the epistemic layer: a one-run interpreted system per sample,
//! checked with [`check_spec`] via [`EngineOracle`], so every exported
//! repro carries an engine-confirmed verdict, not just the trace
//! predicate's word. A repro holds its run as a [`Case`], the type the
//! fuzzer searches over and a `.eba` file parses to.
//!
//! [`AdversarySampler`]: eba_core::prelude::AdversarySampler
//! [`Parallelism::for_each_ordered`]: eba_sim::runner::Parallelism::for_each_ordered
//! [`step_rounds`]: eba_sim::runner::step_rounds
//! [`RunJudge`]: eba_sim::spec::RunJudge
//! [`judge_run`]: eba_sim::spec::judge_run
//! [`check_spec`]: eba_epistemic::spec::check_spec
//! [`EngineOracle`]: eba_epistemic::spec::EngineOracle

use eba_core::failures::random_faulty_set;
use eba_core::prelude::*;
use eba_epistemic::spec::{check_spec, EngineOracle};
use eba_sim::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::interval::{clopper_pearson, wilson, Interval};
use crate::plan::{Stratum, TrialPlan};

/// Trials per deterministic block — the unit of reproducible work
/// distribution. Small enough that short runs still parallelize, large
/// enough that the per-block overhead (an RNG seed, a window slot) is
/// noise.
pub const TRIAL_BLOCK: u64 = 1024;

/// Exported violating samples are capped at this many distinct novelty
/// signatures per estimate.
pub const MAX_REPROS: usize = 8;

/// The violated-clause names, in the order [`RunJudge`] checks them — the
/// fuzzer's [`violation_kind`] vocabulary, so statistical repros and fuzz
/// repros share one taxonomy.
pub const VIOLATION_KINDS: [&str; 4] = ["unique_decision", "agreement", "validity", "termination"];

/// The buffers a block's trials step and judge in, reused trial after
/// trial.
struct Trial<E: InformationExchange> {
    buffers: RoundBuffers<E>,
    judge: RunJudge,
    inits: Vec<Value>,
}

impl<E: InformationExchange> Trial<E> {
    fn new() -> Self {
        Trial {
            buffers: RoundBuffers::default(),
            judge: RunJudge::default(),
            inits: Vec::new(),
        }
    }

    /// Steps `ctx` against `pattern` from `self.inits` on the run kernel
    /// and judges the run as it steps: its first violated clause, named
    /// as the fuzzer's [`violation_kind`] names it, if it has one. The
    /// final global state stays in `self.buffers.states`.
    fn judge<P: ActionProtocol<E>>(
        &mut self,
        ctx: &Context<E, P>,
        pattern: &FailurePattern,
        horizon: u32,
    ) -> Result<Option<&'static str>, EbaError> {
        let (ex, judge, inits) = (ctx.exchange(), &mut self.judge, &self.inits);
        judge.start(inits.len());
        let observe = |m, b: &mut RoundBuffers<E>| {
            judge.round(ex, m, &b.previous, &b.actions, &b.states);
        };
        step_rounds(ctx, pattern, inits, horizon, &mut self.buffers, observe)?;
        let verdict = self.judge.verdict(pattern.nonfaulty(), inits);
        Ok(verdict.err().map(|v| violation_kind(&v)))
    }
}

/// Executes one concrete case and returns its violated clause, if any —
/// one of [`VIOLATION_KINDS`]. It runs as an estimator trial does.
///
/// The pattern is taken as sampled: only its shape is checked, not its
/// admissibility under the context's failure model.
///
/// # Errors
///
/// Returns [`EbaError::InvalidInput`] when `inits` has the wrong length
/// or the pattern was built for other parameters.
pub fn judge_case<E, P>(
    ctx: &Context<E, P>,
    pattern: &FailurePattern,
    inits: &[Value],
    horizon: u32,
) -> Result<Option<&'static str>, EbaError>
where
    E: InformationExchange,
    P: ActionProtocol<E>,
{
    let mut trial = Trial::new();
    trial.inits.extend_from_slice(inits);
    trial.judge(ctx, pattern, horizon)
}

/// Per-stratum trial/violation tallies of a finished estimate.
#[derive(Clone, Debug)]
pub struct StratumCount {
    /// The stratum the counts belong to.
    pub stratum: Stratum,
    /// Trials drawn from this stratum.
    pub trials: u64,
    /// Violating trials among them.
    pub violations: u64,
}

/// One exported violating sample: a concrete `.eba`-ready repro plus its
/// engine confirmation.
#[derive(Clone, Debug)]
pub struct ViolatingSample {
    /// The sampled run: pattern, initial preferences and the plan's
    /// horizon.
    pub case: Case,
    /// The violated clause the trace predicate reported.
    pub kind: &'static str,
    /// Whether the epistemic layer (`check_spec` over the one-run
    /// interpreted system) confirmed a spec violation for this sample.
    pub engine_confirmed: bool,
}

/// The outcome of a statistical check: counts, intervals, per-stratum
/// tallies, and the exported violating samples.
#[derive(Clone, Debug)]
pub struct Estimate {
    /// Model-qualified stack name.
    pub stack: String,
    /// Number of agents.
    pub n: usize,
    /// Fault tolerance.
    pub t: usize,
    /// Run horizon in rounds.
    pub horizon: u32,
    /// The plan's sampling scheme name.
    pub scheme: &'static str,
    /// Root seed the estimate is reproducible from.
    pub seed: u64,
    /// Confidence level of both intervals.
    pub confidence: f64,
    /// Trials executed.
    pub trials: u64,
    /// Trials violating the EBA spec.
    pub violations: u64,
    /// Wilson score interval for the violation probability.
    pub wilson: Interval,
    /// Clopper–Pearson (exact) interval for the violation probability.
    pub clopper_pearson: Interval,
    /// Per-stratum tallies, in mixture order.
    pub strata: Vec<StratumCount>,
    /// Violation counts by clause, aligned with [`VIOLATION_KINDS`].
    pub kind_counts: [u64; 4],
    /// Deduplicated highest-novelty violating samples (≤ [`MAX_REPROS`]).
    pub repros: Vec<ViolatingSample>,
    /// Worker threads the trials actually ran on.
    pub workers: usize,
    /// Wall-clock seconds of the trial phase.
    pub elapsed_seconds: f64,
}

impl Estimate {
    /// The point estimate `violations / trials`.
    pub fn violation_rate(&self) -> f64 {
        self.violations as f64 / self.trials as f64
    }

    /// The point estimate of EBA validity, `1 − violation_rate`.
    pub fn validity(&self) -> f64 {
        1.0 - self.violation_rate()
    }

    /// The validity interval (the Wilson bracket, complemented).
    pub fn validity_interval(&self) -> Interval {
        self.wilson.complement()
    }

    /// Trials per second of the trial phase.
    pub fn trials_per_sec(&self) -> f64 {
        self.trials as f64 / self.elapsed_seconds.max(f64::EPSILON)
    }
}

/// A violating trial captured inside a block, pre-merge.
struct Candidate {
    signature: (u128, Vec<u8>, u8),
    pattern: FailurePattern,
    inits: Vec<Value>,
    kind_idx: u8,
}

/// The deterministic tallies of one block, or of the blocks folded so
/// far. Every violation has one kind, so `kind_counts` sums to the
/// violations.
struct BlockResult {
    stratum_trials: Vec<u64>,
    stratum_violations: Vec<u64>,
    kind_counts: [u64; 4],
    candidates: Vec<Candidate>,
}

impl BlockResult {
    fn new(strata: usize) -> Self {
        BlockResult {
            stratum_trials: vec![0; strata],
            stratum_violations: vec![0; strata],
            kind_counts: [0; 4],
            candidates: Vec::new(),
        }
    }

    /// Folds in the next block in index order: its tallies, and its
    /// candidates whose novelty signature is new, up to [`MAX_REPROS`].
    fn absorb(&mut self, block: BlockResult) {
        add(&mut self.stratum_trials, &block.stratum_trials);
        add(&mut self.stratum_violations, &block.stratum_violations);
        add(&mut self.kind_counts, &block.kind_counts);
        for cand in block.candidates {
            let fresh = self
                .candidates
                .iter()
                .all(|c| c.signature != cand.signature);
            if fresh && self.candidates.len() < MAX_REPROS {
                self.candidates.push(cand);
            }
        }
    }
}

/// Adds `counts` into `acc`, entry by entry.
fn add(acc: &mut [u64], counts: &[u64]) {
    acc.iter_mut().zip(counts).for_each(|(a, c)| *a += c);
}

/// At most this many candidates are kept per block; the fold's novelty
/// filter discards duplicates anyway, and a violation-dense block
/// must not hoard patterns.
const BLOCK_CANDIDATES: usize = 2;

fn kind_index(kind: &'static str) -> u8 {
    VIOLATION_KINDS
        .iter()
        .position(|k| *k == kind)
        .expect("registered kind") as u8
}

/// The running sums of the mixture's weights, which [`pick_stratum`]
/// reads.
fn cumulative_weights(strata: &[Stratum]) -> Vec<f64> {
    strata
        .iter()
        .scan(0.0, |acc, s| {
            *acc += s.weight;
            Some(*acc)
        })
        .collect()
}

/// The stratum a uniform draw `r ∈ [0, 1)` selects from the running
/// sums of the mixture's weights. Rounding can leave the last sum just
/// below 1, so a draw beyond it belongs to the last stratum.
fn pick_stratum(cumulative: &[f64], r: f64) -> usize {
    cumulative
        .iter()
        .position(|&c| r < c)
        .unwrap_or(cumulative.len() - 1)
}

fn mix_seed(seed: u64, block: u64) -> u64 {
    // Distinct SplitMix64 stream positions per block; `StdRng` then
    // expands each through its own SplitMix64 state initialization.
    seed ^ (block.wrapping_add(1)).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

struct EstimateVisitor<'a> {
    plan: &'a TrialPlan,
    strata: &'a [Stratum],
    parallelism: Parallelism,
}

impl EstimateVisitor<'_> {
    /// Runs one block of trials with its own deterministically seeded RNG.
    fn run_block<E, P>(
        &self,
        ctx: &Context<E, P>,
        block: u64,
        trials: u64,
    ) -> Result<BlockResult, EbaError>
    where
        E: InformationExchange,
        P: ActionProtocol<E>,
    {
        let params = ctx.params();
        let n = params.n();
        let model = ctx.model();
        let samplers: Vec<AdversarySampler> = self
            .strata
            .iter()
            .map(|s| AdversarySampler::new(model, params, self.plan.horizon, s.drop_prob))
            .collect();
        let cumulative = cumulative_weights(self.strata);
        let mut rng = StdRng::seed_from_u64(mix_seed(self.plan.seed, block));
        let mut result = BlockResult::new(self.strata.len());
        let mut trial = Trial::new();
        for _ in 0..trials {
            let r: f64 = rng.random();
            let s = pick_stratum(&cumulative, r);
            let faulty = if self.strata[s].faulty == 0 {
                AgentSet::empty()
            } else {
                random_faulty_set(params, self.strata[s].faulty, &mut rng)
            };
            let pattern = samplers[s].sample_with_faulty(faulty, &mut rng);
            trial.inits.clear();
            trial
                .inits
                .extend((0..n).map(|_| Value::from_bit(rng.random_range(0..2u8))));
            result.stratum_trials[s] += 1;
            if let Some(kind) = trial.judge(ctx, &pattern, self.plan.horizon)? {
                result.stratum_violations[s] += 1;
                let kind_idx = kind_index(kind);
                result.kind_counts[kind_idx as usize] += 1;
                if result.candidates.len() < BLOCK_CANDIDATES {
                    let decisions = trial
                        .buffers
                        .states
                        .iter()
                        .map(|state| match ctx.exchange().decided(state) {
                            Some(Value::Zero) => 0,
                            Some(Value::One) => 1,
                            None => 2,
                        })
                        .collect();
                    result.candidates.push(Candidate {
                        signature: (pattern.nonfaulty().bits(), decisions, kind_idx),
                        pattern,
                        inits: trial.inits.clone(),
                        kind_idx,
                    });
                }
            }
        }
        Ok(result)
    }
}

impl StackVisitor for EstimateVisitor<'_> {
    type Output = Result<Estimate, EbaError>;

    fn visit<E, P>(self, ctx: &Context<E, P>) -> Result<Estimate, EbaError>
    where
        E: InformationExchange + Clone + Sync + 'static,
        P: ActionProtocol<E> + Clone + Sync + 'static,
    {
        let blocks = usize::try_from(self.plan.trials.div_ceil(TRIAL_BLOCK))
            .map_err(|_| EbaError::InvalidInput("too many trials for this platform".into()))?;
        let workers = self.parallelism.worker_count().min(blocks);

        // Blocks are folded in index order as they arrive, regardless of
        // which worker produced which; the first failing one is the error.
        let mut total = BlockResult::new(self.strata.len());
        let t0 = std::time::Instant::now();
        self.parallelism.for_each_ordered(
            blocks,
            |block| {
                let (block, first) = (block as u64, block as u64 * TRIAL_BLOCK);
                self.run_block(ctx, block, TRIAL_BLOCK.min(self.plan.trials - first))
            },
            |block| block.map(|block| total.absorb(block)),
        )?;
        let elapsed_seconds = t0.elapsed().as_secs_f64();

        // Confirm the survivors through the epistemic layer: one-run
        // interpreted system, compiled spec query, oracle semantics.
        let oracle = EngineOracle::new(ctx.clone());
        let repros = total
            .candidates
            .into_iter()
            .map(|cand| {
                let case = Case {
                    pattern: cand.pattern,
                    inits: cand.inits,
                    horizon: self.plan.horizon,
                };
                Ok(ViolatingSample {
                    engine_confirmed: !check_spec(&oracle.system(&case)?).is_empty(),
                    case,
                    kind: VIOLATION_KINDS[cand.kind_idx as usize],
                })
            })
            .collect::<Result<_, EbaError>>()?;

        let violations = total.kind_counts.iter().sum();
        Ok(Estimate {
            stack: ctx.qualified_name(),
            n: ctx.params().n(),
            t: ctx.params().t(),
            horizon: self.plan.horizon,
            scheme: self.plan.scheme.name(),
            seed: self.plan.seed,
            confidence: self.plan.confidence,
            trials: self.plan.trials,
            violations,
            wilson: wilson(violations, self.plan.trials, self.plan.confidence),
            clopper_pearson: clopper_pearson(violations, self.plan.trials, self.plan.confidence),
            strata: self
                .strata
                .iter()
                .zip(total.stratum_trials.iter().zip(&total.stratum_violations))
                .map(|(stratum, (&trials, &violations))| StratumCount {
                    stratum: *stratum,
                    trials,
                    violations,
                })
                .collect(),
            kind_counts: total.kind_counts,
            repros,
            workers,
            elapsed_seconds,
        })
    }
}

/// Runs `plan` against `stack` and returns the finished [`Estimate`].
///
/// The result is bit-identical for a fixed `(stack, plan)` across any
/// `parallelism` setting; see the module docs for the block-seeding
/// scheme that guarantees it.
///
/// # Errors
///
/// Returns [`EbaError::InvalidInput`] for an invalid plan (zero trials,
/// bad confidence level) or when a sampled case fails to execute.
pub fn estimate(
    stack: &NamedStack,
    plan: &TrialPlan,
    parallelism: Parallelism,
) -> Result<Estimate, EbaError> {
    plan.validate()?;
    let strata = plan.scheme.strata(stack.model(), stack.params().t());
    stack.visit(EstimateVisitor {
        plan,
        strata: &strata,
        parallelism,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::SampleScheme;

    fn plan(trials: u64, scheme: SampleScheme) -> TrialPlan {
        TrialPlan {
            trials,
            seed: 0xEBA,
            confidence: 0.95,
            horizon: 4,
            scheme,
        }
    }

    #[test]
    fn correct_stacks_estimate_zero_violations() {
        let params = Params::new(3, 1).unwrap();
        for name in ["E_min/P_min", "E_basic/P_basic", "E_fip/P_opt"] {
            let stack = NamedStack::by_name(name, params).unwrap();
            let est = estimate(
                &stack,
                &plan(2_000, SampleScheme::Uniform),
                Parallelism::Sequential,
            )
            .unwrap();
            assert_eq!(est.violations, 0, "{name}");
            assert_eq!(est.wilson.lo, 0.0);
            assert!(est.wilson.hi > 0.0, "an estimate is not a proof");
            assert_eq!(est.validity(), 1.0);
            assert!(est.repros.is_empty());
            let total: u64 = est.strata.iter().map(|s| s.trials).sum();
            assert_eq!(total, est.trials);
        }
    }

    #[test]
    fn the_naive_stack_is_caught_with_confirmed_repros() {
        let params = Params::new(3, 1).unwrap();
        let stack = NamedStack::by_name("E_naive/P_naive@general_omission", params).unwrap();
        let est = estimate(
            &stack,
            &plan(2_000, SampleScheme::Importance),
            Parallelism::Sequential,
        )
        .unwrap();
        assert!(est.violations > 0);
        assert!(est.wilson.lo > 0.0);
        assert!(est.clopper_pearson.contains(est.violation_rate()));
        assert!(!est.repros.is_empty());
        for repro in &est.repros {
            assert!(repro.engine_confirmed, "{:?}", repro.kind);
            assert_eq!(repro.kind, "agreement");
        }
        // The whisper bug needs a faulty agent: every violation lands in
        // a k ≥ 1 stratum.
        for s in &est.strata {
            if s.stratum.faulty == 0 {
                assert_eq!(s.violations, 0);
            }
        }
        assert_eq!(est.kind_counts.iter().sum::<u64>(), est.violations);
    }

    #[test]
    fn estimates_are_bit_reproducible_across_worker_counts() {
        let params = Params::new(4, 1).unwrap();
        let stack = NamedStack::by_name("E_naive/P_naive@sending_omission", params).unwrap();
        let p = plan(4_096, SampleScheme::Stratified);
        let base = estimate(&stack, &p, Parallelism::Sequential).unwrap();
        for workers in [2usize, 3, 8] {
            let other = estimate(&stack, &p, Parallelism::Fixed(workers)).unwrap();
            assert_eq!(other.violations, base.violations, "workers = {workers}");
            assert_eq!(other.kind_counts, base.kind_counts);
            assert_eq!(other.repros.len(), base.repros.len());
            for (a, b) in base.repros.iter().zip(&other.repros) {
                assert_eq!(a.case, b.case);
                assert_eq!(a.kind, b.kind);
            }
            for (a, b) in base.strata.iter().zip(&other.strata) {
                assert_eq!(a.trials, b.trials);
                assert_eq!(a.violations, b.violations);
            }
        }
        // A different seed reshuffles the trial stream.
        let mut reseeded = p;
        reseeded.seed = 7;
        let other = estimate(&stack, &reseeded, Parallelism::Sequential).unwrap();
        let drift = base
            .strata
            .iter()
            .zip(&other.strata)
            .any(|(a, b)| a.trials != b.trials);
        assert!(drift, "reseeding must move the per-stratum allocation");
    }

    #[test]
    fn run_violation_matches_the_spec_on_a_known_whisper_case() {
        // The introduction's counterexample: faulty agent 0 hides its
        // zero for a round, then whispers it to agent 1 only — agents 1
        // and 2 split at the time-2 deadline.
        let params = Params::new(3, 1).unwrap();
        let ctx = Context::naive(params).with_model(FailureModel::SendingOmission);
        let mut pattern =
            FailurePattern::new(params, AgentSet::singleton(AgentId::new(0)).complement(3))
                .unwrap();
        for (m, to) in [(0, 1), (0, 2), (1, 2)] {
            pattern
                .drop_message(m, AgentId::new(0), AgentId::new(to))
                .unwrap();
        }
        let inits = vec![Value::Zero, Value::One, Value::One];
        let verdict = judge_case(&ctx, &pattern, &inits, 4).unwrap();
        assert_eq!(verdict, Some("agreement"));
        // And the same case is clean on a correct stack.
        let ctx = Context::basic(params).with_model(FailureModel::SendingOmission);
        assert_eq!(judge_case(&ctx, &pattern, &inits, 4).unwrap(), None);
    }

    #[test]
    fn a_horizon_past_the_cap_is_refused_before_sampling() {
        // The sampler sizes each pattern by the plan's horizon: a huge
        // one must be an error, not an allocation failure.
        let stack = NamedStack::by_name("E_min/P_min", Params::new(3, 1).unwrap()).unwrap();
        let mut huge = plan(10, SampleScheme::Uniform);
        huge.horizon = u32::MAX;
        let err = estimate(&stack, &huge, Parallelism::Sequential).unwrap_err();
        assert!(err.to_string().contains("horizon: got 4294967295"), "{err}");
    }

    #[test]
    fn streamed_trials_agree_with_the_scenario_runner() {
        // A trial's trajectory is exactly the one the Scenario runner
        // produces (and judges clean) for the same case.
        let params = Params::new(3, 1).unwrap();
        let faulty = AgentSet::singleton(AgentId::new(1));
        let pattern = silent_pattern(params, faulty, 4).unwrap();
        let inits = vec![Value::One, Value::Zero, Value::One];
        let ctx = Context::basic(params);
        let trace = Scenario::of(&ctx)
            .pattern(pattern.clone())
            .inits(&inits)
            .horizon(4)
            .run()
            .unwrap();
        let mut trial = Trial::new();
        trial.inits = inits;
        let (mut previous, mut actions) = (Vec::new(), Vec::new());
        step_rounds(
            &ctx,
            &pattern,
            &trial.inits,
            4,
            &mut trial.buffers,
            |_, b| {
                previous.push(b.previous.clone());
                actions.push(b.actions.clone());
            },
        )
        .unwrap();
        assert_eq!(previous, trace.states[..4]);
        assert_eq!(trial.buffers.states, trace.states[4]);
        assert_eq!(actions, trace.actions);
        // Judged as it steps, in the buffers the last trial left behind.
        assert_eq!(trial.judge(&ctx, &pattern, 4).unwrap(), None);
        assert_eq!(trial.buffers.states, trace.states[4]);
    }

    #[test]
    fn judge_case_rejects_a_pattern_built_for_other_parameters() {
        // Indexing a (5, 2) pattern's drop rows with n = 3 would judge
        // some other run; the kernel's shape check refuses, with the
        // message `Scenario::run` gives.
        let ctx = Context::basic(Params::new(3, 1).unwrap());
        let other = Params::new(5, 2).unwrap();
        let faulty: AgentSet = [3, 4].into_iter().map(AgentId::new).collect();
        let pattern = silent_pattern(other, faulty, 4).unwrap();
        let inits = vec![Value::One; 3];
        let err = judge_case(&ctx, &pattern, &inits, 4).unwrap_err();
        let via_scenario = Scenario::of(&ctx)
            .pattern(pattern)
            .inits(&inits)
            .horizon(4)
            .run()
            .unwrap_err();
        assert_eq!(err, via_scenario);
        assert_eq!(
            err,
            EbaError::InvalidInput(
                "pattern: got a pattern built for (n = 5, t = 2) (expected (n = 3, t = 1))".into()
            )
        );
    }

    #[test]
    fn a_draw_past_the_rounded_weights_picks_the_last_stratum() {
        // The `estimate_basic_n16` mixture: its 13 weights sum to just
        // under 1 in f64, and a draw in that gap is the last stratum's.
        let strata = SampleScheme::Stratified.strata(FailureModel::SendingOmission, 4);
        let cumulative = cumulative_weights(&strata);
        let last = *cumulative.last().unwrap();
        assert_eq!(last, 0.9999999999999998);
        let r = 1.0 - f64::EPSILON / 2.0; // 1 − 2⁻⁵³, the largest draw
        assert!(last <= r && r < 1.0);
        assert_eq!(pick_stratum(&cumulative, r), strata.len() - 1);
        assert_eq!(pick_stratum(&cumulative, 0.0), 0);
        assert_eq!(pick_stratum(&cumulative, cumulative[0]), 1);
    }

    #[test]
    fn invalid_plans_are_rejected() {
        let params = Params::new(3, 1).unwrap();
        let stack = NamedStack::by_name("E_min/P_min", params).unwrap();
        let bad = TrialPlan {
            trials: 0,
            ..TrialPlan::new(1, 4)
        };
        assert!(estimate(&stack, &bad, Parallelism::Sequential).is_err());
    }
}
