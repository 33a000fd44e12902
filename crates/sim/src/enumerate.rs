//! Exhaustive enumeration of `R_{E,F,P}`: **all** runs of a context, for
//! small instances, under any [`FailureModel`] (the paper's `SO(t)` by
//! default; crash, general-omission, and failure-free environments via a
//! model-carrying [`Context`] or
//! [`Scenario::model`](crate::scenario::Scenario::model)). The entry
//! points are the [`Scenario`](crate::scenario::Scenario) methods
//! `enumerate`, `enumerate_into` and `enumerate_store`; this module is
//! the engine behind them.
//!
//! Knowledge is quantified over every run of the system, so the epistemic
//! model checker needs the complete set. Enumerating raw failure patterns
//! is hopeless (`2^{t·n·horizon}` drop sets), but two observations make
//! small instances tractable:
//!
//! 1. Dropping a `⊥` message changes nothing — only deliveries of *actual*
//!    (non-`⊥`) messages from *faulty* senders are branch points. Under
//!    `E_min`/`E_basic` agents are mostly silent, collapsing the space.
//! 2. Runs that agree on the nonfaulty set and the entire state trajectory
//!    are indistinguishable to every formula of the logic (the
//!    propositions read states and `N` only), so duplicates can be merged.
//!
//! The faulty *set* remains a free choice even with zero drops: a faulty
//! agent that acts nonfaulty (footnote 3 of the paper) yields a different
//! run than the same trajectory with the agent nonfaulty.
//!
//! # Sharding
//!
//! The search space factors into independent **work items** — one per
//! `(N, initial preferences)` pair — because deduplication can never merge
//! runs across items: the dedup key contains `N`, and every exchange
//! records the initial value in its time-0 state, so runs from different
//! initial configurations differ in `states[0]`. With more than one
//! worker the items are sharded across threads and the per-item results
//! concatenated in item order, which reproduces the sequential output
//! **bit for bit**. (When several failure conditions coincide — e.g. the
//! run limit is exceeded *and* a later item is too branchy — sequential
//! and sharded enumeration are guaranteed to agree that the enumeration
//! fails, but may report different error messages.)
//!
//! # Streaming
//!
//! Every run is fed to a [`RunSink`] in the deterministic enumeration
//! order and the engine never holds the whole run set in memory — peak
//! residency is one work item (sequential) or the out-of-order reorder
//! window (parallel), instead of all `O(runs)` trajectories. Collecting
//! is just streaming into a `Vec`.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;

use eba_core::context::Context;
use eba_core::exchange::{deliver_round, select_round, InformationExchange, NoObserver};
use eba_core::failures::FailureModel;
use eba_core::protocols::ActionProtocol;
use eba_core::types::{Action, AgentId, AgentSet, EbaError, Value};

use crate::runner::Parallelism;
use crate::sink::RunSink;

/// One enumerated run: the nonfaulty set plus the full trajectory.
#[derive(Clone, Debug)]
pub struct EnumRun<E: InformationExchange> {
    /// The nonfaulty set `N` of the run's failure pattern.
    pub nonfaulty: AgentSet,
    /// The initial preferences.
    pub inits: Vec<Value>,
    /// `states[m][i]` for `m ∈ 0..=horizon`.
    pub states: Vec<Vec<E::State>>,
    /// `actions[m][i]` for `m ∈ 0..horizon`.
    pub actions: Vec<Vec<Action>>,
}

/// Streams every run of `ctx` under `model` into `sink` in the
/// deterministic enumeration order, returning the number of runs
/// delivered. The per-round adversary choice space the depth-first search
/// explores is the model's — sending-side drop subsets under `SO(t)`,
/// additionally receive-side drops under `GO(t)`, crash-consistent
/// silence suffixes under `CR(t)`, and nothing at all in the failure-free
/// model (whose only admissible nonfaulty set is `Agt`).
///
/// The run sets are nested along the model hierarchy: every run
/// enumerated under `FailureFree` appears under `Crash`, every `Crash`
/// run under `SendingOmission`, and every `SendingOmission` run under
/// `GeneralOmission`.
///
/// Fails with [`EbaError::InvalidInput`] if a single round offers more
/// than 24 independent delivery choices (the instance is too large to
/// enumerate) or the deduplicated run count exceeds `limit`, and
/// propagates any error the sink returns.
pub(crate) fn stream_runs<E, P, S>(
    ctx: &Context<E, P>,
    model: FailureModel,
    horizon: u32,
    limit: usize,
    parallelism: Parallelism,
    sink: &mut S,
) -> Result<usize, EbaError>
where
    E: InformationExchange + Sync,
    P: ActionProtocol<E> + Sync,
    S: RunSink<E>,
{
    let (ex, proto) = (ctx.exchange(), ctx.protocol());
    let items = WorkItems::new(ex.params(), model, limit)?;
    let workers = parallelism.worker_count().min(items.len().max(1));
    if workers <= 1 {
        stream_sequential(ex, proto, model, horizon, limit, &items, sink)
    } else {
        stream_parallel(ex, proto, model, horizon, limit, &items, workers, sink)
    }
}

/// Single-threaded streaming engine: explores the work items in index
/// order and delivers each item's runs to the sink as soon as the item
/// finishes.
fn stream_sequential<E, P, S>(
    ex: &E,
    proto: &P,
    model: FailureModel,
    horizon: u32,
    limit: usize,
    items: &WorkItems,
    sink: &mut S,
) -> Result<usize, EbaError>
where
    E: InformationExchange,
    P: ActionProtocol<E>,
    S: RunSink<E>,
{
    let mut total = 0usize;
    for idx in 0..items.len() {
        let (nonfaulty, inits) = items.get(idx);
        let item_runs = enumerate_item(ex, proto, model, horizon, nonfaulty, &inits, limit)?;
        total = deliver_item(sink, item_runs, total, limit)?;
    }
    Ok(total)
}

/// Threaded streaming engine: workers pull items off a shared cursor and
/// send each finished item over a channel; the calling thread reorders
/// them back into item-index order and feeds the sink, so the stream is
/// bit-for-bit identical to the sequential one. Only the out-of-order
/// window is ever buffered.
#[allow(clippy::too_many_arguments)] // internal engine plumbing
fn stream_parallel<E, P, S>(
    ex: &E,
    proto: &P,
    model: FailureModel,
    horizon: u32,
    limit: usize,
    items: &WorkItems,
    workers: usize,
    sink: &mut S,
) -> Result<usize, EbaError>
where
    E: InformationExchange + Sync,
    P: ActionProtocol<E> + Sync,
    S: RunSink<E>,
{
    let cursor = AtomicUsize::new(0);
    let committed = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    type ItemResult<E> = Result<Vec<EnumRun<E>>, EbaError>;
    let (tx, rx) = mpsc::channel::<(usize, ItemResult<E>)>();

    // Shadow the shared counters with references so the `move` closures
    // capture `tx` by value but everything else by reference.
    let (cursor, committed, failed) = (&cursor, &committed, &failed);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            scope.spawn(move || {
                loop {
                    let idx = cursor.fetch_add(1, Ordering::Relaxed);
                    if idx >= items.len() {
                        break;
                    }
                    // Cheap early exit once any item errored, the sink
                    // refused a run, or the run limit is globally blown;
                    // the consumer reports the error either way.
                    if failed.load(Ordering::Relaxed) || committed.load(Ordering::Relaxed) > limit {
                        break;
                    }
                    let (nonfaulty, inits) = items.get(idx);
                    let result =
                        enumerate_item(ex, proto, model, horizon, nonfaulty, &inits, limit);
                    match &result {
                        Ok(item_runs) => {
                            committed.fetch_add(item_runs.len(), Ordering::Relaxed);
                        }
                        Err(_) => failed.store(true, Ordering::Relaxed),
                    }
                    if tx.send((idx, result)).is_err() {
                        break;
                    }
                }
            });
        }
        drop(tx);

        // Consumer: reorder finished items into index order and stream
        // them out, releasing each item's memory as soon as it is sunk.
        let mut pending: HashMap<usize, ItemResult<E>> = HashMap::new();
        let mut next = 0usize;
        let mut total = 0usize;
        let mut first_error: Option<EbaError> = None;
        for (idx, result) in rx {
            pending.insert(idx, result);
            while let Some(result) = pending.remove(&next) {
                next += 1;
                if first_error.is_some() {
                    continue;
                }
                match result {
                    Ok(item_runs) => match deliver_item(sink, item_runs, total, limit) {
                        Ok(new_total) => total = new_total,
                        Err(e) => {
                            failed.store(true, Ordering::Relaxed);
                            first_error = Some(e);
                        }
                    },
                    Err(e) => {
                        failed.store(true, Ordering::Relaxed);
                        first_error = Some(e);
                    }
                }
            }
        }
        if let Some(e) = first_error {
            return Err(e);
        }
        if next < items.len() {
            // Aborted: some worker bailed before producing every item.
            // Report a recorded item error if there is one, else it was
            // the run limit.
            for (_, result) in pending {
                result?;
            }
            return Err(limit_error(limit));
        }
        Ok(total)
    })
}

/// The independent shards of the search space, addressed by index in the
/// deterministic order the sequential enumerator visits them: nonfaulty
/// sets in [`FailureModel::nonfaulty_choices`] order, then initial
/// configurations in `init_configs` order (agent 0 = least-significant
/// bit).
///
/// Items are *decoded from the index on demand* rather than materialized:
/// there are `|choices| · 2^n` of them, which dwarfs the run limit long
/// before memory would.
struct WorkItems {
    choices: Vec<AgentSet>,
    n: usize,
}

impl WorkItems {
    /// Fails fast with the run-limit error when the item count alone
    /// already exceeds `limit`: every `(N, inits)` item contributes at
    /// least its drop-free trajectory as one deduplicated run, and items
    /// never dedup against each other, so `items > limit` implies the
    /// enumeration must exceed the limit. The admissible nonfaulty sets
    /// come from the model (only `Agt` under `FailureFree`).
    fn new(
        params: eba_core::types::Params,
        model: FailureModel,
        limit: usize,
    ) -> Result<Self, EbaError> {
        let choices = model.nonfaulty_choices(params);
        let total = 1usize
            .checked_shl(params.n() as u32)
            .and_then(|per_choice| choices.len().checked_mul(per_choice));
        match total {
            Some(total) if total <= limit => Ok(WorkItems {
                choices,
                n: params.n(),
            }),
            _ => Err(limit_error(limit)),
        }
    }

    fn len(&self) -> usize {
        self.choices.len() << self.n
    }

    fn get(&self, idx: usize) -> (AgentSet, Vec<Value>) {
        let (choice, mask) = (idx >> self.n, idx & ((1 << self.n) - 1));
        let inits = (0..self.n)
            .map(|i| Value::from_bit(((mask >> i) & 1) as u8))
            .collect();
        (self.choices[choice], inits)
    }
}

/// Streams one item's runs into the sink, enforcing the global run limit;
/// returns the updated delivered-run count. Deduplication is *not* needed
/// here: see the module docs — runs from different items always differ in
/// `N` or `states[0]`.
fn deliver_item<E: InformationExchange, S: RunSink<E>>(
    sink: &mut S,
    item_runs: Vec<EnumRun<E>>,
    total: usize,
    limit: usize,
) -> Result<usize, EbaError> {
    if total + item_runs.len() > limit {
        return Err(limit_error(limit));
    }
    let new_total = total + item_runs.len();
    for run in item_runs {
        sink.accept(run)?;
    }
    Ok(new_total)
}

fn limit_error(limit: usize) -> EbaError {
    EbaError::InvalidInput(format!(
        "run enumeration exceeded the limit of {limit} runs"
    ))
}

/// Depth-first enumeration of one `(N, inits)` work item, deduplicated by
/// `(N, trajectory)` within the item. The per-round adversary choice
/// space is the model's:
///
/// * `FailureFree` / `SendingOmission` — every subset of the non-⊥
///   messages from faulty senders may be dropped (no faulty senders exist
///   under `FailureFree`, so that model's rounds never branch);
/// * `GeneralOmission` — every subset of the non-⊥ messages with a
///   faulty endpoint (sender *or* receiver) may be dropped;
/// * `Crash` — each not-yet-crashed faulty agent either stays alive
///   (delivering everything) or crashes now, dropping a nonempty subset
///   of this round's messages and everything — self-delivery included —
///   afterwards. A crash that delivers its full final round is not
///   enumerated separately: it yields the same deliveries as staying
///   alive one more round and crashing with a full drop, so the
///   trajectory set is unchanged.
fn enumerate_item<E, P>(
    ex: &E,
    proto: &P,
    model: FailureModel,
    horizon: u32,
    nonfaulty: AgentSet,
    inits: &[Value],
    limit: usize,
) -> Result<Vec<EnumRun<E>>, EbaError>
where
    E: InformationExchange,
    P: ActionProtocol<E>,
{
    let params = ex.params();
    let n = params.n();
    let faulty = nonfaulty.complement(n);
    let mut runs: Vec<EnumRun<E>> = Vec::new();
    // Dedup buckets: hash(N, states) → indices into `runs`.
    let mut seen: HashMap<u64, Vec<usize>> = HashMap::new();

    let init_states: Vec<E::State> = (0..n)
        .map(|i| ex.initial_state(AgentId::new(i), inits[i]))
        .collect();
    let mut stack = vec![Partial {
        states: vec![init_states],
        actions: Vec::new(),
        alive: faulty,
    }];
    while let Some(partial) = stack.pop() {
        let m = partial.actions.len() as u32;
        if m == horizon {
            commit(
                &mut runs,
                &mut seen,
                nonfaulty,
                inits.to_vec(),
                partial,
                limit,
            )?;
            continue;
        }
        let current = partial.states.last().expect("nonempty");
        let actions: Vec<Action> = (0..n)
            .map(|i| proto.act(AgentId::new(i), &current[i]))
            .collect();
        let outgoing = select_round(ex, current, &actions, &mut NoObserver);
        if model == FailureModel::Crash {
            expand_crash_round(
                ex, faulty, &partial, current, &actions, &outgoing, m, &mut stack,
            )?;
            continue;
        }
        // Branch points: non-⊥ messages the model lets the adversary drop.
        let mut slots: Vec<(usize, usize)> = Vec::new();
        match model {
            FailureModel::GeneralOmission => {
                #[allow(clippy::needless_range_loop)] // `to` is a receiver id
                for from in 0..n {
                    for to in 0..n {
                        let endpoint_faulty = faulty.contains(AgentId::new(from))
                            || faulty.contains(AgentId::new(to));
                        if endpoint_faulty && outgoing[from][to].is_some() {
                            slots.push((from, to));
                        }
                    }
                }
            }
            _ => {
                #[allow(clippy::needless_range_loop)] // `to` is a receiver id
                for from in faulty.iter() {
                    for to in 0..n {
                        if outgoing[from.index()][to].is_some() {
                            slots.push((from.index(), to));
                        }
                    }
                }
            }
        }
        if slots.len() > 24 {
            return Err(over_branchy_error(m, slots.len()));
        }
        for mask in 0u32..(1 << slots.len()) {
            let dropped = |from: usize, to: usize| {
                slots
                    .iter()
                    .position(|s| *s == (from, to))
                    .is_some_and(|idx| mask & (1 << idx) != 0)
            };
            stack.push(partial.branch(ex, current, &actions, &outgoing, dropped));
        }
    }
    Ok(runs)
}

/// Expands one round of the crash model: each still-alive faulty agent
/// independently chooses to stay alive or to crash now with a nonempty
/// dropped subset of its current messages; agents that crashed in an
/// earlier round are forced silent (self-delivery included).
#[allow(clippy::too_many_arguments)] // internal DFS plumbing
fn expand_crash_round<E>(
    ex: &E,
    faulty: AgentSet,
    partial: &Partial<E>,
    current: &[E::State],
    actions: &[Action],
    outgoing: &[Vec<Option<E::Message>>],
    m: u32,
    stack: &mut Vec<Partial<E>>,
) -> Result<(), EbaError>
where
    E: InformationExchange,
{
    let n = ex.params().n();
    let crashed = faulty.difference(partial.alive);
    // Per alive faulty agent: the receiver slots of its non-⊥ messages.
    let groups: Vec<(usize, Vec<usize>)> = partial
        .alive
        .iter()
        .map(|a| {
            let from = a.index();
            let receivers = (0..n).filter(|&to| outgoing[from][to].is_some()).collect();
            (from, receivers)
        })
        .collect();
    let total_bits: usize = groups.iter().map(|(_, g)| g.len()).sum();
    if total_bits > 24 {
        return Err(over_branchy_error(m, total_bits));
    }
    // Choice digit per alive agent: 0 = stay alive (deliver everything);
    // c > 0 = crash now, dropping exactly the messages in bitmask `c`
    // over its receiver slots. Iterate the mixed-radix product.
    let radices: Vec<u64> = groups.iter().map(|(_, g)| 1u64 << g.len()).collect();
    let combos: u64 = radices.iter().product();
    for combo in 0..combos {
        let mut digits: Vec<u32> = Vec::with_capacity(groups.len());
        let mut rest = combo;
        for r in &radices {
            digits.push((rest % r) as u32);
            rest /= r;
        }
        let dropped = |from: usize, to: usize| {
            if crashed.contains(AgentId::new(from)) {
                return true;
            }
            groups.iter().zip(&digits).any(|((agent, g), digit)| {
                *agent == from
                    && *digit != 0
                    && g.iter()
                        .position(|&t| t == to)
                        .is_some_and(|idx| digit & (1 << idx) != 0)
            })
        };
        let mut branch = partial.branch(ex, current, actions, outgoing, dropped);
        for ((agent, _), digit) in groups.iter().zip(&digits) {
            if *digit != 0 {
                branch.alive.remove(AgentId::new(*agent));
            }
        }
        stack.push(branch);
    }
    Ok(())
}

struct Partial<E: InformationExchange> {
    states: Vec<Vec<E::State>>,
    actions: Vec<Vec<Action>>,
    /// Faulty agents that have not crashed yet — only consulted (and only
    /// shrinks) under [`FailureModel::Crash`].
    alive: AgentSet,
}

impl<E: InformationExchange> Partial<E> {
    /// Extends this prefix by one round in which every message with
    /// `dropped(from, to)` is lost; `alive` carries over unchanged (the
    /// crash expansion adjusts it on the returned branch).
    fn branch<F>(
        &self,
        ex: &E,
        current: &[E::State],
        actions: &[Action],
        outgoing: &[Vec<Option<E::Message>>],
        dropped: F,
    ) -> Self
    where
        F: Fn(usize, usize) -> bool,
    {
        let next = deliver_round(
            ex,
            current,
            actions,
            outgoing,
            |from, to| !dropped(from.index(), to.index()),
            &mut NoObserver,
        );
        let mut branch = self.clone();
        branch.states.push(next);
        branch.actions.push(actions.to_vec());
        branch
    }
}

// Manual impl: `derive(Clone)` would wrongly require `E: Clone`.
impl<E: InformationExchange> Clone for Partial<E> {
    fn clone(&self) -> Self {
        Partial {
            states: self.states.clone(),
            actions: self.actions.clone(),
            alive: self.alive,
        }
    }
}

fn over_branchy_error(m: u32, choices: usize) -> EbaError {
    EbaError::InvalidInput(format!(
        "round {} offers {} delivery choices; instance too \
         large to enumerate",
        m + 1,
        choices
    ))
}

fn commit<E: InformationExchange>(
    runs: &mut Vec<EnumRun<E>>,
    seen: &mut HashMap<u64, Vec<usize>>,
    nonfaulty: AgentSet,
    inits: Vec<Value>,
    partial: Partial<E>,
    limit: usize,
) -> Result<(), EbaError> {
    let mut hasher = DefaultHasher::new();
    nonfaulty.bits().hash(&mut hasher);
    partial.states.hash(&mut hasher);
    let key = hasher.finish();
    let bucket = seen.entry(key).or_default();
    for &idx in bucket.iter() {
        if runs[idx].nonfaulty == nonfaulty && runs[idx].states == partial.states {
            return Ok(()); // exact duplicate
        }
    }
    if runs.len() >= limit {
        return Err(limit_error(limit));
    }
    bucket.push(runs.len());
    runs.push(EnumRun {
        nonfaulty,
        inits,
        states: partial.states,
        actions: partial.actions,
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;
    use eba_core::prelude::*;

    /// Collects every run of `ctx` at `horizon` on `parallelism` workers.
    fn collect<E, P>(ctx: &Context<E, P>, horizon: u32, parallelism: Parallelism) -> Vec<EnumRun<E>>
    where
        E: InformationExchange + Sync,
        P: ActionProtocol<E> + Sync,
    {
        Scenario::of(ctx)
            .horizon(horizon)
            .parallelism(parallelism)
            .enumerate()
            .unwrap()
    }

    fn assert_same_runs<E: InformationExchange>(a: &[EnumRun<E>], b: &[EnumRun<E>], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}");
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.nonfaulty, y.nonfaulty, "{what}");
            assert_eq!(x.inits, y.inits, "{what}");
            assert_eq!(x.states, y.states, "{what}");
            assert_eq!(x.actions, y.actions, "{what}");
        }
    }

    #[test]
    fn failure_free_only_when_t_zero() {
        // t = 0: one nonfaulty choice, no drops: exactly 2^n runs.
        let ctx = Context::minimal(Params::new(3, 0).unwrap());
        let runs = collect(&ctx, 3, Parallelism::Sequential);
        assert_eq!(runs.len(), 8);
        for run in &runs {
            assert_eq!(run.nonfaulty, AgentSet::full(3));
            assert_eq!(run.states.len(), 4);
            assert_eq!(run.actions.len(), 3);
        }
    }

    #[test]
    fn all_inits_appear() {
        let ctx = Context::minimal(Params::new(2, 0).unwrap());
        let runs = collect(&ctx, 2, Parallelism::Sequential);
        let mut inits: Vec<Vec<Value>> = runs.iter().map(|r| r.inits.clone()).collect();
        inits.sort();
        inits.dedup();
        assert_eq!(inits.len(), 4);
    }

    #[test]
    fn min_exchange_enumeration_is_compact() {
        // With E_min, agents send only in their deciding round, so the
        // branch factor is tiny compared to raw pattern enumeration.
        let ctx = Context::minimal(Params::new(3, 1).unwrap());
        let runs = collect(&ctx, 4, Parallelism::Sequential);
        // Sanity: more runs than the failure-free 8 × 4 nonfaulty choices,
        // far fewer than raw pattern enumeration (3 × 2^12 × 8 ≈ 98k).
        assert!(runs.len() > 32, "got {}", runs.len());
        assert!(runs.len() < 5_000, "got {}", runs.len());
    }

    #[test]
    fn faulty_but_clean_runs_are_distinct_from_nonfaulty() {
        // Footnote 3: for every trajectory with zero drops there is one run
        // per admissible nonfaulty set.
        let ctx = Context::minimal(Params::new(2, 1).unwrap());
        let runs = collect(&ctx, 3, Parallelism::Sequential);
        let all_ones: Vec<&EnumRun<_>> = runs
            .iter()
            .filter(|r| r.inits == vec![Value::One, Value::One])
            .collect();
        let mut nf_sets: Vec<u128> = all_ones.iter().map(|r| r.nonfaulty.bits()).collect();
        nf_sets.sort();
        nf_sets.dedup();
        // N = {0,1}, {0}, {1} all occur for the all-ones initial config.
        assert_eq!(nf_sets.len(), 3);
    }

    #[test]
    fn run_limit_is_enforced() {
        let ctx = Context::minimal(Params::new(3, 1).unwrap());
        let err = Scenario::of(&ctx)
            .horizon(4)
            .limit(10)
            .enumerate()
            .unwrap_err();
        assert!(err.to_string().contains("limit"));
    }

    #[test]
    fn parallel_run_limit_is_enforced() {
        let ctx = Context::minimal(Params::new(3, 1).unwrap());
        let err = Scenario::of(&ctx)
            .horizon(4)
            .limit(10)
            .parallelism(Parallelism::Fixed(4))
            .enumerate()
            .unwrap_err();
        assert!(err.to_string().contains("limit"));
    }

    #[test]
    fn trajectories_are_deterministic_given_choices() {
        // Every enumerated run must replay exactly under the lockstep
        // runner with a pattern reconstructed from its drops. Spot-check
        // the failure-free member.
        let ctx = Context::basic(Params::new(3, 1).unwrap());
        let runs = collect(&ctx, 4, Parallelism::Sequential);
        let inits = vec![Value::One; 3];
        let trace = Scenario::of(&ctx).inits(&inits).horizon(4).run().unwrap();
        let found = runs.iter().any(|r| {
            r.nonfaulty == AgentSet::full(3) && r.inits == inits && r.states == trace.states
        });
        assert!(found, "the failure-free trajectory must be enumerated");
    }

    #[test]
    fn streaming_parallel_preserves_sequential_order() {
        // The reorder buffer must deliver runs to the sink in the exact
        // sequential order even when workers finish out of order.
        let ctx = Context::basic(Params::new(3, 1).unwrap());
        let sequential = collect(&ctx, 4, Parallelism::Sequential);
        let mut streamed: Vec<EnumRun<BasicExchange>> = Vec::new();
        let total = Scenario::of(&ctx)
            .horizon(4)
            .parallelism(Parallelism::Fixed(4))
            .enumerate_into(&mut streamed)
            .unwrap();
        assert_eq!(total, sequential.len());
        assert_same_runs(&sequential, &streamed, "Fixed(4) stream");
    }

    #[test]
    fn streaming_parallel_propagates_sink_errors() {
        let ctx = Context::minimal(Params::new(3, 1).unwrap());
        let mut seen = 0usize;
        let err = Scenario::of(&ctx)
            .horizon(4)
            .parallelism(Parallelism::Fixed(4))
            .enumerate_into(&mut |_run: EnumRun<MinExchange>| {
                seen += 1;
                if seen >= 3 {
                    Err(EbaError::InvalidInput("sink aborted".into()))
                } else {
                    Ok(())
                }
            })
            .unwrap_err();
        assert!(err.to_string().contains("sink aborted"));
    }

    /// Collects the `(N, trajectory)` dedup keys of a model's run set.
    fn model_keys<E, P>(ctx: &Context<E, P>, model: FailureModel) -> Vec<(u128, Vec<Vec<E::State>>)>
    where
        E: InformationExchange + Sync,
        P: ActionProtocol<E> + Sync,
    {
        let mut keys = Vec::new();
        Scenario::of(ctx)
            .model(model)
            .horizon(4)
            .enumerate_into(&mut |run: EnumRun<E>| {
                keys.push((run.nonfaulty.bits(), run.states));
                Ok(())
            })
            .unwrap();
        keys
    }

    #[test]
    fn sending_omission_model_reproduces_the_legacy_enumeration() {
        // A context's default model is the paper's SO(t): selecting it
        // explicitly changes nothing, run for run.
        let ctx = Context::basic(Params::new(3, 1).unwrap());
        let default = collect(&ctx, 4, Parallelism::Sequential);
        let explicit = Scenario::of(&ctx)
            .model(FailureModel::SendingOmission)
            .horizon(4)
            .enumerate()
            .unwrap();
        assert_same_runs(&default, &explicit, "explicit SO(t)");
    }

    #[test]
    fn failure_free_model_enumerates_exactly_the_initial_configs() {
        // Only N = Agt and no drops: one run per initial configuration,
        // even though t > 0 admits faulty sets in the other models.
        let ctx = Context::minimal(Params::new(3, 1).unwrap());
        let keys = model_keys(&ctx, FailureModel::FailureFree);
        assert_eq!(keys.len(), 8);
        for (nf, _) in &keys {
            assert_eq!(*nf, AgentSet::full(3).bits());
        }
    }

    #[test]
    fn model_run_sets_are_nested_along_the_hierarchy() {
        // FailureFree ⊆ Crash ⊆ SendingOmission ⊆ GeneralOmission, as
        // (N, trajectory) sets, strictly at (3, 1) for E_basic/P_basic
        // (strictness of FF ⊂ Crash needs a faulty-but-clean run, which
        // FF's single nonfaulty choice cannot produce).
        let ctx = Context::basic(Params::new(3, 1).unwrap());
        let chain = [
            FailureModel::FailureFree,
            FailureModel::Crash,
            FailureModel::SendingOmission,
            FailureModel::GeneralOmission,
        ];
        let sets: Vec<std::collections::HashSet<_>> = chain
            .iter()
            .map(|m| model_keys(&ctx, *m).into_iter().collect())
            .collect();
        for w in sets.windows(2) {
            assert!(w[0].is_subset(&w[1]));
            assert!(w[0].len() < w[1].len());
        }
    }

    #[test]
    fn crash_runs_never_revive_a_crashed_sender() {
        // Derived check on trajectories is hard in general, but the crash
        // expansion must at least stay within the SO run set and below
        // its cardinality (the crash adversary is strictly weaker for
        // E_basic at (3, 1), where senders can usefully revive).
        let ctx = Context::basic(Params::new(3, 1).unwrap());
        let crash: std::collections::HashSet<_> =
            model_keys(&ctx, FailureModel::Crash).into_iter().collect();
        let so: std::collections::HashSet<_> = model_keys(&ctx, FailureModel::SendingOmission)
            .into_iter()
            .collect();
        assert!(!crash.is_empty());
        assert!(crash.is_subset(&so));
        assert!(crash.len() < so.len());
    }

    #[test]
    fn general_omission_adds_receive_side_runs() {
        // Under GO a faulty *receiver* can miss a nonfaulty sender's
        // announcement — trajectories SO cannot produce.
        let ctx = Context::minimal(Params::new(3, 1).unwrap());
        let so: std::collections::HashSet<_> = model_keys(&ctx, FailureModel::SendingOmission)
            .into_iter()
            .collect();
        let go: std::collections::HashSet<_> = model_keys(&ctx, FailureModel::GeneralOmission)
            .into_iter()
            .collect();
        assert!(so.is_subset(&go));
        assert!(so.len() < go.len(), "GO must strictly extend SO");
    }

    #[test]
    fn context_model_steers_enumerate_into() {
        // `enumerate_into` follows the model carried by the context.
        let ctx =
            Context::minimal(Params::new(3, 1).unwrap()).with_model(FailureModel::FailureFree);
        let mut count = 0usize;
        let total = Scenario::of(&ctx)
            .horizon(4)
            .enumerate_into(&mut |_run: EnumRun<MinExchange>| {
                count += 1;
                Ok(())
            })
            .unwrap();
        assert_eq!((count, total), (8, 8));
    }

    #[test]
    fn parallel_matches_sequential_for_every_model() {
        for model in [
            FailureModel::FailureFree,
            FailureModel::Crash,
            FailureModel::GeneralOmission,
        ] {
            let ctx = Context::basic(Params::new(3, 1).unwrap()).with_model(model);
            let sequential = collect(&ctx, 4, Parallelism::Sequential);
            let parallel = collect(&ctx, 4, Parallelism::Fixed(4));
            assert_same_runs(&sequential, &parallel, &format!("{model:?}"));
        }
    }

    #[test]
    fn parallel_matches_sequential_exactly() {
        // The headline guarantee: same runs, same order, for every
        // worker count, including more workers than items.
        let ctx = Context::basic(Params::new(3, 1).unwrap());
        let sequential = collect(&ctx, 4, Parallelism::Sequential);
        for parallelism in [
            Parallelism::Sequential,
            Parallelism::Auto,
            Parallelism::Fixed(2),
            Parallelism::Fixed(3),
            Parallelism::Fixed(64),
        ] {
            let parallel = collect(&ctx, 4, parallelism);
            assert_same_runs(&sequential, &parallel, &format!("{parallelism:?}"));
        }
    }
}
