//! The five workloads and their seeded input generator.
//!
//! Every input is built here from `--seed` with `AdversarySampler` and
//! the `rand` shim; the layers only ever receive the generated
//! `SessionSpec`s / `TrialPlan` / stack names. The sizes are fixed: a
//! workload is a definition, not a knob.

use eba_core::prelude::*;
use eba_service::SessionSpec;
use eba_stat::prelude::{SampleScheme, TrialPlan};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Seed used when none is given (and by the committed baseline).
pub const DEFAULT_SEED: u64 = 3770;

/// A workload's name and the reason it exists (also in `BENCHMARK.json`).
pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadDef; 5] = [
    WorkloadDef {
        name: "service_mixed_n3",
        why: "262,144 tiny (3,1) sessions over all stacks and models: executor, mailboxes and session table do the work",
    },
    WorkloadDef {
        name: "service_fip_n8",
        why: "16,384 E_fip (8,3) sessions whose frames are whole graphs: codec and graph analysis dominate, scheduler is small",
    },
    WorkloadDef {
        name: "modelcheck_fip_so_n3",
        why: "full E_fip/P_opt sending-omission verdict, 98,312 runs: interning, bitset queries and the implements pass carry weight",
    },
    WorkloadDef {
        name: "modelcheck_basic_go_n3",
        why: "E_basic general-omission verdict: 3,260 runs survive a far larger drop-subset DFS, so enumeration is nearly all of it",
    },
    WorkloadDef {
        name: "estimate_basic_n16",
        why: "250,000 Monte Carlo trials of E_basic at (16,4): sampler, per-trial round loop and judge; no executor, codec or queries",
    },
];

/// Per-message drop probability of the sampled service adversaries.
const DROP_PROB: f64 = 0.25;

/// Sessions per timed iteration and table capacity (= closed-loop client
/// count) of `service_mixed_n3`.
pub const MIXED_SESSIONS: usize = 262_144;
pub const MIXED_CAPACITY: usize = 1024;
/// Likewise for `service_fip_n8`.
pub const FIP_SESSIONS: usize = 16_384;
pub const FIP_CAPACITY: usize = 256;

/// The generated inputs of one workload.
pub enum Inputs {
    /// A batch of sessions pushed through `run_service` at `capacity`.
    Service {
        specs: Vec<SessionSpec>,
        capacity: usize,
    },
    /// `pipelines` full model-check pipelines of one registry stack.
    Modelcheck {
        stack: &'static str,
        params: Params,
        horizon: u32,
        pipelines: usize,
    },
    /// One `estimate()` call.
    Estimate {
        stack: &'static str,
        params: Params,
        plan: TrialPlan,
    },
}

/// FNV-1a over a canonical encoding of the inputs: two runs that print
/// the same digest measured the same inputs.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }
}

/// Keeps the workloads' random streams apart under one `--seed`.
fn stream(seed: u64, name: &str) -> StdRng {
    let mut tag = Digest::new();
    tag.bytes(name.as_bytes());
    StdRng::seed_from_u64(seed ^ tag.0)
}

/// Uniform initial preferences for `n` agents.
pub fn random_inits(rng: &mut StdRng, n: usize) -> Vec<Value> {
    (0..n)
        .map(|_| Value::from_bit(rng.random_range(0..2u8)))
        .collect()
}

fn sampled_specs(
    rng: &mut StdRng,
    params: Params,
    sessions: usize,
    stack_and_model: impl Fn(usize) -> (&'static str, &'static str),
) -> Vec<SessionSpec> {
    let horizon = params.default_horizon();
    (0..sessions)
        .map(|i| {
            let (stack, model_name) = stack_and_model(i);
            let model = FailureModel::by_name(model_name).expect("registered model");
            let pattern = AdversarySampler::new(model, params, horizon, DROP_PROB).sample(rng);
            let inits = random_inits(rng, params.n());
            SessionSpec::new(
                format!("{stack}{}", model.suffix()),
                params,
                pattern,
                inits,
                horizon,
            )
        })
        .collect()
}

/// The first `sessions` specs of the `service_mixed_n3` stream: all four
/// stacks × all four failure models round-robin at `(3, 1)`.
pub fn mixed_n3_specs(seed: u64, sessions: usize) -> Vec<SessionSpec> {
    let params = Params::new(3, 1).expect("valid params");
    sampled_specs(
        &mut stream(seed, "service_mixed_n3"),
        params,
        sessions,
        |i| {
            (
                STACK_NAMES[i % STACK_NAMES.len()],
                MODEL_NAMES[(i / STACK_NAMES.len()) % MODEL_NAMES.len()],
            )
        },
    )
}

/// The first `sessions` specs of the `service_fip_n8` stream:
/// `E_fip/P_opt` at `(8, 3)` with the failure model rotated.
pub fn fip_n8_specs(seed: u64, sessions: usize) -> Vec<SessionSpec> {
    let params = Params::new(8, 3).expect("valid params");
    sampled_specs(&mut stream(seed, "service_fip_n8"), params, sessions, |i| {
        ("E_fip/P_opt", MODEL_NAMES[i % MODEL_NAMES.len()])
    })
}

/// Builds the named workload's inputs from `seed`.
pub fn generate(name: &str, seed: u64) -> Result<Inputs, String> {
    let n3 = Params::new(3, 1).expect("valid params");
    Ok(match name {
        "service_mixed_n3" => Inputs::Service {
            specs: mixed_n3_specs(seed, MIXED_SESSIONS),
            capacity: MIXED_CAPACITY,
        },
        "service_fip_n8" => Inputs::Service {
            specs: fip_n8_specs(seed, FIP_SESSIONS),
            capacity: FIP_CAPACITY,
        },
        // Exhaustive workloads: the context *is* the input, so the seed
        // does not change it (and their digest is the same for any seed).
        "modelcheck_fip_so_n3" => Inputs::Modelcheck {
            stack: "E_fip/P_opt@sending_omission",
            params: n3,
            horizon: 4,
            pipelines: 2,
        },
        "modelcheck_basic_go_n3" => Inputs::Modelcheck {
            stack: "E_basic/P_basic@general_omission",
            params: n3,
            horizon: 4,
            pipelines: 16,
        },
        "estimate_basic_n16" => {
            let params = Params::new(16, 4).expect("valid params");
            Inputs::Estimate {
                stack: "E_basic/P_basic",
                params,
                plan: TrialPlan {
                    trials: 250_000,
                    seed: stream(seed, name).random(),
                    confidence: 0.95,
                    horizon: params.default_horizon(),
                    scheme: SampleScheme::Stratified,
                },
            }
        }
        other => {
            let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!(
                "unknown workload '{other}' (known: {})",
                known.join(", ")
            ));
        }
    })
}

impl Inputs {
    /// A reduced copy for warming the process up before timing: an
    /// eighth of the sessions or trials, or a single pipeline.
    pub fn warm_up_slice(&self) -> Inputs {
        match self {
            Inputs::Service { specs, capacity } => Inputs::Service {
                specs: specs[..specs.len() / 8].to_vec(),
                capacity: *capacity,
            },
            Inputs::Modelcheck {
                stack,
                params,
                horizon,
                ..
            } => Inputs::Modelcheck {
                stack,
                params: *params,
                horizon: *horizon,
                pipelines: 1,
            },
            Inputs::Estimate {
                stack,
                params,
                plan,
            } => Inputs::Estimate {
                stack,
                params: *params,
                plan: TrialPlan {
                    trials: plan.trials / 8,
                    ..*plan
                },
            },
        }
    }

    /// The input digest, as printed and pinned in `expect/`.
    pub fn digest(&self) -> String {
        let mut d = Digest::new();
        match self {
            Inputs::Service { specs, capacity } => {
                d.word(*capacity as u64);
                for spec in specs {
                    d.bytes(spec.stack.as_bytes());
                    d.word(spec.params.n() as u64);
                    d.word(spec.params.t() as u64);
                    d.word(u64::from(spec.horizon));
                    d.word(spec.pattern.nonfaulty().bits() as u64);
                    for v in &spec.inits {
                        d.bytes(&[v.as_bit()]);
                    }
                    for m in 0..spec.horizon {
                        for from in spec.params.agents() {
                            let mut row = 0u64;
                            for to in spec.params.agents() {
                                row = row << 1 | u64::from(spec.pattern.delivers(m, from, to));
                            }
                            d.word(row);
                        }
                    }
                }
            }
            Inputs::Modelcheck {
                stack,
                params,
                horizon,
                pipelines,
            } => {
                d.bytes(stack.as_bytes());
                d.word(params.n() as u64);
                d.word(params.t() as u64);
                d.word(u64::from(*horizon));
                d.word(*pipelines as u64);
            }
            Inputs::Estimate {
                stack,
                params,
                plan,
            } => {
                d.bytes(stack.as_bytes());
                d.word(params.n() as u64);
                d.word(params.t() as u64);
                d.word(plan.trials);
                d.word(plan.seed);
                d.word(plan.confidence.to_bits());
                d.word(u64::from(plan.horizon));
                d.bytes(plan.scheme.name().as_bytes());
            }
        }
        format!("{:016x}", d.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(seed: u64) -> Inputs {
        Inputs::Service {
            specs: mixed_n3_specs(seed, 512),
            capacity: 64,
        }
    }

    #[test]
    fn same_seed_same_digest_different_seed_different_digest() {
        assert_eq!(small(7).digest(), small(7).digest());
        assert_ne!(small(7).digest(), small(8).digest());
        let fip = |seed| Inputs::Service {
            specs: fip_n8_specs(seed, 64),
            capacity: 8,
        };
        assert_eq!(fip(7).digest(), fip(7).digest());
        assert_ne!(fip(7).digest(), fip(8).digest());
        let est = |seed| generate("estimate_basic_n16", seed).unwrap().digest();
        assert_eq!(est(7), est(7));
        assert_ne!(est(7), est(8));
    }

    #[test]
    fn a_prefix_of_the_stream_is_the_stream() {
        let long = mixed_n3_specs(11, 64);
        let short = mixed_n3_specs(11, 16);
        for (a, b) in long.iter().zip(&short) {
            assert_eq!(a.stack, b.stack);
            assert_eq!(a.inits, b.inits);
            assert_eq!(a.pattern.nonfaulty(), b.pattern.nonfaulty());
        }
    }

    #[test]
    fn the_mix_covers_every_stack_and_model() {
        let specs = mixed_n3_specs(1, 16);
        let mut names: Vec<&str> = specs.iter().map(|s| s.stack.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 16);
        for spec in &specs {
            spec.build_engine()
                .expect("every generated spec is admissible");
        }
        assert!(generate("nope", 1).is_err_and(|e| e.contains("service_fip_n8")));
    }

    #[test]
    fn workload_names_and_whys_fit_the_manifest_limits() {
        for w in &WORKLOADS {
            assert!(w.name.len() <= 64 && w.why.len() <= 200, "{}", w.name);
            assert!(!w.why.contains('\n'));
        }
    }
}
