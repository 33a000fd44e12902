//! Regenerates every table/figure of the paper's evaluation and prints
//! them as markdown (the content of `EXPERIMENTS.md`).
//!
//! Usage: `cargo run --release -p eba-experiments [--quick]`
//!        `cargo run --release -p eba-experiments -- --stack <name> [--model <model>] [--n N] [--t T] [--explain]`
//!        `cargo run --release -p eba-experiments -- --model <model> [--n N] [--t T] [--explain]`
//!        `cargo run --release -p eba-experiments -- --corpus <dir>`
//!        `cargo run --release -p eba-experiments -- --fuzz --stack <name> [--model <model>] [--n N] [--t T] [--fuzz-seed S] [--fuzz-iters K] [--corpus <dir>] [--fuzz-out <path>]`
//!        `cargo run --release -p eba-experiments -- --estimate --stack <name> [--model <model>] [--n N] [--t T] [--trials K] [--confidence C] [--strata SCHEME] [--seed S] [--horizon H] [--workers W] [--self-check] [--estimate-out <dir>]`
//!        `cargo run --release -p eba-experiments -- --estimate --corpus <dir> [--trials K] [--confidence C] [--strata SCHEME] [--seed S] [--workers W]`
//!        `cargo run --release -p eba-experiments -- --load [--sessions K] [--capacity C] [--workers W] [--seed S] [--n N] [--t T] [--oracle-stride K]`
//!        `cargo run --release -p eba-experiments -- --serve <dir> [--capacity C] [--workers W]`
//!
//! Each line above is one mode with its complete flag list: a flag the
//! selected mode does not accept (a typo, or another mode's flag) is
//! `error: unknown flag <f> for <mode>`, exit 2, and a valued flag
//! followed by another flag is `error: <flag> expects a value`.
//!
//! `--quick` shrinks the sweeps and skips the heavyweight full-information
//! model check (E7's γ_fip row). `--stack` selects one registered stack by
//! name (e.g. `E_basic/P_basic`, optionally model-qualified as
//! `E_basic/P_basic@crash`) and runs the single-stack battery instead of
//! the full evaluation. `--model` selects a failure model (`failure_free`,
//! `crash`, `sending_omission`, `general_omission`): combined with
//! `--stack` it qualifies that stack; alone it runs the four-stack
//! failure-model comparison battery. `--n`/`--t` pick the instance
//! (default `(3, 1)`).
//! `--explain` (either selected mode) re-examines rows whose spec check
//! failed through the compiled query engine and prints one witnessing
//! `(run, time)` counterexample per violated EBA property, with the
//! run's failure-pattern footprint and initial preferences.
//! `--corpus <dir>` loads every `.eba` scenario file in the directory and
//! prints the per-scenario battery (load errors carry `file:line`).
//! `--fuzz` runs the coverage-guided adversary fuzzer on the selected
//! stack (`--fuzz-seed`/`--fuzz-iters` control the deterministic search,
//! default seed `0xEBA`, 2000 mutants), seeding from matching `--corpus`
//! scenarios when given, and writes the shrunk, oracle-confirmed `.eba`
//! repro to `--fuzz-out`.
//! `--estimate` runs the Monte Carlo statistical model checker on the
//! selected stack (or on every scenario of `--corpus <dir>`): seeded
//! i.i.d. trials from the `--strata` adversary mixture (`uniform`,
//! `stratified`, `importance`), reported as a violation-probability
//! estimate with Wilson/Clopper–Pearson intervals at `--confidence`.
//! `--self-check` cross-validates the interval against the exact mixture
//! probability (small instances only); `--estimate-out <dir>` exports
//! violating samples as `.eba` repros.
//! `--load` pushes a deterministic seeded session mix (all stacks × all
//! failure models, default 4096 sessions at capacity 1024) through the
//! multiplexed consensus service and prints its counts, wall time
//! and session-latency percentiles, oracle-checking every
//! `--oracle-stride`-th session against the lockstep simulator.
//! `--serve <dir>` runs every `.eba` scenario in a directory as a
//! concurrent service session with every decision oracle-checked.
//! Both exit 1, after the table, if a checked session disagrees.
//!
//! The binary's output is verdicts and counts. Performance is measured
//! in one place, the repo's benchmark under `bench/` (see
//! `bench/README.md`), not here.

use std::fmt::Display;
use std::path::PathBuf;
use std::str::FromStr;

use eba_experiments as ex;

/// Prints `error: <msg>` and exits 2 (the CLI's usage-error code).
fn die(msg: impl Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2)
}

fn or_die<T, E: Display>(result: Result<T, E>) -> T {
    result.unwrap_or_else(|e| die(e))
}

/// One CLI mode: how it is selected, the complete list of flags it
/// accepts, and the code that runs it.
struct Mode {
    /// The mode's name in error messages.
    name: &'static str,
    /// Any of these on the command line selects the mode.
    selectors: &'static [&'static str],
    /// Accepted flags that are followed by a value.
    valued: &'static [&'static str],
    /// Accepted flags that stand alone.
    switches: &'static [&'static str],
    run: fn(&Flags),
}

/// The modes in selection order: the first one with a selector on the
/// command line runs; the full sweep, which needs none, is the fallback.
const MODES: &[Mode] = &[
    Mode {
        name: "--fuzz",
        selectors: &["--fuzz"],
        valued: &[
            "--stack",
            "--model",
            "--n",
            "--t",
            "--fuzz-seed",
            "--fuzz-iters",
            "--corpus",
            "--fuzz-out",
        ],
        switches: &["--fuzz"],
        run: fuzz,
    },
    Mode {
        name: "--estimate",
        selectors: &["--estimate"],
        valued: &[
            "--stack",
            "--model",
            "--corpus",
            "--n",
            "--t",
            "--trials",
            "--confidence",
            "--strata",
            "--seed",
            "--horizon",
            "--workers",
            "--estimate-out",
        ],
        switches: &["--estimate", "--self-check"],
        run: estimate,
    },
    Mode {
        name: "--load",
        selectors: &["--load"],
        valued: &[
            "--sessions",
            "--capacity",
            "--workers",
            "--seed",
            "--n",
            "--t",
            "--oracle-stride",
        ],
        switches: &["--load"],
        run: load,
    },
    Mode {
        name: "--serve",
        selectors: &["--serve"],
        valued: &["--serve", "--capacity", "--workers"],
        switches: &[],
        run: serve,
    },
    Mode {
        name: "--corpus",
        selectors: &["--corpus"],
        valued: &["--corpus"],
        switches: &[],
        run: corpus,
    },
    Mode {
        name: "--stack/--model",
        selectors: &["--stack", "--model"],
        valued: &["--stack", "--model", "--n", "--t"],
        switches: &["--explain"],
        run: stack_or_battery,
    },
    Mode {
        name: "the full sweep",
        selectors: &[],
        valued: &[],
        switches: &["--quick"],
        run: sweep,
    },
];

/// The command line, checked against its mode's flag list.
struct Flags {
    values: Vec<(&'static str, String)>,
    switches: Vec<&'static str>,
}

impl Flags {
    /// Exits 2 on a flag `mode` does not accept and on a valued flag
    /// whose value is missing or is itself a flag.
    fn parse(args: &[String], mode: &Mode) -> Flags {
        let mut flags = Flags {
            values: Vec::new(),
            switches: Vec::new(),
        };
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            if let Some(flag) = mode.switches.iter().find(|f| *f == arg) {
                flags.switches.push(*flag);
            } else if let Some(flag) = mode.valued.iter().find(|f| *f == arg) {
                match args.next() {
                    Some(value) if !value.starts_with("--") => {
                        flags.values.push((*flag, value.clone()));
                    }
                    _ => die(format_args!("{flag} expects a value")),
                }
            } else {
                die(format_args!("unknown flag {arg} for {}", mode.name));
            }
        }
        flags
    }

    fn has(&self, switch: &str) -> bool {
        self.switches.contains(&switch)
    }

    fn value(&self, flag: &str) -> Option<&str> {
        let (_, value) = self.values.iter().find(|(f, _)| *f == flag)?;
        Some(value)
    }

    fn path(&self, flag: &str) -> Option<PathBuf> {
        self.value(flag).map(PathBuf::from)
    }

    /// The scenario directory `flag` names; one that cannot be read exits
    /// 2 naming the flag it was given to.
    fn dir(&self, flag: &str) -> Option<PathBuf> {
        let dir = self.path(flag)?;
        if let Err(e) = std::fs::read_dir(&dir) {
            die(format_args!("{flag} {}: {e}", dir.display()));
        }
        Some(dir)
    }

    /// The flag's value parsed as `T`; a value that does not parse exits 2
    /// saying what the flag `expects`.
    fn parsed<T: FromStr>(&self, flag: &str, expects: &str) -> Option<T> {
        self.value(flag).map(|v| {
            v.parse()
                .unwrap_or_else(|_| die(format_args!("{flag} expects {expects}, got {v:?}")))
        })
    }

    fn num<T: FromStr>(&self, flag: &str, default: T) -> T {
        self.parsed(flag, "an unsigned integer").unwrap_or(default)
    }

    /// `--stack` qualified by `--model`, when the mode was given a stack.
    fn qualified_stack(&self) -> Option<String> {
        let stack = self.value("--stack")?;
        Some(match self.value("--model") {
            Some(model) if stack.contains('@') => die(format_args!(
                "--stack {stack} is already model-qualified; \
                 drop --model {model} or the @qualifier"
            )),
            Some(model) => format!("{stack}@{model}"),
            None => stack.to_string(),
        })
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let given = |flag: &&str| args.iter().any(|a| a == flag);
    let mode = MODES
        .iter()
        .find(|m| m.selectors.is_empty() || m.selectors.iter().any(given))
        .expect("the full sweep needs no selector");
    (mode.run)(&Flags::parse(&args, mode));
}

fn fuzz(flags: &Flags) {
    let Some(stack) = flags.qualified_stack() else {
        die("--fuzz requires --stack");
    };
    let config = ex::fuzz_cli::FuzzCliConfig {
        stack,
        n: flags.num("--n", 3),
        t: flags.num("--t", 1),
        seed: flags.num("--fuzz-seed", 0xEBA),
        iterations: flags.num("--fuzz-iters", 2000),
        corpus: flags.dir("--corpus"),
        out: flags.path("--fuzz-out"),
    };
    println!("{}", or_die(ex::fuzz_cli::run(&config)).text);
}

fn estimate(flags: &Flags) {
    let defaults = ex::estimate_cli::EstimateCliConfig::default();
    let config = ex::estimate_cli::EstimateCliConfig {
        stack: String::new(), // filled below in single-stack mode
        n: flags.num("--n", defaults.n),
        t: flags.num("--t", defaults.t),
        trials: flags.num("--trials", defaults.trials),
        seed: flags.num("--seed", defaults.seed),
        confidence: flags
            .parsed("--confidence", "a number in (0, 1)")
            .unwrap_or(defaults.confidence),
        scheme: flags.value("--strata").map_or(defaults.scheme, |v| {
            or_die(eba_stat::plan::SampleScheme::by_name(v))
        }),
        horizon: flags.parsed("--horizon", "an unsigned integer"),
        workers: flags.num("--workers", defaults.workers),
        self_check: flags.has("--self-check"),
        out: flags.path("--estimate-out"),
    };
    if let Some(dir) = flags.dir("--corpus") {
        println!("{}", or_die(ex::estimate_cli::run_corpus(&dir, &config)));
        return;
    }
    let Some(stack) = flags.qualified_stack() else {
        die("--estimate requires --stack or --corpus");
    };
    let config = ex::estimate_cli::EstimateCliConfig { stack, ..config };
    let report = or_die(ex::estimate_cli::run(&config));
    println!("{}", report.text);
    if report.self_check.is_some_and(|sc| !sc.within) {
        eprintln!("error: self-check failed: estimate interval misses the exact probability");
        std::process::exit(1);
    }
}

fn load(flags: &Flags) {
    let defaults = ex::service_cli::LoadConfig::default();
    let config = ex::service_cli::LoadConfig {
        sessions: flags.num("--sessions", defaults.sessions),
        n: flags.num("--n", defaults.n),
        t: flags.num("--t", defaults.t),
        seed: flags.num("--seed", defaults.seed),
        workers: flags.num("--workers", defaults.workers),
        capacity: flags.num("--capacity", defaults.capacity),
        oracle_stride: flags.num("--oracle-stride", defaults.oracle_stride),
        ..defaults
    };
    print_service_run(or_die(ex::service_cli::run_load(&config)));
}

fn serve(flags: &Flags) {
    let dir = flags.dir("--serve").expect("--serve selected this mode");
    let workers = flags.num("--workers", 0);
    let capacity = flags.num("--capacity", 1024);
    print_service_run(or_die(ex::service_cli::run_serve(&dir, workers, capacity)));
}

/// Prints a service run's table, then exits 1 if its oracle check failed.
fn print_service_run((report, table): (eba_service::ServiceReport, ex::table::Table)) {
    println!("{table}");
    if let Err(msg) = ex::service_cli::oracle_verdict(&report) {
        eprintln!("error: {msg}");
        std::process::exit(1);
    }
}

fn corpus(flags: &Flags) {
    let dir = flags.dir("--corpus").expect("--corpus selected this mode");
    println!("{}", or_die(ex::corpus::run(&dir)).1);
}

/// Whether a battery/summary row's streamed spec check found violating
/// runs (a skipped enumeration has no verdict to explain).
fn spec_check_failed(enumerated: &Result<usize, eba_core::types::EbaError>, ok: usize) -> bool {
    matches!(enumerated, Ok(total) if ok < *total)
}

/// Re-examines one failing row through the compiled query engine and
/// prints its counterexample report (skipping, with a note, rows whose
/// run set is too large to build as an interpreted system).
fn print_explanation(stack: &str, n: usize, t: usize) {
    match ex::explain::explain(stack, n, t, ex::explain::SYSTEM_BUILD_LIMIT) {
        Ok(report) => println!("{report}"),
        Err(e) => eprintln!("--explain {stack}: skipped ({e})"),
    }
}

fn stack_or_battery(flags: &Flags) {
    let n = flags.num("--n", 3);
    let t = flags.num("--t", 1);
    let explain = flags.has("--explain");
    // One stack, optionally qualified by --model.
    if let Some(stack) = flags.qualified_stack() {
        let (summary, table) = or_die(ex::stack_summary::run(&stack, n, t));
        println!("{table}");
        if explain && spec_check_failed(&summary.enumerated_runs, summary.spec_ok_runs) {
            print_explanation(&summary.stack, n, t);
        }
        return;
    }
    // The four-stack comparison battery for one failure model.
    let model = flags.value("--model").expect("--model selected this mode");
    let model = or_die(eba_core::failures::FailureModel::by_name(model));
    let (rows, table) = or_die(ex::model_battery::run(model, n, t));
    println!("{table}");
    if explain {
        for row in &rows {
            if spec_check_failed(&row.enumerated_runs, row.spec_ok_runs) {
                print_explanation(&row.stack, n, t);
            }
        }
    }
}

fn sweep(flags: &Flags) {
    let quick = flags.has("--quick");
    let t0 = std::time::Instant::now();

    println!("# Reproduced evaluation\n");
    println!(
        "Regenerated by `cargo run --release -p eba-experiments{}`.\n",
        if quick { " -- --quick" } else { "" }
    );

    let e1_configs: &[(usize, usize)] = if quick {
        &[(4, 1), (8, 3)]
    } else {
        &[(4, 1), (6, 2), (8, 3), (12, 5), (16, 7), (20, 9), (24, 11)]
    };
    let (_, t1) = ex::e1_bits::run(e1_configs);
    println!("{t1}");

    let e2_ns: &[usize] = if quick {
        &[4, 6]
    } else {
        &[3, 4, 6, 9, 12, 16]
    };
    let (_, t2) = ex::e2_failure_free_zero::run(e2_ns);
    println!("{t2}");

    let e3_ts: &[usize] = if quick {
        &[1, 3]
    } else {
        &[0, 1, 2, 3, 4, 5, 7, 9]
    };
    let (_, t3) = ex::e3_failure_free_ones::run(12, e3_ts);
    println!("{t3}");

    let (n4, t4v) = if quick { (8, 3) } else { (20, 10) };
    let ks: Vec<usize> = (1..=t4v).collect();
    let (_, t4) = ex::e4_silent_faulty::run(n4, t4v, &ks);
    println!("{t4}");

    let e5_configs: &[(usize, usize)] = if quick {
        &[(4, 1)]
    } else {
        &[(4, 1), (5, 2), (6, 2), (7, 3)]
    };
    let trials = if quick { 100 } else { 1000 };
    let (_, t5) = ex::e5_termination::run(e5_configs, trials, 0.4, 0xEBA);
    println!("{t5}");

    let probs: Vec<f64> = (0..=10).map(|i| i as f64 / 10.0).collect();
    let e6_trials = if quick { 20 } else { 200 };
    let (_, t6) = ex::e6_latency_curves::run(8, 3, &probs, e6_trials, 0xEBA);
    println!("{t6}");

    let (_, t7) = ex::e7_implements::run(ex::e7_implements::E7Config {
        include_fip: !quick,
        include_n4_t2: !quick,
    });
    println!("{t7}");

    let (_, t8) = ex::e8_bias_counterexample::run(if quick { 100 } else { 1000 }, 0xEBA);
    println!("{t8}");

    // (3, 1) is exhaustively enumerable, so the full sweep also carries
    // the query-engine cross-check column for that row.
    let e9_configs: &[(usize, usize)] = if quick {
        &[(4, 1), (6, 2)]
    } else {
        &[(3, 1), (4, 1), (6, 2), (8, 3), (12, 5), (16, 7), (20, 9)]
    };
    let (_, t9) = ex::e9_ck_onset::run(e9_configs);
    println!("{t9}");

    eprintln!("regenerated all tables in {:?}", t0.elapsed());
}
