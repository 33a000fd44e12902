//! Checks the paper's claims and regenerates every table of its
//! evaluation as markdown (the content of `EXPERIMENTS.md`): the claims
//! ledger first, then each claim's table. Exits 1, after all output,
//! naming each broken row, if a claim broke.
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
//! `E_basic/P_basic@crash`) and prints its row of the failure-model
//! battery instead of the full evaluation. `--model` selects a failure
//! model (`failure_free`, `crash`, `sending_omission`,
//! `general_omission`): combined with `--stack` it qualifies that stack;
//! alone it runs the four-stack failure-model comparison battery.
//! `--n`/`--t` pick the instance (default `(3, 1)`).
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

/// Writes one line to stdout. A reader that closed the pipe (`… | head`)
/// wants no more output, so that ends the process quietly, exit 0, where
/// `println!` would panic; any other write error exits 1.
fn out(line: impl Display) {
    use std::io::{ErrorKind, Write};
    match writeln!(std::io::stdout(), "{line}") {
        Ok(()) => {}
        Err(e) if e.kind() == ErrorKind::BrokenPipe => std::process::exit(0),
        Err(e) => {
            eprintln!("error: writing stdout: {e}");
            std::process::exit(1)
        }
    }
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
    out(or_die(ex::fuzz_cli::run(&config)).text);
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
        out(or_die(ex::estimate_cli::run_corpus(&dir, &config)));
        return;
    }
    let Some(stack) = flags.qualified_stack() else {
        die("--estimate requires --stack or --corpus");
    };
    let config = ex::estimate_cli::EstimateCliConfig { stack, ..config };
    let report = or_die(ex::estimate_cli::run(&config));
    out(&report.text);
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
    out(table);
    if let Err(msg) = ex::service_cli::oracle_verdict(&report) {
        eprintln!("error: {msg}");
        std::process::exit(1);
    }
}

fn corpus(flags: &Flags) {
    let dir = flags.dir("--corpus").expect("--corpus selected this mode");
    out(or_die(ex::corpus::run(&dir)).1);
}

/// Whether a battery row's streamed spec check found violating runs (a
/// skipped enumeration has no verdict to explain).
fn spec_check_failed(row: &ex::model_battery::ModelBatteryRow) -> bool {
    matches!(row.enumerated_runs, Ok(total) if row.spec_ok_runs < total)
}

/// Re-examines one failing row through the compiled query engine and
/// prints its counterexample report (skipping, with a note, rows whose
/// run set is too large to build as an interpreted system).
fn print_explanation(stack: &str, n: usize, t: usize) {
    match ex::explain::explain(stack, n, t, ex::explain::SYSTEM_BUILD_LIMIT) {
        Ok(report) => out(report),
        Err(e) => eprintln!("--explain {stack}: skipped ({e})"),
    }
}

/// The battery's table: one stack's row (optionally qualified by
/// `--model`), or the four stacks under `--model`.
fn stack_or_battery(flags: &Flags) {
    let n = flags.num("--n", 3);
    let t = flags.num("--t", 1);
    let (rows, table) = or_die(match flags.qualified_stack() {
        Some(stack) => ex::model_battery::run_stack(&stack, n, t),
        None => {
            let model = flags.value("--model").expect("--model selected this mode");
            let model = or_die(eba_core::failures::FailureModel::by_name(model));
            ex::model_battery::run(model, n, t)
        }
    });
    out(table);
    if flags.has("--explain") {
        for row in rows.iter().filter(|row| spec_check_failed(row)) {
            print_explanation(&row.stack, n, t);
        }
    }
}

/// Prints the claims ledger, then every claim's table; exits 1, naming
/// each broken row, if a claim broke.
fn sweep(flags: &Flags) {
    let quick = flags.has("--quick");
    let t0 = std::time::Instant::now();
    let claims = ex::claims::sweep(quick);

    out("# Reproduced evaluation\n");
    out(format_args!(
        "Regenerated by `cargo run --release -p eba-experiments{}`.\n",
        if quick { " -- --quick" } else { "" }
    ));
    out(ex::claims::ledger(&claims));
    out(format_args!("{}\n", ex::claims::verdict(&claims)));
    for claim in &claims {
        out(&claim.table);
    }

    eprintln!("regenerated all tables in {:?}", t0.elapsed());
    let broken: Vec<&String> = claims.iter().flat_map(|c| &c.broken).collect();
    if !broken.is_empty() {
        for line in broken {
            eprintln!("error: {line}");
        }
        std::process::exit(1);
    }
}
