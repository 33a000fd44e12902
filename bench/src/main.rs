//! The repo's benchmark. See `bench/README.md`.
//!
//! ```text
//! eba-perfbench run     --workload <name> [--seed N] [--seconds S] [--out FILE]
//! eba-perfbench trace   --workload <name> [--seed N]
//! eba-perfbench compare <base.json> <new.json>
//! eba-perfbench --workload <name> --seed N --seconds S --trace 0|1
//! ```
//!
//! The last form is the `BENCHMARK.json` contract: `--trace 0` is `run`,
//! `--trace 1` is `trace`. Both print their metrics by name and end with
//! one JSON line `{"correct", "attempted", "failed", "metrics"}`.

mod compare;
mod expect;
mod json;
mod layers;
mod metrics;
mod run;
mod span;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use json::Json;
use metrics::{MetricDef, END_TO_END, PER_LAYER};
use run::{Counts, Threads};
use span::Tracer;
use workloads::Inputs;

/// Measured seconds per run when `--seconds` is not given (the
/// `run_seconds` of `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 12.0;
/// Timed iterations never drop below this, whatever `--seconds` says.
const MIN_ITERATIONS: usize = 3;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// The untimed oracle pass re-checks every this-many-th session.
const ORACLE_STRIDE: usize = 16;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

fn usage() -> String {
    let names: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: eba-perfbench [run|trace] --workload <name> [--seed N] [--seconds S] \
         [--trace 0|1] [--out FILE]\n       eba-perfbench compare <base.json> <new.json>\n\
         workloads: {}",
        names.join(", ")
    )
}

fn parse_args(mut argv: Vec<String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: workloads::DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: None,
    };
    match argv.first().map(String::as_str) {
        Some("run") => drop(argv.remove(0)),
        Some("trace") => {
            args.trace = true;
            argv.remove(0);
        }
        _ => {}
    }
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => {
                args.seed = value()?
                    .parse()
                    .map_err(|e| format!("--seed: {e} (a u64 is expected)"))?
            }
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds: a positive number is expected")?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: expected 0 or 1, got '{other}'")),
                }
            }
            "--out" => args.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument '{other}'\n{}", usage())),
        }
    }
    if args.workload.is_empty() {
        return Err(usage());
    }
    Ok(args)
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// One reported metric: its value plus the quartiles and count of the
/// samples behind it.
struct Measured {
    def: &'static MetricDef,
    value: f64,
    q1: f64,
    q3: f64,
    samples: usize,
}

impl Measured {
    /// `value` stands for `samples` whose quartiles are recorded.
    fn new(name: &str, value: f64, samples: &[f64]) -> Measured {
        let def = END_TO_END
            .iter()
            .find(|d| d.name == name)
            .expect("a defined end-to-end metric");
        let (q1, _, q3) = stats::quartiles(samples);
        Measured {
            def,
            value,
            q1,
            q3,
            samples: samples.len(),
        }
    }

    fn row(&self) -> Json {
        Json::obj([
            ("value", Json::Num(self.value)),
            ("unit", Json::str(self.def.unit)),
            ("better", Json::str(self.def.better.name())),
            ("bound", Json::Num(self.def.bound)),
            ("q1", Json::Num(self.q1)),
            ("q3", Json::Num(self.q3)),
            ("samples", Json::Num(self.samples as f64)),
        ])
    }
}

/// The contract's last line.
fn final_line(correct: bool, attempted: u64, failed: u64, metrics: Json) -> String {
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", metrics),
    ])
    .compact()
}

fn value_and_unit(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
}

/// Generates the inputs and warms the process up on a slice of them.
fn set_up(args: &Args, threads: Threads, tracer: &Tracer) -> Result<(Inputs, String), String> {
    let inputs = tracer.span("bench.generate", || {
        workloads::generate(&args.workload, args.seed)
    })?;
    let digest = inputs.digest();
    tracer
        .span("bench.warm_up", || {
            run::iterate(&inputs.warm_up_slice(), threads, tracer)
        })
        .map_err(|e| e.to_string())?;
    Ok((inputs, digest))
}

/// Merges this workload's row into the results file (one file collects
/// the rows of every workload run with the same seed and threads).
fn merge_result(path: &Path, args: &Args, threads: Threads, row: Json) -> Result<(), String> {
    let fresh = || {
        Json::obj([
            ("schema", Json::str("eba-perfbench-v1")),
            ("seed", Json::Num(args.seed as f64)),
            ("threads", Json::Num(threads.threads as f64)),
            ("nproc", Json::Num(threads.nproc as f64)),
            ("workloads", Json::Obj(vec![])),
        ])
    };
    let same_run = |doc: &Json| {
        doc.get("seed").and_then(Json::as_f64) == Some(args.seed as f64)
            && doc.get("threads").and_then(Json::as_f64) == Some(threads.threads as f64)
            && doc.get("workloads").is_some()
    };
    let mut doc = std::fs::read_to_string(path)
        .ok()
        .and_then(|text| Json::parse(&text).ok())
        .filter(same_run)
        .unwrap_or_else(fresh);
    let mut rows = doc.get("workloads").cloned().expect("checked above");
    rows.set(&args.workload, row);
    doc.set("workloads", rows);
    write_file(path, &doc.pretty())
}

fn peak_rss() -> Result<f64, String> {
    stats::peak_rss_mib().ok_or_else(|| "cannot read VmHWM from /proc/self/status".into())
}

/// Everything the timed part of an end-to-end run observed.
struct Observed {
    digest: String,
    setups_s: Vec<f64>,
    /// `ops ÷ wall` of each timed iteration.
    rates: Vec<f64>,
    /// Each iteration's own median latency.
    iteration_p50s_ms: Vec<f64>,
    /// Every operation's latency, pooled over the iterations.
    latencies_ms: Vec<f64>,
    timed_s: f64,
    /// `VmHWM` once the first timed iteration is done.
    first_iteration_rss_mib: f64,
    attempted: u64,
    failed: u64,
    counts: Counts,
    /// Output-check mismatches, one message each.
    problems: Vec<String>,
}

/// Sets up, runs the timed iterations and the output checks.
fn observe(args: &Args, threads: Threads) -> Result<Observed, String> {
    let tracer = Tracer::new(false);
    let mut setups_s = Vec::with_capacity(SETUPS);
    let mut ready = None;
    for _ in 0..SETUPS {
        drop(ready.take());
        let t0 = Instant::now();
        ready = Some(set_up(args, threads, &tracer)?);
        setups_s.push(t0.elapsed().as_secs_f64());
    }
    let (inputs, digest) = ready.expect("SETUPS > 0");

    let mut seen = Observed {
        digest,
        setups_s,
        rates: Vec::new(),
        iteration_p50s_ms: Vec::new(),
        latencies_ms: Vec::new(),
        timed_s: 0.0,
        first_iteration_rss_mib: 0.0,
        attempted: 0,
        failed: 0,
        counts: Counts::new(),
        problems: Vec::new(),
    };
    // Whole iterations only: stop once another one would overshoot
    // `--seconds` by more than it undershoots now.
    while seen.rates.len() < MIN_ITERATIONS
        || seen.timed_s + 0.5 * seen.timed_s / seen.rates.len() as f64 <= args.seconds
    {
        let it = run::iterate(&inputs, threads, &tracer).map_err(|e| e.to_string())?;
        seen.timed_s += it.wall_s;
        seen.rates.push(it.ops as f64 / it.wall_s);
        seen.iteration_p50s_ms
            .push(stats::percentile(&it.latencies_s, 0.5) * 1e3);
        seen.latencies_ms
            .extend(it.latencies_s.iter().map(|s| s * 1e3));
        seen.attempted += it.attempted;
        seen.failed += it.failed;
        if !seen.counts.is_empty() && seen.counts != it.counts {
            seen.problems
                .push(format!("iteration {}: counts changed", seen.rates.len()));
        }
        seen.counts = it.counts;
        if seen.rates.len() == 1 {
            seen.first_iteration_rss_mib = peak_rss()?;
        }
    }
    if let Inputs::Service { specs, capacity } = &inputs {
        let (checked, wrong) = run::service_oracle_pass(
            specs,
            ORACLE_STRIDE,
            *capacity,
            threads.service_workers(),
            &tracer,
        )
        .map_err(|e| e.to_string())?;
        seen.attempted += checked;
        seen.failed += wrong;
        seen.counts.insert("oracle_checked".into(), checked);
    }
    seen.problems.extend(expect::check(
        &args.workload,
        args.seed,
        &seen.digest,
        &seen.counts,
    ));
    Ok(seen)
}

fn run_end_to_end(args: &Args, threads: Threads) -> Result<bool, String> {
    let seen = observe(args, threads)?;
    let exit_rss = peak_rss()?;
    let (attempted, failed) = (seen.attempted, seen.failed);
    let failed_share = failed as f64 / attempted as f64;
    let correct = failed == 0 && seen.problems.is_empty();
    let measured = [
        Measured::new("setup_s", stats::median(&seen.setups_s), &seen.setups_s),
        Measured::new("ops_per_s", stats::median(&seen.rates), &seen.rates),
        Measured::new(
            "op_p50_ms",
            stats::percentile(&seen.latencies_ms, 0.5),
            &seen.iteration_p50s_ms,
        ),
        Measured::new(
            "peak_rss_mib",
            seen.first_iteration_rss_mib,
            &[seen.first_iteration_rss_mib],
        ),
    ];
    // Reported but not gated: the tail needs more samples than the
    // non-service workloads have and more quiet than this sandbox has;
    // RSS at exit steps by tens of MiB with allocator history.
    let p99 = stats::percentile(&seen.latencies_ms, 0.99);

    println!(
        "workload {}  seed {}  threads {} (nproc {})  digest {}",
        args.workload, args.seed, threads.threads, threads.nproc, seen.digest
    );
    if let Some(def) = workloads::WORKLOADS
        .iter()
        .find(|w| w.name == args.workload)
    {
        println!("why: {}", def.why);
    }
    println!(
        "{} timed iterations in {:.2} s, {SETUPS} set-ups, {} latency samples; \
         attempted {attempted}, failed {failed}",
        seen.rates.len(),
        seen.timed_s,
        seen.latencies_ms.len()
    );
    for m in &measured {
        println!(
            "  {:<14} {:>14.4} {:<4} (q1 {:.4}, q3 {:.4}, n = {})",
            m.def.name, m.value, m.def.unit, m.q1, m.q3, m.samples
        );
    }
    println!("  {:<14} {p99:>14.4} ms   (not gated)", "op_p99_ms");
    println!("  {:<14} {exit_rss:>14.4} MiB  (not gated)", "exit_rss_mib");
    println!("  {:<14} {failed_share:>14.6}", "failed_share");
    for (name, count) in &seen.counts {
        println!("  count {name} = {count}");
    }
    for problem in &seen.problems {
        println!("  MISMATCH {problem}");
    }

    let row = Json::obj([
        ("digest", Json::str(&seen.digest)),
        ("iterations", Json::Num(seen.rates.len() as f64)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("failed_share", Json::Num(failed_share)),
        ("correct", Json::Bool(correct)),
        (
            "metrics",
            Json::obj(measured.iter().map(|m| (m.def.name, m.row()))),
        ),
        ("op_p99_ms", Json::Num(p99)),
        ("exit_rss_mib", Json::Num(exit_rss)),
        (
            "counts",
            Json::obj(
                seen.counts
                    .iter()
                    .map(|(k, v)| (k.as_str(), Json::Num(*v as f64))),
            ),
        ),
    ]);
    let path = args.out.clone().unwrap_or_else(|| {
        out_dir().join(format!(
            "results-seed{}-threads{}.json",
            args.seed, threads.threads
        ))
    });
    merge_result(&path, args, threads, row)?;
    println!("result row written to {}", path.display());

    let metrics = Json::obj(
        measured
            .iter()
            .map(|m| (m.def.name, value_and_unit(m.value, m.def.unit))),
    );
    println!("{}", final_line(correct, attempted, failed, metrics));
    Ok(correct)
}

fn run_traced(args: &Args, threads: Threads) -> Result<bool, String> {
    let tracer = Tracer::new(true);
    let (inputs, digest) = set_up(args, threads, &tracer)?;

    // The same iteration with the tracer off and on: the difference is
    // what the spans cost.
    let plain = run::iterate(&inputs, threads, &Tracer::new(false)).map_err(|e| e.to_string())?;
    tracer.set_iteration(1);
    let traced = tracer
        .span("workload.iteration", || {
            run::iterate(&inputs, threads, &tracer)
        })
        .map_err(|e| e.to_string())?;
    tracer.set_iteration(0);
    drop(inputs);

    let mut layers = layers::Layers {
        seed: args.seed,
        threads,
        tracer: &tracer,
        metrics: BTreeMap::new(),
    };
    let probes = layers.run_all();
    let mut values = layers.metrics;
    values.insert("workload.iteration_s", plain.wall_s);
    values.insert("workload.traced_iteration_s", traced.wall_s);
    values.insert(
        "trace_overhead_share",
        (traced.wall_s - plain.wall_s) / plain.wall_s,
    );

    let spans = tracer.spans();
    let trace_path = out_dir().join(format!("trace-{}.json", args.workload));
    write_file(
        &trace_path,
        &span::chrome_trace(&spans, &args.workload).compact(),
    )?;

    println!(
        "traced run of {}  seed {}  threads {} (nproc {})  digest {digest}",
        args.workload, args.seed, threads.threads, threads.nproc
    );
    println!("self time by span (s), {} spans:", spans.len());
    let mut self_s: BTreeMap<&str, (f64, usize)> = BTreeMap::new();
    for (span, ns) in spans.iter().zip(span::self_times_ns(&spans)) {
        let entry = self_s.entry(&span.name).or_default();
        entry.0 += ns as f64 * 1e-9;
        entry.1 += 1;
    }
    for (name, (seconds, count)) in &self_s {
        println!("  {name:<36} {seconds:>10.4}  x{count}");
    }
    println!("per-layer metrics:");
    let mut missing = Vec::new();
    let mut reported = Vec::new();
    for def in &PER_LAYER {
        match values.get(def.name) {
            Some(value) => {
                println!("  {:<38} {:>16.4} {}", def.name, value, def.unit);
                reported.push((def.name, value_and_unit(*value, def.unit)));
            }
            None => missing.push(def.name),
        }
    }
    println!("trace written to {}", trace_path.display());
    if let Err(problem) = &probes {
        println!("  PROBE FAILED {problem}");
    }
    if !missing.is_empty() {
        return Err(format!("per-layer metrics not measured: {missing:?}"));
    }
    let failed = plain.failed + traced.failed;
    let correct = failed == 0 && probes.is_ok();
    println!(
        "{}",
        final_line(
            correct,
            plain.attempted + traced.attempted,
            failed,
            Json::obj(reported)
        )
    );
    Ok(correct)
}

fn run_compare(paths: &[String]) -> Result<bool, String> {
    let [base, new] = paths else {
        return Err(usage());
    };
    let load = |path: &String| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let comparison = compare::compare(&load(base)?, &load(new)?)?;
    print!("{}", comparison.render());
    let regressed = comparison.regressed();
    println!("{}", if regressed { "REGRESSION" } else { "ok" });
    Ok(!regressed)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if argv.first().is_some_and(|a| a == "compare") {
        run_compare(&argv[1..])
    } else {
        parse_args(argv).and_then(|args| {
            let threads = Threads::resolve();
            if args.trace {
                run_traced(&args, threads)
            } else {
                run_end_to_end(&args, threads)
            }
        })
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn the_contract_flags_and_the_subcommands_parse_alike() {
        let a = parse_args(argv(&[
            "--workload",
            "service_fip_n8",
            "--seed",
            "9",
            "--seconds",
            "2",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert!(a.trace && a.seed == 9 && a.seconds == 2.0 && a.workload == "service_fip_n8");
        let b = parse_args(argv(&["trace", "--workload", "service_fip_n8"])).unwrap();
        assert!(b.trace && b.seed == workloads::DEFAULT_SEED && b.seconds == DEFAULT_SECONDS);
        let c = parse_args(argv(&["run", "--workload", "x", "--out", "o.json"])).unwrap();
        assert!(!c.trace && c.out == Some(PathBuf::from("o.json")));
        for bad in [
            &["--seed", "1"][..],
            &["--workload"],
            &["--workload", "x", "--trace", "2"],
            &["--workload", "x", "--seconds", "0"],
            &["--workload", "x", "--bogus"],
        ] {
            assert!(parse_args(argv(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn the_final_line_has_exactly_the_contract_keys() {
        let line = final_line(
            true,
            10,
            0,
            Json::obj([("setup_s", value_and_unit(0.8127, "s"))]),
        );
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":10,"failed":0,"metrics":{"setup_s":{"value":0.8127,"unit":"s"}}}"#
        );
    }

    /// `BENCHMARK.json` is outside `bench/`, so it cannot be generated
    /// from the tables here; this keeps the two in step instead.
    #[test]
    fn benchmark_json_lists_the_same_workloads_and_metrics() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let keys: Vec<&str> = doc.entries().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(doc.get("run_seconds"), Some(&Json::Num(DEFAULT_SECONDS)));
        let list = |key: &str| match doc.get(key) {
            Some(Json::Arr(items)) => items.clone(),
            other => panic!("{key}: {other:?}"),
        };
        let text =
            |item: &Json, key: &str| item.get(key).and_then(Json::as_str).unwrap().to_string();
        let listed: Vec<(String, String)> = list("workloads")
            .iter()
            .map(|w| (text(w, "name"), text(w, "why")))
            .collect();
        let defined: Vec<(String, String)> = workloads::WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(listed, defined);
        for (key, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let items = list(key);
            assert_eq!(items.len(), defs.len(), "{key}");
            for (item, def) in items.iter().zip(defs) {
                assert_eq!(text(item, "name"), def.name);
                assert_eq!(text(item, "unit"), def.unit, "{}", def.name);
                assert_eq!(text(item, "better"), def.better.name(), "{}", def.name);
                let bound = item.get("bound").and_then(Json::as_f64);
                if key == "end_to_end" {
                    assert_eq!(bound, Some(def.bound), "{}", def.name);
                } else {
                    assert_eq!(bound, None, "{}", def.name);
                }
            }
        }
    }
}
