//! The `eba-experiments` command line checks every flag against the
//! selected mode's list: nothing is silently ignored.

use std::io::Read;
use std::process::{Command, Output, Stdio};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_eba-experiments"))
        .args(args)
        .output()
        .expect("the binary runs")
}

/// Asserts a usage error: exit 2, nothing on stdout, `message` on stderr.
fn assert_rejected(args: &[&str], message: &str) {
    let out = run(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(message), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} ran before failing");
}

#[test]
fn a_removed_flag_is_an_error_not_a_silent_full_sweep() {
    assert_rejected(
        &["--bench-json", "out.json"],
        "error: unknown flag --bench-json for the full sweep",
    );
    assert_rejected(
        &["--load", "--bench-json", "out.json"],
        "error: unknown flag --bench-json for --load",
    );
}

#[test]
fn a_misspelt_flag_names_itself_and_the_mode() {
    assert_rejected(
        &["--estimate", "--stack", "E_basic/P_basic", "--trails", "10"],
        "error: unknown flag --trails for --estimate",
    );
}

#[test]
fn another_modes_flag_is_rejected() {
    assert_rejected(
        &["--load", "--trials", "10"],
        "error: unknown flag --trials for --load",
    );
    assert_rejected(
        &["--model", "crash", "--quick"],
        "error: unknown flag --quick for --stack/--model",
    );
}

#[test]
fn a_flag_is_not_taken_as_another_flags_value() {
    assert_rejected(
        &[
            "--fuzz",
            "--stack",
            "E_naive/P_naive",
            "--fuzz-out",
            "--n",
            "3",
        ],
        "error: --fuzz-out expects a value",
    );
    assert_rejected(&["--stack"], "error: --stack expects a value");
}

#[test]
fn an_unreadable_directory_names_the_flag_it_was_given_to() {
    assert_rejected(
        &["--serve", "/nonexistent-eba-corpus"],
        "error: --serve /nonexistent-eba-corpus: ",
    );
    assert_rejected(
        &["--corpus", "/nonexistent-eba-corpus"],
        "error: --corpus /nonexistent-eba-corpus: ",
    );
}

#[test]
fn a_documented_command_line_still_runs() {
    let out = run(&["--stack", "E_min/P_min", "--n", "3", "--t", "1"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("E_min/P_min"));
}

#[test]
fn serve_exits_zero_on_the_oracle_clean_corpus() {
    // `--load`/`--serve` exit 1 on an oracle mismatch; the committed
    // corpus has none, and says so in the last cell of its row.
    let corpus = concat!(env!("CARGO_MANIFEST_DIR"), "/../../corpus");
    let out = run(&["--serve", corpus]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("| 10/10 ok |"), "{stdout}");
}

#[test]
fn a_reader_that_closes_the_pipe_early_ends_the_output_quietly() {
    // `… --explain | head -3`: the battery's table comes first, and the
    // pipe is closed while the explanation is still being computed.
    let mut child = Command::new(env!("CARGO_BIN_EXE_eba-experiments"))
        .args(["--stack", "E_naive/P_naive", "--explain"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("the binary runs");
    let mut head = [0; 16];
    let mut stdout = child.stdout.take().expect("stdout is piped");
    stdout.read_exact(&mut head).expect("the table starts");
    drop(stdout);
    let out = child.wait_with_output().expect("the binary exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(out.status.code(), Some(0), "{stderr}");
}
