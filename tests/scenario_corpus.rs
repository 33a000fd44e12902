//! The `.eba` scenario format round-trips: for every registered stack and
//! every failure model, a randomly generated admissible scenario prints to
//! a canonical text that re-parses to the identical [`ScenarioSpec`] — and
//! malformed fixtures are rejected with the offending field and 1-based
//! line named. What the committed `corpus/` scenarios run to is pinned in
//! `tests/engines_agree.rs`'s case table.

use eba::core::corpus::ParseError;
use eba::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random admissible scenario of the given stack/model shape: `t` up
/// to `(n - 1) / 2`, and the pattern and inputs drawn as the case table
/// of `tests/engines_agree.rs` draws them, with `AdversarySampler`.
fn random_spec(stack: &str, model: FailureModel, n: usize, seed: u64) -> ScenarioSpec {
    let mut rng = StdRng::seed_from_u64(seed);
    let params = Params::new(n, rng.random_range(1..=(n - 1) / 2)).unwrap();
    let horizon = params.default_horizon();
    let pattern = AdversarySampler::new(model, params, horizon, 0.3).sample(&mut rng);
    let bits = (0..n).map(|_| rng.random_range(0..2));
    let inits = bits.map(Value::from_bit).collect();
    let case = Case {
        pattern,
        inits,
        horizon,
    };
    let stack = stack.into();
    ScenarioSpec { stack, model, case }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// print ∘ parse ≡ id over every stack × model, and printing is
    /// idempotent (the canonical form re-prints to itself).
    #[test]
    fn printed_scenarios_reparse_identically(
        stack_idx in 0usize..4,
        model_idx in 0usize..4,
        n in 3usize..6,
        seed in any::<u64>(),
    ) {
        let stack = STACK_NAMES[stack_idx];
        let model = FailureModel::by_name(MODEL_NAMES[model_idx]).unwrap();
        let spec = random_spec(stack, model, n, seed);
        prop_assert!(spec.validate().is_ok(), "generated spec must be admissible");

        let printed = spec.print();
        let parsed = parse_scenario(&printed)
            .unwrap_or_else(|e| panic!("canonical text must re-parse: {e}\n{printed}"));
        prop_assert_eq!(&parsed.spec, &spec);
        prop_assert_eq!(parsed.spec.print(), printed);
        // The qualified name resolves in the registry.
        prop_assert!(parsed.spec.to_stack().is_ok());
    }
}

/// A minimal valid scenario text the malformed fixtures are derived from.
const VALID: &str = "stack = E_basic/P_basic\n\
                     model = general_omission\n\
                     n = 4\n\
                     t = 1\n\
                     inits = 0 1 1 0\n\
                     nonfaulty = 0 1 2\n\
                     drop = round 0 from 3 to 0 1\n";

fn reject(text: &str) -> ParseError {
    parse_scenario(text).expect_err("fixture must be rejected")
}

#[test]
fn the_valid_fixture_parses() {
    let parsed = parse_scenario(VALID).unwrap();
    assert_eq!(
        parsed.spec.qualified_stack(),
        "E_basic/P_basic@general_omission"
    );
    assert_eq!(parsed.spec.case.pattern.count_drops(), 2);
    assert!(parsed.spec.validate().is_ok());
}

#[test]
fn unknown_stacks_are_rejected_naming_the_field() {
    let e = reject(&VALID.replace("E_basic/P_basic", "E_bogus/P_bogus"));
    assert_eq!((e.field, e.line), ("stack", 1), "{e}");
    assert!(e.message.contains("E_bogus"), "{e}");
}

#[test]
fn qualified_stack_names_are_rejected() {
    let e = reject(&VALID.replace("E_basic/P_basic", "E_basic/P_basic@crash"));
    assert_eq!((e.field, e.line), ("stack", 1), "{e}");
    assert!(e.message.contains("no `@` qualifier"), "{e}");
}

#[test]
fn unknown_models_are_rejected_naming_the_field() {
    let e = reject(&VALID.replace("general_omission", "byzantine"));
    assert_eq!((e.field, e.line), ("model", 2), "{e}");
}

#[test]
fn non_bit_inits_are_rejected_naming_the_field() {
    let e = reject(&VALID.replace("inits = 0 1 1 0", "inits = 0 2 1 0"));
    assert_eq!((e.field, e.line), ("inits", 5), "{e}");
    assert!(e.message.contains("\"2\""), "{e}");
}

#[test]
fn out_of_range_agents_are_rejected_naming_the_field() {
    let e = reject(&VALID.replace("nonfaulty = 0 1 2", "nonfaulty = 0 1 9"));
    assert_eq!((e.field, e.line), ("nonfaulty", 6), "{e}");
    let e = reject(&VALID.replace("from 3 to 0 1", "from 9 to 0 1"));
    assert_eq!((e.field, e.line), ("drop", 7), "{e}");
}

#[test]
fn malformed_drop_grammar_is_rejected_naming_the_field() {
    let e = reject(&VALID.replace("round 0 from 3 to 0 1", "0 -> 3"));
    assert_eq!((e.field, e.line), ("drop", 7), "{e}");
    assert!(e.message.contains("round <m> from <i> to <j>"), "{e}");
}

#[test]
fn duplicate_keys_are_rejected() {
    let e = reject(&format!("{VALID}n = 5\n"));
    assert_eq!((e.field, e.line), ("n", 8), "{e}");
    assert!(e.message.contains("duplicate"), "{e}");
}

#[test]
fn missing_required_keys_are_rejected() {
    for (key, field) in [
        ("stack = E_basic/P_basic\n", "stack"),
        ("model = general_omission\n", "model"),
        ("n = 4\n", "n"),
        ("t = 1\n", "t"),
        ("inits = 0 1 1 0\n", "inits"),
    ] {
        let e = reject(&VALID.replace(key, ""));
        assert_eq!(e.field, field, "{e}");
        assert_eq!(e.line, 0, "whole-file problems carry no line: {e}");
    }
}

#[test]
fn unknown_keys_and_non_assignments_are_rejected() {
    for key in ["speed = 11", "limit = 100"] {
        let e = reject(&format!("{VALID}{key}\n"));
        assert_eq!((e.field, e.line), ("line", 8), "{e}");
        assert!(e.message.contains("unknown key"), "{e}");
    }
    let e = reject("stack E_basic/P_basic\n");
    assert_eq!((e.field, e.line), ("line", 1), "{e}");
}

/// The pattern is built while parsing, so each of its errors names the
/// line that caused it, not the file's first drop.
#[test]
fn pattern_errors_name_their_own_line() {
    // Two faulty agents for t = 1.
    let e = reject(&VALID.replace("nonfaulty = 0 1 2", "nonfaulty = 0 1"));
    assert_eq!((e.field, e.line), ("nonfaulty", 6), "{e}");
    assert!(e.message.contains("exceeds t = 1"), "{e}");

    // The second drop line drops a1 → a2, both nonfaulty.
    let e = reject(&format!("{VALID}drop = round 1 from 1 to 2\n"));
    assert_eq!((e.field, e.line), ("drop", 8), "{e}");
    assert!(e.message.contains("between nonfaulty agents"), "{e}");

    // (4, 1) runs t + 3 = 4 rounds by default: round 3 is the last one.
    assert!(parse_scenario(&VALID.replace("round 0", "round 3")).is_ok());
    let e = reject(&VALID.replace("round 0", "round 4"));
    assert_eq!((e.field, e.line), ("drop", 7), "{e}");
    assert!(e.message.contains("at or past the horizon 4"), "{e}");
    let e = reject(&format!("{VALID}horizon = 1\ndrop = round 1 from 3 to 2\n"));
    assert_eq!((e.field, e.line), ("drop", 9), "{e}");

    // A round far past the horizon is refused before any drop row is
    // allocated for it.
    let e = reject(
        "stack = E_min/P_min\nmodel = sending_omission\nn = 3\nt = 1\n\
         inits = 0 0 0\nnonfaulty = 1 2\ndrop = round 4000000000 from 0 to 1\n",
    );
    assert_eq!((e.field, e.line), ("drop", 7), "{e}");
}

#[test]
fn parse_errors_render_field_and_line() {
    let e = reject(&VALID.replace("inits = 0 1 1 0", "inits = 0 2 1 0"));
    let rendered = e.to_string();
    assert!(rendered.contains("line 5"), "{rendered}");
    assert!(rendered.contains("field `inits`"), "{rendered}");
}

/// Semantically inadmissible (but syntactically fine) corpus files are
/// rejected by the loader with `<path>:<line>:` naming the offending
/// field's source line.
#[test]
fn corpus_loader_relocates_semantic_errors_to_file_and_line() {
    let dir = std::env::temp_dir().join(format!("eba-corpus-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // Too many faulty agents for t = 1: a parse error on the nonfaulty
    // line.
    let bad = "stack = E_basic/P_basic\n\
               model = general_omission\n\
               n = 4\n\
               t = 1\n\
               inits = 0 1 1 0\n\
               nonfaulty = 0 1\n";
    let path = dir.join("bad.eba");
    std::fs::write(&path, bad).unwrap();
    let err = eba::experiments::corpus::load_dir(&dir).expect_err("inadmissible corpus");
    let msg = err.to_string();
    assert!(
        msg.contains(&format!("{}:6:", path.display())),
        "error must carry path and nonfaulty line: {msg}"
    );

    // Two problems in one file — one bit short on line 7, and a crash
    // whose recorded silence (line 8) ends before the horizon: the one
    // admission check reports both, each against its own line.
    let bad = "stack = E_min/P_min\n\
               model = crash\n\
               n = 3\n\
               t = 1\n\
               horizon = 4\n\
               nonfaulty = 1 2\n\
               inits = 0 1\n\
               drop = round 0 from 0 to 0 1 2\n";
    std::fs::write(&path, bad).unwrap();
    let err = eba::experiments::corpus::load_dir(&dir).expect_err("inadmissible corpus");
    let msg = err.to_string();
    assert!(
        msg.contains(&format!("{}:7: inits: got 2", path.display())),
        "{msg}"
    );
    assert!(
        msg.contains(&format!("{}:8: pattern: not admissible", path.display())),
        "{msg}"
    );

    // A drop between nonfaulty agents on the second drop line is a parse
    // error at that line, not at the first drop.
    std::fs::write(&path, format!("{VALID}drop = round 1 from 1 to 2\n")).unwrap();
    let err = eba::experiments::corpus::load_dir(&dir).expect_err("inadmissible corpus");
    let msg = err.to_string();
    assert!(
        msg.contains(&format!("{}:8: field `drop`", path.display())),
        "{msg}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A horizon past `MAX_HORIZON` is refused by the admission check, at the
/// `horizon` line, before any run buffer is sized by it.
#[test]
fn a_huge_horizon_is_refused_at_its_line() {
    let dir = std::env::temp_dir().join(format!("eba-horizon-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("huge.eba");
    std::fs::write(&path, format!("{VALID}horizon = 4000000000\n")).unwrap();
    let err = eba::experiments::corpus::load_dir(&dir).expect_err("refused horizon");
    let msg = err.to_string();
    assert!(
        msg.contains(&format!("{}:8: horizon: got 4000000000", path.display())),
        "{msg}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
