//! Pinned expectations: the counts (and, for pinned seeds, the input
//! digest) each workload must reproduce exactly. A mismatch fails the
//! command.

use crate::json::Json;
use crate::run::Counts;

/// The committed `expect/<workload>.json`, embedded at build time.
fn pinned(workload: &str) -> Option<&'static str> {
    Some(match workload {
        "service_mixed_n3" => include_str!("../expect/service_mixed_n3.json"),
        "service_fip_n8" => include_str!("../expect/service_fip_n8.json"),
        "modelcheck_fip_so_n3" => include_str!("../expect/modelcheck_fip_so_n3.json"),
        "modelcheck_basic_go_n3" => include_str!("../expect/modelcheck_basic_go_n3.json"),
        "estimate_basic_n16" => include_str!("../expect/estimate_basic_n16.json"),
        _ => return None,
    })
}

/// Compares `digest` and `counts` with the `any_seed` section of
/// `expectations` and, when present, its `seeds.<seed>` section. Returns
/// one message per mismatch.
pub fn mismatches(expectations: &Json, seed: u64, digest: &str, counts: &Counts) -> Vec<String> {
    let per_seed = expectations
        .get("seeds")
        .and_then(|seeds| seeds.get(&seed.to_string()));
    let mut problems = Vec::new();
    for section in [expectations.get("any_seed"), per_seed]
        .into_iter()
        .flatten()
    {
        for (key, want) in section.entries() {
            match want {
                Json::Str(want) if key == "digest" => {
                    if want != digest {
                        problems.push(format!("digest: expected {want}, got {digest}"));
                    }
                }
                Json::Num(want) => match counts.get(key) {
                    Some(got) if *got as f64 == *want => {}
                    Some(got) => problems.push(format!("{key}: expected {want}, got {got}")),
                    None => problems.push(format!("{key}: expected {want}, not reported")),
                },
                other => problems.push(format!("{key}: unsupported expectation {other:?}")),
            }
        }
    }
    problems
}

/// Checks a workload's outputs against its committed expectations.
pub fn check(workload: &str, seed: u64, digest: &str, counts: &Counts) -> Vec<String> {
    let Some(text) = pinned(workload) else {
        return vec![format!("no expectations for workload '{workload}'")];
    };
    match Json::parse(text) {
        Ok(expectations) => mismatches(&expectations, seed, digest, counts),
        Err(e) => vec![format!("expect/{workload}.json: {e}")],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinned_seed_sections_apply_only_to_their_seed() {
        let expectations = Json::parse(
            r#"{"any_seed": {"runs": 10}, "seeds": {"7": {"digest": "abc", "frames": 3}}}"#,
        )
        .unwrap();
        let counts = Counts::from([("runs".into(), 10), ("frames".into(), 4)]);
        assert!(mismatches(&expectations, 8, "zzz", &counts).is_empty());
        let problems = mismatches(&expectations, 7, "zzz", &counts);
        assert_eq!(problems.len(), 2, "{problems:?}");
        assert!(problems[0].contains("digest") && problems[1].contains("frames"));
        let short = Counts::from([("runs".into(), 9)]);
        assert_eq!(mismatches(&expectations, 8, "", &short).len(), 1);
    }

    #[test]
    fn every_workload_has_parseable_expectations() {
        for w in &crate::workloads::WORKLOADS {
            let text = pinned(w.name).expect(w.name);
            let doc = Json::parse(text).expect(w.name);
            assert!(doc.get("any_seed").is_some(), "{}", w.name);
        }
    }
}
