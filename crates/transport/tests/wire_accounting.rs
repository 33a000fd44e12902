//! The wire accounting, pinned: decisions, encoded bytes, frame counts
//! and per-round traffic of `run_named_cluster` on every `corpus/*.eba`
//! scenario and on the (8,3) `E_fip` scenario of
//! `examples/wire_loopback.rs`. Prop 8.1's E1 column and the `--stack`
//! summaries are these numbers, so whatever drives the frames must
//! reproduce them exactly.
//!
//! Row format: `name rounds=[per agent] values=[per agent]
//! bytes=sent/delivered frames=sent traffic=[sent/delivered per round]`.
//! The rows were recorded from the thread-per-agent cluster this crate
//! used to hold, at the commit before it was replaced.

use eba_core::corpus::parse_scenario;
use eba_core::prelude::*;
use eba_transport::{run_named_cluster, ClusterSummary};

const PINNED: &[&str] = &[
    "01_basic_failure_free.eba rounds=[1,2,2,1] values=[0,0,0,0] bytes=40/40 frames=24 traffic=[16/16,8/8,0/0,0/0]",
    "02_basic_silent_so.eba rounds=[2,3,3,3] values=[1,1,1,1] bytes=60/51 frames=44 traffic=[16/13,16/13,12/12,0/0]",
    "03_min_crash_from_start.eba rounds=[1,3,3] values=[0,1,1] bytes=9/6 frames=9 traffic=[3/0,0/0,6/6,0/0]",
    "04_fip_isolation_go.eba rounds=[2,1,2,4] values=[0,0,0,1] bytes=832/724 frames=64 traffic=[16/10,16/10,16/16,16/16]",
    "05_naive_whisper_go.eba rounds=[1,3,3] values=[0,1,0] bytes=33/24 frames=24 traffic=[3/1,3/2,9/7,9/7]",
    "06_naive_whisper_so.eba rounds=[1,3,3] values=[0,1,0] bytes=33/24 frames=24 traffic=[3/1,3/2,9/7,9/7]",
    "07_min_so_partial.eba rounds=[1,2,1,2] values=[0,0,0,0] bytes=16/14 frames=16 traffic=[8/6,8/8,0/0,0/0]",
    "08_basic_go_receive.eba rounds=[2,1,4] values=[0,0,1] bytes=30/24 frames=21 traffic=[9/7,6/4,3/3,3/3]",
    "09_fip_so_two_faulty.eba rounds=[2,2,1,2,2] values=[0,0,0,0,0] bytes=2600/2548 frames=125 traffic=[25/23,25/24,25/24,25/25,25/25]",
    "10_naive_failure_free.eba rounds=[1,2,2] values=[0,0,0] bytes=39/39 frames=30 traffic=[3/3,9/9,9/9,9/9]",
    "example_fip_8_3 rounds=[3,1,3,3,3,3,3,3] values=[1,0,1,1,1,1,1,1] bytes=18432/17760 frames=384 traffic=[64/43,64/43,64/64,64/64,64/64,64/64]",
];

fn render(name: &str, report: &ClusterSummary) -> String {
    fn list<T>(items: &[Option<T>], show: impl Fn(&T) -> String) -> String {
        let cells: Vec<String> = items
            .iter()
            .map(|c| c.as_ref().map_or("-".into(), &show))
            .collect();
        cells.join(",")
    }
    let traffic: Vec<String> = report
        .round_traffic
        .iter()
        .map(|t| format!("{}/{}", t.sent, t.delivered))
        .collect();
    format!(
        "{name} rounds=[{}] values=[{}] bytes={}/{} frames={} traffic=[{}]",
        list(&report.decision_rounds, |r| r.to_string()),
        list(&report.decision_values, |v| v.to_string()),
        report.wire_bytes_sent,
        report.wire_bytes_delivered,
        report.frames_sent,
        traffic.join(","),
    )
}

/// The scenario of `examples/wire_loopback.rs`: three faulty agents,
/// silent for the first two rounds.
fn fip_8_3() -> String {
    let params = Params::new(8, 3).unwrap();
    let faulty: AgentSet = (0..3).map(AgentId::new).collect();
    let mut pattern = FailurePattern::new(params, faulty.complement(8)).unwrap();
    for agent in faulty.iter() {
        pattern.silence_agent(agent, 0..2, false).unwrap();
    }
    let mut inits = vec![Value::One; 8];
    inits[1] = Value::Zero;
    let stack = NamedStack::by_name("E_fip/P_opt", params).unwrap();
    let report = run_named_cluster(&stack, &pattern, &inits, params.default_horizon()).unwrap();
    render("example_fip_8_3", &report)
}

#[test]
fn the_loopback_reproduces_the_recorded_wire_accounting() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../corpus");
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "eba"))
        .collect();
    files.sort();
    let mut rows: Vec<String> = files
        .iter()
        .map(|path| {
            let name = path.file_name().unwrap().to_str().unwrap();
            let spec = parse_scenario(&std::fs::read_to_string(path).unwrap())
                .unwrap()
                .spec;
            let case = &spec.case;
            let report = run_named_cluster(
                &spec.to_stack().unwrap(),
                &case.pattern,
                &case.inits,
                case.horizon,
            )
            .unwrap();
            render(name, &report)
        })
        .collect();
    rows.push(fip_8_3());
    // One row per corpus file: a new scenario must be pinned too.
    assert_eq!(rows.len(), PINNED.len(), "got:\n{}", rows.join("\n"));
    for (row, pinned) in rows.iter().zip(PINNED) {
        assert_eq!(row, pinned);
    }
}
