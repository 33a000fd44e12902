//! Test helpers: drive full-information rounds without the simulator crate.

use crate::types::{AgentId, Value};

use super::CommGraph;

/// One initial graph per agent.
pub(crate) fn initial_graphs(inits: &[Value]) -> Vec<CommGraph> {
    inits
        .iter()
        .enumerate()
        .map(|(i, v)| CommGraph::initial(inits.len(), AgentId::new(i), *v))
        .collect()
}

/// Runs one synchronous full-information round with a delivery predicate,
/// returning the next graphs.
pub(crate) fn fip_round(
    graphs: &[CommGraph],
    delivers: impl Fn(AgentId, AgentId) -> bool,
) -> Vec<CommGraph> {
    let n = graphs.len();
    (0..n)
        .map(|to| {
            let received: Vec<Option<&CommGraph>> = (0..n)
                .map(|from| delivers(AgentId::new(from), AgentId::new(to)).then_some(&graphs[from]))
                .collect();
            received_into_fresh(&graphs[to], AgentId::new(to), &received)
        })
        .collect()
}

/// [`CommGraph::receive_round`] into a fresh slot.
pub(crate) fn received_into_fresh(
    graph: &CommGraph,
    owner: AgentId,
    received: &[Option<&CommGraph>],
) -> CommGraph {
    let mut next = CommGraph::initial(graph.n(), owner, Value::Zero);
    graph.receive_round(owner, received, &mut next);
    next
}

/// Runs `rounds` failure-free full-information rounds.
pub(crate) fn fip_rounds_failure_free(inits: &[Value], rounds: u32) -> Vec<CommGraph> {
    let mut graphs = initial_graphs(inits);
    for _ in 0..rounds {
        graphs = fip_round(&graphs, |_, _| true);
    }
    graphs
}
