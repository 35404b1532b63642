//! Machine-level execution traces — validating the cost model.
//!
//! [`crate::ClusterNet`] *charges* rounds and bits analytically; this module
//! *executes* the three §3.2 round phases at machine granularity —
//! messages hop one link per network round, every link carries at most
//! one message per direction per round — and reports what actually
//! crossed the wires. Tests compare traces against charges: the
//! analytical model must never undercount rounds or per-link traffic.
//! This is the simulator's answer to "how do you know the accounting is
//! honest?".

use crate::graph::ClusterGraph;

/// What actually happened on the wires during one executed phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecTrace {
    /// Network rounds until the phase completed everywhere.
    pub rounds: u64,
    /// Maximum bits carried by any single link in any single round.
    pub max_link_bits_per_round: u64,
    /// Total bits moved across all links.
    pub total_bits: u128,
    /// Number of individual messages sent.
    pub messages: u64,
}

/// Executes a leader broadcast in every cluster: the payload travels one
/// tree level per network round. The trace reads each support tree's
/// precomputed height and edge count, never its adjacency, so one O(n)
/// pass over the clusters suffices.
pub fn execute_broadcast(g: &ClusterGraph, payload_bits: u64) -> ExecTrace {
    let mut rounds = 1u64;
    let mut total = 0u128;
    let mut messages = 0u64;
    let mut max_link = 0u64;
    for v in 0..g.n_vertices() {
        let t = g.support(v);
        rounds = rounds.max(t.height as u64);
        // One message per tree edge; each link carries exactly the
        // payload in the round matching the child's depth.
        messages += t.n_edges() as u64;
        total += u128::from(payload_bits) * t.n_edges() as u128;
        if t.n_edges() > 0 {
            max_link = payload_bits;
        }
    }
    ExecTrace {
        rounds,
        max_link_bits_per_round: max_link,
        total_bits: total,
        messages,
    }
}

/// Executes a converge-cast: partial aggregates of `agg_bits` flow up
/// one level per round; a machine forwards once all children reported.
pub fn execute_converge(g: &ClusterGraph, agg_bits: u64) -> ExecTrace {
    // Symmetric to broadcast for fixed-size aggregates: same edge count,
    // same height. (Variable-size aggregates are the caller's bits.)
    execute_broadcast(g, agg_bits)
}

/// Executes one inter-cluster link exchange: every link carries one
/// message of `msg_bits` in each direction simultaneously — one round,
/// but *parallel links between the same cluster pair each carry their
/// own copy*, which is what the per-link map below records.
pub fn execute_link_exchange(g: &ClusterGraph, msg_bits: u64) -> ExecTrace {
    // The communication graph is simple, so every inter-cluster link is a
    // distinct machine pair: each carries exactly one message per
    // direction, 2 · msg_bits — no per-link tally needed.
    let max_link = if g.n_links() == 0 { 0 } else { 2 * msg_bits };
    let messages = 2 * g.n_links() as u64;
    ExecTrace {
        rounds: 1,
        max_link_bits_per_round: max_link,
        total_bits: u128::from(msg_bits) * u128::from(messages),
        messages,
    }
}

/// Executes a full §3.2 round (broadcast + link exchange + converge) and
/// returns the combined trace.
pub fn execute_full_round(g: &ClusterGraph, msg_bits: u64) -> ExecTrace {
    let b = execute_broadcast(g, msg_bits);
    let l = execute_link_exchange(g, msg_bits);
    let c = execute_converge(g, msg_bits);
    ExecTrace {
        rounds: b.rounds + l.rounds + c.rounds,
        max_link_bits_per_round: b
            .max_link_bits_per_round
            .max(l.max_link_bits_per_round)
            .max(c.max_link_bits_per_round),
        total_bits: b.total_bits + l.total_bits + c.total_bits,
        messages: b.messages + l.messages + c.messages,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::ClusterNet;
    use cgc_net::CommGraph;

    fn star_clusters() -> ClusterGraph {
        // Five 3-machine star clusters in a ring of links.
        let mut edges = Vec::new();
        for c in 0..5 {
            let base = 3 * c;
            edges.push((base, base + 1));
            edges.push((base, base + 2));
        }
        for c in 0..5 {
            edges.push((3 * c + 1, 3 * ((c + 1) % 5) + 2));
        }
        let comm = CommGraph::from_edges(15, &edges).unwrap();
        ClusterGraph::build(comm, (0..15).map(|m| m / 3).collect()).unwrap()
    }

    #[test]
    fn broadcast_trace_matches_tree_structure() {
        let g = star_clusters();
        let t = execute_broadcast(&g, 10);
        assert_eq!(t.rounds, 1, "stars have height 1");
        assert_eq!(t.messages, 10, "2 tree edges x 5 clusters");
        assert_eq!(t.total_bits, 100);
        assert_eq!(t.max_link_bits_per_round, 10);
    }

    #[test]
    fn link_exchange_is_one_round_both_directions() {
        let g = star_clusters();
        let t = execute_link_exchange(&g, 8);
        assert_eq!(t.rounds, 1);
        assert_eq!(t.messages, 10, "5 links x 2 directions");
        assert_eq!(t.max_link_bits_per_round, 16);
    }

    /// The analytical meter must never undercount the executed reality.
    #[test]
    fn charges_dominate_execution() {
        let g = star_clusters();
        let msg = 10u64;
        let exec = execute_full_round(&g, msg);

        let mut net = ClusterNet::new(&g, 64);
        net.charge_full_rounds(1, msg);
        let r = net.meter.report();
        assert!(
            r.g_rounds >= exec.rounds,
            "charged G-rounds {} < executed {}",
            r.g_rounds,
            exec.rounds
        );
        assert!(
            r.bits >= exec.total_bits,
            "charged bits {} < executed {}",
            r.bits,
            exec.total_bits
        );
    }

    /// Budget compliance in execution terms: if the meter says a round
    /// fits one sub-round, the executed per-link traffic fits the budget.
    #[test]
    fn budget_compliance_is_real() {
        let g = star_clusters();
        let budget = 64u64;
        let msg = 32u64;
        let mut net = ClusterNet::new(&g, budget);
        let sub = net.charge_broadcast(msg);
        assert_eq!(sub, 1);
        let exec = execute_broadcast(&g, msg);
        assert!(exec.max_link_bits_per_round <= budget);
    }

    #[test]
    fn deep_clusters_take_height_rounds() {
        // One path cluster of 6 machines.
        let comm = CommGraph::path(6);
        let g = ClusterGraph::build(comm, vec![0; 6]).unwrap();
        let t = execute_broadcast(&g, 4);
        assert_eq!(t.rounds, 5, "height of a 6-path from its end");
        assert_eq!(t.messages, 5);
    }

    #[test]
    fn singleton_clusters_broadcast_for_free() {
        let g = ClusterGraph::singletons(CommGraph::complete(4));
        let t = execute_broadcast(&g, 100);
        assert_eq!(t.messages, 0);
        assert_eq!(t.total_bits, 0);
    }
}
