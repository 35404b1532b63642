//! The naive-simulation cost model (§1.1).
//!
//! A CONGEST coloring algorithm assumes a vertex can *receive the colors
//! of all its neighbors* each round. On a cluster graph, that payload is
//! `deg(v) · O(log Δ)` bits squeezed through the support tree — the
//! Figure 2 bottleneck. This module does not color anything new: it
//! quantifies the per-round overhead factor such a simulation pays, which
//! E14 reports next to the real algorithm. It only charges the round; no
//! neighbor list is ever materialized, because nothing reads one.

use cgc_cluster::{ClusterGraph, ClusterNet};

/// The pipelined cost (in cluster rounds) of ONE naive simulation round:
/// every vertex collects all neighbor colors through its support tree.
/// Charged as a broadcast and a link round of one color each, then the
/// honest `deg · bits` converge-cast, pipelined over
/// `ceil(Δ · bits / budget)` sub-rounds.
pub fn naive_round_cost(net: &mut ClusterNet<'_>) -> u64 {
    let before = net.meter.h_rounds();
    let bits = net.color_bits();
    let max_deg = net.g.max_degree() as u64;
    net.charge_broadcast(bits);
    net.charge_link_round(bits);
    net.charge_converge(bits.saturating_mul(max_deg.max(1)));
    net.meter.h_rounds() - before
}

/// Total cost of naively simulating `steps` CONGEST rounds, plus the
/// overhead factor relative to an `O(log n)`-bit aggregation round.
pub fn naive_simulation_cost(g: &ClusterGraph, budget_beta: u64, steps: u64) -> (u64, f64) {
    let mut net = ClusterNet::with_log_budget(g, budget_beta);
    net.set_phase("naive-congest");
    let per_round = naive_round_cost(&mut net);
    let baseline = 3u64; // broadcast + link + converge at O(log n) bits
    (per_round * steps, per_round as f64 / baseline as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgc_graphs::{gnp_spec, realize, Layout};
    use cgc_net::CommGraph;

    #[test]
    fn naive_cost_grows_with_degree() {
        // Real clusters (star of 3 machines): the collected payload must
        // cross support-tree edges, where pipelining bites. In CONGEST
        // (singleton clusters) collection is genuinely one round — that
        // contrast is the point of the model (§1.1).
        let sparse = realize(&gnp_spec(60, 0.05, 1), Layout::Star(3), 1, 1);
        let dense = realize(&gnp_spec(60, 0.5, 1), Layout::Star(3), 1, 1);
        let (c_sparse, f_sparse) = naive_simulation_cost(&sparse, 4, 1);
        let (c_dense, f_dense) = naive_simulation_cost(&dense, 4, 1);
        assert!(
            f_dense > f_sparse,
            "dense {f_dense} should exceed sparse {f_sparse}"
        );
        // Pinned to the figures the list-materializing collect round
        // charged.
        assert_eq!((c_sparse, f_sparse), (3, 1.0));
        assert_eq!((c_dense, f_dense), (9, 3.0));
    }

    #[test]
    fn congest_singletons_collect_in_one_round() {
        let g = realize(&gnp_spec(40, 0.4, 5), Layout::Singleton, 1, 5);
        let (cost, factor) = naive_simulation_cost(&g, 4, 1);
        assert_eq!(cost, 3, "broadcast + link + free converge");
        assert!(factor <= 1.0);
    }

    #[test]
    fn steps_scale_linearly() {
        let g = realize(&gnp_spec(40, 0.3, 2), Layout::Star(3), 1, 2);
        let (one, _) = naive_simulation_cost(&g, 4, 1);
        let (ten, _) = naive_simulation_cost(&g, 4, 10);
        assert_eq!(ten, 10 * one);
    }

    #[test]
    fn collect_in_congest_is_one_link_round() {
        // Singleton clusters: support trees have no edges, so the
        // converge-cast is free and collection is a single link round.
        let comm = CommGraph::star(5);
        let h = ClusterGraph::singletons(comm);
        let mut net = ClusterNet::new(&h, 8);
        assert_eq!(naive_round_cost(&mut net), 3);
    }

    #[test]
    fn collect_charges_degree_times_bits() {
        // Star of five 2-machine clusters: cluster i = {2i, 2i+1}; the
        // center cluster 0 links to each other cluster. Center degree 4.
        let mut edges: Vec<(usize, usize)> = (0..5).map(|i| (2 * i, 2 * i + 1)).collect();
        for i in 1..5 {
            edges.push((1, 2 * i)); // machine 1 (cluster 0) to each cluster
        }
        let comm = CommGraph::from_edges(10, &edges).unwrap();
        let h = ClusterGraph::build(comm, vec![0, 0, 1, 1, 2, 2, 3, 3, 4, 4]).unwrap();
        assert_eq!(h.degree(0), 4);
        // Colors take 3 bits (Δ + 1 = 5). At a 3-bit budget the converge
        // carries up to 4 · 3 = 12 bits on a tree edge -> 4 sub-rounds;
        // plus 1 broadcast and 1 link round.
        let mut net = ClusterNet::new(&h, 3);
        assert_eq!(net.color_bits(), 3);
        assert_eq!(naive_round_cost(&mut net), 1 + 1 + 4);
    }
}
