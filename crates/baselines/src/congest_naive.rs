//! The naive-simulation cost model (§1.1).
//!
//! A CONGEST coloring algorithm assumes a vertex can *receive the colors
//! of all its neighbors* each round. On a cluster graph, that payload is
//! `deg(v) · O(log Δ)` bits squeezed through the support tree — the
//! Figure 2 bottleneck. This module does not color anything new: it
//! quantifies the per-round overhead factor such a simulation pays, which
//! E14 reports next to the real algorithm.

use cgc_cluster::{ClusterGraph, ClusterNet, NeighborLists};

/// The pipelined cost (in cluster rounds) of ONE naive simulation round:
/// every vertex collects all neighbor colors through its support tree.
pub fn naive_round_cost(net: &mut ClusterNet<'_>) -> u64 {
    let before = net.meter.h_rounds();
    let n = net.g.n_vertices();
    let msgs = vec![0u8; n];
    // neighbor_collect_into charges the honest deg·bits converge-cast.
    net.neighbor_collect_into(net.color_bits(), &msgs, &mut NeighborLists::new());
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

    #[test]
    fn naive_cost_grows_with_degree() {
        // Real clusters (star of 3 machines): the collected payload must
        // cross support-tree edges, where pipelining bites. In CONGEST
        // (singleton clusters) collection is genuinely one round — that
        // contrast is the point of the model (§1.1).
        let sparse = realize(&gnp_spec(60, 0.05, 1), Layout::Star(3), 1, 1);
        let dense = realize(&gnp_spec(60, 0.5, 1), Layout::Star(3), 1, 1);
        let (_, f_sparse) = naive_simulation_cost(&sparse, 4, 1);
        let (_, f_dense) = naive_simulation_cost(&dense, 4, 1);
        assert!(
            f_dense > f_sparse,
            "dense {f_dense} should exceed sparse {f_sparse}"
        );
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
}
