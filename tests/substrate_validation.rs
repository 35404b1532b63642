//! Substrate validation: executed machine-level traces vs analytical
//! charges, and virtual-graph overlay invariants — across generated
//! topologies.

use cluster_coloring::cluster::{
    execute_broadcast, execute_full_round, execute_link_exchange, VirtualGraph,
};
use cluster_coloring::prelude::*;

#[test]
fn charges_dominate_execution_across_layouts() {
    let spec = gnp_spec(60, 0.1, 61);
    for layout in [
        Layout::Singleton,
        Layout::Path(4),
        Layout::Star(5),
        Layout::BinaryTree(7),
    ] {
        for links in [1usize, 3] {
            let h = realize(&spec, layout, links, 61);
            for msg in [4u64, 16, 64] {
                let exec = execute_full_round(&h, msg);
                let mut net = ClusterNet::new(&h, 64);
                net.charge_full_rounds(1, msg);
                let r = net.meter.report();
                assert!(
                    r.g_rounds >= exec.rounds,
                    "{layout:?}/{links}/{msg}: charged {} < executed {}",
                    r.g_rounds,
                    exec.rounds
                );
                assert!(
                    r.bits >= exec.total_bits,
                    "{layout:?}/{links}/{msg}: bits {} < executed {}",
                    r.bits,
                    exec.total_bits
                );
            }
        }
    }
}

#[test]
fn executed_broadcast_rounds_equal_dilation() {
    let spec = gnp_spec(20, 0.2, 62);
    for m in [2usize, 5, 9] {
        let h = realize(&spec, Layout::Path(m), 1, 62);
        let t = execute_broadcast(&h, 8);
        assert_eq!(t.rounds as usize, h.dilation(), "path length {m}");
    }
}

#[test]
fn link_exchange_counts_parallel_links() {
    let spec = HSpec::new(2, vec![(0, 1)]);
    let h = realize(&spec, Layout::Star(6), 4, 63);
    let t = execute_link_exchange(&h, 8);
    // 4 links requested; collisions can dedup a few, but multiplicity > 1
    // must multiply the per-link-pair traffic.
    let mult = h.link_multiplicity(0, 1) as u64;
    assert!(mult >= 2);
    assert_eq!(t.messages, 2 * mult);
}

#[test]
fn virtual_distance2_matches_square_conflicts() {
    let spec = gnp_spec(70, 0.05, 64);
    let base = CommGraph::from_edges(70, &spec.edges).unwrap();
    let vg = VirtualGraph::distance2(base);
    let sq = square_spec(&spec);
    // Same edge set.
    let mut vg_edges = Vec::new();
    for v in 0..vg.n_vertices() {
        for &u in vg.neighbors(v) {
            if u > v {
                vg_edges.push((v, u));
            }
        }
    }
    vg_edges.sort_unstable();
    assert_eq!(vg_edges, sq.edges);
}

#[test]
fn virtual_overlay_coloring_is_proper_with_congestion_accounting() {
    let spec = gnp_spec(60, 0.05, 65);
    let base = CommGraph::from_edges(60, &spec.edges).unwrap();
    let vg = VirtualGraph::distance2(base);
    let (h, congestion) = vg.as_cluster_instance();
    assert!(congestion >= 1);
    let mut net = ClusterNet::with_log_budget_parallel(&h, 32, ParallelConfig::from_env());
    let run = color_cluster_graph_with(
        &mut net,
        &Params::laptop(h.n_vertices()),
        66,
        DriverOptions::default(),
    );
    assert!(run.coloring.is_total() && run.coloring.is_proper(&h));
    // Appendix A: the simulated cost is G-rounds × congestion × dilation.
    let overlay_cost = run.report.g_rounds * congestion as u64 * vg.dilation() as u64;
    assert!(overlay_cost >= run.report.g_rounds);
}

#[test]
fn overlay_charge_adapter_scales_with_congestion() {
    let base = CommGraph::complete(8);
    let vg = VirtualGraph::distance2(base);
    // Complete graph: every link {u,w} sits in the stars of u and w.
    assert_eq!(vg.congestion(), 2);
    let (h, _) = vg.as_cluster_instance();
    let mut net = ClusterNet::with_log_budget(&h, 32);
    let h0 = net.meter.h_rounds();
    vg.charge_overlay_round(&mut net, 8);
    assert_eq!(net.meter.h_rounds() - h0, 2 * 2 + 1);
}
