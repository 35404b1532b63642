//! E20 — Appendix A: distance-2 coloring as a *virtual graph* (clusters =
//! closed neighborhoods on the original network, overlapping) versus the
//! explicit-square substitution of E12. Same conflict structure, same
//! colors; the virtual embedding pays its measured congestion factor in
//! G-rounds — the paper's "everything translates with the overhead
//! factor of the edge congestion".

use cgc_bench::{f3, Table};
use cgc_cluster::{ClusterNet, ParallelConfig, VirtualGraph};
use cgc_core::{color_cluster_graph_with, coloring_stats, DriverOptions, Params, Session};
use cgc_graphs::WorkloadSpec;
use cgc_net::CommGraph;

fn main() {
    let mut t = Table::new(
        "E20: distance-2 as a virtual graph (Appendix A) vs explicit square",
        &[
            "n",
            "delta2",
            "congestion",
            "colors_virtual",
            "colors_square",
            "G_virtual",
            "G_square",
        ],
    );
    let par = ParallelConfig::from_env();
    for n in [80usize, 160, 320] {
        let p = 3.0 / n as f64;
        let seed = 2000 + n as u64;
        let square = WorkloadSpec::square_gnp(n, p, seed);
        // The virtual route shares the square workload's base graph: the
        // spec string in the row rebuilds both sides.
        let base_spec = WorkloadSpec::gnp(n, p, seed)
            .conflict_spec(&par)
            .expect("gnp has a conflict spec")
            .0;
        let base = CommGraph::from_edges(n, &base_spec.edges).expect("valid base network");

        // Virtual-graph route: overlapping closed-neighborhood supports.
        let vg = VirtualGraph::distance2(base);
        let (h_virtual, congestion) = vg.as_cluster_instance();
        let mut net_v = ClusterNet::with_log_budget_parallel(&h_virtual, 32, par);
        let run_v = color_cluster_graph_with(
            &mut net_v,
            &Params::laptop(h_virtual.n_vertices()),
            31,
            DriverOptions::default(),
        );
        assert!(run_v.coloring.is_total() && run_v.coloring.is_proper(&h_virtual));
        // Pay the Appendix A overhead: congestion × dilation on G-rounds.
        let g_virtual = run_v.report.g_rounds * congestion as u64 * vg.dilation() as u64;

        // Explicit-square route (the E12 substitution), via the Session.
        let mut session = Session::builder(square).build();
        let out_s = session.run(31);
        assert!(out_s.run.coloring.is_total() && out_s.run.coloring.is_proper(session.graph()));

        let sv = coloring_stats(&h_virtual, &run_v.coloring);
        let ss = coloring_stats(session.graph(), &out_s.run.coloring);
        assert!(
            sv.colors_used <= vg.max_degree() + 1,
            "Δ₂+1 bound (virtual)"
        );
        assert!(
            ss.colors_used <= session.graph().max_degree() + 1,
            "Δ₂+1 bound (square)"
        );

        t.row(
            &out_s.spec_string,
            vec![
                n.to_string(),
                vg.max_degree().to_string(),
                congestion.to_string(),
                sv.colors_used.to_string(),
                ss.colors_used.to_string(),
                f3(g_virtual as f64),
                f3(out_s.run.report.g_rounds as f64),
            ],
        );
    }
    t.print();
    println!(
        "\nnote: the two routes color the same conflict graph; the virtual\n\
         route's G-rounds carry the measured congestion x dilation factor of\n\
         its overlapping supports (Appendix A / Eq. 19)."
    );
}
