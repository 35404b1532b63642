//! Virtual graphs (Appendix A): distance-2 coloring with *overlapping*
//! clusters — each node's support is its closed neighborhood on the
//! original network, and the simulation pays the measured congestion.
//!
//! The virtual instance is derived from a hand-built lattice rather than a
//! generator family, so there is no `WorkloadSpec` for it; this example
//! calls the driver directly through [`color_cluster_graph_with`], the
//! entry point for custom-built [`ClusterGraph`]s (generator-backed runs
//! go through [`Session`] — see `quickstart.rs`).
//!
//! ```sh
//! cargo run --release --example virtual_overlay
//! ```

use cluster_coloring::cluster::VirtualGraph;
use cluster_coloring::prelude::*;

fn main() {
    // A sensor grid: 12x12 lattice, conflicts at distance ≤ 2.
    let side = 12usize;
    let n = side * side;
    let mut edges = Vec::new();
    for r in 0..side {
        for c in 0..side {
            let v = r * side + c;
            if c + 1 < side {
                edges.push((v, v + 1));
            }
            if r + 1 < side {
                edges.push((v, v + side));
            }
        }
    }
    let base = CommGraph::from_edges(n, &edges).expect("grid is valid");

    let vg = VirtualGraph::distance2(base);
    println!(
        "virtual graph: {} nodes, Δ₂ = {}, congestion c = {}, dilation d = {}",
        vg.n_vertices(),
        vg.max_degree(),
        vg.congestion(),
        vg.dilation()
    );
    println!(
        "support of a corner node: {:?}; of an interior node: {:?}",
        vg.support(0),
        vg.support(side + 1)
    );

    // Color the conflict structure; the Appendix A overhead multiplies
    // the network rounds by congestion × dilation.
    let (h, congestion) = vg.as_cluster_instance();
    let mut net = ClusterNet::with_log_budget_parallel(&h, 32, ParallelConfig::from_env());
    let run = color_cluster_graph_with(
        &mut net,
        &Params::laptop(h.n_vertices()),
        77,
        DriverOptions::default(),
    );
    assert!(run.coloring.is_total() && run.coloring.is_proper(&h));

    let stats = coloring_stats(&h, &run.coloring);
    println!(
        "\ncolored with {} frequencies (Δ₂ + 1 = {})",
        stats.colors_used,
        vg.max_degree() + 1
    );
    let overlay_g = run.report.g_rounds * congestion as u64 * vg.dilation() as u64;
    println!(
        "rounds: {} on H; {} on G as a plain cluster graph; {} on G paying the \
         Appendix A congestion x dilation overhead",
        run.report.h_rounds, run.report.g_rounds, overlay_g
    );
}
