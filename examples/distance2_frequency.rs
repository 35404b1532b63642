//! Distance-2 coloring as frequency allocation (Corollary 1.3).
//!
//! Wireless access points that share a client must broadcast on different
//! frequencies — a *distance-2* coloring of the access-point graph `G`,
//! i.e. a vertex coloring of the square `G²` with `Δ₂ + 1` frequencies.
//! The paper colors `G²` as a virtual graph over `G`; as the README's
//! "Substitutions" section lists, we color the explicit square with the
//! cluster machinery — the `square` workload family.
//!
//! ```sh
//! cargo run --release --example distance2_frequency
//! ```

use cluster_coloring::graphs::power::delta_two;
use cluster_coloring::prelude::*;

fn main() {
    // The physical access-point topology: a sparse random graph.
    let aps = gnp_spec(180, 0.025, 99);
    println!(
        "access-point graph: {} nodes, {} links, Δ = {}",
        aps.n,
        aps.edges.len(),
        aps.max_degree()
    );

    // Conflicts = distance ≤ 2 pairs: the square workload over the same
    // (n, p, seed) shares the base graph exactly.
    let mut session = Session::builder(WorkloadSpec::square_gnp(180, 0.025, 99)).build();
    let d2 = delta_two(&aps);
    println!(
        "conflict graph {}: Δ₂ = {} (need ≤ {} frequencies)",
        session.spec_string(),
        d2,
        d2 + 1
    );

    let out = session.run(11);
    assert!(out.run.coloring.is_total() && out.run.coloring.is_proper(session.graph()));

    let stats = coloring_stats(session.graph(), &out.run.coloring);
    println!(
        "allocated {} frequencies across {} access points in {} rounds",
        stats.colors_used, stats.n_vertices, out.run.report.h_rounds
    );

    // Spot-check the allocation: no two APs within distance 2 share one.
    let mut adj = vec![Vec::new(); aps.n];
    for &(u, v) in &aps.edges {
        adj[u].push(v);
        adj[v].push(u);
    }
    for u in 0..aps.n {
        for &v in &adj[u] {
            assert_ne!(
                out.run.coloring.get(u),
                out.run.coloring.get(v),
                "distance-1 clash"
            );
            for &w in &adj[v] {
                if w != u {
                    assert_ne!(
                        out.run.coloring.get(u),
                        out.run.coloring.get(w),
                        "distance-2 clash"
                    );
                }
            }
        }
    }
    println!("verified: no frequency reuse within distance 2");
}
