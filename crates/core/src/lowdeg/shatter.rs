//! Shattering by palette trials (§9.1, after \[BEPS16, Lemma 5.3\]).
//!
//! Each round, every uncolored vertex learns its exact palette — a
//! `(Δ+1)`-bit bitmap aggregated over its neighbors, legal and charged in
//! the `Δ = O(log n)` regime — and tries a uniform palette color. After
//! `O(log log n)` rounds the uncolored subgraph shatters into components
//! of size `O(Δ² log_Δ n)`.

use crate::coloring::Coloring;
use crate::trycolor::try_color_round;
use cgc_cluster::{ClusterGraph, ClusterNet, VertexId};
use cgc_net::SeedStream;
use rand::RngExt;

/// Runs `rounds` palette-trial rounds; returns vertices colored.
pub fn shatter(
    net: &mut ClusterNet<'_>,
    coloring: &mut Coloring,
    seeds: &SeedStream,
    salt: u64,
    rounds: usize,
) -> usize {
    let n = net.g.n_vertices();
    let q = coloring.q() as u64;
    let mut colored = 0usize;
    for r in 0..rounds {
        let eligible: Vec<bool> = (0..n).map(|v| !coloring.is_colored(v)).collect();
        if eligible.iter().all(|&e| !e) {
            break;
        }
        // Palette maintenance: one aggregation of a (Δ+1)-bit bitmap.
        net.charge_full_rounds(1, q);
        // Palette snapshot for the samplers (the oracle view mirrors the
        // bitmap every machine of the cluster now holds).
        let palettes: Vec<Vec<usize>> = (0..n)
            .map(|v| {
                if eligible[v] {
                    coloring.palette_oracle(net.g, v)
                } else {
                    Vec::new()
                }
            })
            .collect();
        colored += try_color_round(
            net,
            coloring,
            seeds,
            salt ^ ((r as u64) << 8),
            &eligible,
            1.0,
            |v, rng| {
                let pal = &palettes[v];
                if pal.is_empty() {
                    None
                } else {
                    Some(pal[rng.random_range(0..pal.len())])
                }
            },
        );
    }
    colored
}

/// Connected components of the uncolored subgraph (identified by the
/// O(diameter) BFS of Lemma 3.2; tiny after shattering).
pub fn uncolored_components(g: &ClusterGraph, coloring: &Coloring) -> Vec<Vec<VertexId>> {
    g.components(|v| !coloring.is_colored(v), |_, _| true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgc_graphs::{gnp_spec, realize, Layout};
    use cgc_net::CommGraph;

    #[test]
    fn trials_reduce_uncolored_set_quickly() {
        let spec = gnp_spec(200, 0.03, 10);
        let g = realize(&spec, Layout::Singleton, 1, 10);
        let mut coloring = Coloring::new(g.n_vertices(), g.max_degree() + 1);
        let mut net = ClusterNet::with_log_budget(&g, 32);
        let seeds = SeedStream::new(210);
        let colored = shatter(&mut net, &mut coloring, &seeds, 0, 4);
        assert!(colored >= 150, "only {colored} colored in 4 rounds");
        assert!(coloring.is_proper(&g));
    }

    #[test]
    fn components_partition_uncolored() {
        let g = ClusterGraph::singletons(CommGraph::path(7));
        let mut coloring = Coloring::new(7, 3);
        coloring.set(2, 0);
        coloring.set(5, 1);
        let comps = uncolored_components(&g, &coloring);
        assert_eq!(comps, vec![vec![0, 1], vec![3, 4], vec![6]]);
    }

    #[test]
    fn fully_colored_graph_has_no_components() {
        let g = ClusterGraph::singletons(CommGraph::path(3));
        let mut coloring = Coloring::new(3, 2);
        coloring.set(0, 0);
        coloring.set(1, 1);
        coloring.set(2, 0);
        assert!(uncolored_components(&g, &coloring).is_empty());
    }

    #[test]
    fn shatter_charges_palette_bitmaps() {
        let spec = gnp_spec(50, 0.1, 11);
        let g = realize(&spec, Layout::Singleton, 1, 11);
        let mut coloring = Coloring::new(g.n_vertices(), g.max_degree() + 1);
        let mut net = ClusterNet::with_log_budget(&g, 32);
        let seeds = SeedStream::new(211);
        let before = net.meter.report().bits;
        shatter(&mut net, &mut coloring, &seeds, 0, 2);
        assert!(net.meter.report().bits > before);
    }
}
