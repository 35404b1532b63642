//! Shattering by palette trials (§9.1, after \[BEPS16, Lemma 5.3\]).
//!
//! Each round, every uncolored vertex learns its exact palette — a
//! `(Δ+1)`-bit bitmap aggregated over its neighbors, legal and charged in
//! the `Δ = O(log n)` regime — and tries a uniform palette color: the
//! shared exact-palette kernel, `crate::trycolor::palette_trial_rounds`.
//! After `O(log log n)` rounds the uncolored subgraph shatters into
//! components of size `O(Δ² log_Δ n)`.

use crate::coloring::Coloring;
use crate::trycolor::palette_trial_rounds;
use cgc_cluster::{ClusterGraph, ClusterNet, VertexId};
use cgc_net::SeedStream;

/// Runs `rounds` palette-trial rounds ([`palette_trial_rounds`] over
/// every uncolored vertex, `(Δ+1)`-bit bitmaps, round `r` salted
/// `salt ^ r << 8`); returns vertices colored.
pub fn shatter(
    net: &mut ClusterNet<'_>,
    coloring: &mut Coloring,
    seeds: &SeedStream,
    salt: u64,
    rounds: usize,
) -> usize {
    let q = coloring.q() as u64;
    palette_trial_rounds(net, coloring, seeds, None, q, rounds, |r| salt ^ (r << 8)).0
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
