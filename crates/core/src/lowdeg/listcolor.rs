//! Small-instance (deg+1)-list coloring (§9.4 stand-in).
//!
//! Post-shattering components have polylogarithmic size and every member
//! knows a `deg+1`-sized color list (its exact palette, maintained by
//! bitmap aggregation in the low-degree regime). The paper finishes them
//! with an adapted Ghaffari–Kuhn rounding in `O(log N · log⁶ log n)`
//! rounds; as the README's "Substitutions" section lists, this
//! implementation substitutes iterated palette trials per component —
//! the shared exact-palette kernel, expected `O(log N)` rounds, every
//! round charged — plus the shared first-fit finish as a sequential
//! fallback, and reports both counters so the substitution's cost is
//! visible in every experiment.

use crate::coloring::Coloring;
use crate::trycolor::{first_fit_finish, palette_trial_rounds};
use cgc_cluster::{bits, ClusterNet, VertexId};
use cgc_net::SeedStream;

/// Colors all `components` (vertex-disjoint) in parallel rounds of palette
/// trials ([`palette_trial_rounds`] restricted to their members, round
/// `r` salted `salt ^ r << 12`), capped at `⌈4 ln N⌉ + 8` rounds for `N`
/// members in all; leftovers get the charged [`first_fit_finish`].
/// Returns `(rounds_used, fallback_count)`.
pub fn color_components(
    net: &mut ClusterNet<'_>,
    coloring: &mut Coloring,
    seeds: &SeedStream,
    salt: u64,
    components: &[Vec<VertexId>],
) -> (usize, usize) {
    let mut members = vec![0u64; bits::words_for(net.g.n_vertices())];
    for &v in components.iter().flatten() {
        bits::set_bit(&mut members, v);
    }
    let total: usize = components.iter().map(Vec::len).sum();
    let cap = (4.0 * (total.max(2) as f64).ln()).ceil() as usize + 8;
    let q = coloring.q() as u64;
    let (_, rounds) = palette_trial_rounds(net, coloring, seeds, Some(&members), q, cap, |r| {
        salt ^ (r << 12)
    });
    // Sequential finish (guaranteed: deg+1 lists are never exhausted).
    let fallback = first_fit_finish(net, coloring, components.iter().flatten().copied());
    (rounds, fallback)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgc_cluster::ClusterGraph;
    use cgc_graphs::{gnp_spec, realize, Layout};
    use cgc_net::CommGraph;

    #[test]
    fn colors_components_in_logarithmic_rounds() {
        let spec = gnp_spec(80, 0.05, 12);
        let g = realize(&spec, Layout::Singleton, 1, 12);
        let mut coloring = Coloring::new(g.n_vertices(), g.max_degree() + 1);
        let mut net = ClusterNet::with_log_budget(&g, 32);
        let seeds = SeedStream::new(220);
        let comps = vec![(0..g.n_vertices()).collect::<Vec<_>>()];
        let (rounds, fallback) = color_components(&mut net, &mut coloring, &seeds, 0, &comps);
        assert!(coloring.is_total());
        assert!(coloring.is_proper(&g));
        assert!(rounds <= 30, "rounds {rounds}");
        assert_eq!(fallback, 0, "fallback should be rare on easy instances");
    }

    #[test]
    fn empty_component_list_is_noop() {
        let g = ClusterGraph::singletons(CommGraph::path(4));
        let mut coloring = Coloring::new(4, 3);
        let mut net = ClusterNet::with_log_budget(&g, 32);
        let seeds = SeedStream::new(221);
        let (rounds, fallback) = color_components(&mut net, &mut coloring, &seeds, 0, &[]);
        assert_eq!((rounds, fallback), (0, 0));
    }

    #[test]
    fn disjoint_components_finish_in_parallel() {
        // Two disjoint triangles: same rounds as one.
        let g = ClusterGraph::singletons(
            CommGraph::from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]).unwrap(),
        );
        let mut coloring = Coloring::new(6, 3);
        let mut net = ClusterNet::with_log_budget(&g, 32);
        let seeds = SeedStream::new(222);
        let comps = vec![vec![0, 1, 2], vec![3, 4, 5]];
        let (rounds, _) = color_components(&mut net, &mut coloring, &seeds, 0, &comps);
        assert!(coloring.is_total());
        assert!(coloring.is_proper(&g));
        assert!(rounds <= 20);
    }
}
