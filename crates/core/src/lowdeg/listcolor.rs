//! Small-instance (deg+1)-list coloring (§9.4 stand-in).
//!
//! Post-shattering components have polylogarithmic size and every member
//! knows a `deg+1`-sized color list (its exact palette, maintained by
//! bitmap aggregation in the low-degree regime). The paper finishes them
//! with an adapted Ghaffari–Kuhn rounding in `O(log N · log⁶ log n)`
//! rounds; as the README's "Substitutions" section lists, this
//! implementation substitutes iterated palette trials per component —
//! expected `O(log N)` rounds, every round charged — plus a sequential
//! fallback, and reports both counters so the substitution's cost is
//! visible in every experiment.

use crate::coloring::Coloring;
use crate::trycolor::{try_color_round_words, TrialScratch};
use cgc_cluster::{bits, BitsScratch, ClusterNet, VertexId};
use cgc_net::SeedStream;
use rand::RngExt;

/// Colors all `components` (vertex-disjoint) in parallel rounds of palette
/// trials; returns `(rounds_used, fallback_count)`.
pub fn color_components(
    net: &mut ClusterNet<'_>,
    coloring: &mut Coloring,
    seeds: &SeedStream,
    salt: u64,
    components: &[Vec<VertexId>],
) -> (usize, usize) {
    let n = net.g.n_vertices();
    let total: usize = components.iter().map(Vec::len).sum();
    if total == 0 {
        return (0, 0);
    }
    // Membership as a packed vertex mask: each round's eligible set is
    // `member & !occupied`, one word-wise andnot against the coloring's
    // occupancy mask (no per-vertex flag sweep).
    let q = coloring.q();
    let wpr = bits::words_for(q);
    let mut member_words = vec![0u64; bits::words_for(n)];
    for comp in components {
        for &v in comp {
            bits::set_bit(&mut member_words, v);
        }
    }

    // Round cap ~ O(log total) with slack; leftovers go to the fallback.
    let cap = (4.0 * (total.max(2) as f64).ln()).ceil() as usize + 8;
    let mut rounds = 0usize;
    let mut active: Vec<u64> = Vec::new();
    let mut palettes: Vec<u64> = Vec::new();
    let mut scratch = TrialScratch::new();
    for r in 0..cap {
        bits::andnot_into(&member_words, coloring.occupied_words(), &mut active);
        if !bits::any_set(&active) {
            break;
        }
        rounds += 1;
        // Palette bitmap maintenance + trial. The packed used-color rows
        // fill on the runtime's shard plan (weighted by CSR row mass —
        // the fill walks the row, so a hub component must not pin one
        // shard) instead of serial scans.
        net.charge_full_rounds(1, q as u64);
        let col = &*coloring;
        let active_ref = &active;
        net.par_vertex_fill_words(wpr, &mut palettes, |v, row| {
            if !bits::test_bit(active_ref, v) {
                return;
            }
            for &u in net.g.neighbors(v) {
                if let Some(c) = col.get(u) {
                    bits::set_bit(row, c);
                }
            }
        });
        let palettes_ref = &palettes;
        try_color_round_words(
            net,
            coloring,
            seeds,
            salt ^ ((r as u64) << 12),
            &active,
            1.0,
            |v, rng| {
                let row = &palettes_ref[v * wpr..(v + 1) * wpr];
                let n_free = bits::count_free(row, q);
                if n_free == 0 {
                    None
                } else {
                    bits::nth_free(row, q, rng.random_range(0..n_free))
                }
            },
            &mut scratch,
        );
    }

    // Sequential fallback (guaranteed: deg+1 lists are never exhausted).
    let mut fallback = 0usize;
    let mut fb_scratch = BitsScratch::new();
    for comp in components {
        for &v in comp {
            if coloring.is_colored(v) {
                continue;
            }
            net.charge_full_rounds(1, net.color_bits() + net.id_bits());
            let c = coloring
                .first_fit_color(net.g, v, &mut fb_scratch)
                .expect("deg+1 lists are never exhausted");
            coloring.set(v, c);
            fallback += 1;
        }
    }
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
