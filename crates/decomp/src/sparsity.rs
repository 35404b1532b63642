//! Exact sparsity (Definition 4.1) — the analyst's oracle.
//!
//! `ζ_v = (1/Δ) [ C(Δ,2) − (1/2) Σ_{u ∈ N(v)} |N(u) ∩ N(v)| ]` counts
//! (scaled) the edges missing from `v`'s neighborhood. A node is ζ-sparse
//! when `ζ_v ≥ ζ`. These quantities are *not* computable by the
//! distributed algorithm (that is the point of fingerprinting); they are
//! exposed for tests and validation. [`common_neighbors`] also backs the
//! exact buddy oracle
//! ([`friendly_oracle`](crate::buddy::friendly_oracle)) that the E10
//! experiment compares the fingerprint decomposition against.

use cgc_cluster::{ClusterGraph, VertexId};

/// Number of common neighbors of adjacent-or-not vertices `u` and `v`
/// (two-pointer intersection of sorted adjacency rows).
pub fn common_neighbors(g: &ClusterGraph, u: VertexId, v: VertexId) -> usize {
    let (mut i, mut j) = (0usize, 0usize);
    let nu = g.neighbors(u);
    let nv = g.neighbors(v);
    let mut count = 0usize;
    while i < nu.len() && j < nv.len() {
        match nu[i].cmp(&nv[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                count += 1;
                i += 1;
                j += 1;
            }
        }
    }
    count
}

/// Exact sparsity `ζ_v` for every vertex.
pub fn exact_sparsity(g: &ClusterGraph) -> Vec<f64> {
    let delta = g.max_degree() as f64;
    if delta == 0.0 {
        return vec![0.0; g.n_vertices()];
    }
    let choose2 = delta * (delta - 1.0) / 2.0;
    (0..g.n_vertices())
        .map(|v| {
            let sum: usize = g
                .neighbors(v)
                .iter()
                .map(|&u| common_neighbors(g, u, v))
                .sum();
            (choose2 - 0.5 * sum as f64) / delta
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgc_net::CommGraph;

    #[test]
    fn clique_vertices_have_zero_sparsity() {
        let g = ClusterGraph::singletons(CommGraph::complete(10));
        let z = exact_sparsity(&g);
        // In K_10: Δ=9, each pair of neighbors of v is adjacent:
        // Σ |N(u)∩N(v)| over u∈N(v) = 9 * 8 = 72; ζ = (36 - 36)/9 = 0.
        for (v, &s) in z.iter().enumerate() {
            assert!(s.abs() < 1e-9, "vertex {v} sparsity {s}");
        }
    }

    #[test]
    fn star_center_is_maximally_sparse() {
        let g = ClusterGraph::singletons(CommGraph::star(11));
        let z = exact_sparsity(&g);
        // Center: Δ=10, no two leaves adjacent: ζ_0 = C(10,2)/10 = 4.5.
        assert!((z[0] - 4.5).abs() < 1e-9, "center sparsity {}", z[0]);
    }

    #[test]
    fn common_neighbors_counts_correctly() {
        // Path 0-1-2-3: N(0)={1}, N(2)={1,3} -> common = {1}.
        let g = ClusterGraph::singletons(CommGraph::path(4));
        assert_eq!(common_neighbors(&g, 0, 2), 1);
        assert_eq!(common_neighbors(&g, 0, 1), 0);
        assert_eq!(common_neighbors(&g, 0, 3), 0);
    }

    #[test]
    fn sparsity_separates_planted_structure() {
        // A 10-clique (vertices 0..10) plus a disjoint 5-cycle
        // (vertices 10..15): clique members have ζ = 0, cycle members
        // ζ = C(Δ,2)/Δ = 4 with Δ = 9.
        let mut edges = Vec::new();
        for u in 0..10 {
            for v in (u + 1)..10 {
                edges.push((u, v));
            }
        }
        for j in 0..5 {
            edges.push((10 + j, 10 + (j + 1) % 5));
        }
        let g = ClusterGraph::singletons(CommGraph::from_edges(15, &edges).unwrap());
        let z = exact_sparsity(&g);
        for (v, &s) in z.iter().enumerate().take(10) {
            assert!(s.abs() < 1e-9, "clique vertex {v} sparsity {s}");
        }
        for (v, &s) in z.iter().enumerate().skip(10) {
            assert!((s - 4.0).abs() < 1e-9, "cycle vertex {v} sparsity {s}");
        }
    }
}
