//! Square graphs for the distance-2 corollary (Corollary 1.3, E12).
//!
//! Distance-2 coloring of `G` is vertex coloring of `G²`. The paper treats
//! `G²` as a *virtual graph* over `G` (clusters = closed neighborhoods,
//! overlapping); our cluster graphs require disjoint clusters, so — as
//! the README's "Substitutions" section lists — experiment E12 colors the
//! explicit square graph with the cluster machinery and verifies the
//! `Δ² + 1` color bound, which preserves the conflict structure (the
//! overlap-congestion overhead of the virtual-graph embedding, a constant
//! the sibling paper \[FHN24\] handles, is charged separately by
//! `cgc_cluster::VirtualGraph`).

use crate::layouts::HSpec;
use crate::pipeline::ShardedEdgeSource;
use cgc_net::ParallelConfig;

/// The square of a conflict graph: `{u, v}` is an edge of `G²` when their
/// distance in `G` is 1 or 2.
pub fn square_spec(g: &HSpec) -> HSpec {
    let par = ParallelConfig::serial();
    square_runs(g, &par).into_hspec(&par)
}

/// The raw per-shard edge runs of the square expansion — the generation
/// half of [`square_spec`], before canonicalization; a pure function of
/// `g`, independent of the thread count.
pub(crate) fn square_runs(g: &HSpec, par: &ParallelConfig) -> ShardedEdgeSource {
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); g.n];
    for &(u, v) in &g.edges {
        adj[u].push(v);
        adj[v].push(u);
    }
    let adj = &adj;
    // Row u touches its whole 2-neighborhood; its degree is the cheap
    // proxy that keeps hub rows from serializing one shard.
    let weights: Vec<f64> = adj.iter().map(|a| a.len() as f64 + 1.0).collect();
    ShardedEdgeSource::from_row_tasks_weighted(g.n, par, &weights, 0.0, move |u, _, _, out| {
        let mut reach: Vec<usize> = adj[u].clone();
        for &w in &adj[u] {
            reach.extend_from_slice(&adj[w]);
        }
        reach.sort_unstable();
        reach.dedup();
        for &v in &reach {
            if v > u {
                out.push((u, v));
            }
        }
    })
}

/// `Δ₂ = max_v |N²(v)|`, the parameter of Corollary 1.3.
pub fn delta_two(g: &HSpec) -> usize {
    square_spec(g).max_degree()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn square_of_path_connects_distance_two() {
        let p = HSpec::new(5, vec![(0, 1), (1, 2), (2, 3), (3, 4)]);
        let sq = square_spec(&p);
        assert!(sq.edges.contains(&(0, 2)));
        assert!(sq.edges.contains(&(0, 1)));
        assert!(!sq.edges.contains(&(0, 3)));
        assert_eq!(sq.max_degree(), 4); // middle vertex reaches 4 others
    }

    #[test]
    fn square_of_star_is_complete() {
        let s = HSpec::new(6, (1..6).map(|i| (0, i)).collect());
        let sq = square_spec(&s);
        assert_eq!(sq.edges.len(), 15, "K6 has 15 edges");
        assert_eq!(delta_two(&s), 5);
    }

    #[test]
    fn square_of_empty_graph_is_empty() {
        let e = HSpec::new(4, vec![]);
        assert!(square_spec(&e).edges.is_empty());
        assert_eq!(delta_two(&e), 0);
    }
}
