//! Bottleneck-link instances (Figures 2 and 3, experiment E17).
//!
//! Each cluster is a long path of machines with a single *bridge* link in
//! the middle; inter-cluster links attach only at the path's two ends,
//! with lower-indexed neighbor clusters wired to the left end and
//! higher-indexed ones to the right. Any information flow between the two
//! halves of a cluster squeezes through the `O(log n)`-bit bridge —
//! exactly the set-intersection hard instance of Figure 2. The coloring
//! algorithm must still finish within budget because it only ever moves
//! aggregates, never raw neighbor lists.
//!
//! The instance for a complete conflict graph on `clusters` clusters,
//! each a path of `path ≥ 2` machines, is
//! [`crate::WorkloadSpec::bottleneck`]`(clusters, path).build()`.

use crate::pipeline::ShardedEdgeSource;
use cgc_net::ParallelConfig;

/// The generation half of the bottleneck instance: machine count,
/// per-shard edge runs (cluster `c` emits its own path wiring and its
/// links to every higher cluster — a pure function of `c`) and the
/// machine→cluster assignment.
///
/// # Panics
///
/// Panics if `n_clusters == 0` or `path_len < 2`.
pub(crate) fn bottleneck_runs(
    n_clusters: usize,
    path_len: usize,
    par: &ParallelConfig,
) -> (usize, ShardedEdgeSource, Vec<usize>) {
    assert!(n_clusters > 0, "need clusters");
    assert!(path_len >= 2, "paths need two ends");
    let m = path_len;
    let n_machines = n_clusters * m;
    // Cluster c owns m - 1 path edges plus n_clusters - 1 - c outgoing
    // links; weight the row split by that mass so the link-heavy head
    // does not serialize shard 0.
    let weights: Vec<f64> = (0..n_clusters)
        .map(|c| (m - 1 + (n_clusters - 1 - c)) as f64 + 1.0)
        .collect();
    let runs = ShardedEdgeSource::from_row_tasks_weighted(
        n_clusters,
        par,
        &weights,
        0.0,
        |c, _, _, out| {
            let base = c * m;
            for j in 0..(m - 1) {
                out.push((base + j, base + j + 1));
            }
            // Complete conflict graph; attachment by index order: c (lower)
            // uses its RIGHT end, every higher cluster its LEFT end.
            for v in (c + 1)..n_clusters {
                out.push((base + m - 1, v * m));
            }
        },
    );
    let assignment: Vec<usize> = (0..n_machines).map(|i| i / m).collect();
    (n_machines, runs, assignment)
}

#[cfg(test)]
mod tests {
    use crate::WorkloadSpec;

    #[test]
    fn conflict_graph_is_complete() {
        let g = WorkloadSpec::bottleneck(5, 6).build();
        assert_eq!(g.n_vertices(), 5);
        for u in 0..5 {
            for v in (u + 1)..5 {
                assert!(g.has_edge(u, v), "missing ({u},{v})");
            }
        }
        assert_eq!(g.max_degree(), 4);
    }

    #[test]
    fn dilation_matches_path_length() {
        let g = WorkloadSpec::bottleneck(3, 10).build();
        assert_eq!(g.dilation(), 9);
    }

    #[test]
    fn links_attach_at_ends_only() {
        let g = WorkloadSpec::bottleneck(4, 8).build();
        for (mu, mv, cu, cv) in g.links() {
            assert!(cu < cv);
            assert_eq!(mu % 8, 7, "lower cluster uses right end");
            assert_eq!(mv % 8, 0, "higher cluster uses left end");
        }
    }

    #[test]
    fn single_links_between_clusters() {
        let g = WorkloadSpec::bottleneck(6, 4).build();
        for u in 0..6 {
            for v in (u + 1)..6 {
                assert_eq!(g.link_multiplicity(u, v), 1);
            }
        }
    }
}
