//! Edge-contraction instances — the flow-algorithm scenario (§1.1).
//!
//! Maximum-flow and network-decomposition algorithms repeatedly *contract*
//! connected machine sets; the contracted graph is exactly a cluster graph
//! over the original network, with clusters of wildly uneven shapes and
//! many parallel links between the same pair of clusters (Figure 1). This
//! family builds that instance from first principles: a `side × side`
//! grid network — the canonical flow substrate — contracted along seeded
//! connected *blobs* grown to a random target size in `lo..=hi`.
//!
//! Unlike the generator families, the contraction **is** the layout:
//! clusters come from the blob map, not from a [`crate::Layout`]
//! expansion, so the family goes straight from machine-edge runs to its
//! cluster graph (like [`crate::adversarial`]) and the workload grammar
//! rejects `layout`/`links` keys for it. The grid wiring shards by grid
//! rows through the pipeline; the blob growth is one serial seeded sweep.
//! The instance is
//! [`crate::WorkloadSpec::contraction`]`(side, lo, hi, seed).build()`.

use crate::pipeline::ShardedEdgeSource;
use cgc_net::{ParallelConfig, SeedStream};
use rand::RngExt;

/// The generation half of the contracted grid instance: machine count,
/// per-shard grid-wiring runs (vertex `v` emits its right and down links
/// — a pure function of `v`) and the blob machine→cluster assignment
/// (one serial seeded BFS-stack sweep).
///
/// # Panics
///
/// Panics if `side == 0` or `lo` is not in `1..=hi`.
pub(crate) fn contraction_runs(
    side: usize,
    lo: usize,
    hi: usize,
    seed: u64,
    par: &ParallelConfig,
) -> (usize, ShardedEdgeSource, Vec<usize>) {
    assert!(side > 0, "need a nonempty grid");
    assert!(lo >= 1 && lo <= hi, "need 1 <= lo <= hi, got {lo}..={hi}");
    let n = side * side;
    let runs = ShardedEdgeSource::from_rows(n, par, move |v, out| {
        let (r, c) = (v / side, v % side);
        if c + 1 < side {
            out.push((v, v + 1));
        }
        if r + 1 < side {
            out.push((v, v + side));
        }
    });

    // Contract random connected blobs: grow regions of lo..=hi machines
    // from each yet-unassigned vertex, exactly what a blocking-flow phase
    // produces. The growth is a stack walk over the (ascending) grid
    // neighbors, deterministic in the seed. Each blob draws its target
    // size from its own substream keyed by the blob's start machine — the
    // same per-entity protocol as the generators' per-row streams — so no
    // single RNG cursor threads through the sweep. (The sweep itself stays
    // serial and that is inherent, not an implementation gap: whether a
    // machine starts a blob depends on every earlier blob's extent.)
    let blob_seeds = SeedStream::new(seed).child(0x00C0_47AC);
    let mut assignment = vec![usize::MAX; n];
    let mut next_cluster = 0usize;
    let mut frontier: Vec<usize> = Vec::new();
    for start in 0..n {
        if assignment[start] != usize::MAX {
            continue;
        }
        let target = blob_seeds.rng_for(start as u64, 0).random_range(lo..=hi);
        let mut grabbed = 0usize;
        frontier.clear();
        frontier.push(start);
        while let Some(v) = frontier.pop() {
            if assignment[v] != usize::MAX || grabbed == target {
                continue;
            }
            assignment[v] = next_cluster;
            grabbed += 1;
            let (r, c) = (v / side, v % side);
            if r > 0 && assignment[v - side] == usize::MAX {
                frontier.push(v - side);
            }
            if c > 0 && assignment[v - 1] == usize::MAX {
                frontier.push(v - 1);
            }
            if c + 1 < side && assignment[v + 1] == usize::MAX {
                frontier.push(v + 1);
            }
            if r + 1 < side && assignment[v + side] == usize::MAX {
                frontier.push(v + side);
            }
        }
        next_cluster += 1;
    }
    (n, runs, assignment)
}

#[cfg(test)]
mod tests {
    use crate::WorkloadSpec;
    use cgc_cluster::ParallelConfig;

    #[test]
    fn blobs_cover_the_grid_within_bounds() {
        let g = WorkloadSpec::contraction(16, 4, 12, 3141).build();
        assert_eq!(g.n_machines(), 256);
        assert!(g.n_vertices() >= 256 / 12);
        let mut sizes = vec![0usize; g.n_vertices()];
        for m in 0..g.n_machines() {
            sizes[g.cluster_of(m)] += 1;
        }
        assert_eq!(sizes.iter().sum::<usize>(), 256);
        assert!(
            sizes.iter().all(|&s| (1..=12).contains(&s)),
            "blob sizes {sizes:?}"
        );
    }

    #[test]
    fn contraction_exhibits_parallel_links() {
        // Wide blobs along a grid boundary share several grid links —
        // the Figure 1 multi-link phenomenon the family exists to show.
        let g = WorkloadSpec::contraction(20, 4, 12, 7).build();
        let max_mult = g
            .h_edges()
            .map(|(u, v)| g.link_multiplicity(u, v))
            .max()
            .unwrap_or(0);
        assert!(max_mult >= 2, "max multiplicity {max_mult}");
    }

    #[test]
    fn deterministic_in_seed_and_thread_count() {
        let reference = WorkloadSpec::contraction(12, 2, 6, 5).build();
        assert_eq!(WorkloadSpec::contraction(12, 2, 6, 5).build(), reference);
        assert_ne!(
            WorkloadSpec::contraction(12, 2, 6, 6).build().n_vertices(),
            0,
            "different seed still builds"
        );
        for threads in [2, 4, 8] {
            let got = WorkloadSpec::contraction(12, 2, 6, 5)
                .build_timed(&ParallelConfig::with_threads(threads))
                .0;
            assert_eq!(got, reference, "threads={threads}");
        }
    }

    #[test]
    #[should_panic(expected = "1 <= lo <= hi")]
    fn inverted_bounds_rejected() {
        WorkloadSpec::contraction(8, 5, 3, 1).build();
    }
}
