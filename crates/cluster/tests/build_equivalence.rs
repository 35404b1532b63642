//! Differential suite pinning the sharded `ClusterGraph::build` to the
//! serial one: **full structural equality** of the built graph — support
//! trees, links, edge/multiplicity tables, CSR adjacency, dilation — at
//! every tested thread count, across the workload families and layouts
//! the experiments use. Also pins the error-reporting contract: invalid
//! assignments produce the same error at any thread count.
//!
//! The realized network and assignment are taken once per
//! `(family, layout)` from the serially built instance
//! (`WorkloadSpec::build`), so the only varying input is the
//! `ParallelConfig` — any divergence is the sharded build's fault.

use cgc_cluster::{ClusterGraph, ParallelConfig};
use cgc_graphs::{Layout, MixtureConfig, WorkloadSpec};
use cgc_net::{CommGraph, NetError};

const THREADS: [usize; 4] = [1, 2, 4, 8];

fn families() -> Vec<WorkloadSpec> {
    vec![
        WorkloadSpec::gnp(220, 0.04, 11),
        WorkloadSpec::power_law(220, 2.5, 6.0, 12),
        WorkloadSpec::rgg(220, 0.09, 13),
        WorkloadSpec::mixture(
            &MixtureConfig {
                n_cliques: 3,
                clique_size: 16,
                anti_edge_prob: 0.05,
                external_per_vertex: 2,
                sparse_n: 40,
                sparse_p: 0.08,
            },
            14,
        ),
        WorkloadSpec::cabal(3, 14, 2, 5, 15),
    ]
}

#[test]
fn sharded_build_equals_serial_across_families_layouts_threads() {
    for spec in families() {
        for layout in [Layout::Singleton, Layout::Star(3), Layout::Path(4)] {
            let built = spec.with_layout(layout).with_links(2).build();
            let (comm, assignment) = (built.comm().clone(), built.assignment().to_vec());
            let serial = ClusterGraph::build(comm.clone(), assignment.clone())
                .expect("realized clusters are connected");
            for threads in THREADS {
                let sharded = ClusterGraph::build_with(
                    comm.clone(),
                    assignment.clone(),
                    &ParallelConfig::with_threads(threads),
                )
                .expect("realized clusters are connected");
                assert_eq!(
                    sharded, serial,
                    "sharded build diverged: {spec} layout={layout} threads={threads}"
                );
            }
        }
    }
}

#[test]
fn error_reporting_is_thread_count_independent() {
    // Clusters 0 and 2 are disconnected within their subsets; the serial
    // walk reports the smallest failing cluster id. So must every shard
    // count (shard merge is cluster-ordered).
    let comm = CommGraph::path(8);
    let assignment = vec![0, 1, 0, 1, 2, 1, 2, 1];
    for threads in THREADS {
        let err = ClusterGraph::build_with(
            comm.clone(),
            assignment.clone(),
            &ParallelConfig::with_threads(threads),
        )
        .unwrap_err();
        assert!(
            matches!(err, NetError::DisconnectedCluster { cluster: 0 }),
            "threads={threads}: {err:?}"
        );
    }

    // Length mismatch precedes everything, at any thread count.
    for threads in THREADS {
        let err = ClusterGraph::build_with(
            CommGraph::path(4),
            vec![0, 0, 0],
            &ParallelConfig::with_threads(threads),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            NetError::AssignmentLength {
                expected: 4,
                actual: 3
            }
        ));
    }
}

#[test]
fn multiplicities_survive_sharded_dedup() {
    // Heavily multi-linked instance: two clusters joined by many parallel
    // links, plus a chain — exercises the k-way merge's multiplicity sums.
    let mut edges = vec![(0, 1), (1, 2), (3, 4), (4, 5), (6, 7)];
    for i in 0..3 {
        edges.push((i, 3 + i)); // 3 parallel links cluster 0 -> 1
    }
    edges.push((5, 6)); // single link cluster 1 -> 2
    let comm = CommGraph::from_edges(8, &edges).unwrap();
    let assignment = vec![0, 0, 0, 1, 1, 1, 2, 2];
    let serial = ClusterGraph::build(comm.clone(), assignment.clone()).unwrap();
    assert_eq!(serial.link_multiplicity(0, 1), 3);
    assert_eq!(serial.link_multiplicity(1, 2), 1);
    for threads in THREADS {
        let sharded = ClusterGraph::build_with(
            comm.clone(),
            assignment.clone(),
            &ParallelConfig::with_threads(threads),
        )
        .unwrap();
        assert_eq!(sharded, serial, "threads={threads}");
    }
}
