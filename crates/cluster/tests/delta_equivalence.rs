//! Differential suite pinning `ClusterGraph::apply_delta_with` to a
//! from-scratch `build_with` of the mutated edge set: **full structural
//! equality** — support trees, multiplicities, CSR adjacencies,
//! dilation — at every tested thread count, plus the
//! dirty-cluster/H-edge report contents and the error-reporting contract
//! (a disconnecting delete produces the full build's error and leaves the
//! graph untouched).

use cgc_cluster::{ClusterGraph, ParallelConfig};
use cgc_graphs::{Layout, WorkloadSpec};
use cgc_net::{CommGraph, DeltaBatch, NetError};

const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Splits candidate mutations off a built instance: deletes only
/// inter-cluster edges (cannot disconnect a cluster), inserts absent
/// pairs — a mix of intra- and inter-cluster ones so support-tree repair
/// is exercised too.
fn make_batch(g: &ClusterGraph, stride: usize) -> DeltaBatch {
    let comm = g.comm();
    let n = comm.n_machines();
    let deletes: Vec<_> = comm
        .edges()
        .filter(|&(a, b)| g.cluster_of(a) != g.cluster_of(b))
        .step_by(stride)
        .collect();
    let mut inserts = Vec::new();
    let mut i = 0usize;
    while inserts.len() < 20 && i + stride + 1 < n {
        let (a, b) = (i, i + stride + 1);
        if !comm.has_link(a, b) {
            inserts.push((a, b));
        }
        i += 2;
    }
    DeltaBatch::new(n, &inserts, &deletes).expect("candidates are valid")
}

/// An owned copy of cluster `c`'s support tree: machines, parents and
/// height.
fn tree_of(g: &ClusterGraph, c: usize) -> (Vec<usize>, Vec<usize>, usize) {
    let t = g.support(c);
    (t.machines.to_vec(), t.parents.to_vec(), t.height)
}

/// From-scratch rebuild of the mutated instance for comparison.
fn rebuild(g: &ClusterGraph) -> ClusterGraph {
    let comm =
        CommGraph::from_edges(g.comm().n_machines(), g.comm().edges()).expect("edges are valid");
    ClusterGraph::build(comm, g.assignment().to_vec()).expect("mutated instance stays connected")
}

#[test]
fn incremental_apply_equals_rebuild_across_families_layouts_threads() {
    let specs = [
        WorkloadSpec::gnp(180, 0.05, 21),
        WorkloadSpec::power_law(180, 2.5, 6.0, 22),
    ];
    for spec in specs {
        for layout in [Layout::Singleton, Layout::Star(3), Layout::Path(4)] {
            let built = spec.with_layout(layout).with_links(2).build();
            let base = ClusterGraph::build(built.comm().clone(), built.assignment().to_vec())
                .expect("realized instance builds");
            let batch = make_batch(&base, 3);
            let mut reference: Option<ClusterGraph> = None;
            for threads in THREADS {
                let par = ParallelConfig::with_threads(threads);
                let mut g = base.clone();
                let report = g.apply_delta_with(&batch, &par).expect("delta applies");
                assert!(!report.is_noop(), "{spec} layout={layout}");
                assert_eq!(
                    g,
                    rebuild(&g),
                    "incremental apply diverged from rebuild: {spec} layout={layout} threads={threads}"
                );
                match &reference {
                    None => reference = Some(g),
                    Some(r) => assert_eq!(
                        &g, r,
                        "thread count changed the result: {spec} layout={layout} threads={threads}"
                    ),
                }
            }
        }
    }
}

#[test]
fn batch_sequence_stays_equal_to_rebuild() {
    let built = WorkloadSpec::gnp(150, 0.06, 31)
        .with_layout(Layout::Path(3))
        .with_links(2)
        .build();
    let mut g = ClusterGraph::build(built.comm().clone(), built.assignment().to_vec()).unwrap();
    for step in 0..4 {
        let batch = make_batch(&g, 2 + step);
        g.apply_delta(&batch).expect("delta applies");
        assert_eq!(g, rebuild(&g), "diverged after batch {step}");
    }
}

/// Two triangle clusters joined by three parallel links — the Figure-1
/// instance, where multiplicity bookkeeping is observable.
fn multi_link_instance() -> ClusterGraph {
    let comm = CommGraph::from_edges(
        6,
        [
            (0, 1),
            (1, 2),
            (0, 2),
            (3, 4),
            (4, 5),
            (3, 5),
            (0, 3),
            (1, 4),
            (2, 5),
        ],
    )
    .unwrap();
    ClusterGraph::build(comm, vec![0, 0, 0, 1, 1, 1]).unwrap()
}

#[test]
fn report_tracks_multiplicity_and_h_edge_lifecycle() {
    // Dropping one of three parallel links: H-edge survives, mult 3 → 2.
    let mut g = multi_link_instance();
    let report = g
        .apply_delta(&DeltaBatch::new(6, &[], &[(0, 3)]).unwrap())
        .unwrap();
    assert!(report.h_inserted.is_empty() && report.h_removed.is_empty());
    assert_eq!(report.h_mult_changed, 1);
    assert!(report.dirty_clusters.is_empty());
    assert_eq!(g.link_multiplicity(0, 1), 2);
    assert_eq!(g, rebuild(&g));

    // Dropping the remaining two: the H-edge vanishes.
    let report = g
        .apply_delta(&DeltaBatch::new(6, &[], &[(1, 4), (2, 5)]).unwrap())
        .unwrap();
    assert_eq!(report.h_removed, vec![(0, 1)]);
    assert_eq!(g.n_h_edges(), 0);
    assert!(!g.has_edge(0, 1));
    assert_eq!(g, rebuild(&g));

    // Re-linking: the H-edge reappears.
    let report = g
        .apply_delta(&DeltaBatch::new(6, &[(2, 3)], &[]).unwrap())
        .unwrap();
    assert_eq!(report.h_inserted, vec![(0, 1)]);
    assert_eq!(g.link_multiplicity(0, 1), 1);
    assert_eq!(g, rebuild(&g));
}

#[test]
fn intra_cluster_churn_repairs_only_dirty_trees() {
    // Cluster 0 is a triangle: deleting one intra edge keeps it connected
    // but reshapes its tree; cluster 1 must be untouched.
    let mut g = multi_link_instance();
    let before_t1 = tree_of(&g, 1);
    let report = g
        .apply_delta(&DeltaBatch::new(6, &[], &[(0, 1)]).unwrap())
        .unwrap();
    assert_eq!(report.dirty_clusters, vec![0]);
    assert_eq!(tree_of(&g, 1), before_t1);
    assert_eq!(g, rebuild(&g));

    // An intra insert also dirties its cluster (even when the tree shape
    // happens to change): re-adding (0, 1) restores the original tree.
    let report = g
        .apply_delta(&DeltaBatch::new(6, &[(0, 1)], &[]).unwrap())
        .unwrap();
    assert_eq!(report.dirty_clusters, vec![0]);
    assert_eq!(g, rebuild(&g));
}

#[test]
fn disconnecting_delete_errors_and_rolls_back() {
    // One path cluster 0-1-2: deleting (1, 2) strands machine 2. Two path
    // clusters joined by one link: deleting the first edge of each path
    // disconnects both at once, and the smallest id is reported.
    let inputs = [
        (3, vec![(0, 1), (1, 2)], vec![0, 0, 0], vec![(1, 2)]),
        (
            6,
            vec![(0, 1), (1, 2), (3, 4), (4, 5), (2, 3)],
            vec![0, 0, 0, 1, 1, 1],
            vec![(0, 1), (3, 4)],
        ),
    ];
    for (n, edges, assignment, deletes) in inputs {
        let comm = CommGraph::from_edges(n, &edges).unwrap();
        let mut g = ClusterGraph::build(comm, assignment.clone()).unwrap();
        let before = g.clone();
        let batch = DeltaBatch::new(n, &[], &deletes).unwrap();
        for threads in THREADS {
            let err = g
                .apply_delta_with(&batch, &ParallelConfig::with_threads(threads))
                .unwrap_err();
            assert_eq!(err, NetError::DisconnectedCluster { cluster: 0 });
            assert_eq!(
                g, before,
                "failed apply must not mutate (n={n}, threads={threads})"
            );
        }
        // The full build of the mutated set reports the same error.
        let kept = edges.iter().filter(|e| !deletes.contains(e));
        let mutated = CommGraph::from_edges(n, kept).unwrap();
        let full = ClusterGraph::build(mutated, assignment).unwrap_err();
        assert_eq!(full, NetError::DisconnectedCluster { cluster: 0 });
    }
}

#[test]
fn noop_batch_changes_nothing() {
    let mut g = multi_link_instance();
    let before = g.clone();
    // Insert an existing edge, delete an absent one.
    let batch = DeltaBatch::new(6, &[(0, 1)], &[(0, 4)]).unwrap();
    let report = g.apply_delta(&batch).unwrap();
    assert!(report.is_noop());
    assert_eq!(g, before);
}
