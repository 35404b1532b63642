//! Differential suite: a [`Session`]-driven run is **bit-identical** —
//! coloring vector and `CostReport` — to the legacy hand-rolled
//! `generator → ClusterNet → Params → color_cluster_graph_with` path, at
//! 1 thread and at max threads. This pins the Session refactor as a pure
//! re-plumbing: same instance, same transcript, same meter totals.

use cgc_cluster::{available_threads, ClusterNet, ParallelConfig};
use cgc_core::{color_cluster_graph_with, DriverOptions, Params, RunResult, SessionBuilder};
use cgc_graphs::{Layout, MixtureConfig, WorkloadSpec};

/// The six-step incantation every experiment binary used to hand-roll.
fn legacy_run(spec: &WorkloadSpec, seed: u64, parallel: ParallelConfig) -> RunResult {
    let g = spec.build();
    let mut net = ClusterNet::with_log_budget_parallel(&g, 32, parallel);
    let params = Params::laptop(g.n_vertices());
    color_cluster_graph_with(&mut net, &params, seed, DriverOptions::default())
}

fn assert_session_matches_legacy(spec: WorkloadSpec, seed: u64) {
    for threads in [1usize, available_threads()] {
        let parallel = ParallelConfig::with_threads(threads);
        let legacy = legacy_run(&spec, seed, parallel);
        let mut session = SessionBuilder::new(spec).parallel(parallel).build();
        let out = session.run(seed);
        assert_eq!(
            out.run.coloring, legacy.coloring,
            "coloring diverged for {spec} at {threads} threads"
        );
        assert_eq!(
            out.run.report, legacy.report,
            "cost report diverged for {spec} at {threads} threads"
        );
        assert_eq!(out.threads, threads);
        // And a second session run on the cached graph stays identical.
        let again = session.run(seed);
        assert!(again.cache_hit);
        assert_eq!(again.run.coloring, legacy.coloring, "cached rerun diverged");
        assert_eq!(again.run.report, legacy.report);
    }
}

#[test]
fn gnp_low_degree_path() {
    assert_session_matches_legacy(WorkloadSpec::gnp(120, 0.05, 1), 11);
}

#[test]
fn mixture_high_degree_path_star_layout() {
    let cfg = MixtureConfig {
        n_cliques: 3,
        clique_size: 24,
        anti_edge_prob: 0.03,
        external_per_vertex: 2,
        sparse_n: 30,
        sparse_p: 0.1,
    };
    let spec = WorkloadSpec::mixture(&cfg, 2).with_layout(Layout::Star(3));
    assert_session_matches_legacy(spec, 18);
}

#[test]
fn cabal_multilink() {
    assert_session_matches_legacy(WorkloadSpec::cabal(3, 24, 3, 5, 3).with_links(2), 13);
}

#[test]
fn power_law_skewed_rows() {
    assert_session_matches_legacy(WorkloadSpec::power_law(600, 2.5, 8.0, 7), 21);
}

#[test]
fn bottleneck_adversarial_layout() {
    assert_session_matches_legacy(WorkloadSpec::bottleneck(10, 6), 14);
}
