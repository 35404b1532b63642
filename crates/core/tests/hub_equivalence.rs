//! Thread-invariance on hub-heavy instances: a Chung–Lu power law at
//! β = 2.1 and a synthetic one-hub star spec, both realized in a star
//! layout. One hub row holds a large share of the CSR entries, so the
//! row-granular shard plans are at their most lopsided here. The full
//! pipeline (instance build, driver run, cost report) and the metered
//! fold rounds must still be **byte-identical** to the serial executor at
//! every swept thread count.

use cgc_cluster::{ClusterGraph, ClusterNet, ParallelConfig, VertexId};
use cgc_core::{color_cluster_graph_with, DriverOptions, Params, RunResult};
use cgc_graphs::{realize_runs, HSpec, Layout, WorkloadSpec};
use cgc_net::CommGraph;

/// A spec dominated by one hub: vertex 0 adjacent to everyone, plus a
/// thin cycle through the leaves so components stay interesting.
fn one_hub_spec(n: usize) -> HSpec {
    let mut edges: Vec<(usize, usize)> = (1..n).map(|v| (0, v)).collect();
    for v in 1..n - 1 {
        edges.push((v, v + 1));
    }
    HSpec::new(n, edges)
}

fn power_law_hub_spec() -> HSpec {
    WorkloadSpec::power_law(220, 2.1, 6.0, 42)
        .conflict_spec(&ParallelConfig::with_threads(4))
        .expect("power law has a conflict spec")
        .0
}

/// Builds the instance at `par` (layout expansion, canonical ingest and
/// `ClusterGraph::build_with` all honor the config).
fn build(h: &HSpec, seed: u64, par: &ParallelConfig) -> ClusterGraph {
    let (n_machines, runs, assignment) = realize_runs(h, Layout::Star(3), 2, seed, par);
    let comm = CommGraph::from_edge_runs_with(n_machines, &runs.run_slices(), par)
        .expect("the layout produces a valid network");
    ClusterGraph::build_with(comm, assignment, par).expect("clusters are connected")
}

fn run(g: &ClusterGraph, seed: u64, par: ParallelConfig) -> RunResult {
    let params = Params::laptop(g.n_vertices());
    let mut net = ClusterNet::with_log_budget_parallel(g, 32, par);
    color_cluster_graph_with(&mut net, &params, seed, DriverOptions::default())
}

/// Instance construction: the sharded build must reproduce the serial
/// build full-struct, including CSR layout, support trees and link
/// tables, at every thread count.
#[test]
fn hub_build_is_byte_identical_to_serial() {
    for (label, h) in [
        ("one-hub", one_hub_spec(260)),
        ("powerlaw-2.1", power_law_hub_spec()),
    ] {
        let reference = build(&h, 9, &ParallelConfig::serial());
        for threads in [1usize, 2, 4, 8] {
            let got = build(&h, 9, &ParallelConfig::with_threads(threads));
            assert_eq!(
                got, reference,
                "{label}: build drifted at threads={threads}"
            );
        }
    }
}

/// Full driver runs: coloring vector and cost report must match the
/// serial run at threads {1, 2, 4, 8}.
#[test]
fn hub_runs_are_thread_count_invariant() {
    for (label, h) in [
        ("one-hub", one_hub_spec(260)),
        ("powerlaw-2.1", power_law_hub_spec()),
    ] {
        let g = build(&h, 9, &ParallelConfig::serial());
        let reference = run(&g, 1234, ParallelConfig::serial());
        assert!(
            reference.coloring.is_total() && reference.coloring.is_proper(&g),
            "{label}: reference run must color properly"
        );
        for threads in [1usize, 2, 4, 8] {
            let got = run(&g, 1234, ParallelConfig::with_threads(threads));
            assert_eq!(
                got.coloring, reference.coloring,
                "{label}: coloring drifted at threads={threads}"
            );
            assert_eq!(
                got.report, reference.report,
                "{label}: cost report drifted at threads={threads}"
            );
        }
    }
}

/// The metered aggregation rounds themselves (the driver's hot path) are
/// bit-identical to the serial runtime, including `CostMeter` totals —
/// checked directly on the typed fold wrappers.
#[test]
fn hub_folds_and_meter_are_thread_count_invariant() {
    let h = one_hub_spec(400);
    let g = build(&h, 9, &ParallelConfig::serial());
    let queries: Vec<u64> = (0..g.n_vertices() as u64).map(|v| v * 7 + 3).collect();

    let fold_all =
        |par: ParallelConfig| {
            let mut net = ClusterNet::with_parallel(&g, 64, par);
            let flags = net
                .neighbor_fold_flags(16, 1, &queries, |_, _, qv, qu| qu > qv)
                .to_vec();
            let counts =
                net.neighbor_fold_counts(16, 16, &queries, |_: VertexId, _, _, qu| {
                    if qu % 3 == 0 {
                        Some(1)
                    } else {
                        None
                    }
                })
                .to_vec();
            let words = net
                .neighbor_fold_words(16, 64, &queries, |_, _, _, qu| Some(1u64 << (qu % 64)))
                .to_vec();
            let mut degs = Vec::new();
            net.exact_degrees_into(&mut degs);
            (flags, counts, words, degs, net.meter.report())
        };

    let reference = fold_all(ParallelConfig::serial());
    for threads in [1usize, 2, 4, 8] {
        let got = fold_all(ParallelConfig::with_threads(threads));
        assert_eq!(got, reference, "threads={threads}");
    }
}
