//! Coloring after edge contraction — the flow-algorithm scenario (§1.1).
//!
//! Maximum-flow and network-decomposition algorithms repeatedly *contract*
//! connected machine sets; the contracted graph is exactly a cluster graph
//! over the original network, with clusters of wildly uneven shapes and
//! many parallel links between the same pair of clusters. The
//! `contraction` workload family builds such an instance — a grid network
//! contracted along seeded blobs — so the scenario is string-addressable
//! like every other workload: the spec below reproduces this exact
//! instance anywhere.
//!
//! Once colored, the coloring itself becomes a *scheduler*: its color
//! classes are pairwise non-adjacent in the contracted graph, so the
//! per-cluster state updates a flow phase runs between contractions
//! (label relaxations below) execute class-by-class as parallel waves.
//! Each wave computes its new labels against a snapshot into its own
//! buffer, split across threads with `for_each_part`, then commits them
//! in one pass — no locks, no atomics, no `unsafe`, bit-identical at any
//! thread count.
//!
//! ```sh
//! cargo run --release --example contracted_flow_network
//! ```

use cluster_coloring::net::par::for_each_part;
use cluster_coloring::prelude::*;

fn main() {
    // A 24x24 grid network — the canonical flow substrate — contracted
    // along random connected blobs of 4–12 machines, exactly what a
    // blocking-flow phase produces.
    let mut session = SessionBuilder::parse("contraction:side=24,lo=4,hi=12,seed=3141")
        .expect("valid workload spec")
        .build();
    let h = session.graph();
    println!(
        "contracted graph: {} clusters over {} machines, Δ = {}, dilation {}",
        h.n_vertices(),
        h.n_machines(),
        h.max_degree(),
        h.dilation()
    );
    let max_mult = h
        .h_edges()
        .map(|(u, v)| h.link_multiplicity(u, v))
        .max()
        .unwrap_or(0);
    println!("max parallel links per contracted edge: {max_mult} (Figure 1)");

    let out = session.run(17);
    let h = session.graph();
    assert!(out.run.coloring.is_total() && out.run.coloring.is_proper(h));
    let stats = coloring_stats(h, &out.run.coloring);
    println!(
        "colored {} clusters with {} colors in {} H-rounds / {} G-rounds",
        stats.n_vertices, stats.colors_used, out.run.report.h_rounds, out.run.report.g_rounds
    );
    println!(
        "bandwidth: max message {} bits within budget {} ({} oversized)",
        out.run.report.max_msg_bits, out.run.report.budget_bits, out.run.report.oversized_msgs
    );
    println!(
        "setup: generate {:.3}s, canonicalize {:.3}s, build {:.3}s (spec `{}`)",
        out.generate_secs, out.canonicalize_secs, out.graph_build_secs, out.spec_string
    );

    // --- Coloring as a scheduler -----------------------------------
    // A flow phase now needs per-cluster label relaxations over the
    // contracted graph. Turn the coloring we just computed into an
    // execution schedule: class = wave, formed by a stable sort of the
    // clusters by color (ascending id within a wave). Properness is what
    // makes a wave conflict-free, so assert it here.
    let coloring = &out.run.coloring;
    assert!(coloring.is_proper(h), "waves need a proper coloring");
    let mut order: Vec<usize> = (0..h.n_vertices()).collect();
    order.sort_by_key(|&v| coloring.get(v));
    let waves: Vec<&[usize]> = order
        .chunk_by(|&u, &v| coloring.get(u) == coloring.get(v))
        .collect();
    println!(
        "schedule: {} classes ({} non-empty), largest wave {} of {} clusters",
        coloring.q(),
        waves.len(),
        waves.iter().map(|w| w.len()).max().unwrap_or(0),
        h.n_vertices()
    );

    // At least 2 so the pooled path runs even on a single-core box.
    let threads = available_threads().max(2);
    let (serial_labels, serial_sweeps) = relax_to_fixpoint(h, &waves, 1);
    let (par_labels, par_sweeps) = relax_to_fixpoint(h, &waves, threads);
    assert_eq!(
        (serial_labels, serial_sweeps),
        (par_labels.clone(), par_sweeps),
        "wave execution is bit-identical at any thread count"
    );
    let eccentricity = par_labels.iter().filter(|&&l| l != u32::MAX).max().unwrap();
    println!(
        "wave-parallel relaxation: fixpoint in {par_sweeps} sweeps, \
         eccentricity {eccentricity} from cluster 0 ({threads} threads == serial)"
    );
}

/// Relaxes hop-distance labels from cluster 0 to a fixpoint, sweeping
/// the contracted graph wave by wave. Each wave is snapshot-then-commit:
/// its clusters' new labels are computed from the labels as they stood
/// at wave start, shard-parallel into a candidate buffer split by
/// [`for_each_part`], then written back serially. No two clusters of a
/// wave are adjacent, so the snapshot is exactly what an in-place update
/// would read. Returns the labels and the number of sweeps to quiescence
/// (both independent of `threads`).
fn relax_to_fixpoint(h: &ClusterGraph, waves: &[&[usize]], threads: usize) -> (Vec<u32>, usize) {
    let mut labels = vec![u32::MAX; h.n_vertices()];
    labels[0] = 0;
    let mut next: Vec<u32> = Vec::new();
    let mut sweeps = 0usize;
    loop {
        let mut changed = false;
        for wave in waves {
            let len = wave.len();
            let shards = threads.min(len);
            next.clear();
            next.resize(len, u32::MAX);
            let frozen = &labels;
            for_each_part(
                shards,
                &mut next,
                |s| s * len / shards,
                |s, part| {
                    let start = s * len / shards;
                    for (slot, &v) in part.iter_mut().zip(&wave[start..]) {
                        *slot = h
                            .neighbors(v)
                            .iter()
                            .fold(frozen[v], |best, &u| best.min(frozen[u].saturating_add(1)));
                    }
                },
            );
            for (&v, &label) in wave.iter().zip(&next) {
                if label != labels[v] {
                    labels[v] = label;
                    changed = true;
                }
            }
        }
        if !changed {
            return (labels, sweeps);
        }
        sweeps += 1;
    }
}
