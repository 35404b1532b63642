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
//! (label relaxations below) execute class-by-class as conflict-free
//! parallel waves — no locks, no atomics, bit-identical at any thread
//! count.
//!
//! ```sh
//! cargo run --release --example contracted_flow_network
//! ```

use cluster_coloring::cluster::par::SendPtr;
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
    // contracted graph. Materialize the coloring we just computed into
    // an execution schedule: class = wave, and the build *asserts* that
    // no two clusters in a wave are adjacent.
    let par = ParallelConfig::from_env();
    let schedule = ColorSchedule::build(h, &out.run.coloring, &par);
    assert!(schedule.verify_disjoint(h, &par));
    println!(
        "schedule: {} classes ({} non-empty), largest wave {} of {} clusters",
        schedule.n_classes(),
        schedule.n_nonempty_classes(),
        schedule.largest_class(),
        h.n_vertices()
    );

    // At least 2 so the pooled path runs even on a single-core box.
    let threads = available_threads().max(2);
    let (serial_labels, serial_sweeps) = relax_to_fixpoint(h, &schedule, 1);
    let (par_labels, par_sweeps) = relax_to_fixpoint(h, &schedule, threads);
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
/// the contracted graph wave-by-wave through the color schedule: within
/// one wave no two updated clusters are adjacent, so every cluster reads
/// frozen neighbor labels and writes a slot that is provably its own —
/// shard-parallel with no locks or atomics. Returns the labels and the
/// number of sweeps to quiescence (both independent of `threads`: the
/// wave order is fixed and in-wave updates cannot observe each other).
fn relax_to_fixpoint(
    h: &ClusterGraph,
    schedule: &ColorSchedule,
    threads: usize,
) -> (Vec<u32>, usize) {
    let pool = WorkerPool::global(threads);
    let n = h.n_vertices();
    let mut labels = vec![u32::MAX; n];
    labels[0] = 0;
    let mut flags = vec![0u8; n];
    let mut sweeps = 0usize;
    loop {
        flags.fill(0);
        let lab = SendPtr::new(labels.as_mut_ptr());
        let flg = SendPtr::new(flags.as_mut_ptr());
        let waves = schedule.waves();
        run_waves(
            pool.as_deref(),
            threads,
            waves.offsets(),
            waves.items(),
            &|_wave, _base, slice| {
                for &v in slice {
                    // Safety: `v` appears in exactly one wave slice and
                    // its neighbors are all outside this wave (the
                    // schedule's asserted disjointness), so this is the
                    // only write to `labels[v]`/`flags[v]` in flight and
                    // the neighbor reads see pre-wave values.
                    unsafe {
                        let mut best = *lab.get().add(v);
                        for &u in h.neighbors(v) {
                            best = best.min((*lab.get().add(u)).saturating_add(1));
                        }
                        if best != *lab.get().add(v) {
                            *lab.get().add(v) = best;
                            *flg.get().add(v) = 1;
                        }
                    }
                }
            },
        );
        if flags.iter().all(|&f| f == 0) {
            return (labels, sweeps);
        }
        sweeps += 1;
    }
}
