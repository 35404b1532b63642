//! Verifies the runtime's headline guarantees: after warm-up, the metered
//! aggregation primitives (`neighbor_fold_into`, the typed fold wrappers,
//! `neighbor_collect_into`, `exact_degrees_into`, `charge_full_rounds`)
//! and the wave-scheduled palette query sweep (`palette_sweep_waves`)
//! perform **zero heap allocations per round** — under the sequential
//! config *and* under a parallel config dispatching on the persistent
//! [`WorkerPool`], where warm rounds additionally **spawn no threads**
//! (pool workers are created once and parked between rounds). Warm
//! fingerprint rounds (`cgc_sketch`), which allocate their matrices per
//! call by design, must spawn no threads either.
//!
//! A counting global allocator tallies every allocation; each case warms
//! the buffers once, snapshots the counter, runs many rounds, and asserts
//! the counter did not move. Note the allocation counter alone already
//! rules out per-round spawning (`std::thread::spawn` allocates); the
//! pool's spawn counter pins it explicitly.
//!
//! Every assertion compares a **process-global** counter across a
//! measured window, so this binary has no test harness (`harness = false`
//! in the manifest): `main` runs the cases one after another on the main
//! thread, and no sibling test thread can allocate inside a window.

use cgc_cluster::{
    palette_sweep_waves, ClusterGraph, ClusterNet, NeighborLists, PaletteSweep, ParallelConfig,
    WaveSchedule, WorkerPool,
};
use cgc_net::{CommGraph, SeedStream};
use cgc_sketch::{
    approx_count_neighbors, approx_weighted_count, CountingParams, FingerprintMatrix,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// A graph with both multi-link edges and non-trivial support trees.
fn instance() -> ClusterGraph {
    // 8 clusters of 3 machines in a path each; ring + chords of links.
    let mut edges = Vec::new();
    for c in 0..8usize {
        let base = 3 * c;
        edges.push((base, base + 1));
        edges.push((base + 1, base + 2));
    }
    for c in 0..8usize {
        let d = (c + 1) % 8;
        edges.push((3 * c, 3 * d + 2)); // ring, one link
        edges.push((3 * c + 1, 3 * d + 1)); // ring, parallel link
    }
    for c in 0..4usize {
        edges.push((3 * c + 2, 3 * (c + 4))); // chords
    }
    let comm = CommGraph::from_edges(24, &edges).unwrap();
    ClusterGraph::build(comm, (0..24).map(|m| m / 3).collect()).unwrap()
}

fn neighbor_fold_into_is_allocation_free_when_warm() {
    let h = instance();
    let mut net = ClusterNet::new(&h, 64);
    let queries: Vec<u64> = (0..h.n_vertices() as u64).collect();
    let mut out: Vec<u64> = Vec::new();
    // Warm-up round sizes the buffer.
    net.neighbor_fold_into(
        16,
        16,
        &queries,
        |_, _, _, qu| Some(*qu),
        |_| 0u64,
        |a, c| *a = (*a).max(c),
        &mut out,
    );
    let warm = out.clone();
    let before = allocations();
    for _ in 0..100 {
        net.neighbor_fold_into(
            16,
            16,
            &queries,
            |_, _, _, qu| Some(*qu),
            |_| 0u64,
            |a, c| *a = (*a).max(c),
            &mut out,
        );
    }
    assert_eq!(
        allocations() - before,
        0,
        "warm neighbor_fold_into must not allocate"
    );
    assert_eq!(out, warm, "results stay identical across reused rounds");
}

fn typed_fold_wrappers_are_allocation_free_when_warm() {
    let h = instance();
    let mut net = ClusterNet::new(&h, 64);
    let queries: Vec<u64> = (0..h.n_vertices() as u64).collect();
    // Warm up all three scratch columns.
    net.neighbor_fold_flags(8, 1, &queries, |_, _, _, qu| *qu > 3);
    net.neighbor_fold_counts(8, 8, &queries, |_, _, _, _| Some(1));
    net.neighbor_fold_words(8, 8, &queries, |_, _, _, qu| Some(1u64 << (qu % 64)));
    let before = allocations();
    for _ in 0..100 {
        net.neighbor_fold_flags(8, 1, &queries, |_, _, _, qu| *qu > 3);
        net.neighbor_fold_counts(8, 8, &queries, |_, _, _, _| Some(1));
        net.neighbor_fold_words(8, 8, &queries, |_, _, _, qu| Some(1u64 << (qu % 64)));
    }
    assert_eq!(
        allocations() - before,
        0,
        "warm fold wrappers must not allocate"
    );
}

fn neighbor_collect_into_is_allocation_free_when_warm() {
    let h = instance();
    let mut net = ClusterNet::new(&h, 64);
    let queries: Vec<u64> = (0..h.n_vertices() as u64).collect();
    let mut lists: NeighborLists<u64> = NeighborLists::new();
    net.neighbor_collect_into(16, &queries, &mut lists);
    let before = allocations();
    for _ in 0..100 {
        net.neighbor_collect_into(16, &queries, &mut lists);
    }
    assert_eq!(
        allocations() - before,
        0,
        "warm neighbor_collect_into must not allocate"
    );
    for v in 0..h.n_vertices() {
        assert_eq!(lists.row(v).len(), h.degree(v));
    }
}

fn pooled_rounds_are_allocation_free_and_spawn_no_threads() {
    let h = instance();
    // An explicitly parallel runtime: dispatches ride the process-global
    // persistent worker pool.
    let mut net = ClusterNet::with_parallel(&h, 64, ParallelConfig::with_threads(2));
    assert!(
        net.worker_pool().is_some(),
        "parallel config must acquire the persistent pool"
    );
    let queries: Vec<u64> = (0..h.n_vertices() as u64).collect();
    let mut out: Vec<u64> = Vec::new();
    let mut degs: Vec<usize> = Vec::new();
    let mut lists: NeighborLists<u64> = NeighborLists::new();
    let fold = |net: &mut ClusterNet<'_>, out: &mut Vec<u64>| {
        net.neighbor_fold_into(
            16,
            16,
            &queries,
            |_, _, _, qu| Some(*qu),
            |_| 0u64,
            |a, c| *a = (*a).max(c),
            out,
        );
    };
    // Warm-up sizes every buffer (and has already created the pool).
    fold(&mut net, &mut out);
    net.exact_degrees_into(&mut degs);
    net.neighbor_collect_into(16, &queries, &mut lists);
    let warm = out.clone();

    let spawned_before = WorkerPool::total_threads_spawned();
    let scoped_before = cgc_cluster::total_scoped_threads_spawned();
    let allocs_before = allocations();
    for _ in 0..100 {
        fold(&mut net, &mut out);
        net.exact_degrees_into(&mut degs);
        net.neighbor_collect_into(16, &queries, &mut lists);
    }
    assert_eq!(
        allocations() - allocs_before,
        0,
        "warm pooled rounds must not allocate"
    );
    assert_eq!(
        WorkerPool::total_threads_spawned(),
        spawned_before,
        "warm pooled rounds must not spawn threads"
    );
    assert_eq!(
        cgc_cluster::total_scoped_threads_spawned(),
        scoped_before,
        "warm pooled rounds must not fall back to scoped-thread dispatch"
    );
    assert_eq!(out, warm, "pooled results stay identical across rounds");

    // And the pooled results match a sequential runtime's bit for bit.
    let mut seq = ClusterNet::new(&h, 64);
    let mut seq_out: Vec<u64> = Vec::new();
    fold(&mut seq, &mut seq_out);
    assert_eq!(out, seq_out);
    assert_eq!(degs, seq.exact_degrees());
}

fn segmented_rounds_are_allocation_free_and_spawn_no_threads() {
    let h = instance();
    // Force intra-row segmentation (threshold 0) so the warm rounds run
    // the segmented fold/collect paths, not the row-granular ones.
    let par = ParallelConfig::with_threads(2).with_segment_threshold(0);
    let mut net = ClusterNet::with_parallel(&h, 64, par);
    assert!(
        net.segmented_plan().is_some(),
        "threshold 0 must force a segmented plan"
    );
    let queries: Vec<u64> = (0..h.n_vertices() as u64).collect();
    let mut out: Vec<u64> = Vec::new();
    let mut lists: NeighborLists<u64> = NeighborLists::new();
    let fold = |net: &mut ClusterNet<'_>, out: &mut Vec<u64>| {
        net.neighbor_fold_into_merging(
            16,
            16,
            &queries,
            |_, _, _, qu| Some(*qu),
            |_| 0u64,
            |a, c| *a = (*a).max(c),
            |a, b| *a = (*a).max(b),
            out,
        );
    };
    fold(&mut net, &mut out);
    net.neighbor_fold_flags(8, 1, &queries, |_, _, _, qu| *qu > 3);
    net.neighbor_collect_into(16, &queries, &mut lists);
    let warm = out.clone();

    let spawned_before = WorkerPool::total_threads_spawned();
    let scoped_before = cgc_cluster::total_scoped_threads_spawned();
    let allocs_before = allocations();
    for _ in 0..100 {
        fold(&mut net, &mut out);
        net.neighbor_fold_flags(8, 1, &queries, |_, _, _, qu| *qu > 3);
        net.neighbor_collect_into(16, &queries, &mut lists);
    }
    assert_eq!(
        allocations() - allocs_before,
        0,
        "warm segmented rounds must not allocate"
    );
    assert_eq!(
        WorkerPool::total_threads_spawned(),
        spawned_before,
        "warm segmented rounds must not spawn threads"
    );
    assert_eq!(
        cgc_cluster::total_scoped_threads_spawned(),
        scoped_before,
        "warm segmented rounds must not fall back to scoped-thread dispatch"
    );
    assert_eq!(out, warm, "segmented results stay identical across rounds");

    // And the segmented results match a sequential runtime's bit for bit.
    let mut seq = ClusterNet::new(&h, 64);
    let mut seq_out: Vec<u64> = Vec::new();
    seq.neighbor_fold_into(
        16,
        16,
        &queries,
        |_, _, _, qu| Some(*qu),
        |_| 0u64,
        |a, c| *a = (*a).max(c),
        &mut seq_out,
    );
    assert_eq!(out, seq_out);
}

fn palette_query_waves_are_allocation_free_and_spawn_no_threads() {
    let h = instance();
    let n = h.n_vertices();
    let q = h.max_degree() + 1;
    // A greedy proper coloring doubles as the wave partition (every color
    // class is an independent set, so one class per wave is legal even
    // for mutating passes; the read-only sweep merely inherits it).
    let mut colors: Vec<Option<usize>> = vec![None; n];
    for v in 0..n {
        let used: Vec<usize> = h.neighbors(v).iter().filter_map(|&u| colors[u]).collect();
        colors[v] = Some((0..q).find(|c| !used.contains(c)).unwrap());
    }
    let class_of: Vec<usize> = colors.iter().map(|c| c.unwrap()).collect();
    let waves = WaveSchedule::from_class_ids(&class_of, q, &ParallelConfig::serial());
    let par = ParallelConfig::with_threads(2);

    // Warm-up: creates/acquires the pool, sizes the output buffers, and
    // primes each participating worker's thread-local `BitsScratch`
    // (shard-to-worker assignment is deterministic, so the same workers
    // serve the measured sweeps).
    let mut out = PaletteSweep::new();
    palette_sweep_waves(
        &h,
        &colors,
        q,
        waves.offsets(),
        waves.items(),
        &par,
        &mut out,
    );
    let warm = out.clone();

    let spawned_before = WorkerPool::total_threads_spawned();
    let scoped_before = cgc_cluster::total_scoped_threads_spawned();
    let allocs_before = allocations();
    for _ in 0..100 {
        palette_sweep_waves(
            &h,
            &colors,
            q,
            waves.offsets(),
            waves.items(),
            &par,
            &mut out,
        );
    }
    assert_eq!(
        allocations() - allocs_before,
        0,
        "warm palette-query waves must not allocate"
    );
    assert_eq!(
        WorkerPool::total_threads_spawned(),
        spawned_before,
        "warm palette-query waves must not spawn threads"
    );
    assert_eq!(
        cgc_cluster::total_scoped_threads_spawned(),
        scoped_before,
        "warm palette-query waves must not fall back to scoped-thread dispatch"
    );
    assert_eq!(out.free_counts, warm.free_counts);
    assert_eq!(out.uncolored_degrees, warm.uncolored_degrees);
    assert_eq!(out.reuse_slacks, warm.reuse_slacks);

    // And the pooled sweep matches the serial one bit for bit.
    let mut seq = PaletteSweep::new();
    palette_sweep_waves(
        &h,
        &colors,
        q,
        waves.offsets(),
        waves.items(),
        &ParallelConfig::serial(),
        &mut seq,
    );
    assert_eq!(out.free_counts, seq.free_counts);
    assert_eq!(out.uncolored_degrees, seq.uncolored_degrees);
    assert_eq!(out.reuse_slacks, seq.reuse_slacks);
}

fn exact_degrees_into_and_full_rounds_are_allocation_free_when_warm() {
    let h = instance();
    let mut net = ClusterNet::new(&h, 64);
    let mut degs: Vec<usize> = Vec::new();
    net.exact_degrees_into(&mut degs);
    // set_phase interns the phase label once; warm it too.
    net.set_phase("steady");
    net.charge_full_rounds(1, 16);
    let before = allocations();
    for _ in 0..100 {
        net.exact_degrees_into(&mut degs);
        net.charge_full_rounds(1000, 16);
    }
    assert_eq!(allocations() - before, 0, "warm metering must not allocate");
}

fn warm_fingerprint_rounds_spawn_no_threads() {
    let h = instance();
    let n = h.n_vertices();
    let params = CountingParams {
        xi: 0.25,
        t_factor: 1.0,
        min_trials: 96,
    };
    let seeds = SeedStream::new(17);
    let k_u: Vec<u64> = (0..n as u64).map(|v| v % 3).collect();
    // Every pass of the engine: sampling, gather, metering and estimates
    // (through the counting primitives) and the per-edge union estimates.
    let round = |net: &mut ClusterNet<'_>| {
        let counts = approx_count_neighbors(net, &params, &seeds, 0, |v, u| (v ^ u) & 1 == 0);
        let weighted = approx_weighted_count(net, 64, &seeds, 1, &k_u, 1, |_, u| u % 3 != 0);
        let own = FingerprintMatrix::sample(net, 64, &seeds, 2);
        let unions = own
            .gather(net, |_, _| true)
            .edge_union_estimates(net, |u, _| u % 2 == 0);
        (counts, weighted, unions, net.meter.report())
    };
    let mut net = ClusterNet::with_parallel(&h, 64, ParallelConfig::with_threads(2));
    assert!(
        net.worker_pool().is_some(),
        "parallel config must acquire the persistent pool"
    );
    let warm = round(&mut net);

    let spawned_before = WorkerPool::total_threads_spawned();
    let scoped_before = cgc_cluster::total_scoped_threads_spawned();
    let mut last = warm.clone();
    for _ in 0..50 {
        last = round(&mut net);
    }
    assert_eq!(
        WorkerPool::total_threads_spawned(),
        spawned_before,
        "warm fingerprint rounds must not spawn pool threads"
    );
    assert_eq!(
        cgc_cluster::total_scoped_threads_spawned(),
        scoped_before,
        "warm fingerprint rounds must not fall back to scoped-thread dispatch"
    );
    assert_eq!(last.0, warm.0, "results stay identical across rounds");
    assert_eq!(last.2, warm.2);

    // And the pooled rounds match a sequential runtime's bit for bit.
    let mut seq = ClusterNet::new(&h, 64);
    assert_eq!(round(&mut seq), warm);
}

/// Runs every case in order on the main thread and reports in the test
/// harness's format.
fn main() {
    let cases: [(&str, fn()); 8] = [
        (
            "neighbor_fold_into_is_allocation_free_when_warm",
            neighbor_fold_into_is_allocation_free_when_warm,
        ),
        (
            "typed_fold_wrappers_are_allocation_free_when_warm",
            typed_fold_wrappers_are_allocation_free_when_warm,
        ),
        (
            "neighbor_collect_into_is_allocation_free_when_warm",
            neighbor_collect_into_is_allocation_free_when_warm,
        ),
        (
            "pooled_rounds_are_allocation_free_and_spawn_no_threads",
            pooled_rounds_are_allocation_free_and_spawn_no_threads,
        ),
        (
            "segmented_rounds_are_allocation_free_and_spawn_no_threads",
            segmented_rounds_are_allocation_free_and_spawn_no_threads,
        ),
        (
            "palette_query_waves_are_allocation_free_and_spawn_no_threads",
            palette_query_waves_are_allocation_free_and_spawn_no_threads,
        ),
        (
            "exact_degrees_into_and_full_rounds_are_allocation_free_when_warm",
            exact_degrees_into_and_full_rounds_are_allocation_free_when_warm,
        ),
        (
            "warm_fingerprint_rounds_spawn_no_threads",
            warm_fingerprint_rounds_spawn_no_threads,
        ),
    ];
    println!("\nrunning {} tests", cases.len());
    for (name, case) in cases {
        case();
        println!("test {name} ... ok");
    }
    println!(
        "\ntest result: ok. {} passed; 0 failed; 0 ignored; 0 measured; 0 filtered out\n",
        cases.len()
    );
}
