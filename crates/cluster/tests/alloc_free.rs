//! Verifies the runtime's headline guarantees: after warm-up, the metered
//! aggregation primitives (`neighbor_fold_into`, the typed fold wrappers,
//! `exact_degrees_into`, `charge_full_rounds`) and the palette row fill
//! (`par_vertex_fill_words`, which the driver's fallback and list-coloring
//! loops run through) perform **zero heap allocations per round** — under
//! the sequential config *and* under a parallel config dispatching on the
//! process's [`WorkerPool`], where warm rounds run on the configured
//! thread count and additionally **spawn no threads** (pool workers are
//! created once and parked between rounds). Warm
//! fingerprint rounds (`cgc_sketch`), which allocate their matrix per
//! call by design, must spawn no threads either, and a warm sample makes
//! exactly one allocation, its matrix. A warm round's working set is
//! pinned too: `approx_count_neighbors` and `buddy_edges` allocate one
//! `n·t` matrix plus a slack linear in `n + m_H` and one scratch row per
//! shard, not the two matrices a round once held.
//!
//! A counting global allocator tallies every allocation and its bytes;
//! each case warms the buffers once, snapshots the counter, runs many
//! rounds, and asserts the counter did not move. One more case pins the
//! graph's byte accounting: cloning a `ClusterGraph` allocates exactly
//! `approx_heap_bytes()` bytes. Note the allocation counter alone already
//! rules out per-round spawning (`std::thread::spawn` allocates); the
//! pool's spawn counter pins it explicitly.
//!
//! Every assertion compares a **process-global** counter across a
//! measured window, so this binary has no test harness (`harness = false`
//! in the manifest): `main` runs the cases one after another on the main
//! thread, and no sibling test thread can allocate inside a window.

use cgc_cluster::{ClusterGraph, ClusterNet, ParallelConfig, WorkerPool};
use cgc_decomp::{buddy_edges, BuddyParams};
use cgc_net::{CommGraph, SeedStream};
use cgc_sketch::{
    approx_count_neighbors, neighborhood_fingerprints, CountingParams, FingerprintMatrix,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

fn allocated_bytes() -> u64 {
    BYTES.load(Ordering::Relaxed)
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

/// Marks each vertex's neighbor ids in a two-word row — the shape of the
/// driver's palette rows.
fn fill_neighbor_words(net: &ClusterNet<'_>, rows: &mut Vec<u64>) {
    net.par_vertex_fill_words(2, rows, |v, row| {
        for &u in net.g.neighbors(v) {
            row[(u / 64) % 2] |= 1u64 << (u % 64);
        }
    });
}

/// The distinct threads that ran one `par_vertex_map` over `net`'s plan.
fn threads_used(net: &ClusterNet<'_>) -> usize {
    let ids = net.par_vertex_map(|_| Some(std::thread::current().id()));
    ids.into_iter().collect::<HashSet<_>>().len()
}

fn pooled_rounds_are_allocation_free_and_spawn_no_threads() {
    for threads in [1usize, 2] {
        pooled_rounds_at(threads);
    }
}

fn pooled_rounds_at(threads: usize) {
    let h = instance();
    // At 2 threads an explicitly parallel runtime: dispatches ride the
    // process's worker pool.
    let mut net = ClusterNet::with_parallel(&h, 64, ParallelConfig::with_threads(threads));
    assert_eq!(
        threads_used(&net),
        threads,
        "a {threads}-thread runtime runs on {threads} threads"
    );
    let queries: Vec<u64> = (0..h.n_vertices() as u64).collect();
    let mut out: Vec<u64> = Vec::new();
    let mut degs: Vec<usize> = Vec::new();
    let mut rows: Vec<u64> = Vec::new();
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
    fill_neighbor_words(&net, &mut rows);
    let warm = out.clone();
    let warm_rows = rows.clone();

    let spawned_before = WorkerPool::total_threads_spawned();
    let allocs_before = allocations();
    for _ in 0..100 {
        fold(&mut net, &mut out);
        net.exact_degrees_into(&mut degs);
        fill_neighbor_words(&net, &mut rows);
    }
    assert_eq!(
        allocations() - allocs_before,
        0,
        "warm rounds must not allocate (threads={threads})"
    );
    assert_eq!(
        WorkerPool::total_threads_spawned(),
        spawned_before,
        "warm rounds must not spawn threads (threads={threads})"
    );
    assert_eq!(out, warm, "pooled results stay identical across rounds");
    assert_eq!(rows, warm_rows, "row fills stay identical across rounds");

    // And the pooled results match a sequential runtime's bit for bit.
    let mut seq = ClusterNet::new(&h, 64);
    let mut seq_out: Vec<u64> = Vec::new();
    fold(&mut seq, &mut seq_out);
    assert_eq!(out, seq_out);
    let mut seq_degs: Vec<usize> = Vec::new();
    seq.exact_degrees_into(&mut seq_degs);
    assert_eq!(degs, seq_degs);
    let mut seq_rows: Vec<u64> = Vec::new();
    fill_neighbor_words(&seq, &mut seq_rows);
    assert_eq!(rows, seq_rows);
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
    let params = CountingParams {
        xi: 0.25,
        t_factor: 1.0,
        min_trials: 96,
    };
    let seeds = SeedStream::new(17);
    let buddy = BuddyParams {
        xi: 0.3,
        counting: params,
    };
    // Every pass of the engine: sampling with its metering, the aggregate
    // pass keeping no row (the counting primitive) and every other row,
    // the union estimates of kept rows, and `buddy_edges`.
    let round = |net: &mut ClusterNet<'_>| {
        let counts = approx_count_neighbors(net, &params, &seeds, 0, |v, u| (v ^ u) & 1 == 0);
        let kept =
            neighborhood_fingerprints(net, 64, &seeds, 2, |_, _| true, |v, _| v % 2 == 0).kept;
        let unions: Vec<Option<f64>> = h
            .h_edges()
            .map(|(u, v)| kept.union_estimate(u, v))
            .collect();
        let answers: Vec<_> = buddy_edges(net, &buddy, &seeds).iter().collect();
        (counts, unions, answers, net.meter.report())
    };
    let mut net = ClusterNet::with_parallel(&h, 64, ParallelConfig::with_threads(2));
    assert_eq!(
        threads_used(&net),
        2,
        "a 2-thread runtime runs on 2 threads"
    );
    let warm = round(&mut net);

    let spawned_before = WorkerPool::total_threads_spawned();
    let mut last = warm.clone();
    for _ in 0..50 {
        last = round(&mut net);
    }
    assert_eq!(
        WorkerPool::total_threads_spawned(),
        spawned_before,
        "warm fingerprint rounds must not spawn pool threads"
    );
    assert_eq!(last.0, warm.0, "results stay identical across rounds");
    assert_eq!((&last.1, &last.2), (&warm.1, &warm.2));
    assert!(
        warm.1.iter().any(Option::is_some),
        "some edge has two kept rows"
    );

    // And the pooled rounds match a sequential runtime's bit for bit.
    let mut seq = ClusterNet::new(&h, 64);
    assert_eq!(round(&mut seq), warm);

    // A warm sample allocates its matrix and nothing else: each row's
    // bulk word draw stays on the stack. 600 trials take two draws a row.
    for threads in [1usize, 2] {
        let net = ClusterNet::with_parallel(&h, 64, ParallelConfig::with_threads(threads));
        drop(FingerprintMatrix::sample(&net, 600, &seeds, 3));
        let before = allocations();
        let own = FingerprintMatrix::sample(&net, 600, &seeds, 3);
        assert_eq!(
            allocations() - before,
            1,
            "a warm sample makes one allocation, its matrix ({threads} threads)"
        );
        drop(own);
    }
}

/// One warm call of `approx_count_neighbors` (which keeps no aggregate
/// row) and of `buddy_edges` (which keeps the rows of its not-low
/// vertices, a few on this sparse instance) allocates the round's `n·t`
/// own matrix, one scratch row per shard, and at most 32 bytes per
/// vertex and per `H`-edge: the estimates, the answers and the kept rows.
/// That slack is far below `n·t`, so a second `n·t` matrix cannot hide
/// in it. Checked at 1 and 2 threads.
fn warm_fingerprint_rounds_hold_one_matrix() {
    let spec = "gnp:n=2000,p=0.008,seed=3,layout=star3";
    let g = spec.parse::<cgc_graphs::WorkloadSpec>().unwrap().build();
    let params = BuddyParams::default();
    let (n, t) = (g.n_vertices(), params.counting.trials(g.n_vertices()));
    let slack = 32 * (n + g.n_h_edges());
    assert!(4 * slack < n * t, "the slack is far below n·t");
    let seeds = SeedStream::new(23);
    for threads in [1usize, 2] {
        let mut net = ClusterNet::with_parallel(&g, 64, ParallelConfig::with_threads(threads));
        let bound = (n * t + slack + net.shard_plan().n_shards() * t) as u64;
        let count = warm_call_bytes(&mut net, |net| {
            approx_count_neighbors(net, &params.counting, &seeds, 0, |_, _| true).len()
        });
        let buddy = warm_call_bytes(&mut net, |net| buddy_edges(net, &params, &seeds).len());
        for (name, bytes) in [("approx_count_neighbors", count), ("buddy_edges", buddy)] {
            assert!(
                bytes <= bound,
                "{spec}: a warm {name} allocated {bytes} bytes, over one n·t matrix \
                 ({}) plus slack ({bound}), at {threads} threads",
                n * t
            );
        }
    }
}

/// The bytes the second of two calls of `call` allocates: the first
/// warms the pool.
fn warm_call_bytes(net: &mut ClusterNet<'_>, call: impl Fn(&mut ClusterNet<'_>) -> usize) -> u64 {
    call(net);
    let before = allocated_bytes();
    std::hint::black_box(call(net));
    allocated_bytes() - before
}

/// A clone allocates exactly `approx_heap_bytes()` bytes — the byte
/// budget of the serve cache charges what an entry holds — on the four
/// hot specs of the serve-mixed benchmark workload and the solve-sparse
/// one. The gnp hot spec's clone stays within 400,000 bytes in at most
/// 16 allocations.
fn graph_clones_allocate_exactly_their_heap_bytes() {
    const SPECS: [&str; 5] = [
        "gnp:n=800,p=0.02,seed=1,layout=star3",
        "powerlaw:n=800,beta=2.5,avg=16,seed=2,layout=star3",
        "cabal:c=6,k=50,anti=3,ext=4,seed=3,layout=star3",
        "mixture:c=6,k=50,anti=0.04,ext=3,bg=500,bgp=0.03,seed=4,layout=star3",
        "gnp:n=2000,p=0.008,seed=3,layout=star3",
    ];
    for spec in SPECS {
        let g = spec.parse::<cgc_graphs::WorkloadSpec>().unwrap().build();
        let (allocs, bytes) = (allocations(), allocated_bytes());
        let copy = g.clone();
        let (allocs, bytes) = (allocations() - allocs, allocated_bytes() - bytes);
        assert_eq!(bytes, g.approx_heap_bytes() as u64, "{spec}: clone bytes");
        assert!(allocs <= 16, "{spec}: {allocs} allocations per clone");
        if spec.starts_with("gnp:n=800") {
            assert!(bytes <= 400_000, "{spec}: {bytes} bytes per clone");
        }
        assert!(copy == g);
    }
}

/// Runs every case in order on the main thread and reports in the test
/// harness's format.
fn main() {
    let cases: [(&str, fn()); 7] = [
        (
            "neighbor_fold_into_is_allocation_free_when_warm",
            neighbor_fold_into_is_allocation_free_when_warm,
        ),
        (
            "typed_fold_wrappers_are_allocation_free_when_warm",
            typed_fold_wrappers_are_allocation_free_when_warm,
        ),
        (
            "pooled_rounds_are_allocation_free_and_spawn_no_threads",
            pooled_rounds_are_allocation_free_and_spawn_no_threads,
        ),
        (
            "exact_degrees_into_and_full_rounds_are_allocation_free_when_warm",
            exact_degrees_into_and_full_rounds_are_allocation_free_when_warm,
        ),
        (
            "warm_fingerprint_rounds_spawn_no_threads",
            warm_fingerprint_rounds_spawn_no_threads,
        ),
        (
            "warm_fingerprint_rounds_hold_one_matrix",
            warm_fingerprint_rounds_hold_one_matrix,
        ),
        (
            "graph_clones_allocate_exactly_their_heap_bytes",
            graph_clones_allocate_exactly_their_heap_bytes,
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
