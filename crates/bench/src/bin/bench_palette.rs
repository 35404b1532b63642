//! Bitset palette engine bench (default `BENCH_PR10.json`): colors one
//! G(n, p) instance, then answers the three palette questions for every
//! vertex — free-color count `|L(v)|`, uncolored degree `deg_φ(v)`,
//! reuse slack — three ways:
//!
//! 1. **bool reference** — the pre-bitset idiom: a fresh `vec![false; q]`
//!    per vertex plus a materialized ascending free list (what
//!    `palette_oracle` allocated per call before the packed-word
//!    engine);
//! 2. **bitset serial** — one hoisted [`BitsScratch`]: per vertex an
//!    `O(⌈q/64⌉)` reset, word-wise marks, popcount answers — no free
//!    list, no per-vertex allocation;
//! 3. **pooled query** — [`Session::query_palettes`]: the same packed
//!    kernels as one per-vertex map on the persistent pool, swept at
//!    threads {1, 2, 4, max}.
//!
//! Usage: `cargo run --release -p cgc_bench --bin bench_palette [out.json]`
//!
//! Environment: `CGC_BENCH_N` overrides the instance size (CI smoke uses
//! a small `n`); `CGC_THREADS` caps the sweep's widest point.
//!
//! Besides timing, the binary **asserts** the engine's contract: the
//! bitset serial sweep and every pooled sweep reproduce the bool
//! reference **exactly** (counts, degrees, slacks), and the coloring and
//! the charged [`CostReport`](cgc_net::CostReport) are equal across
//! every swept thread count — emitted as
//! `"bitset_equals_reference": true` for CI to grep. The serial bool-vs-bitset speedup lands in
//! `"bitset_speedup_vs_bool"` (the PR's ≥2× target, asserted only at
//! full size so smoke runs stay noise-proof).

use cgc_bench::{bench_report, write_json, Json};
use cgc_cluster::{BitsScratch, ClusterGraph, ParallelConfig};
use cgc_core::{Coloring, PaletteQueryOutcome, Session, SessionBuilder};
use cgc_graphs::WorkloadSpec;
use std::time::Instant;

const DEFAULT_N: usize = 50_000;
const AVG_DEG: f64 = 12.0;
const RUN_SEED: u64 = 13;
/// Timed repetitions per sweep variant (the fastest is recorded).
const REPS: usize = 5;

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// Per-vertex answers of one full sweep (slot `v` = vertex `v`).
#[derive(Clone, PartialEq, Eq)]
struct Answers {
    free_counts: Vec<usize>,
    uncolored_degrees: Vec<usize>,
    reuse_slacks: Vec<usize>,
}

/// The pre-bitset idiom, kept as the timing baseline: a fresh bool map
/// and a materialized free list per vertex (exactly what the old
/// `palette_oracle` + `reuse_slack` pair allocated per call).
fn bool_reference_sweep(g: &ClusterGraph, coloring: &Coloring) -> Answers {
    let n = g.n_vertices();
    let q = coloring.q();
    let mut out = Answers {
        free_counts: vec![0; n],
        uncolored_degrees: vec![0; n],
        reuse_slacks: vec![0; n],
    };
    for v in 0..n {
        let mut used = vec![false; q];
        let mut colored = 0usize;
        let mut distinct = 0usize;
        for &u in g.neighbors(v) {
            if let Some(c) = coloring.get(u) {
                colored += 1;
                if !used[c] {
                    used[c] = true;
                    distinct += 1;
                }
            }
        }
        let free: Vec<usize> = (0..q).filter(|&c| !used[c]).collect();
        out.free_counts[v] = free.len();
        out.uncolored_degrees[v] = g.neighbors(v).len() - colored;
        out.reuse_slacks[v] = colored - distinct;
    }
    out
}

/// The packed-word engine, serial: one hoisted scratch, popcount
/// answers, no free list.
fn bitset_serial_sweep(g: &ClusterGraph, coloring: &Coloring) -> Answers {
    let n = g.n_vertices();
    let q = coloring.q();
    let mut out = Answers {
        free_counts: vec![0; n],
        uncolored_degrees: vec![0; n],
        reuse_slacks: vec![0; n],
    };
    let mut scratch = BitsScratch::new();
    for v in 0..n {
        let bits = scratch.bits(q);
        let mut colored = 0usize;
        for &u in g.neighbors(v) {
            if let Some(c) = coloring.get(u) {
                colored += 1;
                bits.mark(c);
            }
        }
        let distinct = bits.count_marked();
        out.free_counts[v] = q - distinct;
        out.uncolored_degrees[v] = g.neighbors(v).len() - colored;
        out.reuse_slacks[v] = colored - distinct;
    }
    out
}

/// Runs `sweep` `REPS` times, returning the last result and the fastest
/// wall time.
fn timed<T>(mut sweep: impl FnMut() -> T) -> (T, f64) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..REPS {
        let start = Instant::now();
        let r = sweep();
        best = best.min(start.elapsed().as_secs_f64());
        out = Some(r);
    }
    (out.unwrap(), best)
}

fn warm_session(base: &WorkloadSpec, threads: usize) -> (Session, cgc_net::CostReport) {
    let mut session = SessionBuilder::new(*base)
        .parallel(ParallelConfig::with_threads(threads))
        .build();
    let out = session.run(RUN_SEED);
    (session, out.run.report)
}

fn query_answers(out: &PaletteQueryOutcome) -> Answers {
    Answers {
        free_counts: out.free_counts.clone(),
        uncolored_degrees: out.uncolored_degrees.clone(),
        reuse_slacks: out.reuse_slacks.clone(),
    }
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_PR10.json".to_owned());
    let n = env_usize("CGC_BENCH_N", DEFAULT_N);
    let p = AVG_DEG / n as f64;
    let base: WorkloadSpec = format!("gnp:n={n},p={p},seed=1,layout=star3")
        .parse()
        .expect("base spec parses");

    let max_threads = ParallelConfig::from_env().threads().max(1);
    let mut sweep_widths: Vec<usize> = [1, 2, 4, max_threads]
        .into_iter()
        .filter(|&t| t <= max_threads.max(4))
        .collect();
    sweep_widths.sort_unstable();
    sweep_widths.dedup();

    // One serial run pins the coloring + CostReport every width must hit.
    let (serial, ref_report) = warm_session(&base, 1);
    let ref_coloring = serial.coloring().expect("session is colored").clone();
    let g = serial.graph().clone();
    let q = ref_coloring.q();
    assert!(ref_coloring.is_total() && ref_coloring.is_proper(&g));
    drop(serial);
    eprintln!(
        "palette: base {base}, q={q}, Δ={}, sweep {sweep_widths:?}, reps {REPS}",
        g.max_degree(),
    );

    let mut all_equal = true;

    // -- Serial: bool reference vs packed words.
    let (reference, bool_secs) = timed(|| bool_reference_sweep(&g, &ref_coloring));
    let (bitset, bitset_secs) = timed(|| bitset_serial_sweep(&g, &ref_coloring));
    let equal = bitset == reference;
    assert!(
        equal,
        "bitset serial sweep diverged from the bool reference"
    );
    all_equal &= equal;
    let speedup = bool_secs / bitset_secs.max(1e-12);
    eprintln!(
        "bool reference {bool_secs:.4}s, bitset serial {bitset_secs:.4}s \
         ({speedup:.2}x, {:.0} vertices/s)",
        n as f64 / bitset_secs.max(1e-12),
    );
    if n >= DEFAULT_N {
        assert!(
            speedup >= 2.0,
            "packed-word sweep must be >= 2x the bool reference at full size \
             (got {speedup:.2}x)"
        );
    }

    // -- The pooled query pass at every width.
    let mut rows = Vec::new();
    for &threads in &sweep_widths {
        let (session, report) = warm_session(&base, threads);
        assert!(
            session.coloring() == Some(&ref_coloring),
            "coloring depends on thread count (threads={threads})"
        );
        assert!(
            report == ref_report,
            "CostReport depends on thread count (threads={threads})"
        );
        let mut out = session.query_palettes().expect("colored session answers");
        for _ in 1..REPS {
            let next = session.query_palettes().expect("colored session answers");
            if next.query_secs < out.query_secs {
                out = next;
            }
        }
        let equal = query_answers(&out) == reference;
        assert!(
            equal,
            "pooled sweep diverged from the bool reference (threads={threads})"
        );
        all_equal &= equal;
        eprintln!(
            "threads={threads:<3} {:.4}s ({:.0} vertices/s, {:.2}x vs bitset serial)",
            out.query_secs,
            n as f64 / out.query_secs.max(1e-12),
            bitset_secs / out.query_secs.max(1e-12),
        );
        rows.push(Json::obj(vec![
            ("threads", Json::from(threads)),
            ("query_secs", Json::from(out.query_secs)),
            (
                "vertices_per_sec",
                Json::from(n as f64 / out.query_secs.max(1e-12)),
            ),
            (
                "speedup_vs_bitset_serial",
                Json::from(bitset_secs / out.query_secs.max(1e-12)),
            ),
            ("equals_reference", Json::from(equal)),
        ]));
    }

    let report = bench_report(
        max_threads,
        vec![
            (
                "palette",
                Json::obj(vec![
                    ("base_spec", Json::from(base.to_string())),
                    ("n", Json::from(n)),
                    ("q", Json::from(q)),
                    ("max_degree", Json::from(g.max_degree())),
                    ("run_seed", Json::from(RUN_SEED)),
                    ("reps", Json::from(REPS)),
                ]),
            ),
            (
                "serial",
                Json::obj(vec![
                    ("bool_reference_secs", Json::from(bool_secs)),
                    ("bitset_secs", Json::from(bitset_secs)),
                    ("bitset_speedup_vs_bool", Json::from(speedup)),
                    (
                        "bitset_vertices_per_sec",
                        Json::from(n as f64 / bitset_secs.max(1e-12)),
                    ),
                ]),
            ),
            ("thread_sweep", Json::Arr(rows)),
            (
                "contract",
                Json::obj(vec![
                    ("bitset_equals_reference", Json::from(all_equal)),
                    ("bitset_2x_serial", Json::from(speedup >= 2.0)),
                ]),
            ),
        ],
    );
    write_json(&out_path, &report);
    eprintln!("wrote {out_path}");
}
