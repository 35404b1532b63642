//! Color-wave recolor bench (default `BENCH_PR9.json`): sweeps the
//! executor thread count and, for each width, drives the same churn
//! schedule through [`Session::apply_deltas`] — the path where the
//! recolor sweep groups the dirty vertices by their color in the
//! session's own previous coloring and runs one wave per class (the
//! dirty-cluster support-tree repair is a serial walk and needs no
//! waves). Records per-width wall seconds and mutated edges per second,
//! the wave-occupancy histogram of the warm coloring (materialized as a
//! [`ColorSchedule`](cgc_core::ColorSchedule) for the report), and the
//! per-run wave statistics.
//!
//! Usage: `cargo run --release -p cgc_bench --bin bench_schedule [out.json]`
//!
//! Environment: `CGC_BENCH_N` overrides the instance size (CI smoke uses
//! a small `n`); `CGC_THREADS` caps the sweep's widest point.
//!
//! Besides timing, the binary **asserts** the scheduler's contract:
//!
//! * at every swept thread count the mutated graph, the repaired
//!   coloring and the charged [`CostReport`](cgc_net::CostReport) are
//!   **fully equal** to the 1-thread reference (threads = 1 executes the
//!   same waves inline, so this is scheduled-vs-serial bit-identity) —
//!   emitted as `"scheduled_equals_serial": true` for CI to grep;
//! * the wave statistics (`waves_run`, `largest_wave`, `wave_recolored`,
//!   `fallback_recolored`) are thread-count invariant — the waves are a
//!   pure function of the dirty region and the coloring, never of the
//!   executor width.

use cgc_bench::{bench_report, write_json, Json};
use cgc_cluster::ParallelConfig;
use cgc_core::{ColorSchedule, Session, SessionBuilder};
use cgc_graphs::{ChurnSpec, WorkloadSpec};
use std::time::Instant;

const DEFAULT_N: usize = 20_000;
const AVG_DEG: f64 = 12.0;
const RUN_SEED: u64 = 11;
const CHURN_SEED: u64 = 7;
/// Churn batches per sweep point (one schedule, applied in one call).
const BATCHES: usize = 8;
/// Batch size as a fraction of the instance's `G`-edge count.
const BATCH_FRAC: f64 = 0.005;

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// A fresh session over `base` at `threads`, colored once so
/// `apply_deltas` has a coloring to schedule with (the steady state).
fn warm_session(base: &WorkloadSpec, threads: usize) -> Session {
    let mut session = SessionBuilder::new(*base)
        .parallel(ParallelConfig::with_threads(threads))
        .build();
    session.run(RUN_SEED);
    session
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_PR9.json".to_owned());
    let n = env_usize("CGC_BENCH_N", DEFAULT_N);
    let p = AVG_DEG / n as f64;
    let base: WorkloadSpec = format!("gnp:n={n},p={p},seed=1,layout=star3")
        .parse()
        .expect("base spec parses");

    let max_threads = ParallelConfig::from_env().threads().max(1);
    let mut sweep: Vec<usize> = [1, 2, 4, max_threads]
        .into_iter()
        .filter(|&t| t <= max_threads.max(4))
        .collect();
    sweep.sort_unstable();
    sweep.dedup();

    // The scheduling coloring and its wave shape (thread-independent:
    // the warm run is deterministic, the schedule canonical).
    let warm = warm_session(&base, 1);
    let m = warm.graph().comm().n_links();
    let schedule = ColorSchedule::build(
        warm.graph(),
        warm.coloring().expect("warm session is colored"),
        &ParallelConfig::serial(),
    );
    let occupancy = schedule.occupancy();
    let batch_edges = ((m as f64 * BATCH_FRAC).round() as usize).max(2);
    let churn = ChurnSpec::balanced(base, BATCHES, batch_edges, CHURN_SEED);
    let deltas = churn.schedule(warm.graph());
    eprintln!(
        "schedule: base {base}, m={m} G-edges, {} classes ({} non-empty, largest {}), \
         churn {BATCHES}x{batch_edges} edges, sweep {sweep:?}",
        schedule.n_classes(),
        schedule.n_nonempty_classes(),
        schedule.largest_class(),
    );
    drop(warm);

    let mut rows = Vec::new();
    let mut all_equal = true;
    let mut reference: Option<(cgc_cluster::ClusterGraph, cgc_core::MutationOutcome, f64)> = None;
    for &threads in &sweep {
        let mut session = warm_session(&base, threads);
        let start = Instant::now();
        let out = session
            .apply_deltas(&deltas)
            .expect("churn schedules apply cleanly");
        let secs = start.elapsed().as_secs_f64();
        assert!(out.coloring.is_total() && out.coloring.is_proper(session.graph()));
        assert!(
            out.waves_run > 0 || out.dirty_vertices == 0,
            "a warm session must schedule its recolor sweep"
        );

        let (equal, ref_secs) = match &reference {
            None => {
                reference = Some((session.graph().clone(), out.clone(), secs));
                (true, secs)
            }
            Some((ref_graph, ref_out, ref_secs)) => {
                let equal = session.graph() == ref_graph
                    && out.coloring == ref_out.coloring
                    && out.report == ref_out.report;
                assert!(
                    equal,
                    "scheduled run diverged from serial at threads={threads}"
                );
                let stats = |o: &cgc_core::MutationOutcome| {
                    (
                        o.waves_run,
                        o.largest_wave,
                        o.wave_recolored,
                        o.fallback_recolored,
                    )
                };
                assert_eq!(
                    stats(&out),
                    stats(ref_out),
                    "wave stats must be thread-count invariant (threads={threads})"
                );
                (equal, *ref_secs)
            }
        };
        all_equal &= equal;
        let mutated = out.g_inserted + out.g_deleted;
        eprintln!(
            "threads={threads:<3} {secs:.4}s ({:.0} edges/s, speedup {:.2}x) — \
             waves {} (largest {}), wave-recolored {} / fallback {}",
            mutated as f64 / secs.max(1e-12),
            ref_secs / secs.max(1e-12),
            out.waves_run,
            out.largest_wave,
            out.wave_recolored,
            out.fallback_recolored,
        );
        rows.push(Json::obj(vec![
            ("threads", Json::from(threads)),
            ("apply_secs", Json::from(out.apply_secs)),
            ("recolor_secs", Json::from(out.recolor_secs)),
            ("total_secs", Json::from(secs)),
            ("mutated_edges", Json::from(mutated)),
            (
                "mutated_edges_per_sec",
                Json::from(mutated as f64 / secs.max(1e-12)),
            ),
            ("speedup_vs_serial", Json::from(ref_secs / secs.max(1e-12))),
            ("dirty_clusters", Json::from(out.dirty_clusters)),
            ("dirty_vertices", Json::from(out.dirty_vertices)),
            ("recolor_rounds", Json::from(out.recolor_rounds)),
            ("waves_run", Json::from(out.waves_run)),
            ("largest_wave", Json::from(out.largest_wave)),
            ("wave_recolored", Json::from(out.wave_recolored)),
            ("fallback_recolored", Json::from(out.fallback_recolored)),
            ("equals_serial", Json::from(equal)),
        ]));
    }

    let report = bench_report(
        max_threads,
        vec![
            (
                "schedule",
                Json::obj(vec![
                    ("base_spec", Json::from(base.to_string())),
                    ("n", Json::from(n)),
                    ("m_edges", Json::from(m)),
                    ("batches", Json::from(BATCHES)),
                    ("batch_edges", Json::from(batch_edges)),
                    ("run_seed", Json::from(RUN_SEED)),
                    ("churn_seed", Json::from(CHURN_SEED)),
                ]),
            ),
            (
                "wave_occupancy",
                Json::obj(vec![
                    ("n_classes", Json::from(schedule.n_classes())),
                    (
                        "n_nonempty_classes",
                        Json::from(schedule.n_nonempty_classes()),
                    ),
                    ("largest_class", Json::from(schedule.largest_class())),
                    (
                        "histogram",
                        Json::Arr(occupancy.into_iter().map(Json::from).collect()),
                    ),
                ]),
            ),
            ("thread_sweep", Json::Arr(rows)),
            (
                "contract",
                Json::obj(vec![
                    ("scheduled_equals_serial", Json::from(all_equal)),
                    ("wave_stats_thread_invariant", Json::from(true)),
                ]),
            ),
        ],
    );
    write_json(&out_path, &report);
    eprintln!("wrote {out_path}");
}
