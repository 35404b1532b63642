//! Update-vs-rebuild bench for streaming mutations (default
//! `BENCH_PR8.json`): sweeps the delta-batch size as a fraction of the
//! instance's edge count and, for each size, measures
//!
//! * the **incremental path** — [`Session::apply_deltas`]: the in-place
//!   CSR/support-tree/`H`-table patch plus the dirty-region recolor
//!   seeded from the previous coloring — against
//! * the **full-rebuild path** — a from-scratch `CommGraph::from_edges`
//!   and `ClusterGraph::build` of the mutated edge set plus a full
//!   driver run —
//!
//! recording wall seconds, amortized cost per mutated edge, charged
//! recolor rounds vs full-run rounds, and the measured **crossover
//! batch size** (the smallest swept fraction where rebuilding wins, if
//! any).
//!
//! Usage: `cargo run --release -p cgc_bench --bin bench_mutations [out.json]`
//!
//! Environment: `CGC_BENCH_N` overrides the instance size (CI smoke
//! uses a small `n`); `CGC_THREADS` sets the shared executor width.
//!
//! Besides timing, the binary **asserts** the subsystem's contract:
//!
//! * the incrementally-maintained graph is **fully equal** (`PartialEq`
//!   over trees, links, multiplicities, CSR) to the from-scratch build
//!   at every swept batch size — emitted as
//!   `"incremental_equals_rebuild": true` for CI to grep;
//! * the recolored assignment is total, proper and within `Δ' + 1`;
//! * for batches of **≤ 1% of m** the incremental path beats the full
//!   rebuild + full recolor in wall-clock time.

use cgc_bench::{bench_report, write_json, Json};
use cgc_cluster::{ClusterGraph, ClusterNet, ParallelConfig};
use cgc_core::{color_cluster_graph_with, DriverOptions, Params, Session, SessionBuilder};
use cgc_graphs::{ChurnSpec, WorkloadSpec};
use cgc_net::CommGraph;
use std::time::Instant;

const DEFAULT_N: usize = 20_000;
const AVG_DEG: f64 = 12.0;
const RUN_SEED: u64 = 11;
const CHURN_SEED: u64 = 7;
/// Swept batch sizes as fractions of the edge count `m`.
const FRACTIONS: [f64; 5] = [0.0005, 0.001, 0.005, 0.01, 0.05];
/// Fractions at or below this bound must favor the incremental path.
const MUST_WIN_FRAC: f64 = 0.01;

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// A fresh session over `base`, colored once so the incremental path has
/// a previous coloring to seed from (the realistic steady state).
fn warm_session(base: &WorkloadSpec, parallel: ParallelConfig) -> Session {
    let mut session = SessionBuilder::new(*base).parallel(parallel).build();
    session.run(RUN_SEED);
    session
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_PR8.json".to_owned());
    let n = env_usize("CGC_BENCH_N", DEFAULT_N);
    let parallel = ParallelConfig::from_env();
    let p = AVG_DEG / n as f64;
    let base: WorkloadSpec = format!("gnp:n={n},p={p},seed=1,layout=star3")
        .parse()
        .expect("base spec parses");

    let template = warm_session(&base, parallel);
    let m = template.graph().comm().n_links();
    eprintln!(
        "mutations: base {base}, m={m} G-edges, threads={}",
        parallel.threads()
    );

    let mut rows = Vec::new();
    let mut all_equal = true;
    let mut crossover: Option<f64> = None;
    for frac in FRACTIONS {
        let batch_edges = ((m as f64 * frac).round() as usize).max(2);
        let churn = ChurnSpec::balanced(base, 1, batch_edges, CHURN_SEED);
        let schedule = churn.schedule(template.graph());

        // --- incremental: in-place patch + dirty-region recolor --------
        let mut session = warm_session(&base, parallel);
        let inc_start = Instant::now();
        let out = session
            .apply_deltas(&schedule)
            .expect("churn schedules apply cleanly");
        let inc_secs = inc_start.elapsed().as_secs_f64();
        assert!(out.coloring.is_total() && out.coloring.is_proper(session.graph()));
        assert_eq!(out.coloring.q(), session.graph().max_degree() + 1);

        // --- full rebuild: from-scratch build + full driver run --------
        let mutated_edges: Vec<_> = session.graph().comm().edges().collect();
        let n_machines = session.graph().comm().n_machines();
        let assignment = session.graph().assignment().to_vec();
        let rb_start = Instant::now();
        let comm = CommGraph::from_edges(n_machines, &mutated_edges).expect("edges are valid");
        let rebuilt = ClusterGraph::build(comm, assignment).expect("mutated instance builds");
        let rb_build_secs = rb_start.elapsed().as_secs_f64();
        let params = Params::laptop(rebuilt.n_vertices());
        let mut net = ClusterNet::with_log_budget_parallel(&rebuilt, 32, parallel);
        let rb_color_start = Instant::now();
        let full = color_cluster_graph_with(
            &mut net,
            &params,
            RUN_SEED,
            DriverOptions {
                oracle_acd: false,
                parallel,
            },
        );
        let rb_color_secs = rb_color_start.elapsed().as_secs_f64();
        let rb_secs = rb_start.elapsed().as_secs_f64();

        // --- the differential: incremental == rebuild, byte for byte ---
        let equal = session.graph() == &rebuilt;
        all_equal &= equal;
        assert!(
            equal,
            "incremental graph diverged from rebuild at frac={frac}"
        );
        let incremental_wins = inc_secs < rb_secs;
        if frac <= MUST_WIN_FRAC {
            assert!(
                incremental_wins,
                "incremental path must win at frac={frac} (≤ {MUST_WIN_FRAC}): \
                 {inc_secs:.4}s vs rebuild {rb_secs:.4}s"
            );
        }
        if !incremental_wins && crossover.is_none() {
            crossover = Some(frac);
        }
        eprintln!(
            "frac={frac:<6} edges={batch_edges:<6} incremental {inc_secs:.4}s \
             (dirty {} / rounds {}) vs rebuild {rb_secs:.4}s — {}",
            out.dirty_vertices,
            out.recolor_rounds,
            if incremental_wins {
                "update wins"
            } else {
                "rebuild wins"
            }
        );

        rows.push(Json::obj(vec![
            ("batch_frac", Json::from(frac)),
            ("batch_edges", Json::from(batch_edges)),
            ("g_inserted", Json::from(out.g_inserted)),
            ("g_deleted", Json::from(out.g_deleted)),
            ("h_inserted", Json::from(out.h_inserted)),
            ("h_removed", Json::from(out.h_removed)),
            ("dirty_clusters", Json::from(out.dirty_clusters)),
            ("dirty_vertices", Json::from(out.dirty_vertices)),
            ("incremental_apply_secs", Json::from(out.apply_secs)),
            ("incremental_recolor_secs", Json::from(out.recolor_secs)),
            ("incremental_total_secs", Json::from(inc_secs)),
            ("incremental_recolor_rounds", Json::from(out.recolor_rounds)),
            ("incremental_h_rounds", Json::from(out.report.h_rounds)),
            ("rebuild_build_secs", Json::from(rb_build_secs)),
            ("rebuild_color_secs", Json::from(rb_color_secs)),
            ("rebuild_total_secs", Json::from(rb_secs)),
            ("rebuild_h_rounds", Json::from(full.report.h_rounds)),
            (
                "amortized_secs_per_edge",
                Json::from(inc_secs / batch_edges as f64),
            ),
            (
                "rebuild_secs_per_edge",
                Json::from(rb_secs / batch_edges as f64),
            ),
            ("speedup", Json::from(rb_secs / inc_secs.max(1e-12))),
            ("incremental_wins", Json::from(incremental_wins)),
            ("graph_equals_rebuild", Json::from(equal)),
        ]));
    }

    let report = bench_report(
        parallel.threads(),
        vec![
            (
                "mutations",
                Json::obj(vec![
                    ("base_spec", Json::from(base.to_string())),
                    ("n", Json::from(n)),
                    ("m_edges", Json::from(m)),
                    ("run_seed", Json::from(RUN_SEED)),
                    ("churn_seed", Json::from(CHURN_SEED)),
                ]),
            ),
            ("update_vs_rebuild", Json::Arr(rows)),
            (
                "contract",
                Json::obj(vec![
                    ("incremental_equals_rebuild", Json::from(all_equal)),
                    ("must_win_frac", Json::from(MUST_WIN_FRAC)),
                    (
                        "crossover_batch_frac",
                        crossover.map(Json::from).unwrap_or(Json::Null),
                    ),
                    (
                        "crossover_observed_in_sweep",
                        Json::from(crossover.is_some()),
                    ),
                ]),
            ),
        ],
    );
    write_json(&out_path, &report);
    eprintln!("wrote {out_path}");
}
