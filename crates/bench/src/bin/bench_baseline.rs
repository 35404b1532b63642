//! Records the PR's performance baseline (default `BENCH_PR6.json`): the
//! instance **setup phase** (generate/canonicalize/build sub-timings of
//! the sharded edge pipeline, serial vs swept thread counts), the
//! **build phase** (tree/link/sort sub-timings, serial vs the
//! pool-sharded `ClusterGraph::build` at swept thread counts), the
//! aggregation primitives sequential *and* shard-parallel at several
//! thread counts (parallel rounds dispatch on the persistent
//! [`WorkerPool`] — no per-round thread spawns), the end-to-end coloring
//! pipeline through the unified [`Session`] API, and a skewed-degree
//! (Chung–Lu power-law) fold workload — all on `n ≥ 50_000` instances,
//! all addressed by [`WorkloadSpec`] strings and emitted through the
//! shared `cgc-bench/v1` JSON schema.
//!
//! Usage: `cargo run --release -p cgc_bench --bin bench_baseline [out.json]`
//!
//! Environment: `CGC_BENCH_N` overrides the instance size (CI smoke runs
//! use a small `n` so regressions in the harness itself fail fast);
//! `CGC_THREADS` adds its selected thread count to the sweep and raises
//! the count used for the parallel end-to-end run.
//!
//! Besides timing, the binary **asserts bit-identity**: every sharded
//! setup and build must equal the serial ones (full structural equality),
//! every parallel fold's outputs and meter totals must equal the
//! sequential run's, and the parallel end-to-end coloring must equal the
//! sequential coloring. A determinism regression therefore fails the
//! bench loudly rather than producing a fast-but-wrong baseline.

use cgc_bench::{bench_report, write_json, Json};
use cgc_cluster::{available_threads, ClusterGraph, ClusterNet, ParallelConfig, WorkerPool};
use cgc_core::{coloring_stats, Session, SessionBuilder};
use cgc_graphs::{realize_network, Layout, WorkloadSpec};
use std::time::Instant;

const DEFAULT_N: usize = 50_000;
const AVG_DEG: f64 = 16.0;
const FOLD_ROUNDS: u32 = 50;

/// One timed fold+degree round pair (the PR1 baseline's unit of work).
fn fold_round(
    net: &mut ClusterNet<'_>,
    queries: &[u64],
    out: &mut Vec<u64>,
    degs: &mut Vec<usize>,
) {
    net.neighbor_fold_into(
        16,
        16,
        queries,
        |_, _, _, qu| Some(*qu),
        |_| 0u64,
        |a, c| *a = (*a).max(c),
        out,
    );
    net.exact_degrees_into(degs);
}

/// Times `FOLD_ROUNDS` warm rounds under `par` (best of three trials, to
/// shave scheduler noise on shared machines); returns
/// `(ms_per_round, outputs, meter_report)` for identity checks.
fn time_folds(
    h: &cgc_cluster::ClusterGraph,
    par: ParallelConfig,
    queries: &[u64],
) -> (f64, Vec<u64>, Vec<usize>, cgc_net::CostReport) {
    let mut net = ClusterNet::with_parallel(h, 32, par);
    assert_eq!(
        net.worker_pool().is_some(),
        par.threads() > 1,
        "a parallel runtime must hold the persistent pool (threads={})",
        par.threads()
    );
    let mut out: Vec<u64> = Vec::new();
    let mut degs: Vec<usize> = Vec::new();
    fold_round(&mut net, queries, &mut out, &mut degs); // warm-up sizes buffers
    let spawned_warm = WorkerPool::total_threads_spawned();
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let start = Instant::now();
        for _ in 0..FOLD_ROUNDS {
            fold_round(&mut net, queries, &mut out, &mut degs);
        }
        best = best.min(start.elapsed().as_secs_f64());
    }
    // Warm rounds dispatch on the parked pool: a moving pool counter means
    // per-round pool creation.
    assert_eq!(
        WorkerPool::total_threads_spawned(),
        spawned_warm,
        "timed rounds must not spawn pool threads (threads={})",
        par.threads()
    );
    (
        best * 1e3 / f64::from(FOLD_ROUNDS),
        out,
        degs,
        net.meter.report(),
    )
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_PR6.json".to_owned());
    let n: usize = std::env::var("CGC_BENCH_N")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_N);
    let cores = available_threads();
    // The sweep covers {1, 2, 4, 8} plus the detected core count plus
    // whatever CGC_THREADS selects, so the env-selected configuration is
    // always among the measured (and bit-identity-checked) points.
    let env_threads = ParallelConfig::from_env().threads();
    let mut sweep: Vec<usize> = vec![1, 2, 4, 8];
    for extra in [cores, env_threads] {
        if !sweep.contains(&extra) {
            sweep.push(extra);
        }
    }
    sweep.sort_unstable();
    sweep.retain(|&t| t <= 8.max(cores).max(env_threads));

    // The session owns the one expensive build; the fold timings and the
    // end-to-end runs all share its cached graph.
    let gnp = WorkloadSpec::gnp(n, AVG_DEG / n as f64, 3).with_layout(Layout::Star(3));
    eprintln!("building {gnp} ...");
    let mut session: Session = SessionBuilder::new(gnp)
        .parallel(ParallelConfig::serial())
        .build();
    let build_secs = session.build_secs();
    let delta = session.graph().max_degree();
    eprintln!(
        "built: n={} machines={} edges={} Δ={delta} dilation={} in {build_secs:.2}s",
        session.graph().n_vertices(),
        session.graph().n_machines(),
        session.graph().n_h_edges(),
        session.graph().dilation(),
    );

    // Instance stats captured up front so the graph borrow never overlaps
    // the session's mutable runs below.
    let (h_n, h_machines, h_edges, h_dilation) = (
        session.graph().n_vertices(),
        session.graph().n_machines(),
        session.graph().n_h_edges(),
        session.graph().dilation(),
    );

    // --- build phase: serial vs pool-sharded ClusterGraph::build ---
    // The realized network is produced once; only the executor config
    // varies, and every sharded build must equal the serial one exactly.
    let (h_spec, _) = session
        .spec()
        .conflict_spec()
        .expect("gnp has a conflict spec");
    let spec = *session.spec();
    let (comm, assignment) = realize_network(&h_spec, spec.layout, spec.links, spec.seed);
    let (serial_build, serial_bt) =
        ClusterGraph::build_timed(comm.clone(), assignment.clone(), &ParallelConfig::serial())
            .expect("realized clusters are connected");
    assert_eq!(
        &serial_build,
        session.graph(),
        "bench rebuild must reproduce the session's instance"
    );
    eprintln!(
        "build serial: total {:.3}s (tree {:.3}s link {:.3}s sort {:.3}s)",
        serial_bt.total_secs, serial_bt.tree_secs, serial_bt.link_secs, serial_bt.sort_secs
    );
    let build_timing_row = |t: &cgc_cluster::BuildTimings| {
        Json::obj(vec![
            ("threads", Json::from(t.threads)),
            ("total_secs", Json::from(t.total_secs)),
            ("tree_secs", Json::from(t.tree_secs)),
            ("link_secs", Json::from(t.link_secs)),
            ("sort_secs", Json::from(t.sort_secs)),
        ])
    };
    // Pre-warm the global pool at the sweep's widest count: acquiring it
    // ascending would grow-by-replacement inside each timed window, so the
    // first measurement at every new width would include one-time worker
    // spawns (and retired-pool joins) rather than steady-state dispatch.
    let _pool = WorkerPool::global(sweep.iter().copied().max().unwrap_or(1));
    let mut build_rows = Vec::new();
    for &threads in &sweep {
        let (sharded, bt) = ClusterGraph::build_timed(
            comm.clone(),
            assignment.clone(),
            &ParallelConfig::with_threads(threads),
        )
        .expect("realized clusters are connected");
        assert_eq!(
            sharded, serial_build,
            "sharded build diverged at {threads} threads"
        );
        eprintln!(
            "build threads={threads}: total {:.3}s (tree {:.3}s link {:.3}s sort {:.3}s, x{:.2} vs serial)",
            bt.total_secs,
            bt.tree_secs,
            bt.link_secs,
            bt.sort_secs,
            serial_bt.total_secs / bt.total_secs
        );
        build_rows.push(build_timing_row(&bt));
    }
    drop((comm, assignment, serial_build));

    // --- setup phase: the full generation-to-graph edge pipeline ---
    // WorkloadSpec::build_timed runs generate (skip-walk sampling + layout
    // expansion), canonicalize (sharded sort/dedup/merge + CSR assembly)
    // and the ClusterGraph build; every sharded setup must reproduce the
    // session's instance exactly.
    let setup_timing_row = |t: &cgc_graphs::SetupTimings| {
        Json::obj(vec![
            ("threads", Json::from(t.threads)),
            ("total_secs", Json::from(t.total_secs)),
            ("generate_secs", Json::from(t.generate_secs)),
            ("canonicalize_secs", Json::from(t.canonicalize_secs)),
            ("build_secs", Json::from(t.build_secs)),
        ])
    };
    let (setup_serial_graph, _, setup_serial) = spec.build_timed(&ParallelConfig::serial());
    assert_eq!(
        &setup_serial_graph,
        session.graph(),
        "serial setup must reproduce the session's instance"
    );
    eprintln!(
        "setup serial: total {:.3}s (generate {:.3}s canonicalize {:.3}s build {:.3}s)",
        setup_serial.total_secs,
        setup_serial.generate_secs,
        setup_serial.canonicalize_secs,
        setup_serial.build_secs
    );
    let mut setup_rows = Vec::new();
    for &threads in &sweep {
        let (g, _, st) = spec.build_timed(&ParallelConfig::with_threads(threads));
        assert_eq!(
            g, setup_serial_graph,
            "sharded setup diverged at {threads} threads"
        );
        eprintln!(
            "setup threads={threads}: total {:.3}s (generate {:.3}s canonicalize {:.3}s build {:.3}s, x{:.2} vs serial)",
            st.total_secs,
            st.generate_secs,
            st.canonicalize_secs,
            st.build_secs,
            setup_serial.total_secs / st.total_secs
        );
        setup_rows.push(setup_timing_row(&st));
    }
    drop(setup_serial_graph);

    // --- aggregation: warm fold+degree rounds, sequential reference ---
    let queries: Vec<u64> = (0..h_n as u64).collect();
    let (seq_ms, seq_out, seq_degs, seq_report) =
        time_folds(session.graph(), ParallelConfig::serial(), &queries);
    eprintln!("aggregation sequential: {seq_ms:.4} ms/round");

    // --- the same rounds at each thread count, with identity checks ---
    let mut par_rows = Vec::new();
    for &threads in &sweep {
        let (ms, out, degs, report) = time_folds(
            session.graph(),
            ParallelConfig::with_threads(threads),
            &queries,
        );
        assert_eq!(out, seq_out, "parallel fold diverged at {threads} threads");
        assert_eq!(
            degs, seq_degs,
            "parallel degrees diverged at {threads} threads"
        );
        assert_eq!(
            report, seq_report,
            "parallel CostMeter diverged at {threads} threads"
        );
        eprintln!(
            "aggregation threads={threads}: {ms:.4} ms/round (x{:.2} vs sequential)",
            seq_ms / ms
        );
        par_rows.push(Json::obj(vec![
            ("threads", Json::from(threads)),
            ("ms_per_round", Json::from(ms)),
            ("speedup", Json::from(seq_ms / ms)),
        ]));
    }

    // --- skewed-degree workload: power-law fold rounds ---
    let pl_spec = WorkloadSpec::power_law(n, 2.5, AVG_DEG, 7);
    let gen_start = Instant::now();
    let pl = pl_spec.build_with(&ParallelConfig::max_parallel());
    let pl_gen_secs = gen_start.elapsed().as_secs_f64();
    let pl_queries: Vec<u64> = (0..pl.n_vertices() as u64).collect();
    let (pl_seq_ms, pl_out, pl_degs, pl_report) =
        time_folds(&pl, ParallelConfig::serial(), &pl_queries);
    let best_threads = cores.max(env_threads).clamp(1, 8);
    let (pl_par_ms, pl_pout, pl_pdegs, pl_preport) =
        time_folds(&pl, ParallelConfig::with_threads(best_threads), &pl_queries);
    assert_eq!(pl_pout, pl_out, "power-law fold diverged");
    assert_eq!(pl_pdegs, pl_degs, "power-law degrees diverged");
    assert_eq!(pl_preport, pl_report, "power-law CostMeter diverged");
    eprintln!(
        "power-law (Δ={}): gen {pl_gen_secs:.2}s, fold seq {pl_seq_ms:.4} / par {pl_par_ms:.4} ms/round",
        pl.max_degree()
    );

    // --- end-to-end through the Session API: sequential vs parallel ---
    let out_seq = session.run(42);
    assert!(out_seq.run.coloring.is_total(), "baseline must be total");
    assert!(
        out_seq.run.coloring.is_proper(session.graph()),
        "baseline must be proper"
    );
    let stats = coloring_stats(session.graph(), &out_seq.run.coloring);

    session.set_parallel(ParallelConfig::with_threads(best_threads));
    let out_par = session.run(42);
    assert!(
        out_par.cache_hit,
        "thread sweep must reuse the session's cached build"
    );
    assert_eq!(
        out_par.run.coloring, out_seq.run.coloring,
        "parallel end-to-end coloring diverged"
    );
    assert_eq!(
        out_par.run.report, out_seq.run.report,
        "parallel end-to-end cost report diverged"
    );
    eprintln!(
        "endtoend: {} colors, seq {:.2}s / par({best_threads}) {:.2}s, {} H-rounds",
        stats.colors_used, out_seq.color_secs, out_par.color_secs, out_seq.run.report.h_rounds,
    );

    let report = bench_report(
        env_threads,
        vec![
            (
                "instance",
                Json::obj(vec![
                    ("workload", Json::from(gnp.to_string())),
                    ("n", Json::from(h_n)),
                    ("avg_degree_target", Json::from(AVG_DEG)),
                    ("n_machines", Json::from(h_machines)),
                    ("n_h_edges", Json::from(h_edges)),
                    ("delta", Json::from(delta)),
                    ("dilation", Json::from(h_dilation)),
                    ("build_secs", Json::from(build_secs)),
                ]),
            ),
            (
                "setup",
                Json::obj(vec![
                    ("workload", Json::from(gnp.to_string())),
                    ("serial", setup_timing_row(&setup_serial)),
                    ("sharded", Json::Arr(setup_rows)),
                    ("bit_identical_to_serial", Json::from(true)),
                ]),
            ),
            (
                "build",
                Json::obj(vec![
                    ("serial", build_timing_row(&serial_bt)),
                    ("sharded", Json::Arr(build_rows)),
                    ("bit_identical_to_serial", Json::from(true)),
                ]),
            ),
            (
                "aggregation",
                Json::obj(vec![
                    ("rounds", Json::from(u64::from(FOLD_ROUNDS))),
                    ("dispatch", Json::from("persistent worker pool")),
                    (
                        "pool_threads_spawned_total",
                        Json::from(WorkerPool::total_threads_spawned()),
                    ),
                    ("sequential_ms_per_round", Json::from(seq_ms)),
                    ("parallel", Json::Arr(par_rows)),
                    ("bit_identical_to_sequential", Json::from(true)),
                ]),
            ),
            (
                "power_law",
                Json::obj(vec![
                    ("workload", Json::from(pl_spec.to_string())),
                    ("n", Json::from(pl.n_vertices())),
                    ("delta", Json::from(pl.max_degree())),
                    ("n_h_edges", Json::from(pl.n_h_edges())),
                    ("gen_secs", Json::from(pl_gen_secs)),
                    ("sequential_ms_per_round", Json::from(pl_seq_ms)),
                    ("parallel_ms_per_round", Json::from(pl_par_ms)),
                    ("parallel_threads", Json::from(best_threads)),
                ]),
            ),
            (
                "endtoend",
                Json::obj(vec![
                    ("workload", Json::from(out_seq.spec_string.clone())),
                    ("run_seed", Json::from(out_seq.seed)),
                    ("wall_secs", Json::from(out_seq.color_secs)),
                    ("parallel_wall_secs", Json::from(out_par.color_secs)),
                    ("parallel_threads", Json::from(best_threads)),
                    ("session_build_cached", Json::from(out_par.cache_hit)),
                    ("coloring_bit_identical", Json::from(true)),
                    ("h_rounds", Json::from(out_seq.run.report.h_rounds)),
                    ("g_rounds", Json::from(out_seq.run.report.g_rounds)),
                    ("bits", Json::from(out_seq.run.report.bits)),
                    ("colors_used", Json::from(stats.colors_used)),
                    ("delta_plus_one", Json::from(delta + 1)),
                ]),
            ),
        ],
    );
    write_json(&out_path, &report);
    eprintln!("wrote {out_path}");
}
