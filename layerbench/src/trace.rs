//! The traced run's instruments, all built from public calls of the
//! library crates:
//!
//! * [`replay_run`] re-executes the driver's stage sequence for one run
//!   seed with the driver's own `SeedStream` children, timing every stage
//!   call and the resident high-water mark across it. The caller asserts
//!   that the replayed coloring and `CostReport` equal `Session::run`'s,
//!   so the trace is shown to be the measured program.
//! * [`sketch_kernels`] times the §5 fingerprint kernels (sample,
//!   aggregate, meter, estimate, per-edge union) on the same instance and
//!   trial count the ACD uses, and checks that their buddy answers equal
//!   `buddy_edges`'.
//! * [`fold_rounds`] times one `neighbor_fold_counts` round at `nproc`
//!   threads and at one, and counts pool threads spawned by warm rounds.

use crate::util::{peak_rss_mib, reset_peak_rss, secs_since, Metrics};
use cgc_cluster::{bits, ClusterNet, ParallelConfig, WorkerPool};
use cgc_core::mct::{multicolor_trial, ColorInterval};
use cgc_core::trycolor::{try_color_round_words, try_color_rounds, TrialScratch};
use cgc_core::{cabals::color_cabals, noncabal::color_noncabals, slackgen::slack_generation};
use cgc_core::{Coloring, Params, Session};
use cgc_decomp::{buddy_edges, classify_cabals, compute_acd, degree_profile};
use cgc_net::{CostReport, SeedStream};
use cgc_sketch::{encoded_bits, Fingerprint};
use rand::RngExt;
use std::time::Instant;

/// Times `f` as one traced stage: adds its wall-clock to `time_key` and
/// records the resident peak across it under `mem_key`.
fn stage<T>(layers: &mut Metrics, time_key: &str, mem_key: &str, f: impl FnOnce() -> T) -> T {
    reset_peak_rss();
    let t = Instant::now();
    let out = f();
    layers.add(time_key, secs_since(t), "s");
    layers.max(mem_key, peak_rss_mib(), "MiB");
    out
}

/// What one traced replay produced.
pub struct Replay {
    pub coloring: Coloring,
    pub report: CostReport,
    /// Wall-clock of the whole replay (stage calls plus tracing).
    pub secs: f64,
}

/// Replays `Session::run(seed)`'s driver stages on `session`'s instance,
/// adding per-stage seconds and peaks to `layers`. `None` on the §9
/// low-degree path, which the benchmark's workloads never take.
pub fn replay_run(session: &Session, seed: u64, layers: &mut Metrics) -> Option<Replay> {
    let params: &Params = session.params();
    let start = Instant::now();
    let mut net = session.make_net();
    let n = net.g.n_vertices();
    let delta = net.g.max_degree();
    let q = delta + 1;
    if delta <= params.delta_low {
        return None;
    }
    let mut coloring = Coloring::new(n, q);
    let seeds = SeedStream::new(seed);

    let acd = stage(layers, "decomp.compute_acd_s", "mem.acd_peak_mib", || {
        compute_acd(&mut net, &params.acd, &seeds.child(1))
    });
    let profile = stage(
        layers,
        "decomp.degree_profile_s",
        "mem.degrees_peak_mib",
        || degree_profile(&mut net, &acd, &params.counting, &seeds.child(2)),
    );
    let cabal_info = stage(
        layers,
        "decomp.classify_cabals_s",
        "mem.cabals_peak_mib",
        || {
            classify_cabals(
                &profile,
                delta,
                params.ell,
                params.rho,
                params.reserve_cap_frac,
            )
        },
    );
    stage(
        layers,
        "core.slack_generation_s",
        "mem.slackgen_peak_mib",
        || {
            let eligible: Vec<bool> = net.par_vertex_map(|v| match acd.clique_of(v) {
                Some(c) => !cabal_info.is_cabal[c],
                None => true,
            });
            if params.ablation.slackgen {
                slack_generation(
                    &mut net,
                    &mut coloring,
                    &seeds.child(3),
                    0,
                    &eligible,
                    params,
                );
            }
        },
    );
    stage(layers, "core.sparse_s", "mem.sparse_peak_mib", || {
        net.set_phase("sparse");
        let sparse: Vec<bool> = net.par_vertex_map(|v| acd.is_sparse(v));
        try_color_rounds(
            &mut net,
            &mut coloring,
            &seeds.child(4),
            0,
            &sparse,
            1.0,
            params.trycolor_rounds,
            |_, rng| Some(rng.random_range(0..q)),
        );
        let sparse_left: Vec<usize> = (0..n)
            .filter(|&v| sparse[v] && !coloring.is_colored(v))
            .collect();
        multicolor_trial(
            &mut net,
            &mut coloring,
            &seeds.child(5),
            0,
            &sparse_left,
            |_| ColorInterval::new(0, q),
            params.mct_max_rounds,
        );
    });
    stage(
        layers,
        "core.color_noncabals_s",
        "mem.noncabal_peak_mib",
        || {
            color_noncabals(
                &mut net,
                &mut coloring,
                &seeds.child(6),
                params,
                &acd,
                &profile,
                &cabal_info,
            )
        },
    );
    stage(layers, "core.color_cabals_s", "mem.cabal_peak_mib", || {
        color_cabals(
            &mut net,
            &mut coloring,
            &seeds.child(7),
            params,
            &acd,
            &profile,
            &cabal_info,
        )
    });
    stage(layers, "core.fallback_s", "mem.fallback_peak_mib", || {
        net.set_phase("fallback");
        fallback(&mut net, &mut coloring, &seeds.child(8));
    });
    Some(Replay {
        coloring,
        report: net.meter.report(),
        secs: secs_since(start),
    })
}

/// The driver's terminal fallback (exact-palette trials under id
/// priority), rebuilt from the public trial kernels because the driver
/// keeps its own copy crate-private. The equality check against
/// `Session::run` pins the two together.
fn fallback(net: &mut ClusterNet<'_>, coloring: &mut Coloring, seeds: &SeedStream) {
    let n = net.g.n_vertices();
    let q = coloring.q();
    let wpr = bits::words_for(q);
    let mut used_rows: Vec<u64> = Vec::new();
    let mut active: Vec<u64> = Vec::new();
    let mut scratch = TrialScratch::new();
    let mut round = 0u64;
    while !coloring.is_total() {
        round += 1;
        net.charge_full_rounds(1, (q as u64).min(4 * net.meter.budget_bits()));
        let col = &*coloring;
        net.par_vertex_fill_words(wpr, &mut used_rows, |v, row| {
            if col.is_colored(v) {
                return;
            }
            for &u in net.g.neighbors(v) {
                if let Some(c) = col.get(u) {
                    bits::set_bit(row, c);
                }
            }
        });
        bits::complement_into(coloring.occupied_words(), n, &mut active);
        let used = &used_rows;
        try_color_round_words(
            net,
            coloring,
            seeds,
            round,
            &active,
            1.0,
            |v, rng| {
                let row = &used[v * wpr..(v + 1) * wpr];
                match bits::count_free(row, q) {
                    0 => None,
                    free => bits::nth_free(row, q, rng.random_range(0..free)),
                }
            },
            &mut scratch,
        );
    }
}

/// Times `buddy_edges` alone, then the fingerprint kernels it is made of,
/// on `session`'s instance with the ACD's seeds and trial count. Returns
/// whether the kernels' buddy answers equal `buddy_edges`' — the check
/// that the sketch split describes the measured code.
pub fn sketch_kernels(session: &Session, seed: u64, layers: &mut Metrics) -> bool {
    let params = session.params().acd.buddy;
    let seeds = SeedStream::new(seed).child(1).child(11);
    let mut net = session.make_net();
    let reference = stage(layers, "decomp.buddy_edges_s", "mem.buddy_peak_mib", || {
        buddy_edges(&mut net, &params, &seeds)
    });

    let g = session.graph();
    let n = g.n_vertices();
    let t = params.counting.trials(n);
    let fp_seeds = seeds.child(1);
    reset_peak_rss();
    let timed = |layers: &mut Metrics, key: &str, t0: Instant| layers.add(key, secs_since(t0), "s");

    let t0 = Instant::now();
    let own: Vec<Fingerprint> = (0..n)
        .map(|v| Fingerprint::sample(&mut fp_seeds.rng_for(v as u64, 0), t))
        .collect();
    timed(layers, "sketch.sample_s", t0);

    let t0 = Instant::now();
    let mut agg: Vec<Fingerprint> = (0..n).map(|_| Fingerprint::empty(t)).collect();
    for (u, v) in g.h_edges() {
        agg[v].merge(&own[u]);
        agg[u].merge(&own[v]);
    }
    timed(layers, "sketch.aggregate_s", t0);

    let t0 = Instant::now();
    let meter_bits = own
        .iter()
        .chain(&agg)
        .map(|f| encoded_bits(f.maxima()))
        .max()
        .unwrap_or(0);
    timed(layers, "sketch.meter_s", t0);
    std::hint::black_box(meter_bits);
    drop(own);

    let t0 = Instant::now();
    let deg_est: Vec<f64> = agg.iter().map(Fingerprint::estimate).collect();
    timed(layers, "sketch.estimate_s", t0);

    let delta = g.max_degree() as f64;
    let xi_p = params.xi / 3.0;
    let low: Vec<bool> = deg_est
        .iter()
        .map(|&d| d < (1.0 - 1.5 * xi_p) * delta)
        .collect();
    let t0 = Instant::now();
    let mut unions = 0u64;
    let mut agree = reference.len() == g.n_h_edges();
    for (u, v) in g.h_edges() {
        let buddy = !(low[u] || low[v]) && {
            unions += 1;
            agg[u].merged(&agg[v]).estimate() <= (1.0 + 1.5 * xi_p) * delta
        };
        agree &= reference.get(&(u, v)) == Some(&buddy);
    }
    timed(layers, "sketch.union_estimate_s", t0);
    layers.max("mem.sketch_peak_mib", peak_rss_mib(), "MiB");

    layers.add("sketch.trials", t as f64, "count");
    layers.add(
        "sketch.merges",
        (2 * g.n_h_edges()) as f64 + unions as f64,
        "count",
    );
    // Computed, not measured: own + agg matrices of n·t i16 maxima.
    layers.add(
        "sketch.fingerprint_bytes",
        (2 * n * t * std::mem::size_of::<i16>()) as f64,
        "bytes",
    );
    agree
}

/// Times one warm `neighbor_fold_counts` round (the ACD's buddy-degree
/// fold shape) at `threads` and at one thread, and counts the pool
/// threads the warm rounds spawned (must stay 0).
pub fn fold_rounds(session: &Session, threads: usize, layers: &mut Metrics) {
    const ROUNDS: usize = 5;
    let g = session.graph();
    let n = g.n_vertices();
    let queries = vec![(); n];
    let time_rounds = |par: ParallelConfig| -> (f64, u64) {
        let mut net = session.make_net();
        net.set_parallel(par);
        let id_bits = net.id_bits();
        let fold = |net: &mut ClusterNet<'_>| {
            let counts = net.neighbor_fold_counts(1, id_bits, &queries, |v, u, _, _| {
                ((v ^ u) & 1 == 0).then_some(1usize)
            });
            std::hint::black_box(counts.len());
        };
        fold(&mut net); // warm: pool, plans and scratch
        let spawned = WorkerPool::total_threads_spawned();
        let mut secs = Vec::with_capacity(ROUNDS);
        for _ in 0..ROUNDS {
            let t0 = Instant::now();
            fold(&mut net);
            secs.push(secs_since(t0));
        }
        (
            crate::util::median(&secs),
            WorkerPool::total_threads_spawned() - spawned,
        )
    };
    let (par_secs, spawned) = time_rounds(ParallelConfig::with_threads(threads));
    let (serial_secs, _) = time_rounds(ParallelConfig::serial());
    layers.add("cluster.fold_round_s", par_secs, "s");
    layers.add("cluster.fold_round_serial_s", serial_secs, "s");
    layers.add("cluster.pool_threads_spawned", spawned as f64, "count");
}
