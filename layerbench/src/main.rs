//! The layered benchmark of the cluster-coloring workspace.
//!
//! ```text
//! layerbench --workload <solve-sparse|solve-dense|serve-mixed|churn>
//!            --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every input derives from `--seed`. With `--trace 0` the last stdout
//! line carries the end-to-end metrics, measured with no tracing; with
//! `--trace 1` it carries the per-layer table of a separate traced run.
//! Every timed operation is checked; failures count in `failed`. See
//! `README.md` beside this crate for the workloads and the layer map.

mod churn;
mod serve;
mod solve;
mod trace;
mod util;

use cgc_cluster::{available_threads, ClusterGraph, ParallelConfig};
use cgc_core::{Coloring, Session, SessionBuilder};
use cgc_graphs::WorkloadSpec;
use std::time::Instant;
use util::{median, secs_since, Detail, Metrics, Tally};

/// End-to-end metrics, reported by every workload with `--trace 0`.
/// Tail latencies and throughputs are in the detail record: on a shared
/// host they swing too far between identical runs to carry a bound.
pub const END_TO_END: &[&str] = &[
    "setup_s",
    "latency_p50_s",
    "peak_rss_mib",
    "h_rounds",
    "bits",
    "ok_frac",
];

/// Per-layer metrics, reported by every workload with `--trace 1` (0 for
/// a layer the workload's measured operation does not reach).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graphs.generate_s", "s"),
    ("net.canonicalize_s", "s"),
    ("cluster.build_s", "s"),
    ("cluster.graph_heap_bytes", "bytes"),
    ("decomp.compute_acd_s", "s"),
    ("decomp.buddy_edges_s", "s"),
    ("decomp.degree_profile_s", "s"),
    ("decomp.classify_cabals_s", "s"),
    ("sketch.sample_s", "s"),
    ("sketch.aggregate_s", "s"),
    ("sketch.meter_s", "s"),
    ("sketch.estimate_s", "s"),
    ("sketch.union_estimate_s", "s"),
    ("sketch.trials", "count"),
    ("sketch.merges", "count"),
    ("sketch.fingerprint_bytes", "bytes"),
    ("core.slack_generation_s", "s"),
    ("core.sparse_s", "s"),
    ("core.color_noncabals_s", "s"),
    ("core.color_cabals_s", "s"),
    ("core.fallback_s", "s"),
    ("core.run_untraced_s", "s"),
    ("core.run_traced_s", "s"),
    ("core.run_serial_s", "s"),
    ("trace.overhead_s", "s"),
    ("cluster.fold_round_s", "s"),
    ("cluster.fold_round_serial_s", "s"),
    ("cluster.pool_threads_spawned", "count"),
    ("serve.admission_s", "s"),
    ("serve.build_s", "s"),
    ("serve.run_s", "s"),
    ("serve.wait_s", "s"),
    ("serve.miss_p50_s", "s"),
    ("serve.write_p50_s", "s"),
    ("serve.hit_ratio", "frac"),
    ("serve.coalesced", "count"),
    ("serve.evictions", "count"),
    ("serve.builds_started", "count"),
    ("mutate.apply_s", "s"),
    ("mutate.recolor_s", "s"),
    ("mutate.schedule_s", "s"),
    ("mutate.dirty_vertices", "count"),
    ("mutate.recolor_rounds", "count"),
    ("mutate.wave_recolored_frac", "frac"),
    ("mem.acd_peak_mib", "MiB"),
    ("mem.buddy_peak_mib", "MiB"),
    ("mem.sketch_peak_mib", "MiB"),
    ("mem.degrees_peak_mib", "MiB"),
    ("mem.cabals_peak_mib", "MiB"),
    ("mem.slackgen_peak_mib", "MiB"),
    ("mem.sparse_peak_mib", "MiB"),
    ("mem.noncabal_peak_mib", "MiB"),
    ("mem.cabal_peak_mib", "MiB"),
    ("mem.fallback_peak_mib", "MiB"),
    ("phase.acd.h_rounds", "count"),
    ("phase.degrees.h_rounds", "count"),
    ("phase.slackgen.h_rounds", "count"),
    ("phase.sparse.h_rounds", "count"),
    ("phase.colorful-matching.h_rounds", "count"),
    ("phase.noncabal-matching.h_rounds", "count"),
    ("phase.noncabal-outliers.h_rounds", "count"),
    ("phase.noncabal-sct.h_rounds", "count"),
    ("phase.complete.h_rounds", "count"),
    ("phase.sct.h_rounds", "count"),
    ("phase.fp-matching.h_rounds", "count"),
    ("phase.fp-matching-color.h_rounds", "count"),
    ("phase.putaside-compute.h_rounds", "count"),
    ("phase.putaside-color.h_rounds", "count"),
    ("phase.cabal-matching.h_rounds", "count"),
    ("phase.cabal-outliers.h_rounds", "count"),
    ("phase.cabal-mct.h_rounds", "count"),
    ("phase.cabal-sct.h_rounds", "count"),
    ("phase.fallback.h_rounds", "count"),
];

/// Run context shared by the workloads.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Executor width: `nproc`.
    pub threads: usize,
}

/// What a workload reports: the op tally, metrics, and detail values.
#[derive(Default)]
pub struct Outcome {
    pub tally: Tally,
    pub metrics: Metrics,
    pub detail: Detail,
}

/// A coloring passes the gate when it is total, proper, and uses the
/// `Δ + 1` palette of `g`.
pub fn coloring_ok(g: &ClusterGraph, c: &Coloring) -> bool {
    c.len() == g.n_vertices() && c.q() == g.max_degree() + 1 && c.is_total() && c.is_proper(g)
}

/// Setup rounds run for at least this long (and at least
/// [`MIN_SETUP_ROUNDS`] times): the instances set up in milliseconds, so
/// `setup_s` is the median of a few hundred rounds.
const SETUP_SECONDS: f64 = 1.5;
const MIN_SETUP_ROUNDS: usize = 9;

/// Sets up a session per spec, round after round for [`SETUP_SECONDS`]
/// (dropping the previous round's first), and returns the last round's
/// sessions with `setup_s`: the median over rounds of the summed setup
/// time (generate + canonicalize + build). Traced runs also record the
/// sub-phase medians.
pub fn build_sessions(
    specs: &[WorkloadSpec],
    par: ParallelConfig,
    out: &mut Outcome,
    trace: bool,
) -> (Vec<Session>, f64) {
    let mut sessions: Vec<Session> = Vec::new();
    let (mut total, mut generate, mut canon, mut build) = (vec![], vec![], vec![], vec![]);
    let start = Instant::now();
    while total.len() < MIN_SETUP_ROUNDS || secs_since(start) < SETUP_SECONDS {
        sessions.clear();
        let (mut t, mut g, mut c, mut b) = (0.0, 0.0, 0.0, 0.0);
        for spec in specs {
            let s = SessionBuilder::new(*spec).parallel(par).build();
            let st = s.setup_timings();
            t += st.total_secs;
            g += st.generate_secs;
            c += st.canonicalize_secs;
            b += st.build_secs;
            sessions.push(s);
        }
        total.push(t);
        generate.push(g);
        canon.push(c);
        build.push(b);
    }
    out.detail.num("setup_rounds", total.len() as f64);
    let layers = &mut out.metrics;
    if trace {
        layers.add("graphs.generate_s", median(&generate), "s");
        layers.add("net.canonicalize_s", median(&canon), "s");
        layers.add("cluster.build_s", median(&build), "s");
        let heap: usize = sessions.iter().map(|s| s.graph().approx_heap_bytes()).sum();
        layers.add("cluster.graph_heap_bytes", heap as f64, "bytes");
    }
    (sessions, median(&total))
}

fn usage() -> ! {
    eprintln!(
        "usage: layerbench --workload <solve-sparse|solve-dense|serve-mixed|churn> \
         --seed <n> --seconds <s> --trace <0|1>"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0u64, 10.0f64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => trace = value == "1",
            _ => usage(),
        }
    }
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let ctx = Ctx {
        seed,
        seconds,
        trace,
        threads,
    };
    let workload = workload.unwrap_or_else(|| usage());
    let mut out = match workload.as_str() {
        "solve-sparse" => solve::run(&ctx, "gnp:n=2000,p=0.008,seed=3,layout=star3"),
        "solve-dense" => solve::run(
            &ctx,
            "mixture:c=6,k=100,anti=0.04,ext=3,bg=400,bgp=0.04,seed=3,layout=star3",
        ),
        "serve-mixed" => serve::run(&ctx),
        "churn" => churn::run(&ctx),
        _ => usage(),
    };

    let mut metrics = Metrics::default();
    if trace {
        for &(name, unit) in PER_LAYER {
            metrics.put(name, out.metrics.get(name).unwrap_or(0.0), unit);
        }
        for (name, value, _) in &out.metrics.0 {
            if !PER_LAYER.iter().any(|&(n, _)| n == name) {
                out.detail.num(&format!("layer.{name}"), *value);
            }
        }
    } else {
        for &name in END_TO_END {
            let (_, value, unit) = out
                .metrics
                .0
                .iter()
                .find(|(n, _, _)| n == name)
                .unwrap_or_else(|| panic!("workload did not report `{name}`"));
            metrics.put(name, *value, unit);
        }
    }
    out.detail.text("workload", &workload);
    out.detail.num("seed", seed as f64);
    out.detail.num("seconds", seconds);
    out.detail.num("trace", f64::from(u8::from(trace)));
    out.detail.num("executor_threads", threads as f64);
    out.detail.num("detected_cores", available_threads() as f64);
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}, \"detail\": {}}}",
        out.tally.failed == 0,
        out.tally.attempted.max(1),
        out.tally.failed,
        metrics.to_json(),
        out.detail.to_json()
    );
}
