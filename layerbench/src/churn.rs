//! `churn`: one closed-loop caller streams balanced `ChurnSpec` batches of
//! 0.1% of the instance's `H`-edges into a colored `Session`, one
//! `apply_deltas` call per batch. No fingerprint work at all: this is the
//! CSR patch, link-table insert, `ColorSchedule` build, wave recolor and
//! fallback path.

use crate::trace::fold_rounds;
use crate::util::{beyond, guarded, mean, median, mix, peak_rss_mib, quantile, secs_since};
use crate::{build_sessions, coloring_ok, Ctx, Outcome};
use cgc_cluster::{ClusterGraph, ParallelConfig};
use cgc_graphs::{ChurnSpec, WorkloadSpec};
use cgc_net::CommGraph;
use std::time::Instant;

/// Batches generated per schedule chunk (each chunk is scheduled against
/// the graph as it stands when the chunk starts).
const CHUNK: usize = 256;
/// Every this many batches, the patched graph is compared with a
/// from-scratch `ClusterGraph::build` of its edge set.
const REBUILD_EVERY: usize = 64;
/// Batches applied (and checked) before the timed window opens: the first
/// few hundred patches of a freshly built graph are slower than the
/// stream's steady state.
const WARMUP_BATCHES: usize = 512;
const INITIAL_RUN_SEED: u64 = 7;

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let par = ParallelConfig::with_threads(ctx.threads);
    let spec: WorkloadSpec = "gnp:n=4000,p=0.004,seed=1,layout=star3"
        .parse()
        .expect("churn spec parses");
    out.detail.text("spec", &spec.to_string());
    let (mut sessions, setup_s) = build_sessions(&[spec], par, &mut out, ctx.trace);
    let mut session = sessions.pop().expect("one spec, one session");

    // Colored once as setup, with a fixed run seed: the starting coloring
    // (the first execution schedule) is part of the instance, so batch
    // costs vary with the workload seed's batch stream only.
    let t0 = Instant::now();
    let first = guarded(|| session.run(INITIAL_RUN_SEED));
    out.detail.num("initial_run_s", secs_since(t0));
    out.tally
        .record(first.is_some_and(|r| coloring_ok(session.graph(), &r.run.coloring)));
    let batch_size = (session.graph().n_h_edges() / 1000).max(2);
    out.detail.num("batch_size", batch_size as f64);

    let (mut lat, mut apply, mut recolor) = (Vec::new(), Vec::new(), Vec::new());
    let (mut h_rounds, mut bits, mut dirty, mut rounds) = (vec![], vec![], vec![], vec![]);
    let (mut wave_recolored, mut recolored) = (0usize, 0usize);
    let mut rebuilds = 0usize;
    let mut applied = 0usize;
    let mut window = Instant::now();
    'stream: for chunk in 0.. {
        let churn = ChurnSpec::balanced(spec, CHUNK, batch_size, mix(ctx.seed, 1000 + chunk));
        for batch in churn.schedule(session.graph()) {
            if applied == WARMUP_BATCHES {
                window = Instant::now();
            }
            if applied > WARMUP_BATCHES && secs_since(window) >= ctx.seconds {
                break 'stream;
            }
            let t0 = Instant::now();
            let res = guarded(|| session.apply_deltas(std::slice::from_ref(&batch)));
            let secs = secs_since(t0);
            applied += 1;
            let Some(Ok(m)) = res else {
                out.tally.record(false);
                break 'stream;
            };
            let g = session.graph();
            let mut ok = coloring_ok(g, &m.coloring) && session.coloring() == Some(&m.coloring);
            if applied.is_multiple_of(REBUILD_EVERY) {
                ok &= guarded(|| rebuilt(g) == *g).unwrap_or(false);
                rebuilds += 1;
            }
            out.tally.record(ok);
            if applied <= WARMUP_BATCHES {
                continue;
            }
            lat.push(secs);
            apply.push(m.apply_secs);
            recolor.push(m.recolor_secs);
            h_rounds.push(m.report.h_rounds as f64);
            bits.push(m.report.bits as f64);
            dirty.push(m.dirty_vertices as f64);
            rounds.push(m.recolor_rounds as f64);
            wave_recolored += m.wave_recolored;
            recolored += m.recolored;
        }
    }
    let busy: f64 = lat.iter().sum();

    let m = &mut out.metrics;
    m.put("setup_s", setup_s, "s");
    m.put("latency_p50_s", median(&lat), "s");
    m.put("peak_rss_mib", peak_rss_mib(), "MiB");
    m.put("h_rounds", mean(&h_rounds), "count");
    m.put("bits", mean(&bits), "bit");
    m.put("ok_frac", out.tally.ok_frac(), "frac");
    m.put("mutate.apply_s", mean(&apply), "s");
    m.put("mutate.recolor_s", mean(&recolor), "s");
    m.put(
        "mutate.schedule_s",
        mean(&lat) - mean(&apply) - mean(&recolor),
        "s",
    );
    m.put("mutate.dirty_vertices", mean(&dirty), "count");
    m.put("mutate.recolor_rounds", mean(&rounds), "count");
    m.put(
        "mutate.wave_recolored_frac",
        wave_recolored as f64 / recolored.max(1) as f64,
        "frac",
    );
    if ctx.trace {
        fold_rounds(&session, ctx.threads, m);
    }
    let d = &mut out.detail;
    d.num("batches", lat.len() as f64);
    d.num("batches_per_s", lat.len() as f64 / busy);
    d.num("rebuild_checks", rebuilds as f64);
    d.num("batch_p90_s", quantile(&lat, 0.9));
    d.num("samples_beyond_p90", beyond(&lat, 0.9) as f64);
    d.num("batch_p99_s", quantile(&lat, 0.99));
    d.num("samples_beyond_p99", beyond(&lat, 0.99) as f64);
    out
}

/// A from-scratch build of `g`'s current edge set and clustering.
fn rebuilt(g: &ClusterGraph) -> ClusterGraph {
    let comm = CommGraph::from_edges(g.comm().n_machines(), g.comm().edges())
        .expect("a patched network is valid");
    ClusterGraph::build(comm, g.assignment().to_vec()).expect("clusters stay connected")
}
