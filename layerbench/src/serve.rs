//! `serve-mixed`: `nproc` closed-loop clients over one `SessionServer`
//! whose runs are serial. Each client follows its own deterministic
//! request schedule: hot reads (fresh run seed) over four resident specs,
//! about 1 in 8 requests a cold one-shot spec of the same size, and about
//! 1 in 16 a write — one `ChurnSpec` batch applied to the client's own
//! hot spec (one writer per spec, so every history is deterministic).

use crate::solve::trace_session;
use crate::util::{beyond, guarded, mean, median, mix, peak_rss_mib, quantile, secs_since};
use crate::{build_sessions, coloring_ok, Ctx, Outcome};
use cgc_cluster::{ClusterGraph, ParallelConfig};
use cgc_core::{Coloring, ServerConfig, SessionBuilder, SessionServer};
use cgc_graphs::{ChurnSpec, WorkloadSpec};
use cgc_net::{CostReport, DeltaBatch};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The resident (hot) specs. Cold specs are these shapes at fresh seeds.
const HOT: [&str; 4] = [
    "gnp:n=800,p=0.02,seed=1,layout=star3",
    "powerlaw:n=800,beta=2.5,avg=16,seed=2,layout=star3",
    "cabal:c=6,k=50,anti=3,ext=4,seed=3,layout=star3",
    "mixture:c=6,k=50,anti=0.04,ext=3,bg=500,bgp=0.03,seed=4,layout=star3",
];
/// Machine-pair edits per write batch.
const WRITE_SIZE: usize = 32;
/// Served reads replayed through a standalone `Session` after the window.
const DEEP_CHECKS: usize = 8;

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Hot(usize),
    Cold,
    Write,
}

/// One completed request, as the client saw it.
struct Rec {
    kind: Kind,
    spec: WorkloadSpec,
    seed: u64,
    latency: f64,
    ok: bool,
    /// Read-only fields (reads that returned).
    read: Option<ReadRec>,
}

struct ReadRec {
    epoch: u64,
    hit: bool,
    admission: f64,
    build: f64,
    run: f64,
    coloring: Coloring,
    report: CostReport,
}

/// A written spec's history: batches in order, and the graph after each
/// prefix (index = delta epoch).
struct History {
    batches: Vec<DeltaBatch>,
    graphs: Vec<Arc<ClusterGraph>>,
}

fn hot_specs() -> Vec<WorkloadSpec> {
    HOT.iter()
        .map(|s| s.parse().expect("hot specs parse"))
        .collect()
}

/// What request `k` of client `c` is.
fn kind_of(traffic: u64, c: usize, k: u64, hot_reads: &mut usize) -> Kind {
    match mix(traffic, ((c as u64) << 32) | k) % 16 {
        0 if c < HOT.len() => Kind::Write,
        1 | 2 => Kind::Cold,
        _ => {
            *hot_reads += 1;
            Kind::Hot((*hot_reads + c) % HOT.len())
        }
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let serial = ParallelConfig::serial();
    let specs = hot_specs();
    let (mut sessions, setup_s) =
        build_sessions(&specs, serial, &mut out, ctx.trace);
    let hot_bytes: Vec<usize> = sessions
        .iter()
        .map(|s| s.graph().approx_heap_bytes())
        .collect();
    // Room for the hot set plus two same-size cold entries: cold one-shots
    // get evicted, the hot set stays resident.
    let budget = (hot_bytes.iter().sum::<usize>()
        + 2 * hot_bytes.iter().max().expect("four hot specs"))
        * 21
        / 20;
    let server = SessionServer::new(
        ServerConfig::default()
            .parallel(serial)
            .max_bytes(budget)
            .max_concurrent_builds(ctx.threads),
    );
    let traffic = mix(ctx.seed, 7);
    for (i, spec) in specs.iter().enumerate() {
        let warm = guarded(|| server.run(spec, mix(traffic, 1000 + i as u64)));
        out.tally.record(
            warm.is_some_and(|w| coloring_ok(sessions[i].graph(), &w.outcome.run.coloring)),
        );
    }
    let warm_stats = server.stats();
    let histories: Vec<Mutex<History>> = sessions
        .iter()
        .map(|s| {
            Mutex::new(History {
                batches: Vec::new(),
                graphs: vec![Arc::new(s.graph().clone())],
            })
        })
        .collect();

    let window = Instant::now();
    let recs: Vec<Rec> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..ctx.threads)
            .map(|c| {
                let (server, specs, histories) = (&server, &specs, &histories);
                scope.spawn(move || client(ctx, c, traffic, window, server, specs, histories))
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });
    let wall = secs_since(window);
    let peak = peak_rss_mib();
    let stats = server.stats();
    drop(server);

    // Gate every request; replay a sample of reads through a standalone
    // Session over the recorded write history.
    let reads: Vec<&Rec> = recs.iter().filter(|r| r.kind != Kind::Write).collect();
    let stride = (reads.len() / DEEP_CHECKS).max(1);
    for r in &recs {
        let mut ok = r.ok;
        if let (true, Some(read)) = (ok, &r.read) {
            let graph = match r.kind {
                Kind::Hot(h) => histories[h]
                    .lock()
                    .expect("history lock")
                    .graphs
                    .get(read.epoch as usize)
                    .cloned(),
                _ => Some(Arc::new(r.spec.build())),
            };
            ok = graph.is_some_and(|g| coloring_ok(&g, &read.coloring));
        }
        out.tally.record(ok);
    }
    let mut deep = 0;
    for r in reads.iter().step_by(stride) {
        let Some(read) = &r.read else { continue };
        // A read at an epoch whose write failed its client-side check has
        // no recorded history to replay: it fails.
        let history: Option<Vec<DeltaBatch>> = match r.kind {
            Kind::Hot(h) => histories[h]
                .lock()
                .expect("history lock")
                .batches
                .get(..read.epoch as usize)
                .map(<[DeltaBatch]>::to_vec),
            _ => Some(Vec::new()),
        };
        deep += 1;
        let Some(history) = history else {
            out.tally.record(false);
            continue;
        };
        let same = guarded(|| {
            let mut s = SessionBuilder::new(r.spec)
                .parallel(ParallelConfig::with_threads(ctx.threads))
                .build();
            if !history.is_empty() {
                s.apply_deltas(&history).ok()?;
            }
            let o = s.run(r.seed);
            Some(o.run.coloring == read.coloring && o.run.report == read.report)
        });
        out.tally.record(same == Some(Some(true)));
    }

    let lat = |pred: &dyn Fn(&Rec) -> bool| -> Vec<f64> {
        recs.iter().filter(|r| pred(r)).map(|r| r.latency).collect()
    };
    let hits = lat(&|r| matches!(r.kind, Kind::Hot(_)) && r.read.as_ref().is_some_and(|x| x.hit));
    // Hit latency per hot spec: the four specs cost different amounts, so
    // a median over all hits would sit between their modes and jump with
    // each seed's traffic mix.
    let spec_hits: Vec<Vec<f64>> = (0..HOT.len())
        .map(|h| lat(&|r| r.kind == Kind::Hot(h) && r.read.as_ref().is_some_and(|x| x.hit)))
        .collect();
    let spec_mean = |f: &dyn Fn(&[f64]) -> f64| -> f64 {
        spec_hits.iter().map(|v| f(v)).sum::<f64>() / HOT.len() as f64
    };
    let misses = lat(&|r| r.kind != Kind::Write && r.read.as_ref().is_some_and(|x| !x.hit));
    let writes = lat(&|r| r.kind == Kind::Write);
    // Paper costs: per hot spec the median over its reads, summed.
    let per_spec = |f: &dyn Fn(&ReadRec) -> f64| -> f64 {
        (0..HOT.len())
            .map(|h| {
                let v: Vec<f64> = recs
                    .iter()
                    .filter(|r| r.kind == Kind::Hot(h))
                    .filter_map(|r| r.read.as_ref().map(f))
                    .collect();
                median(&v)
            })
            .sum()
    };

    let m = &mut out.metrics;
    m.put("setup_s", setup_s, "s");
    m.put("latency_p50_s", spec_mean(&median), "s");
    m.put("peak_rss_mib", peak, "MiB");
    m.put("h_rounds", per_spec(&|r| r.report.h_rounds as f64), "count");
    m.put("bits", per_spec(&|r| r.report.bits as f64), "bit");

    let read_recs: Vec<&ReadRec> = recs.iter().filter_map(|r| r.read.as_ref()).collect();
    let read_lat: Vec<f64> = recs
        .iter()
        .filter(|r| r.read.is_some())
        .map(|r| r.latency)
        .collect();
    let admission: Vec<f64> = read_recs.iter().map(|r| r.admission).collect();
    let build: Vec<f64> = read_recs.iter().map(|r| r.build).collect();
    let run: Vec<f64> = read_recs.iter().map(|r| r.run).collect();
    m.put("serve.admission_s", mean(&admission), "s");
    m.put("serve.build_s", mean(&build), "s");
    m.put("serve.run_s", mean(&run), "s");
    m.put(
        "serve.wait_s",
        mean(&read_lat) - mean(&admission) - mean(&build) - mean(&run),
        "s",
    );
    m.put("serve.miss_p50_s", median(&misses), "s");
    m.put("serve.write_p50_s", median(&writes), "s");
    let (h, ms) = (
        stats.cache_hits - warm_stats.cache_hits,
        stats.cache_misses - warm_stats.cache_misses,
    );
    m.put("serve.hit_ratio", h as f64 / (h + ms).max(1) as f64, "frac");
    m.put(
        "serve.coalesced",
        (stats.coalesced_waits - warm_stats.coalesced_waits) as f64,
        "count",
    );
    m.put(
        "serve.evictions",
        (stats.evictions - warm_stats.evictions) as f64,
        "count",
    );
    m.put(
        "serve.builds_started",
        (stats.builds_started - warm_stats.builds_started) as f64,
        "count",
    );

    let d = &mut out.detail;
    d.num("requests", recs.len() as f64);
    d.num("requests_per_s", recs.len() as f64 / wall);
    d.num("hit_p90_s", spec_mean(&|v| quantile(v, 0.9)));
    d.num("hit_reads", hits.len() as f64);
    d.num("miss_reads", misses.len() as f64);
    d.num("writes", writes.len() as f64);
    d.num("deep_checks", deep as f64);
    d.num("hit_p90_samples_beyond", beyond(&hits, 0.9) as f64);
    d.num("cache_budget_bytes", budget as f64);
    d.num("window_s", wall);
    for (v, spec) in spec_hits.iter().zip(&specs) {
        d.num(&format!("hit_p50_s.{spec}"), median(v));
    }

    if ctx.trace {
        for (i, s) in sessions.iter_mut().enumerate() {
            trace_session(ctx, s, mix(traffic, 1000 + i as u64), &mut out);
        }
    }
    out.metrics.put("ok_frac", out.tally.ok_frac(), "frac");
    out
}

/// One closed-loop client: issues its schedule until the window closes.
fn client(
    ctx: &Ctx,
    c: usize,
    traffic: u64,
    window: Instant,
    server: &SessionServer,
    specs: &[WorkloadSpec],
    histories: &[Mutex<History>],
) -> Vec<Rec> {
    let mut recs = Vec::new();
    let mut hot_reads = 0usize;
    let mut k = 0u64;
    // The writer's own view of its spec: the graph it generates the next
    // batch against.
    let mut mirror: Option<ClusterGraph> = None;
    while secs_since(window) < ctx.seconds {
        k += 1;
        let kind = kind_of(traffic, c, k, &mut hot_reads);
        let seed = mix(traffic, (c as u64) << 40 | k);
        let rec = match kind {
            Kind::Write => {
                let spec = specs[c];
                let g = mirror.get_or_insert_with(|| {
                    (*histories[c].lock().expect("history lock").graphs[0]).clone()
                });
                let batch = ChurnSpec::balanced(spec, 1, WRITE_SIZE, seed)
                    .schedule(g)
                    .remove(0);
                let t0 = Instant::now();
                let res = guarded(|| server.apply_deltas(&spec, std::slice::from_ref(&batch)));
                let latency = secs_since(t0);
                let mut hist = histories[c].lock().expect("history lock");
                let expect = hist.batches.len() as u64 + 1;
                let ok = matches!(res, Some(Ok(e)) if e == expect)
                    && g.apply_delta_with(&batch, &ParallelConfig::serial())
                        .is_ok();
                if ok {
                    hist.batches.push(batch);
                    hist.graphs.push(Arc::new(g.clone()));
                }
                Rec {
                    kind,
                    spec,
                    seed,
                    latency,
                    ok,
                    read: None,
                }
            }
            Kind::Hot(_) | Kind::Cold => {
                let spec = match kind {
                    Kind::Hot(h) => specs[h],
                    _ => specs[(k as usize + c) % specs.len()].with_seed(1 << 32 | seed >> 32),
                };
                let t0 = Instant::now();
                let res = guarded(|| server.run(&spec, seed));
                let latency = secs_since(t0);
                let read = res.map(|s| ReadRec {
                    epoch: s.outcome.delta_epoch,
                    hit: s.cache_hit,
                    admission: s.admission_secs,
                    build: s.outcome.build_secs,
                    run: s.outcome.color_secs,
                    coloring: s.outcome.run.coloring,
                    report: s.outcome.run.report,
                });
                Rec {
                    kind,
                    spec,
                    seed,
                    latency,
                    ok: read.is_some(),
                    read,
                }
            }
        };
        recs.push(rec);
    }
    recs
}
