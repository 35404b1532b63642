//! `solve-sparse` and `solve-dense`: one closed-loop caller colors one
//! instance over and over with fresh run seeds — the unit of account is
//! one whole `Session::run`.

use crate::trace::{fold_rounds, replay_run, sketch_kernels};
use crate::util::{
    beyond, guarded, mean, median, mix, peak_rss_mib, process_cpu_secs, quantile, secs_since,
};
use crate::{build_sessions, coloring_ok, Ctx, Outcome};
use cgc_cluster::ParallelConfig;
use cgc_core::{RunOutcome, Session};
use cgc_graphs::WorkloadSpec;
use std::time::Instant;

/// Whether two runs are bit-identical (coloring and cost report).
pub fn same_run(a: &RunOutcome, b: &RunOutcome) -> bool {
    a.run.coloring == b.run.coloring && a.run.report == b.run.report
}

/// Run seed of each process's first, untimed run. Its `CostReport` is the
/// workload's `h_rounds`/`bits`: on the dense instance the round count
/// varies by a quarter from one run seed to the next, so a fixed seed is
/// what lets any change to the accounting show exactly.
const REFERENCE_RUN_SEED: u64 = 1;

/// Colors the fixed instance `spec`: first, untimed, with the reference
/// run seed (it warms the process and supplies `h_rounds`/`bits`), then
/// timed with run seeds drawn from the workload seed, as many runs as end
/// within `--seconds`, and last, untimed, the reference seed again on one
/// thread, which must reproduce the first run bit for bit.
pub fn run(ctx: &Ctx, spec: &str) -> Outcome {
    let spec: WorkloadSpec = spec.parse().expect("solve specs parse");
    let par = ParallelConfig::with_threads(ctx.threads);
    let mut out = Outcome::default();
    out.detail.text("spec", &spec.to_string());
    let (mut sessions, setup_s) = build_sessions(&[spec], par, &mut out, ctx.trace);
    let mut session = sessions.pop().expect("one spec, one session");
    out.detail.num("n", session.graph().n_vertices() as f64);
    out.detail.num("m_h", session.graph().n_h_edges() as f64);
    out.detail.num("delta", session.graph().max_degree() as f64);
    if ctx.trace {
        trace_session(ctx, &mut session, REFERENCE_RUN_SEED, &mut out);
        return out;
    }

    let mut colored = |seed: u64, out: &mut Outcome| {
        let res = guarded(|| session.run(seed));
        let ok = res
            .as_ref()
            .is_some_and(|r| coloring_ok(session.graph(), &r.run.coloring));
        out.tally.record(ok);
        res
    };
    let t0 = Instant::now();
    let reference = colored(REFERENCE_RUN_SEED, &mut out);
    out.detail.num("reference_run_s", secs_since(t0));

    let (mut lat, mut cpu): (Vec<f64>, Vec<f64>) = (Vec::new(), Vec::new());
    let window = Instant::now();
    while lat.is_empty() || secs_since(window) + mean(&lat) <= ctx.seconds {
        let seed = mix(ctx.seed, 101 + lat.len() as u64);
        let (t0, c0) = (Instant::now(), process_cpu_secs());
        colored(seed, &mut out);
        lat.push(secs_since(t0));
        cpu.push(process_cpu_secs() - c0);
    }
    let busy: f64 = lat.iter().sum();
    let peak = peak_rss_mib();

    session.set_parallel(ParallelConfig::serial());
    let serial = guarded(|| session.run(REFERENCE_RUN_SEED));
    let serial_equal = matches!((&reference, &serial), (Some(a), Some(b)) if same_run(a, b));
    out.tally.record(serial_equal);
    out.detail.flag("serial_equals_parallel", serial_equal);

    let cost = reference.map_or((0.0, 0.0), |r| {
        (r.run.report.h_rounds as f64, r.run.report.bits as f64)
    });
    let m = &mut out.metrics;
    m.put("setup_s", setup_s, "s");
    m.put("latency_p50_s", median(&lat), "s");
    m.put("peak_rss_mib", peak, "MiB");
    m.put("h_rounds", cost.0, "count");
    m.put("bits", cost.1, "bit");
    m.put("ok_frac", out.tally.ok_frac(), "frac");
    let d = &mut out.detail;
    d.num("runs", lat.len() as f64);
    d.num("est_cpu_p50", median(&cpu));
    d.num("est_cpu_p25", quantile(&cpu, 0.25));
    d.num("est_wall_p25", quantile(&lat, 0.25));
    d.num("runs_per_s", lat.len() as f64 / busy);
    d.num("run_p90_s", quantile(&lat, 0.9));
    d.num("samples_beyond_p90", beyond(&lat, 0.9) as f64);
    d.num("run_max_s", quantile(&lat, 1.0));
    out
}

/// Traces one instance, adding its layers to `out` (the serving workload
/// calls this once per hot instance, so layers sum): a warm-up run (so
/// every timed call below runs on a warm heap), an untraced reference
/// run, the traced stage replay of the same seed (asserted equal to it),
/// the sketch kernels (asserted equal to `buddy_edges`), the fold rounds
/// and the one-thread run (asserted equal too).
pub fn trace_session(ctx: &Ctx, session: &mut Session, seed: u64, out: &mut Outcome) {
    session.set_parallel(ParallelConfig::with_threads(ctx.threads));
    let _ = guarded(|| session.run(mix(seed, 1)));
    let reference = guarded(|| session.run(seed));
    let m = &mut out.metrics;
    let replay = replay_run(session, seed, m);
    let equal = match (&replay, &reference) {
        (Some(rep), Some(r)) => rep.coloring == r.run.coloring && rep.report == r.run.report,
        _ => false,
    };
    out.tally.record(equal);
    if let (Some(rep), Some(r)) = (&replay, &reference) {
        m.add("core.run_untraced_s", r.color_secs, "s");
        m.add("core.run_traced_s", rep.secs, "s");
        m.add("trace.overhead_s", rep.secs - r.color_secs, "s");
        for (phase, cost) in &r.run.report.phases {
            m.add(
                &format!("phase.{phase}.h_rounds"),
                cost.h_rounds as f64,
                "count",
            );
        }
    }
    let sketch_ok = sketch_kernels(session, seed, m);
    out.tally.record(sketch_ok);
    fold_rounds(session, ctx.threads, m);

    session.set_parallel(ParallelConfig::serial());
    let t0 = Instant::now();
    let serial = guarded(|| session.run(seed));
    m.add("core.run_serial_s", secs_since(t0), "s");
    let serial_equal = matches!((&reference, &serial), (Some(a), Some(b)) if same_run(a, b));
    out.tally.record(serial_equal);
    let flag = |d: &mut crate::util::Detail, key: &str, v: bool| {
        let all = d.0.get(key).is_none_or(|s| s == "true");
        d.flag(key, all && v);
    };
    flag(&mut out.detail, "replay_equals_run", equal);
    flag(&mut out.detail, "sketch_matches_buddy_edges", sketch_ok);
    flag(&mut out.detail, "serial_equals_parallel", serial_equal);
}
