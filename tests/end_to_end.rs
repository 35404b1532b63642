//! End-to-end integration: the full pipeline across generators, layouts
//! and seeds, with bandwidth-budget and determinism checks — all driven
//! through the unified [`Session`]/[`WorkloadSpec`] API.

use cluster_coloring::prelude::*;

/// Builds a session for `spec` with budget factor `beta`, runs `seed`,
/// and asserts the universal postconditions (total, proper, exactly Δ+1
/// colors).
fn run_spec(spec: WorkloadSpec, seed: u64, beta: u64) -> (Session, RunOutcome) {
    let mut session = SessionBuilder::new(spec).log_budget(beta).build();
    let out = session.run(seed);
    assert!(
        out.run.coloring.is_total(),
        "not total: {:?}",
        out.run.coloring.uncolored()
    );
    assert!(
        out.run.coloring.is_proper(session.graph()),
        "conflicts: {:?}",
        out.run.coloring.conflicts(session.graph())
    );
    assert_eq!(
        out.run.coloring.q(),
        session.graph().max_degree() + 1,
        "exactly Δ+1 colors"
    );
    (session, out)
}

#[test]
fn gnp_across_layouts_and_seeds() {
    for (li, layout) in [
        Layout::Singleton,
        Layout::Path(3),
        Layout::Star(4),
        Layout::BinaryTree(5),
    ]
    .into_iter()
    .enumerate()
    {
        for seed in [1u64, 2] {
            let spec = WorkloadSpec::gnp(90, 0.07, seed)
                .with_layout(layout)
                .with_links(1 + li % 2);
            run_spec(spec, seed * 31 + li as u64, 32);
        }
    }
}

#[test]
fn planted_mixtures_high_degree_path() {
    for seed in [3u64, 4, 5] {
        let cfg = MixtureConfig {
            n_cliques: 3,
            clique_size: 22,
            anti_edge_prob: 0.04,
            external_per_vertex: 2,
            sparse_n: 30,
            sparse_p: 0.12,
        };
        let (_, out) = run_spec(WorkloadSpec::mixture(&cfg, seed), seed, 32);
        assert!(matches!(
            out.run.stats.path,
            cluster_coloring::core::driver::AlgoPath::HighDegree
        ));
    }
}

#[test]
fn cabal_instances_all_layouts() {
    for (seed, layout) in [
        (6u64, Layout::Singleton),
        (7, Layout::Star(3)),
        (8, Layout::Path(4)),
    ] {
        let spec = WorkloadSpec::cabal(3, 22, 2, 4, seed).with_layout(layout);
        let (_, out) = run_spec(spec, seed, 32);
        assert!(out.run.stats.n_cabals >= 1, "{:?}", out.run.stats);
    }
}

#[test]
fn bottleneck_layout_stays_within_budget() {
    let (_, out) = run_spec(WorkloadSpec::bottleneck(12, 8), 9, 32);
    // Aggregation-only messages: within the O(log n) budget throughout.
    assert!(
        out.run.report.within_budget(),
        "oversized messages: {} (max {} bits, budget {})",
        out.run.report.oversized_msgs,
        out.run.report.max_msg_bits,
        out.run.report.budget_bits
    );
}

#[test]
fn distance2_reduction_is_correct() {
    let (session, out) = run_spec(WorkloadSpec::square_gnp(100, 0.03, 10), 10, 32);
    // Δ₂ + 1 colors bound (the coloring uses H's Δ+1 = Δ₂+1).
    let stats = coloring_stats(session.graph(), &out.run.coloring);
    assert!(stats.colors_used <= session.graph().max_degree() + 1);
}

#[test]
fn deterministic_across_identical_runs() {
    let spec = WorkloadSpec::cabal(2, 18, 2, 3, 11)
        .with_layout(Layout::Star(3))
        .with_links(2);
    let (mut session, a) = run_spec(spec, 77, 32);
    // Same session, same seed: cached graph, identical transcript.
    let b = session.run(77);
    assert!(b.cache_hit);
    assert_eq!(a.run.coloring, b.run.coloring);
    assert_eq!(a.run.report, b.run.report);
    // A fresh session rebuilt from the printed spec string reproduces it.
    let respec: WorkloadSpec = a.spec_string.parse().expect("spec strings round-trip");
    let (_, c) = run_spec(respec, 77, 32);
    assert_eq!(a.run.coloring, c.run.coloring);
    assert_eq!(a.run.report, c.run.report);
    // A different seed almost surely yields a different transcript.
    let d = session.run(78);
    assert!(d.run.coloring != a.run.coloring || d.run.report != a.run.report);
}

#[test]
fn dilation_multiplies_g_rounds_not_h_rounds() {
    let base = WorkloadSpec::gnp(40, 0.12, 12);
    let (_, a) = run_spec(base.with_layout(Layout::Path(2)), 13, 32);
    let (_, b) = run_spec(base.with_layout(Layout::Path(10)), 13, 32);
    let ratio_g = b.run.report.g_rounds as f64 / a.run.report.g_rounds.max(1) as f64;
    let ratio_h = b.run.report.h_rounds as f64 / a.run.report.h_rounds.max(1) as f64;
    assert!(
        ratio_g > 1.5 * ratio_h,
        "G-round ratio {ratio_g} should outgrow H-round ratio {ratio_h}"
    );
}

#[test]
fn tight_budget_forces_pipelining_but_still_colors() {
    // β = 1: a single ⌈log n⌉ bits per link per round.
    let (_, out) = run_spec(WorkloadSpec::cabal(2, 20, 2, 3, 14), 15, 1);
    // Fingerprint messages exceed one log-n word; the meter must show
    // pipelining rather than silent cheating.
    assert!(out.run.report.oversized_msgs > 0);
    assert!(out.run.report.h_rounds > 0);
}

#[test]
fn fallback_stays_small_on_sane_instances() {
    let mut total_fallback = 0usize;
    let mut total_n = 0usize;
    for seed in 20u64..25 {
        let (session, out) = run_spec(WorkloadSpec::gnp(120, 0.06, seed), seed, 32);
        total_fallback += out.run.stats.fallback_colored;
        total_n += session.graph().n_vertices();
    }
    assert!(
        total_fallback * 10 <= total_n,
        "fallback colored {total_fallback} of {total_n}"
    );
}

#[test]
fn thread_count_is_a_pure_wall_clock_knob() {
    // The same (spec, seed) at 1 thread and at max threads: identical
    // coloring and identical meter totals.
    let spec = WorkloadSpec::gnp(150, 0.08, 16).with_layout(Layout::Star(3));
    let mut serial = SessionBuilder::new(spec)
        .parallel(ParallelConfig::serial())
        .build();
    let mut parallel = SessionBuilder::new(spec)
        .parallel(ParallelConfig::max_parallel())
        .build();
    let a = serial.run(17);
    let b = parallel.run(17);
    assert_eq!(a.run.coloring, b.run.coloring);
    assert_eq!(a.run.report, b.run.report);
    assert_eq!(b.threads, ParallelConfig::max_parallel().threads());
}

#[test]
fn out_of_range_specs_are_typed_errors_not_panics() {
    use cluster_coloring::core::{ServerConfig, SessionServer};
    let server = SessionServer::new(ServerConfig::default());
    // One string per generator precondition: each parses syntactically
    // but would panic inside the build.
    for bad in [
        "gnp:n=50,p=2.0,seed=1",
        "gnp:n=50,p=-0.1,seed=1",
        "gnp:n=0,p=0.5,seed=1",
        "powerlaw:n=50,beta=0.5,avg=4,seed=1",
        "powerlaw:n=50,beta=2.5,avg=0,seed=1",
        "powerlaw:n=0,beta=2.5,avg=4,seed=1",
        "rgg:n=50,r=5,seed=1",
        "rgg:n=50,r=0,seed=1",
        "rgg:n=0,r=0.2,seed=1",
        "planted:c=0,k=4,seed=1",
        "planted:c=4,k=0,seed=1",
        "mixture:c=2,k=8,anti=1.5,ext=1,bg=10,bgp=0.1,seed=1",
        "mixture:c=2,k=8,anti=0.1,ext=1,bg=10,bgp=-1,seed=1",
        "mixture:c=0,k=8,anti=0.1,ext=1,bg=0,bgp=0.1,seed=1",
        "cabal:c=2,k=3,anti=9,ext=0,seed=1",
        "cabal:c=0,k=4,anti=0,ext=0,seed=1",
        "bottleneck:clusters=3,path=0,seed=0",
        "bottleneck:clusters=0,path=3,seed=0",
        "square:n=20,p=1.5,seed=1",
        "square:n=0,p=0.5,seed=1",
        "contraction:side=8,lo=5,hi=2,seed=1",
        "contraction:side=8,lo=0,hi=2,seed=1",
        "contraction:side=0,lo=1,hi=2,seed=1",
    ] {
        assert!(server.run_str(bad, 1).is_err(), "{bad}");
        assert!(server.run_batch_str(bad, &[1, 2]).is_err(), "{bad}");
        assert_eq!(server.stats().builds_started, 0, "{bad} reached a build");
    }
    // The server still serves, and the checks are not stricter than the
    // generators: each string sits on a precondition's boundary.
    for (i, good) in [
        "gnp:n=1,p=0.5,seed=1",
        "gnp:n=3,p=0,seed=1",
        "gnp:n=3,p=1,seed=1",
        "planted:c=4,k=1,seed=1",
        "mixture:c=0,k=0,anti=1,ext=0,bg=1,bgp=1,seed=1",
        "cabal:c=2,k=1,anti=0,ext=0,seed=1",
        "cabal:c=1,k=4,anti=2,ext=0,seed=1",
        "rgg:n=1,r=1,seed=1",
        "contraction:side=1,lo=1,hi=1,seed=1",
        "bottleneck:clusters=1,path=2,seed=0",
    ]
    .into_iter()
    .enumerate()
    {
        let served = server.run_str(good, 3).unwrap();
        let graph = good.parse::<WorkloadSpec>().unwrap().build();
        let coloring = &served.outcome.run.coloring;
        assert!(coloring.is_total() && coloring.is_proper(&graph), "{good}");
        assert_eq!(server.stats().builds_started, i as u64 + 1, "{good}");
    }
}
