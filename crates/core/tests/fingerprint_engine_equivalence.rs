//! Fingerprint-engine differential suite: the flat byte-matrix engine of
//! `cgc_sketch` (sampling, CSR-row gather, metering, estimates and
//! per-edge union estimates as sharded passes on the worker pool) must
//! reproduce the `Vec<Fingerprint>` scatter code it replaced — kept below
//! as a test-local reference — bit for bit: the own and aggregate rows,
//! `approx_count_neighbors`, `approx_weighted_count`, the `buddy_edges`
//! map, and the `CostReport` each one charges. Instances: gnp, power-law
//! (hub rows), mixture (planted cliques) and contraction (irregular
//! clusters); threads {1, 2, 4, 8} plus `CGC_THREADS`; predicates: all
//! neighbors, id parity, and "outside my clique".

use cgc_cluster::{ClusterGraph, ClusterNet, ParallelConfig, VertexId};
use cgc_decomp::{acd_oracle, buddy_edges, AlmostCliqueDecomp, BuddyParams};
use cgc_graphs::WorkloadSpec;
use cgc_net::{CostReport, SeedStream};
use cgc_sketch::{
    approx_count_neighbors, approx_weighted_count, neighborhood_fingerprints, CountingParams,
    Fingerprint,
};
use std::collections::BTreeMap;

/// The sketch code before the engine: one `Fingerprint` per vertex and
/// role, aggregated by a scatter over `h_edges()` on the calling thread.
mod reference {
    use super::*;
    use cgc_sketch::encoded_bits;

    pub struct Fingerprints {
        pub own: Vec<Fingerprint>,
        pub agg: Vec<Fingerprint>,
    }

    fn scatter_and_charge(
        net: &mut ClusterNet<'_>,
        t: usize,
        own: Vec<Fingerprint>,
        mut pred: impl FnMut(VertexId, VertexId) -> bool,
    ) -> Fingerprints {
        let n = net.g.n_vertices();
        let mut agg: Vec<Fingerprint> = (0..n).map(|_| Fingerprint::empty(t)).collect();
        for (u, v) in net.g.h_edges() {
            if pred(v, u) {
                agg[v].merge(&own[u]);
            }
            if pred(u, v) {
                agg[u].merge(&own[v]);
            }
        }
        let qbits = own
            .iter()
            .map(|f| encoded_bits(f.maxima()))
            .max()
            .unwrap_or(0);
        let rbits = agg
            .iter()
            .map(|f| encoded_bits(f.maxima()))
            .max()
            .unwrap_or(0);
        net.charge_broadcast(qbits);
        net.charge_link_round(qbits);
        net.charge_converge(rbits);
        Fingerprints { own, agg }
    }

    pub fn neighborhood_fingerprints(
        net: &mut ClusterNet<'_>,
        t: usize,
        seeds: &SeedStream,
        salt: u64,
        pred: impl FnMut(VertexId, VertexId) -> bool,
    ) -> Fingerprints {
        let own = (0..net.g.n_vertices())
            .map(|v| Fingerprint::sample(&mut seeds.rng_for(v as u64, salt), t))
            .collect();
        scatter_and_charge(net, t, own, pred)
    }

    pub fn approx_weighted_count(
        net: &mut ClusterNet<'_>,
        t: usize,
        seeds: &SeedStream,
        salt: u64,
        k_u: &[u64],
        b: u32,
        gate: impl FnMut(VertexId, VertexId) -> bool,
    ) -> Vec<f64> {
        let own = (0..net.g.n_vertices())
            .map(|v| {
                let mut rng = seeds.rng_for(v as u64, salt ^ 0x9B4);
                let mut acc = Fingerprint::empty(t);
                for _ in 0..k_u[v].min(1 << 16) {
                    acc.merge(&Fingerprint::sample(&mut rng, t));
                }
                acc
            })
            .collect();
        let fps = scatter_and_charge(net, t, own, gate);
        let scale = 2f64.powi(b as i32);
        fps.agg.iter().map(|f| f.estimate() / scale).collect()
    }

    pub fn approx_count_neighbors(
        net: &mut ClusterNet<'_>,
        params: &CountingParams,
        seeds: &SeedStream,
        salt: u64,
        pred: impl FnMut(VertexId, VertexId) -> bool,
    ) -> Vec<f64> {
        let t = params.trials(net.g.n_vertices());
        let fps = neighborhood_fingerprints(net, t, seeds, salt, pred);
        fps.agg.iter().map(Fingerprint::estimate).collect()
    }

    pub fn buddy_edges(
        net: &mut ClusterNet<'_>,
        params: &BuddyParams,
        seeds: &SeedStream,
    ) -> BTreeMap<(VertexId, VertexId), bool> {
        let delta = net.g.max_degree() as f64;
        let xi_p = params.xi / 3.0;
        let t = params.counting.trials(net.g.n_vertices());
        let fps = neighborhood_fingerprints(net, t, &seeds.child(1), 0, |_, _| true);
        let deg_est: Vec<f64> = fps.agg.iter().map(|f| f.estimate()).collect();
        let low: Vec<bool> = deg_est
            .iter()
            .map(|&d| d < (1.0 - 1.5 * xi_p) * delta)
            .collect();
        let link_bits = fps
            .agg
            .iter()
            .map(|f| encoded_bits(f.maxima()))
            .max()
            .unwrap_or(0);
        net.charge_link_round(link_bits);
        let mut out = BTreeMap::new();
        for (u, v) in net.g.h_edges() {
            if low[u] || low[v] {
                out.insert((u, v), false);
                continue;
            }
            let joint = fps.agg[u].merged(&fps.agg[v]).estimate();
            out.insert((u, v), joint <= (1.0 + 1.5 * xi_p) * delta);
        }
        out
    }
}

const INSTANCES: [&str; 4] = [
    "gnp:n=300,p=0.04,seed=5,layout=star3",
    "powerlaw:n=300,beta=2.2,avg=10,seed=6,layout=star3",
    "mixture:c=4,k=30,anti=0.02,ext=2,bg=100,bgp=0.04,seed=7,layout=star3",
    "contraction:side=24,lo=3,hi=8,seed=9",
];

/// Small trial counts keep the debug-build suite quick; the code paths
/// do not depend on `t`.
const COUNTING: CountingParams = CountingParams {
    xi: 0.5,
    t_factor: 1.0,
    min_trials: 96,
};

fn thread_counts() -> Vec<usize> {
    let mut threads = vec![1, 2, 4, 8, ParallelConfig::from_env().threads()];
    threads.sort_unstable();
    threads.dedup();
    threads
}

fn engine_net(g: &ClusterGraph, threads: usize) -> ClusterNet<'_> {
    ClusterNet::with_log_budget_parallel(g, 32, ParallelConfig::with_threads(threads))
}

fn f64_bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// The three predicates, by name. `acd` supplies "outside my clique"
/// (the external-degree predicate of `degree_profile`).
fn predicate(name: &str, acd: &AlmostCliqueDecomp, v: VertexId, u: VertexId) -> bool {
    match name {
        "all" => true,
        "parity" => u.is_multiple_of(2),
        "outside-clique" => acd.clique_of(v).is_some() && acd.clique_of(v) != acd.clique_of(u),
        _ => unreachable!("unknown predicate {name}"),
    }
}

const PREDICATES: [&str; 3] = ["all", "parity", "outside-clique"];

/// Own/aggregate rows, the charged sizes and the `CostReport` of one
/// round equal the reference's, for every predicate and thread count.
#[test]
fn rows_and_charges_match_reference() {
    let mut cliques = 0;
    for spec in INSTANCES {
        let g = spec.parse::<WorkloadSpec>().unwrap().build();
        let acd = acd_oracle(&g, 0.25);
        cliques += acd.n_cliques();
        let t = COUNTING.trials(g.n_vertices());
        let seeds = SeedStream::new(11);
        for name in PREDICATES {
            let pred = |v, u| predicate(name, &acd, v, u);
            let mut ref_net = ClusterNet::with_log_budget(&g, 32);
            let want = reference::neighborhood_fingerprints(&mut ref_net, t, &seeds, 3, pred);
            let want_report = ref_net.meter.report();
            for threads in thread_counts() {
                let mut net = engine_net(&g, threads);
                let got = neighborhood_fingerprints(&mut net, t, &seeds, 3, pred);
                let ctx = format!("{spec} pred={name} threads={threads}");
                for v in 0..g.n_vertices() {
                    assert_eq!(got.own.fingerprint(v), want.own[v], "{ctx}: own row {v}");
                    assert_eq!(got.agg.fingerprint(v), want.agg[v], "{ctx}: agg row {v}");
                }
                assert_eq!(net.meter.report(), want_report, "{ctx}: cost report");
            }
        }
    }
    assert!(cliques > 0, "the clique predicate must see cliques");
}

/// `approx_count_neighbors` and `approx_weighted_count`: estimates equal
/// to the bit, and equal cost reports.
#[test]
fn counting_primitives_match_reference() {
    for spec in INSTANCES {
        let g = spec.parse::<WorkloadSpec>().unwrap().build();
        let n = g.n_vertices();
        let acd = acd_oracle(&g, 0.25);
        let seeds = SeedStream::new(12);
        let k_u: Vec<u64> = (0..n as u64).map(|v| v % 5).collect();
        for name in PREDICATES {
            let pred = |v, u| predicate(name, &acd, v, u);
            let mut ref_net = ClusterNet::with_log_budget(&g, 32);
            let counts =
                reference::approx_count_neighbors(&mut ref_net, &COUNTING, &seeds, 1, pred);
            let weighted =
                reference::approx_weighted_count(&mut ref_net, 80, &seeds, 2, &k_u, 2, pred);
            let want_report = ref_net.meter.report();
            for threads in thread_counts() {
                let mut net = engine_net(&g, threads);
                let ctx = format!("{spec} pred={name} threads={threads}");
                let got = approx_count_neighbors(&mut net, &COUNTING, &seeds, 1, pred);
                assert_eq!(f64_bits(&got), f64_bits(&counts), "{ctx}: counts");
                let got = approx_weighted_count(&mut net, 80, &seeds, 2, &k_u, 2, pred);
                assert_eq!(f64_bits(&got), f64_bits(&weighted), "{ctx}: weighted");
                assert_eq!(net.meter.report(), want_report, "{ctx}: cost report");
            }
        }
    }
}

/// `buddy_edges`: the same answer on every `H`-edge and the same charges.
/// Both a loose and a tight ξ, so low-degree skips and union estimates
/// both decide edges.
#[test]
fn buddy_edges_match_reference() {
    let mut answers = [0usize; 2];
    for spec in INSTANCES {
        let g = spec.parse::<WorkloadSpec>().unwrap().build();
        for xi in [0.3, 0.6] {
            let params = BuddyParams {
                xi,
                counting: COUNTING,
            };
            let seeds = SeedStream::new(13);
            let mut ref_net = ClusterNet::with_log_budget(&g, 32);
            let want = reference::buddy_edges(&mut ref_net, &params, &seeds);
            let want_report: CostReport = ref_net.meter.report();
            assert_eq!(want.len(), g.n_h_edges());
            for &b in want.values() {
                answers[usize::from(b)] += 1;
            }
            for threads in thread_counts() {
                let mut net = engine_net(&g, threads);
                let got = buddy_edges(&mut net, &params, &seeds);
                let ctx = format!("{spec} xi={xi} threads={threads}");
                assert_eq!(got, want, "{ctx}: buddy map");
                assert_eq!(net.meter.report(), want_report, "{ctx}: cost report");
            }
        }
    }
    assert!(
        answers[0] > 0 && answers[1] > 0,
        "both answers: {answers:?}"
    );
}
