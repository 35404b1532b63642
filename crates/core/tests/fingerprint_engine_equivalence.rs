//! Fingerprint-engine differential suite: the flat byte-matrix engine of
//! `cgc_sketch` (sampling, CSR-row gather, metering, estimates and
//! per-edge union estimates as sharded passes on the worker pool) must
//! reproduce the `Vec<Fingerprint>` scatter code it replaced — kept below
//! as a test-local reference — bit for bit: the own and aggregate rows,
//! `approx_count_neighbors`, the `buddy_edges` map, and the `CostReport`
//! each one charges. Instances: gnp, power-law
//! (hub rows), mixture (planted cliques) and contraction (irregular
//! clusters); threads {1, 2, 4, 8} plus `CGC_THREADS`; predicates: all
//! neighbors, id parity, and "outside my clique".
//!
//! The reference meters and estimates with test-local copies of the
//! sort-based encoder (median plus a ±2 baseline window) and the
//! `Z_k`-rescan estimator, so the library's histogram kernels are checked
//! against the algorithms they replaced, not against themselves.

use cgc_cluster::{ClusterGraph, ClusterNet, ParallelConfig, VertexId};
use cgc_decomp::{acd_oracle, buddy_edges, AlmostCliqueDecomp, BuddyParams};
use cgc_graphs::WorkloadSpec;
use cgc_net::{CostReport, SeedStream};
use cgc_sketch::{
    approx_count_neighbors, encoded_bits, estimate_count, neighborhood_fingerprints,
    CountingParams, Fingerprint, FingerprintMatrix,
};
use std::collections::BTreeMap;

/// The sketch code before the engine: one `Fingerprint` per vertex and
/// role, aggregated by a scatter over `h_edges()` on the calling thread,
/// metered by sorting and estimated by rescanning.
mod reference {
    use super::*;

    /// Lemma 5.6 size: the sorted copy's median, improved within a ±2
    /// window if any baseline there is strictly cheaper.
    pub fn encoded_bits(maxima: &[i16]) -> u64 {
        let cost = |k: i32| -> u64 {
            maxima
                .iter()
                .map(|&y| u64::from(i32::from(y).abs_diff(k)) + 2)
                .sum()
        };
        let k = if maxima.is_empty() {
            0
        } else {
            let mut sorted = maxima.to_vec();
            sorted.sort_unstable();
            let median = i32::from(sorted[sorted.len() / 2]);
            let mut best = median;
            let mut best_cost = cost(median);
            for delta in -2i32..=2 {
                let c = cost(median + delta);
                if c < best_cost {
                    best = median + delta;
                    best_cost = c;
                }
            }
            best
        };
        13 + cost(k)
    }

    /// Lemma 5.2: `Z_k` recounted over all `t` maxima for each candidate
    /// `k` until it reaches `⌈27t/40⌉`.
    pub fn estimate_count(maxima: &[i16]) -> f64 {
        let t = maxima.len();
        if t == 0 || maxima.iter().all(|&m| m == -1) {
            return 0.0;
        }
        let max_y = i32::from(*maxima.iter().max().unwrap()).max(0);
        let threshold = (27 * t).div_ceil(40);
        let mut kstar: i32 = -1;
        let mut z_kstar = 0usize;
        for k in 0..=(max_y + 2) {
            let z = maxima.iter().filter(|&&y| i32::from(y) < k).count();
            if z >= threshold {
                kstar = k;
                z_kstar = z;
                break;
            }
        }
        if kstar <= 0 {
            return f64::from(1u32 << max_y.clamp(0, 30));
        }
        let frac = z_kstar as f64 / t as f64;
        let est = frac.ln() / (1.0 - 2f64.powi(-kstar)).ln();
        est.max(1.0)
    }

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

    pub fn approx_count_neighbors(
        net: &mut ClusterNet<'_>,
        params: &CountingParams,
        seeds: &SeedStream,
        salt: u64,
        pred: impl FnMut(VertexId, VertexId) -> bool,
    ) -> Vec<f64> {
        let t = params.trials(net.g.n_vertices());
        let fps = neighborhood_fingerprints(net, t, seeds, salt, pred);
        fps.agg.iter().map(|f| estimate_count(f.maxima())).collect()
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
        let deg_est: Vec<f64> = fps.agg.iter().map(|f| estimate_count(f.maxima())).collect();
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
            let joint = estimate_count(fps.agg[u].merged(&fps.agg[v]).maxima());
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

/// `approx_count_neighbors`: estimates equal to the bit, and equal cost
/// reports.
#[test]
fn counting_primitives_match_reference() {
    for spec in INSTANCES {
        let g = spec.parse::<WorkloadSpec>().unwrap().build();
        let acd = acd_oracle(&g, 0.25);
        let seeds = SeedStream::new(12);
        for name in PREDICATES {
            let pred = |v, u| predicate(name, &acd, v, u);
            let mut ref_net = ClusterNet::with_log_budget(&g, 32);
            let counts =
                reference::approx_count_neighbors(&mut ref_net, &COUNTING, &seeds, 1, pred);
            let want_report = ref_net.meter.report();
            for threads in thread_counts() {
                let mut net = engine_net(&g, threads);
                let ctx = format!("{spec} pred={name} threads={threads}");
                let got = approx_count_neighbors(&mut net, &COUNTING, &seeds, 1, pred);
                assert_eq!(f64_bits(&got), f64_bits(&counts), "{ctx}: counts");
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

/// The maxima of `d` sampled elements over `t` trials.
fn maxima_of(d: u64, t: usize, seed: u64) -> Vec<i16> {
    let s = SeedStream::new(seed);
    let mut acc = Fingerprint::empty(t);
    for id in 0..d {
        acc.merge(&Fingerprint::sample(&mut s.rng_for(id, 0), t));
    }
    acc.maxima().to_vec()
}

/// The library's `encoded_bits` and `estimate_count`, on `i16` maxima
/// and on the same values as stored bytes, equal the sort and rescan
/// reference: on every vector of length 1 to 5 over values around the
/// edges of the range, and on sampled fingerprints of many sizes and
/// trial counts.
#[test]
fn kernels_match_sort_and_rescan_reference() {
    let check = |m: &[i16]| {
        let bytes: Vec<u8> = m.iter().map(|&y| (y + 1) as u8).collect();
        let (bits, est) = (reference::encoded_bits(m), reference::estimate_count(m));
        assert_eq!(encoded_bits(m), bits, "{m:?}: i16 bits");
        assert_eq!(encoded_bits(&bytes), bits, "{m:?}: u8 bits");
        assert_eq!(
            estimate_count(m).to_bits(),
            est.to_bits(),
            "{m:?}: i16 estimate"
        );
        assert_eq!(
            estimate_count(&bytes).to_bits(),
            est.to_bits(),
            "{m:?}: u8 estimate"
        );
    };
    const VALUES: [i16; 7] = [-1, 0, 1, 2, 4, 192, 254];
    let mut checked = 0;
    for t in 1..=5u32 {
        for code in 0..VALUES.len().pow(t) {
            let mut rest = code;
            let m: Vec<i16> = (0..t)
                .map(|_| {
                    let y = VALUES[rest % VALUES.len()];
                    rest /= VALUES.len();
                    y
                })
                .collect();
            check(&m);
            checked += 1;
        }
    }
    for (i, &d) in [0u64, 1, 2, 5, 31, 300].iter().enumerate() {
        for (j, &t) in [1usize, 2, 3, 4, 7, 64, 257, 1000].iter().enumerate() {
            for seed in 0..3u64 {
                check(&maxima_of(d, t, 100 * i as u64 + 10 * j as u64 + seed));
                checked += 1;
            }
        }
    }
    assert!(checked > 19_000);
}

/// The matrix passes — metering, one-pass metering and estimates, and
/// per-edge union estimates — equal the reference applied to each row.
#[test]
fn matrix_passes_match_sort_and_rescan_reference() {
    for spec in INSTANCES {
        let g = spec.parse::<WorkloadSpec>().unwrap().build();
        let t = COUNTING.trials(g.n_vertices());
        let seeds = SeedStream::new(14);
        for threads in thread_counts() {
            let net = engine_net(&g, threads);
            let own = FingerprintMatrix::sample(&net, t, &seeds, 4);
            let agg = own.gather(&net, |_, u| u % 3 != 0);
            let rows: Vec<Fingerprint> = (0..g.n_vertices()).map(|v| agg.fingerprint(v)).collect();
            let bits = rows
                .iter()
                .map(|f| reference::encoded_bits(f.maxima()))
                .max();
            let estimates: Vec<u64> = rows
                .iter()
                .map(|f| reference::estimate_count(f.maxima()).to_bits())
                .collect();
            let ctx = format!("{spec} threads={threads}");
            assert_eq!(Some(agg.max_encoded_bits(&net)), bits, "{ctx}: meter");
            let (got_bits, got_estimates) = agg.meter_and_estimate(&net);
            assert_eq!(Some(got_bits), bits, "{ctx}: one-pass meter");
            assert_eq!(f64_bits(&got_estimates), estimates, "{ctx}: estimates");
            let unions = agg.edge_union_estimates(&net, |u, v| (u + v) % 4 != 0);
            assert_eq!(unions.len(), g.n_h_edges(), "{ctx}");
            for ((u, v), got) in g.h_edges().zip(unions) {
                let want = ((u + v) % 4 != 0)
                    .then(|| reference::estimate_count(rows[u].merged(&rows[v]).maxima()));
                assert_eq!(
                    got.map(f64::to_bits),
                    want.map(f64::to_bits),
                    "{ctx}: ({u}, {v})"
                );
            }
        }
    }
}
