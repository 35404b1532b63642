//! Fingerprint-engine differential suite: the flat byte-matrix engine of
//! `cgc_sketch` (a sampling pass that meters each own row, and an
//! aggregate pass that builds, meters and estimates each aggregate in a
//! per-shard scratch row and keeps the rows its caller asks for, both
//! sharded on the worker pool; union estimates of kept rows) must
//! reproduce the `Vec<Fingerprint>` scatter code it replaced — kept below
//! as a test-local reference — bit for bit: the own rows, the kept
//! aggregate rows, `approx_count_neighbors`, the `buddy_edges` answers,
//! and the `CostReport` each one charges. The almost-clique decomposition built
//! on those answers (`compute_acd`, `acd_oracle`) must equal the
//! map-based tail it replaced, kept below too: buddy degrees folded
//! through a `BTreeMap`, a `VecDeque` BFS over a rebuilt adjacency, and
//! the repair. Instances: gnp, power-law
//! (hub rows), mixture (planted cliques) and contraction (irregular
//! clusters); threads {1, 2, 4, 8} plus `CGC_THREADS`; predicates: all
//! neighbors, id parity, and "outside my clique".
//!
//! The reference meters and estimates with test-local copies of the
//! sort-based encoder (median plus a ±2 baseline window) and the
//! `Z_k`-rescan estimator, so the library's histogram kernels are checked
//! against the algorithms they replaced, not against themselves.

use cgc_cluster::{ClusterGraph, ClusterNet, ParallelConfig, VertexId};
use cgc_decomp::{
    acd_oracle, buddy_edges, compute_acd, AcdParams, AlmostCliqueDecomp, BuddyParams, NodeKind,
};
use cgc_graphs::WorkloadSpec;
use cgc_net::{CostReport, SeedStream};
use cgc_sketch::{
    approx_count_neighbors, encoded_bits, estimate_count, neighborhood_fingerprints,
    CountingParams, Fingerprint, FingerprintMatrix,
};
use std::collections::{BTreeMap, VecDeque};

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

    /// Connected components of the buddy graph restricted to
    /// `candidate`s, over an adjacency rebuilt from the map.
    fn buddy_components(
        n: usize,
        buddy: &BTreeMap<(VertexId, VertexId), bool>,
        candidate: &[bool],
    ) -> Vec<Vec<VertexId>> {
        let mut adj: Vec<Vec<VertexId>> = vec![Vec::new(); n];
        for (&(u, v), &b) in buddy {
            if b && candidate[u] && candidate[v] {
                adj[u].push(v);
                adj[v].push(u);
            }
        }
        let mut comp = vec![usize::MAX; n];
        let mut out: Vec<Vec<VertexId>> = Vec::new();
        for s in 0..n {
            if !candidate[s] || comp[s] != usize::MAX || adj[s].is_empty() {
                continue;
            }
            let id = out.len();
            let mut members = vec![s];
            comp[s] = id;
            let mut q = VecDeque::from([s]);
            while let Some(u) = q.pop_front() {
                for &w in &adj[u] {
                    if comp[w] == usize::MAX {
                        comp[w] = id;
                        members.push(w);
                        q.push_back(w);
                    }
                }
            }
            members.sort_unstable();
            out.push(members);
        }
        out
    }

    /// Peels low-internal-degree vertices until Definition 4.2 holds.
    fn repair_cliques(
        g: &ClusterGraph,
        mut cliques: Vec<Vec<VertexId>>,
        epsilon: f64,
        min_clique_frac: f64,
    ) -> (Vec<Vec<VertexId>>, usize) {
        let delta = g.max_degree();
        let min_size = ((min_clique_frac * delta as f64).floor() as usize).max(2);
        let max_size = ((1.0 + epsilon) * delta as f64).floor() as usize + 1;
        let mut peeled = 0usize;
        let mut out = Vec::new();
        for k in cliques.iter_mut() {
            loop {
                if k.len() < min_size {
                    peeled += k.len();
                    k.clear();
                    break;
                }
                let internal: Vec<usize> = k
                    .iter()
                    .map(|&v| {
                        g.neighbors(v)
                            .iter()
                            .filter(|&&u| k.binary_search(&u).is_ok())
                            .count()
                    })
                    .collect();
                let need = ((1.0 - epsilon) * k.len() as f64).ceil() as usize;
                let worst = (0..k.len())
                    .min_by_key(|&i| internal[i])
                    .expect("nonempty clique");
                if k.len() > max_size || internal[worst] < need {
                    k.remove(worst);
                    peeled += 1;
                } else {
                    break;
                }
            }
            if !k.is_empty() {
                out.push(std::mem::take(k));
            }
        }
        (out, peeled)
    }

    fn assemble(n: usize, epsilon: f64, cliques: Vec<Vec<VertexId>>) -> AlmostCliqueDecomp {
        let mut kind = vec![NodeKind::Sparse; n];
        for (i, k) in cliques.iter().enumerate() {
            for &v in k {
                kind[v] = NodeKind::Dense { clique: i };
            }
        }
        AlmostCliqueDecomp {
            epsilon,
            kind,
            cliques,
        }
    }

    /// The decomposition over the map: buddy degrees by a fold that looks
    /// every CSR entry up in it, then candidates, components and repair.
    pub fn compute_acd(
        net: &mut ClusterNet<'_>,
        params: &AcdParams,
        seeds: &SeedStream,
    ) -> AlmostCliqueDecomp {
        let n = net.g.n_vertices();
        let delta = net.g.max_degree() as f64;
        net.set_phase("acd");
        if net.g.max_degree() == 0 {
            return assemble(n, params.epsilon, Vec::new());
        }
        let buddy = buddy_edges(net, &params.buddy, &seeds.child(11));
        let id_bits = net.id_bits();
        let buddy_deg = net.neighbor_fold_counts(1, id_bits, &vec![(); n], |v, u, _, _| {
            let key = (v.min(u), v.max(u));
            if buddy.get(&key).copied().unwrap_or(false) {
                Some(1usize)
            } else {
                None
            }
        });
        let xi = params.buddy.xi;
        let threshold = ((1.0 - 2.0 * xi) * delta).max(1.0);
        let candidate: Vec<bool> = buddy_deg.iter().map(|&d| d as f64 >= threshold).collect();
        net.charge_full_rounds(3, net.id_bits());
        let raw = buddy_components(n, &buddy, &candidate);
        let (cliques, peeled) = repair_cliques(net.g, raw, params.epsilon, params.min_clique_frac);
        net.charge_full_rounds((peeled as u64).min(16) + 1, net.id_bits());
        assemble(n, params.epsilon, cliques)
    }

    /// The exact oracle over a map of exact friendliness answers.
    pub fn acd_oracle(g: &ClusterGraph, epsilon: f64) -> AlmostCliqueDecomp {
        let n = g.n_vertices();
        let delta = g.max_degree() as f64;
        if g.max_degree() == 0 {
            return assemble(n, epsilon, Vec::new());
        }
        let xi = epsilon;
        let friendly: BTreeMap<(VertexId, VertexId), bool> = g
            .h_edges()
            .map(|(u, v)| {
                let c = cgc_decomp::common_neighbors(g, u, v) as f64;
                ((u, v), c >= (1.0 - xi) * delta)
            })
            .collect();
        let mut buddy_deg = vec![0usize; n];
        for (&(u, v), &b) in &friendly {
            if b {
                buddy_deg[u] += 1;
                buddy_deg[v] += 1;
            }
        }
        let threshold = ((1.0 - 2.0 * xi) * delta).max(1.0);
        let candidate: Vec<bool> = buddy_deg.iter().map(|&d| d as f64 >= threshold).collect();
        let raw = buddy_components(n, &friendly, &candidate);
        let (cliques, _) = repair_cliques(g, raw, epsilon, 0.55);
        assemble(n, epsilon, cliques)
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

/// Own rows (through `FingerprintMatrix::sample`), every aggregate row
/// (through a round that keeps them all), the charged sizes and the
/// `CostReport` of one round equal the reference's, for every predicate
/// and thread count.
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
                let got = neighborhood_fingerprints(&mut net, t, &seeds, 3, pred, |_, _| true);
                let own = FingerprintMatrix::sample(&net, t, &seeds, 3);
                let ctx = format!("{spec} pred={name} threads={threads}");
                assert_eq!(got.kept.len(), g.n_vertices(), "{ctx}: kept rows");
                for v in 0..g.n_vertices() {
                    assert_eq!(own.fingerprint(v), want.own[v], "{ctx}: own row {v}");
                    assert_eq!(
                        got.kept.fingerprint(v).as_ref(),
                        Some(&want.agg[v]),
                        "{ctx}: agg row {v}"
                    );
                }
                assert_eq!(net.meter.report(), want_report, "{ctx}: cost report");
            }
        }
    }
    assert!(cliques > 0, "the clique predicate must see cliques");
}

/// A round that keeps no row returns none, and its estimates and
/// `CostReport` equal the reference's.
#[test]
fn keep_nothing_rounds_match_reference() {
    for spec in INSTANCES {
        let g = spec.parse::<WorkloadSpec>().unwrap().build();
        let acd = acd_oracle(&g, 0.25);
        let t = COUNTING.trials(g.n_vertices());
        let seeds = SeedStream::new(16);
        for name in PREDICATES {
            let pred = |v, u| predicate(name, &acd, v, u);
            let mut ref_net = ClusterNet::with_log_budget(&g, 32);
            let want = reference::neighborhood_fingerprints(&mut ref_net, t, &seeds, 5, pred);
            let want_estimates: Vec<u64> = want
                .agg
                .iter()
                .map(|f| reference::estimate_count(f.maxima()).to_bits())
                .collect();
            let want_report = ref_net.meter.report();
            for threads in thread_counts() {
                let mut net = engine_net(&g, threads);
                let got = neighborhood_fingerprints(&mut net, t, &seeds, 5, pred, |_, _| false);
                let ctx = format!("{spec} pred={name} threads={threads}");
                assert!(got.kept.is_empty(), "{ctx}: kept rows");
                assert_eq!(f64_bits(&got.estimates), want_estimates, "{ctx}: estimates");
                assert_eq!(net.meter.report(), want_report, "{ctx}: cost report");
            }
        }
    }
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
                assert_eq!(
                    got.iter().collect::<BTreeMap<_, _>>(),
                    want,
                    "{ctx}: buddy map"
                );
                assert_eq!(net.meter.report(), want_report, "{ctx}: cost report");
            }
        }
    }
    assert!(
        answers[0] > 0 && answers[1] > 0,
        "both answers: {answers:?}"
    );
}

/// `compute_acd` and `acd_oracle` over the flat answers: the same kinds
/// and cliques as the map-based tail, and for `compute_acd` the same
/// `CostReport`, at every thread count.
#[test]
fn decompositions_match_reference() {
    let params = AcdParams {
        buddy: BuddyParams {
            xi: 0.3,
            counting: COUNTING,
        },
        ..AcdParams::default()
    };
    let mut cliques = [0usize; 2];
    for spec in INSTANCES {
        let g = spec.parse::<WorkloadSpec>().unwrap().build();
        let want = reference::acd_oracle(&g, 0.25);
        let got = acd_oracle(&g, 0.25);
        assert_eq!(got.kind, want.kind, "{spec}: oracle kinds");
        assert_eq!(got.cliques, want.cliques, "{spec}: oracle cliques");
        cliques[0] += want.n_cliques();

        let seeds = SeedStream::new(15);
        let mut ref_net = ClusterNet::with_log_budget(&g, 32);
        let want = reference::compute_acd(&mut ref_net, &params, &seeds);
        let want_report = ref_net.meter.report();
        cliques[1] += want.n_cliques();
        for threads in thread_counts() {
            let mut net = engine_net(&g, threads);
            let got = compute_acd(&mut net, &params, &seeds);
            let ctx = format!("{spec} threads={threads}");
            assert_eq!(got.kind, want.kind, "{ctx}: kinds");
            assert_eq!(got.cliques, want.cliques, "{ctx}: cliques");
            assert_eq!(net.meter.report(), want_report, "{ctx}: cost report");
        }
    }
    assert!(
        cliques[0] > 0 && cliques[1] > 0,
        "oracle and distributed cliques: {cliques:?}"
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

/// A round's passes — the query metering of the sampling pass, the
/// aggregate pass's metering and estimates, and the union estimates of
/// its kept rows — equal the reference applied to each row.
#[test]
fn matrix_passes_match_sort_and_rescan_reference() {
    for spec in INSTANCES {
        let g = spec.parse::<WorkloadSpec>().unwrap().build();
        let t = COUNTING.trials(g.n_vertices());
        let seeds = SeedStream::new(14);
        for threads in thread_counts() {
            let mut net = engine_net(&g, threads);
            let own = FingerprintMatrix::sample(&net, t, &seeds, 4);
            let round =
                neighborhood_fingerprints(&mut net, t, &seeds, 4, |_, u| u % 3 != 0, |_, _| true);
            let rows: Vec<Fingerprint> = (0..g.n_vertices())
                .map(|v| round.kept.fingerprint(v).expect("every row kept"))
                .collect();
            let query = (0..g.n_vertices())
                .map(|v| reference::encoded_bits(own.fingerprint(v).maxima()))
                .max();
            let response = rows
                .iter()
                .map(|f| reference::encoded_bits(f.maxima()))
                .max();
            let estimates: Vec<u64> = rows
                .iter()
                .map(|f| reference::estimate_count(f.maxima()).to_bits())
                .collect();
            let ctx = format!("{spec} threads={threads}");
            assert_eq!(Some(own.query_bits()), query, "{ctx}: query meter");
            assert_eq!(Some(round.response_bits), response, "{ctx}: response meter");
            assert_eq!(f64_bits(&round.estimates), estimates, "{ctx}: estimates");
            for (u, v) in g.h_edges() {
                let want = reference::estimate_count(rows[u].merged(&rows[v]).maxima());
                assert_eq!(
                    round.kept.union_estimate(u, v).map(f64::to_bits),
                    Some(want.to_bits()),
                    "{ctx}: ({u}, {v})"
                );
            }
        }
    }
}
