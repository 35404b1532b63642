//! Differential suite for the sharded generation-to-graph edge pipeline.
//!
//! Pins three contracts:
//!
//! 1. **Skip walk ≡ sweep.** The `O(m)` skip-walk G(n, p) sampler draws
//!    from per-row RNG substreams, so its instances differ from the old
//!    `O(n²)` single-stream sweep for a given seed — but the *process* it
//!    samples must be the same Bernoulli(`p`) edge process. A test-local
//!    copy of the removed sweep provides the reference distribution at
//!    small `n`, and the degenerate probabilities (`p ∈ {0, 1}`) must
//!    match the sweep exactly, edge for edge.
//! 2. **Thread-count independence.** Every workload family — through the
//!    full `WorkloadSpec` pipeline (generate → canonicalize →
//!    `CommGraph::from_edge_runs_with` → `ClusterGraph::build_with`) —
//!    produces an identical `HSpec` and an identical built `ClusterGraph`
//!    (full struct equality via the `PartialEq` derives) at threads
//!    {1, 2, 4, 8}.
//! 3. **Pinned instances.** One digest over every family-matrix and
//!    benchmark instance fails if any generated instance changes.

use cgc_cluster::ParallelConfig;
use cgc_graphs::{gnp_spec, HSpec, WorkloadSpec};
use cgc_net::SeedStream;
use rand::RngExt;

/// The pre-skip-walk sampler, verbatim: one RNG stream, one coin per
/// vertex pair in row-major order. Kept here as the distributional
/// reference for the skip walk.
fn gnp_sweep_reference(n: usize, p: f64, seed: u64) -> HSpec {
    let mut rng = SeedStream::new(seed).rng_for(0x67_6E_70, 0);
    let mut edges = Vec::new();
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.random::<f64>() < p {
                edges.push((u, v));
            }
        }
    }
    HSpec::new(n, edges)
}

fn degrees(h: &HSpec) -> Vec<usize> {
    let mut deg = vec![0usize; h.n];
    for &(u, v) in &h.edges {
        deg[u] += 1;
        deg[v] += 1;
    }
    deg
}

#[test]
fn skip_walk_matches_the_sweep_distribution() {
    // Matched seeds, many instances: the mean edge count and mean degree
    // of the two samplers must agree within a few standard errors. With
    // n = 80, p = 0.15 each instance has mean m = 474, sd ≈ 20; over 60
    // seeds the two means are each ±2.6 at one sigma, so a ±12 gate is
    // ~4.6σ for the difference — loose enough to never flake, tight
    // enough to catch any systematic bias in the skip sampling.
    let (n, p, seeds) = (80usize, 0.15f64, 60u64);
    let mut sweep_m = 0.0f64;
    let mut walk_m = 0.0f64;
    for seed in 0..seeds {
        sweep_m += gnp_sweep_reference(n, p, seed).edges.len() as f64;
        walk_m += gnp_spec(n, p, seed).edges.len() as f64;
    }
    sweep_m /= seeds as f64;
    walk_m /= seeds as f64;
    let expect = p * (n * (n - 1) / 2) as f64;
    assert!(
        (sweep_m - walk_m).abs() < 12.0,
        "sweep mean {sweep_m:.1} vs walk mean {walk_m:.1}"
    );
    assert!(
        (walk_m - expect).abs() < 12.0,
        "walk mean {walk_m:.1} vs analytic {expect:.1}"
    );
    // Per-vertex: the degree distribution is exchangeable under both
    // samplers — compare min/max spread on one instance loosely.
    let walk_deg = degrees(&gnp_spec(n, p, 1));
    let mean = walk_deg.iter().sum::<usize>() as f64 / n as f64;
    assert!(
        (mean - p * (n - 1) as f64).abs() < 4.0,
        "mean degree {mean}"
    );
}

#[test]
fn skip_walk_equals_the_sweep_at_degenerate_probabilities() {
    for n in [1usize, 2, 17, 40] {
        for seed in [0u64, 7] {
            assert_eq!(gnp_spec(n, 0.0, seed), gnp_sweep_reference(n, 0.0, seed));
            assert_eq!(gnp_spec(n, 1.0, seed), gnp_sweep_reference(n, 1.0, seed));
        }
    }
}

#[test]
fn skip_walk_is_seed_deterministic_and_thread_independent() {
    let reference = gnp_spec(300, 0.06, 5);
    assert_eq!(gnp_spec(300, 0.06, 5), reference);
    assert_ne!(gnp_spec(300, 0.06, 6), reference);
    for threads in [2, 4, 8] {
        let (got, _) = WorkloadSpec::gnp(300, 0.06, 5)
            .conflict_spec(&ParallelConfig::with_threads(threads))
            .expect("gnp has a conflict spec");
        assert_eq!(got, reference, "threads={threads}");
    }
}

/// One spec per family (layout variation included where layouts apply) —
/// the sweep matrix of the pipeline equivalence tests.
fn family_matrix() -> Vec<WorkloadSpec> {
    vec![
        "gnp:n=250,p=0.05,seed=3".parse().unwrap(),
        "gnp:n=120,p=0.08,seed=9,layout=star3,links=2"
            .parse()
            .unwrap(),
        "powerlaw:n=400,beta=2.4,avg=7,seed=7".parse().unwrap(),
        "powerlaw:n=200,beta=2.2,avg=6,seed=2,layout=path4"
            .parse()
            .unwrap(),
        "rgg:n=350,r=0.08,seed=11".parse().unwrap(),
        "rgg:n=150,r=0.12,seed=4,layout=tree7".parse().unwrap(),
        "planted:c=4,k=12,seed=6".parse().unwrap(),
        "mixture:c=3,k=14,anti=0.1,ext=2,bg=30,bgp=0.1,seed=8"
            .parse()
            .unwrap(),
        "cabal:c=3,k=16,anti=3,ext=5,seed=12,layout=star4"
            .parse()
            .unwrap(),
        "square:n=80,p=0.06,seed=5".parse().unwrap(),
        "bottleneck:clusters=12,path=5,seed=0".parse().unwrap(),
        "contraction:side=14,lo=3,hi=9,seed=10".parse().unwrap(),
    ]
}

/// The instances the benchmark colors, in order: solve-sparse, the four
/// serve-mixed hot specs, and churn's base instance.
const BENCHMARK_SPECS: [&str; 6] = [
    "gnp:n=2000,p=0.008,seed=3,layout=star3",
    "gnp:n=800,p=0.02,seed=1,layout=star3",
    "powerlaw:n=800,beta=2.5,avg=16,seed=2,layout=star3",
    "cabal:c=6,k=50,anti=3,ext=4,seed=3,layout=star3",
    "mixture:c=6,k=50,anti=0.04,ext=3,bg=500,bgp=0.03,seed=4,layout=star3",
    "gnp:n=4000,p=0.004,seed=1,layout=star3",
];

/// FNV-1a over every built instance of [`family_matrix`] and
/// [`BENCHMARK_SPECS`], as little-endian `u64` words: the machine count,
/// the network's edges, the assignment, each support tree (size,
/// (machine, parent) pairs, height), each `H`-edge with its multiplicity,
/// and the planted cliques and sparse set (each length, then members).
const INSTANCE_DIGEST: u64 = 0x2dff_74a9_eb7b_4a07;

struct Fnv(u64);

impl Fnv {
    fn word(&mut self, x: usize) {
        for byte in (x as u64).to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

#[test]
fn instances_are_pinned() {
    let specs: Vec<WorkloadSpec> = family_matrix()
        .into_iter()
        .chain(BENCHMARK_SPECS.iter().map(|s| s.parse().unwrap()))
        .collect();
    for threads in [1, 2] {
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        for spec in &specs {
            let (g, info, _) = spec.build_timed(&ParallelConfig::with_threads(threads));
            h.word(g.n_machines());
            for (a, b) in g.comm().edges() {
                h.word(a);
                h.word(b);
            }
            for &c in g.assignment() {
                h.word(c);
            }
            for v in 0..g.n_vertices() {
                let tree = g.support(v);
                h.word(tree.size());
                for (&m, &p) in tree.machines.iter().zip(tree.parents) {
                    h.word(m);
                    h.word(p);
                }
                h.word(tree.height);
            }
            for ((u, v), &mult) in g.h_edges().zip(g.h_edge_multiplicities()) {
                h.word(u);
                h.word(v);
                h.word(mult as usize);
            }
            if let Some(info) = info {
                for clique in &info.cliques {
                    h.word(clique.len());
                    for &x in clique {
                        h.word(x);
                    }
                }
                h.word(info.sparse.len());
                for &x in &info.sparse {
                    h.word(x);
                }
            }
        }
        assert_eq!(h.0, INSTANCE_DIGEST, "threads={threads}: {:#x}", h.0);
    }
}

#[test]
fn every_family_generates_an_identical_hspec_at_any_thread_count() {
    for spec in family_matrix() {
        let reference = spec.conflict_spec(&ParallelConfig::serial());
        for threads in [2, 4, 8] {
            let got = spec.conflict_spec(&ParallelConfig::with_threads(threads));
            assert_eq!(got, reference, "{spec} threads={threads}");
        }
        if let Some((h, _)) = reference {
            // Canonical invariant: sorted, unique, normalized.
            for w in h.edges.windows(2) {
                assert!(w[0] < w[1], "{spec}: edges not sorted/unique");
            }
            assert!(h.edges.iter().all(|&(u, v)| u < v), "{spec}: orientation");
        }
    }
}

#[test]
fn every_family_builds_an_identical_cluster_graph_at_any_thread_count() {
    for spec in family_matrix() {
        let (reference, ref_info, _) = spec.build_timed(&ParallelConfig::serial());
        for threads in [2, 4, 8] {
            let (got, info, _) = spec.build_timed(&ParallelConfig::with_threads(threads));
            assert_eq!(got, reference, "{spec} threads={threads}");
            assert_eq!(info, ref_info, "{spec} threads={threads}: planted info");
        }
    }
}

#[test]
fn build_timed_reproduces_build() {
    for spec in [
        "gnp:n=200,p=0.05,seed=3",
        "contraction:side=10,lo=2,hi=6,seed=4",
    ] {
        let spec: WorkloadSpec = spec.parse().unwrap();
        let (b, ib, t) = spec.build_timed(&ParallelConfig::with_threads(4));
        assert_eq!(spec.build(), b, "{spec}");
        assert_eq!(spec.build_timed(&ParallelConfig::serial()).1, ib, "{spec}");
        assert_eq!(t.threads, 4);
        assert!(t.total_secs >= t.generate_secs + t.canonicalize_secs + t.build_secs - 1e-9);
    }
}
