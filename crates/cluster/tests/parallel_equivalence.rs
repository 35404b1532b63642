//! Differential suite for the sharded parallel executor: on random
//! multi-link instances, every aggregation primitive run at thread counts
//! {1, 2, 4, 8} must produce output buffers
//! **and** `CostMeter` phase/total charges bit-identical to the sequential
//! runtime. The fold accumulator is deliberately non-commutative, so any
//! reordering of contributions — not just any misrouting — fails loudly.

use cgc_cluster::{ClusterGraph, ClusterNet, ParallelConfig};
use cgc_net::{CommGraph, CostReport, SeedStream};
use rand::RngExt;

/// A random cluster instance: `k` clusters of `m` path-connected machines
/// plus random inter-cluster links (repeats make parallel links).
fn random_instance(seed: u64) -> ClusterGraph {
    let mut rng = SeedStream::new(seed).rng_for(0x0FA2, 0);
    let k = rng.random_range(2..40usize);
    let m = rng.random_range(1..5usize);
    let n_machines = k * m;
    let mut edges = Vec::new();
    for c in 0..k {
        for j in 1..m {
            edges.push((c * m + j - 1, c * m + j));
        }
    }
    let attempts = rng.random_range(k..8 * k);
    for _ in 0..attempts {
        let a = rng.random_range(0..n_machines);
        let b = rng.random_range(0..n_machines);
        if a / m != b / m {
            edges.push((a.min(b), a.max(b)));
        }
    }
    let comm = CommGraph::from_edges(n_machines, &edges).unwrap();
    ClusterGraph::build(comm, (0..n_machines).map(|x| x / m).collect()).unwrap()
}

/// Runs the whole primitive battery on one runtime and returns everything
/// it produced, including the final meter snapshot.
#[allow(clippy::type_complexity)]
fn run_battery(
    g: &ClusterGraph,
    par: ParallelConfig,
) -> (
    Vec<u64>,
    Vec<bool>,
    Vec<usize>,
    Vec<u64>,
    Vec<u64>,
    Vec<usize>,
    CostReport,
) {
    let n = g.n_vertices();
    let mut net = ClusterNet::with_parallel(g, 32, par);
    let queries: Vec<u64> = (0..n as u64)
        .map(|v| v.wrapping_mul(0x9E37) ^ 0xA5)
        .collect();

    net.set_phase("fold");
    // Order-sensitive accumulator: a * 31 + c is not commutative, so the
    // contribution order (ascending neighbors) must match exactly.
    let mut fold = Vec::new();
    net.neighbor_fold_into(
        16,
        16,
        &queries,
        |v, u, _, qu| {
            if (u + v) % 3 != 0 || u < v {
                Some(*qu)
            } else {
                None
            }
        },
        |v| v as u64,
        |acc, c| *acc = acc.wrapping_mul(31).wrapping_add(c),
        &mut fold,
    );

    net.set_phase("typed");
    let flags = net
        .neighbor_fold_flags(8, 1, &queries, |_, _, _, qu| qu % 5 == 0)
        .to_vec();
    let counts = net
        .neighbor_fold_counts(8, 16, &queries, |v, u, _, _| (u > v).then(|| u - v))
        .to_vec();
    let words = net
        .neighbor_fold_words(8, 64, &queries, |_, u, _, _| Some(1u64 << (u % 64)))
        .to_vec();

    // Row fill: each vertex marks its neighbors' query bits in a
    // three-word row (uncharged, like every oracle view).
    let mut rows = Vec::new();
    net.par_vertex_fill_words(3, &mut rows, |v, row| {
        for &u in g.neighbors(v) {
            let bit = (queries[u] % 192) as usize;
            row[bit / 64] ^= 1u64 << (bit % 64);
        }
        row[0] ^= v as u64;
    });

    net.set_phase("degrees");
    let mut degs = Vec::new();
    net.exact_degrees_into(&mut degs);

    (fold, flags, counts, words, rows, degs, net.meter.report())
}

#[test]
fn all_primitives_bit_identical_across_thread_counts() {
    for seed in 0..25u64 {
        let g = random_instance(seed);
        let reference = run_battery(&g, ParallelConfig::serial());
        for threads in [1usize, 2, 4, 8] {
            let got = run_battery(&g, ParallelConfig::with_threads(threads));
            assert_eq!(
                got.0, reference.0,
                "seed {seed} threads {threads}: fold diverged"
            );
            assert_eq!(got.1, reference.1, "seed {seed} threads {threads}: flags");
            assert_eq!(got.2, reference.2, "seed {seed} threads {threads}: counts");
            assert_eq!(got.3, reference.3, "seed {seed} threads {threads}: words");
            assert_eq!(
                got.4, reference.4,
                "seed {seed} threads {threads}: row fill"
            );
            assert_eq!(got.5, reference.5, "seed {seed} threads {threads}: degrees");
            assert_eq!(
                got.6, reference.6,
                "seed {seed} threads {threads}: CostReport diverged"
            );
        }
    }
}

#[test]
fn reconfiguring_a_live_net_keeps_results_identical() {
    // One net, reconfigured between rounds: outputs never change, and the
    // meter keeps charging the same amounts per round.
    let g = random_instance(0xC0FFEE);
    let n = g.n_vertices();
    let queries: Vec<u64> = (0..n as u64).collect();
    let mut net = ClusterNet::new(&g, 32);
    let mut reference: Option<Vec<u64>> = None;
    let mut per_round_bits: Option<u128> = None;
    for threads in [1usize, 4, 2, 8, 1] {
        net.set_parallel(ParallelConfig::with_threads(threads));
        let before = net.meter.report().bits;
        let mut got = Vec::new();
        net.neighbor_fold_into(
            16,
            16,
            &queries,
            |_, _, _, qu| Some(*qu),
            |_| 0u64,
            |acc, c| *acc = acc.wrapping_mul(31).wrapping_add(c),
            &mut got,
        );
        let spent = net.meter.report().bits - before;
        match &reference {
            None => reference = Some(got),
            Some(want) => assert_eq!(&got, want, "threads {threads}"),
        }
        match per_round_bits {
            None => per_round_bits = Some(spent),
            Some(want) => assert_eq!(spent, want, "threads {threads}: charge drifted"),
        }
    }
}
