//! The fingerprint engine: one flat `n × t` byte matrix per role.
//!
//! Row `v` of a [`FingerprintMatrix`] holds vertex `v`'s `t` maxima, each
//! stored as the byte `y + 1` with 0 meaning empty
//! ([`crate::geometric::GEOMETRIC_CAP`] = 192 keeps every value in a byte).
//! A round therefore holds `2·n·t` bytes in two allocations, where a
//! `Vec<Fingerprint>` per role holds `4·n·t` bytes in `2n` allocations.
//!
//! Each step of a fingerprint round is one sharded pass on the
//! [`ClusterNet`]'s persistent worker pool:
//!
//! * [`FingerprintMatrix::sample`] — row `v` is drawn from
//!   `seeds.rng_for(v, salt)`, the stream [`crate::Fingerprint::sample`]
//!   uses;
//! * [`FingerprintMatrix::gather`] — row `v` of the aggregate is the max
//!   of the rows of `v`'s neighbors `u` with `pred(v, u)`, one walk of
//!   `v`'s CSR row;
//! * [`FingerprintMatrix::max_encoded_bits`] and
//!   [`FingerprintMatrix::estimates`] — per-row metering and Lemma 5.2
//!   estimates;
//! * [`FingerprintMatrix::edge_union_estimates`] — per-`H`-edge estimates
//!   of the union of two rows, with one scratch row per shard.
//!
//! Every pass writes disjoint rows (or takes an order-free max), and each
//! row is a pure function of its vertex, the seeds and the graph, so the
//! matrices, estimates and charged bits are bit-identical at any thread
//! count and to the `Fingerprint` code they replace. No matrix or scratch
//! row outlives the call that made it.

use crate::encode::encoded_bits_with;
use crate::estimate::estimate_count;
use crate::fingerprint::Fingerprint;
use crate::geometric::sample_geometric;
use cgc_cluster::{ClusterNet, VertexId};
use cgc_net::par::{fill_sharded, map_reduce_on, ShardPlan};
use cgc_net::SeedStream;
use rand::Rng;

/// `n` fingerprints of `t` trials, row-major, one stored byte per maximum
/// (`y + 1`; 0 = empty).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FingerprintMatrix {
    n: usize,
    trials: usize,
    rows: Vec<u8>,
}

/// Raises `acc` to the coordinate-wise max with `row`.
#[inline]
fn max_into(acc: &mut [u8], row: &[u8]) {
    for (a, &b) in acc.iter_mut().zip(row) {
        *a = (*a).max(b);
    }
}

/// Raises `row` to the coordinate-wise max with one fresh sample vector
/// drawn from `rng` — the draws of one [`Fingerprint::sample`] call.
#[inline]
fn max_sample_into(row: &mut [u8], rng: &mut impl Rng) {
    for y in row {
        // `sample_geometric` is capped at 192, so `y + 1` fits a byte.
        *y = (*y).max(sample_geometric(rng, 0.5) as u8 + 1);
    }
}

impl FingerprintMatrix {
    /// Every vertex's own sample vector: row `v` is what
    /// `Fingerprint::sample(&mut seeds.rng_for(v, salt), t)` draws.
    pub fn sample(net: &ClusterNet<'_>, t: usize, seeds: &SeedStream, salt: u64) -> Self {
        let mut rows = Vec::new();
        net.par_vertex_fill_rows(t, &mut rows, |v, row| {
            max_sample_into(row, &mut seeds.rng_for(v as u64, salt));
        });
        FingerprintMatrix {
            n: net.g.n_vertices(),
            trials: t,
            rows,
        }
    }

    /// Lemma 9.4's duplicated sample vectors: row `v` is the max of
    /// `min(k_u[v], 2^16)` successive sample vectors drawn from
    /// `seeds.rng_for(v, salt)` (empty when `k_u[v] = 0`).
    ///
    /// # Panics
    ///
    /// Panics if `k_u.len()` differs from the vertex count.
    pub fn sample_weighted(
        net: &ClusterNet<'_>,
        t: usize,
        seeds: &SeedStream,
        salt: u64,
        k_u: &[u64],
    ) -> Self {
        assert_eq!(
            k_u.len(),
            net.g.n_vertices(),
            "one weight numerator per vertex"
        );
        let mut rows = Vec::new();
        net.par_vertex_fill_rows(t, &mut rows, |v, row| {
            let mut rng = seeds.rng_for(v as u64, salt);
            for _ in 0..k_u[v].min(1 << 16) {
                max_sample_into(row, &mut rng);
            }
        });
        FingerprintMatrix {
            n: k_u.len(),
            trials: t,
            rows,
        }
    }

    /// The neighborhood aggregate: row `v` is the max of rows `u` over
    /// `v`'s distinct neighbors with `pred(v, u)` (empty if none).
    ///
    /// # Panics
    ///
    /// Panics if the matrix does not have one row per vertex of `net`.
    pub fn gather(
        &self,
        net: &ClusterNet<'_>,
        pred: impl Fn(VertexId, VertexId) -> bool + Sync,
    ) -> Self {
        self.assert_one_row_per_vertex(net);
        let (offsets, adj) = net.g.adjacency_csr();
        let mut rows = Vec::new();
        net.par_vertex_fill_rows(self.trials, &mut rows, |v, row| {
            for &u in &adj[offsets[v]..offsets[v + 1]] {
                if pred(v, u) {
                    max_into(row, self.row(u));
                }
            }
        });
        FingerprintMatrix {
            n: self.n,
            trials: self.trials,
            rows,
        }
    }

    /// Number of rows (vertices).
    pub fn n_rows(&self) -> usize {
        self.n
    }

    /// The passes over `net` index rows by its vertices.
    fn assert_one_row_per_vertex(&self, net: &ClusterNet<'_>) {
        assert_eq!(self.n, net.g.n_vertices(), "one row per vertex");
    }

    /// Row `v`: its `t` stored maxima.
    #[inline]
    pub fn row(&self, v: VertexId) -> &[u8] {
        &self.rows[v * self.trials..(v + 1) * self.trials]
    }

    /// Row `v` as a [`Fingerprint`] (allocates; for tests and callers
    /// that need the `i16` form).
    pub fn fingerprint(&self, v: VertexId) -> Fingerprint {
        Fingerprint::from_maxima(self.row(v).iter().map(|&y| i16::from(y) - 1).collect())
    }

    /// The largest [`crate::encoded_bits`] over all rows (0 with no rows):
    /// the message size a round carrying these fingerprints is charged.
    pub fn max_encoded_bits(&self, net: &ClusterNet<'_>) -> u64 {
        self.assert_one_row_per_vertex(net);
        map_reduce_on(
            net.shard_plan(),
            net.worker_pool(),
            |range| {
                let mut sorted = Vec::with_capacity(self.trials);
                range
                    .map(|v| encoded_bits_with(self.row(v), &mut sorted))
                    .max()
                    .unwrap_or(0)
            },
            |acc, bits| *acc = (*acc).max(bits),
        )
    }

    /// The Lemma 5.2 estimate of every row.
    pub fn estimates(&self, net: &ClusterNet<'_>) -> Vec<f64> {
        self.assert_one_row_per_vertex(net);
        net.par_vertex_map(|v| estimate_count(self.row(v)))
    }

    /// For every `H`-edge `(u, v)` of `net.g.h_edges()`, in that order,
    /// the Lemma 5.2 estimate of the union of rows `u` and `v` when
    /// `want(u, v)`, else `None`. The edges shard evenly over the pool;
    /// each shard merges into one scratch row.
    pub fn edge_union_estimates(
        &self,
        net: &ClusterNet<'_>,
        want: impl Fn(VertexId, VertexId) -> bool + Sync,
    ) -> Vec<Option<f64>> {
        self.assert_one_row_per_vertex(net);
        let edges = net.g.h_edge_slice();
        let plan = ShardPlan::even(edges.len(), net.parallel().threads());
        let mut out = Vec::new();
        fill_sharded(&mut out, &plan, net.worker_pool(), |start, slots| {
            let mut union = vec![0u8; self.trials];
            for (slot, &(u, v)) in slots.iter_mut().zip(&edges[start..]) {
                slot.write(want(u, v).then(|| {
                    union.copy_from_slice(self.row(u));
                    max_into(&mut union, self.row(v));
                    estimate_count(&union)
                }));
            }
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::encoded_bits;
    use cgc_cluster::{ClusterGraph, ParallelConfig};
    use cgc_net::CommGraph;

    fn wheel(n: usize) -> ClusterGraph {
        let mut edges: Vec<(usize, usize)> = (1..n).map(|v| (0, v)).collect();
        edges.extend((1..n).map(|v| (v, v % (n - 1) + 1)));
        ClusterGraph::singletons(CommGraph::from_edges(n, &edges).unwrap())
    }

    #[test]
    fn rows_match_fingerprint_code() {
        let g = wheel(40);
        let seeds = SeedStream::new(3);
        let net = ClusterNet::new(&g, 64);
        let own = FingerprintMatrix::sample(&net, 96, &seeds, 5);
        let agg = own.gather(&net, |v, u| (v + u) % 3 != 0);
        for v in 0..g.n_vertices() {
            let fp = Fingerprint::sample(&mut seeds.rng_for(v as u64, 5), 96);
            assert_eq!(own.fingerprint(v), fp);
            let mut acc = Fingerprint::empty(96);
            for &u in g.neighbors(v) {
                if (v + u) % 3 != 0 {
                    acc.merge(&Fingerprint::sample(&mut seeds.rng_for(u as u64, 5), 96));
                }
            }
            assert_eq!(agg.fingerprint(v), acc, "vertex {v}");
        }
    }

    #[test]
    fn passes_are_thread_count_invariant() {
        let g = wheel(75);
        let seeds = SeedStream::new(4);
        let serial = ClusterNet::new(&g, 64);
        let k_u: Vec<u64> = (0..75).map(|v| v % 4).collect();
        let own = FingerprintMatrix::sample_weighted(&serial, 64, &seeds, 1, &k_u);
        let agg = own.gather(&serial, |_, u| u % 2 == 0);
        let reference = (
            agg.max_encoded_bits(&serial),
            agg.estimates(&serial),
            agg.edge_union_estimates(&serial, |u, _| u % 5 != 0),
        );
        for threads in [2usize, 3, 8] {
            let net = ClusterNet::with_parallel(&g, 64, ParallelConfig::with_threads(threads));
            let own_p = FingerprintMatrix::sample_weighted(&net, 64, &seeds, 1, &k_u);
            let agg_p = own_p.gather(&net, |_, u| u % 2 == 0);
            assert_eq!((&own_p, &agg_p), (&own, &agg), "threads={threads}");
            let got = (
                agg_p.max_encoded_bits(&net),
                agg_p.estimates(&net),
                agg_p.edge_union_estimates(&net, |u, _| u % 5 != 0),
            );
            assert_eq!(got, reference, "threads={threads}");
        }
    }

    #[test]
    fn metering_and_unions_match_fingerprint_code() {
        let g = wheel(30);
        let seeds = SeedStream::new(5);
        let net = ClusterNet::new(&g, 64);
        let agg = FingerprintMatrix::sample(&net, 128, &seeds, 0).gather(&net, |_, _| true);
        let fps: Vec<Fingerprint> = (0..30).map(|v| agg.fingerprint(v)).collect();
        let bits = fps.iter().map(|f| encoded_bits(f.maxima())).max();
        assert_eq!(agg.max_encoded_bits(&net), bits.unwrap());
        let unions = agg.edge_union_estimates(&net, |u, _| u != 0);
        for ((u, v), got) in g.h_edges().zip(unions) {
            let want = (u != 0).then(|| fps[u].merged(&fps[v]).estimate());
            assert_eq!(got, want, "edge ({u}, {v})");
        }
    }

    #[test]
    fn weightless_rows_stay_empty() {
        let g = wheel(6);
        let net = ClusterNet::new(&g, 64);
        let m = FingerprintMatrix::sample_weighted(&net, 16, &SeedStream::new(6), 0, &[0; 6]);
        assert!((0..6).all(|v| m.row(v).iter().all(|&y| y == 0)));
        assert_eq!(m.n_rows(), 6);
        assert!(m.estimates(&net).iter().all(|&e| e == 0.0));
    }
}
