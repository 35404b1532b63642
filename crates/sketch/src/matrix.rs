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
//!   [`FingerprintMatrix::meter_and_estimate`] — per-row metering, alone
//!   or with the Lemma 5.2 estimates from the same pass;
//! * [`FingerprintMatrix::edge_union_estimates`] — per-`H`-edge estimates
//!   of the union of two rows.
//!
//! Metering and estimates read a row through one 256-bin value histogram
//! (the crate's `histogram` module); a union folds `max(row u, row v)`
//! straight into its histogram.
//!
//! Every pass writes disjoint rows (or takes an order-free max), and each
//! row is a pure function of its vertex, the seeds and the graph, so the
//! matrices, estimates and charged bits are bit-identical at any thread
//! count and to the `Fingerprint` code they replace. No matrix or scratch
//! row outlives the call that made it.

use crate::fingerprint::Fingerprint;
use crate::geometric::sample_geometric;
use crate::histogram::Histogram;
use cgc_cluster::{ClusterNet, VertexId};
use cgc_net::par::{fill_sharded, map_reduce_on, ShardPlan};
use cgc_net::SeedStream;

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

impl FingerprintMatrix {
    /// Every vertex's own sample vector: row `v` is what
    /// `Fingerprint::sample(&mut seeds.rng_for(v, salt), t)` draws.
    pub fn sample(net: &ClusterNet<'_>, t: usize, seeds: &SeedStream, salt: u64) -> Self {
        let mut rows = Vec::new();
        net.par_vertex_fill_rows(t, &mut rows, |v, row| {
            let mut rng = seeds.rng_for(v as u64, salt);
            for y in row {
                // `sample_geometric` is capped at 192, so `y + 1` fits a byte.
                *y = sample_geometric(&mut rng, 0.5) as u8 + 1;
            }
        });
        FingerprintMatrix {
            n: net.g.n_vertices(),
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
                range
                    .map(|v| Histogram::of(self.row(v)).encoded_bits())
                    .max()
                    .unwrap_or(0)
            },
            |acc, bits| *acc = (*acc).max(bits),
        )
    }

    /// [`Self::max_encoded_bits`] and the Lemma 5.2 estimate of every
    /// row, from one histogram per row.
    pub fn meter_and_estimate(&self, net: &ClusterNet<'_>) -> (u64, Vec<f64>) {
        self.assert_one_row_per_vertex(net);
        let summaries = net.par_vertex_map(|v| {
            let h = Histogram::of(self.row(v));
            (h.encoded_bits(), h.estimate())
        });
        let bits = summaries.iter().map(|s| s.0).max().unwrap_or(0);
        (bits, summaries.into_iter().map(|s| s.1).collect())
    }

    /// For every `H`-edge `(u, v)` of `net.g.h_edges()`, in that order,
    /// the Lemma 5.2 estimate of the union of rows `u` and `v` when
    /// `want(u, v)`, else `None`. The edges shard evenly over the pool.
    pub fn edge_union_estimates(
        &self,
        net: &ClusterNet<'_>,
        want: impl Fn(VertexId, VertexId) -> bool + Sync,
    ) -> Vec<Option<f64>> {
        self.assert_one_row_per_vertex(net);
        let plan = ShardPlan::even(net.g.n_h_edges(), net.parallel().threads());
        let mut out = vec![None; net.g.n_h_edges()];
        fill_sharded(&mut out, &plan, net.worker_pool(), |start, slots| {
            let edges = net.g.h_edges_in(start..start + slots.len());
            for (slot, (u, v)) in slots.iter_mut().zip(edges) {
                *slot =
                    want(u, v).then(|| Histogram::of_union(self.row(u), self.row(v)).estimate());
            }
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::encoded_bits;
    use crate::estimate::estimate_count;
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
        let own = FingerprintMatrix::sample(&serial, 64, &seeds, 1);
        let agg = own.gather(&serial, |_, u| u % 2 == 0);
        let reference = (
            agg.max_encoded_bits(&serial),
            agg.meter_and_estimate(&serial),
            agg.edge_union_estimates(&serial, |u, _| u % 5 != 0),
        );
        for threads in [2usize, 3, 8] {
            let net = ClusterNet::with_parallel(&g, 64, ParallelConfig::with_threads(threads));
            let own_p = FingerprintMatrix::sample(&net, 64, &seeds, 1);
            let agg_p = own_p.gather(&net, |_, u| u % 2 == 0);
            assert_eq!((&own_p, &agg_p), (&own, &agg), "threads={threads}");
            let got = (
                agg_p.max_encoded_bits(&net),
                agg_p.meter_and_estimate(&net),
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
        let estimates: Vec<f64> = fps.iter().map(Fingerprint::estimate).collect();
        assert_eq!(agg.meter_and_estimate(&net), (bits.unwrap(), estimates));
        for (v, fp) in fps.iter().enumerate() {
            assert_eq!(estimate_count(agg.row(v)), fp.estimate(), "row {v}");
        }
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
        let own = FingerprintMatrix::sample(&net, 16, &SeedStream::new(6), 0);
        let m = own.gather(&net, |_, _| false);
        assert!((0..6).all(|v| m.row(v).iter().all(|&y| y == 0)));
        assert_eq!(m.n_rows(), 6);
        assert!(m.meter_and_estimate(&net).1.iter().all(|&e| e == 0.0));
    }
}
