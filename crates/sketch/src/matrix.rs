//! The fingerprint engine: one flat `n × t` byte matrix per round.
//!
//! Row `v` of a [`FingerprintMatrix`] holds vertex `v`'s `t` maxima, each
//! stored as the byte `y + 1` with 0 meaning empty
//! ([`crate::geometric::GEOMETRIC_CAP`] = 192 keeps every value in a byte).
//! A round therefore holds the `n·t` bytes of every vertex's own sample in
//! one allocation, one scratch row per shard, and only those aggregate
//! rows its caller keeps ([`KeptRows`]), where a `Vec<Fingerprint>` per
//! role holds `4·n·t` bytes in `2n` allocations.
//!
//! A round is two sharded passes over the [`ClusterNet`]'s shard plan, on
//! the process's worker pool, and each pass reads a row while it is hot:
//!
//! * [`FingerprintMatrix::sample`] — row `v` is drawn from
//!   `seeds.rng_for(v, salt)`, the stream [`crate::Fingerprint::sample`]
//!   uses, with the same values: the words come in bulk (chunks of up to
//!   512 `u64` in a stack buffer, through the keystream's `fill_bytes`)
//!   and map to trials by the λ = ½ rule of
//!   [`crate::geometric::sample_geometric`] — trailing ones, an all-ones
//!   word continuing into the next — instead of one call per trial. A
//!   chunk is mapped by one branch-free loop over its words' low halves
//!   (a value below 32 is the exponent of one exact `f32`), and only a
//!   chunk with an all-ones low half (about 2^−32 a word) or one that
//!   starts inside a trial goes word by word through the rule itself.
//!   Each row is metered right after it is drawn, in closed form from
//!   its sum and three bin counts when its median bin is 1 or 2 (nearly
//!   always, for one draw a trial), else from its value histogram: the
//!   largest encoded row is the round's query size
//!   ([`FingerprintMatrix::query_bits`]);
//! * the aggregate pass of [`crate::neighborhood_fingerprints`] — vertex
//!   `v`'s aggregate, the max of the rows of its neighbors `u` with
//!   `pred(v, u)`, is built in the shard's scratch row by one walk of
//!   `v`'s CSR row, and metered and estimated (Lemma 5.2) in place. A
//!   vertex with no such neighbor has the all-empty aggregate, answered
//!   without a histogram. The row is copied out, in vertex order, only
//!   when the caller's `keep(v, estimate)` asks for it.
//!
//! Metering and estimates read a row through one 256-bin value histogram
//! (the crate's `histogram` module), except the own rows whose median bin
//! the closed form covers; [`KeptRows::union_estimate`] folds
//! `max(row u, row v)` straight into its histogram.
//!
//! Every pass writes disjoint rows or takes an order-free max, shard
//! results join in shard order, and each row is a pure function of its
//! vertex, the seeds and the graph, so the rows, estimates and charged
//! bits are bit-identical at any thread count and to the `Fingerprint`
//! code they replace. No matrix or scratch row outlives the round that
//! made it, except the rows the caller keeps.

use crate::counting::NeighborhoodFingerprints;
use crate::fingerprint::Fingerprint;
use crate::geometric::fill_half_geometric_row;
use crate::histogram::{empty_row_bits, low_median_bits, Histogram};
use cgc_cluster::{ClusterNet, VertexId};
use cgc_net::par::map_reduce_on;
use cgc_net::SeedStream;
use std::sync::atomic::{AtomicU64, Ordering};

/// `n` fingerprints of `t` trials, row-major, one stored byte per maximum
/// (`y + 1`; 0 = empty).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FingerprintMatrix {
    n: usize,
    trials: usize,
    rows: Vec<u8>,
    query_bits: u64,
}

/// Raises `acc` to the coordinate-wise max with `row`.
#[inline]
fn max_into(acc: &mut [u8], row: &[u8]) {
    for (a, &b) in acc.iter_mut().zip(row) {
        *a = (*a).max(b);
    }
}

/// A stored row as a [`Fingerprint`] (allocates).
fn fingerprint_of(row: &[u8]) -> Fingerprint {
    Fingerprint::from_maxima(row.iter().map(|&y| i16::from(y) - 1).collect())
}

impl FingerprintMatrix {
    /// Every vertex's own sample vector: row `v` is what
    /// `Fingerprint::sample(&mut seeds.rng_for(v, salt), t)` draws.
    ///
    /// Each row draws its stream's words in bulk into a stack chunk and
    /// maps them to the values `sample_geometric(rng, 0.5)` draws: a
    /// branch-free loop over the words' low halves, or, for a chunk it
    /// refuses, that rule word by word. The row is then metered into
    /// [`Self::query_bits`]: from its byte sum and the counts of bins 0, 1
    /// and 2 when its median bin is 1 or 2, else from its value
    /// histogram, to the same size. So the only allocation is the matrix.
    /// A request may draw a few words past the row's last trial; the
    /// row's stream is dropped after the row.
    pub fn sample(net: &ClusterNet<'_>, t: usize, seeds: &SeedStream, salt: u64) -> Self {
        let n = net.g.n_vertices();
        // Every row encodes to at least `empty_row_bits(t)`, so the max
        // may start there; a `t = 0` fill visits no row and reads it.
        let query_bits = AtomicU64::new(if n == 0 { 0 } else { empty_row_bits(t) });
        let mut rows = Vec::new();
        net.par_vertex_fill_rows(t, &mut rows, |v, row| {
            fill_half_geometric_row(&mut seeds.rng_for(v as u64, salt), row);
            let bits = low_median_bits(row).unwrap_or_else(|| Histogram::of(row).encoded_bits());
            query_bits.fetch_max(bits, Ordering::Relaxed);
        });
        FingerprintMatrix {
            n,
            trials: t,
            rows,
            query_bits: query_bits.into_inner(),
        }
    }

    /// The largest [`crate::encoded_bits`] over all rows (0 with no rows):
    /// the message size of a round's query, which carries one own row.
    pub fn query_bits(&self) -> u64 {
        self.query_bits
    }

    /// The aggregate pass of a round: for every vertex `v`, the max of
    /// rows `u` over `v`'s distinct neighbors with `pred(v, u)` (empty if
    /// none), metered and estimated. The row is kept when `keep(v,
    /// estimate)`.
    ///
    /// # Panics
    ///
    /// Panics if the matrix does not have one row per vertex of `net`.
    pub(crate) fn aggregate(
        &self,
        net: &ClusterNet<'_>,
        pred: impl Fn(VertexId, VertexId) -> bool + Sync,
        keep: impl Fn(VertexId, f64) -> bool + Sync,
    ) -> NeighborhoodFingerprints {
        assert_eq!(self.n, net.g.n_vertices(), "one row per vertex");
        let (offsets, adj) = net.g.adjacency_csr();
        let t = self.trials;
        map_reduce_on(
            net.shard_plan(),
            |range| {
                let mut part = NeighborhoodFingerprints {
                    response_bits: 0,
                    estimates: Vec::with_capacity(range.len()),
                    kept: KeptRows::new(t),
                };
                let mut row = vec![0u8; t];
                for v in range {
                    let mut from = adj[offsets[v]..offsets[v + 1]]
                        .iter()
                        .filter(|&&u| pred(v, u));
                    let (bits, estimate, filled) = match from.next() {
                        None => (empty_row_bits(t), 0.0, false),
                        Some(&first) => {
                            row.copy_from_slice(self.row(first));
                            for &u in from {
                                max_into(&mut row, self.row(u));
                            }
                            let h = Histogram::of(&row);
                            (h.encoded_bits(), h.estimate(), true)
                        }
                    };
                    part.response_bits = part.response_bits.max(bits);
                    part.estimates.push(estimate);
                    if keep(v, estimate) {
                        let kept = &mut part.kept;
                        kept.vertices.push(v);
                        if filled {
                            kept.rows.extend_from_slice(&row);
                        } else {
                            kept.rows.resize(kept.rows.len() + t, 0);
                        }
                    }
                }
                part
            },
            |acc, part| {
                acc.response_bits = acc.response_bits.max(part.response_bits);
                acc.estimates.extend(part.estimates);
                acc.kept.vertices.extend(part.kept.vertices);
                acc.kept.rows.extend(part.kept.rows);
            },
        )
    }

    /// Number of rows (vertices).
    pub fn n_rows(&self) -> usize {
        self.n
    }

    /// Row `v`: its `t` stored maxima.
    #[inline]
    pub fn row(&self, v: VertexId) -> &[u8] {
        &self.rows[v * self.trials..(v + 1) * self.trials]
    }

    /// Row `v` as a [`Fingerprint`] (allocates; for tests and callers
    /// that need the `i16` form).
    pub fn fingerprint(&self, v: VertexId) -> Fingerprint {
        fingerprint_of(self.row(v))
    }
}

/// The aggregate rows a round's caller kept, in vertex order, stored like
/// a [`FingerprintMatrix`]'s rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeptRows {
    trials: usize,
    vertices: Vec<VertexId>,
    rows: Vec<u8>,
}

impl KeptRows {
    fn new(trials: usize) -> Self {
        KeptRows {
            trials,
            vertices: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Number of kept rows.
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// Whether no row was kept.
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }

    /// Vertex `v`'s aggregate row, if it was kept.
    fn row(&self, v: VertexId) -> Option<&[u8]> {
        let i = self.vertices.binary_search(&v).ok()?;
        Some(&self.rows[i * self.trials..(i + 1) * self.trials])
    }

    /// Vertex `v`'s aggregate as a [`Fingerprint`], if it was kept
    /// (allocates).
    pub fn fingerprint(&self, v: VertexId) -> Option<Fingerprint> {
        self.row(v).map(fingerprint_of)
    }

    /// The Lemma 5.2 estimate of the union of the aggregates of `u` and
    /// `v` (their coordinate-wise max), if both were kept.
    pub fn union_estimate(&self, u: VertexId, v: VertexId) -> Option<f64> {
        Some(Histogram::of_union(self.row(u)?, self.row(v)?).estimate())
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

    /// The `Fingerprint` code's aggregate of `v`: the merge of its
    /// neighbors' samples that pass `pred`.
    fn merged_neighbors(
        g: &ClusterGraph,
        seeds: &SeedStream,
        salt: u64,
        t: usize,
        v: VertexId,
        pred: impl Fn(VertexId, VertexId) -> bool,
    ) -> Fingerprint {
        let mut acc = Fingerprint::empty(t);
        for &u in g.neighbors(v) {
            if pred(v, u) {
                acc.merge(&Fingerprint::sample(&mut seeds.rng_for(u as u64, salt), t));
            }
        }
        acc
    }

    #[test]
    fn rows_match_fingerprint_code() {
        let g = wheel(40);
        let seeds = SeedStream::new(3);
        let net = ClusterNet::new(&g, 64);
        let pred = |v: VertexId, u: VertexId| !(v + u).is_multiple_of(3);
        let own = FingerprintMatrix::sample(&net, 96, &seeds, 5);
        let round = own.aggregate(&net, pred, |_, _| true);
        assert_eq!(round.kept.len(), g.n_vertices());
        for v in 0..g.n_vertices() {
            let fp = Fingerprint::sample(&mut seeds.rng_for(v as u64, 5), 96);
            assert_eq!(own.fingerprint(v), fp);
            let acc = merged_neighbors(&g, &seeds, 5, 96, v, pred);
            assert_eq!(round.kept.fingerprint(v), Some(acc), "vertex {v}");
        }
    }

    #[test]
    fn passes_are_thread_count_invariant() {
        let g = wheel(75);
        let seeds = SeedStream::new(4);
        let pass = |net: &ClusterNet<'_>| {
            let own = FingerprintMatrix::sample(net, 64, &seeds, 1);
            let round = own.aggregate(net, |_, u| u % 2 == 0, |v, d| v % 3 != 0 && d >= 1.0);
            let unions: Vec<Option<u64>> = g
                .h_edges()
                .map(|(u, v)| round.kept.union_estimate(u, v).map(f64::to_bits))
                .collect();
            (
                own,
                round.response_bits,
                round.estimates,
                round.kept,
                unions,
            )
        };
        let reference = pass(&ClusterNet::new(&g, 64));
        assert!(reference.4.iter().any(Option::is_some));
        for threads in [2usize, 3, 8] {
            let net = ClusterNet::with_parallel(&g, 64, ParallelConfig::with_threads(threads));
            assert_eq!(pass(&net), reference, "threads={threads}");
        }
    }

    #[test]
    fn metering_and_unions_match_fingerprint_code() {
        let g = wheel(30);
        let seeds = SeedStream::new(5);
        let net = ClusterNet::new(&g, 64);
        let keep = |v: VertexId, _: f64| v % 4 != 1;
        let own = FingerprintMatrix::sample(&net, 128, &seeds, 0);
        let round = own.aggregate(&net, |_, _| true, keep);
        let fps: Vec<Fingerprint> = (0..30)
            .map(|v| merged_neighbors(&g, &seeds, 0, 128, v, |_, _| true))
            .collect();
        let query = (0..30).map(|v| encoded_bits(own.fingerprint(v).maxima()));
        assert_eq!(Some(own.query_bits()), query.max());
        let response = fps.iter().map(|f| encoded_bits(f.maxima())).max();
        assert_eq!(Some(round.response_bits), response);
        let estimates: Vec<f64> = fps.iter().map(Fingerprint::estimate).collect();
        assert_eq!(round.estimates, estimates);
        for (v, fp) in fps.iter().enumerate() {
            let want = keep(v, 0.0).then(|| fp.clone());
            assert_eq!(round.kept.fingerprint(v), want, "row {v}");
        }
        assert_eq!(round.kept.len(), (0..30).filter(|&v| keep(v, 0.0)).count());
        for (u, v) in g.h_edges() {
            let want = (keep(u, 0.0) && keep(v, 0.0)).then(|| fps[u].merged(&fps[v]).estimate());
            assert_eq!(round.kept.union_estimate(u, v), want, "edge ({u}, {v})");
        }
    }

    #[test]
    fn weightless_rows_stay_empty() {
        let g = wheel(6);
        let net = ClusterNet::new(&g, 64);
        let own = FingerprintMatrix::sample(&net, 16, &SeedStream::new(6), 0);
        assert_eq!(own.n_rows(), 6);
        let round = own.aggregate(&net, |_, _| false, |v, _| v < 3);
        assert!(round.estimates.iter().all(|&e| e == 0.0));
        assert_eq!(
            round.response_bits,
            encoded_bits(Fingerprint::empty(16).maxima())
        );
        assert_eq!(round.kept.len(), 3);
        assert!((0..3).all(|v| round.kept.row(v).unwrap().iter().all(|&y| y == 0)));
        assert_eq!(round.kept.row(3), None);
        let none = own.aggregate(&net, |_, _| true, |_, _| false);
        assert!(none.kept.is_empty());
        assert!(none.estimates.iter().all(|&e| e >= 1.0));
    }
}
