//! Approximate neighborhood counting on cluster graphs (Lemma 5.7).
//!
//! Every vertex `v` estimates `|N_H(v) ∩ P_v^{-1}(1)|` for a binary
//! predicate `P_v` known at the links: each vertex samples `t` geometric
//! variables, and each vertex aggregates the coordinate-wise maxima over
//! the neighbors satisfying the predicate, using the compressed encoding of
//! Lemma 5.6 for every (partial) aggregate. The estimate follows from
//! Lemma 5.2 with accuracy `(1 ± ξ)` in `O(ξ^{-2})` rounds.

use crate::matrix::FingerprintMatrix;
use cgc_cluster::{ClusterNet, VertexId};
use cgc_net::SeedStream;

/// Parameters for the counting primitive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CountingParams {
    /// Target multiplicative accuracy `ξ`.
    pub xi: f64,
    /// Scale factor for the trial count: `t = t_factor · ln(n) / ξ²`.
    /// The paper's Lemma 5.2 constant is 200 (giving failure `n^{-c}`);
    /// the default trades a weaker tail for laptop-scale running time, and
    /// experiment E4 sweeps `t` against the exact bound.
    pub t_factor: f64,
    /// Hard floor on the number of trials.
    pub min_trials: usize,
}

impl Default for CountingParams {
    fn default() -> Self {
        CountingParams {
            xi: 0.25,
            t_factor: 20.0,
            min_trials: 64,
        }
    }
}

impl CountingParams {
    /// Number of geometric trials for an `n`-vertex graph.
    pub fn trials(&self, n: usize) -> usize {
        let t = self.t_factor * ((n.max(2)) as f64).ln() / (self.xi * self.xi);
        (t.ceil() as usize).max(self.min_trials)
    }
}

/// The result of a fingerprint aggregation round.
#[derive(Debug, Clone)]
pub struct NeighborhoodFingerprints {
    /// Each vertex's own sample vector (fingerprint of `{v}`).
    pub own: FingerprintMatrix,
    /// Each vertex's aggregate over predicate-satisfying neighbors.
    pub agg: FingerprintMatrix,
    /// The largest encoded `agg` row: the charged response size.
    pub response_bits: u64,
}

/// Aggregates fingerprints over predicate-filtered neighborhoods.
///
/// `pred(v, u)` answers "does neighbor `u` count for `v`'s query?" and must
/// be computable by the link machines (paper: `P_v` known to the machines
/// of `V(v)`). Charges one full aggregation round with compressed
/// fingerprint messages (pipelined if the encoding exceeds the budget).
pub fn neighborhood_fingerprints(
    net: &mut ClusterNet<'_>,
    t: usize,
    seeds: &SeedStream,
    salt: u64,
    pred: impl Fn(VertexId, VertexId) -> bool + Sync,
) -> NeighborhoodFingerprints {
    let own = FingerprintMatrix::sample(net, t, seeds, salt);
    aggregate(net, own, pred)
}

/// Gathers `own` over predicate-filtered neighborhoods and charges the
/// round with the actual compressed sizes: the query is a single
/// element's vector, the converge-cast carries partial aggregates.
fn aggregate(
    net: &mut ClusterNet<'_>,
    own: FingerprintMatrix,
    pred: impl Fn(VertexId, VertexId) -> bool + Sync,
) -> NeighborhoodFingerprints {
    let agg = own.gather(net, pred);
    let query_bits = own.max_encoded_bits(net);
    let response_bits = agg.max_encoded_bits(net);
    net.charge_broadcast(query_bits);
    net.charge_link_round(query_bits);
    net.charge_converge(response_bits);
    NeighborhoodFingerprints {
        own,
        agg,
        response_bits,
    }
}

/// Lemma 9.4 weighted counting: every vertex estimates
/// `W_v = Σ_{u ∈ N(v)} α(v,u) · x_u` for `2^{-b}`-integral weights
/// `x_u = k_u / 2^b` and link-computable gates `α ∈ {0,1}`.
///
/// Mechanism (the paper's duplication trick): vertex `u` contributes the
/// maxima of `k_u` independent sample vectors — as if `k_u` copies of `u`
/// participated — so the Lemma 5.2 estimate returns `2^b · W_v`, which is
/// rescaled. Charges one compressed-fingerprint aggregation round
/// (`O(ξ^{-2} + (log b + log Δ)/log n)` rounds after pipelining, matching
/// the lemma).
pub fn approx_weighted_count(
    net: &mut ClusterNet<'_>,
    t: usize,
    seeds: &SeedStream,
    salt: u64,
    k_u: &[u64],
    b: u32,
    gate: impl Fn(VertexId, VertexId) -> bool + Sync,
) -> Vec<f64> {
    // Each coordinate max of k geometrics is sampled directly by
    // iterating — k_u is at most 2^b which the caller keeps polynomial.
    let own = FingerprintMatrix::sample_weighted(net, t, seeds, salt ^ 0x9B4, k_u);
    let agg = aggregate(net, own, gate).agg;
    let scale = 2f64.powi(b as i32);
    agg.estimates(net).into_iter().map(|e| e / scale).collect()
}

/// Lemma 5.7: every vertex estimates the number of neighbors satisfying
/// its predicate within `(1 ± ξ)`, w.h.p.
pub fn approx_count_neighbors(
    net: &mut ClusterNet<'_>,
    params: &CountingParams,
    seeds: &SeedStream,
    salt: u64,
    pred: impl Fn(VertexId, VertexId) -> bool + Sync,
) -> Vec<f64> {
    let t = params.trials(net.g.n_vertices());
    let agg = neighborhood_fingerprints(net, t, seeds, salt, pred).agg;
    agg.estimates(net)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgc_cluster::ClusterGraph;
    use cgc_net::CommGraph;

    fn clique_h(n: usize) -> ClusterGraph {
        ClusterGraph::singletons(CommGraph::complete(n))
    }

    #[test]
    fn degree_estimates_track_truth() {
        let h = clique_h(200);
        let mut net = ClusterNet::with_log_budget(&h, 32);
        let seeds = SeedStream::new(77);
        let params = CountingParams {
            xi: 0.2,
            t_factor: 40.0,
            min_trials: 256,
        };
        let est = approx_count_neighbors(&mut net, &params, &seeds, 0, |_, _| true);
        for (v, &e) in est.iter().enumerate() {
            let d = 199.0;
            let err = (e - d).abs() / d;
            assert!(err < 0.35, "vertex {v}: estimate {e}, err {err}");
        }
    }

    #[test]
    fn predicate_filters_contributions() {
        let h = clique_h(120);
        let mut net = ClusterNet::with_log_budget(&h, 32);
        let seeds = SeedStream::new(78);
        let params = CountingParams {
            xi: 0.25,
            t_factor: 40.0,
            min_trials: 256,
        };
        // Count only even-id neighbors: exactly 60 or 59 of them.
        let est = approx_count_neighbors(&mut net, &params, &seeds, 1, |_, u| u % 2 == 0);
        for (v, &e) in est.iter().enumerate() {
            let truth = if v % 2 == 0 { 59.0 } else { 60.0 };
            let err = (e - truth).abs() / truth;
            assert!(err < 0.4, "vertex {v}: estimate {e} vs {truth}");
        }
    }

    #[test]
    fn empty_predicate_estimates_zero() {
        let h = clique_h(30);
        let mut net = ClusterNet::with_log_budget(&h, 32);
        let seeds = SeedStream::new(79);
        let params = CountingParams::default();
        let est = approx_count_neighbors(&mut net, &params, &seeds, 2, |_, _| false);
        assert!(est.iter().all(|&e| e == 0.0));
    }

    #[test]
    fn charges_compressed_bits() {
        let h = clique_h(64);
        let mut net = ClusterNet::with_log_budget(&h, 32);
        let seeds = SeedStream::new(80);
        neighborhood_fingerprints(&mut net, 128, &seeds, 0, |_, _| true);
        let r = net.meter.report();
        assert!(r.bits > 0);
        assert!(r.h_rounds >= 3);
        // 128-trial fingerprints encode to ~O(t) bits; with a 32·log n
        // budget the round may pipeline but must stay bounded.
        assert!(r.h_rounds < 100, "h_rounds {}", r.h_rounds);
    }

    /// Lemma 9.4: weighted estimates track `Σ α·x_u` for dyadic weights.
    #[test]
    fn weighted_count_tracks_dyadic_weights() {
        let h = clique_h(60);
        let mut net = ClusterNet::with_log_budget(&h, 32);
        let seeds = SeedStream::new(81);
        let b = 2u32; // weights in quarters
                      // Vertex u has weight (u % 4 + 1) / 4.
        let k_u: Vec<u64> = (0..60).map(|u| (u % 4 + 1) as u64).collect();
        let est = approx_weighted_count(&mut net, 2048, &seeds, 0, &k_u, b, |_, _| true);
        for (v, &e) in est.iter().enumerate() {
            let truth: f64 = (0..60)
                .filter(|&u| u != v)
                .map(|u| (u % 4 + 1) as f64 / 4.0)
                .sum();
            let err = (e - truth).abs() / truth;
            assert!(err < 0.3, "v={v}: est {e} vs {truth}");
        }
    }

    #[test]
    fn weighted_count_respects_gate() {
        let h = clique_h(40);
        let mut net = ClusterNet::with_log_budget(&h, 32);
        let seeds = SeedStream::new(82);
        let k_u = vec![1u64; 40];
        let est = approx_weighted_count(&mut net, 1024, &seeds, 1, &k_u, 0, |_, u| u < 20);
        // Weight 1 each, only the 20 low-id neighbors count.
        for (v, &e) in est.iter().enumerate().skip(20) {
            let err = (e - 20.0).abs() / 20.0;
            assert!(err < 0.5, "v={v}: est {e}");
        }
    }

    #[test]
    fn zero_weights_estimate_zero() {
        let h = clique_h(10);
        let mut net = ClusterNet::with_log_budget(&h, 32);
        let seeds = SeedStream::new(83);
        let est = approx_weighted_count(&mut net, 256, &seeds, 2, &[0u64; 10], 3, |_, _| true);
        assert!(est.iter().all(|&e| e == 0.0));
    }

    #[test]
    fn trials_formula_scales() {
        let p = CountingParams {
            xi: 0.1,
            t_factor: 20.0,
            min_trials: 64,
        };
        assert!(p.trials(1000) > p.trials(10));
        let p2 = CountingParams { xi: 0.2, ..p };
        assert!(p2.trials(1000) < p.trials(1000));
        assert!(p.trials(2) >= 64);
    }
}
