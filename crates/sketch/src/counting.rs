//! Approximate neighborhood counting on cluster graphs (Lemma 5.7).
//!
//! Every vertex `v` estimates `|N_H(v) ∩ P_v^{-1}(1)|` for a binary
//! predicate `P_v` known at the links: each vertex samples `t` geometric
//! variables, and each vertex aggregates the coordinate-wise maxima over
//! the neighbors satisfying the predicate, using the compressed encoding of
//! Lemma 5.6 for every (partial) aggregate. The estimate follows from
//! Lemma 5.2 with accuracy `(1 ± ξ)` in `O(ξ^{-2})` rounds.
//!
//! A round ([`neighborhood_fingerprints`]) is the engine's two passes:
//! sampling, which meters the query, then the aggregate pass, which
//! meters and estimates every aggregate while it is in cache and keeps
//! only the rows its caller asks for.

use crate::matrix::{FingerprintMatrix, KeptRows};
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
    /// The largest encoded aggregate: the charged response size.
    pub response_bits: u64,
    /// The Lemma 5.2 estimate of each vertex's aggregate.
    pub estimates: Vec<f64>,
    /// The aggregates of the vertices the round's `keep` chose.
    pub kept: KeptRows,
}

/// Aggregates fingerprints over predicate-filtered neighborhoods.
///
/// `pred(v, u)` answers "does neighbor `u` count for `v`'s query?" and must
/// be computable by the link machines (paper: `P_v` known to the machines
/// of `V(v)`). Charges one full aggregation round with the actual
/// compressed sizes (pipelined if the encoding exceeds the budget): the
/// query is a single element's vector, the converge-cast carries partial
/// aggregates. `keep(v, estimate)` says whether the caller reads `v`'s
/// aggregate row after the round; no other row outlives it, so a round
/// that keeps none holds one `n·t` matrix.
pub fn neighborhood_fingerprints(
    net: &mut ClusterNet<'_>,
    t: usize,
    seeds: &SeedStream,
    salt: u64,
    pred: impl Fn(VertexId, VertexId) -> bool + Sync,
    keep: impl Fn(VertexId, f64) -> bool + Sync,
) -> NeighborhoodFingerprints {
    let own = FingerprintMatrix::sample(net, t, seeds, salt);
    let round = own.aggregate(net, pred, keep);
    net.charge_broadcast(own.query_bits());
    net.charge_link_round(own.query_bits());
    net.charge_converge(round.response_bits);
    round
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
    neighborhood_fingerprints(net, t, seeds, salt, pred, |_, _| false).estimates
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
        neighborhood_fingerprints(&mut net, 128, &seeds, 0, |_, _| true, |_, _| false);
        let r = net.meter.report();
        assert!(r.bits > 0);
        assert!(r.h_rounds >= 3);
        // 128-trial fingerprints encode to ~O(t) bits; with a 32·log n
        // budget the round may pipeline but must stay bounded.
        assert!(r.h_rounds < 100, "h_rounds {}", r.h_rounds);
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
