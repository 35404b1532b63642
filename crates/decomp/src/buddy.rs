//! The ξ-buddy predicate (Lemma 5.8).
//!
//! An edge `{u, v}` is ξ-*friendly* when `|N(u) ∩ N(v)| ≥ (1 − ξ)Δ`. The
//! buddy predicate must answer Yes on ξ-friendly edges and No on edges
//! that are not 2ξ-friendly (anything in between may go either way). On
//! cluster graphs, `|N(u) ∩ N(v)|` is a set-intersection instance — so the
//! algorithm instead estimates `|N(u) ∪ N(v)|` by exchanging neighborhood
//! *fingerprints* across one link and using
//! `|N(u) ∩ N(v)| = deg(u) + deg(v) − |N(u) ∪ N(v)|` implicitly through
//! the thresholds of Lemma 5.8.

use cgc_cluster::{ClusterGraph, ClusterNet, VertexId};
use cgc_net::par::{fill_sharded, ShardPlan};
use cgc_net::SeedStream;
use cgc_sketch::{neighborhood_fingerprints, CountingParams, NeighborhoodFingerprints};

/// Parameters for the buddy computation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BuddyParams {
    /// Friendliness slack ξ.
    pub xi: f64,
    /// Fingerprint accuracy knobs (trial count scaling).
    pub counting: CountingParams,
}

impl Default for BuddyParams {
    fn default() -> Self {
        BuddyParams {
            xi: 0.1,
            counting: CountingParams::default(),
        }
    }
}

/// One buddy answer per `H`-edge, stored flat in [`ClusterGraph::h_edges`]
/// order and looked up through [`ClusterGraph::edge_index`].
#[derive(Debug, Clone)]
pub struct BuddyAnswers<'g> {
    g: &'g ClusterGraph,
    answers: Vec<bool>,
}

impl BuddyAnswers<'_> {
    /// Number of answers: one per `H`-edge.
    pub fn len(&self) -> usize {
        self.answers.len()
    }

    /// Whether `H` has no edges.
    pub fn is_empty(&self) -> bool {
        self.answers.is_empty()
    }

    /// The answer on the edge `{u, v}` (either orientation), or `None`
    /// when the pair is not an `H`-edge.
    pub fn get(&self, &(u, v): &(VertexId, VertexId)) -> Option<&bool> {
        self.g.edge_index(u, v).map(|e| &self.answers[e])
    }

    /// `((u, v), answer)` per `H`-edge with `u < v`, in edge order.
    pub fn iter(&self) -> impl Iterator<Item = ((VertexId, VertexId), bool)> + '_ {
        self.g.h_edges().zip(self.answers.iter().copied())
    }
}

/// Computes the buddy answer for every `H`-edge.
///
/// Charges one neighborhood fingerprint round over all neighbors, whose
/// estimates are the degree estimates and whose aggregates are the
/// neighborhoods' fingerprints, and one link exchange of encoded
/// aggregates (Lemma 5.8: `O(ξ^{-2})` rounds total, realized here as
/// pipelined sub-rounds of the same primitives).
pub fn buddy_edges<'g>(
    net: &mut ClusterNet<'g>,
    params: &BuddyParams,
    seeds: &SeedStream,
) -> BuddyAnswers<'g> {
    let delta = net.g.max_degree() as f64;
    let xi_p = params.xi / 3.0; // ξ' = Θ(ξ) as in the lemma's proof

    // Degree estimates d̂(v) ∈ (1 ± ξ'/2) deg(v). Low-degree vertices,
    // d̂(v) < (1 − 1.5ξ')Δ, answer No on all incident edges, so only the
    // other vertices' aggregates are kept.
    let t = params.counting.trials(net.g.n_vertices());
    let min_degree = (1.0 - 1.5 * xi_p) * delta;
    let NeighborhoodFingerprints {
        response_bits,
        kept,
        ..
    } = neighborhood_fingerprints(
        net,
        t,
        &seeds.child(1),
        0,
        |_, _| true,
        |_, d| d >= min_degree,
    );

    // Joint neighborhoods: the two link machines exchange their clusters'
    // aggregated fingerprints and merge. One link round with compressed
    // fingerprints — the aggregates the round's converge-cast carried.
    net.charge_link_round(response_bits);

    // Friendly edges have |N(u) ∪ N(v)| ≤ (1 + 1.5ξ')Δ (proof of
    // Lemma 5.8); larger unions mean small intersections. Only edges with
    // two kept endpoints have a union; the edges shard evenly.
    let max_union = (1.0 + 1.5 * xi_p) * delta;
    let mut answers = vec![false; net.g.n_h_edges()];
    let plan = ShardPlan::even(answers.len(), net.parallel().threads());
    fill_sharded(&mut answers, &plan, |start, slots| {
        let edges = net.g.h_edges_in(start..start + slots.len());
        for (slot, (u, v)) in slots.iter_mut().zip(edges) {
            *slot = kept.union_estimate(u, v).is_some_and(|j| j <= max_union);
        }
    });
    BuddyAnswers { g: net.g, answers }
}

/// Exact friendliness oracle: `|N(u) ∩ N(v)| ≥ (1 − ξ)Δ`.
pub fn friendly_oracle(g: &ClusterGraph, xi: f64) -> BuddyAnswers<'_> {
    let delta = g.max_degree() as f64;
    let answers = g
        .h_edges()
        .map(|(u, v)| crate::sparsity::common_neighbors(g, u, v) as f64 >= (1.0 - xi) * delta)
        .collect();
    BuddyAnswers { g, answers }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgc_cluster::ClusterGraph;
    use cgc_net::CommGraph;

    /// Two 24-cliques joined by a single bridge edge.
    fn two_cliques(k: usize) -> ClusterGraph {
        let mut edges = Vec::new();
        for u in 0..k {
            for v in (u + 1)..k {
                edges.push((u, v));
                edges.push((u + k, v + k));
            }
        }
        edges.push((0, k));
        ClusterGraph::singletons(CommGraph::from_edges(2 * k, &edges).unwrap())
    }

    #[test]
    fn oracle_separates_intra_from_bridge() {
        let g = two_cliques(24);
        let f = friendly_oracle(&g, 0.3);
        assert_eq!(f.get(&(1, 2)), Some(&true), "intra-clique edge is friendly");
        assert_eq!(f.get(&(0, 24)), Some(&false), "bridge edge is not friendly");
    }

    #[test]
    fn fingerprint_buddy_matches_oracle_on_clear_cases() {
        let g = two_cliques(24);
        let mut net = ClusterNet::with_log_budget(&g, 32);
        let seeds = SeedStream::new(500);
        let params = BuddyParams {
            xi: 0.3,
            counting: CountingParams {
                xi: 0.08,
                t_factor: 60.0,
                min_trials: 1024,
            },
        };
        let buddy = buddy_edges(&mut net, &params, &seeds);
        // Clear positives: intra-clique edges share 22 of Δ=24 neighbors.
        let mut intra_yes = 0usize;
        let mut intra = 0usize;
        for ((u, v), b) in buddy.iter() {
            if (u < 24) == (v < 24) && !(u == 0 && v == 24) {
                intra += 1;
                if b {
                    intra_yes += 1;
                }
            }
        }
        assert!(
            intra_yes * 10 >= intra * 9,
            "only {intra_yes}/{intra} intra edges classified buddy"
        );
        // Clear negative: the bridge shares 0 neighbors.
        assert_eq!(
            buddy.get(&(0, 24)),
            Some(&false),
            "bridge misclassified as buddy"
        );
    }

    #[test]
    fn buddy_charges_bounded_rounds() {
        let g = two_cliques(12);
        let mut net = ClusterNet::with_log_budget(&g, 32);
        let seeds = SeedStream::new(501);
        let params = BuddyParams::default();
        buddy_edges(&mut net, &params, &seeds);
        let r = net.meter.report();
        assert!(r.h_rounds > 0);
        assert!(r.h_rounds < 2000, "rounds exploded: {}", r.h_rounds);
    }
}
