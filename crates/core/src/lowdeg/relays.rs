//! Relay selection for anti-edges in the low-degree regime (Lemma 9.2).
//!
//! When `Δ = O(log² n)` the random groups of Lemma 4.4 are too small to
//! relay between the endpoints of each discovered anti-edge, so each
//! anti-edge gets a *dedicated relay*: a vertex adjacent to both
//! endpoints. Lemma 9.2 samples candidates with probability `3k/Δ` and
//! computes a maximal matching on the bipartite anti-edge/candidate
//! graph; maximality guarantees every anti-edge is matched because each
//! has ≥ k candidate neighbors while only ≤ k anti-edges compete.
//!
//! Substitution (README, "Substitutions"): the paper runs Fischer's
//! deterministic CONGEST maximal-matching; only *maximality* is used, so
//! a synchronous proposal/acceptance greedy (charged per round) stands
//! in, affecting polylog factors, not correctness.

use cgc_cluster::{ClusterNet, VertexId};
use cgc_net::SeedStream;
use rand::RngExt;

/// Selects one distinct relay per anti-edge of `anti_edges` (all inside
/// the almost-clique `clique`), or `None` when `max_retries` sampling
/// rounds cannot match every anti-edge.
///
/// Charges: one sampling broadcast plus one full round per
/// proposal/acceptance step of the greedy matching.
pub fn select_relays(
    net: &mut ClusterNet<'_>,
    seeds: &SeedStream,
    salt: u64,
    clique: &[VertexId],
    anti_edges: &[(VertexId, VertexId)],
    max_retries: usize,
) -> Option<Vec<VertexId>> {
    if anti_edges.is_empty() {
        return Some(Vec::new());
    }
    let k = anti_edges.len();
    let delta = net.g.max_degree().max(1);

    for attempt in 0..max_retries.max(1) {
        // Sampling probability 3k/Δ, boosted on retries.
        let p = ((3 * k * (attempt + 1)) as f64 / delta as f64).min(1.0);
        net.charge_broadcast(net.id_bits());
        let mut sampled: Vec<VertexId> = Vec::new();
        for &v in clique {
            // Endpoints cannot relay for themselves.
            if anti_edges.iter().any(|&(a, b)| a == v || b == v) {
                continue;
            }
            let mut rng = seeds.rng_for(v as u64, salt ^ ((attempt as u64) << 16));
            if rng.random::<f64>() < p {
                sampled.push(v);
            }
        }

        // Candidate lists: sampled vertices adjacent to both endpoints.
        let cands: Vec<Vec<VertexId>> = anti_edges
            .iter()
            .map(|&(a, b)| {
                sampled
                    .iter()
                    .copied()
                    .filter(|&w| net.g.has_edge(w, a) && net.g.has_edge(w, b))
                    .collect()
            })
            .collect();

        // Synchronous greedy maximal matching: each unmatched anti-edge
        // proposes to its smallest unmatched candidate; a candidate
        // accepts its smallest proposer. One charged round per step.
        let mut relay: Vec<Option<VertexId>> = vec![None; k];
        let mut taken: Vec<bool> = vec![false; net.g.n_vertices()];
        loop {
            net.charge_full_rounds(1, 2 * net.id_bits());
            let mut proposals: Vec<(VertexId, usize)> = Vec::new();
            for (i, r) in relay.iter().enumerate() {
                if r.is_some() {
                    continue;
                }
                if let Some(&w) = cands[i].iter().find(|&&w| !taken[w]) {
                    proposals.push((w, i));
                }
            }
            if proposals.is_empty() {
                break;
            }
            proposals.sort_unstable();
            let mut last: Option<VertexId> = None;
            for (w, i) in proposals {
                if last == Some(w) {
                    continue; // only the smallest proposer wins w
                }
                last = Some(w);
                taken[w] = true;
                relay[i] = Some(w);
            }
        }

        if relay.iter().all(Option::is_some) {
            return Some(relay.into_iter().map(|r| r.expect("checked")).collect());
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgc_graphs::{cabal_spec, realize, Layout};

    fn setup(
        k: usize,
        pairs: usize,
    ) -> (cgc_cluster::ClusterGraph, Vec<usize>, Vec<(usize, usize)>) {
        let (spec, info) = cabal_spec(1, k, pairs, 0, 5);
        let g = realize(&spec, Layout::Singleton, 1, 5);
        let clique = info.cliques[0].clone();
        // Planted anti-pairs are (0,1), (2,3), ...
        let anti: Vec<(usize, usize)> = (0..pairs).map(|j| (2 * j, 2 * j + 1)).collect();
        (g, clique, anti)
    }

    #[test]
    fn relays_are_distinct_and_adjacent_to_both_endpoints() {
        let (g, clique, anti) = setup(30, 4);
        let mut net = ClusterNet::with_log_budget(&g, 32);
        let relays = select_relays(&mut net, &SeedStream::new(1), 0, &clique, &anti, 6)
            .expect("relays must exist in a dense cabal");
        assert_eq!(relays.len(), 4);
        let mut seen = std::collections::HashSet::new();
        for (&w, &(a, b)) in relays.iter().zip(&anti) {
            assert!(seen.insert(w), "relay {w} reused");
            assert!(g.has_edge(w, a) && g.has_edge(w, b));
            assert!(w != a && w != b);
        }
    }

    #[test]
    fn empty_anti_edges_is_trivial() {
        let (g, clique, _) = setup(12, 0);
        let mut net = ClusterNet::with_log_budget(&g, 32);
        let relays = select_relays(&mut net, &SeedStream::new(2), 0, &clique, &[], 2).unwrap();
        assert!(relays.is_empty());
    }

    #[test]
    fn retries_boost_sampling_until_success() {
        // Many anti-edges relative to the clique: first attempts may
        // under-sample, retries must still succeed.
        let (g, clique, anti) = setup(40, 10);
        let mut net = ClusterNet::with_log_budget(&g, 32);
        let relays = select_relays(&mut net, &SeedStream::new(3), 0, &clique, &anti, 8)
            .expect("retry escalation should find relays");
        assert_eq!(relays.len(), 10);
    }

    #[test]
    fn impossible_instance_returns_none() {
        // A 4-cycle: the anti-edge (0,2) has candidates {1,3}; the
        // anti-edge (1,3) has {0,2} — but endpoints can't relay for
        // themselves AND each candidate of (0,2) is an endpoint of (1,3).
        let comm = cgc_net::CommGraph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        let g = cgc_cluster::ClusterGraph::singletons(comm);
        let mut net = ClusterNet::with_log_budget(&g, 32);
        let anti = vec![(0, 2), (1, 3)];
        let r = select_relays(&mut net, &SeedStream::new(4), 0, &[0, 1, 2, 3], &anti, 3);
        assert!(r.is_none());
    }
}
