//! The sampling colorful matching (Lemma 4.9, Algorithm 19 lineage).
//!
//! Repeat `O(1/ε)` times: uncolored clique members activate with
//! probability 1/2 and sample a uniform non-reserved color; a color class
//! inside a clique whose members include a non-adjacent pair with no
//! outside conflicts colors that pair. Each pair adds one repeated color —
//! one unit of `M_K`. The algorithm colors a vertex *iff* it provides
//! reuse slack (pairs only), never uses reserved colors, and works when
//! `a_K = Ω(log n)` (cabals with few anti-edges need §6 instead).

use crate::coloring::{Color, Coloring};
use crate::rounds::{candidate_conflict_round, ConflictQueries, TieRule};
use cgc_cluster::{ClusterNet, VertexId};
use cgc_net::SeedStream;
use rand::RngExt;
use std::collections::BTreeMap;

/// Runs the sampled colorful matching inside each listed clique.
///
/// Returns the number of matched pairs (`M_K` increments) per input
/// clique, positionally. Charges one conflict-check aggregation and one
/// intra-clique pairing round per iteration.
pub fn sampled_colorful_matching(
    net: &mut ClusterNet<'_>,
    coloring: &mut Coloring,
    seeds: &SeedStream,
    salt: u64,
    cliques: &[Vec<VertexId>],
    reserve: usize,
    iters: usize,
) -> Vec<usize> {
    let n = net.g.n_vertices();
    let q = coloring.q();
    net.set_phase("colorful-matching");
    let mut gained = vec![0usize; cliques.len()];
    if reserve >= q {
        return gained;
    }
    let mut clique_of: Vec<Option<usize>> = vec![None; n];
    for (i, k) in cliques.iter().enumerate() {
        for &v in k {
            clique_of[v] = Some(i);
        }
    }

    let mut dry_iters = 0usize;
    // Round buffers hoisted across iterations (allocation-free when warm).
    let mut cand: Vec<Option<Color>> = Vec::new();
    let mut queries = ConflictQueries::new();
    let mut blocked: Vec<bool> = Vec::new();
    for it in 0..iters {
        // Early exit: three consecutive iterations with no new pair mean the
        // remaining anti-edges are (nearly) exhausted — the O(1/ε) bound
        // is an upper bound, not a quota.
        if dry_iters >= 3 {
            break;
        }
        let before: usize = gained.iter().sum();
        // Candidates.
        cand.clear();
        cand.resize(n, None);
        for (i, k) in cliques.iter().enumerate() {
            for &v in k {
                if coloring.is_colored(v) {
                    continue;
                }
                let mut rng = seeds.rng_for(v as u64, salt ^ ((it as u64) << 24) ^ i as u64);
                if rng.random::<f64>() < 0.5 {
                    cand[v] = Some(rng.random_range(reserve..q));
                }
            }
        }

        // A candidate is viable iff no neighbor already holds the color
        // and no *adjacent* candidate shares it (same-color adjacent pairs
        // would be improper; non-adjacent same-color pairs are the goal).
        let flags = candidate_conflict_round(
            net,
            net.color_bits() + 2,
            &cand,
            coloring,
            TieRule::BothBlocked,
            &mut queries,
        );
        blocked.clear();
        blocked.extend_from_slice(flags);

        // Pairing inside each clique: one ordered aggregation round.
        net.charge_full_rounds(1, net.color_bits() + net.id_bits());
        for (i, k) in cliques.iter().enumerate() {
            let mut by_color: BTreeMap<Color, Vec<VertexId>> = BTreeMap::new();
            for &v in k {
                if let Some(c) = cand[v] {
                    if !blocked[v] {
                        by_color.entry(c).or_default().push(v);
                    }
                }
            }
            for (c, group) in by_color {
                // Greedy first non-adjacent pair (members sorted by id).
                'outer: for a_idx in 0..group.len() {
                    for b_idx in (a_idx + 1)..group.len() {
                        let (a, b) = (group[a_idx], group[b_idx]);
                        if !net.g.has_edge(a, b) {
                            coloring.set(a, c);
                            coloring.set(b, c);
                            gained[i] += 1;
                            break 'outer;
                        }
                    }
                }
            }
        }
        if gained.iter().sum::<usize>() == before {
            dry_iters += 1;
        } else {
            dry_iters = 0;
        }
    }
    gained
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgc_cluster::ClusterGraph;
    use cgc_graphs::{cabal_spec, realize, Layout};

    use cgc_graphs::{mixture_spec, MixtureConfig};

    /// One block of size 24 with plentiful anti-edges (anti-degree
    /// Ω(log n) — the Lemma 4.9 regime), no external edges.
    fn anti_block() -> (ClusterGraph, Vec<Vec<usize>>) {
        let cfg = MixtureConfig {
            n_cliques: 1,
            clique_size: 24,
            anti_edge_prob: 0.25,
            external_per_vertex: 0,
            sparse_n: 0,
            sparse_p: 0.0,
        };
        let (spec, info) = mixture_spec(&cfg, 77);
        let g = realize(&spec, Layout::Singleton, 1, 1);
        (g, info.cliques)
    }

    #[test]
    fn matched_pairs_are_anti_edges_and_proper() {
        let (g, cliques) = anti_block();
        let mut c = Coloring::new(g.n_vertices(), g.max_degree() + 1);
        let mut net = ClusterNet::with_log_budget(&g, 32);
        let seeds = SeedStream::new(60);
        let m = sampled_colorful_matching(&mut net, &mut c, &seeds, 0, &cliques, 2, 20);
        assert!(c.is_proper(&g), "conflicts: {:?}", c.conflicts(&g));
        assert!(m[0] >= 1, "no pair found in 20 iterations");
        // Every colored vertex shares its color with exactly one other.
        let mut by_color: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for v in 0..g.n_vertices() {
            if let Some(col) = c.get(v) {
                by_color.entry(col).or_default().push(v);
            }
        }
        for (col, vs) in by_color {
            assert_eq!(vs.len(), 2, "color {col} used by {vs:?}");
            assert!(!g.has_edge(vs[0], vs[1]), "pair {vs:?} adjacent");
        }
    }

    #[test]
    fn reserved_colors_avoided() {
        let (g, cliques) = anti_block();
        let mut c = Coloring::new(g.n_vertices(), g.max_degree() + 1);
        let mut net = ClusterNet::with_log_budget(&g, 32);
        let seeds = SeedStream::new(61);
        let reserve = 5;
        sampled_colorful_matching(&mut net, &mut c, &seeds, 0, &cliques, reserve, 20);
        for v in 0..g.n_vertices() {
            if let Some(col) = c.get(v) {
                assert!(col >= reserve);
            }
        }
    }

    #[test]
    fn perfect_clique_finds_nothing() {
        // No anti-edges at all: M_K must stay 0.
        let (spec, info) = cabal_spec(1, 12, 0, 0, 3);
        let g = realize(&spec, Layout::Singleton, 1, 2);
        let mut c = Coloring::new(g.n_vertices(), g.max_degree() + 1);
        let mut net = ClusterNet::with_log_budget(&g, 32);
        let seeds = SeedStream::new(62);
        let m = sampled_colorful_matching(&mut net, &mut c, &seeds, 0, &info.cliques, 0, 15);
        assert_eq!(m[0], 0);
        assert_eq!(c.n_colored(), 0);
    }

    #[test]
    fn matching_size_grows_with_anti_degree() {
        // Higher anti-edge density -> more matched pairs (Lemma 4.9 is
        // only effective at anti-degree Ω(log n); the low regime belongs
        // to the §6 fingerprint matching).
        let runs = |anti_p: f64| -> usize {
            let cfg = MixtureConfig {
                n_cliques: 1,
                clique_size: 30,
                anti_edge_prob: anti_p,
                external_per_vertex: 0,
                sparse_n: 0,
                sparse_p: 0.0,
            };
            let (spec, info) = mixture_spec(&cfg, 99);
            let g = realize(&spec, Layout::Singleton, 1, 4);
            let mut c = Coloring::new(g.n_vertices(), g.max_degree() + 1);
            let mut net = ClusterNet::with_log_budget(&g, 32);
            let seeds = SeedStream::new(63);
            sampled_colorful_matching(&mut net, &mut c, &seeds, 0, &info.cliques, 2, 25)[0]
        };
        let small = runs(0.05);
        let large = runs(0.35);
        assert!(large >= small, "pairs: small {small}, large {large}");
        assert!(large >= 2, "large instance matched only {large}");
    }
}
