//! The synchronized color trial (Lemma 4.13, §4.2).
//!
//! Inside each almost-clique, the leader samples a permutation `π` of its
//! participating uncolored set `S_K`, and the `i`-th vertex of `S_K` tries
//! the `π(i)`-th color of the clique palette beyond the reserved prefix.
//! Within the clique, tried colors are distinct by construction; only
//! *external* conflicts (or cross-clique simultaneous tries) can fail a
//! vertex. W.h.p. at most `(24/α) max(e_K, ℓ)` members stay uncolored.
//!
//! Substitution note (README, "Substitutions"): the paper samples from a
//! pseudorandom permutation family (Lemma D.8) because a truly uniform
//! permutation is hard to *sample* in the model; the leader here samples
//! a uniform permutation and the `O(1)`-round index distribution is
//! charged — the paper notes this only affects the success probability
//! by a constant.

use crate::coloring::Coloring;
use crate::palette_query::CliquePalette;
use crate::rounds::{candidate_conflict_round, commit_unblocked, ConflictQueries, TieRule};
use cgc_cluster::{ClusterNet, VertexId};
use cgc_net::SeedStream;
use rand::RngExt;

/// One clique's participation in the synchronized trial.
#[derive(Debug, Clone)]
pub struct SctGroup {
    /// The clique's index (used as a salt).
    pub clique: usize,
    /// Participating uncolored vertices `S_K`.
    pub members: Vec<VertexId>,
    /// Reserved prefix `r_K` — tried colors come from `L(K) \ [r_K]`.
    pub reserved: usize,
}

/// Runs the synchronized color trial in all groups simultaneously.
///
/// `palettes[i]` must be the clique palette of `groups[i]` under the
/// current coloring. Returns the number of newly colored vertices.
///
/// # Panics
///
/// Panics if `palettes.len() != groups.len()`.
pub fn synchronized_color_trial(
    net: &mut ClusterNet<'_>,
    coloring: &mut Coloring,
    seeds: &SeedStream,
    salt: u64,
    groups: &[SctGroup],
    palettes: &[CliquePalette],
) -> usize {
    assert_eq!(groups.len(), palettes.len(), "palette per group");
    let n = net.g.n_vertices();
    net.set_phase("sct");

    // Leader samples π and each member learns its assigned color: one
    // permutation broadcast (O(1) rounds by tree-indexed distribution,
    // Lemma D.8 substitution) plus one palette query batch.
    net.charge_full_rounds(2, net.id_bits() + net.color_bits());
    CliquePalette::charge_query_batch(net);

    let mut cand: Vec<Option<usize>> = vec![None; n];
    for (g, pal) in groups.iter().zip(palettes) {
        let m = g.members.len();
        if m == 0 {
            continue;
        }
        // Uniform permutation of [m].
        let mut rng = seeds.rng_for(g.clique as u64, salt ^ 0x5C7);
        let mut perm: Vec<usize> = (0..m).collect();
        for j in (1..m).rev() {
            let k = rng.random_range(0..=j);
            perm.swap(j, k);
        }
        let q = coloring.q();
        for (i, &v) in g.members.iter().enumerate() {
            if coloring.is_colored(v) {
                continue;
            }
            cand[v] = pal.nth_free_in(perm[i], g.reserved, q);
        }
    }

    // Conflict round: colored neighbors or smaller-id simultaneous tries
    // (cross-clique; intra-clique candidates are distinct).
    let mut queries = ConflictQueries::new();
    let blocked = candidate_conflict_round(
        net,
        net.color_bits() + 2,
        &cand,
        coloring,
        TieRule::SmallerIdWins,
        &mut queries,
    );
    commit_unblocked(coloring, &cand, blocked)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgc_cluster::ClusterGraph;
    use cgc_net::CommGraph;

    fn clique(n: usize) -> ClusterGraph {
        ClusterGraph::singletons(CommGraph::complete(n))
    }

    #[test]
    fn isolated_clique_colors_everyone() {
        // No external edges: every member succeeds in one shot.
        let g = clique(16);
        let mut c = Coloring::new(16, 16);
        let mut net = ClusterNet::with_log_budget(&g, 32);
        let seeds = SeedStream::new(50);
        let pal = CliquePalette::build(&mut net, &c, &(0..16).collect::<Vec<_>>());
        let group = SctGroup {
            clique: 0,
            members: (0..16).collect(),
            reserved: 0,
        };
        let colored = synchronized_color_trial(&mut net, &mut c, &seeds, 0, &[group], &[pal]);
        assert_eq!(colored, 16);
        assert!(c.is_proper(&g));
        assert!(c.is_total());
    }

    #[test]
    fn reserved_prefix_untouched() {
        let g = clique(10);
        let mut c = Coloring::new(10, 14);
        let mut net = ClusterNet::with_log_budget(&g, 32);
        let seeds = SeedStream::new(51);
        let pal = CliquePalette::build(&mut net, &c, &(0..10).collect::<Vec<_>>());
        let group = SctGroup {
            clique: 0,
            members: (0..10).collect(),
            reserved: 4,
        };
        synchronized_color_trial(&mut net, &mut c, &seeds, 0, &[group], &[pal]);
        for v in 0..10 {
            if let Some(col) = c.get(v) {
                assert!(col >= 4, "vertex {v} used reserved color {col}");
            }
        }
    }

    #[test]
    fn respects_already_used_clique_colors() {
        let g = clique(8);
        let mut c = Coloring::new(8, 8);
        c.set(0, 3);
        c.set(1, 5);
        let mut net = ClusterNet::with_log_budget(&g, 32);
        let seeds = SeedStream::new(52);
        let pal = CliquePalette::build(&mut net, &c, &(0..8).collect::<Vec<_>>());
        let group = SctGroup {
            clique: 0,
            members: (2..8).collect(),
            reserved: 0,
        };
        let colored = synchronized_color_trial(&mut net, &mut c, &seeds, 0, &[group], &[pal]);
        assert_eq!(colored, 6);
        assert!(c.is_proper(&g));
        assert!(c.is_total());
    }

    #[test]
    fn cross_clique_conflicts_resolved_by_id() {
        // Two 6-cliques joined by a perfect matching: simultaneous tries
        // of the same color across the bridge must not both survive.
        let mut edges = Vec::new();
        for u in 0..6 {
            for v in (u + 1)..6 {
                edges.push((u, v));
                edges.push((u + 6, v + 6));
            }
        }
        for j in 0..6 {
            edges.push((j, j + 6));
        }
        let g = ClusterGraph::singletons(CommGraph::from_edges(12, &edges).unwrap());
        let mut c = Coloring::new(12, g.max_degree() + 1);
        let mut net = ClusterNet::with_log_budget(&g, 32);
        let seeds = SeedStream::new(53);
        let pals = CliquePalette::build_all(
            &mut net,
            &c,
            &[(0..6).collect::<Vec<_>>(), (6..12).collect::<Vec<_>>()],
        );
        let groups = vec![
            SctGroup {
                clique: 0,
                members: (0..6).collect(),
                reserved: 0,
            },
            SctGroup {
                clique: 1,
                members: (6..12).collect(),
                reserved: 0,
            },
        ];
        synchronized_color_trial(&mut net, &mut c, &seeds, 0, &groups, &pals);
        assert!(c.is_proper(&g), "conflicts: {:?}", c.conflicts(&g));
        // Lemma 4.13 shape: most of each clique is colored.
        assert!(c.n_colored() >= 8, "only {} colored", c.n_colored());
    }
}
