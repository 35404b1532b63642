//! Finishing non-cabals — `Complete` (§8, Algorithm 11).
//!
//! After the synchronized color trial, uncolored inliers have `O(e_K)`
//! uncolored degree and `Ω(e_K)` slack, but the slack may live either in
//! the non-reserved clique palette or in the reserved prefix `[r_K]` — and
//! vertices cannot read their palettes. Following §8, each vertex tracks
//! the *proxy* `z_v` (Equation 14): the number of non-reserved clique-
//! palette colors minus neighbors using non-reserved colors, plus the
//! expected reuse slack. Lemma 8.1: `z_v` lower-bounds the non-reserved
//! palette; Lemma 8.2: when `z_v` is small the *reserved* palette is large.
//! Phase I colors high-`z` vertices from the non-reserved palette by
//! `TryColor`, then `MultiColorTrial` on `[r_v]`; Phase II finishes
//! everyone else on `[r_v]`.
//!
//! Accounting note: `Σ μ^e_v(c)` (external non-reserved usage) is estimated
//! by fingerprints in the paper (Claim 8.3); here the exact value is used
//! with the fingerprint round *charged* — conservative in rounds, and the
//! fingerprint-vs-exact error is measured separately by experiment E4.

use crate::coloring::Coloring;
use crate::mct::{multicolor_trial, ColorInterval};
use crate::palette_query::CliquePalette;
use crate::params::Params;
use crate::trycolor::try_color_round;
use cgc_cluster::{ClusterNet, VertexId};
use cgc_net::SeedStream;
use rand::RngExt;

/// One non-cabal clique's context for the completion stage.
#[derive(Debug, Clone)]
pub struct CompleteGroup {
    /// Clique members (sorted).
    pub clique: Vec<VertexId>,
    /// Reserved prefix `r_K`.
    pub reserved: usize,
    /// Estimated average external degree `ẽ_K`.
    pub e_avg: f64,
    /// Colorful matching size `M_K`.
    pub m_k: usize,
}

/// Computes `z_v` for the uncolored members of a group (Equation 14 with
/// the `40a_K → M_K/2` substitution justified in the module docs).
fn z_values(
    net: &ClusterNet<'_>,
    coloring: &Coloring,
    group: &CompleteGroup,
    params: &Params,
    x_v: &[f64],
) -> Vec<(VertexId, f64)> {
    let q = coloring.q() as f64;
    let r = group.reserved as f64;
    // |{u ∈ K : φ(u) > r}| — one in-clique aggregation.
    let k_nonres = group
        .clique
        .iter()
        .filter(|&&u| matches!(coloring.get(u), Some(c) if c >= group.reserved))
        .count() as f64;
    group
        .clique
        .iter()
        .filter(|&&v| !coloring.is_colored(v))
        .map(|&v| {
            let in_k = |u: VertexId| group.clique.binary_search(&u).is_ok();
            let e_nonres = net
                .g
                .neighbors(v)
                .iter()
                .filter(|&&u| !in_k(u) && matches!(coloring.get(u), Some(c) if c >= group.reserved))
                .count() as f64;
            let z = (q - r) - k_nonres - e_nonres
                + params.gamma * group.e_avg
                + group.m_k as f64 / 2.0
                + x_v[v];
            (v, z)
        })
        .collect()
}

/// Runs Algorithm 11 over all groups; returns vertices still uncolored.
pub fn complete_noncabals(
    net: &mut ClusterNet<'_>,
    coloring: &mut Coloring,
    seeds: &SeedStream,
    salt: u64,
    params: &Params,
    groups: &[CompleteGroup],
    x_v: &[f64],
) -> Vec<VertexId> {
    net.set_phase("complete");
    let n = net.g.n_vertices();
    let q = coloring.q();

    // ---- Phase I: high-z vertices try non-reserved palette colors ----
    let t = 3usize;
    for it in 0..t {
        let palettes = CliquePalette::build_all(
            net,
            coloring,
            &groups.iter().map(|g| g.clique.clone()).collect::<Vec<_>>(),
        );
        CliquePalette::charge_query_batch(net);
        // Charge the Claim 8.3 fingerprint estimation round.
        net.charge_full_rounds(1, 2 * net.id_bits());

        let mut eligible = vec![false; n];
        let mut chosen: Vec<Option<usize>> = vec![None; n];
        for (g, pal) in groups.iter().zip(&palettes) {
            let threshold = 0.25 * params.gamma * g.e_avg;
            for (v, z) in z_values(net, coloring, g, params, x_v) {
                if z >= threshold {
                    eligible[v] = true;
                    // Sample a uniform non-reserved clique-palette color.
                    let span = pal.free_count_in(g.reserved, q);
                    if span > 0 {
                        let mut rng = seeds.rng_for(v as u64, salt ^ 0xC0 ^ ((it as u64) << 8));
                        let idx = rng.random_range(0..span);
                        chosen[v] = pal.nth_free_in(idx, g.reserved, q);
                    }
                }
            }
        }
        try_color_round(
            net,
            coloring,
            seeds,
            salt ^ (it as u64),
            &eligible,
            1.0,
            |v, _| chosen[v],
        );
    }

    // ---- Phase I tail: reserved-color MCT for still-slackless-in-palette
    // vertices; Phase II: everyone remaining on [r_v] ----
    let mut remaining: Vec<VertexId> = groups
        .iter()
        .flat_map(|g| g.clique.iter().copied())
        .filter(|&v| !coloring.is_colored(v))
        .collect();
    if remaining.is_empty() {
        return remaining;
    }
    let mut reserved_of = vec![0usize; n];
    for g in groups {
        for &v in &g.clique {
            reserved_of[v] = g.reserved.min(q);
        }
    }
    remaining = multicolor_trial(
        net,
        coloring,
        seeds,
        salt ^ 0xE0,
        &remaining,
        |v| ColorInterval::new(0, reserved_of[v]),
        params.mct_max_rounds,
    );
    // Phase II safety net inside the stage: full space trials for the few
    // stragglers whose reserved prefix was exhausted by externals.
    for it in 0..params.trycolor_rounds {
        if remaining.is_empty() {
            break;
        }
        let mut eligible = vec![false; n];
        for &v in &remaining {
            eligible[v] = true;
        }
        try_color_round(
            net,
            coloring,
            seeds,
            salt ^ 0xEE ^ (it as u64) << 4,
            &eligible,
            1.0,
            |_, rng| Some(rng.random_range(0..q)),
        );
        remaining.retain(|&v| !coloring.is_colored(v));
    }
    remaining
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgc_cluster::ClusterGraph;
    use cgc_graphs::{mixture_spec, realize, Layout, MixtureConfig};

    /// A single dense block with some external edges; pre-color nothing.
    fn instance() -> (ClusterGraph, Vec<Vec<usize>>) {
        let cfg = MixtureConfig {
            n_cliques: 2,
            clique_size: 20,
            anti_edge_prob: 0.05,
            external_per_vertex: 2,
            sparse_n: 0,
            sparse_p: 0.0,
        };
        let (spec, info) = mixture_spec(&cfg, 21);
        let g = realize(&spec, Layout::Singleton, 1, 21);
        (g, info.cliques)
    }

    #[test]
    fn completes_dense_blocks_properly() {
        let (g, cliques) = instance();
        let mut coloring = Coloring::new(g.n_vertices(), g.max_degree() + 1);
        let mut net = ClusterNet::with_log_budget(&g, 32);
        let seeds = SeedStream::new(100);
        let params = Params::laptop(g.n_vertices());
        let groups: Vec<CompleteGroup> = cliques
            .iter()
            .map(|k| CompleteGroup {
                clique: k.clone(),
                reserved: 3,
                e_avg: 1.5,
                m_k: 0,
            })
            .collect();
        let x_v = vec![0.0; g.n_vertices()];
        let left = complete_noncabals(&mut net, &mut coloring, &seeds, 0, &params, &groups, &x_v);
        assert!(
            coloring.is_proper(&g),
            "conflicts: {:?}",
            coloring.conflicts(&g)
        );
        assert!(left.len() <= 2, "left: {left:?}");
    }

    #[test]
    fn z_values_reflect_palette_consumption() {
        let (g, cliques) = instance();
        let mut coloring = Coloring::new(g.n_vertices(), g.max_degree() + 1);
        let net = ClusterNet::with_log_budget(&g, 32);
        let params = Params::laptop(g.n_vertices());
        let group = CompleteGroup {
            clique: cliques[0].clone(),
            reserved: 3,
            e_avg: 1.5,
            m_k: 0,
        };
        let x_v = vec![0.0; g.n_vertices()];
        let before = z_values(&net, &coloring, &group, &params, &x_v);
        // Color a few members with non-reserved colors: z must drop.
        coloring.set(cliques[0][0], 10);
        coloring.set(cliques[0][1], 11);
        let after = z_values(&net, &coloring, &group, &params, &x_v);
        let f = |zs: &[(usize, f64)], v: usize| zs.iter().find(|&&(u, _)| u == v).map(|&(_, z)| z);
        let v = cliques[0][5];
        assert!(f(&after, v).unwrap() < f(&before, v).unwrap());
    }

    /// Lemma 8.1: `z_v` lower-bounds the non-reserved clique-palette
    /// colors available to `v` — checked against the oracle (with the
    /// expected-slack terms subtracted, which only over-count when the
    /// coloring actually contains that reuse slack).
    #[test]
    fn z_v_lower_bounds_available_nonreserved_palette() {
        let (g, cliques) = instance();
        let mut coloring = Coloring::new(g.n_vertices(), g.max_degree() + 1);
        // Color half of each block with distinct non-reserved colors.
        let reserved = 3usize;
        for k in &cliques {
            let mut next = reserved;
            for &v in &k[..k.len() / 2] {
                while g
                    .neighbors(v)
                    .iter()
                    .any(|&u| coloring.get(u) == Some(next))
                {
                    next += 1;
                }
                coloring.set(v, next);
                next += 1;
            }
        }
        assert!(coloring.is_proper(&g));
        let net = ClusterNet::with_log_budget(&g, 32);
        let params = Params::laptop(g.n_vertices());
        for k in &cliques {
            // Zero out the slack-expectation terms so z_v is the pure
            // Lemma 8.1 counting bound.
            let group = CompleteGroup {
                clique: k.clone(),
                reserved,
                e_avg: 0.0,
                m_k: 0,
            };
            let x_v = vec![0.0; g.n_vertices()];
            for (v, z) in z_values(&net, &coloring, &group, &params, &x_v) {
                // Oracle: |L(v) ∩ L(K) \ [r]|.
                let mut used = vec![false; coloring.q()];
                for &u in g.neighbors(v) {
                    if let Some(c) = coloring.get(u) {
                        used[c] = true;
                    }
                }
                for &u in k {
                    if let Some(c) = coloring.get(u) {
                        used[c] = true;
                    }
                }
                let avail = (reserved..coloring.q()).filter(|&c| !used[c]).count();
                assert!(
                    z <= avail as f64 + 1e-9,
                    "v={v}: z={z} exceeds available {avail}"
                );
            }
        }
    }

    #[test]
    fn empty_groups_are_noop() {
        let (g, _) = instance();
        let mut coloring = Coloring::new(g.n_vertices(), g.max_degree() + 1);
        let mut net = ClusterNet::with_log_budget(&g, 32);
        let seeds = SeedStream::new(101);
        let params = Params::laptop(g.n_vertices());
        let left = complete_noncabals(
            &mut net,
            &mut coloring,
            &seeds,
            0,
            &params,
            &[],
            &vec![0.0; g.n_vertices()],
        );
        assert!(left.is_empty());
        assert_eq!(coloring.n_colored(), 0);
    }
}
