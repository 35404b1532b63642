//! Coloring cabals (§4.3, Algorithm 5).
//!
//! `ColorfulMatching (sampling, then §6 fingerprints if too small) →
//! ColoringOutliers → ComputePutAside → SynchronizedColorTrial →
//! MultiColorTrial on reserved colors → ColorPutAsideSets`. Cabals are the
//! densest almost-cliques (`ẽ_K < ℓ`): slack generation skipped them, so
//! their slack comes entirely from the colorful matching and the
//! temporary slack of put-aside sets.

use crate::coloring::Coloring;
use crate::matching::{color_anti_matching, fingerprint_matching_all, sampled_colorful_matching};
use crate::mct::{multicolor_trial, ColorInterval};
use crate::palette_query::CliquePalette;
use crate::params::Params;
use crate::putaside::{color_putaside_sets, compute_putaside_sets, CabalCtx, DonationOutcome};
use crate::sct::{synchronized_color_trial, SctGroup};
use crate::trycolor::{first_fit_finish, try_color_rounds, try_then_multicolor};
use cgc_cluster::{ClusterNet, VertexId};
use cgc_decomp::{cabal_inliers, AlmostCliqueDecomp, CabalInfo, DegreeProfile};
use cgc_net::SeedStream;
use rand::RngExt;

/// Per-stage counters for the cabal pipeline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CabalReport {
    /// Pairs from the sampling matching.
    pub sampled_pairs: usize,
    /// Cabals that escalated to the fingerprint matching.
    pub fp_escalations: usize,
    /// Pairs from the fingerprint matching.
    pub fp_pairs: usize,
    /// Outliers colored.
    pub outliers_colored: usize,
    /// Whether put-aside sets were successfully computed.
    pub putaside_ok: bool,
    /// SCT-colored vertices.
    pub sct_colored: usize,
    /// Put-aside coloring outcome.
    pub donation: DonationOutcome,
    /// Vertices left to the driver's fallback.
    pub leftover: usize,
}

/// Runs Algorithm 5 on every cabal.
pub fn color_cabals(
    net: &mut ClusterNet<'_>,
    coloring: &mut Coloring,
    seeds: &SeedStream,
    params: &Params,
    acd: &AlmostCliqueDecomp,
    profile: &DegreeProfile,
    cabal_info: &CabalInfo,
) -> CabalReport {
    let n = net.g.n_vertices();
    let q = coloring.q();
    let delta = net.g.max_degree();
    let mut report = CabalReport::default();

    let cabal_ids: Vec<usize> = (0..acd.n_cliques())
        .filter(|&i| cabal_info.is_cabal[i])
        .collect();
    if cabal_ids.is_empty() {
        report.putaside_ok = true;
        return report;
    }
    let cliques: Vec<Vec<VertexId>> = cabal_ids.iter().map(|&i| acd.cliques[i].clone()).collect();
    let reserve = params.global_reserve(delta);
    // All cabals share the reserved prefix r = ρ·ℓ (Equation 2 with
    // ẽ_K ≤ ℓ), capped against Δ.
    let r = params.cabal_putaside_size(delta).min(q.saturating_sub(1));

    // ---- Step 1: colorful matching, escalating to fingerprints ----
    net.set_phase("cabal-matching");
    let gained = if params.ablation.matching {
        sampled_colorful_matching(
            net,
            coloring,
            seeds,
            0x5A,
            &cliques,
            reserve,
            params.matching_iters,
        )
    } else {
        vec![0; cliques.len()]
    };
    report.sampled_pairs = gained.iter().sum();
    // Escalate cabals whose matching stayed below the â_K proxy: compare
    // M_K against the planted need via the palette (vertices compare M_K
    // with Θ(log n); at laptop scale the threshold is a small constant).
    // Escalated cabals run the §6 fingerprint matching in parallel —
    // they are vertex-disjoint, so one set of round charges covers all.
    let escalate_threshold = 1usize.max((params.ell / 4.0) as usize);
    let palettes = CliquePalette::build_all(net, coloring, &cliques);
    let mut escalated: Vec<usize> = Vec::new();
    for (j, (k, pal)) in cliques.iter().zip(&palettes).enumerate() {
        let m_k = pal.repeated_colors();
        let a_max = k.iter().map(|&v| profile.a_exact[v]).max().unwrap_or(0);
        if m_k >= a_max || m_k >= escalate_threshold || a_max == 0 {
            continue;
        }
        escalated.push(j);
        // Cancel this cabal's matching colors (§4.3 Step 1).
        for &v in k {
            if coloring.is_colored(v) {
                coloring.clear(v);
            }
        }
    }
    if !params.ablation.matching {
        escalated.clear();
    }
    if !escalated.is_empty() {
        report.fp_escalations = escalated.len();
        net.charge_full_rounds(1, net.color_bits()); // the cancellation round
        let esc_cliques: Vec<Vec<VertexId>> =
            escalated.iter().map(|&j| cliques[j].clone()).collect();
        let pair_lists =
            fingerprint_matching_all(net, seeds, 0x6B, &esc_cliques, params.fp_matching_trials);
        let all_pairs: Vec<(VertexId, VertexId)> = pair_lists.into_iter().flatten().collect();
        report.fp_pairs = all_pairs.len();
        let left = color_anti_matching(net, coloring, seeds, 0x6C, &all_pairs, reserve, 20);
        debug_assert!(left.is_empty() || !all_pairs.is_empty());
    }

    // ---- Step 2: outliers ----
    net.set_phase("cabal-outliers");
    let mut inlier_flag = vec![false; n];
    for (&ci, k) in cabal_ids.iter().zip(&cliques) {
        let inl = cabal_inliers(profile, k, ci);
        for (&v, &is_in) in k.iter().zip(&inl) {
            inlier_flag[v] = is_in;
        }
    }
    let mut outliers = vec![false; n];
    for k in &cliques {
        for &v in k {
            if !inlier_flag[v] && !coloring.is_colored(v) {
                outliers[v] = true;
            }
        }
    }
    report.outliers_colored = try_then_multicolor(
        net,
        coloring,
        (seeds, 0x70),
        (seeds, 0x71),
        &outliers,
        |_| r,
        params,
    );

    // ---- Step 3: put-aside sets ----
    let pools: Vec<Vec<VertexId>> = cliques
        .iter()
        .map(|k| {
            k.iter()
                .copied()
                .filter(|&v| inlier_flag[v] && !coloring.is_colored(v))
                .collect()
        })
        .collect();
    // Target r per cabal, shrunk so candidates stay a small fraction of
    // the pool — the paper's sampling regime (3r ≪ |K|), without which
    // cross-cabal candidate conflicts kill every attempt.
    let targets: Vec<usize> = pools
        .iter()
        .map(|p| r.min(p.len() / 6).max(1).min(p.len()))
        .collect();
    let putaside = if params.ablation.putaside {
        compute_putaside_sets(
            net,
            coloring,
            seeds,
            0x72,
            &pools,
            &targets,
            params.max_retries,
        )
    } else {
        None
    };
    report.putaside_ok = putaside.is_some() || !params.ablation.putaside;
    let putaside = putaside.unwrap_or_else(|| vec![Vec::new(); cliques.len()]);
    let mut in_putaside = vec![false; n];
    for p in &putaside {
        for &v in p {
            in_putaside[v] = true;
        }
    }

    // ---- Step 4: synchronized color trial (S_K = uncolored inliers \ P_K) ----
    net.set_phase("cabal-sct");
    let palettes = CliquePalette::build_all(net, coloring, &cliques);
    let mut groups = Vec::new();
    for ((&ci, k), pal) in cabal_ids.iter().zip(&cliques).zip(&palettes) {
        let s_k: Vec<VertexId> = k
            .iter()
            .copied()
            .filter(|&v| inlier_flag[v] && !coloring.is_colored(v) && !in_putaside[v])
            .collect();
        let take = s_k.len().min(pal.n_free().saturating_sub(r));
        groups.push(SctGroup {
            clique: ci,
            members: s_k.into_iter().take(take).collect(),
            reserved: r,
        });
    }
    report.sct_colored = if params.ablation.sct {
        synchronized_color_trial(net, coloring, seeds, 0x73, &groups, &palettes)
    } else {
        0
    };

    // ---- Step 5: MCT with reserved colors on the rest (not put-aside) ----
    net.set_phase("cabal-mct");
    let rest: Vec<VertexId> = cliques
        .iter()
        .flat_map(|k| k.iter().copied())
        .filter(|&v| !coloring.is_colored(v) && !in_putaside[v])
        .collect();
    let left = multicolor_trial(
        net,
        coloring,
        seeds,
        0x74,
        &rest,
        |_| ColorInterval::new(0, r),
        params.mct_max_rounds,
    );
    // Stragglers get full-space trials before put-aside coloring so that
    // only P_K remains (Proposition 4.19's precondition).
    let mut elig = vec![false; n];
    for &v in &left {
        elig[v] = true;
    }
    try_color_rounds(
        net,
        coloring,
        seeds,
        0x75,
        &elig,
        1.0,
        params.trycolor_rounds,
        move |_, rng| Some(rng.random_range(0..q)),
    );
    // Sequential charged finish for non-put-aside stragglers.
    report.leftover = first_fit_finish(net, coloring, left);

    // ---- Step 6: color put-aside sets (§7) ----
    let ctxs: Vec<CabalCtx> = cliques
        .iter()
        .zip(&putaside)
        .map(|(k, p)| CabalCtx {
            clique: k.clone(),
            putaside: p.clone(),
        })
        .collect();
    report.donation = color_putaside_sets(net, coloring, seeds, 0x76, params, &ctxs);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgc_cluster::ClusterGraph;
    use cgc_decomp::{acd_oracle, classify_cabals, degree_profile};
    use cgc_graphs::{cabal_spec, realize, Layout};

    fn pipeline(
        c: usize,
        k: usize,
        anti: usize,
        ext: usize,
        seed: u64,
    ) -> (ClusterGraph, Coloring, CabalReport) {
        let (spec, _) = cabal_spec(c, k, anti, ext, seed);
        let g = realize(&spec, Layout::Singleton, 1, seed);
        let acd = acd_oracle(&g, 0.25);
        assert_eq!(acd.n_cliques(), c, "oracle must find the planted cabals");
        let mut net = ClusterNet::with_log_budget(&g, 32);
        let seeds = SeedStream::new(seed);
        let mut params = Params::laptop(g.n_vertices());
        params.ell = 1e9; // force everything to be a cabal
        let profile = degree_profile(&mut net, &acd, &params.counting, &seeds.child(1));
        let info = classify_cabals(&profile, g.max_degree(), params.ell, params.rho, 0.25);
        let mut coloring = Coloring::new(g.n_vertices(), g.max_degree() + 1);
        let report = color_cabals(
            &mut net,
            &mut coloring,
            &seeds.child(2),
            &params,
            &acd,
            &profile,
            &info,
        );
        (g, coloring, report)
    }

    #[test]
    fn colors_cabals_with_anti_edges_totally() {
        let (g, coloring, report) = pipeline(2, 20, 4, 4, 400);
        assert!(
            coloring.is_proper(&g),
            "conflicts: {:?}",
            coloring.conflicts(&g)
        );
        assert!(
            coloring.is_total(),
            "uncolored: {:?} ({report:?})",
            coloring.uncolored()
        );
    }

    #[test]
    fn tight_cabal_without_anti_edges() {
        // Perfect cliques of size k: Δ = k−1+ext ≥ k−1; Δ+1 ≥ k colors, so
        // no matching needed and put-aside machinery still works.
        let (g, coloring, report) = pipeline(2, 16, 0, 2, 401);
        assert!(coloring.is_proper(&g));
        assert!(
            coloring.is_total(),
            "uncolored: {:?} ({report:?})",
            coloring.uncolored()
        );
    }

    #[test]
    fn putaside_sets_exist_on_independent_cabals() {
        let (_, _, report) = pipeline(3, 18, 2, 3, 402);
        assert!(report.putaside_ok, "{report:?}");
        let d = report.donation;
        assert!(d.free_colored + d.donated + d.fallback > 0, "{report:?}");
    }

    #[test]
    fn empty_cabal_list_is_noop() {
        let g = ClusterGraph::singletons(cgc_net::CommGraph::path(5));
        let acd = acd_oracle(&g, 0.15);
        let mut net = ClusterNet::with_log_budget(&g, 32);
        let seeds = SeedStream::new(3);
        let params = Params::laptop(5);
        let profile = degree_profile(&mut net, &acd, &params.counting, &seeds);
        let info = classify_cabals(&profile, g.max_degree(), params.ell, params.rho, 0.25);
        let mut coloring = Coloring::new(5, g.max_degree() + 1);
        let report = color_cabals(
            &mut net,
            &mut coloring,
            &seeds,
            &params,
            &acd,
            &profile,
            &info,
        );
        assert!(report.putaside_ok);
        assert_eq!(report.sct_colored, 0);
    }
}
