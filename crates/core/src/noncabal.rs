//! Coloring non-cabal almost-cliques (§4.2, Algorithm 4).
//!
//! `ColorfulMatching → ColoringOutliers → SynchronizedColorTrial →
//! Complete`. Preconditions (Proposition 4.6): slack generation ran
//! outside cabals, cabals are untouched, reserved colors unused. The
//! stage leaves at most a handful of stragglers (picked up by the
//! driver's fallback, which reports them).

use crate::coloring::Coloring;
use crate::complete::{complete_noncabals, CompleteGroup};
use crate::matching::sampled_colorful_matching;
use crate::palette_query::CliquePalette;
use crate::params::Params;
use crate::sct::{synchronized_color_trial, SctGroup};
use crate::trycolor::try_then_multicolor;
use cgc_cluster::{ClusterNet, VertexId};
use cgc_decomp::{noncabal_inliers, AlmostCliqueDecomp, CabalInfo, DegreeProfile};
use cgc_net::SeedStream;

/// Per-stage counters for the non-cabal pipeline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoncabalReport {
    /// Pairs matched by the colorful matching.
    pub matching_pairs: usize,
    /// Outliers colored.
    pub outliers_colored: usize,
    /// Vertices colored by the synchronized trial.
    pub sct_colored: usize,
    /// Vertices left for the driver's fallback.
    pub leftover: usize,
}

/// Runs Algorithm 4 on every non-cabal clique.
pub fn color_noncabals(
    net: &mut ClusterNet<'_>,
    coloring: &mut Coloring,
    seeds: &SeedStream,
    params: &Params,
    acd: &AlmostCliqueDecomp,
    profile: &DegreeProfile,
    cabal_info: &CabalInfo,
) -> NoncabalReport {
    let n = net.g.n_vertices();
    let q = coloring.q();
    let delta = net.g.max_degree();
    let mut report = NoncabalReport::default();

    let noncabal_ids: Vec<usize> = (0..acd.n_cliques())
        .filter(|&i| !cabal_info.is_cabal[i])
        .collect();
    if noncabal_ids.is_empty() {
        return report;
    }
    let cliques: Vec<Vec<VertexId>> = noncabal_ids
        .iter()
        .map(|&i| acd.cliques[i].clone())
        .collect();

    // ---- Step 1: colorful matching ----
    net.set_phase("noncabal-matching");
    let reserve = params.global_reserve(delta);
    let gained = if params.ablation.matching {
        sampled_colorful_matching(
            net,
            coloring,
            seeds,
            0x4D,
            &cliques,
            reserve,
            params.matching_iters,
        )
    } else {
        vec![0; cliques.len()]
    };
    report.matching_pairs = gained.iter().sum();

    // M_K from palette queries (Lemma 4.8 comparison, §4.2 Step 1).
    let palettes = CliquePalette::build_all(net, coloring, &cliques);
    let m_k: Vec<usize> = palettes.iter().map(|p| p.repeated_colors()).collect();

    // ---- Step 2: outliers ----
    net.set_phase("noncabal-outliers");
    let mut inlier_flag = vec![false; n];
    for ((j, &ci), k) in noncabal_ids.iter().enumerate().zip(&cliques) {
        let inl = noncabal_inliers(profile, k, ci, m_k[j], params.gamma);
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
    let r_of = |ci: usize| cabal_info.reserved[ci].min(q.saturating_sub(1));
    let mut reserved_of = vec![0usize; n];
    for (&ci, k) in noncabal_ids.iter().zip(&cliques) {
        for &v in k {
            reserved_of[v] = r_of(ci);
        }
    }
    report.outliers_colored = try_then_multicolor(
        net,
        coloring,
        (seeds, 0x07),
        (seeds, 0x08),
        &outliers,
        |v| reserved_of[v],
        params,
    );

    // ---- Step 3: synchronized color trial ----
    net.set_phase("noncabal-sct");
    let palettes = CliquePalette::build_all(net, coloring, &cliques);
    let mut groups = Vec::new();
    for ((&ci, k), pal) in noncabal_ids.iter().zip(&cliques).zip(&palettes) {
        let uncolored: Vec<VertexId> = k
            .iter()
            .copied()
            .filter(|&v| !coloring.is_colored(v) && inlier_flag[v])
            .collect();
        let r = r_of(ci);
        // |S_K| = uncolored inliers − r_K, capped by the palette size.
        let take = uncolored
            .len()
            .saturating_sub(r)
            .min(pal.n_free().saturating_sub(r));
        groups.push(SctGroup {
            clique: ci,
            members: uncolored.into_iter().take(take).collect(),
            reserved: r,
        });
    }
    report.sct_colored = if params.ablation.sct {
        synchronized_color_trial(net, coloring, seeds, 0x09, &groups, &palettes)
    } else {
        0
    };

    // ---- Step 4: Complete (§8) ----
    let cgroups: Vec<CompleteGroup> = noncabal_ids
        .iter()
        .zip(&cliques)
        .enumerate()
        .map(|(j, (&ci, k))| CompleteGroup {
            clique: k.clone(),
            reserved: r_of(ci),
            e_avg: profile.e_avg[ci],
            m_k: m_k[j],
        })
        .collect();
    let left = complete_noncabals(net, coloring, seeds, 0x0A, params, &cgroups, &profile.x_v);
    report.leftover = left.len();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgc_cluster::ClusterGraph;
    use cgc_decomp::{acd_oracle, classify_cabals, degree_profile};
    use cgc_graphs::{mixture_spec, realize, Layout, MixtureConfig};

    fn pipeline(seed: u64) -> (ClusterGraph, Coloring, NoncabalReport) {
        let cfg = MixtureConfig {
            n_cliques: 3,
            clique_size: 24,
            anti_edge_prob: 0.03,
            external_per_vertex: 2, // nonzero external degree: non-cabals
            sparse_n: 0,
            sparse_p: 0.0,
        };
        let (spec, _) = mixture_spec(&cfg, seed);
        let g = realize(&spec, Layout::Singleton, 1, seed);
        let acd = acd_oracle(&g, 0.25);
        let mut net = ClusterNet::with_log_budget(&g, 32);
        let seeds = SeedStream::new(seed);
        let mut params = Params::laptop(g.n_vertices());
        params.ell = 1.0; // force everything to be a non-cabal
        let profile = degree_profile(&mut net, &acd, &params.counting, &seeds.child(1));
        let cabal_info = classify_cabals(
            &profile,
            g.max_degree(),
            params.ell,
            params.rho,
            params.reserve_cap_frac,
        );
        let mut coloring = Coloring::new(g.n_vertices(), g.max_degree() + 1);
        let report = color_noncabals(
            &mut net,
            &mut coloring,
            &seeds.child(2),
            &params,
            &acd,
            &profile,
            &cabal_info,
        );
        (g, coloring, report)
    }

    #[test]
    fn colors_dense_vertices_properly() {
        let (g, coloring, report) = pipeline(300);
        assert!(
            coloring.is_proper(&g),
            "conflicts: {:?}",
            coloring.conflicts(&g)
        );
        // Most of the 60 dense vertices must be colored by the stage.
        assert!(
            coloring.n_colored() >= 50,
            "only {} colored (report {report:?})",
            coloring.n_colored()
        );
        assert!(report.leftover <= 10);
    }

    #[test]
    fn stage_counters_are_consistent() {
        let (_, coloring, report) = pipeline(301);
        let total = report.matching_pairs * 2 + report.outliers_colored + report.sct_colored;
        assert!(total <= coloring.n_colored() + report.leftover + 60);
        assert!(report.sct_colored > 0, "SCT colored nothing: {report:?}");
    }

    #[test]
    fn no_cliques_is_noop() {
        let g = ClusterGraph::singletons(cgc_net::CommGraph::path(6));
        let acd = acd_oracle(&g, 0.15);
        let mut net = ClusterNet::with_log_budget(&g, 32);
        let seeds = SeedStream::new(5);
        let params = Params::laptop(6);
        let profile = degree_profile(&mut net, &acd, &params.counting, &seeds);
        let info = classify_cabals(&profile, g.max_degree(), params.ell, params.rho, 0.25);
        let mut coloring = Coloring::new(6, g.max_degree() + 1);
        let report = color_noncabals(
            &mut net,
            &mut coloring,
            &seeds,
            &params,
            &acd,
            &profile,
            &info,
        );
        assert_eq!(report, NoncabalReport::default());
    }
}
