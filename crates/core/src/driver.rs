//! The top-level coloring algorithm (Algorithms 2–3, Theorems 1.1–1.2).
//!
//! * `Δ ≤ Δ_low` → the §9 low-degree path (shatter + finish);
//! * otherwise → `ComputeACD → SlackGeneration (V \ V_cabal) →
//!   ColoringSparse → ColoringNonCabals → ColoringCabals`.
//!
//! The sparse step is [`try_then_multicolor`] over the full space. Every
//! stage validates its postcondition against the oracle and the driver
//! ends with a *guaranteed-terminating* fallback: exact-palette trials
//! ([`palette_trial_rounds`], one charged aggregation round per step;
//! the minimum-id uncolored vertex always succeeds, so at most `n` extra
//! rounds). Fallback work is reported separately in [`RunStats`] — at
//! sane parameters it is (nearly) zero, and experiments display it so
//! scaled-down constants cannot silently cheat.

use crate::cabals::{color_cabals, CabalReport};
use crate::coloring::Coloring;
use crate::lowdeg::{color_low_degree, LowDegReport};
use crate::noncabal::{color_noncabals, NoncabalReport};
use crate::params::Params;
use crate::slackgen::slack_generation;
use crate::trycolor::{palette_trial_rounds, try_then_multicolor};
use crate::validate::coloring_stats;
use cgc_cluster::ClusterNet;
use cgc_decomp::{acd_oracle, classify_cabals, compute_acd, degree_profile};
use cgc_net::{CostReport, SeedStream};

/// Which algorithmic path the driver took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlgoPath {
    /// Theorem 1.2 pipeline (`Δ > Δ_low`).
    HighDegree,
    /// Theorem 1.1 pipeline (§9).
    LowDegree,
}

/// Per-run statistics.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// Which path ran.
    pub path: AlgoPath,
    /// Number of conflict-graph vertices.
    pub n_vertices: usize,
    /// Maximum degree Δ.
    pub delta: usize,
    /// Cluster dilation `d`.
    pub dilation: usize,
    /// Almost-cliques found (high-degree path).
    pub n_cliques: usize,
    /// Of which cabals.
    pub n_cabals: usize,
    /// Sparse vertices.
    pub n_sparse: usize,
    /// Vertices colored by slack generation.
    pub slackgen_colored: usize,
    /// Sparse vertices colored by TryColor+MCT.
    pub sparse_colored: usize,
    /// Non-cabal stage report.
    pub noncabal: NoncabalReport,
    /// Cabal stage report.
    pub cabal: CabalReport,
    /// Low-degree stage report (low path only).
    pub lowdeg: Option<LowDegReport>,
    /// Vertices colored by the driver's terminal fallback.
    pub fallback_colored: usize,
    /// Rounds consumed by the terminal fallback.
    pub fallback_rounds: u64,
    /// Whether the oracle ACD was used (experiments at large `n`).
    pub oracle_acd: bool,
}

/// The outcome of a full coloring run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The final coloring (total and proper on success).
    pub coloring: Coloring,
    /// The cost meter snapshot.
    pub report: CostReport,
    /// Stage statistics.
    pub stats: RunStats,
}

/// Options modifying the driver (kept out of [`Params`] so the algorithm
/// constants stay paper-comparable).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DriverOptions {
    /// Use the exact-oracle ACD (charged nominally) instead of the
    /// fingerprint ACD — for large-`n` experiments; E10 quantifies the
    /// fingerprint ACD separately.
    pub oracle_acd: bool,
}

/// Colors the cluster graph bound to `net` with `Δ+1` colors.
///
/// The returned coloring is always total and proper (the terminal
/// fallback guarantees it); round/bit costs are in `net.meter` and echoed
/// in the result.
///
/// The run shards over `net`'s executor (see
/// [`ClusterNet::with_parallel`]): `threads > 1` makes every phase
/// dispatch its rounds on the process's worker pool
/// ([`cgc_cluster::WorkerPool`]). Purely a wall-clock knob: colorings
/// and `CostMeter` totals are bit-identical at any thread count.
/// [`crate::Session::run`] goes through here; this entry stays public for
/// callers that hold a custom-built [`ClusterNet`] (virtual overlays, the
/// Session-equivalence differential test). Generator-backed runs should
/// prefer [`crate::Session`], which owns the instance, caches its build
/// across runs, and bundles thread/timing context with the result.
pub fn color_cluster_graph_with(
    net: &mut ClusterNet<'_>,
    params: &Params,
    seed: u64,
    opts: DriverOptions,
) -> RunResult {
    let n = net.g.n_vertices();
    let delta = net.g.max_degree();
    let q = delta + 1;
    let mut coloring = Coloring::new(n, q);
    let seeds = SeedStream::new(seed);

    let mut stats = RunStats {
        path: AlgoPath::LowDegree,
        n_vertices: n,
        delta,
        dilation: net.g.dilation(),
        n_cliques: 0,
        n_cabals: 0,
        n_sparse: 0,
        slackgen_colored: 0,
        sparse_colored: 0,
        noncabal: NoncabalReport::default(),
        cabal: CabalReport::default(),
        lowdeg: None,
        fallback_colored: 0,
        fallback_rounds: 0,
        oracle_acd: opts.oracle_acd,
    };

    if delta <= params.delta_low {
        stats.path = AlgoPath::LowDegree;
        stats.lowdeg = Some(color_low_degree(
            net,
            &mut coloring,
            &seeds.child(9),
            params,
        ));
    } else {
        stats.path = AlgoPath::HighDegree;
        // ---- Step 1: ACD ----
        let acd = if opts.oracle_acd {
            // Nominal charge standing in for Proposition 4.3's rounds.
            net.set_phase("acd");
            net.charge_full_rounds(10, net.meter.budget_bits());
            acd_oracle(net.g, params.acd.epsilon)
        } else {
            compute_acd(net, &params.acd, &seeds.child(1))
        };
        stats.n_cliques = acd.n_cliques();
        stats.n_sparse = acd.sparse_vertices().len();

        // ---- degrees & cabal classification ----
        let profile = degree_profile(net, &acd, &params.counting, &seeds.child(2));
        let cabal_info = classify_cabals(
            &profile,
            delta,
            params.ell,
            params.rho,
            params.reserve_cap_frac,
        );
        stats.n_cabals = cabal_info.n_cabals();

        // ---- Step 2: slack generation outside cabals ----
        let eligible: Vec<bool> = net.par_vertex_map(|v| match acd.clique_of(v) {
            Some(c) => !cabal_info.is_cabal[c],
            None => true,
        });
        stats.slackgen_colored = if params.ablation.slackgen {
            slack_generation(net, &mut coloring, &seeds.child(3), 0, &eligible, params)
        } else {
            0
        };

        // ---- Step 3: sparse vertices ----
        net.set_phase("sparse");
        let sparse: Vec<bool> = net.par_vertex_map(|v| acd.is_sparse(v));
        stats.sparse_colored = try_then_multicolor(
            net,
            &mut coloring,
            (&seeds.child(4), 0),
            (&seeds.child(5), 0),
            &sparse,
            |_| 0,
            params,
        );

        // ---- Step 4: non-cabals ----
        stats.noncabal = color_noncabals(
            net,
            &mut coloring,
            &seeds.child(6),
            params,
            &acd,
            &profile,
            &cabal_info,
        );

        // ---- Step 5: cabals ----
        stats.cabal = color_cabals(
            net,
            &mut coloring,
            &seeds.child(7),
            params,
            &acd,
            &profile,
            &cabal_info,
        );
    }

    // ---- Terminal fallback: exact-palette trials, id priority ----
    net.set_phase("fallback");
    let (fb_colored, fb_rounds) = fallback_until_total(net, &mut coloring, &seeds.child(8));
    stats.fallback_colored += fb_colored;
    stats.fallback_rounds = fb_rounds;

    let s = coloring_stats(net.g, &coloring);
    assert!(
        s.is_valid_total(),
        "driver must output a total proper coloring: {s:?}"
    );
    RunResult {
        coloring,
        report: net.meter.report(),
        stats,
    }
}

/// Drives `coloring` to totality with charged exact-palette trials under
/// id priority ([`palette_trial_rounds`] over every uncolored vertex, no
/// round cap, messages of `min(q, 4·budget)` bits). With `q = Δ + 1`
/// colors the minimum-id uncolored vertex always has a non-empty palette
/// and wins its trial, so the loop terminates in at most `n` rounds.
///
/// Shared between the driver's terminal fallback (phase `"fallback"`)
/// and the streaming-mutation recolor pass (phase `"recolor"` — see
/// [`crate::mutate`]); the **caller** sets the phase on `net` so the two
/// uses stay distinguishable in cost breakdowns. Returns
/// `(vertices colored, rounds consumed)`.
pub(crate) fn fallback_until_total(
    net: &mut ClusterNet<'_>,
    coloring: &mut Coloring,
    fb_seeds: &SeedStream,
) -> (usize, u64) {
    let msg_bits = (coloring.q() as u64).min(4 * net.meter.budget_bits());
    let (colored, rounds) =
        palette_trial_rounds(net, coloring, fb_seeds, None, msg_bits, usize::MAX, |r| {
            r + 1
        });
    (colored, rounds as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgc_cluster::{ClusterGraph, ParallelConfig};
    use cgc_graphs::{
        cabal_spec, gnp_spec, mixture_spec, realize, Layout, MixtureConfig, WorkloadSpec,
    };
    use cgc_net::CommGraph;

    /// A `32·log n`-budget runtime on the `CGC_THREADS` executor, so the
    /// CI thread matrix reaches every driver test.
    fn env_net(g: &ClusterGraph) -> ClusterNet<'_> {
        ClusterNet::with_log_budget_parallel(g, 32, ParallelConfig::from_env())
    }

    fn assert_good(g: &ClusterGraph, seed: u64) -> RunResult {
        let mut net = env_net(g);
        let params = Params::laptop(g.n_vertices());
        let run = color_cluster_graph_with(&mut net, &params, seed, DriverOptions::default());
        assert!(run.coloring.is_total());
        assert!(run.coloring.is_proper(g));
        assert!(run.coloring.q() == g.max_degree() + 1);
        run
    }

    #[test]
    fn colors_low_degree_gnp() {
        let spec = gnp_spec(120, 0.05, 1);
        let g = realize(&spec, Layout::Singleton, 1, 1);
        let run = assert_good(&g, 11);
        assert_eq!(run.stats.path, AlgoPath::LowDegree);
    }

    #[test]
    fn colors_dense_mixture_via_high_degree_path() {
        let cfg = MixtureConfig {
            n_cliques: 3,
            clique_size: 24,
            anti_edge_prob: 0.03,
            external_per_vertex: 2,
            sparse_n: 30,
            sparse_p: 0.1,
        };
        let (spec, _) = mixture_spec(&cfg, 2);
        let g = realize(&spec, Layout::Singleton, 1, 2);
        assert!(g.max_degree() > 16, "instance must hit the high path");
        let run = assert_good(&g, 18);
        assert_eq!(run.stats.path, AlgoPath::HighDegree);
        assert!(run.stats.n_cliques >= 2, "{:?}", run.stats);
    }

    #[test]
    fn colors_cabal_instance() {
        let (spec, _) = cabal_spec(3, 24, 3, 5, 3);
        let g = realize(&spec, Layout::Singleton, 1, 3);
        let run = assert_good(&g, 13);
        assert_eq!(run.stats.path, AlgoPath::HighDegree);
        assert!(run.stats.n_cabals >= 1, "{:?}", run.stats);
    }

    #[test]
    fn colors_bottleneck_layout() {
        let g = WorkloadSpec::bottleneck(10, 6).build();
        let run = assert_good(&g, 14);
        assert!(
            run.report.g_rounds > run.report.h_rounds,
            "dilation charged"
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let cfg = MixtureConfig::default();
        let (spec, _) = mixture_spec(&cfg, 4);
        let g = realize(&spec, Layout::Singleton, 1, 4);
        let mut net1 = env_net(&g);
        let mut net2 = env_net(&g);
        let params = Params::laptop(g.n_vertices());
        let a = color_cluster_graph_with(&mut net1, &params, 99, DriverOptions::default());
        let b = color_cluster_graph_with(&mut net2, &params, 99, DriverOptions::default());
        assert_eq!(a.coloring, b.coloring);
        assert_eq!(a.report.h_rounds, b.report.h_rounds);
    }

    #[test]
    fn oracle_acd_option_works() {
        let cfg = MixtureConfig::default();
        let (spec, _) = mixture_spec(&cfg, 5);
        let g = realize(&spec, Layout::Singleton, 1, 5);
        let mut net = env_net(&g);
        let params = Params::laptop(g.n_vertices());
        let run =
            color_cluster_graph_with(&mut net, &params, 7, DriverOptions { oracle_acd: true });
        assert!(run.coloring.is_total());
        assert!(run.stats.oracle_acd);
    }

    #[test]
    fn trivial_graphs() {
        // Single vertex, no edges.
        let g =
            ClusterGraph::singletons(CommGraph::from_edges(1, [] as [(usize, usize); 0]).unwrap());
        assert_good(&g, 15);
        // Edgeless graph.
        let g =
            ClusterGraph::singletons(CommGraph::from_edges(5, [] as [(usize, usize); 0]).unwrap());
        assert_good(&g, 16);
        // Single edge.
        let g = ClusterGraph::singletons(CommGraph::from_edges(2, [(0, 1)]).unwrap());
        assert_good(&g, 17);
    }

    #[test]
    fn paper_params_route_everything_to_low_degree() {
        // With the faithful constants, Δ_low = Θ(log²¹ n) dwarfs any
        // simulable Δ: the Theorem 1.1 path runs and still colors.
        let spec = gnp_spec(60, 0.2, 7);
        let g = realize(&spec, Layout::Singleton, 1, 7);
        let mut net = env_net(&g);
        let params = Params::paper(g.n_vertices());
        let run = color_cluster_graph_with(&mut net, &params, 19, DriverOptions::default());
        assert_eq!(run.stats.path, AlgoPath::LowDegree);
        assert!(run.coloring.is_total());
        assert!(run.coloring.is_proper(&g));
    }

    #[test]
    fn disconnected_components_colored_independently() {
        // Two disjoint cliques plus isolated vertices.
        let mut edges = Vec::new();
        for u in 0..8 {
            for v in (u + 1)..8 {
                edges.push((u, v));
                edges.push((u + 8, v + 8));
            }
        }
        let comm = CommGraph::from_edges(20, &edges).unwrap();
        let g = ClusterGraph::singletons(comm);
        let run = assert_good(&g, 20);
        // Isolated vertices can take any color including 0.
        assert!(run.coloring.is_total());
    }

    #[test]
    fn stats_fields_are_populated() {
        let (spec, _) = cabal_spec(2, 20, 2, 3, 8);
        let g = realize(&spec, Layout::Singleton, 1, 8);
        let run = assert_good(&g, 21);
        assert_eq!(run.stats.n_vertices, g.n_vertices());
        assert_eq!(run.stats.delta, g.max_degree());
        assert_eq!(run.stats.dilation, g.dilation());
        assert!(run.stats.n_cliques >= run.stats.n_cabals);
    }

    #[test]
    fn every_ablation_variant_still_colors_properly() {
        use crate::params::Ablation;
        let (spec, _) = cabal_spec(2, 20, 2, 3, 9);
        let g = realize(&spec, Layout::Singleton, 1, 9);
        for ab in [
            Ablation {
                slackgen: false,
                ..Ablation::default()
            },
            Ablation {
                matching: false,
                ..Ablation::default()
            },
            Ablation {
                sct: false,
                ..Ablation::default()
            },
            Ablation {
                putaside: false,
                ..Ablation::default()
            },
            Ablation {
                slackgen: false,
                matching: false,
                sct: false,
                putaside: false,
            },
        ] {
            let mut net = env_net(&g);
            let mut params = Params::laptop(g.n_vertices());
            params.ablation = ab;
            let run = color_cluster_graph_with(&mut net, &params, 22, DriverOptions::default());
            assert!(run.coloring.is_total(), "{ab:?}");
            assert!(run.coloring.is_proper(&g), "{ab:?}");
        }
    }

    #[test]
    fn star_layout_cluster_graph() {
        let spec = gnp_spec(40, 0.12, 6);
        let g = realize(&spec, Layout::Star(5), 2, 6);
        assert_good(&g, 18);
    }
}
