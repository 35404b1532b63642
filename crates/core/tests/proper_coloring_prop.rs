//! Property tests: the end-to-end driver yields a **total, proper**
//! coloring with at most `Δ + 1` colors on *every* workload family —
//! G(n, p), Chung–Lu power-law, random geometric, planted mixtures,
//! cabal-heavy instances, and the adversarial bottleneck layouts — over
//! randomly drawn sizes, densities, cluster layouts, and run seeds.
//!
//! The run seed is also used to pick a thread count in {1, 2, 4}, so the
//! properties hold under the sharded parallel executor too (exact
//! cross-thread-count equality is pinned separately in
//! `parallel_determinism.rs`).

use cgc_cluster::{ClusterGraph, ClusterNet, ParallelConfig};
use cgc_core::{color_cluster_graph_with, coloring_stats, DriverOptions, Params};
use cgc_graphs::{
    cabal_spec, gnp_spec, mixture_spec, radius_for_avg_degree, realize, HSpec, Layout,
    MixtureConfig, WorkloadSpec,
};
use proptest::prelude::*;

fn layout_for(pick: usize) -> Layout {
    match pick % 4 {
        0 => Layout::Singleton,
        1 => Layout::Path(3),
        2 => Layout::Star(4),
        _ => Layout::BinaryTree(5),
    }
}

/// Runs the driver and checks the Δ+1 contract.
fn assert_proper_run(g: &ClusterGraph, run_seed: u64) -> Result<(), TestCaseError> {
    let par = ParallelConfig::with_threads([1, 2, 4][(run_seed % 3) as usize]);
    let mut net = ClusterNet::with_log_budget_parallel(g, 32, par);
    let params = Params::laptop(g.n_vertices());
    let run = color_cluster_graph_with(&mut net, &params, run_seed, DriverOptions::default());
    prop_assert!(run.coloring.is_total(), "coloring not total");
    prop_assert!(run.coloring.is_proper(g), "coloring not proper");
    let stats = coloring_stats(g, &run.coloring);
    prop_assert!(
        stats.colors_used <= g.max_degree() + 1,
        "used {} colors, Δ + 1 = {}",
        stats.colors_used,
        g.max_degree() + 1
    );
    Ok(())
}

fn realize_and_check(spec: &HSpec, layout_pick: usize, seed: u64) -> Result<(), TestCaseError> {
    let g = realize(spec, layout_for(layout_pick), 1 + layout_pick % 2, seed);
    assert_proper_run(&g, seed ^ 0x5EED)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn gnp_family_is_properly_colored(
        n in 20usize..140,
        p in 0.02f64..0.3,
        layout_pick in 0usize..4,
        seed in 0u64..1 << 48,
    ) {
        let spec = gnp_spec(n, p, seed);
        realize_and_check(&spec, layout_pick, seed)?;
    }

    #[test]
    fn power_law_family_is_properly_colored(
        n in 40usize..200,
        exponent in 2.1f64..3.5,
        avg in 3.0f64..10.0,
        layout_pick in 0usize..4,
        seed in 0u64..1 << 48,
    ) {
        let (spec, _) = WorkloadSpec::power_law(n, exponent, avg, seed)
            .conflict_spec(&ParallelConfig::with_threads(2))
            .expect("power law has a conflict spec");
        realize_and_check(&spec, layout_pick, seed)?;
    }

    #[test]
    fn geometric_family_is_properly_colored(
        n in 40usize..200,
        target_deg in 3.0f64..12.0,
        layout_pick in 0usize..4,
        seed in 0u64..1 << 48,
    ) {
        let r = radius_for_avg_degree(n, target_deg);
        let (spec, _) = WorkloadSpec::rgg(n, r, seed)
            .conflict_spec(&ParallelConfig::with_threads(2))
            .expect("rgg has a conflict spec");
        realize_and_check(&spec, layout_pick, seed)?;
    }

    #[test]
    fn planted_mixture_family_is_properly_colored(
        n_cliques in 2usize..4,
        clique_size in 12usize..28,
        anti in 0.0f64..0.15,
        sparse_n in 10usize..40,
        seed in 0u64..1 << 48,
    ) {
        let cfg = MixtureConfig {
            n_cliques,
            clique_size,
            anti_edge_prob: anti,
            external_per_vertex: 1,
            sparse_n,
            sparse_p: 0.1,
        };
        let (spec, _) = mixture_spec(&cfg, seed);
        realize_and_check(&spec, seed as usize % 4, seed)?;
    }

    #[test]
    fn cabal_family_is_properly_colored(
        c in 2usize..4,
        k in 14usize..26,
        anti_pairs in 0usize..4,
        ext in 0usize..6,
        seed in 0u64..1 << 48,
    ) {
        let (spec, _) = cabal_spec(c, k, anti_pairs, ext, seed);
        realize_and_check(&spec, seed as usize % 4, seed)?;
    }

    #[test]
    fn bottleneck_family_is_properly_colored(
        n_clusters in 3usize..12,
        path_len in 2usize..8,
        seed in 0u64..1 << 48,
    ) {
        let g = WorkloadSpec::bottleneck(n_clusters, path_len).build();
        assert_proper_run(&g, seed)?;
    }
}
