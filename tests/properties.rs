//! Property-based tests (proptest) over the cross-crate invariants.

use cluster_coloring::prelude::*;
use cluster_coloring::sketch::{decode_maxima, encode_maxima};
use proptest::prelude::*;

/// Arbitrary small conflict graphs: n in [2, 40], edge density in [0, .5].
fn arb_spec() -> impl Strategy<Value = HSpec> {
    (2usize..40, 0.0f64..0.5, any::<u64>()).prop_map(|(n, p, seed)| gnp_spec(n, p, seed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn driver_always_outputs_total_proper_coloring(spec in arb_spec(), seed in any::<u64>()) {
        let h = realize(&spec, Layout::Singleton, 1, 1);
        let mut net = ClusterNet::with_log_budget_parallel(&h, 32, ParallelConfig::from_env());
        let params = Params::laptop(h.n_vertices());
        let run = color_cluster_graph_with(&mut net, &params, seed, DriverOptions::default());
        prop_assert!(run.coloring.is_total());
        prop_assert!(run.coloring.is_proper(&h));
        // Never more than Δ+1 distinct colors.
        let stats = coloring_stats(&h, &run.coloring);
        prop_assert!(stats.colors_used <= h.max_degree() + 1);
    }

    #[test]
    fn fingerprint_encoding_roundtrips(values in prop::collection::vec(-1i16..60, 1..200)) {
        let buf = encode_maxima(&values);
        let back = decode_maxima(&buf, values.len());
        prop_assert_eq!(back, values);
    }

    #[test]
    fn greedy_and_luby_agree_on_properness(spec in arb_spec()) {
        let h = realize(&spec, Layout::Singleton, 1, 2);
        let mut net1 = ClusterNet::with_log_budget(&h, 32);
        let g = greedy_coloring(&mut net1);
        prop_assert!(g.is_total() && g.is_proper(&h));

        let mut net2 = ClusterNet::with_log_budget(&h, 32);
        let seeds = SeedStream::new(5);
        let (l, stats) = luby_coloring(&mut net2, &seeds, 4000);
        prop_assert!(!stats.capped);
        prop_assert!(l.is_total() && l.is_proper(&h));
    }

    #[test]
    fn layouts_preserve_conflict_structure(
        spec in arb_spec(),
        m in 1usize..5,
        links in 1usize..4,
    ) {
        let h = realize(&spec, Layout::Path(m), links, 3);
        prop_assert_eq!(h.n_vertices(), spec.n);
        for &(u, v) in &spec.edges {
            prop_assert!(h.has_edge(u, v));
        }
        prop_assert_eq!(h.n_h_edges(), spec.edges.len());
        prop_assert_eq!(h.n_machines(), spec.n * m.max(1));
    }

    #[test]
    fn square_graph_contains_base_graph(spec in arb_spec()) {
        let sq = square_spec(&spec);
        for &(u, v) in &spec.edges {
            prop_assert!(sq.edges.binary_search(&(u, v)).is_ok());
        }
        prop_assert!(sq.max_degree() >= spec.max_degree());
    }

    #[test]
    fn fingerprint_estimates_are_monotone_reasonable(
        d in 1usize..400,
        seed in any::<u64>(),
    ) {
        let s = SeedStream::new(seed);
        let mut acc = Fingerprint::empty(512);
        for id in 0..d {
            acc.merge(&Fingerprint::sample(&mut s.rng_for(id as u64, 0), 512));
        }
        let est = acc.estimate();
        // Very loose sanity envelope: within a factor 4 either way.
        prop_assert!(est >= d as f64 / 4.0, "d={d} est={est}");
        prop_assert!(est <= d as f64 * 4.0 + 4.0, "d={d} est={est}");
    }
}
