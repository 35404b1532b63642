//! Erdős–Rényi `G(n, p)` conflict graphs, sampled by a row-sharded
//! skip walk.
//!
//! The naive sampler flips one coin per vertex pair — `O(n²)` work that
//! dominated instance setup long before the edges themselves mattered.
//! For a Bernoulli(`p`) process the gap between consecutive successes is
//! geometric, so each row `u` instead *jumps* over its failures: draw
//! `skip ~ ⌊ln(1 − r) / ln(1 − p)⌋`, land on the next accepted neighbor,
//! repeat — `O(deg + 1)` expected work per row, `O(m + n)` per instance.
//! This is the constant-probability case of the Miller–Hagberg walk the
//! power-law sampler ([`crate::powerlaw`]) already uses.
//!
//! Each row draws from its own [`SeedStream`]-derived substream, so
//! generation shards across threads through the
//! [`crate::pipeline::ShardedEdgeSource`] scaffolding with output that is
//! a pure function of `(n, p, seed)` — independent of the thread count.
//! (The per-row protocol means instances differ from the pre-skip-walk
//! sampler's for the same seed; `tests/gen_equivalence.rs` pins the new
//! stream's distribution against the old sweep.)

use crate::layouts::HSpec;
use crate::pipeline::ShardedEdgeSource;
use cgc_net::{ParallelConfig, SeedStream};
use rand::RngExt;

/// Samples a `G(n, p)` spec sequentially (a thread sweep goes through
/// [`crate::WorkloadSpec::conflict_spec`]).
///
/// # Panics
///
/// Panics if `p` is not in `[0, 1]`.
pub fn gnp_spec(n: usize, p: f64, seed: u64) -> HSpec {
    let par = ParallelConfig::serial();
    gnp_runs(n, p, seed, &par).into_hspec(&par)
}

/// The raw per-shard edge runs of a `G(n, p)` sample — the generation
/// half of [`gnp_spec`], before canonicalization; deterministic in
/// `(n, p, seed)` and independent of the thread count.
///
/// # Panics
///
/// Panics if `p` is not in `[0, 1]`.
pub(crate) fn gnp_runs(n: usize, p: f64, seed: u64, par: &ParallelConfig) -> ShardedEdgeSource {
    assert!((0.0..=1.0).contains(&p), "p must be in [0,1]");
    let seeds = SeedStream::new(seed);
    // Row u owns the pairs {u} × (u+1..n): its expected work is
    // (n - 1 - u)·p accepted edges plus one terminating draw, so shards
    // balance by that mass — an even row split would serialize shard 0 on
    // the long early rows.
    let weights: Vec<f64> = (0..n).map(|u| (n - 1 - u) as f64 * p + 1.0).collect();
    ShardedEdgeSource::from_row_tasks_weighted(n, par, &weights, 0.0, move |u, _, _, out| {
        if p <= 0.0 {
            return;
        }
        if p >= 1.0 {
            out.extend((u + 1..n).map(|v| (u, v)));
            return;
        }
        let mut rng = seeds.rng_for(0x67_6E_70, u as u64);
        // ln(1 - p) < 0; skip = ⌊ln(1 - r) / ln(1 - p)⌋ is Geometric(p):
        // the number of rejected pairs before the next accepted one.
        // ln_1p keeps the denominator nonzero (and accurate) for p below
        // f64 epsilon, where `(1.0 - p).ln()` rounds to 0.0 and the walk
        // would invert into accept-everything.
        let log_q = (-p).ln_1p();
        let mut v = u + 1;
        while v < n {
            let r: f64 = rng.random();
            let skip = ((1.0 - r).ln() / log_q).floor();
            if skip >= (n - v) as f64 {
                break;
            }
            v += skip as usize;
            out.push((u, v));
            v += 1;
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_count_concentrates() {
        let n = 120;
        let p = 0.1;
        let h = gnp_spec(n, p, 4);
        let expect = p * (n * (n - 1) / 2) as f64;
        let m = h.edges.len() as f64;
        assert!(
            (m - expect).abs() < 0.35 * expect,
            "m = {m}, expect ≈ {expect}"
        );
    }

    #[test]
    fn extreme_probabilities() {
        assert!(gnp_spec(20, 0.0, 1).edges.is_empty());
        assert_eq!(gnp_spec(20, 1.0, 1).edges.len(), 190);
    }

    #[test]
    fn deterministic_in_seed() {
        assert_eq!(gnp_spec(50, 0.2, 7), gnp_spec(50, 0.2, 7));
        assert_ne!(gnp_spec(50, 0.2, 7), gnp_spec(50, 0.2, 8));
    }

    #[test]
    fn thread_count_does_not_change_the_graph() {
        let reference = gnp_spec(400, 0.04, 11);
        for threads in [2, 4, 8] {
            let par = ParallelConfig::with_threads(threads);
            let got = gnp_runs(400, 0.04, 11, &par).into_hspec(&par);
            assert_eq!(got, reference, "threads={threads}");
        }
    }

    #[test]
    fn subnormal_probabilities_stay_sparse() {
        // Regression: with log_q computed as (1.0 - p).ln(), any p below
        // f64 epsilon rounded the denominator to 0.0 and the skip walk
        // accepted every pair — the complete graph instead of ~0 edges.
        for p in [1e-18, 1e-12, f64::EPSILON / 4.0] {
            let h = gnp_spec(200, p, 5);
            assert!(
                h.edges.len() <= 1,
                "p={p}: got {} edges, expected ~0",
                h.edges.len()
            );
        }
    }

    #[test]
    fn rows_emit_sorted_unique_neighbors() {
        // The skip walk advances strictly, so each row's run is already
        // sorted and duplicate-free — canonicalization never drops edges.
        let src = gnp_runs(200, 0.15, 9, &ParallelConfig::serial());
        assert_eq!(src.total_edges(), gnp_spec(200, 0.15, 9).edges.len());
    }

    #[test]
    #[should_panic(expected = "p must be in")]
    fn out_of_range_probability_rejected() {
        gnp_spec(10, 1.5, 1);
    }
}
