//! Chung–Lu power-law conflict graphs.
//!
//! The degree distributions of real conflict graphs (interference maps,
//! social overlays) are heavy-tailed, which stresses exactly the machinery
//! G(n, p) leaves idle: a few huge almost-clique-free hubs next to a long
//! thin tail, badly unbalanced CSR rows, skewed palettes. The Chung–Lu
//! model plants a target power-law degree sequence `w_v ∝ (v + v0)^(-1/
//! (β - 1))` and connects `{u, v}` independently with probability
//! `min(1, w_u w_v / Σw)`, so the expected degree of `v` is (up to
//! truncation) `w_v`.
//!
//! Sampling is the Miller–Hagberg skip walk: weights are descending in the
//! vertex index by construction, so for a fixed row `u` the acceptance
//! probability only shrinks as `v` grows and geometric skips under the
//! current bound (re-accepted at the true probability on landing) emit the
//! row in `O(deg)` expected time instead of `O(n)`. Each row draws from
//! its own [`SeedStream`]-derived RNG, so edge generation shards across
//! threads through the [`crate::pipeline::ShardedEdgeSource`] scaffolding
//! (shards balanced by weight mass) with output independent of the
//! thread count.

use crate::layouts::HSpec;
use crate::pipeline::ShardedEdgeSource;
use cgc_net::{ParallelConfig, SeedStream};
use rand::RngExt;

/// Parameters of a Chung–Lu power-law spec.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerLawConfig {
    /// Number of vertices.
    pub n: usize,
    /// Degree exponent `β` (heavier tail as `β → 2`). Must be `> 2` so
    /// the expected degree stays finite.
    pub exponent: f64,
    /// Target average degree (the weight sum is scaled to `n · avg`).
    pub avg_degree: f64,
}

impl Default for PowerLawConfig {
    fn default() -> Self {
        PowerLawConfig {
            n: 1000,
            exponent: 2.5,
            avg_degree: 8.0,
        }
    }
}

/// The planted Chung–Lu weights: descending, scaled so their sum is
/// `n * avg_degree`, with every weight capped at `sqrt(Σw)` so that
/// `w_u w_v / Σw ≤ 1` and no probability truncates (keeps expected
/// degrees honest at the head).
pub fn power_law_weights(cfg: &PowerLawConfig) -> Vec<f64> {
    assert!(cfg.n > 0, "empty spec");
    assert!(cfg.exponent > 2.0, "need β > 2 for a finite mean");
    assert!(cfg.avg_degree > 0.0, "need a positive average degree");
    let gamma = -1.0 / (cfg.exponent - 1.0);
    let mut w: Vec<f64> = (0..cfg.n).map(|v| ((v + 1) as f64).powf(gamma)).collect();
    let sum: f64 = w.iter().sum();
    let scale = cfg.avg_degree * cfg.n as f64 / sum;
    for x in &mut w {
        *x *= scale;
    }
    // Cap the head at sqrt(S) (S is invariant enough: the cap only shaves
    // the first few hubs), preserving the descending order.
    let s: f64 = w.iter().sum();
    let cap = s.sqrt();
    for x in &mut w {
        if *x > cap {
            *x = cap;
        }
    }
    w
}

/// Samples a Chung–Lu power-law spec sequentially; deterministic in
/// `(cfg, seed)`.
pub fn power_law_spec(cfg: &PowerLawConfig, seed: u64) -> HSpec {
    let par = ParallelConfig::serial();
    power_law_runs(cfg, seed, &par).into_hspec(&par)
}

/// The raw per-shard edge runs of a Chung–Lu sample — the generation half
/// of [`power_law_spec`], before canonicalization; independent of the
/// thread count in `par`.
pub(crate) fn power_law_runs(
    cfg: &PowerLawConfig,
    seed: u64,
    par: &ParallelConfig,
) -> ShardedEdgeSource {
    let w = power_law_weights(cfg);
    let s: f64 = w.iter().sum();
    let seeds = SeedStream::new(seed);
    let hub_seeds = seeds.child(0x5E47);
    let w = &w;
    // Row u's expected work tracks its weight, so shard by weight mass; a
    // hub row whose weight exceeds the quantum (Σw / 1024, a pure function
    // of the weights — never of the thread count) additionally splits into
    // k_u column-range tasks so no single row can serialize a shard. Split
    // rows draw per-task substreams keyed by (u, j) from a child-namespaced
    // stream; unsplit rows keep the historical per-row stream, so samples
    // are byte-compatible with the row-granular generator wherever no row
    // crosses the quantum.
    let quantum = s / 1024.0;
    ShardedEdgeSource::from_row_tasks_weighted(cfg.n, par, w, quantum, move |u, j, k, out| {
        // Task j of k owns the j-th equal-count slice of columns u+1..n.
        // The Miller–Hagberg invariant is per-slice: weights descend, so
        // the bound `p` seeded at the slice head still dominates the rest.
        let span = cfg.n - (u + 1);
        let lo = u + 1 + span * j as usize / k as usize;
        let hi = u + 1 + span * (j as usize + 1) / k as usize;
        if lo >= hi {
            return;
        }
        let rng = if k == 1 {
            seeds.rng_for(0x505F_4C41, u as u64)
        } else {
            hub_seeds.rng_for(u as u64, u64::from(j))
        };
        skip_walk(w, s, u, lo, hi, rng, out);
    })
}

/// One Miller–Hagberg skip walk over columns `lo..hi` of row `u`.
///
/// Invariant: `p` bounds the true probability for every v' ≥ v (weights
/// are descending), so skipping geometrically under `p` and thinning by
/// `q / p` on landing samples each pair with exactly `q`.
fn skip_walk(
    w: &[f64],
    s: f64,
    u: usize,
    lo: usize,
    hi: usize,
    mut rng: impl RngExt,
    out: &mut Vec<(usize, usize)>,
) {
    let mut v = lo;
    let mut p = (w[u] * w[v] / s).min(1.0);
    while v < hi && p > 0.0 {
        if p < 1.0 {
            let r: f64 = rng.random();
            let skip = ((1.0 - r).ln() / (1.0 - p).ln()).floor();
            if skip >= (hi - v) as f64 {
                break;
            }
            v += skip as usize;
        }
        let q = (w[u] * w[v] / s).min(1.0);
        if rng.random::<f64>() < q / p {
            out.push((u, v));
        }
        p = q;
        v += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn degrees(h: &HSpec) -> Vec<usize> {
        let mut deg = vec![0usize; h.n];
        for &(u, v) in &h.edges {
            deg[u] += 1;
            deg[v] += 1;
        }
        deg
    }

    #[test]
    fn edge_count_tracks_target_average_degree() {
        let cfg = PowerLawConfig {
            n: 4000,
            exponent: 2.5,
            avg_degree: 8.0,
        };
        let h = power_law_spec(&cfg, 7);
        let expect = cfg.avg_degree * cfg.n as f64 / 2.0;
        let m = h.edges.len() as f64;
        assert!(
            (m - expect).abs() < 0.35 * expect,
            "m = {m}, expect ≈ {expect}"
        );
    }

    #[test]
    fn degree_distribution_is_heavy_tailed() {
        let cfg = PowerLawConfig {
            n: 4000,
            exponent: 2.2,
            avg_degree: 6.0,
        };
        let h = power_law_spec(&cfg, 3);
        let deg = degrees(&h);
        let max = *deg.iter().max().unwrap();
        let avg = deg.iter().sum::<usize>() as f64 / cfg.n as f64;
        assert!(
            max as f64 > 6.0 * avg,
            "power law should have hubs: max {max}, avg {avg:.1}"
        );
        // And the planted ordering shows: early vertices are the hubs.
        let head: usize = deg[..40].iter().sum();
        let tail: usize = deg[cfg.n - 40..].iter().sum();
        assert!(head > 4 * tail, "head {head} vs tail {tail}");
    }

    #[test]
    fn thread_count_does_not_change_the_graph() {
        let cfg = PowerLawConfig {
            n: 800,
            exponent: 2.5,
            avg_degree: 7.0,
        };
        let reference = power_law_spec(&cfg, 11);
        for threads in [2, 4, 8] {
            let par = ParallelConfig::with_threads(threads);
            let got = power_law_runs(&cfg, 11, &par).into_hspec(&par);
            assert_eq!(got, reference, "threads={threads}");
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let cfg = PowerLawConfig::default();
        assert_eq!(power_law_spec(&cfg, 5), power_law_spec(&cfg, 5));
        assert_ne!(power_law_spec(&cfg, 5), power_law_spec(&cfg, 6));
    }

    #[test]
    fn weights_are_descending_and_scaled() {
        let cfg = PowerLawConfig {
            n: 500,
            exponent: 2.5,
            avg_degree: 10.0,
        };
        let w = power_law_weights(&cfg);
        for i in 1..w.len() {
            assert!(w[i] <= w[i - 1]);
        }
        let sum: f64 = w.iter().sum();
        // The cap shaves a bit off the head; stay within 20%.
        assert!((sum - 5000.0).abs() < 1000.0, "sum {sum}");
    }

    #[test]
    #[should_panic(expected = "β > 2")]
    fn shallow_exponent_rejected() {
        let cfg = PowerLawConfig {
            n: 10,
            exponent: 1.8,
            avg_degree: 2.0,
        };
        power_law_weights(&cfg);
    }
}
