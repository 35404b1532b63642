//! The Lemma 5.2 cardinality estimator.
//!
//! Given `t` maxima `Y_1..Y_t`, each the max of `d` independent
//! geometric(1/2) variables, let `Z_k = |{i : Y_i < k}|`,
//! `K* = min{k : Z_k ≥ (27/40) t}` and
//! `d̂ = ln(Z_{K*}/t) / ln(1 − 2^{-K*})`. Then `|d − d̂| ≤ ξ d` with
//! probability `1 − 6 exp(−ξ² t / 200)`.

use crate::fingerprint::Maximum;
#[cfg(test)]
use crate::fingerprint::EMPTY;
use crate::histogram::Histogram;

/// Estimates the number of elements contributing to the maxima vector —
/// a [`crate::Fingerprint`]'s `i16` maxima or a
/// [`crate::FingerprintMatrix`] row, with identical results for the same
/// values. `Z_k` is a prefix sum of the vector's value histogram.
///
/// Returns `0.0` for an all-empty vector (no contributions). The estimate
/// is clamped below at 1 when any contribution exists.
///
/// # Panics
///
/// Panics on an `i16` maximum outside `−1..=254`.
pub fn estimate_count<T: Maximum>(maxima: &[T]) -> f64 {
    Histogram::of(maxima).estimate()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::Fingerprint;
    use cgc_net::SeedStream;

    fn maxima_of(d: usize, t: usize, seed: u64) -> Vec<i16> {
        let s = SeedStream::new(seed);
        let mut acc = Fingerprint::empty(t);
        for id in 0..d {
            acc.merge(&Fingerprint::sample(&mut s.rng_for(id as u64, 0), t));
        }
        acc.maxima().to_vec()
    }

    #[test]
    fn empty_estimates_zero() {
        assert_eq!(estimate_count::<i16>(&[]), 0.0);
        assert_eq!(estimate_count(&[EMPTY, EMPTY]), 0.0);
        assert_eq!(estimate_count(&[0u8, 0]), 0.0);
    }

    #[test]
    fn byte_rows_estimate_like_wide_maxima() {
        for (d, seed) in [(1usize, 20u64), (30, 21), (700, 22)] {
            let wide = maxima_of(d, 512, seed);
            let bytes: Vec<u8> = wide.iter().map(|&y| (y + 1) as u8).collect();
            assert_eq!(
                estimate_count(&bytes).to_bits(),
                estimate_count(&wide).to_bits()
            );
        }
    }

    #[test]
    fn singleton_estimates_near_one() {
        let m = maxima_of(1, 512, 2);
        let e = estimate_count(&m);
        assert!((0.5..2.0).contains(&e), "estimate {e} for d=1");
    }

    #[test]
    fn estimates_track_true_cardinality() {
        for (&d, seed) in [10usize, 100, 1000, 4000].iter().zip(10u64..) {
            let m = maxima_of(d, 1024, seed);
            let e = estimate_count(&m);
            let err = (e - d as f64).abs() / d as f64;
            assert!(err < 0.25, "d = {d}: estimate {e}, rel err {err}");
        }
    }

    #[test]
    fn more_trials_reduce_error() {
        // Average relative error over several seeds must shrink with t.
        let d = 300usize;
        let avg_err = |t: usize| -> f64 {
            (0..8u64)
                .map(|seed| {
                    let m = maxima_of(d, t, 100 + seed);
                    (estimate_count(&m) - d as f64).abs() / d as f64
                })
                .sum::<f64>()
                / 8.0
        };
        let e_small = avg_err(64);
        let e_big = avg_err(2048);
        assert!(
            e_big < e_small,
            "error should shrink with t: t=64 -> {e_small}, t=2048 -> {e_big}"
        );
        assert!(e_big < 0.12, "t=2048 error too large: {e_big}");
    }

    /// Lemma 5.2 quantitative check: with t = 2048 and ξ = 0.2 the failure
    /// probability bound is 6·exp(−0.04·2048/200) ≈ 4; vacuous — so we
    /// check the empirical failure rate directly at a ξ where the bound is
    /// meaningful for the harness (E4 explores the full sweep).
    #[test]
    fn relative_error_within_xi_most_of_the_time() {
        let d = 200usize;
        let t = 2048usize;
        let xi = 0.2f64;
        let mut fails = 0usize;
        let reps = 10;
        for seed in 0..reps {
            let m = maxima_of(d, t, 500 + seed);
            let e = estimate_count(&m);
            if (e - d as f64).abs() > xi * d as f64 {
                fails += 1;
            }
        }
        assert!(fails <= 2, "{fails}/{reps} estimates outside (1±{xi})d");
    }
}
