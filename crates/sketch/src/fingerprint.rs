//! Fingerprints: coordinate-wise maxima of geometric samples.
//!
//! Each participating element samples a vector of `t` geometric variables;
//! a fingerprint of a *set* is the coordinate-wise maximum over its
//! elements' vectors. Max is associative, commutative and idempotent, so
//! fingerprints aggregate correctly over trees *and* over redundant paths —
//! the property the paper exploits on cluster graphs (§2.3).

use crate::geometric::sample_geometric;
use rand::Rng;

/// Sentinel for "maximum over the empty set".
pub const EMPTY: i16 = -1;

/// An element of a maxima vector: a geometric maximum `y ≥ 0`, or the
/// empty-set sentinel, which reads as `y = −1`.
///
/// Two layouts implement it: the `i16` maxima of a [`Fingerprint`]
/// (stored as `y`, [`EMPTY`] = −1) and the `u8` rows of a
/// [`crate::FingerprintMatrix`] (stored as `y + 1`, 0 = empty). Both map
/// to the same histogram bin, so the estimator and the encoder are one
/// implementation over either.
pub trait Maximum: Copy {
    /// The histogram bin `y + 1` (0 when empty).
    ///
    /// # Panics
    ///
    /// An `i16` outside `−1..=254` has no bin and panics.
    fn bin(self) -> u8;
}

impl Maximum for i16 {
    #[inline]
    fn bin(self) -> u8 {
        assert!(
            (-1..=254).contains(&self),
            "maximum {self} is outside -1..=254"
        );
        (self + 1) as u8
    }
}

impl Maximum for u8 {
    #[inline]
    fn bin(self) -> u8 {
        self
    }
}

/// A fingerprint: `t` maxima of geometric variables (λ = 1/2 by default).
///
/// `maxima[i] == EMPTY` means no element has contributed to trial `i` yet.
///
/// # Example
///
/// ```
/// use cgc_sketch::Fingerprint;
/// use cgc_net::SeedStream;
///
/// let s = SeedStream::new(1);
/// let mut acc = Fingerprint::empty(64);
/// for id in 0..100u64 {
///     let fp = Fingerprint::sample(&mut s.rng_for(id, 0), 64);
///     acc.merge(&fp);
/// }
/// let est = acc.estimate();
/// assert!(est > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    maxima: Vec<i16>,
}

impl Fingerprint {
    /// A fingerprint of the empty set with `t` trials.
    pub fn empty(t: usize) -> Self {
        Fingerprint {
            maxima: vec![EMPTY; t],
        }
    }

    /// Samples a single element's vector (`λ = 1/2`).
    pub fn sample(rng: &mut impl Rng, t: usize) -> Self {
        Fingerprint {
            maxima: (0..t).map(|_| sample_geometric(rng, 0.5) as i16).collect(),
        }
    }

    /// Builds from raw maxima (used by decoders and tests).
    ///
    /// # Panics
    ///
    /// Panics if a maximum is outside `−1..=254` (see [`Maximum::bin`]).
    pub fn from_maxima(maxima: Vec<i16>) -> Self {
        for &y in &maxima {
            y.bin();
        }
        Fingerprint { maxima }
    }

    /// Number of trials `t`.
    pub fn len(&self) -> usize {
        self.maxima.len()
    }

    /// Whether `t == 0`.
    pub fn is_empty(&self) -> bool {
        self.maxima.is_empty()
    }

    /// The raw maxima.
    pub fn maxima(&self) -> &[i16] {
        &self.maxima
    }

    /// Coordinate-wise max with another fingerprint.
    ///
    /// # Panics
    ///
    /// Panics if the trial counts differ.
    pub fn merge(&mut self, other: &Fingerprint) {
        assert_eq!(
            self.maxima.len(),
            other.maxima.len(),
            "fingerprint lengths must match"
        );
        for (a, &b) in self.maxima.iter_mut().zip(&other.maxima) {
            if b > *a {
                *a = b;
            }
        }
    }

    /// Merged copy (`self ∨ other`).
    #[must_use]
    pub fn merged(&self, other: &Fingerprint) -> Fingerprint {
        let mut m = self.clone();
        m.merge(other);
        m
    }

    /// Whether any trial has a contribution.
    pub fn has_contribution(&self) -> bool {
        self.maxima.iter().any(|&m| m != EMPTY)
    }

    /// Estimates the number of contributing elements (Lemma 5.2).
    pub fn estimate(&self) -> f64 {
        crate::estimate::estimate_count(&self.maxima)
    }

    /// Encoded size in bits under the Lemma 5.6 scheme.
    pub fn encoded_bits(&self) -> u64 {
        crate::encode::encoded_bits(&self.maxima)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgc_net::SeedStream;

    #[test]
    fn both_layouts_share_bins() {
        for y in -1..=i16::try_from(crate::geometric::GEOMETRIC_CAP).unwrap() {
            let byte = u8::try_from(y + 1).unwrap();
            assert_eq!(y.bin(), byte.bin());
        }
        assert_eq!((EMPTY.bin(), 254i16.bin(), 255u8.bin()), (0, 255, 255));
    }

    #[test]
    #[should_panic(expected = "maximum 255 is outside -1..=254")]
    fn out_of_range_maximum_panics() {
        Fingerprint::from_maxima(vec![3, 255]);
    }

    #[test]
    #[should_panic(expected = "maximum -2 is outside -1..=254")]
    fn out_of_range_maximum_panics_in_the_estimator() {
        crate::estimate_count(&[4i16, -2]);
    }

    #[test]
    fn merge_is_pointwise_max() {
        let a = Fingerprint::from_maxima(vec![1, 5, EMPTY]);
        let b = Fingerprint::from_maxima(vec![3, 2, 0]);
        let m = a.merged(&b);
        assert_eq!(m.maxima(), &[3, 5, 0]);
    }

    #[test]
    fn merge_is_idempotent_and_commutative() {
        let s = SeedStream::new(5);
        let a = Fingerprint::sample(&mut s.rng_for(1, 0), 32);
        let b = Fingerprint::sample(&mut s.rng_for(2, 0), 32);
        assert_eq!(a.merged(&a), a, "idempotent");
        assert_eq!(a.merged(&b), b.merged(&a), "commutative");
    }

    #[test]
    fn redundant_path_aggregation_is_safe() {
        // Merging the same contribution through two different "paths"
        // gives the same result as once — the cluster-graph key property.
        let s = SeedStream::new(6);
        let x = Fingerprint::sample(&mut s.rng_for(9, 0), 16);
        let y = Fingerprint::sample(&mut s.rng_for(10, 0), 16);
        let via_one = x.merged(&y);
        let via_two = x.merged(&y).merged(&y).merged(&x);
        assert_eq!(via_one, via_two);
    }

    #[test]
    fn empty_fingerprint_has_no_contribution() {
        let e = Fingerprint::empty(8);
        assert!(!e.has_contribution());
        let s = SeedStream::new(7);
        let x = Fingerprint::sample(&mut s.rng_for(0, 0), 8);
        assert!(e.merged(&x).has_contribution());
    }

    #[test]
    #[should_panic(expected = "lengths must match")]
    fn mismatched_lengths_panic() {
        let mut a = Fingerprint::empty(4);
        let b = Fingerprint::empty(5);
        a.merge(&b);
    }

    /// Lemma 5.3: the maximum of d geometric(1/2) variables is unique with
    /// probability at least (1-λ)²/(1-λ²) complement... concretely ≥ 2/3.
    #[test]
    fn unique_maximum_probability_at_least_two_thirds() {
        let s = SeedStream::new(42);
        let d = 50;
        let trials = 4000;
        let mut unique = 0usize;
        for tr in 0..trials {
            let mut best = -1i32;
            let mut count = 0usize;
            for id in 0..d {
                let mut rng = s.rng_for(id, tr as u64);
                let x = i32::from(crate::geometric::sample_geometric(&mut rng, 0.5));
                if x > best {
                    best = x;
                    count = 1;
                } else if x == best {
                    count += 1;
                }
            }
            if count == 1 {
                unique += 1;
            }
        }
        let p = unique as f64 / trials as f64;
        assert!(p >= 0.62, "unique-max probability {p} < 2/3 - slack");
    }

    /// Lemma 5.4: conditioned on uniqueness, the argmax is uniform.
    #[test]
    fn unique_maximum_location_is_uniform() {
        let s = SeedStream::new(43);
        let d = 8usize;
        let trials = 4000;
        let mut hits = vec![0usize; d];
        let mut total = 0usize;
        for tr in 0..trials {
            let xs: Vec<i32> = (0..d)
                .map(|id| {
                    let mut rng = s.rng_for(id as u64, tr as u64);
                    i32::from(crate::geometric::sample_geometric(&mut rng, 0.5))
                })
                .collect();
            let best = *xs.iter().max().unwrap();
            let argmax: Vec<usize> = (0..d).filter(|&i| xs[i] == best).collect();
            if argmax.len() == 1 {
                hits[argmax[0]] += 1;
                total += 1;
            }
        }
        let expected = total as f64 / d as f64;
        for (i, &h) in hits.iter().enumerate() {
            let ratio = h as f64 / expected;
            assert!((0.8..1.2).contains(&ratio), "element {i} ratio {ratio}");
        }
    }
}
