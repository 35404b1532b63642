//! k-wise independent polynomial hash families.
//!
//! A degree-`(k−1)` polynomial with uniform coefficients over the field
//! `F_p` (`p = 2^61 − 1`) is a k-wise independent function `F_p → F_p`;
//! reducing mod `m` gives a nearly uniform k-wise family `[N] → [m]` for
//! `N, m ≪ p`. Descriptions take `k · 61` bits, which is `O(k log n)`.

use rand::{Rng, RngExt};

/// The Mersenne prime `2^61 − 1`.
const MERSENNE_61: u64 = (1u64 << 61) - 1;

/// Multiplies two field elements mod `2^61 − 1` via 128-bit arithmetic.
#[inline]
fn mul_mod(a: u64, b: u64) -> u64 {
    let prod = u128::from(a) * u128::from(b);
    let lo = (prod & u128::from(MERSENNE_61)) as u64;
    let hi = (prod >> 61) as u64;
    let mut s = lo + hi;
    if s >= MERSENNE_61 {
        s -= MERSENNE_61;
    }
    s
}

/// A member of a k-wise independent hash family `[N] → [m]`.
///
/// # Example
///
/// ```
/// use cgc_pseudo::KWiseHash;
/// use cgc_net::SeedStream;
///
/// let mut rng = SeedStream::new(3).rng_for(0, 0);
/// let h = KWiseHash::new(&mut rng, 4, 100);
/// assert!(h.eval(12345) < 100);
/// assert_eq!(h.eval(7), h.eval(7)); // deterministic
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KWiseHash {
    coeffs: Vec<u64>,
    m: u64,
}

impl KWiseHash {
    /// Samples a uniform member with independence `k` and range `[m]`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `m == 0`.
    pub fn new(rng: &mut impl Rng, k: usize, m: u64) -> Self {
        assert!(k > 0, "independence k must be positive");
        assert!(m > 0, "range m must be positive");
        let coeffs = (0..k).map(|_| rng.random_range(0..MERSENNE_61)).collect();
        KWiseHash { coeffs, m }
    }

    /// Evaluates the hash at `x`.
    pub fn eval(&self, x: u64) -> u64 {
        let x = x % MERSENNE_61;
        // Horner evaluation.
        let mut acc: u64 = 0;
        for &c in self.coeffs.iter().rev() {
            acc = mul_mod(acc, x);
            acc += c;
            if acc >= MERSENNE_61 {
                acc -= MERSENNE_61;
            }
        }
        acc % self.m
    }

    /// Independence parameter `k`.
    pub fn independence(&self) -> usize {
        self.coeffs.len()
    }

    /// Range size `m`.
    pub fn range(&self) -> u64 {
        self.m
    }

    /// Description length in bits (`k` field elements + the range).
    pub fn description_bits(&self) -> u64 {
        self.coeffs.len() as u64 * 61 + 64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgc_net::SeedStream;

    #[test]
    fn mul_mod_agrees_with_naive() {
        let cases = [
            (0u64, 0u64),
            (1, MERSENNE_61 - 1),
            (123456789, 987654321),
            (MERSENNE_61 - 1, MERSENNE_61 - 1),
        ];
        for (a, b) in cases {
            let expect = ((u128::from(a) * u128::from(b)) % u128::from(MERSENNE_61)) as u64;
            assert_eq!(mul_mod(a, b), expect, "a={a} b={b}");
        }
    }

    #[test]
    fn range_respected() {
        let mut rng = SeedStream::new(1).rng_for(0, 0);
        let h = KWiseHash::new(&mut rng, 6, 17);
        for x in 0..1000u64 {
            assert!(h.eval(x) < 17);
        }
    }

    #[test]
    fn roughly_uniform_marginals() {
        let mut rng = SeedStream::new(2).rng_for(0, 0);
        let m = 8u64;
        let h = KWiseHash::new(&mut rng, 4, m);
        let mut counts = vec![0usize; m as usize];
        let samples = 8000u64;
        for x in 0..samples {
            counts[h.eval(x) as usize] += 1;
        }
        let expect = samples as f64 / m as f64;
        for (b, &c) in counts.iter().enumerate() {
            let ratio = c as f64 / expect;
            assert!((0.85..1.15).contains(&ratio), "bucket {b} ratio {ratio}");
        }
    }

    #[test]
    fn pairwise_collision_rate_near_one_over_m() {
        let s = SeedStream::new(3);
        let m = 64u64;
        let mut collisions = 0usize;
        let fams = 2000;
        for f in 0..fams {
            let mut rng = s.rng_for(f, 0);
            let h = KWiseHash::new(&mut rng, 2, m);
            if h.eval(11) == h.eval(42) {
                collisions += 1;
            }
        }
        let rate = collisions as f64 / fams as f64;
        let expect = 1.0 / m as f64;
        assert!(rate < 3.0 * expect + 0.01, "collision rate {rate}");
    }

    #[test]
    fn description_bits_scale_with_k() {
        let mut rng = SeedStream::new(4).rng_for(0, 0);
        let h2 = KWiseHash::new(&mut rng, 2, 10);
        let h8 = KWiseHash::new(&mut rng, 8, 10);
        assert!(h8.description_bits() > h2.description_bits());
        assert_eq!(h2.independence(), 2);
        assert_eq!(h8.range(), 10);
    }

    #[test]
    #[should_panic(expected = "independence k must be positive")]
    fn zero_k_panics() {
        let mut rng = SeedStream::new(5).rng_for(0, 0);
        KWiseHash::new(&mut rng, 0, 10);
    }
}
