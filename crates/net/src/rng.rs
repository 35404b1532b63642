//! Deterministic per-entity random streams.
//!
//! The paper's model gives every machine access to private random bits
//! (§3.2). For reproducible experiments we derive every entity's stream from
//! a single master seed through a SplitMix64 key-derivation step, so that a
//! run is fully determined by `(seed, topology, parameters)` and any
//! experiment row can be replayed.

use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
pub use rand_chacha::BULK_RUN_BYTES;

/// SplitMix64 finalizer, used to decorrelate derived seeds.
#[inline]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A factory of independent, deterministic random streams keyed by
/// `(entity, salt)` pairs.
///
/// # Example
///
/// ```
/// use cgc_net::SeedStream;
/// use rand::RngExt;
///
/// let s = SeedStream::new(42);
/// let mut a = s.rng_for(7, 0);
/// let mut b = s.rng_for(7, 0);
/// assert_eq!(a.random::<u64>(), b.random::<u64>()); // replayable
/// let mut c = s.rng_for(8, 0);
/// // different entity: (almost surely) a different stream
/// let _ = c.random::<u64>();
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedStream {
    master: u64,
}

impl SeedStream {
    /// Creates a stream factory from a master seed.
    pub fn new(master: u64) -> Self {
        SeedStream { master }
    }

    /// The master seed.
    pub fn master(&self) -> u64 {
        self.master
    }

    /// Derives the RNG for entity `id` with the given `salt`
    /// (e.g. a round number or a stage tag).
    pub fn rng_for(&self, id: u64, salt: u64) -> ChaCha8Rng {
        let k = splitmix64(
            self.master ^ splitmix64(id) ^ splitmix64(salt.wrapping_mul(0xA24B_AED4_963E_E407)),
        );
        ChaCha8Rng::seed_from_u64(k)
    }

    /// Derives a child factory, useful to namespace a whole stage.
    pub fn child(&self, salt: u64) -> SeedStream {
        SeedStream {
            master: splitmix64(self.master ^ splitmix64(salt)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngExt;

    #[test]
    fn same_key_same_stream() {
        let s = SeedStream::new(123);
        let xs: Vec<u64> = (0..8).map(|_| 0u64).collect();
        let mut a = s.rng_for(5, 9);
        let mut b = s.rng_for(5, 9);
        let va: Vec<u64> = xs.iter().map(|_| a.random()).collect();
        let vb: Vec<u64> = xs.iter().map(|_| b.random()).collect();
        assert_eq!(va, vb);
    }

    #[test]
    fn different_salt_different_stream() {
        let s = SeedStream::new(123);
        let mut a = s.rng_for(5, 0);
        let mut b = s.rng_for(5, 1);
        let va: Vec<u64> = (0..4).map(|_| a.random()).collect();
        let vb: Vec<u64> = (0..4).map(|_| b.random()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn child_streams_are_namespaced() {
        let s = SeedStream::new(7);
        let c1 = s.child(1);
        let c2 = s.child(2);
        assert_ne!(c1, c2);
        let mut a = c1.rng_for(0, 0);
        let mut b = c2.rng_for(0, 0);
        assert_ne!(a.random::<u64>(), b.random::<u64>());
    }

    /// The first draws of two streams, recorded with the one-block-at-a-time
    /// ChaCha8 refill: every stream consumer's output depends on them.
    #[test]
    fn keystream_is_pinned() {
        use rand::Rng;
        let pins = [
            (
                SeedStream::new(0).rng_for(0, 0),
                [
                    0x21e7_cdc9_5391_71ba,
                    0x0c5b_e415_e0d5_25a3,
                    0xbe0e_74b5_2802_2af5,
                    0x8fc2_a860_da2d_b203,
                    0x5aca_0801_4124_c8ef,
                    0x1222_af6e_1b87_13aa,
                    0x5f6b_15f3_3584_fce4,
                    0xaf76_7bf9_915b_2990,
                ],
            ),
            (
                SeedStream::new(7).rng_for(3, 11),
                [
                    0x1c3b_1aa8_681a_6fa7,
                    0x6bf9_a410_ddad_0c8b,
                    0x8688_543c_8113_e607,
                    0x4b48_102b_ee21_6d23,
                    0x185d_eb7b_abdb_8408,
                    0x626a_d905_7068_9cef,
                    0x06f8_b058_2797_23e5,
                    0x50ce_f8da_c028_ac0e,
                ],
            ),
        ];
        for (mut rng, want) in pins {
            let got: Vec<u64> = (0..want.len()).map(|_| rng.next_u64()).collect();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn uniformity_smoke() {
        // Not a statistical test, just a sanity check that derived streams
        // cover the range reasonably.
        let s = SeedStream::new(99);
        let mut counts = [0usize; 4];
        for id in 0..400u64 {
            let mut r = s.rng_for(id, 0);
            counts[r.random_range(0..4usize)] += 1;
        }
        for c in counts {
            assert!(c > 50, "bucket too empty: {c}");
        }
    }
}
