//! Compressed fingerprint encoding (Lemmas 5.5–5.6).
//!
//! Maxima of `d` geometric(1/2) variables concentrate around `log d`:
//! Lemma 5.5 shows `Σ |Y_i − ⌈log d⌉| ≤ 8t` w.p. `1 − 2^{−t/10+1}`. The
//! encoding stores a baseline `k` (`O(log log d)` bits) and each deviation
//! `Y_i − k` in sign + unary with a `0` separator — `O(t + log log d)`
//! bits total. Empty trials ([`crate::fingerprint::EMPTY`]) are encoded as
//! value `−1` relative to the baseline like any other deviation.

use crate::fingerprint::Maximum;
#[cfg(test)]
use crate::fingerprint::EMPTY;
use crate::histogram::{Histogram, HEADER_BITS};

/// A growable bit buffer (LSB-first within bytes).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BitBuf {
    bytes: Vec<u8>,
    len: u64,
}

impl BitBuf {
    /// Empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of bits written.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether no bits were written.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends one bit.
    pub fn push(&mut self, bit: bool) {
        let byte = (self.len / 8) as usize;
        if byte == self.bytes.len() {
            self.bytes.push(0);
        }
        if bit {
            self.bytes[byte] |= 1 << (self.len % 8);
        }
        self.len += 1;
    }

    /// Appends the low `n` bits of `v`, LSB first.
    pub fn push_bits(&mut self, v: u64, n: u64) {
        for i in 0..n {
            self.push((v >> i) & 1 == 1);
        }
    }

    /// Reads the bit at position `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn get(&self, i: u64) -> bool {
        assert!(i < self.len, "bit index out of range");
        (self.bytes[(i / 8) as usize] >> (i % 8)) & 1 == 1
    }
}

/// Encoded size in bits of a maxima vector — a [`crate::Fingerprint`]'s
/// `i16` maxima or a [`crate::FingerprintMatrix`] row, with identical
/// results for the same values — without materializing the buffer (used
/// for bandwidth charging). The baseline is the median, which minimizes
/// the total size; both come from the vector's value histogram.
///
/// # Panics
///
/// Panics on an `i16` maximum outside `−1..=254`.
pub fn encoded_bits<T: Maximum>(maxima: &[T]) -> u64 {
    Histogram::of(maxima).encoded_bits()
}

/// Encodes a maxima vector under the Lemma 5.6 scheme.
///
/// # Panics
///
/// Panics on a maximum outside `−1..=254`.
pub fn encode_maxima(maxima: &[i16]) -> BitBuf {
    let k = Histogram::of(maxima).baseline();
    let mut buf = BitBuf::new();
    // Header: sign bit + 12-bit magnitude of the baseline.
    buf.push(k < 0);
    buf.push_bits(u64::from(k.unsigned_abs()), HEADER_BITS - 1);
    for &y in maxima {
        let d = i32::from(y) - k;
        buf.push(d < 0); // sign
        for _ in 0..d.unsigned_abs() {
            buf.push(true); // unary magnitude
        }
        buf.push(false); // separator
    }
    buf
}

/// Decodes a buffer produced by [`encode_maxima`]; `t` is the trial count.
///
/// # Panics
///
/// Panics if the buffer is truncated.
pub fn decode_maxima(buf: &BitBuf, t: usize) -> Vec<i16> {
    let mut pos: u64 = 0;
    let read = |pos: &mut u64| -> bool {
        let b = buf.get(*pos);
        *pos += 1;
        b
    };
    let neg = read(&mut pos);
    let mut mag: u64 = 0;
    for i in 0..(HEADER_BITS - 1) {
        if read(&mut pos) {
            mag |= 1 << i;
        }
    }
    let k = if neg { -(mag as i32) } else { mag as i32 };
    let mut out = Vec::with_capacity(t);
    for _ in 0..t {
        let sign = read(&mut pos);
        let mut run: i32 = 0;
        while read(&mut pos) {
            run += 1;
        }
        let d = if sign { -run } else { run };
        out.push((k + d) as i16);
    }
    out
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
    fn bitbuf_roundtrip() {
        let mut b = BitBuf::new();
        b.push(true);
        b.push(false);
        b.push_bits(0b1011, 4);
        assert_eq!(b.len(), 6);
        assert!(b.get(0));
        assert!(!b.get(1));
        assert!(b.get(2));
        assert!(b.get(3));
        assert!(!b.get(4));
        assert!(b.get(5));
    }

    #[test]
    fn encode_decode_roundtrip() {
        for seed in 0..5u64 {
            let m = maxima_of(300, 128, seed);
            let buf = encode_maxima(&m);
            let back = decode_maxima(&buf, m.len());
            assert_eq!(back, m);
            assert_eq!(buf.len(), encoded_bits(&m));
        }
    }

    #[test]
    fn byte_rows_meter_like_wide_maxima() {
        for seed in 0..4u64 {
            let wide = maxima_of(200, 256, seed);
            let bytes: Vec<u8> = wide.iter().map(|&y| (y + 1) as u8).collect();
            assert_eq!(encoded_bits(&bytes), encoded_bits(&wide));
        }
        assert_eq!(
            encoded_bits(&[0u8, 4, 0, 1]),
            encoded_bits(&[EMPTY, 3, EMPTY, 0])
        );
    }

    #[test]
    fn roundtrip_with_empty_trials() {
        let m = vec![EMPTY, 3, EMPTY, 0, 7];
        let buf = encode_maxima(&m);
        assert_eq!(decode_maxima(&buf, 5), m);
    }

    /// Lemma 5.5/5.6: size is O(t + loglog d) — concretely ≤ 13 + 10t for
    /// aggregated geometric maxima (deviation budget 8t plus separators).
    #[test]
    fn encoded_size_linear_in_t() {
        for &d in &[16usize, 256, 4096, 65536] {
            let t = 256;
            let m = maxima_of(d, t, 99);
            let bits = encoded_bits(&m);
            assert!(
                bits <= 13 + 10 * t as u64,
                "d = {d}: {bits} bits exceeds 13 + 10t"
            );
        }
    }

    #[test]
    fn encoded_size_beats_naive_for_large_d() {
        // Naive: t * 16-bit values. Compressed must win comfortably.
        let t = 512;
        let m = maxima_of(100_000, t, 7);
        assert!(encoded_bits(&m) < (t as u64) * 16 / 2);
    }

    #[test]
    fn baseline_is_near_log_d() {
        let m = maxima_of(1024, 512, 3);
        let k = Histogram::of(&m).baseline();
        // log2(1024) = 10; Lemma 5.2 puts K* within 2 of it.
        assert!((8..=13).contains(&k), "baseline {k}");
    }

    #[test]
    #[should_panic(expected = "bit index out of range")]
    fn truncated_buffer_panics() {
        let b = BitBuf::new();
        b.get(0);
    }
}
