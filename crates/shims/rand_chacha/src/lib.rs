//! Offline stand-in for `rand_chacha`: [`ChaCha8Rng`] is a genuine
//! ChaCha keystream generator with 8 rounds (RFC 8439 block function,
//! reduced round count), seeded by a 256-bit key. Only the API surface
//! this workspace uses is provided: [`rand_core::SeedableRng`] and the
//! workspace [`rand::Rng`] source trait.
//!
//! # Buffer layout
//!
//! The keystream is the blocks at counter 0, 1, 2, … in order, each 16
//! little-endian `u32` words; words 12/13 of the input block hold the
//! 64-bit block counter. The generator buffers up to eight consecutive
//! blocks (128 words) and reads them front to back, so `buf[idx..]` is
//! always the unread rest of the stream's current window:
//!
//! * A **wide refill** computes blocks `c .. c + 8` in one lane-parallel
//!   pass — lane `l` runs counter `c + l`, carrying from word 12 into
//!   word 13 — and fills the whole buffer (`idx = 0`).
//! * A **single refill** computes block `c` alone into the last 16 words
//!   (`idx = 112`).
//!
//! Both yield the same words as computing one block at a time, so which
//! refill ran never changes the stream. `next_u64` takes two buffered
//! words (low word first) behind one bounds check. With fewer than two
//! buffered (a stream's first draw, a draw that finds the buffer used up,
//! or one that starts at its last word) it reads word by word through
//! `next_u32`, which refills.
//!
//! # Which refill runs
//!
//! A stream's first two blocks (counter 0 and 1, read off words 12/13)
//! always take the single refill. Most streams draw at most 16 `u64`
//! (84–98% of them on the benchmark's solve, serve and churn workloads:
//! trial colors, recolor draws, generator rows), and a wide refill would
//! compute eight blocks to serve them; with a wide first refill, graph
//! setup measured 8–10% slower on a 2-core x86_64 host. From the third
//! block on, a refill is wide when the CPU supports AVX2, checked at run
//! time with `is_x86_feature_detected!` on x86_64; on other CPUs and
//! targets every refill is single.

use rand::{Rng, SeedableRng};

/// Re-exports mirroring `rand_chacha::rand_core`.
pub mod rand_core {
    pub use rand::{Rng as RngCore, SeedableRng};
}

const CHACHA_ROUNDS: usize = 8;
/// Words in one ChaCha block.
const BLOCK_WORDS: usize = 16;
/// Blocks one wide refill computes.
const WIDE_BLOCKS: usize = 8;
/// Buffer capacity: one wide refill.
const BUF_WORDS: usize = BLOCK_WORDS * WIDE_BLOCKS;
/// Blocks at the start of every stream that always take the single refill.
const SINGLE_LEAD_BLOCKS: u64 = 2;

/// A ChaCha8 random number generator.
#[derive(Debug, Clone)]
pub struct ChaCha8Rng {
    /// Key words 4..12 and counter/nonce words 12..16 of the input block;
    /// words 12/13 hold the counter of the next block to compute.
    state: [u32; 16],
    /// Buffered output; `buf[idx..]` is unread (see the module docs).
    buf: [u32; BUF_WORDS],
    /// Next unread word of `buf` (`BUF_WORDS` = exhausted).
    idx: usize,
}

#[inline]
fn quarter_round(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(16);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(12);
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(8);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(7);
}

/// The ChaCha8 block function: the output block of input `state`.
fn block(state: &[u32; 16]) -> [u32; 16] {
    let mut working = *state;
    for _ in 0..CHACHA_ROUNDS / 2 {
        // Column round.
        quarter_round(&mut working, 0, 4, 8, 12);
        quarter_round(&mut working, 1, 5, 9, 13);
        quarter_round(&mut working, 2, 6, 10, 14);
        quarter_round(&mut working, 3, 7, 11, 15);
        // Diagonal round.
        quarter_round(&mut working, 0, 5, 10, 15);
        quarter_round(&mut working, 1, 6, 11, 12);
        quarter_round(&mut working, 2, 7, 8, 13);
        quarter_round(&mut working, 3, 4, 9, 14);
    }
    for (w, s) in working.iter_mut().zip(state.iter()) {
        *w = w.wrapping_add(*s);
    }
    working
}

impl ChaCha8Rng {
    /// The 64-bit counter of the next block to compute.
    fn counter(&self) -> u64 {
        u64::from(self.state[12]) | (u64::from(self.state[13]) << 32)
    }

    fn set_counter(&mut self, counter: u64) {
        self.state[12] = counter as u32;
        self.state[13] = (counter >> 32) as u32;
    }

    /// Buffers the next blocks of the stream (see the module docs).
    #[inline(never)]
    fn refill(&mut self) {
        let counter = self.counter();
        let blocks = if counter >= SINGLE_LEAD_BLOCKS && self.refill_wide() {
            self.idx = 0;
            WIDE_BLOCKS
        } else {
            self.buf[BUF_WORDS - BLOCK_WORDS..].copy_from_slice(&block(&self.state));
            self.idx = BUF_WORDS - BLOCK_WORDS;
            1
        };
        self.set_counter(counter.wrapping_add(blocks as u64));
    }

    /// `next_u64` with fewer than two words buffered: the buffer is used
    /// up, or the draw starts at its last word. Either way the draw spans
    /// a refill, so it goes word by word.
    fn next_u64_across_refill(&mut self) -> u64 {
        let lo = u64::from(self.next_u32());
        let hi = u64::from(self.next_u32());
        (hi << 32) | lo
    }

    /// Fills the whole buffer with the eight blocks from the current
    /// counter on, if this CPU has the wide kernel; returns whether it did.
    #[cfg(target_arch = "x86_64")]
    fn refill_wide(&mut self) -> bool {
        if !std::arch::is_x86_feature_detected!("avx2") {
            return false;
        }
        // SAFETY: AVX2 support was just detected at run time.
        unsafe { avx2::blocks8(&self.state, &mut self.buf) };
        true
    }

    #[cfg(not(target_arch = "x86_64"))]
    fn refill_wide(&mut self) -> bool {
        false
    }
}

/// The eight-lane AVX2 block kernel.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{BLOCK_WORDS, BUF_WORDS, CHACHA_ROUNDS, WIDE_BLOCKS};
    use std::arch::x86_64::*;

    /// Rotates every 32-bit lane left by 16 (a byte shuffle).
    #[inline]
    #[target_feature(enable = "avx2")]
    fn rotl16(x: __m256i) -> __m256i {
        let m = _mm256_setr_epi8(
            2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13, //
            2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13,
        );
        _mm256_shuffle_epi8(x, m)
    }

    /// Rotates every 32-bit lane left by 8 (a byte shuffle).
    #[inline]
    #[target_feature(enable = "avx2")]
    fn rotl8(x: __m256i) -> __m256i {
        let m = _mm256_setr_epi8(
            3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14, //
            3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14,
        );
        _mm256_shuffle_epi8(x, m)
    }

    /// Rotates every 32-bit lane left by `L` (`R` = 32 − `L`).
    #[inline]
    #[target_feature(enable = "avx2")]
    fn rotl<const L: i32, const R: i32>(x: __m256i) -> __m256i {
        _mm256_or_si256(_mm256_slli_epi32::<L>(x), _mm256_srli_epi32::<R>(x))
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn quarter_round(x: &mut [__m256i; 16], a: usize, b: usize, c: usize, d: usize) {
        x[a] = _mm256_add_epi32(x[a], x[b]);
        x[d] = rotl16(_mm256_xor_si256(x[d], x[a]));
        x[c] = _mm256_add_epi32(x[c], x[d]);
        x[b] = rotl::<12, 20>(_mm256_xor_si256(x[b], x[c]));
        x[a] = _mm256_add_epi32(x[a], x[b]);
        x[d] = rotl8(_mm256_xor_si256(x[d], x[a]));
        x[c] = _mm256_add_epi32(x[c], x[d]);
        x[b] = rotl::<7, 25>(_mm256_xor_si256(x[b], x[c]));
    }

    /// Transposes eight vectors of eight words: lane `l` of `r[i]` moves to
    /// lane `i` of output `l`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn transpose8(r: &[__m256i]) -> [__m256i; 8] {
        let t0 = _mm256_unpacklo_epi32(r[0], r[1]);
        let t1 = _mm256_unpackhi_epi32(r[0], r[1]);
        let t2 = _mm256_unpacklo_epi32(r[2], r[3]);
        let t3 = _mm256_unpackhi_epi32(r[2], r[3]);
        let t4 = _mm256_unpacklo_epi32(r[4], r[5]);
        let t5 = _mm256_unpackhi_epi32(r[4], r[5]);
        let t6 = _mm256_unpacklo_epi32(r[6], r[7]);
        let t7 = _mm256_unpackhi_epi32(r[6], r[7]);
        let u0 = _mm256_unpacklo_epi64(t0, t2);
        let u1 = _mm256_unpackhi_epi64(t0, t2);
        let u2 = _mm256_unpacklo_epi64(t1, t3);
        let u3 = _mm256_unpackhi_epi64(t1, t3);
        let u4 = _mm256_unpacklo_epi64(t4, t6);
        let u5 = _mm256_unpackhi_epi64(t4, t6);
        let u6 = _mm256_unpacklo_epi64(t5, t7);
        let u7 = _mm256_unpackhi_epi64(t5, t7);
        [
            _mm256_permute2x128_si256::<0x20>(u0, u4),
            _mm256_permute2x128_si256::<0x20>(u1, u5),
            _mm256_permute2x128_si256::<0x20>(u2, u6),
            _mm256_permute2x128_si256::<0x20>(u3, u7),
            _mm256_permute2x128_si256::<0x31>(u0, u4),
            _mm256_permute2x128_si256::<0x31>(u1, u5),
            _mm256_permute2x128_si256::<0x31>(u2, u6),
            _mm256_permute2x128_si256::<0x31>(u3, u7),
        ]
    }

    /// Writes the eight blocks at counters `c .. c + 8` of input `state`
    /// (`c` = words 12/13, wrapping at 2^64) to `out`, block `l` at words
    /// `16·l .. 16·l + 16`. Vector `x[i]` holds word `i` of all eight
    /// blocks, lane `l` for block `l`.
    ///
    /// # Safety
    ///
    /// Outside code compiled for AVX2 the call needs an `unsafe` block, and
    /// the caller must first check that the CPU has AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) fn blocks8(state: &[u32; 16], out: &mut [u32; BUF_WORDS]) {
        let counter = u64::from(state[12]) | (u64::from(state[13]) << 32);
        let mut x = [_mm256_setzero_si256(); 16];
        for (xi, &s) in x.iter_mut().zip(state) {
            *xi = _mm256_set1_epi32(s as i32);
        }
        // Words 12/13 of lane `l`: the 64-bit counter `c + l`.
        let lo = |l: u64| counter.wrapping_add(l) as u32 as i32;
        let hi = |l: u64| (counter.wrapping_add(l) >> 32) as u32 as i32;
        x[12] = _mm256_setr_epi32(lo(0), lo(1), lo(2), lo(3), lo(4), lo(5), lo(6), lo(7));
        x[13] = _mm256_setr_epi32(hi(0), hi(1), hi(2), hi(3), hi(4), hi(5), hi(6), hi(7));
        let input = x;
        for _ in 0..CHACHA_ROUNDS / 2 {
            quarter_round(&mut x, 0, 4, 8, 12);
            quarter_round(&mut x, 1, 5, 9, 13);
            quarter_round(&mut x, 2, 6, 10, 14);
            quarter_round(&mut x, 3, 7, 11, 15);
            quarter_round(&mut x, 0, 5, 10, 15);
            quarter_round(&mut x, 1, 6, 11, 12);
            quarter_round(&mut x, 2, 7, 8, 13);
            quarter_round(&mut x, 3, 4, 9, 14);
        }
        for (xi, ii) in x.iter_mut().zip(&input) {
            *xi = _mm256_add_epi32(*xi, *ii);
        }
        let front = transpose8(&x[..8]);
        let back = transpose8(&x[8..]);
        for l in 0..WIDE_BLOCKS {
            let dst = &mut out[l * BLOCK_WORDS..(l + 1) * BLOCK_WORDS];
            let dst = dst.as_mut_ptr().cast::<__m256i>();
            // SAFETY: `dst` points at 16 in-bounds `u32`s (the slice above
            // is bounds-checked), so both unaligned 8-word stores stay
            // within it.
            unsafe {
                _mm256_storeu_si256(dst, front[l]);
                _mm256_storeu_si256(dst.add(1), back[l]);
            }
        }
    }
}

impl SeedableRng for ChaCha8Rng {
    type Seed = [u8; 32];

    fn from_seed(seed: Self::Seed) -> Self {
        let mut state = [0u32; 16];
        // "expand 32-byte k"
        state[0] = 0x6170_7865;
        state[1] = 0x3320_646e;
        state[2] = 0x7962_2d32;
        state[3] = 0x6b20_6574;
        for i in 0..8 {
            state[4 + i] =
                u32::from_le_bytes(seed[4 * i..4 * i + 4].try_into().expect("4-byte chunk"));
        }
        // Counter and nonce start at zero.
        ChaCha8Rng {
            state,
            buf: [0; BUF_WORDS],
            idx: BUF_WORDS,
        }
    }
}

impl Rng for ChaCha8Rng {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        if self.idx >= BUF_WORDS {
            self.refill();
        }
        let w = self.buf[self.idx];
        self.idx += 1;
        w
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        let i = self.idx;
        if i < BUF_WORDS - 1 {
            self.idx = i + 2;
            return (u64::from(self.buf[i + 1]) << 32) | u64::from(self.buf[i]);
        }
        self.next_u64_across_refill()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = ChaCha8Rng::seed_from_u64(42);
        let mut b = ChaCha8Rng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = ChaCha8Rng::seed_from_u64(43);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vc: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_ne!(va, vc);
    }

    #[test]
    fn keystream_is_balanced() {
        // Crude sanity: bit frequency over 64k bits within 3% of half.
        let mut r = ChaCha8Rng::seed_from_u64(7);
        let mut ones = 0u32;
        for _ in 0..1024 {
            ones += r.next_u64().count_ones();
        }
        let frac = f64::from(ones) / (1024.0 * 64.0);
        assert!((frac - 0.5).abs() < 0.03, "bit frequency {frac}");
    }

    #[test]
    fn blocks_advance() {
        // More than one 16-word block must not repeat.
        let mut r = ChaCha8Rng::seed_from_u64(1);
        let first: Vec<u32> = (0..16).map(|_| r.next_u32()).collect();
        let second: Vec<u32> = (0..16).map(|_| r.next_u32()).collect();
        assert_ne!(first, second);
    }

    /// The generator as it was before buffered multi-block refills: one
    /// scalar block per refill, `next_u64` as two `next_u32`. It shares no
    /// code with the module, so it pins the keystream itself.
    struct Reference {
        state: [u32; 16],
        buf: [u32; 16],
        idx: usize,
        /// Blocks computed so far.
        blocks: usize,
    }

    fn ref_quarter_round(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
        s[a] = s[a].wrapping_add(s[b]);
        s[d] = (s[d] ^ s[a]).rotate_left(16);
        s[c] = s[c].wrapping_add(s[d]);
        s[b] = (s[b] ^ s[c]).rotate_left(12);
        s[a] = s[a].wrapping_add(s[b]);
        s[d] = (s[d] ^ s[a]).rotate_left(8);
        s[c] = s[c].wrapping_add(s[d]);
        s[b] = (s[b] ^ s[c]).rotate_left(7);
    }

    impl Reference {
        /// The reference stream of `rng`'s key, nonce and counter; `rng`
        /// must not have been drawn from yet.
        fn of(rng: &ChaCha8Rng) -> Self {
            assert_eq!(rng.idx, BUF_WORDS, "reference of an undrawn generator");
            Reference {
                state: rng.state,
                buf: [0; 16],
                idx: 16,
                blocks: 0,
            }
        }

        fn refill(&mut self) {
            let mut working = self.state;
            for _ in 0..4 {
                ref_quarter_round(&mut working, 0, 4, 8, 12);
                ref_quarter_round(&mut working, 1, 5, 9, 13);
                ref_quarter_round(&mut working, 2, 6, 10, 14);
                ref_quarter_round(&mut working, 3, 7, 11, 15);
                ref_quarter_round(&mut working, 0, 5, 10, 15);
                ref_quarter_round(&mut working, 1, 6, 11, 12);
                ref_quarter_round(&mut working, 2, 7, 8, 13);
                ref_quarter_round(&mut working, 3, 4, 9, 14);
            }
            for (w, s) in working.iter_mut().zip(self.state.iter()) {
                *w = w.wrapping_add(*s);
            }
            self.buf = working;
            self.idx = 0;
            self.blocks += 1;
            let (lo, carry) = self.state[12].overflowing_add(1);
            self.state[12] = lo;
            if carry {
                self.state[13] = self.state[13].wrapping_add(1);
            }
        }
    }

    impl Rng for Reference {
        fn next_u32(&mut self) -> u32 {
            if self.idx >= 16 {
                self.refill();
            }
            let w = self.buf[self.idx];
            self.idx += 1;
            w
        }

        fn next_u64(&mut self) -> u64 {
            let lo = u64::from(self.next_u32());
            let hi = u64::from(self.next_u32());
            (hi << 32) | lo
        }
    }

    /// Blocks every stream below is compared over: the two single lead
    /// blocks, then several wide refills.
    const CHECKED_BLOCKS: usize = 40;

    /// Draws from `rng` and `reference` side by side until `reference`
    /// computed [`CHECKED_BLOCKS`] blocks. `op(step)` picks each call:
    /// 0 = `next_u32`, 1 = `next_u64`, `2 + len` = `fill_bytes` of `len`
    /// bytes.
    fn assert_same_stream(
        mut rng: ChaCha8Rng,
        mut reference: Reference,
        op: impl Fn(usize) -> u64,
        what: &str,
    ) {
        let mut step = 0;
        while reference.blocks < CHECKED_BLOCKS {
            match op(step) {
                0 => assert_eq!(rng.next_u32(), reference.next_u32(), "{what} step {step}"),
                1 => assert_eq!(rng.next_u64(), reference.next_u64(), "{what} step {step}"),
                k => {
                    let len = (k - 2) as usize;
                    let (mut a, mut b) = ([0u8; 28], [0u8; 28]);
                    rng.fill_bytes(&mut a[..len]);
                    reference.fill_bytes(&mut b[..len]);
                    assert_eq!(a, b, "{what} step {step}");
                }
            }
            step += 1;
        }
    }

    /// A pseudo-random call for `step` of the stream keyed `key`: each
    /// kind with odds 1/3, `fill_bytes` lengths 0..28 (odd ones included).
    fn mixed_op(key: u64, step: usize) -> u64 {
        let mut z = (key << 32 | step as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        match z % 3 {
            2 => 2 + (z >> 8) % 29,
            kind => kind,
        }
    }

    #[test]
    fn keystream_matches_single_block_reference() {
        for seed in 0..64u64 {
            let rng = ChaCha8Rng::seed_from_u64(seed);
            // One `next_u32`, then only `next_u64`: every draw starts at an
            // odd word, so one straddles each (even-length) buffer end.
            let odd = |step: usize| u64::from(step > 0);
            assert_same_stream(rng.clone(), Reference::of(&rng), odd, "odd");
            let mixed = |step| mixed_op(seed, step);
            assert_same_stream(rng.clone(), Reference::of(&rng), mixed, "mixed");
        }
    }

    #[test]
    fn wide_refill_carries_into_the_high_counter_word() {
        // Lanes 0..5 of the first wide refill sit below 2^32 and lanes
        // 5..8 above, so word 12 wraps inside one refill; the second
        // counter also wraps word 13 (the 64-bit counter) mid-refill.
        for counter in [(1u64 << 32) - 5, u64::MAX - 3] {
            for seed in 0..4u64 {
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                rng.set_counter(counter);
                let mixed = |step| mixed_op(seed, step);
                let what = format!("counter {counter:#x}");
                assert_same_stream(rng.clone(), Reference::of(&rng), mixed, &what);
            }
        }
    }

    /// Calls the wide kernel directly, so it is checked whichever refill
    /// path the generator takes on this CPU.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn wide_kernel_matches_reference_blocks() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            eprintln!("no AVX2 on this CPU: the wide kernel is unused and unchecked");
            return;
        }
        for seed in 0..16u64 {
            for counter in [0, 2, 7, (1u64 << 32) - 3, u64::MAX - 6] {
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                rng.set_counter(counter);
                let mut reference = Reference::of(&rng);
                let mut out = [0u32; BUF_WORDS];
                // SAFETY: AVX2 support was just detected at run time.
                unsafe { avx2::blocks8(&rng.state, &mut out) };
                for (l, got) in out.chunks_exact(BLOCK_WORDS).enumerate() {
                    let want: Vec<u32> = (0..BLOCK_WORDS).map(|_| reference.next_u32()).collect();
                    assert_eq!(got, want, "seed {seed} counter {counter:#x} lane {l}");
                }
            }
        }
    }
}
