//! Geometric random variables (paper §5.1).
//!
//! `X` is geometric with parameter `λ ∈ (0,1)` when
//! `Pr[X = k] = λ^k − λ^{k+1}` for `k ∈ ℕ₀`, equivalently
//! `Pr[X ≥ k] = λ^k`: the number of consecutive successes of a
//! probability-`λ` coin. The paper uses `λ = 1/2` throughout.

use cgc_net::BULK_RUN_BYTES;
use rand::{Rng, RngExt};

/// Hard cap on sampled values. `Pr[X ≥ 192] = 2^{-192}` for `λ = 1/2`,
/// far below any failure probability we account for; the cap keeps the
/// sampler total and values within an `i16` after aggregation.
pub const GEOMETRIC_CAP: u16 = 192;

/// Samples a geometric variable of parameter `lambda`.
///
/// For `λ = 1/2` this uses the trailing-zeros trick on a uniform 64-bit
/// word (plus extension words below the cap) and costs O(1) expected time.
/// [`crate::FingerprintMatrix::sample`] maps bulk-drawn words to the same
/// values, so its rows equal per-trial draws: a chunk whose words all
/// have a low half that is not all ones goes through a branch-free map of
/// those halves, and any other chunk through this rule word by word.
///
/// # Panics
///
/// Panics if `lambda` is not in `(0, 1)`.
pub fn sample_geometric(rng: &mut impl Rng, lambda: f64) -> u16 {
    assert!(lambda > 0.0 && lambda < 1.0, "lambda must be in (0,1)");
    if (lambda - 0.5).abs() < f64::EPSILON {
        let mut heads = 0;
        loop {
            match half_step(heads, rng.random()) {
                Ok(x) => return x,
                Err(more) => heads = more,
            }
        }
    }
    let mut k: u16 = 0;
    while k < GEOMETRIC_CAP && rng.random::<f64>() < lambda {
        k += 1;
    }
    k
}

/// One word of the `λ = 1/2` rule: the trailing ones of a uniform word
/// are consecutive heads. Given the `heads` counted so far, `Ok` is the
/// drawn value; an all-ones word (probability 2^−64) is `Err` with the
/// new count, and the draw goes on into the next word, up to
/// [`GEOMETRIC_CAP`].
#[inline]
fn half_step(heads: u16, word: u64) -> Result<u16, u16> {
    let ones = word.trailing_ones() as u16;
    let heads = heads + ones;
    if ones < 64 || heads >= GEOMETRIC_CAP {
        Ok(heads.min(GEOMETRIC_CAP))
    } else {
        Err(heads)
    }
}

/// Bytes a row draws per bulk request, at most: four whole direct runs
/// of the keystream (512 `u64`, 4 KiB on the stack).
const ROW_CHUNK_BYTES: usize = 4 * BULK_RUN_BYTES;

/// Fills `row` with `sample_geometric(rng, 0.5) + 1` per trial, in trial
/// order, drawing the words in bulk: each request takes the words the
/// row's remaining trials need, rounded up to whole direct runs of the
/// keystream ([`BULK_RUN_BYTES`]), through [`Rng::fill_bytes`] into a
/// stack chunk. A chunk that starts a trial is mapped one word a trial by
/// [`map_low_halves`], which reads only each word's low half; when some
/// mapped low half is all ones (probability about 2^−32 a word), or the
/// chunk starts inside a trial, the chunk is mapped again word by word by
/// the rule `sample_geometric` applies, the only code that handles values
/// of 32 or more and extension words. The rng may be left past the row's
/// last word, so it must be dropped after the row.
pub(crate) fn fill_half_geometric_row(rng: &mut impl Rng, row: &mut [u8]) {
    let mut chunk = [0u8; ROW_CHUNK_BYTES];
    let (mut filled, mut heads) = (0, 0);
    while filled < row.len() {
        let bytes = (8 * (row.len() - filled))
            .next_multiple_of(BULK_RUN_BYTES)
            .min(ROW_CHUNK_BYTES);
        let chunk = &mut chunk[..bytes];
        rng.fill_bytes(chunk);
        if heads == 0 && map_low_halves(chunk, &mut row[filled..]) {
            filled = row.len().min(filled + bytes / 8);
            continue;
        }
        let mut words = chunk
            .chunks_exact(8)
            .map(|w| u64::from_le_bytes(w.try_into().expect("eight bytes")));
        // One word per trial, until an all-ones word leaves its trial open:
        // the pairing then restarts with that trial and the next word.
        'trials: loop {
            for (y, word) in row[filled..].iter_mut().zip(&mut words) {
                match half_step(heads, word) {
                    Ok(x) => {
                        // Capped at 192, so `x + 1` fits a byte.
                        *y = x as u8 + 1;
                        filled += 1;
                        heads = 0;
                    }
                    Err(more) => {
                        heads = more;
                        continue 'trials;
                    }
                }
            }
            break;
        }
    }
}

/// Maps the little-endian words of `words` to `row`, one word a trial,
/// as far as both reach, and returns whether every mapped word's low
/// half `lo` is not all ones; the bytes written are then the row's
/// values. Such a word's trailing ones are those of `lo`, `k < 32`, and
/// its stored byte `k + 1` is read without a branch: `low`, the lowest
/// zero bit of `lo` as a one, is `2^k`, which an `f32` holds exactly
/// with exponent field `127 + k`. An all-ones `lo` gives `low = 0`, and
/// the wrapping subtraction a byte that is not used.
fn map_low_halves(words: &[u8], row: &mut [u8]) -> bool {
    let mut long = false;
    for (y, w) in row.iter_mut().zip(words.chunks_exact(8)) {
        let lo = u32::from_le_bytes(w[..4].try_into().expect("four bytes"));
        let x = !lo;
        let low = x & x.wrapping_neg();
        // Through `i32`, which converts to `f32` in one SSE2 instruction;
        // bit 31 lands in the sign, which the mask drops.
        let exponent = (((low as i32) as f32).to_bits() >> 23) & 0xff;
        *y = (exponent as u8).wrapping_sub(126);
        long |= lo == u32::MAX;
    }
    !long
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgc_net::SeedStream;

    /// `u64` words in one bulk request's chunk.
    const ROW_CHUNK_WORDS: usize = ROW_CHUNK_BYTES / 8;

    #[test]
    fn half_parameter_tail_probability() {
        // Pr[X >= 1] = 1/2, Pr[X >= 3] = 1/8 — check within loose bounds.
        let mut rng = SeedStream::new(11).rng_for(0, 0);
        let n = 20_000;
        let mut ge1 = 0usize;
        let mut ge3 = 0usize;
        for _ in 0..n {
            let x = sample_geometric(&mut rng, 0.5);
            if x >= 1 {
                ge1 += 1;
            }
            if x >= 3 {
                ge3 += 1;
            }
        }
        let p1 = ge1 as f64 / n as f64;
        let p3 = ge3 as f64 / n as f64;
        assert!((p1 - 0.5).abs() < 0.02, "p1 = {p1}");
        assert!((p3 - 0.125).abs() < 0.02, "p3 = {p3}");
    }

    #[test]
    fn generic_parameter_matches_half_distribution() {
        let mut rng = SeedStream::new(12).rng_for(0, 0);
        let n = 20_000;
        let mean_slow: f64 = (0..n)
            .map(|_| f64::from(sample_geometric(&mut rng, 0.5 + 1e-12)))
            .sum::<f64>()
            / n as f64;
        // E[X] = λ/(1-λ) = 1 for λ=1/2.
        assert!((mean_slow - 1.0).abs() < 0.1, "mean {mean_slow}");
    }

    #[test]
    fn values_capped() {
        let mut rng = SeedStream::new(13).rng_for(0, 0);
        for _ in 0..1000 {
            assert!(sample_geometric(&mut rng, 0.9) <= GEOMETRIC_CAP);
        }
    }

    #[test]
    #[should_panic(expected = "lambda must be in (0,1)")]
    fn invalid_lambda_panics() {
        let mut rng = SeedStream::new(1).rng_for(0, 0);
        sample_geometric(&mut rng, 1.0);
    }

    /// Replays a fixed word list as its `u64` draws; bulk draws go through
    /// the trait's default `fill_bytes`, one `u64` per eight bytes.
    struct Script<'a>(std::slice::Iter<'a, u64>);

    impl Rng for Script<'_> {
        fn next_u64(&mut self) -> u64 {
            *self.0.next().expect("script shorter than the draw")
        }
    }

    /// `(i, words)`: trial `i` starts with `words`.
    type Runs = &'static [(usize, &'static [u64])];

    /// Whether a trial that starts with `words` needs another word: they
    /// are all ones and fewer than the three that reach the cap.
    fn open(words: &[u64]) -> bool {
        words.len() < 3 && words.iter().all(|&w| w == u64::MAX)
    }

    /// A row's word stream in which trial `i` of each `(i, words)` in
    /// `runs` starts with `words` (followed by a seeded word while the
    /// trial is [`open`]), and every other word is drawn from a seeded
    /// stream; then a chunk of spare words.
    fn script(t: usize, runs: Runs) -> Vec<u64> {
        let mut filler = SeedStream::new(5).rng_for(0, 0);
        let mut words = Vec::new();
        for i in 0..t {
            let first = runs
                .iter()
                .find(|run| run.0 == i)
                .map_or(&[][..], |run| run.1);
            words.extend_from_slice(first);
            if open(first) {
                words.push(filler.next_u64());
            }
        }
        words.extend((0..ROW_CHUNK_WORDS).map(|_| filler.next_u64()));
        words
    }

    /// `t` trials, each drawn by `sample_geometric` from `rng`, as stored
    /// bytes.
    fn per_trial(rng: &mut impl Rng, t: usize) -> Vec<u8> {
        (0..t)
            .map(|_| sample_geometric(rng, 0.5) as u8 + 1)
            .collect()
    }

    /// All ones: a trial that goes on into the next word.
    const ONES: u64 = u64::MAX;
    /// Low halves of all ones under high halves that are not, values 32,
    /// 32 and 63: words only the word-by-word rule maps.
    const LOW_32: u64 = 0x0000_0000_FFFF_FFFF;
    const HIGH_32: u64 = 0xFFFF_FFFE_FFFF_FFFF;
    const ONES_63: u64 = 0x7FFF_FFFF_FFFF_FFFF;
    /// The last word of a chunk.
    const LAST: usize = ROW_CHUNK_WORDS - 1;

    /// An all-ones word has probability 2^−64 per trial, and a word with
    /// 32 trailing ones 2^−33, so no seeded stream reaches the extension
    /// words or the long low halves: script them. With no extension word
    /// before it, trial `i` is word `i`, so a 600-trial row's first chunk
    /// holds trials `0..512` and its second starts at trial 512. The bulk
    /// row must equal per-trial `sample_geometric` over the same words.
    #[test]
    fn bulk_rows_follow_extension_words() {
        let cases: [(&str, usize, Runs); 13] = [
            ("one alone", 600, &[(5, &[ONES])]),
            (
                "two, then three (the cap)",
                600,
                &[(10, &[ONES, ONES]), (20, &[ONES, ONES, ONES])],
            ),
            (
                "three, then one more",
                600,
                &[(30, &[ONES, ONES, ONES]), (31, &[ONES])],
            ),
            ("last word of a chunk", 600, &[(LAST, &[ONES])]),
            ("two across a chunk end", 600, &[(LAST, &[ONES, ONES])]),
            ("a row's last trial", 600, &[(599, &[ONES])]),
            (
                "last trial at a chunk end",
                ROW_CHUNK_WORDS,
                &[(LAST, &[ONES, ONES])],
            ),
            (
                "long low halves at a chunk's first word",
                600,
                &[(0, &[LOW_32]), (ROW_CHUNK_WORDS, &[HIGH_32])],
            ),
            (
                "long low halves at a chunk's last word",
                600,
                &[(LAST, &[ONES_63]), (599, &[LOW_32])],
            ),
            (
                "a long low half in a row's last trial",
                600,
                &[(599, &[HIGH_32])],
            ),
            (
                "a long low half ending an extension",
                600,
                &[(40, &[ONES, ONES_63]), (41, &[LOW_32])],
            ),
            (
                "one long low half a chunk",
                1200,
                &[(7, &[LOW_32]), (700, &[HIGH_32]), (1199, &[ONES_63])],
            ),
            (
                "a long low half after a chunk that ends a trial open",
                600,
                &[(LAST, &[ONES]), (ROW_CHUNK_WORDS, &[ONES_63])],
            ),
        ];
        for (what, t, runs) in cases {
            let words = script(t, runs);
            let mut row = vec![0u8; t];
            fill_half_geometric_row(&mut Script(words.iter()), &mut row);
            assert_eq!(row, per_trial(&mut Script(words.iter()), t), "{what}");
            for &(i, first) in runs {
                let ones: u32 = first.iter().map(|w| w.trailing_ones()).sum();
                let least = ones.min(u32::from(GEOMETRIC_CAP)) + 1;
                if open(first) {
                    assert!(
                        u32::from(row[i]) >= least,
                        "{what}: trial {i} reads {}",
                        row[i]
                    );
                } else {
                    assert_eq!(u32::from(row[i]), least, "{what}: trial {i}");
                }
            }
        }
    }

    /// Seeded rows, whose chunks the branch-free map takes, against
    /// per-trial draws from the same stream: lengths at and around one
    /// direct run and one chunk, the benchmark's 2,281 and a whole 4,096.
    #[test]
    fn bulk_rows_equal_per_trial_draws() {
        let seeds = SeedStream::new(21);
        for t in [1, 63, 64, 65, 511, 512, 513, 2281, 4096] {
            for stream in 0..64 {
                let mut row = vec![0u8; t];
                fill_half_geometric_row(&mut seeds.rng_for(stream, t as u64), &mut row);
                let want = per_trial(&mut seeds.rng_for(stream, t as u64), t);
                assert_eq!(row, want, "t = {t}, stream {stream}");
            }
        }
    }

    /// The branch-free map takes a seeded chunk, writing each word's
    /// trailing ones plus one, and refuses a chunk with one long low half
    /// among the words it maps, but not one past the row's end.
    #[test]
    fn word_map_takes_seeded_chunks_and_refuses_long_low_halves() {
        let mut rng = SeedStream::new(22).rng_for(0, 0);
        let mut chunk = [0u8; ROW_CHUNK_BYTES];
        rng.fill_bytes(&mut chunk);
        let words: Vec<u64> = chunk
            .chunks_exact(8)
            .map(|w| u64::from_le_bytes(w.try_into().expect("eight bytes")))
            .collect();
        let mut row = [0u8; ROW_CHUNK_WORDS];
        assert!(map_low_halves(&chunk, &mut row), "a seeded chunk");
        let want: Vec<u8> = words.iter().map(|w| w.trailing_ones() as u8 + 1).collect();
        assert_eq!(row[..], want[..]);
        for (at, word) in [(0, LOW_32), (300, HIGH_32), (ROW_CHUNK_WORDS - 1, ONES_63)] {
            let mut long = chunk;
            long[8 * at..8 * at + 8].copy_from_slice(&word.to_le_bytes());
            assert!(
                !map_low_halves(&long, &mut row),
                "long low half at word {at}"
            );
            assert!(
                map_low_halves(&long, &mut row[..at]),
                "long low half past a row of {at}"
            );
        }
    }
}
