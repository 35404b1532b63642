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
/// [`crate::FingerprintMatrix::sample`] maps bulk-drawn words by the same
/// rule, so its rows equal per-trial draws.
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
/// stack chunk, and the chunk's words are mapped in order by the rule
/// `sample_geometric` applies. The rng may be left past the row's last
/// word, so it must be dropped after the row.
pub(crate) fn fill_half_geometric_row(rng: &mut impl Rng, row: &mut [u8]) {
    let mut chunk = [0u8; ROW_CHUNK_BYTES];
    let (mut filled, mut heads) = (0, 0);
    while filled < row.len() {
        let bytes = (8 * (row.len() - filled))
            .next_multiple_of(BULK_RUN_BYTES)
            .min(ROW_CHUNK_BYTES);
        let chunk = &mut chunk[..bytes];
        rng.fill_bytes(chunk);
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

    /// `(i, r)`: trial `i` starts with `r` all-ones words.
    type Runs = &'static [(usize, usize)];

    /// A row's word stream in which trial `i` of each `(i, r)` in `runs`
    /// starts with `r` all-ones words (followed by the word that ends it
    /// when `r` < 3; three reach the cap), and every other word is drawn
    /// from a seeded stream; then a chunk of spare words.
    fn script(t: usize, runs: Runs) -> Vec<u64> {
        let mut filler = SeedStream::new(5).rng_for(0, 0);
        let mut words = Vec::new();
        for i in 0..t {
            let r = runs.iter().find(|run| run.0 == i).map_or(0, |run| run.1);
            words.extend(std::iter::repeat_n(u64::MAX, r));
            if r < 3 {
                words.push(filler.next_u64());
            }
        }
        words.extend((0..ROW_CHUNK_WORDS).map(|_| filler.next_u64()));
        words
    }

    /// An all-ones word has probability 2^−64 per trial, so no seeded
    /// stream reaches the extension words: script them. The bulk row must
    /// equal per-trial `sample_geometric` over the same words.
    #[test]
    fn bulk_rows_follow_extension_words() {
        let cases: [(&str, usize, Runs); 7] = [
            ("one alone", 600, &[(5, 1)]),
            ("two, then three (the cap)", 600, &[(10, 2), (20, 3)]),
            ("three, then one more", 600, &[(30, 3), (31, 1)]),
            ("last word of a chunk", 600, &[(ROW_CHUNK_WORDS - 1, 1)]),
            ("two across a chunk end", 600, &[(ROW_CHUNK_WORDS - 1, 2)]),
            ("a row's last trial", 600, &[(599, 1)]),
            (
                "last trial at a chunk end",
                ROW_CHUNK_WORDS,
                &[(ROW_CHUNK_WORDS - 1, 2)],
            ),
        ];
        for (what, t, runs) in cases {
            let words = script(t, runs);
            let mut row = vec![0u8; t];
            fill_half_geometric_row(&mut Script(words.iter()), &mut row);
            let mut per_trial = Script(words.iter());
            let want: Vec<u8> = (0..t)
                .map(|_| sample_geometric(&mut per_trial, 0.5) as u8 + 1)
                .collect();
            assert_eq!(row, want, "{what}");
            for &(i, r) in runs {
                let least = (64 * r).min(usize::from(GEOMETRIC_CAP)) + 1;
                assert!(
                    usize::from(row[i]) >= least,
                    "{what}: trial {i} reads {}",
                    row[i]
                );
            }
        }
    }
}
