//! The value histogram of one maxima vector: the summary both §5
//! consumers read.
//!
//! Lemma 5.2 reads a fingerprint only through the counts
//! `Z_k = |{i : Y_i < k}|`, which are prefix sums of its value histogram,
//! and the Lemma 5.6 encoding costs `Σ_i (|Y_i − k| + 2)` at baseline `k`,
//! which the median minimizes and which sums bin by bin. So one pass over
//! the `t` maxima fills 256 bins (bin = the stored byte `y + 1`, 0 =
//! empty, so `y ∈ −1..=254`) and both answers follow from the bins, with
//! no sort and no rescan per candidate `k`. A row that only needs
//! metering and whose median bin is 1 or 2, as a sampled own row's is,
//! skips the bins: [`low_median_bits`] sums it in closed form.

use crate::fingerprint::Maximum;

/// Bits used for the encoding's baseline header (`k ≤ 2^12` covers any
/// maximum a histogram bin can hold, with sign).
pub(crate) const HEADER_BITS: u64 = 13;

/// The encoded size of an all-empty row of `trials` trials: the header
/// and two bits a trial, the least any row of `trials` trials takes.
pub(crate) fn empty_row_bits(trials: usize) -> u64 {
    HEADER_BITS + 2 * trials as u64
}

/// The encoded size of a byte row whose median bin is 1 or 2, from one
/// pass that reads only the sum `S = Σ b` and the counts `c₀, c₁, c₂` of
/// bins 0, 1 and 2; `None` for any other row, which
/// [`Histogram::encoded_bits`] meters.
///
/// With `r = ⌊t/2⌋`, the median bin is 1 when `c₀ ≤ r < c₀ + c₁` and 2
/// when `c₀ + c₁ ≤ r < c₀ + c₁ + c₂`, and then the deviations sum in
/// closed form: `Σ|b − 1| = S − t + 2c₀` and `Σ|b − 2| = S − 2t + 4c₀ +
/// 2c₁`. An own row (one geometric(½) draw a trial, no empty bin) has its
/// median there except with probability `e^{−Θ(t)}`. The pass runs in
/// 128-byte blocks with a `u16` sum and `u8` counts, which no block of
/// bytes overflows, so its lanes stay narrow.
pub(crate) fn low_median_bits(row: &[u8]) -> Option<u64> {
    let (mut sum, mut c0, mut c1, mut c2) = (0u64, 0u64, 0u64, 0u64);
    for block in row.chunks(128) {
        let (mut s, mut b0, mut b1, mut b2) = (0u16, 0u8, 0u8, 0u8);
        for &b in block {
            s += u16::from(b);
            b0 += u8::from(b == 0);
            b1 += u8::from(b == 1);
            b2 += u8::from(b == 2);
        }
        sum += u64::from(s);
        c0 += u64::from(b0);
        c1 += u64::from(b1);
        c2 += u64::from(b2);
    }
    let t = row.len() as u64;
    let rank = t / 2;
    let deviations = if c0 <= rank && rank < c0 + c1 {
        sum + 2 * c0 - t
    } else if c0 + c1 <= rank && rank < c0 + c1 + c2 {
        sum + 4 * c0 + 2 * c1 - 2 * t
    } else {
        return None;
    };
    Some(empty_row_bits(row.len()) + deviations)
}

/// Threshold numerator/denominator from Lemma 5.2: `Z_{K*} ≥ (27/40) t`.
const THRESH_NUM: usize = 27;
const THRESH_DEN: usize = 40;

/// Trial counts per bin of one maxima vector.
pub(crate) struct Histogram {
    counts: [u32; 256],
    trials: usize,
}

/// Four interleaved bin counters: maxima concentrate around `log d`, so
/// runs of equal values would otherwise serialize on one counter.
struct Lanes([[u32; 256]; 4]);

impl Lanes {
    fn new() -> Self {
        Lanes([[0; 256]; 4])
    }

    #[inline]
    fn add(&mut self, bins: [u8; 4]) {
        for (lane, b) in self.0.iter_mut().zip(bins) {
            lane[usize::from(b)] += 1;
        }
    }

    fn sum(&self, trials: usize) -> Histogram {
        let mut counts = [0u32; 256];
        for (b, c) in counts.iter_mut().enumerate() {
            *c = self.0.iter().map(|lane| lane[b]).sum();
        }
        Histogram { counts, trials }
    }
}

impl Histogram {
    /// Counts the bins of `maxima`.
    pub(crate) fn of<T: Maximum>(maxima: &[T]) -> Self {
        let mut lanes = Lanes::new();
        let mut quads = maxima.chunks_exact(4);
        for q in &mut quads {
            lanes.add([q[0].bin(), q[1].bin(), q[2].bin(), q[3].bin()]);
        }
        for &y in quads.remainder() {
            lanes.0[0][usize::from(y.bin())] += 1;
        }
        lanes.sum(maxima.len())
    }

    /// The histogram of the coordinate-wise max of two equal-length rows,
    /// folded straight from the rows (no merged copy).
    pub(crate) fn of_union(a: &[u8], b: &[u8]) -> Self {
        assert_eq!(a.len(), b.len(), "rows of one matrix");
        let mut lanes = Lanes::new();
        let mut quads = a.chunks_exact(4).zip(b.chunks_exact(4));
        for (p, q) in &mut quads {
            lanes.add([
                p[0].max(q[0]),
                p[1].max(q[1]),
                p[2].max(q[2]),
                p[3].max(q[3]),
            ]);
        }
        let tail = a.len() - a.len() % 4;
        for (&x, &y) in a[tail..].iter().zip(&b[tail..]) {
            lanes.0[0][usize::from(x.max(y))] += 1;
        }
        lanes.sum(a.len())
    }

    /// The highest occupied bin (0 when every trial is empty).
    fn top_bin(&self) -> usize {
        self.counts.iter().rposition(|&c| c > 0).unwrap_or(0)
    }

    /// The bin of the sorted vector's element `t / 2` (0 with no trials).
    fn median_bin(&self) -> usize {
        let rank = self.trials / 2;
        let mut below = 0usize;
        for (b, &c) in self.counts.iter().enumerate() {
            below += c as usize;
            if below > rank {
                return b;
            }
        }
        0
    }

    /// The Lemma 5.6 baseline `k`: the median value, which minimizes
    /// `Σ_i |Y_i − k|` (0 with no trials).
    pub(crate) fn baseline(&self) -> i32 {
        if self.trials == 0 {
            0
        } else {
            self.median_bin() as i32 - 1
        }
    }

    /// Encoded size in bits at the best baseline: the header, then per
    /// trial a sign bit, `|y − k|` unary bits and a separator.
    pub(crate) fn encoded_bits(&self) -> u64 {
        let k = self.median_bin();
        let deviations: u64 = self
            .counts
            .iter()
            .enumerate()
            .map(|(b, &c)| u64::from(c) * b.abs_diff(k) as u64)
            .sum();
        empty_row_bits(self.trials) + deviations
    }

    /// The Lemma 5.2 estimate: `K*` is the first `k` whose prefix count
    /// `Z_k` (bins `0..=k`, the values below `k`) reaches `⌈27t/40⌉`.
    /// `0.0` with no contribution; clamped below at 1 otherwise.
    pub(crate) fn estimate(&self) -> f64 {
        let t = self.trials;
        if t == 0 || self.counts[0] as usize == t {
            return 0.0;
        }
        let threshold = (THRESH_NUM * t).div_ceil(THRESH_DEN);
        let mut z = 0usize;
        for (k, &c) in self.counts.iter().enumerate() {
            z += c as usize;
            if z < threshold {
                continue;
            }
            if k == 0 {
                // Most trials empty: too few contributions for the
                // estimator; fall back to 2^max.
                let max_y = self.top_bin() - 1;
                return f64::from(1u32 << max_y.min(30));
            }
            let frac = z as f64 / t as f64;
            let denom = (1.0 - 2f64.powi(-(k as i32))).ln();
            return (frac.ln() / denom).max(1.0);
        }
        unreachable!("Z_k reaches t ≥ the threshold at the top bin")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometric::{sample_geometric, GEOMETRIC_CAP};
    use cgc_net::SeedStream;
    use rand::Rng;

    /// The Lemma 5.2 formula at `(Z_{K*}, t, K*)`.
    fn lemma(z: u32, t: u32, k: i32) -> f64 {
        ((f64::from(z) / f64::from(t)).ln() / (1.0 - 2f64.powi(-k)).ln()).max(1.0)
    }

    /// Edge cases, as stored bytes (`y + 1`): the encoded size, the
    /// baseline `k` and the estimate, for the byte row and for the same
    /// values as `i16` maxima.
    #[test]
    fn edge_case_table() {
        let cap = GEOMETRIC_CAP as u8 + 1;
        let cases: [(&str, Vec<u8>, u64, i32, f64); 12] = [
            ("t = 1, empty", vec![0], 15, -1, 0.0),
            ("t = 1, y = 0", vec![1], 15, 0, 1.0),
            ("t = 1, y = 5", vec![6], 15, 5, 1.0),
            ("even t", vec![4, 1, 3, 2], 13 + 8 + 4, 2, lemma(3, 4, 3)),
            (
                "odd t",
                vec![9, 2, 5, 3, 2],
                13 + 10 + 10,
                2,
                lemma(4, 5, 5),
            ),
            ("all empty", vec![0; 6], 13 + 12, -1, 0.0),
            (
                "one non-empty trial",
                vec![0, 0, 0, 0, 0, 0, 0, 4],
                13 + 16 + 4,
                -1,
                8.0,
            ),
            (
                "one trial at the cap",
                vec![0, 0, 0, 0, 0, 0, 0, cap],
                13 + 16 + 193,
                -1,
                2f64.powi(30),
            ),
            (
                "values at the cap",
                vec![cap, cap, 1],
                13 + 6 + 192,
                192,
                1.0,
            ),
            ("tied medians", vec![1, 5, 1, 5], 13 + 8 + 8, 4, 1.0),
            ("all tied", vec![3; 4], 13 + 8, 2, 1.0),
            ("no trials", vec![], 13, 0, 0.0),
        ];
        for (name, row, bits, k, est) in cases {
            closed_form_agrees(&row, name);
            let wide: Vec<i16> = row.iter().map(|&b| i16::from(b) - 1).collect();
            for h in [Histogram::of(&row), Histogram::of(&wide)] {
                assert_eq!(h.encoded_bits(), bits, "{name}: bits");
                assert_eq!(h.baseline(), k, "{name}: baseline");
                assert_eq!(h.estimate().to_bits(), est.to_bits(), "{name}: estimate");
            }
        }
    }

    /// Checks [`low_median_bits`] on `row` against the histogram: `Some`
    /// exactly when the median bin is 1 or 2, and then the encoded size.
    /// Returns the median bin.
    fn closed_form_agrees(row: &[u8], what: &str) -> usize {
        let h = Histogram::of(row);
        let median = h.median_bin();
        let want = matches!(median, 1 | 2).then(|| h.encoded_bits());
        assert_eq!(low_median_bits(row), want, "{what}: median bin {median}");
        median
    }

    /// Rows of every length around the 128-byte blocks, own-row-like
    /// (one geometric(½) draw a trial), shifted up to move the median
    /// past bin 2, and with empty trials mixed in as aggregates and
    /// partial rows have them.
    #[test]
    fn closed_form_meter_matches_histogram() {
        let seeds = SeedStream::new(31);
        let mut medians = [0usize; 4];
        for t in [1, 2, 3, 127, 128, 129, 255, 256, 257, 2281, 4096] {
            for (empty_eighths, shift) in [(0, 0), (0, 1), (0, 2), (2, 0), (4, 0), (5, 1), (7, 0)] {
                for stream in 0..4 {
                    let mut rng = seeds.rng_for(stream, t as u64);
                    let row: Vec<u8> = (0..t)
                        .map(|_| {
                            let y = sample_geometric(&mut rng, 0.5) as u8 + 1 + shift;
                            if rng.next_u32() % 8 < empty_eighths {
                                0
                            } else {
                                y
                            }
                        })
                        .collect();
                    let what = format!("t = {t}, {empty_eighths}/8 empty, shift {shift}");
                    let median = closed_form_agrees(&row, &what);
                    if let Some(seen) = medians.get_mut(median) {
                        *seen += 1;
                    }
                }
            }
        }
        assert!(
            medians.iter().all(|&seen| seen > 0),
            "median bins 0..=3: {medians:?}"
        );
    }

    /// The median's edges: rank `⌊t/2⌋` at the first or last trial of bin
    /// 1 or 2, high bytes beside a low median, and whole blocks at the cap
    /// and at 255, the largest block sums.
    #[test]
    fn closed_form_meter_at_the_edges() {
        let cap = GEOMETRIC_CAP as u8 + 1;
        let runs = |parts: &[(u8, usize)]| -> Vec<u8> {
            parts
                .iter()
                .flat_map(|&(b, n)| std::iter::repeat_n(b, n))
                .collect()
        };
        let cases: [(&str, Vec<u8>, usize); 12] = [
            ("rank at bin 1's first trial", runs(&[(0, 2), (1, 2)]), 1),
            ("rank at bin 0's last trial", runs(&[(0, 3), (1, 1)]), 0),
            ("rank at bin 1's last trial", runs(&[(1, 3), (2, 1)]), 1),
            ("rank at bin 2's first trial", runs(&[(1, 2), (2, 2)]), 2),
            (
                "rank at bin 2's last trial",
                runs(&[(0, 1), (1, 1), (2, 1), (3, 2)]),
                2,
            ),
            ("rank at bin 3's first trial", runs(&[(2, 2), (3, 2)]), 3),
            ("bin 1 under the cap", runs(&[(1, 65), (cap, 63)]), 1),
            ("bin 2 under 255s", runs(&[(0, 1), (2, 64), (255, 63)]), 2),
            ("a block at the cap", runs(&[(cap, 128)]), usize::from(cap)),
            ("a row at the cap", runs(&[(cap, 4096)]), usize::from(cap)),
            ("a row of 255s", runs(&[(255, 4096)]), 255),
            (
                "bin 2 over whole blocks of 1 and the cap",
                runs(&[(1, 1000), (2, 1), (cap, 999)]),
                2,
            ),
        ];
        for (what, row, median) in cases {
            assert_eq!(closed_form_agrees(&row, what), median, "{what}");
        }
    }

    #[test]
    fn union_counts_the_coordinate_max() {
        let (a, b) = ([0u8, 7, 3, 1, 2], [4u8, 2, 3, 0, 9]);
        let merged: Vec<u8> = a.iter().zip(&b).map(|(&x, &y)| x.max(y)).collect();
        let (u, m) = (Histogram::of_union(&a, &b), Histogram::of(&merged));
        assert_eq!((u.counts, u.trials), (m.counts, m.trials));
    }
}
