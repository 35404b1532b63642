//! Packed-word color-set kernels: the bitset palette engine.
//!
//! Every palette question the runtime asks — "which colors are free at
//! `v`?", "how many free colors in `[lo, hi)`?", "the `i`-th free color?"
//! — is a set query against a subset of `[q]`. Answering them over a
//! `Vec<bool>` probes one color per step and costs `O(q)` per query plus
//! a fresh `q`-byte allocation per call; packing the set into `⌈q/64⌉`
//! `u64` words answers the same queries word-wise: membership is a shift
//! and a mask, counting is `popcount`, and select (`nth_free`) skips
//! whole words by their popcount before a trailing-zeros walk inside the
//! final word. The layout follows the packed-index idiom of the
//! `fenris-paradis` coloring exemplar: set-disjointness via word
//! operations rather than per-element probing.
//!
//! Layout: color `c` lives in word `c >> 6`, bit `c & 63`; a **set** bit
//! means *marked* (used). Bits at positions `>= q` (the tail of the last
//! word) are kept zero by every mutator, so whole-word popcounts never
//! need correcting and `count_free` is exactly `q − count_marked`.
//!
//! Three layers share the same word kernels:
//!
//! * free functions over raw `&[u64]` rows — for flat matrices (one row
//!   per vertex) filled in parallel and consumed in place;
//! * [`PaletteBits`] — one owned set with the full query surface;
//! * [`BitsScratch`] — a reusable [`PaletteBits`] behind a `const`
//!   constructor, so hot loops (and `thread_local!` per-worker scratch)
//!   reset it in `O(q/64)` with **zero allocations** once warm.
//!
//! The same word layout doubles as a **vertex mask** (bit `v` set =
//! member): [`pack_flags_into`], [`andnot_into`], [`complement_into`] and
//! [`for_each_set`] let eligibility sets be intersected and iterated
//! word-wise where they are consumed as sets.

/// Bits per packed word.
pub const WORD_BITS: usize = 64;

/// Number of `u64` words needed for a universe of `q` elements.
#[inline]
pub const fn words_for(q: usize) -> usize {
    q.div_ceil(WORD_BITS)
}

/// Mask with bits `[0, bit)` set (`bit` may be 0..=64).
#[inline]
fn mask_below(bit: usize) -> u64 {
    debug_assert!(bit <= WORD_BITS);
    if bit >= WORD_BITS {
        !0
    } else {
        (1u64 << bit) - 1
    }
}

/// The free (unmarked) bits of word `i`, restricted to the universe `q` —
/// tail bits beyond `q` read as *not free*.
#[inline]
fn free_word(words: &[u64], i: usize, q: usize) -> u64 {
    let base = i * WORD_BITS;
    !words[i] & mask_below(q.saturating_sub(base).min(WORD_BITS))
}

// ---------------------------------------------------------------------------
// Raw row kernels (shared by PaletteBits and flat matrices).
// ---------------------------------------------------------------------------

/// Marks element `c` in a raw row.
#[inline]
pub fn set_bit(words: &mut [u64], c: usize) {
    words[c >> 6] |= 1u64 << (c & 63);
}

/// Clears element `c` in a raw row.
#[inline]
pub fn clear_bit(words: &mut [u64], c: usize) {
    words[c >> 6] &= !(1u64 << (c & 63));
}

/// Whether element `c` is marked in a raw row.
#[inline]
pub fn test_bit(words: &[u64], c: usize) -> bool {
    words[c >> 6] & (1u64 << (c & 63)) != 0
}

/// Number of marked elements (popcount over all words).
#[inline]
pub fn count_marked(words: &[u64]) -> usize {
    words.iter().map(|w| w.count_ones() as usize).sum()
}

/// Number of free elements of a `q`-universe row (`q − count_marked`;
/// relies on the zero-tail invariant).
#[inline]
pub fn count_free(words: &[u64], q: usize) -> usize {
    q - count_marked(words)
}

/// The smallest free element, if any — word-skip + trailing zeros.
#[inline]
pub fn first_free(words: &[u64], q: usize) -> Option<usize> {
    for i in 0..words.len() {
        let f = free_word(words, i, q);
        if f != 0 {
            return Some(i * WORD_BITS + f.trailing_zeros() as usize);
        }
    }
    None
}

/// The `i`-th (0-based, ascending) free element: whole words are skipped
/// by popcount, the final word selected by clearing low set bits.
pub fn nth_free(words: &[u64], q: usize, mut i: usize) -> Option<usize> {
    for w in 0..words.len() {
        let mut f = free_word(words, w, q);
        let pc = f.count_ones() as usize;
        if i >= pc {
            i -= pc;
            continue;
        }
        for _ in 0..i {
            f &= f - 1;
        }
        return Some(w * WORD_BITS + f.trailing_zeros() as usize);
    }
    None
}

/// Count of free elements in `[lo, hi)` (`hi` clamped to `q`) — masked
/// popcounts over the boundary words, whole popcounts between.
pub fn free_count_in(words: &[u64], q: usize, lo: usize, hi: usize) -> usize {
    let hi = hi.min(q);
    if lo >= hi {
        return 0;
    }
    let (w0, w1) = (lo / WORD_BITS, (hi - 1) / WORD_BITS);
    let mut total = 0usize;
    for (i, &word) in words[w0..=w1].iter().enumerate() {
        let base = (w0 + i) * WORD_BITS;
        let mut m = mask_below((hi - base).min(WORD_BITS));
        if lo > base {
            m &= !mask_below(lo - base);
        }
        total += (!word & m).count_ones() as usize;
    }
    total
}

/// The `i`-th (0-based) free element of `[lo, hi)` (`hi` clamped to `q`).
pub fn nth_free_in(words: &[u64], q: usize, mut i: usize, lo: usize, hi: usize) -> Option<usize> {
    let hi = hi.min(q);
    if lo >= hi {
        return None;
    }
    let (w0, w1) = (lo / WORD_BITS, (hi - 1) / WORD_BITS);
    for (i_w, &word) in words[w0..=w1].iter().enumerate() {
        let base = (w0 + i_w) * WORD_BITS;
        let mut m = mask_below((hi - base).min(WORD_BITS));
        if lo > base {
            m &= !mask_below(lo - base);
        }
        let mut f = !word & m;
        let pc = f.count_ones() as usize;
        if i >= pc {
            i -= pc;
            continue;
        }
        for _ in 0..i {
            f &= f - 1;
        }
        return Some(base + f.trailing_zeros() as usize);
    }
    None
}

/// Appends every free element of a `q`-universe row to `out`, ascending.
/// (`out` is *not* cleared — callers compose rows.)
pub fn collect_free_into(words: &[u64], q: usize, out: &mut Vec<usize>) {
    for w in 0..words.len() {
        let base = w * WORD_BITS;
        let mut f = free_word(words, w, q);
        while f != 0 {
            out.push(base + f.trailing_zeros() as usize);
            f &= f - 1;
        }
    }
}

// ---------------------------------------------------------------------------
// Vertex-mask kernels (bit v set = member).
// ---------------------------------------------------------------------------

/// Packs a `&[bool]` membership vector into words (bit `v` = `flags[v]`).
pub fn pack_flags_into(flags: &[bool], out: &mut Vec<u64>) {
    out.clear();
    out.resize(words_for(flags.len()), 0);
    for (w, chunk) in flags.chunks(WORD_BITS).enumerate() {
        let mut word = 0u64;
        for (b, &f) in chunk.iter().enumerate() {
            word |= (f as u64) << b;
        }
        out[w] = word;
    }
}

/// `out = a & !b`, word-wise (set difference of two same-length masks).
pub fn andnot_into(a: &[u64], b: &[u64], out: &mut Vec<u64>) {
    assert_eq!(a.len(), b.len(), "masks must share a universe");
    out.clear();
    out.extend(a.iter().zip(b).map(|(&x, &y)| x & !y));
}

/// `out = !b` over an `n`-element universe (tail bits zero).
pub fn complement_into(b: &[u64], n: usize, out: &mut Vec<u64>) {
    out.clear();
    out.reserve(b.len());
    for i in 0..b.len() {
        out.push(free_word(b, i, n));
    }
}

/// Whether any element is set.
#[inline]
pub fn any_set(words: &[u64]) -> bool {
    words.iter().any(|&w| w != 0)
}

/// Whether `a & !b` is non-empty, without materializing it.
#[inline]
pub fn any_andnot(a: &[u64], b: &[u64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).any(|(&x, &y)| x & !y != 0)
}

/// Calls `f` on every set element, ascending (word-skip iteration).
pub fn for_each_set(words: &[u64], mut f: impl FnMut(usize)) {
    for (w, &word) in words.iter().enumerate() {
        let base = w * WORD_BITS;
        let mut bits = word;
        while bits != 0 {
            f(base + bits.trailing_zeros() as usize);
            bits &= bits - 1;
        }
    }
}

// ---------------------------------------------------------------------------
// PaletteBits: one owned color set.
// ---------------------------------------------------------------------------

/// A packed subset of the color universe `[q]`: word array sized
/// `⌈q/64⌉`, set bit = marked (used) color, tail bits kept zero. All
/// queries delegate to the word kernels above.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PaletteBits {
    words: Vec<u64>,
    q: usize,
}

impl PaletteBits {
    /// An empty set over the empty universe — `const`, so per-worker
    /// `thread_local!` scratch can be initialized without allocating.
    pub const fn empty() -> Self {
        PaletteBits {
            words: Vec::new(),
            q: 0,
        }
    }

    /// An all-free set over `[q]`.
    pub fn new(q: usize) -> Self {
        PaletteBits {
            words: vec![0; words_for(q)],
            q,
        }
    }

    /// Re-universes to `[q]` with all colors free, reusing capacity
    /// (`O(q/64)` writes, zero allocations once capacity suffices).
    pub fn reset(&mut self, q: usize) {
        self.words.clear();
        self.words.resize(words_for(q), 0);
        self.q = q;
    }

    /// Universe size `q`.
    #[inline]
    pub fn q(&self) -> usize {
        self.q
    }

    /// The raw packed words (bit `c & 63` of word `c >> 6` = color `c`).
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Marks color `c` as used.
    ///
    /// # Panics
    ///
    /// Panics (in debug) if `c >= q` — a tail bit would corrupt every
    /// popcount-based query.
    #[inline]
    pub fn mark(&mut self, c: usize) {
        debug_assert!(c < self.q, "color {c} outside universe [{}]", self.q);
        set_bit(&mut self.words, c);
    }

    /// Clears color `c` (back to free).
    #[inline]
    pub fn clear(&mut self, c: usize) {
        debug_assert!(c < self.q);
        clear_bit(&mut self.words, c);
    }

    /// Whether `c` is marked.
    #[inline]
    pub fn is_marked(&self, c: usize) -> bool {
        test_bit(&self.words, c)
    }

    /// Whether `c` is free.
    #[inline]
    pub fn is_free(&self, c: usize) -> bool {
        !self.is_marked(c)
    }

    /// `self |= other` (marked colors union), word-wise.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    pub fn union(&mut self, other: &PaletteBits) {
        assert_eq!(self.q, other.q, "universe mismatch");
        for (a, &b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// `self &= !other` (marked colors minus `other`'s), word-wise.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    pub fn andnot(&mut self, other: &PaletteBits) {
        assert_eq!(self.q, other.q, "universe mismatch");
        for (a, &b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// Number of marked colors (popcount).
    #[inline]
    pub fn count_marked(&self) -> usize {
        count_marked(&self.words)
    }

    /// Number of free colors (`q − popcount`).
    #[inline]
    pub fn count_free(&self) -> usize {
        count_free(&self.words, self.q)
    }

    /// Smallest free color.
    #[inline]
    pub fn first_free(&self) -> Option<usize> {
        first_free(&self.words, self.q)
    }

    /// The `i`-th (0-based, ascending) free color.
    #[inline]
    pub fn nth_free(&self, i: usize) -> Option<usize> {
        nth_free(&self.words, self.q, i)
    }

    /// Count of free colors in `[lo, hi)`.
    #[inline]
    pub fn free_count_in(&self, lo: usize, hi: usize) -> usize {
        free_count_in(&self.words, self.q, lo, hi)
    }

    /// The `i`-th free color in `[lo, hi)`.
    #[inline]
    pub fn nth_free_in(&self, i: usize, lo: usize, hi: usize) -> Option<usize> {
        nth_free_in(&self.words, self.q, i, lo, hi)
    }

    /// Appends all free colors to `out`, ascending (`out` not cleared).
    #[inline]
    pub fn collect_free_into(&self, out: &mut Vec<usize>) {
        collect_free_into(&self.words, self.q, out);
    }
}

/// A reusable [`PaletteBits`]: `const`-constructible (usable as
/// `thread_local!` per-worker scratch without lazy-init allocation),
/// reset per use in `O(q/64)` with no heap traffic once warm.
#[derive(Debug, Default)]
pub struct BitsScratch {
    bits: PaletteBits,
}

impl BitsScratch {
    /// Empty scratch; the first [`BitsScratch::bits`] call sizes it.
    pub const fn new() -> Self {
        BitsScratch {
            bits: PaletteBits::empty(),
        }
    }

    /// The scratch set, reset to an all-free `[q]` universe.
    #[inline]
    pub fn bits(&mut self, q: usize) -> &mut PaletteBits {
        self.bits.reset(q);
        &mut self.bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tiny deterministic generator (xorshift64*) — the kernels are pinned
    /// to a `Vec<bool>` reference over many (q, pattern) shapes without
    /// pulling the rand shims into `cgc_net`'s dev graph.
    struct Xs(u64);
    impl Xs {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }
        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    fn reference(q: usize, marked: &[usize]) -> Vec<bool> {
        let mut used = vec![false; q];
        for &c in marked {
            used[c] = true;
        }
        used
    }

    fn ref_free(used: &[bool]) -> Vec<usize> {
        (0..used.len()).filter(|&c| !used[c]).collect()
    }

    #[test]
    fn queries_match_bool_reference_across_shapes() {
        let mut rng = Xs(0x9E37_79B9_7F4A_7C15);
        for q in [1usize, 3, 63, 64, 65, 127, 128, 130, 200, 641] {
            for density in [0usize, 1, 3] {
                let marked: Vec<usize> = (0..density * q / 4).map(|_| rng.below(q)).collect();
                let mut bits = PaletteBits::new(q);
                for &c in &marked {
                    bits.mark(c);
                }
                let used = reference(q, &marked);
                let free = ref_free(&used);
                assert_eq!(bits.count_free(), free.len(), "q={q}");
                assert_eq!(bits.count_marked(), q - free.len());
                assert_eq!(bits.first_free(), free.first().copied());
                for i in 0..free.len() + 2 {
                    assert_eq!(bits.nth_free(i), free.get(i).copied(), "q={q} i={i}");
                }
                let mut collected = Vec::new();
                bits.collect_free_into(&mut collected);
                assert_eq!(collected, free);
                for _ in 0..20 {
                    let lo = rng.below(q + 1);
                    let hi = rng.below(q + 20);
                    let want: Vec<usize> = free
                        .iter()
                        .copied()
                        .filter(|&c| c >= lo && c < hi)
                        .collect();
                    assert_eq!(bits.free_count_in(lo, hi), want.len(), "q={q} [{lo},{hi})");
                    for i in 0..want.len() + 1 {
                        assert_eq!(bits.nth_free_in(i, lo, hi), want.get(i).copied());
                    }
                }
                for (c, &u) in used.iter().enumerate() {
                    assert_eq!(bits.is_free(c), !u);
                }
            }
        }
    }

    #[test]
    fn mark_clear_union_andnot_roundtrip() {
        let mut a = PaletteBits::new(130);
        let mut b = PaletteBits::new(130);
        a.mark(0);
        a.mark(64);
        a.mark(129);
        b.mark(64);
        b.mark(100);
        let mut u = a.clone();
        u.union(&b);
        assert!(u.is_marked(0) && u.is_marked(64) && u.is_marked(100) && u.is_marked(129));
        assert_eq!(u.count_marked(), 4);
        u.andnot(&b);
        assert!(u.is_marked(0) && !u.is_marked(64) && !u.is_marked(100) && u.is_marked(129));
        a.clear(64);
        assert!(a.is_free(64));
        assert_eq!(a.count_marked(), 2);
    }

    #[test]
    fn scratch_reset_reuses_capacity() {
        let mut s = BitsScratch::new();
        {
            let bits = s.bits(200);
            bits.mark(199);
            assert_eq!(bits.count_marked(), 1);
        }
        let bits = s.bits(200);
        assert_eq!(bits.count_marked(), 0, "reset clears previous marks");
        assert_eq!(bits.count_free(), 200);
        let small = s.bits(3);
        assert_eq!(small.q(), 3);
        assert_eq!(small.count_free(), 3);
        assert_eq!(small.nth_free(2), Some(2));
        assert_eq!(small.nth_free(3), None);
    }

    #[test]
    fn vertex_mask_kernels() {
        let flags: Vec<bool> = (0..150).map(|v| v % 3 == 0).collect();
        let mut mask = Vec::new();
        pack_flags_into(&flags, &mut mask);
        let mut seen = Vec::new();
        for_each_set(&mask, |v| seen.push(v));
        let want: Vec<usize> = (0..150).filter(|v| v % 3 == 0).collect();
        assert_eq!(seen, want);
        assert!(any_set(&mask));

        let colored: Vec<bool> = (0..150).map(|v| v % 6 == 0).collect();
        let mut colored_mask = Vec::new();
        pack_flags_into(&colored, &mut colored_mask);
        let mut active = Vec::new();
        andnot_into(&mask, &colored_mask, &mut active);
        let mut got = Vec::new();
        for_each_set(&active, |v| got.push(v));
        let want: Vec<usize> = (0..150).filter(|v| v % 3 == 0 && v % 6 != 0).collect();
        assert_eq!(got, want);
        assert_eq!(any_andnot(&mask, &colored_mask), !want.is_empty());

        let mut comp = Vec::new();
        complement_into(&colored_mask, 150, &mut comp);
        // Every bit flips inside the universe, tail bits stay zero.
        assert_eq!(count_marked(&comp), 150 - 25);
        let mut comp_elems = Vec::new();
        for_each_set(&comp, |v| comp_elems.push(v));
        let want_comp: Vec<usize> = (0..150).filter(|v| v % 6 != 0).collect();
        assert_eq!(comp_elems, want_comp);
    }

    #[test]
    fn empty_and_full_universes() {
        let bits = PaletteBits::new(0);
        assert_eq!(bits.count_free(), 0);
        assert_eq!(bits.first_free(), None);
        assert_eq!(bits.nth_free(0), None);
        let mut full = PaletteBits::new(64);
        for c in 0..64 {
            full.mark(c);
        }
        assert_eq!(full.count_free(), 0);
        assert_eq!(full.first_free(), None);
        assert_eq!(full.free_count_in(0, 64), 0);
    }
}
