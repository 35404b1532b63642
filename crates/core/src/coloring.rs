//! Partial colorings (paper §3.1).
//!
//! A partial `q`-coloring assigns colors from `[q] = {0, …, q−1}` or `⊥`.
//! The struct tracks assignments; properness, palettes and slack are
//! computed against a [`ClusterGraph`] — the oracle views used by tests
//! and by stage postcondition checks (the distributed algorithm itself
//! only learns colors through charged rounds).

use cgc_cluster::bits;
use cgc_cluster::{BitsScratch, ClusterGraph, PaletteBits, VertexId};

/// A color in `[q]` (0-based; the paper's `[Δ+1]` is `0..=Δ` here).
pub type Color = usize;

/// A partial coloring of the vertices of `H`.
///
/// The assignment is one `u32` per vertex (`u32::MAX` = `⊥`): 4 bytes
/// a vertex for every coloring a session, server or outcome retains.
/// Alongside it the struct maintains a packed **occupancy mask** (bit `v`
/// set ⇔ `v` colored, see [`cgc_cluster::bits`]), so "who is still
/// uncolored?" questions — `is_total`, `n_colored`, the round loops'
/// eligibility sets — are answered word-wise instead of by `O(n)` scans.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Coloring {
    /// `colors[v]` is `v`'s color, or [`UNCOLORED`].
    colors: Vec<u32>,
    /// Packed occupancy: bit `v` set ⇔ `colors[v] != UNCOLORED`
    /// (invariant maintained by every mutator).
    occupied: Vec<u64>,
    q: usize,
}

/// The stored color of an uncolored vertex.
const UNCOLORED: u32 = u32::MAX;

impl Coloring {
    /// An all-uncolored coloring with `q` colors on `n` vertices.
    ///
    /// # Panics
    ///
    /// Panics if `q == 0` or `q > u32::MAX` (colors are stored as `u32`
    /// below the `u32::MAX` uncolored sentinel).
    pub fn new(n: usize, q: usize) -> Self {
        assert!(q > 0, "need at least one color");
        assert!(q <= UNCOLORED as usize, "q = {q} exceeds the u32 colors");
        Coloring {
            colors: vec![UNCOLORED; n],
            occupied: vec![0; bits::words_for(n)],
            q,
        }
    }

    /// Number of available colors `q` (usually `Δ + 1`).
    pub fn q(&self) -> usize {
        self.q
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.colors.len()
    }

    /// Whether there are no vertices.
    pub fn is_empty(&self) -> bool {
        self.colors.is_empty()
    }

    /// The color of `v`, if any.
    #[inline]
    pub fn get(&self, v: VertexId) -> Option<Color> {
        let c = self.colors[v];
        (c != UNCOLORED).then_some(c as Color)
    }

    /// The packed occupancy mask (bit `v` set ⇔ `v` colored): the round
    /// loops intersect eligibility sets against this word-wise.
    #[inline]
    pub fn occupied_words(&self) -> &[u64] {
        &self.occupied
    }

    /// Whether `v` is colored.
    #[inline]
    pub fn is_colored(&self, v: VertexId) -> bool {
        self.colors[v] != UNCOLORED
    }

    /// Colors `v` with `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c >= q` or `v` is already colored (use
    /// [`Coloring::recolor`] for the §7 donation step).
    pub fn set(&mut self, v: VertexId, c: Color) {
        assert!(c < self.q, "color {c} out of range [{}]", self.q);
        assert!(!self.is_colored(v), "vertex {v} already colored");
        self.colors[v] = c as u32;
        bits::set_bit(&mut self.occupied, v);
    }

    /// Recolors `v` (used by the §7 color-swapping scheme).
    ///
    /// # Panics
    ///
    /// Panics if `c >= q`.
    pub fn recolor(&mut self, v: VertexId, c: Color) {
        assert!(c < self.q, "color {c} out of range [{}]", self.q);
        self.colors[v] = c as u32;
        bits::set_bit(&mut self.occupied, v);
    }

    /// Uncolors `v` (used when a stage cancels its coloring, §4.3).
    pub fn clear(&mut self, v: VertexId) {
        self.colors[v] = UNCOLORED;
        bits::clear_bit(&mut self.occupied, v);
    }

    /// Number of colored vertices (popcount over the occupancy mask).
    pub fn n_colored(&self) -> usize {
        bits::count_marked(&self.occupied)
    }

    /// All uncolored vertices.
    pub fn uncolored(&self) -> Vec<VertexId> {
        (0..self.colors.len())
            .filter(|&v| !self.is_colored(v))
            .collect()
    }

    /// Whether the coloring is proper on `g` (monochromatic edges only
    /// count when both endpoints are colored). Short-circuits via
    /// [`Coloring::has_conflict`] — no conflict Vec is materialized.
    pub fn is_proper(&self, g: &ClusterGraph) -> bool {
        !self.has_conflict(g)
    }

    /// Whether `g` has **any** monochromatic edge — stops at the first
    /// one found. Use [`Coloring::conflicts`] when the offending edges
    /// themselves are needed (diagnostics).
    pub fn has_conflict(&self, g: &ClusterGraph) -> bool {
        g.h_edges().any(|(u, v)| self.same_color(u, v))
    }

    /// All monochromatic edges.
    pub fn conflicts(&self, g: &ClusterGraph) -> Vec<(VertexId, VertexId)> {
        g.h_edges()
            .filter(|&(u, v)| self.same_color(u, v))
            .collect()
    }

    /// Whether `u` and `v` are both colored, with the same color.
    #[inline]
    fn same_color(&self, u: VertexId, v: VertexId) -> bool {
        self.colors[u] == self.colors[v] && self.is_colored(u)
    }

    /// Whether every vertex is colored (popcount, not an `Option` scan).
    pub fn is_total(&self) -> bool {
        self.n_colored() == self.colors.len()
    }

    /// The colors used by `v`'s neighbors, marked into `scratch`'s packed
    /// set — the primitive under every palette query: the returned
    /// [`PaletteBits`] answers count/select/first-fit questions word-wise
    /// without materializing a free list.
    pub fn used_colors_into<'s>(
        &self,
        g: &ClusterGraph,
        v: VertexId,
        scratch: &'s mut BitsScratch,
    ) -> &'s mut PaletteBits {
        let bits = scratch.bits(self.q);
        for &u in g.neighbors(v) {
            if let Some(c) = self.get(u) {
                bits.mark(c);
            }
        }
        bits
    }

    /// The palette `L(v) = [q] \ φ(N(v))` (oracle view). Allocates a
    /// fresh scratch and result Vec per call — round loops use
    /// [`Coloring::palette_oracle_into`] to stay allocation-free.
    pub fn palette_oracle(&self, g: &ClusterGraph, v: VertexId) -> Vec<Color> {
        let mut scratch = BitsScratch::new();
        let mut out = Vec::new();
        self.palette_oracle_into(g, v, &mut scratch, &mut out);
        out
    }

    /// [`Coloring::palette_oracle`] into caller-owned buffers: `out` is
    /// cleared and refilled ascending; warm calls perform no allocation.
    pub fn palette_oracle_into(
        &self,
        g: &ClusterGraph,
        v: VertexId,
        scratch: &mut BitsScratch,
        out: &mut Vec<Color>,
    ) {
        out.clear();
        self.used_colors_into(g, v, scratch).collect_free_into(out);
    }

    /// The smallest color free at `v` (first-fit) — a word scan, no free
    /// list. `None` iff the neighbors exhaust `[q]`.
    pub fn first_fit_color(
        &self,
        g: &ClusterGraph,
        v: VertexId,
        scratch: &mut BitsScratch,
    ) -> Option<Color> {
        self.used_colors_into(g, v, scratch).first_free()
    }

    /// Uncolored degree `deg_φ(v)`.
    pub fn uncolored_degree(&self, g: &ClusterGraph, v: VertexId) -> usize {
        g.neighbors(v)
            .iter()
            .filter(|&&u| !self.is_colored(u))
            .count()
    }

    /// Slack `s_φ(v) = |L(v)| − deg_φ(v)` (oracle view, §3.1).
    pub fn slack_oracle(&self, g: &ClusterGraph, v: VertexId) -> i64 {
        let mut scratch = BitsScratch::new();
        let free = self.used_colors_into(g, v, &mut scratch).count_free();
        free as i64 - self.uncolored_degree(g, v) as i64
    }

    /// Reuse slack of `v`: colored neighbors minus distinct colors on them
    /// (§4.1 "types of slack"). Allocating wrapper over
    /// [`Coloring::reuse_slack_into`].
    pub fn reuse_slack(&self, g: &ClusterGraph, v: VertexId) -> usize {
        let mut scratch = BitsScratch::new();
        self.reuse_slack_into(g, v, &mut scratch)
    }

    /// [`Coloring::reuse_slack`] against caller-owned scratch — colored
    /// neighbors counted on the walk, distinct colors by popcount.
    pub fn reuse_slack_into(
        &self,
        g: &ClusterGraph,
        v: VertexId,
        scratch: &mut BitsScratch,
    ) -> usize {
        let bits = scratch.bits(self.q);
        let mut colored = 0usize;
        for &u in g.neighbors(v) {
            if let Some(c) = self.get(u) {
                colored += 1;
                bits.mark(c);
            }
        }
        colored - bits.count_marked()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgc_net::CommGraph;

    fn triangle() -> ClusterGraph {
        ClusterGraph::singletons(CommGraph::complete(3))
    }

    #[test]
    fn set_get_clear_roundtrip() {
        let mut c = Coloring::new(3, 3);
        assert!(!c.is_colored(0));
        c.set(0, 2);
        assert_eq!(c.get(0), Some(2));
        c.clear(0);
        assert!(!c.is_colored(0));
        assert_eq!(c.uncolored(), vec![0, 1, 2]);
    }

    #[test]
    fn properness_detects_conflicts() {
        let g = triangle();
        let mut c = Coloring::new(3, 3);
        c.set(0, 0);
        c.set(1, 1);
        assert!(c.is_proper(&g));
        c.set(2, 1);
        assert!(!c.is_proper(&g));
        assert_eq!(c.conflicts(&g), vec![(1, 2)]);
    }

    #[test]
    fn palette_and_slack() {
        let g = triangle();
        let mut c = Coloring::new(3, 3);
        c.set(0, 0);
        assert_eq!(c.palette_oracle(&g, 1), vec![1, 2]);
        // v=1: |L| = 2, uncolored degree = 1 (vertex 2).
        assert_eq!(c.slack_oracle(&g, 1), 1);
        assert_eq!(c.uncolored_degree(&g, 1), 1);
    }

    #[test]
    fn reuse_slack_counts_repeats() {
        // Star center with two leaves colored identically.
        let g = ClusterGraph::singletons(CommGraph::star(3));
        let mut c = Coloring::new(3, 3);
        c.set(1, 2);
        c.set(2, 2);
        assert_eq!(c.reuse_slack(&g, 0), 1);
        assert!(c.is_proper(&g), "leaves are not adjacent");
    }

    #[test]
    fn recolor_allows_swap() {
        let mut c = Coloring::new(2, 4);
        c.set(0, 1);
        c.recolor(0, 3);
        assert_eq!(c.get(0), Some(3));
    }

    #[test]
    #[should_panic(expected = "already colored")]
    fn double_set_panics() {
        let mut c = Coloring::new(1, 2);
        c.set(0, 0);
        c.set(0, 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn color_out_of_range_panics() {
        let mut c = Coloring::new(1, 2);
        c.set(0, 2);
    }

    #[test]
    fn has_conflict_matches_conflicts_and_short_circuits() {
        let g = triangle();
        let mut c = Coloring::new(3, 3);
        assert!(!c.has_conflict(&g));
        c.set(0, 0);
        c.set(1, 1);
        c.set(2, 1);
        assert!(c.has_conflict(&g));
        assert_eq!(c.conflicts(&g), vec![(1, 2)]);
        assert_eq!(c.is_proper(&g), c.conflicts(&g).is_empty());
    }

    #[test]
    fn occupancy_mask_tracks_mutators() {
        let mut c = Coloring::new(70, 3);
        assert_eq!(c.occupied_words().len(), 2);
        c.set(0, 1);
        c.set(64, 2);
        assert_eq!(c.n_colored(), 2);
        assert_eq!(c.occupied_words()[0], 1);
        assert_eq!(c.occupied_words()[1], 1);
        c.recolor(64, 0);
        assert_eq!(c.n_colored(), 2);
        c.clear(64);
        assert_eq!(c.occupied_words()[1], 0);
        assert_eq!(c.n_colored(), 1);
        assert!(!c.is_total());
    }

    #[test]
    fn scratch_variants_match_allocating_oracles() {
        let g = ClusterGraph::singletons(cgc_net::CommGraph::star(5));
        let mut c = Coloring::new(5, 6);
        c.set(1, 2);
        c.set(2, 2);
        c.set(3, 4);
        let mut scratch = BitsScratch::new();
        let mut pal = Vec::new();
        for v in 0..5 {
            c.palette_oracle_into(&g, v, &mut scratch, &mut pal);
            assert_eq!(pal, c.palette_oracle(&g, v), "vertex {v}");
            assert_eq!(
                c.first_fit_color(&g, v, &mut scratch),
                c.palette_oracle(&g, v).first().copied()
            );
            assert_eq!(
                c.reuse_slack_into(&g, v, &mut scratch),
                c.reuse_slack(&g, v)
            );
        }
        assert_eq!(c.reuse_slack(&g, 0), 1, "two leaves share color 2");
    }

    #[test]
    fn u32_storage_keeps_get_set_and_equality() {
        let q = u32::MAX as usize;
        let mut a = Coloring::new(3, q);
        a.set(0, q - 1);
        a.set(2, 0);
        assert_eq!(a.get(0), Some(q - 1), "largest color stays a color");
        assert_eq!((a.get(1), a.is_colored(1)), (None, false));
        let mut b = Coloring::new(3, q);
        b.set(2, 0);
        assert_ne!(a, b);
        b.set(0, q - 1);
        assert_eq!(a, b);
        assert_eq!(std::mem::size_of_val(a.colors.as_slice()), 3 * 4);
    }

    #[test]
    fn total_detection() {
        let mut c = Coloring::new(2, 2);
        assert!(!c.is_total());
        c.set(0, 0);
        c.set(1, 1);
        assert!(c.is_total());
        assert_eq!(c.n_colored(), 2);
    }
}
