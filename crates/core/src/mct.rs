//! `MultiColorTrial` — coloring with slack in `O(log* n)` rounds
//! (Lemma D.1, Algorithm 16 `TryPseudorandomColors`).
//!
//! Vertices try exponentially growing sets of colors per round. A tried
//! set is *described*, not transmitted: each vertex samples an index into
//! a globally known representative family over its color interval
//! (Lemma C.6) plus a 16-bit position salt, so the whole set costs
//! `O(log n)` bits — the paper's Lemma D.2 sampling. A color is adopted if
//! no neighbor holds it and no neighbor tried it in the same round.
//!
//! The paper proves `O(γ^{-1} log* n)` rounds suffice when
//! `|L(v) ∩ C(v)| − deg ≥ max(2·deg, Θ(log^{1.1} n)) + γ|C(v)|`; the
//! implementation runs until done or a round cap and reports leftovers,
//! which stage drivers retry or fall back on (all charged).

use crate::coloring::{Color, Coloring};
use cgc_cluster::{ClusterNet, VertexId};
use cgc_net::SeedStream;
use cgc_pseudo::RepFamily;
use rand::RngExt;
use std::collections::HashMap;

/// A contiguous color space `[lo, hi)` — every `C(v)` the paper feeds to
/// MCT is an interval (reserved colors `[r_v]`, the full space `[Δ+1]`, or
/// a non-reserved suffix), which is what makes it describable in
/// `O(log n)` bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColorInterval {
    /// Inclusive lower bound.
    pub lo: Color,
    /// Exclusive upper bound.
    pub hi: Color,
}

impl ColorInterval {
    /// The interval `[lo, hi)`.
    pub fn new(lo: Color, hi: Color) -> Self {
        ColorInterval { lo, hi }
    }

    /// Number of colors.
    pub fn len(&self) -> usize {
        self.hi.saturating_sub(self.lo)
    }

    /// Whether the interval is empty.
    pub fn is_empty(&self) -> bool {
        self.hi <= self.lo
    }
}

/// Maximum colors tried per round (bitmap responses fit one word).
const X_MAX: usize = 64;
/// Representative-family size (index fits 12 bits).
const FAMILY: usize = 4096;

fn pick_positions(s: usize, x: usize, seed: u64) -> Vec<usize> {
    let mut rng = SeedStream::new(seed).rng_for(0x9C5, 0);
    let mut idx: Vec<usize> = (0..s).collect();
    // partial shuffle
    let x = x.min(s);
    for j in 0..x {
        let k = rng.random_range(j..s);
        idx.swap(j, k);
    }
    idx.truncate(x);
    idx
}

/// Runs MultiColorTrial on `members` with per-vertex interval spaces.
///
/// Returns the members still uncolored after `max_rounds`.
pub fn multicolor_trial(
    net: &mut ClusterNet<'_>,
    coloring: &mut Coloring,
    seeds: &SeedStream,
    salt_base: u64,
    members: &[VertexId],
    space: impl Fn(VertexId) -> ColorInterval,
    max_rounds: usize,
) -> Vec<VertexId> {
    let n = net.g.n_vertices();
    let mut families: HashMap<usize, RepFamily> = HashMap::new();

    let mut stalled = 0usize;
    // Round buffers hoisted across the trial loop: the live set, the
    // per-vertex tried sets and the query column are refilled in place, so
    // a warm round performs no heap allocation.
    let mut live: Vec<VertexId> = Vec::new();
    let mut tried: Vec<Vec<Color>> = vec![Vec::new(); n];
    let mut queries: Vec<Option<Color>> = Vec::new();
    for round in 0..max_rounds {
        live.clear();
        live.extend(members.iter().copied().filter(|&v| !coloring.is_colored(v)));
        if live.is_empty() {
            break;
        }
        // Stall detection: once the tried-set size is maxed out, three
        // progress-free rounds mean the remaining vertices have no free
        // color in their interval — stop burning rounds and report them.
        if stalled >= 3 {
            break;
        }
        let live_before = live.len();
        let x = (1usize << round.min(6)).min(X_MAX);

        // Materialize tried sets; the wire format is
        // (lo, hi, family index, position salt): O(log n) bits.
        for xs in &mut tried {
            xs.clear();
        }
        for &v in &live {
            let iv = space(v);
            if iv.is_empty() {
                continue;
            }
            let universe = iv.len();
            let fam = families
                .entry(universe)
                .or_insert_with(|| RepFamily::new(universe, X_MAX.min(universe), FAMILY, 0xFAA17));
            let mut rng = seeds.rng_for(v as u64, salt_base ^ (round as u64) << 20);
            let idx = rng.random_range(0..fam.family_size());
            let pos_salt: u64 = rng.random();
            let set = fam.set(idx);
            let xs = &mut tried[v];
            xs.extend(
                pick_positions(set.len(), x, pos_salt)
                    .into_iter()
                    .map(|p| set[p] + iv.lo),
            );
            xs.sort_unstable();
            xs.dedup();
        }

        // One aggregation round: blocked-position bitmaps.
        let qbits = 2 * net.color_bits() + 12 + 16;
        queries.clear();
        queries.extend((0..n).map(|v| coloring.get(v)));
        let tried_ref = &tried;
        let blocked = net.neighbor_fold_words(qbits, x as u64, &queries, |v, u, _qv, qu| {
            let xs = &tried_ref[v];
            if xs.is_empty() {
                return None;
            }
            let mut bits = 0u64;
            for (j, &c) in xs.iter().enumerate() {
                let hit = *qu == Some(c) || tried_ref[u].binary_search(&c).is_ok();
                if hit {
                    bits |= 1 << j;
                }
            }
            if bits != 0 {
                Some(bits)
            } else {
                None
            }
        });

        for &v in &live {
            for (j, &c) in tried[v].iter().enumerate() {
                if blocked[v] & (1 << j) == 0 {
                    coloring.set(v, c);
                    break;
                }
            }
        }
        let live_after = members.iter().filter(|&&v| !coloring.is_colored(v)).count();
        if live_after == live_before && x == X_MAX.min(64) {
            stalled += 1;
        } else if live_after < live_before {
            stalled = 0;
        }
    }

    members
        .iter()
        .copied()
        .filter(|&v| !coloring.is_colored(v))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgc_cluster::ClusterGraph;
    use cgc_net::CommGraph;

    fn clique(n: usize) -> ClusterGraph {
        ClusterGraph::singletons(CommGraph::complete(n))
    }

    #[test]
    fn colors_clique_with_slack_quickly() {
        // 20 vertices, 40 colors: slack ≈ |C|/2 everywhere.
        let g = clique(20);
        let mut c = Coloring::new(20, 40);
        let mut net = ClusterNet::with_log_budget(&g, 32);
        let seeds = SeedStream::new(30);
        let members: Vec<_> = (0..20).collect();
        let left = multicolor_trial(
            &mut net,
            &mut c,
            &seeds,
            0,
            &members,
            |_| ColorInterval::new(0, 40),
            12,
        );
        assert!(left.is_empty(), "left: {left:?}");
        assert!(c.is_proper(&g));
    }

    #[test]
    fn respects_interval_bounds() {
        let g = clique(6);
        let mut c = Coloring::new(6, 30);
        let mut net = ClusterNet::with_log_budget(&g, 32);
        let seeds = SeedStream::new(31);
        let members: Vec<_> = (0..6).collect();
        multicolor_trial(
            &mut net,
            &mut c,
            &seeds,
            0,
            &members,
            |_| ColorInterval::new(10, 25),
            15,
        );
        for v in 0..6 {
            if let Some(col) = c.get(v) {
                assert!((10..25).contains(&col), "vertex {v} got {col}");
            }
        }
        assert!(c.is_proper(&g));
    }

    #[test]
    fn never_conflicts_even_with_tight_space() {
        let g = clique(8);
        let mut c = Coloring::new(8, 8);
        let mut net = ClusterNet::with_log_budget(&g, 32);
        let seeds = SeedStream::new(32);
        let members: Vec<_> = (0..8).collect();
        multicolor_trial(
            &mut net,
            &mut c,
            &seeds,
            0,
            &members,
            |_| ColorInterval::new(0, 8),
            20,
        );
        assert!(c.is_proper(&g));
    }

    #[test]
    fn empty_interval_leaves_vertices_uncolored() {
        let g = clique(4);
        let mut c = Coloring::new(4, 4);
        let mut net = ClusterNet::with_log_budget(&g, 32);
        let seeds = SeedStream::new(33);
        let left = multicolor_trial(
            &mut net,
            &mut c,
            &seeds,
            0,
            &[0, 1, 2, 3],
            |_| ColorInterval::new(2, 2),
            5,
        );
        assert_eq!(left.len(), 4);
    }

    #[test]
    fn finishes_faster_than_single_trials_on_slack() {
        // With doubling set sizes, a 30-clique with 2x colors finishes in
        // very few rounds.
        let g = clique(30);
        let mut c = Coloring::new(30, 60);
        let mut net = ClusterNet::with_log_budget(&g, 32);
        let seeds = SeedStream::new(34);
        let members: Vec<_> = (0..30).collect();
        let left = multicolor_trial(
            &mut net,
            &mut c,
            &seeds,
            0,
            &members,
            |_| ColorInterval::new(0, 60),
            8,
        );
        assert!(left.is_empty(), "left after 8 rounds: {}", left.len());
    }

    #[test]
    fn already_colored_members_are_skipped() {
        let g = clique(5);
        let mut c = Coloring::new(5, 10);
        c.set(0, 9);
        let mut net = ClusterNet::with_log_budget(&g, 32);
        let seeds = SeedStream::new(35);
        let left = multicolor_trial(
            &mut net,
            &mut c,
            &seeds,
            0,
            &[0, 1, 2, 3, 4],
            |_| ColorInterval::new(0, 10),
            10,
        );
        assert!(left.is_empty());
        assert_eq!(c.get(0), Some(9), "pre-colored vertex untouched");
        assert!(c.is_proper(&g));
    }
}
