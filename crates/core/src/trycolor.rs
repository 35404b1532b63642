//! Random color trials — `TryColor` (Algorithm 17, Lemma D.3).
//!
//! Each active vertex samples a candidate color from its own color space
//! (a caller-supplied sampler: uniform interval, clique-palette query, …)
//! and keeps it iff no *colored* neighbor holds it and no *trying*
//! neighbor of smaller id sampled the same color. One aggregation round
//! per trial; Lemma D.3 shows uncolored degrees drop by a constant factor
//! per round when vertices have constant relative slack in their space.
//!
//! The trial loops the pipeline repeats have one kernel each:
//!
//! * [`palette_trial_rounds`] — exact-palette trials (every active vertex
//!   learns its palette bitmap and tries a uniform free color): the
//!   driver's terminal fallback, §9.1 shattering, the §9.4 list-coloring
//!   stand-in and the Johansson baseline;
//! * [`first_fit_finish`] — the charged sequential finish that gives each
//!   straggler its smallest free color (list coloring, cabal stragglers,
//!   put-aside leftovers);
//! * [`try_then_multicolor`] — `TryColor` then `MultiColorTrial` over a
//!   suffix interval `[lo(v), q)` (the sparse step and both outlier
//!   steps).

use crate::coloring::{Color, Coloring};
use crate::mct::{multicolor_trial, ColorInterval};
use crate::params::Params;
use crate::rounds::{candidate_conflict_round, commit_unblocked, ConflictQueries, TieRule};
use cgc_cluster::{bits, BitsScratch, ClusterNet, VertexId};
use cgc_net::SeedStream;
use rand::RngExt;
use rand_chacha::ChaCha8Rng;

/// Reusable buffers for a sequence of trial rounds; hoisting one instance
/// across a round loop makes every round allocation-free after warm-up.
#[derive(Debug, Default)]
pub struct TrialScratch {
    cand: Vec<Option<Color>>,
    queries: ConflictQueries,
}

impl TrialScratch {
    /// Fresh (empty) buffers.
    pub fn new() -> Self {
        Self::default()
    }
}

/// One round of `TryColor`.
///
/// `eligible[v]` marks the vertices allowed to try (uncolored vertices
/// outside it never try); each eligible uncolored vertex activates with
/// probability `activation_p` (Algorithm 17's `p = γ/4`) and samples a
/// candidate via `sampler` (returning `None` = sit out this round). The
/// flags are packed and intersected with the coloring's occupancy mask
/// (`eligible & !occupied`), as [`try_color_rounds`] does, and the round
/// runs through [`try_color_round_words`].
///
/// Returns the number of vertices newly colored.
///
/// # Panics
///
/// Panics if `eligible.len()` differs from the vertex count.
pub fn try_color_round(
    net: &mut ClusterNet<'_>,
    coloring: &mut Coloring,
    seeds: &SeedStream,
    salt: u64,
    eligible: &[bool],
    activation_p: f64,
    sampler: impl FnMut(VertexId, &mut ChaCha8Rng) -> Option<Color>,
) -> usize {
    assert_eq!(
        eligible.len(),
        net.g.n_vertices(),
        "eligibility flag per vertex"
    );
    let mut elig_words = Vec::new();
    bits::pack_flags_into(eligible, &mut elig_words);
    let mut active = Vec::new();
    bits::andnot_into(&elig_words, coloring.occupied_words(), &mut active);
    try_color_round_words(
        net,
        coloring,
        seeds,
        salt,
        &active,
        activation_p,
        sampler,
        &mut TrialScratch::new(),
    )
}

/// One round of `TryColor` over a **packed active mask** (bit `v` set =
/// `v` tries this round; the caller guarantees active vertices are
/// uncolored — typically `eligible & !occupied`, word-wise). The round
/// loops that maintain their eligibility sets as bit-words
/// ([`try_color_rounds`], [`palette_trial_rounds`]) call this directly:
/// candidate generation iterates only the set bits instead of scanning
/// all `n` flags.
///
/// Set bits are visited ascending, each with its vertex's own seeded RNG
/// (`seeds.rng_for(v, salt)`), so the round is a pure function of the
/// mask, not of how it was built.
///
/// # Panics
///
/// Panics if `active_words` is not sized to the vertex count.
#[allow(clippy::too_many_arguments)]
pub fn try_color_round_words(
    net: &mut ClusterNet<'_>,
    coloring: &mut Coloring,
    seeds: &SeedStream,
    salt: u64,
    active_words: &[u64],
    activation_p: f64,
    mut sampler: impl FnMut(VertexId, &mut ChaCha8Rng) -> Option<Color>,
    scratch: &mut TrialScratch,
) -> usize {
    let n = net.g.n_vertices();
    assert_eq!(
        active_words.len(),
        bits::words_for(n),
        "one mask bit per vertex"
    );

    let cand = &mut scratch.cand;
    cand.clear();
    cand.resize(n, None);
    bits::for_each_set(active_words, |v| {
        debug_assert!(
            !coloring.is_colored(v),
            "active mask must exclude colored vertices"
        );
        let mut rng = seeds.rng_for(v as u64, salt);
        if activation_p >= 1.0 || rng.random::<f64>() < activation_p {
            cand[v] = sampler(v, &mut rng);
        }
    });

    conflict_round_and_commit(net, coloring, scratch)
}

/// The shared second half of a trial round: the charged conflict
/// resolution over `scratch.cand`, then the serial commit.
fn conflict_round_and_commit(
    net: &mut ClusterNet<'_>,
    coloring: &mut Coloring,
    scratch: &mut TrialScratch,
) -> usize {
    // Queries carry (candidate?, current color?) — both O(log Δ) bits; the
    // current color is already public at link machines but charging it
    // keeps the accounting conservative.
    let cbits = net.color_bits() + 2;
    let blocked = candidate_conflict_round(
        net,
        cbits,
        &scratch.cand,
        coloring,
        TieRule::SmallerIdWins,
        &mut scratch.queries,
    );
    commit_unblocked(coloring, &scratch.cand, blocked)
}

/// A sampler over the color interval `[lo, hi)`.
pub fn interval_sampler(
    lo: Color,
    hi: Color,
) -> impl FnMut(VertexId, &mut ChaCha8Rng) -> Option<Color> {
    move |_, rng| {
        if lo >= hi {
            None
        } else {
            Some(rng.random_range(lo..hi))
        }
    }
}

/// Repeats [`try_color_round`] until `rounds` trials have run or all
/// eligible vertices are colored; returns total newly colored.
///
/// The eligibility flags are packed into bit-words **once**; each round
/// then intersects them against the coloring's occupancy mask word-wise
/// (`eligible & !occupied`) — both the "anyone left?" early exit and the
/// candidate sweep consume the set in packed form.
#[allow(clippy::too_many_arguments)]
pub fn try_color_rounds(
    net: &mut ClusterNet<'_>,
    coloring: &mut Coloring,
    seeds: &SeedStream,
    salt_base: u64,
    eligible: &[bool],
    activation_p: f64,
    rounds: usize,
    mut sampler: impl FnMut(VertexId, &mut ChaCha8Rng) -> Option<Color>,
) -> usize {
    let mut total = 0usize;
    let mut scratch = TrialScratch::new();
    let mut elig_words = Vec::new();
    bits::pack_flags_into(eligible, &mut elig_words);
    let mut active = Vec::new();
    for r in 0..rounds {
        bits::andnot_into(&elig_words, coloring.occupied_words(), &mut active);
        if !bits::any_set(&active) {
            break;
        }
        total += try_color_round_words(
            net,
            coloring,
            seeds,
            salt_base.wrapping_add(r as u64),
            &active,
            activation_p,
            &mut sampler,
            &mut scratch,
        );
    }
    total
}

/// Exact-palette trials under id priority. Each round the active set is
/// `members & !occupied` (every uncolored vertex when `members` is
/// `None`); the loop stops when it is empty or after `max_rounds` rounds.
/// Otherwise every active vertex learns its palette — a used-color bitmap
/// aggregated over its neighbors, charged as one full round of
/// `msg_bits` — and tries a uniform free color, salted `salt(r)` in round
/// `r` (counted from 0). With `q ≥ Δ + 1` the smallest active id always
/// has a free color and wins, so every round colors at least one vertex.
///
/// The used-color rows are packed (`⌈q/64⌉` words per vertex) in one flat
/// matrix filled shard-parallel; the sampler answers count/select against
/// its own row by popcount. All buffers are hoisted, so warm rounds reuse
/// them, and a call with no active vertex allocates nothing. Returns
/// `(vertices colored, rounds run)`.
#[allow(clippy::too_many_arguments)]
pub fn palette_trial_rounds(
    net: &mut ClusterNet<'_>,
    coloring: &mut Coloring,
    seeds: &SeedStream,
    members: Option<&[u64]>,
    msg_bits: u64,
    max_rounds: usize,
    salt: impl Fn(u64) -> u64,
) -> (usize, usize) {
    let n = net.g.n_vertices();
    let q = coloring.q();
    let wpr = bits::words_for(q);
    let mut colored = 0usize;
    let mut active: Vec<u64> = Vec::new();
    let mut used_rows: Vec<u64> = Vec::new();
    let mut scratch = TrialScratch::new();
    for r in 0..max_rounds {
        let occupied = coloring.occupied_words();
        let any_active = match members {
            Some(m) => bits::any_andnot(m, occupied),
            None => !coloring.is_total(),
        };
        if !any_active {
            return (colored, r);
        }
        debug_assert!(r <= 2 * n + 16, "every round colors a vertex");
        match members {
            Some(m) => bits::andnot_into(m, occupied, &mut active),
            None => bits::complement_into(occupied, n, &mut active),
        }
        net.charge_full_rounds(1, msg_bits);
        let col = &*coloring;
        let active_ref = &active;
        net.par_vertex_fill_words(wpr, &mut used_rows, |v, row| {
            if !bits::test_bit(active_ref, v) {
                return;
            }
            for &u in net.g.neighbors(v) {
                if let Some(c) = col.get(u) {
                    bits::set_bit(row, c);
                }
            }
        });
        let rows = &used_rows;
        colored += try_color_round_words(
            net,
            coloring,
            seeds,
            salt(r as u64),
            &active,
            1.0,
            |v, rng| {
                let row = &rows[v * wpr..(v + 1) * wpr];
                match bits::count_free(row, q) {
                    0 => None,
                    free => bits::nth_free(row, q, rng.random_range(0..free)),
                }
            },
            &mut scratch,
        );
    }
    (colored, max_rounds)
}

/// The charged sequential finish: each still-uncolored vertex of
/// `vertices`, in order, takes its smallest free color, one aggregation
/// round of `color_bits + id_bits` per vertex colored. Returns the number
/// colored.
///
/// # Panics
///
/// Panics if a vertex has no free color (`q ≤ deg`).
pub fn first_fit_finish(
    net: &mut ClusterNet<'_>,
    coloring: &mut Coloring,
    vertices: impl IntoIterator<Item = VertexId>,
) -> usize {
    let mut scratch = BitsScratch::new();
    let mut colored = 0usize;
    for v in vertices {
        if coloring.is_colored(v) {
            continue;
        }
        net.charge_full_rounds(1, net.color_bits() + net.id_bits());
        let c = coloring
            .first_fit_color(net.g, v, &mut scratch)
            .expect("q = Δ + 1 colors always leave one free");
        coloring.set(v, c);
        colored += 1;
    }
    colored
}

/// `TryColor`, then `MultiColorTrial` on what it left: the `eligible`
/// vertices run `params.trycolor_rounds` uniform trials over `[lo(v), q)`
/// (seeded `try_seeds`, salts from `try_salt`), and those still uncolored
/// run at most `params.mct_max_rounds` rounds of MultiColorTrial over the
/// same intervals (`mct_seeds`, `mct_salt`). Returns the number of
/// vertices the two colored.
pub fn try_then_multicolor(
    net: &mut ClusterNet<'_>,
    coloring: &mut Coloring,
    (try_seeds, try_salt): (&SeedStream, u64),
    (mct_seeds, mct_salt): (&SeedStream, u64),
    eligible: &[bool],
    lo: impl Fn(VertexId) -> Color,
    params: &Params,
) -> usize {
    let q = coloring.q();
    let tried = try_color_rounds(
        net,
        coloring,
        try_seeds,
        try_salt,
        eligible,
        1.0,
        params.trycolor_rounds,
        |v, rng| {
            let lo = lo(v);
            (lo < q).then(|| rng.random_range(lo..q))
        },
    );
    let left: Vec<VertexId> = (0..eligible.len())
        .filter(|&v| eligible[v] && !coloring.is_colored(v))
        .collect();
    let still = multicolor_trial(
        net,
        coloring,
        mct_seeds,
        mct_salt,
        &left,
        |v| ColorInterval::new(lo(v), q),
        params.mct_max_rounds,
    );
    tried + left.len() - still.len()
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
    fn trials_never_create_conflicts() {
        let g = clique(12);
        let mut c = Coloring::new(12, 12);
        let mut net = ClusterNet::with_log_budget(&g, 32);
        let seeds = SeedStream::new(7);
        let all = vec![true; 12];
        for r in 0..30 {
            try_color_round(
                &mut net,
                &mut c,
                &seeds,
                r,
                &all,
                1.0,
                interval_sampler(0, 12),
            );
            assert!(c.is_proper(&g), "conflict after round {r}");
        }
    }

    #[test]
    fn clique_eventually_fully_colored() {
        let g = clique(10);
        let mut c = Coloring::new(10, 10);
        let mut net = ClusterNet::with_log_budget(&g, 32);
        let seeds = SeedStream::new(8);
        let all = vec![true; 10];
        try_color_rounds(
            &mut net,
            &mut c,
            &seeds,
            0,
            &all,
            1.0,
            200,
            interval_sampler(0, 10),
        );
        assert!(c.is_total(), "uncolored: {:?}", c.uncolored());
        assert!(c.is_proper(&g));
    }

    #[test]
    fn eligibility_respected() {
        let g = clique(8);
        let mut c = Coloring::new(8, 8);
        let mut net = ClusterNet::with_log_budget(&g, 32);
        let seeds = SeedStream::new(9);
        let mut elig = vec![false; 8];
        elig[3] = true;
        try_color_rounds(
            &mut net,
            &mut c,
            &seeds,
            0,
            &elig,
            1.0,
            10,
            interval_sampler(0, 8),
        );
        assert!(c.is_colored(3));
        assert_eq!(c.n_colored(), 1);
    }

    #[test]
    fn colored_neighbors_block_their_color() {
        let g = clique(3);
        let mut c = Coloring::new(3, 3);
        c.set(0, 1);
        let mut net = ClusterNet::with_log_budget(&g, 32);
        let seeds = SeedStream::new(10);
        let elig = vec![true; 3];
        // Sampler always proposes color 1: nobody else can take it.
        for r in 0..5 {
            try_color_round(&mut net, &mut c, &seeds, r, &elig, 1.0, |_, _| Some(1));
        }
        assert_eq!(c.n_colored(), 1, "only the pre-colored vertex holds 1");
    }

    #[test]
    fn smaller_id_wins_simultaneous_try() {
        let g = clique(2);
        let mut c = Coloring::new(2, 2);
        let mut net = ClusterNet::with_log_budget(&g, 32);
        let seeds = SeedStream::new(11);
        try_color_round(&mut net, &mut c, &seeds, 0, &[true, true], 1.0, |_, _| {
            Some(0)
        });
        assert_eq!(c.get(0), Some(0));
        assert_eq!(c.get(1), None);
    }

    /// Lemma D.3 shape: with slack, degrees drop by a constant factor per
    /// round (here: a loose empirical check on a sparse random-ish graph).
    #[test]
    fn degree_reduction_on_slack_instance() {
        // 40 vertices, max degree 4 (two disjoint 20-cycles): palette 41
        // colors would be absurd; use q = 8 ≥ Δ+1 with huge slack.
        let mut edges = Vec::new();
        for j in 0..20 {
            edges.push((j, (j + 1) % 20));
            edges.push((20 + j, 20 + (j + 1) % 20));
        }
        let g = ClusterGraph::singletons(CommGraph::from_edges(40, &edges).unwrap());
        let mut c = Coloring::new(40, 8);
        let mut net = ClusterNet::with_log_budget(&g, 32);
        let seeds = SeedStream::new(12);
        let all = vec![true; 40];
        let colored = try_color_rounds(
            &mut net,
            &mut c,
            &seeds,
            0,
            &all,
            1.0,
            6,
            interval_sampler(0, 8),
        );
        assert!(colored >= 30, "only {colored} colored in 6 rounds");
        assert!(c.is_proper(&g));
    }
}
