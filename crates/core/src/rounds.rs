//! The candidate-conflict aggregation round shared by the trial stages.
//!
//! `TryColor` (Algorithm 17), slack generation (Algorithm 18), the
//! synchronized color trial (Lemma 4.13) and the sampled colorful matching
//! (Lemma 4.9) all end in the same §3.2 round shape: every vertex
//! publishes `(candidate color?, current color?)`, link machines test the
//! candidate against each distinct neighbor, and a vertex keeps its
//! candidate iff nothing blocked it. This module centralizes that round so
//! every caller shares one allocation-free code path over
//! [`ClusterNet::neighbor_fold_flags`] — and therefore inherits the
//! sharded parallel executor transparently: whatever
//! [`cgc_cluster::ParallelConfig`] the driver installed on the net runs
//! this round shard-parallel with bit-identical blocked flags and charges,
//! for every phase that funnels through here (trycolor, slackgen, sct,
//! sampled matching). Under a parallel config the dispatch rides the
//! process's worker pool ([`cgc_cluster::WorkerPool`]) — parked workers
//! woken per round, so the thousands of conflict rounds a driver run
//! issues spawn no threads at all.

use crate::coloring::{Color, Coloring};
use cgc_cluster::ClusterNet;

/// How simultaneous identical candidates on an `H`-edge are resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TieRule {
    /// The smaller vertex id wins; the larger is blocked (TryColor, SCT).
    SmallerIdWins,
    /// Both endpoints are blocked — adjacent same-color tries must both
    /// drop (slack generation, sampled matching).
    BothBlocked,
}

/// Per-vertex `(candidate, current)` wire messages; reusable across rounds.
pub type ConflictQueries = Vec<(Option<Color>, Option<Color>)>;

/// Runs one candidate-conflict round and returns the blocked flags
/// (borrowed from the runtime's scratch — copy out to keep them).
///
/// `queries` is a caller-owned buffer, cleared and refilled, so warm round
/// loops allocate nothing. `query_bits` should bound the encoded size of
/// one `(candidate, current)` pair — callers pass `color_bits + 2` (two
/// presence bits) to match the paper's accounting.
pub fn candidate_conflict_round<'n>(
    net: &'n mut ClusterNet<'_>,
    query_bits: u64,
    cand: &[Option<Color>],
    coloring: &Coloring,
    tie: TieRule,
    queries: &mut ConflictQueries,
) -> &'n [bool] {
    queries.clear();
    queries.extend((0..cand.len()).map(|v| (cand[v], coloring.get(v))));
    net.neighbor_fold_flags(query_bits, 1, queries, move |v, u, qv, qu| {
        let (Some(c), _) = *qv else { return false };
        qu.1 == Some(c)
            || (qu.0 == Some(c)
                && match tie {
                    TieRule::SmallerIdWins => u < v,
                    TieRule::BothBlocked => true,
                })
    })
}

/// Commits unblocked candidates to `coloring`; returns how many were set.
pub fn commit_unblocked(
    coloring: &mut Coloring,
    cand: &[Option<Color>],
    blocked: &[bool],
) -> usize {
    let mut colored = 0usize;
    for (v, c) in cand.iter().enumerate() {
        if let Some(c) = *c {
            if !blocked[v] {
                coloring.set(v, c);
                colored += 1;
            }
        }
    }
    colored
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgc_cluster::ClusterGraph;
    use cgc_net::CommGraph;

    fn pair() -> ClusterGraph {
        ClusterGraph::singletons(CommGraph::complete(2))
    }

    #[test]
    fn smaller_id_wins_tie() {
        let g = pair();
        let mut net = ClusterNet::with_log_budget(&g, 32);
        let coloring = Coloring::new(2, 4);
        let cand = vec![Some(1), Some(1)];
        let mut queries = ConflictQueries::new();
        let blocked = candidate_conflict_round(
            &mut net,
            4,
            &cand,
            &coloring,
            TieRule::SmallerIdWins,
            &mut queries,
        );
        assert_eq!(blocked, &[false, true]);
    }

    #[test]
    fn symmetric_tie_blocks_both() {
        let g = pair();
        let mut net = ClusterNet::with_log_budget(&g, 32);
        let coloring = Coloring::new(2, 4);
        let cand = vec![Some(1), Some(1)];
        let mut queries = ConflictQueries::new();
        let blocked = candidate_conflict_round(
            &mut net,
            4,
            &cand,
            &coloring,
            TieRule::BothBlocked,
            &mut queries,
        );
        assert_eq!(blocked, &[true, true]);
    }

    #[test]
    fn holders_block_and_commit_counts() {
        let g = pair();
        let mut net = ClusterNet::with_log_budget(&g, 32);
        let mut coloring = Coloring::new(2, 4);
        coloring.set(0, 2);
        let cand = vec![None, Some(2)];
        let mut queries = ConflictQueries::new();
        let blocked = candidate_conflict_round(
            &mut net,
            4,
            &cand,
            &coloring,
            TieRule::SmallerIdWins,
            &mut queries,
        )
        .to_vec();
        assert_eq!(blocked, vec![false, true]);
        assert_eq!(commit_unblocked(&mut coloring, &cand, &blocked), 0);
        let cand2 = vec![None, Some(3)];
        let blocked2 = candidate_conflict_round(
            &mut net,
            4,
            &cand2,
            &coloring,
            TieRule::SmallerIdWins,
            &mut queries,
        )
        .to_vec();
        assert_eq!(commit_unblocked(&mut coloring, &cand2, &blocked2), 1);
        assert_eq!(coloring.get(1), Some(3));
    }
}
