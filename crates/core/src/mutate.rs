//! Streaming mutations: dirty-region recoloring after edge deltas.
//!
//! After [`cgc_cluster::ClusterGraph::apply_delta_with`] patches the
//! instance in place, the previous proper coloring is *almost* proper on
//! the mutated graph: deleting edges can never create a conflict, and an
//! inserted `H`-edge conflicts only when its endpoints happen to share a
//! color. The recolor pass therefore seeds from the previous coloring and
//! uncolors exactly the **dirty region**:
//!
//! * one endpoint (the larger id — id priority, matching the driver's
//!   tie-break) of every inserted `H`-edge whose endpoints collide;
//! * every vertex whose previous color fell out of range because `Δ`
//!   shrank (`c ≥ Δ' + 1`);
//! * every vertex that was uncolored to begin with (first mutation on a
//!   session that never ran, or a prior failed apply).
//!
//! The dirty vertices are then re-colored in two stages. When the previous
//! coloring is total and sized to the graph, a **wave sweep** runs first:
//! one stable sort groups the dirty vertices by their *previous* color
//! (ascending id within a class; a color that fell out of range still
//! names its class), and each class is one wave, recolored snapshot-then-
//! commit. First every vertex of the wave gets its first-fit candidate
//! against the coloring frozen at wave start; then a serial ascending-id
//! pass commits them. Because the previous coloring was proper only on
//! the *pre-delta* graph, two same-wave vertices may now be adjacent
//! through an inserted edge — so the commit re-checks each candidate
//! against the colors already committed this wave and defers losers. Both
//! steps are serial: churn batches dirty well under one vertex on
//! average, far too little work to pay for a pool dispatch. Each
//! non-empty wave charges one full aggregation round (the same analytic
//! formula as the fallback). Whatever the sweep leaves uncolored falls
//! through to the driver's charged exact-palette loop
//! (`fallback_until_total`), under the same phase tag `"recolor"`; the
//! result is asserted total, proper, and within `Δ' + 1` colors. Costs
//! land in a fresh [`CostMeter`](cgc_net::CostMeter), so the returned
//! [`CostReport`] is the *incremental* price of the update — the quantity
//! to set against a full rebuild + full recolor.
//!
//! All randomness flows from the caller's seed through a dedicated salt,
//! and the wave sweep is deterministic outright (first-fit candidates
//! from a frozen state, serial commit), so a mutation outcome is a pure
//! function of `(graph, previous coloring, reports, seed)` —
//! bit-identical at any thread count like every other pass.

use crate::coloring::Coloring;
use crate::driver::fallback_until_total;
use crate::validate::coloring_stats;
use cgc_cluster::{BitsScratch, ClusterGraph, ClusterNet, DeltaReport, ParallelConfig};
use cgc_net::{CostReport, SeedStream};

/// Stage tag separating recolor randomness from the driver's numbered
/// child streams.
const RECOLOR_SALT: u64 = 0x7265_636f_6c00; // "recol"

/// Everything one [`crate::Session::apply_deltas`] call produced:
/// aggregate delta effects, the dirty region, the repaired coloring, and
/// the incremental cost/timing split.
#[derive(Debug, Clone)]
pub struct MutationOutcome {
    /// Canonical string of the workload the mutation applied to (the
    /// *base* spec — the mutated instance is addressed by this string
    /// plus [`MutationOutcome::delta_epoch`]).
    pub spec_string: String,
    /// The session's delta epoch **after** this mutation: the total
    /// number of batches ever applied to the instance.
    pub delta_epoch: u64,
    /// Batches applied by this call.
    pub batches_applied: usize,
    /// Effective `G`-edge insertions (no-op inserts excluded), summed
    /// over the batches.
    pub g_inserted: usize,
    /// Effective `G`-edge deletions (no-op deletes excluded), summed
    /// over the batches.
    pub g_deleted: usize,
    /// `H`-edges that appeared.
    pub h_inserted: usize,
    /// `H`-edges that vanished.
    pub h_removed: usize,
    /// Surviving `H`-edges whose link multiplicity changed.
    pub h_mult_changed: usize,
    /// Distinct clusters whose support tree was repaired.
    pub dirty_clusters: usize,
    /// Vertices the recolor pass had to re-color (the dirty region).
    pub dirty_vertices: usize,
    /// Vertices actually colored by the recolor loop (equals
    /// `dirty_vertices` on success).
    pub recolored: usize,
    /// Charged rounds the recolor loop consumed (wave sweep + fallback).
    pub recolor_rounds: u64,
    /// Non-empty waves the recolor sweep ran (0 when the previous
    /// coloring was not total — a session that never ran, or the first
    /// call after a failed one).
    pub waves_run: usize,
    /// Dirty vertices in the fullest recolor wave.
    pub largest_wave: usize,
    /// Dirty vertices colored by the wave sweep (first-fit in their
    /// previous color class's wave).
    pub wave_recolored: usize,
    /// Dirty vertices left to the exact-palette fallback loop
    /// (`wave_recolored + fallback_recolored == recolored`).
    pub fallback_recolored: usize,
    /// Cost-meter snapshot of the recolor pass alone (phase
    /// `"recolor"`) — the incremental price of the update.
    pub report: CostReport,
    /// The repaired coloring: total, proper, at most `Δ' + 1` colors on
    /// the mutated instance.
    pub coloring: Coloring,
    /// Wall-clock seconds of the graph patches
    /// ([`ClusterGraph::apply_delta_with`], all batches).
    pub apply_secs: f64,
    /// Wall-clock seconds of the recolor pass.
    pub recolor_secs: f64,
    /// Executor thread count the mutation used.
    pub threads: usize,
}

/// What [`recolor_dirty`] produced, before the session wraps it with
/// delta bookkeeping into a [`MutationOutcome`].
pub(crate) struct RecolorResult {
    pub coloring: Coloring,
    pub report: CostReport,
    pub dirty_vertices: usize,
    pub recolored: usize,
    pub rounds: u64,
    pub waves_run: usize,
    pub largest_wave: usize,
    pub wave_recolored: usize,
    pub fallback_recolored: usize,
}

/// Recolors the dirty region of `graph` after the deltas described by
/// `reports`, seeding from `previous` (a proper total coloring of the
/// pre-delta instance; `None` forces a full recolor). When `previous` is
/// total and sized to the graph, the conflict-resolution sweep runs one
/// wave per previous color class before the fallback — see the
/// [module docs](self).
pub(crate) fn recolor_dirty(
    graph: &ClusterGraph,
    previous: Option<&Coloring>,
    reports: &[DeltaReport],
    beta: u64,
    parallel: ParallelConfig,
    seed: u64,
) -> RecolorResult {
    let n = graph.n_vertices();
    let q = graph.max_degree() + 1;
    let mut coloring = Coloring::new(n, q);
    if let Some(prev) = previous.filter(|p| p.len() == n) {
        for v in 0..n {
            if let Some(c) = prev.get(v) {
                if c < q {
                    coloring.set(v, c);
                }
            }
        }
        // Deletions cannot create conflicts and surviving old edges were
        // properly colored, so the only possible collisions sit on
        // inserted H-edges (skipping any that a later batch removed
        // again). Id priority: the larger endpoint yields.
        for report in reports {
            for &(u, v) in &report.h_inserted {
                if !graph.has_edge(u, v) {
                    continue;
                }
                if let (Some(a), Some(b)) = (coloring.get(u), coloring.get(v)) {
                    if a == b {
                        coloring.clear(u.max(v));
                    }
                }
            }
        }
    }
    let dirty_vertices = n - coloring.n_colored();
    let mut net = ClusterNet::with_log_budget_parallel(graph, beta, parallel);
    net.set_phase("recolor");
    // Stage 1 — wave sweep: dirty vertices grouped by their previous
    // color class run one wave at a time. Candidates are first-fit
    // (smallest available color — deterministic, and with `q = Δ' + 1`
    // the palette is never empty) computed against the coloring frozen
    // at wave start; the serial ascending commit then
    // re-checks each candidate against colors committed earlier in the
    // same wave, deferring losers to the fallback. A total previous
    // coloring gives every vertex a class in `0..previous.q()`, so a
    // vertex whose color fell out of range is swept in that class's wave
    // too; only a previous coloring that is missing or not total sends
    // every dirty vertex straight to the fallback.
    let mut waves_run = 0usize;
    let mut largest_wave = 0usize;
    let mut wave_recolored = 0usize;
    let mut wave_rounds = 0u64;
    if let Some(prev) = previous.filter(|p| p.len() == n && p.is_total() && dirty_vertices > 0) {
        // `uncolored()` is ascending and the sort is stable, so each wave
        // is one previous color class, ascending by id, in class order.
        let mut dirty = coloring.uncolored();
        dirty.sort_by_key(|&v| prev.get(v));
        // One packed scratch, reset per vertex in O(q/64) — the first-fit
        // candidate is a word scan, no free-list materialization.
        let mut scratch = BitsScratch::new();
        let mut cand: Vec<usize> = Vec::new();
        for wave in dirty.chunk_by(|&u, &v| prev.get(u) == prev.get(v)) {
            waves_run += 1;
            largest_wave = largest_wave.max(wave.len());
            wave_rounds += 1;
            net.charge_full_rounds(1, (q as u64).min(4 * net.meter.budget_bits()));
            cand.clear();
            for &v in wave {
                let col = coloring
                    .first_fit_color(graph, v, &mut scratch)
                    .expect("q = Δ' + 1 palettes are never empty");
                cand.push(col);
            }
            for (&v, &col) in wave.iter().zip(&cand) {
                if graph
                    .neighbors(v)
                    .iter()
                    .any(|&u| coloring.get(u) == Some(col))
                {
                    // A same-wave neighbor (adjacent only through an
                    // inserted edge) committed this color first.
                    continue;
                }
                coloring.set(v, col);
                wave_recolored += 1;
            }
        }
    }
    // Stage 2 — whatever remains goes through the driver's charged
    // exact-palette loop.
    let seeds = SeedStream::new(seed).child(RECOLOR_SALT);
    let (fallback_recolored, fb_rounds) = fallback_until_total(&mut net, &mut coloring, &seeds);
    let s = coloring_stats(graph, &coloring);
    assert!(
        s.is_valid_total(),
        "recolor must restore a total proper coloring: {s:?}"
    );
    debug_assert_eq!(wave_recolored + fallback_recolored, dirty_vertices);
    RecolorResult {
        coloring,
        report: net.meter.report(),
        dirty_vertices,
        recolored: wave_recolored + fallback_recolored,
        rounds: wave_rounds + fb_rounds,
        waves_run,
        largest_wave,
        wave_recolored,
        fallback_recolored,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgc_cluster::ClusterGraph;
    use cgc_net::{CommGraph, DeltaBatch};

    fn two_triangles() -> ClusterGraph {
        let comm =
            CommGraph::from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
                .unwrap();
        ClusterGraph::singletons(comm)
    }

    #[test]
    fn clean_previous_coloring_means_zero_dirty_vertices() {
        let mut g = two_triangles();
        let prev = {
            let res = recolor_dirty(&g, None, &[], 32, ParallelConfig::serial(), 1);
            assert_eq!(res.dirty_vertices, 6);
            res.coloring
        };
        // Deleting the bridge can only shrink palettes' usage, never
        // conflict — with Δ unchanged nothing is dirty.
        let report = g
            .apply_delta(&DeltaBatch::new(6, &[], &[(2, 3)]).unwrap())
            .unwrap();
        let reports = [report];
        let res = recolor_dirty(&g, Some(&prev), &reports, 32, ParallelConfig::serial(), 2);
        if g.max_degree() + 1 == prev.q() {
            assert_eq!(res.dirty_vertices, 0);
            assert_eq!(res.rounds, 0);
        }
        assert!(res.coloring.is_proper(&g));
    }

    #[test]
    fn inserted_conflict_uncolors_only_the_larger_endpoint() {
        let g = two_triangles();
        let full = recolor_dirty(&g, None, &[], 32, ParallelConfig::serial(), 3);
        // Find two same-colored non-adjacent vertices and insert the edge.
        let prev = full.coloring;
        let (u, v) = (0..6)
            .flat_map(|u| ((u + 1)..6).map(move |v| (u, v)))
            .find(|&(u, v)| !g.has_edge(u, v) && prev.get(u) == prev.get(v))
            .expect("a triangle pair repeats a color across components");
        let mut g2 = g.clone();
        let report = g2
            .apply_delta(&DeltaBatch::new(6, &[(u, v)], &[]).unwrap())
            .unwrap();
        assert_eq!(report.h_inserted, vec![(u.min(v), u.max(v))]);
        let reports = [report];
        let res = recolor_dirty(&g2, Some(&prev), &reports, 32, ParallelConfig::serial(), 4);
        if g2.max_degree() + 1 == prev.q() {
            assert_eq!(res.dirty_vertices, 1, "only the larger endpoint yields");
            assert_eq!(res.coloring.get(u.min(v)), prev.get(u.min(v)));
        }
        assert!(res.coloring.is_proper(&g2));
        assert!(res.coloring.is_total());
    }

    #[test]
    fn delta_shrink_drops_out_of_range_colors() {
        // Star: center degree 4 (q = 5); deleting two rays shrinks Δ to 2.
        let comm = CommGraph::star(5);
        let mut g = ClusterGraph::singletons(comm);
        let mut prev = Coloring::new(5, 5);
        prev.set(0, 4); // center uses the top color — out of range after
        for v in 1..5 {
            prev.set(v, (v - 1) % 3);
        }
        let report = g
            .apply_delta(&DeltaBatch::new(5, &[], &[(0, 3), (0, 4)]).unwrap())
            .unwrap();
        assert_eq!(g.max_degree(), 2);
        let reports = [report];
        let res = recolor_dirty(&g, Some(&prev), &reports, 32, ParallelConfig::serial(), 5);
        assert!(res.dirty_vertices >= 1, "color 4 is out of range at q = 3");
        // The previous coloring is total, so the out-of-range center still
        // has a class (4 of `0..5`) and the sweep recolors it.
        assert_eq!(
            res.wave_recolored, res.dirty_vertices,
            "out-of-range vertices are wave-recolored"
        );
        assert!(res.coloring.is_total() && res.coloring.is_proper(&g));
        assert_eq!(res.coloring.q(), 3);
    }

    #[test]
    fn wave_sweep_colors_dirty_vertices_by_previous_class() {
        let g = two_triangles();
        let prev = recolor_dirty(&g, None, &[], 32, ParallelConfig::serial(), 9).coloring;
        let mut g2 = g.clone();
        let report = g2
            .apply_delta(&DeltaBatch::new(6, &[(0, 4), (1, 5)], &[(2, 3)]).unwrap())
            .unwrap();
        let reports = [report];
        let mut reference: Option<RecolorResult> = None;
        for threads in [1usize, 2, 4] {
            let res = recolor_dirty(
                &g2,
                Some(&prev),
                &reports,
                32,
                ParallelConfig::with_threads(threads),
                9,
            );
            assert!(res.coloring.is_total() && res.coloring.is_proper(&g2));
            assert_eq!(res.wave_recolored + res.fallback_recolored, res.recolored);
            assert_eq!(res.recolored, res.dirty_vertices);
            if res.dirty_vertices > 0 && g2.max_degree() + 1 == prev.q() {
                assert!(res.waves_run >= 1, "dirty vertices must form waves");
                assert!(res.largest_wave >= 1);
            }
            match &reference {
                None => reference = Some(res),
                Some(r) => {
                    assert_eq!(res.coloring, r.coloring, "threads={threads}");
                    assert_eq!(res.report, r.report, "threads={threads}");
                    assert_eq!(res.waves_run, r.waves_run, "threads={threads}");
                    assert_eq!(res.wave_recolored, r.wave_recolored, "threads={threads}");
                }
            }
        }
    }

    #[test]
    fn recolor_is_thread_count_independent() {
        let mut g = two_triangles();
        let prev = recolor_dirty(&g, None, &[], 32, ParallelConfig::serial(), 7).coloring;
        let report = g
            .apply_delta(&DeltaBatch::new(6, &[(0, 4), (1, 5)], &[(2, 3)]).unwrap())
            .unwrap();
        let reports = [report];
        let mut reference: Option<(Coloring, CostReport)> = None;
        for threads in [1usize, 2, 4, 8] {
            let res = recolor_dirty(
                &g,
                Some(&prev),
                &reports,
                32,
                ParallelConfig::with_threads(threads),
                7,
            );
            match &reference {
                None => reference = Some((res.coloring, res.report)),
                Some((c, r)) => {
                    assert_eq!(&res.coloring, c, "threads={threads}");
                    assert_eq!(&res.report, r, "threads={threads}");
                }
            }
        }
    }
}
