//! Pins one whole run end to end: a sparse instance on the fingerprint
//! path (a smaller cousin of the solve-sparse benchmark instance, so the
//! debug build stays quick), colored with run seed 1, must keep its
//! `CostReport` totals and its coloring, bit for bit, at 1 and 2 threads.
//! A second pin does the same for the write path: a churn schedule
//! applied to that run through `Session::apply_deltas`. Three more pin
//! the trial kernels that run does not reach: the §9 path, a write to a
//! session that never ran (all through the fallback), and a cabal run
//! whose stragglers reach the first-fit finish.
//!
//! The equivalence suites compare two consumers of one random stream, so
//! they would pass on any keystream. This test fails when the stream, or
//! anything the run computes from it, changes. The run values were
//! recorded with the one-block-at-a-time ChaCha8 refill; the write values
//! while the recolor waves still came from a prebuilt color schedule, so
//! they also pin that the sweep forms the same waves without one.

use cgc_cluster::ParallelConfig;
use cgc_core::{Coloring, SessionBuilder};
use cgc_graphs::ChurnSpec;

const SPEC: &str = "gnp:n=600,p=0.015,seed=3,layout=star3";
const RUN_SEED: u64 = 1;
const H_ROUNDS: u64 = 134;
const BITS: u128 = 93_479_560;
/// FNV-1a over every vertex's color as a little-endian `u64`
/// (`u64::MAX` when uncolored).
const COLORING_DIGEST: u64 = 0xad6b_6706_4f24_60c7;

fn digest(coloring: &Coloring) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in 0..coloring.len() {
        let color = coloring.get(v).map_or(u64::MAX, |c| c as u64);
        for byte in color.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

#[test]
fn sparse_fingerprint_run_is_pinned() {
    for threads in [1, 2] {
        let mut session = SessionBuilder::parse(SPEC)
            .expect("the pinned spec parses")
            .parallel(ParallelConfig::with_threads(threads))
            .build();
        let out = session.run(RUN_SEED);
        let report = &out.run.report;
        assert_eq!(report.h_rounds, H_ROUNDS, "h_rounds at {threads} threads");
        assert_eq!(report.bits, BITS, "bits at {threads} threads");
        assert!(out.run.coloring.is_total(), "total at {threads} threads");
        assert_eq!(
            digest(&out.run.coloring),
            COLORING_DIGEST,
            "coloring at {threads} threads"
        );
    }
}

/// Churn schedule of the write pin: `ChurnSpec::balanced(SPEC, 64, 24, 5)`,
/// applied as 61 single-batch calls, then one call with the last 3.
const CHURN_BATCHES: usize = 64;
const CHURN_BATCH_SIZE: usize = 24;
const CHURN_SEED: u64 = 5;
const SINGLE_CALLS: usize = 61;
const WRITE_H_ROUNDS: u64 = 120;
const WRITE_BITS: u128 = 6_142_906;
const WRITE_DIRTY: usize = 72;
const WRITE_WAVES: usize = 40;
const WRITE_WAVE_RECOLORED: usize = 72;
const WRITE_FALLBACK_RECOLORED: usize = 0;
const WRITE_DIGEST: u64 = 0xd378_4f18_5d0c_ceb1;

#[test]
fn churn_writes_after_the_run_are_pinned() {
    for threads in [1, 2] {
        let mut session = SessionBuilder::parse(SPEC)
            .expect("the pinned spec parses")
            .parallel(ParallelConfig::with_threads(threads))
            .build();
        session.run(RUN_SEED);
        let batches =
            ChurnSpec::balanced(*session.spec(), CHURN_BATCHES, CHURN_BATCH_SIZE, CHURN_SEED)
                .schedule(session.graph());
        let (singles, tail) = batches.split_at(SINGLE_CALLS);
        let (mut h_rounds, mut bits) = (0u64, 0u128);
        let (mut dirty, mut waves, mut wave_recolored, mut fallback_recolored) = (0, 0, 0, 0);
        for call in singles.chunks(1).chain([tail]) {
            let out = session
                .apply_deltas(call)
                .expect("churn schedules apply cleanly");
            // A write of 24 G-edges (0.6% of m) must charge fewer rounds
            // than the full run a rebuild would repeat.
            assert!(
                out.report.h_rounds < H_ROUNDS,
                "a write charged {} h_rounds at {threads} threads",
                out.report.h_rounds
            );
            h_rounds += out.report.h_rounds;
            bits += out.report.bits;
            dirty += out.dirty_vertices;
            waves += out.waves_run;
            wave_recolored += out.wave_recolored;
            fallback_recolored += out.fallback_recolored;
        }
        let coloring = session.coloring().expect("a write leaves a coloring");
        assert_eq!(h_rounds, WRITE_H_ROUNDS, "h_rounds at {threads} threads");
        assert_eq!(bits, WRITE_BITS, "bits at {threads} threads");
        assert_eq!(dirty, WRITE_DIRTY, "dirty vertices at {threads} threads");
        assert_eq!(waves, WRITE_WAVES, "waves at {threads} threads");
        assert_eq!(
            wave_recolored, WRITE_WAVE_RECOLORED,
            "wave-recolored at {threads} threads"
        );
        assert_eq!(
            fallback_recolored, WRITE_FALLBACK_RECOLORED,
            "fallback-recolored at {threads} threads"
        );
        assert!(coloring.is_total(), "total at {threads} threads");
        assert_eq!(
            digest(coloring),
            WRITE_DIGEST,
            "coloring at {threads} threads"
        );
    }
}

/// The §9 path: `SPEC` with `Δ_low` above its Δ and a single shatter
/// round, so the shatter trial leaves 15 components that the
/// list-coloring rounds finish in 2 rounds.
const LOWDEG_H_ROUNDS: u64 = 18;
const LOWDEG_BITS: u128 = 607_446;
const LOWDEG_COMPONENTS: usize = 15;
const LOWDEG_FINISH_ROUNDS: usize = 2;
const LOWDEG_DIGEST: u64 = 0xbd78_a28a_a88f_c547;

#[test]
fn low_degree_run_is_pinned() {
    for threads in [1, 2] {
        let mut session = SessionBuilder::parse(SPEC)
            .expect("the pinned spec parses")
            .parallel(ParallelConfig::with_threads(threads))
            .build();
        session.params_mut().delta_low = 1 << 20;
        session.params_mut().shatter_rounds = 1;
        let out = session.run(RUN_SEED);
        let report = &out.run.report;
        let lowdeg = out.run.stats.lowdeg.expect("the §9 path ran");
        assert_eq!(
            lowdeg.n_components, LOWDEG_COMPONENTS,
            "components at {threads} threads"
        );
        assert_eq!(
            lowdeg.finish_rounds, LOWDEG_FINISH_ROUNDS,
            "finish rounds at {threads} threads"
        );
        assert_eq!(
            report.h_rounds, LOWDEG_H_ROUNDS,
            "h_rounds at {threads} threads"
        );
        assert_eq!(report.bits, LOWDEG_BITS, "bits at {threads} threads");
        assert!(out.run.coloring.is_total(), "total at {threads} threads");
        assert_eq!(
            digest(&out.run.coloring),
            LOWDEG_DIGEST,
            "coloring at {threads} threads"
        );
    }
}

/// A write to a session that never ran: with no previous coloring, every
/// vertex goes through the exact-palette fallback.
const FALLBACK_H_ROUNDS: u64 = 18;
const FALLBACK_BITS: u128 = 607_446;
const FALLBACK_ROUNDS: u64 = 3;
const FALLBACK_DIGEST: u64 = 0xb705_e7ab_f392_c702;

#[test]
fn fallback_write_without_a_run_is_pinned() {
    for threads in [1, 2] {
        let mut session = SessionBuilder::parse(SPEC)
            .expect("the pinned spec parses")
            .parallel(ParallelConfig::with_threads(threads))
            .build();
        let batches = ChurnSpec::balanced(*session.spec(), 1, CHURN_BATCH_SIZE, CHURN_SEED)
            .schedule(session.graph());
        let out = session
            .apply_deltas(&batches)
            .expect("churn schedules apply cleanly");
        let n = session.graph().n_vertices();
        assert_eq!(out.dirty_vertices, n, "dirty at {threads} threads");
        assert_eq!(out.wave_recolored, 0, "wave-recolored at {threads} threads");
        assert_eq!(
            out.fallback_recolored, n,
            "fallback-recolored at {threads} threads"
        );
        assert_eq!(
            out.recolor_rounds, FALLBACK_ROUNDS,
            "rounds at {threads} threads"
        );
        assert_eq!(
            out.report.h_rounds, FALLBACK_H_ROUNDS,
            "h_rounds at {threads} threads"
        );
        assert_eq!(out.report.bits, FALLBACK_BITS, "bits at {threads} threads");
        let coloring = session.coloring().expect("a write leaves a coloring");
        assert!(coloring.is_total(), "total at {threads} threads");
        assert_eq!(
            digest(coloring),
            FALLBACK_DIGEST,
            "coloring at {threads} threads"
        );
    }
}

/// A cabal instance run without the synchronized color trial: 9 cabal
/// stragglers reach the charged first-fit finish.
const CABAL_SPEC: &str = "cabal:c=6,k=50,anti=3,ext=4,seed=3,layout=star3";
const CABAL_H_ROUNDS: u64 = 294;
const CABAL_BITS: u128 = 222_310_608;
const CABAL_LEFTOVER: usize = 9;
const CABAL_DIGEST: u64 = 0xb4a1_94e7_432b_340b;

#[test]
fn cabal_first_fit_finish_is_pinned() {
    for threads in [1, 2] {
        let mut session = SessionBuilder::parse(CABAL_SPEC)
            .expect("the pinned spec parses")
            .parallel(ParallelConfig::with_threads(threads))
            .build();
        session.params_mut().ablation.sct = false;
        let out = session.run(RUN_SEED);
        let report = &out.run.report;
        assert_eq!(
            out.run.stats.cabal.leftover, CABAL_LEFTOVER,
            "stragglers at {threads} threads"
        );
        assert_eq!(
            report.h_rounds, CABAL_H_ROUNDS,
            "h_rounds at {threads} threads"
        );
        assert_eq!(report.bits, CABAL_BITS, "bits at {threads} threads");
        assert!(out.run.coloring.is_total(), "total at {threads} threads");
        assert_eq!(
            digest(&out.run.coloring),
            CABAL_DIGEST,
            "coloring at {threads} threads"
        );
    }
}
