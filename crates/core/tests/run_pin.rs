//! Pins one whole run end to end: a sparse instance on the fingerprint
//! path (a smaller cousin of the solve-sparse benchmark instance, so the
//! debug build stays quick), colored with run seed 1, must keep its
//! `CostReport` totals and its coloring, bit for bit, at 1 and 2 threads.
//!
//! The equivalence suites compare two consumers of one random stream, so
//! they would pass on any keystream. This test fails when the stream, or
//! anything the run computes from it, changes. The values were recorded
//! with the one-block-at-a-time ChaCha8 refill.

use cgc_cluster::ParallelConfig;
use cgc_core::{Coloring, SessionBuilder};

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
