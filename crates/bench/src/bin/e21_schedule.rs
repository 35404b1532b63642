//! E21 — coloring as a scheduler: churn schedules through the
//! color-wave recolor path. Each row streams a `ChurnSpec` delta
//! schedule through
//! [`Session::apply_deltas`](cgc_core::Session::apply_deltas) on a warm
//! (already colored) session, so the recolor sweep groups the dirty
//! vertices by their color in the session's own previous Δ'+1 coloring
//! and runs one wave per class; the dirty-cluster support-tree repair is
//! a serial walk that needs no waves.
//!
//! Reported per workload: the dirty region, the non-empty recolor waves
//! and the fullest one, the wave-vs-fallback recolor split, charged
//! recolor rounds and wall seconds. The binary asserts the repaired
//! coloring is total, proper and within Δ'+1, and that the wave sweep
//! plus the fallback account for every dirty vertex.

use cgc_bench::{f3, smoke, Table};
use cgc_core::SessionBuilder;
use cgc_graphs::{ChurnSpec, WorkloadSpec};
use std::time::Instant;

const RUN_SEED: u64 = 21;
const CHURN_SEED: u64 = 12;

fn main() {
    let (n, batches, batch_edges) = if smoke() {
        (400usize, 3usize, 40usize)
    } else {
        (8000, 8, 200)
    };
    let p = 10.0 / n as f64;
    let side = (n as f64).sqrt().round() as usize;
    let specs: Vec<WorkloadSpec> = [
        format!("gnp:n={n},p={p},seed=5,layout=star3"),
        format!("powerlaw:n={n},beta=2.5,avg=8,seed=5,layout=path2"),
        format!("contraction:side={side},lo=3,hi=9,seed=5"),
    ]
    .iter()
    .map(|s| s.parse().expect("workload spec parses"))
    .collect();

    let mut t = Table::new(
        "E21: color-wave scheduled mutations (coloring as the execution schedule)",
        &[
            "dirty_clusters",
            "dirty_vertices",
            "waves",
            "largest_wave",
            "wave_recolored",
            "fallback",
            "rounds",
            "secs",
        ],
    );
    for spec in &specs {
        let mut session = SessionBuilder::new(*spec).build();
        session.run(RUN_SEED);
        let churn = ChurnSpec::balanced(*spec, batches, batch_edges, CHURN_SEED);
        let schedule = churn.schedule(session.graph());
        let start = Instant::now();
        let out = session
            .apply_deltas(&schedule)
            .expect("churn schedules apply cleanly");
        let secs = start.elapsed().as_secs_f64();
        assert!(out.coloring.is_total() && out.coloring.is_proper(session.graph()));
        assert!(out.coloring.q() <= session.graph().max_degree() + 1);
        assert_eq!(
            out.wave_recolored + out.fallback_recolored,
            out.dirty_vertices,
            "the wave sweep and the fallback must account for every dirty vertex"
        );
        t.row_for(
            spec,
            vec![
                out.dirty_clusters.to_string(),
                out.dirty_vertices.to_string(),
                out.waves_run.to_string(),
                out.largest_wave.to_string(),
                out.wave_recolored.to_string(),
                out.fallback_recolored.to_string(),
                out.recolor_rounds.to_string(),
                f3(secs),
            ],
        );
    }
    t.print();
    println!(
        "\nnote: `waves` are the non-empty previous-color classes the dirty\n\
         vertices grouped into. Each wave computes first-fit candidates\n\
         against the coloring frozen at wave start, then commits them in\n\
         ascending id order. The classes come from the pre-delta coloring,\n\
         so an inserted edge can join two vertices of one wave; the serial\n\
         commit re-checks each candidate and defers the loser, and only the\n\
         leftovers pay the exact-palette fallback loop."
    );
}
