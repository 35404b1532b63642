//! The streaming-mutation differential, property-tested: random
//! insert/delete batch sequences (seeded [`ChurnSpec`] schedules) over
//! G(n, p), power-law and contraction instances, applied through
//! [`Session::apply_deltas`] at thread counts {1, 2, 4, 8}, must leave
//!
//! * the incrementally-maintained [`ClusterGraph`] **fully equal**
//!   (support trees, links, multiplicities, CSR adjacency, dilation —
//!   `PartialEq` over everything) to a from-scratch build of the mutated
//!   edge set,
//! * the recolored assignment total, proper and within `Δ' + 1` colors,
//!   with the recolor sweep's waves (one per class of the session's
//!   previous coloring) plus the fallback accounting for every dirty
//!   vertex,
//! * and the [`MutationOutcome`] — coloring, `CostMeter` totals and wave
//!   statistics — bit-identical across thread counts.

use cgc_cluster::{ClusterGraph, ParallelConfig};
use cgc_core::{MutationOutcome, Session, SessionBuilder};
use cgc_graphs::{ChurnSpec, WorkloadSpec};
use cgc_net::{CommGraph, DeltaBatch};
use proptest::prelude::*;

const THREADS: [usize; 4] = [1, 2, 4, 8];

/// From-scratch rebuild of the session's (mutated) instance.
fn rebuild(g: &ClusterGraph) -> ClusterGraph {
    let comm =
        CommGraph::from_edges(g.comm().n_machines(), g.comm().edges()).expect("edges are valid");
    ClusterGraph::build(comm, g.assignment().to_vec())
        .expect("churn schedules keep clusters connected")
}

/// Applies `batches` on a fresh session at `threads`, returning the
/// outcome; checks the per-thread invariants along the way.
fn churned_outcome(
    spec: &WorkloadSpec,
    batches: &[DeltaBatch],
    run_seed: u64,
    threads: usize,
) -> Result<(Session, MutationOutcome), TestCaseError> {
    let mut session = SessionBuilder::new(*spec)
        .parallel(ParallelConfig::with_threads(threads))
        .build();
    session.run(run_seed);
    let out = session
        .apply_deltas(batches)
        .expect("churn schedules apply cleanly");
    prop_assert_eq!(out.delta_epoch, batches.len() as u64);
    prop_assert!(out.coloring.is_total(), "threads={}", threads);
    prop_assert!(
        out.coloring.is_proper(session.graph()),
        "threads={}",
        threads
    );
    prop_assert!(
        out.coloring.q() == session.graph().max_degree() + 1,
        "Δ'+1 colors, threads={}",
        threads
    );
    prop_assert!(
        out.recolored == out.dirty_vertices,
        "every dirty vertex recolored, threads={}",
        threads
    );
    prop_assert!(
        out.wave_recolored + out.fallback_recolored == out.dirty_vertices,
        "wave sweep + fallback must account for the dirty region (threads={})",
        threads
    );
    prop_assert!(
        out.waves_run > 0 || out.dirty_vertices == 0,
        "a warm session runs its recolor sweep (threads={})",
        threads
    );
    prop_assert!(out.largest_wave <= out.dirty_vertices);
    Ok((session, out))
}

fn wave_stats(out: &MutationOutcome) -> (usize, usize, usize, usize) {
    (
        out.waves_run,
        out.largest_wave,
        out.wave_recolored,
        out.fallback_recolored,
    )
}

fn check_churn(
    base: WorkloadSpec,
    batches: usize,
    batch_size: usize,
    insert_frac: f64,
    churn_seed: u64,
    run_seed: u64,
) -> Result<(), TestCaseError> {
    let churn = ChurnSpec {
        base,
        batches,
        batch_size,
        insert_frac,
        seed: churn_seed,
    };
    // The spec string addresses the whole experiment.
    let round_trip: ChurnSpec = churn.to_string().parse().expect("churn string round-trips");
    prop_assert_eq!(&round_trip, &churn);

    let base_graph = SessionBuilder::new(base)
        .parallel(ParallelConfig::serial())
        .build();
    let schedule = churn.schedule(base_graph.graph());

    let (reference_session, reference) = churned_outcome(&base, &schedule, run_seed, THREADS[0])?;
    // Incremental maintenance == from-scratch build, full equality.
    prop_assert!(
        reference_session.graph() == &rebuild(reference_session.graph()),
        "incremental graph diverged from rebuild: {}",
        churn
    );
    // Thread independence: graph, coloring and CostMeter totals.
    for &threads in &THREADS[1..] {
        let (session, out) = churned_outcome(&base, &schedule, run_seed, threads)?;
        prop_assert!(
            session.graph() == reference_session.graph(),
            "graph depends on thread count: {} threads={}",
            churn,
            threads
        );
        prop_assert!(
            out.coloring == reference.coloring,
            "coloring depends on thread count: {} threads={}",
            churn,
            threads
        );
        prop_assert!(
            out.report == reference.report,
            "CostMeter totals depend on thread count: {} threads={}",
            churn,
            threads
        );
        prop_assert_eq!(out.dirty_vertices, reference.dirty_vertices);
        prop_assert_eq!(out.recolor_rounds, reference.recolor_rounds);
        prop_assert!(
            wave_stats(&out) == wave_stats(&reference),
            "wave stats depend on thread count: {} threads={}",
            churn,
            threads
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn gnp_churn_equals_rebuild_and_recolors_properly(
        n in 60usize..140,
        p in 0.03f64..0.08,
        workload_seed in 0u64..1 << 32,
        batches in 1usize..4,
        batch_size in 8usize..40,
        insert_frac in 0.0f64..1.0,
        churn_seed in 0u64..1 << 32,
        run_seed in 0u64..1 << 32,
    ) {
        let base = WorkloadSpec::gnp(n, p, workload_seed);
        check_churn(base, batches, batch_size, insert_frac, churn_seed, run_seed)?;
    }

    #[test]
    fn powerlaw_churn_equals_rebuild_and_recolors_properly(
        n in 60usize..140,
        exponent in 2.2f64..3.0,
        avg in 4.0f64..8.0,
        workload_seed in 0u64..1 << 32,
        batches in 1usize..4,
        batch_size in 8usize..32,
        insert_frac in 0.0f64..1.0,
        churn_seed in 0u64..1 << 32,
        run_seed in 0u64..1 << 32,
    ) {
        let base = WorkloadSpec::power_law(n, exponent, avg, workload_seed);
        check_churn(base, batches, batch_size, insert_frac, churn_seed, run_seed)?;
    }

    #[test]
    fn contraction_churn_equals_rebuild_and_recolors_properly(
        side in 8usize..14,
        lo in 2usize..4,
        extra in 2usize..6,
        workload_seed in 0u64..1 << 32,
        batches in 1usize..3,
        batch_size in 6usize..24,
        insert_frac in 0.0f64..1.0,
        churn_seed in 0u64..1 << 32,
        run_seed in 0u64..1 << 32,
    ) {
        let base = WorkloadSpec::contraction(side, lo, lo + extra, workload_seed);
        check_churn(base, batches, batch_size, insert_frac, churn_seed, run_seed)?;
    }
}
