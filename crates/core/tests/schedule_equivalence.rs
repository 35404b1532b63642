//! The color-wave scheduler differential, property-tested. For random
//! G(n, p), power-law and contraction instances:
//!
//! * the [`ColorSchedule`] built from a warm session's coloring
//!   partitions the vertices into classes that match the coloring and
//!   are **pairwise H-disjoint** (`verify_disjoint` — the invariant that
//!   makes a wave conflict-free);
//! * seeded [`ChurnSpec`] schedules applied through
//!   [`Session::apply_deltas`] — where the recolor sweep runs one wave
//!   per class of the session's previous coloring, and the dirty-cluster
//!   support-tree repair is a serial walk — leave the graph, the
//!   coloring and the `CostMeter` totals **fully equal** across thread
//!   counts {1, 2, 4, 8} (threads = 1 runs the same waves inline, so
//!   this is waved-vs-serial bit-identity);
//! * the wave statistics (`waves_run`, `largest_wave`, `wave_recolored`,
//!   `fallback_recolored`) are thread-count invariant, and the wave
//!   sweep plus the fallback account for every dirty vertex.

use cgc_cluster::ParallelConfig;
use cgc_core::{ColorSchedule, MutationOutcome, Session, SessionBuilder};
use cgc_graphs::{ChurnSpec, WorkloadSpec};
use cgc_net::DeltaBatch;
use proptest::prelude::*;

const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Applies `batches` on a fresh warm session at `threads`, checking the
/// per-thread wave invariants along the way.
fn scheduled_outcome(
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
    prop_assert!(out.coloring.is_total(), "threads={}", threads);
    prop_assert!(
        out.coloring.is_proper(session.graph()),
        "threads={}",
        threads
    );
    prop_assert!(
        out.wave_recolored + out.fallback_recolored == out.dirty_vertices,
        "wave sweep + fallback must account for the dirty region (threads={})",
        threads
    );
    prop_assert!(
        out.waves_run > 0 || out.dirty_vertices == 0,
        "a warm session schedules its recolor sweep (threads={})",
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

fn check_schedule(
    base: WorkloadSpec,
    batches: usize,
    batch_size: usize,
    insert_frac: f64,
    churn_seed: u64,
    run_seed: u64,
) -> Result<(), TestCaseError> {
    // -- The schedule itself: a checked partition into H-disjoint waves.
    let mut warm = SessionBuilder::new(base)
        .parallel(ParallelConfig::serial())
        .build();
    warm.run(run_seed);
    let coloring = warm.coloring().expect("warm session is colored").clone();
    let schedule = ColorSchedule::build(warm.graph(), &coloring, &ParallelConfig::serial());
    prop_assert!(
        schedule.verify_disjoint(warm.graph(), &ParallelConfig::serial()),
        "classes must be pairwise H-disjoint: {}",
        base
    );
    let n = warm.graph().n_vertices();
    let mut seen = vec![false; n];
    for class in 0..schedule.n_classes() {
        for &v in schedule.class(class) {
            prop_assert_eq!(coloring.get(v), Some(class));
            prop_assert_eq!(schedule.class_of(v), class);
            prop_assert!(!seen[v], "vertex {} in two classes", v);
            seen[v] = true;
        }
    }
    prop_assert!(
        seen.into_iter().all(|b| b),
        "classes must cover every vertex"
    );

    // -- The schedule in action: scheduled == serial at every width.
    let churn = ChurnSpec {
        base,
        batches,
        batch_size,
        insert_frac,
        seed: churn_seed,
    };
    let deltas = churn.schedule(warm.graph());
    drop(warm);
    let (reference_session, reference) = scheduled_outcome(&base, &deltas, run_seed, THREADS[0])?;
    for &threads in &THREADS[1..] {
        let (session, out) = scheduled_outcome(&base, &deltas, run_seed, threads)?;
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
    fn gnp_waves_are_disjoint_and_scheduled_equals_serial(
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
        check_schedule(base, batches, batch_size, insert_frac, churn_seed, run_seed)?;
    }

    #[test]
    fn powerlaw_waves_are_disjoint_and_scheduled_equals_serial(
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
        check_schedule(base, batches, batch_size, insert_frac, churn_seed, run_seed)?;
    }

    #[test]
    fn contraction_waves_are_disjoint_and_scheduled_equals_serial(
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
        check_schedule(base, batches, batch_size, insert_frac, churn_seed, run_seed)?;
    }
}
