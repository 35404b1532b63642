//! Pins the worker-pool lifecycle across global-cache growth: replacing
//! the process-global pool with a wider one must shut the retired pool's
//! workers down (terminate + unpark + join), so live pool threads always
//! equal the final capacity — the retired-worker-set leak `WorkerPool`
//! used to merely document. Runs as its own integration binary so no
//! sibling test spawns pool threads in this process mid-assertion.

use cgc_net::WorkerPool;
use std::sync::atomic::{AtomicUsize, Ordering};

#[test]
fn global_growth_retires_and_joins_old_worker_sets() {
    // Seed the cache, then grow it twice while *holding* the earlier Arcs
    // — the historical leak scenario (an ascending sweep keeping runtimes
    // alive accumulated one parked worker set per growth step).
    let first = WorkerPool::global(3).expect("parallel request gets a pool");
    assert_eq!(
        WorkerPool::live_threads(),
        first.max_shards() as u64 - 1,
        "fresh pool: live threads are its workers"
    );

    let second = WorkerPool::global(first.max_shards() + 2).expect("grown pool");
    assert!(second.max_shards() > first.max_shards());
    assert!(
        first.is_shut_down(),
        "growth must shut the retired pool down"
    );
    assert_eq!(
        WorkerPool::live_threads(),
        second.max_shards() as u64 - 1,
        "after growth, live pool threads equal the final capacity"
    );

    let third = WorkerPool::global(second.max_shards() + 1).expect("grown again");
    assert!(second.is_shut_down());
    assert_eq!(
        WorkerPool::live_threads(),
        third.max_shards() as u64 - 1,
        "every growth step retires the previous worker set"
    );

    // A holder that missed the retirement stays correct: dispatches on the
    // shut-down pool run their slots inline on the calling thread.
    let hits = AtomicUsize::new(0);
    first.run(first.max_shards(), &|slot| {
        assert!(slot < 3);
        hits.fetch_add(1, Ordering::Relaxed);
    });
    assert_eq!(hits.load(Ordering::Relaxed), first.max_shards());

    // The surviving pool serves warm rounds without spawning anything.
    let spawned = WorkerPool::total_threads_spawned();
    for _ in 0..50 {
        let hits = AtomicUsize::new(0);
        third.run(third.max_shards(), &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), third.max_shards());
    }
    assert_eq!(
        WorkerPool::total_threads_spawned(),
        spawned,
        "warm rounds on the grown pool must not spawn threads"
    );

    // Re-requesting any width at or below the cached capacity shares the
    // surviving pool — no churn.
    let again = WorkerPool::global(2).expect("narrow request");
    assert_eq!(again.max_shards(), third.max_shards());
    assert_eq!(WorkerPool::live_threads(), third.max_shards() as u64 - 1);
}
