//! Pins the worker pool's lifecycle: the process's one pool starts empty,
//! grows in place to the widest dispatch so far, never retires a worker,
//! and serves warm and narrower rounds without spawning. Runs as its own
//! integration binary with one test, so no sibling test dispatches in
//! this process mid-assertion.

use cgc_net::par::for_each_part;
use cgc_net::WorkerPool;
use std::collections::HashSet;
use std::sync::Mutex;

/// Dispatches `shards` one-element parts, checks each ran once, and
/// returns how many distinct threads ran them.
fn dispatch(shards: usize) -> usize {
    let mut out = vec![usize::MAX; shards];
    let ran = Mutex::new(HashSet::new());
    for_each_part(
        shards,
        &mut out,
        |s| s,
        |s, part| {
            part[0] = s;
            ran.lock().unwrap().insert(std::thread::current().id());
        },
    );
    assert_eq!(out, (0..shards).collect::<Vec<_>>(), "{shards} shards");
    ran.into_inner().unwrap().len()
}

#[test]
fn the_pool_grows_in_place_and_never_retires_a_worker() {
    let spawned = WorkerPool::total_threads_spawned;
    assert_eq!(spawned(), 0, "the pool starts empty");
    assert_eq!(dispatch(1), 1);
    assert_eq!(spawned(), 0, "one shard runs inline and spawns nothing");
    assert_eq!(dispatch(3), 3);
    assert_eq!(spawned(), 2, "3 shards: the caller and 2 new workers");
    assert_eq!(dispatch(5), 5);
    assert_eq!(
        spawned(),
        4,
        "growing to 5 shards adds the 2 missing workers"
    );
    for round in 0..50 {
        for shards in [5, 4, 3, 2, 1] {
            assert_eq!(dispatch(shards), shards, "round {round}");
        }
    }
    assert_eq!(spawned(), 4, "warm and narrower rounds spawn nothing");
}
