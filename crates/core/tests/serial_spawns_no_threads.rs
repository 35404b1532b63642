//! A serial configuration never starts pool threads — neither on runs nor
//! on writes. A write repairs support trees in one serial walk and
//! recolors its waves serially, then runs the fallback under the caller's
//! config; no pass on either path may switch itself to every core on a
//! large graph.
//!
//! `WorkerPool::total_threads_spawned` is a process-wide counter, so this
//! binary holds one test: no sibling test can grow a pool inside it.

use cgc_cluster::{ParallelConfig, WorkerPool};
use cgc_core::{ServerConfig, SessionBuilder, SessionServer};
use cgc_graphs::{ChurnSpec, WorkloadSpec};

/// m_H = 6,373, above the size at which the disjointness check used to
/// go parallel on its own.
const SPEC: &str = "gnp:n=800,p=0.02,seed=1,layout=star3";

#[test]
fn serial_runs_and_writes_spawn_no_pool_threads() {
    let spec: WorkloadSpec = SPEC.parse().expect("spec parses");
    assert_eq!(WorkerPool::total_threads_spawned(), 0);

    let mut session = SessionBuilder::new(spec)
        .parallel(ParallelConfig::serial())
        .build();
    session.run(1);
    let batches = ChurnSpec::balanced(spec, 1, 32, 7).schedule(session.graph());
    let out = session.apply_deltas(&batches).expect("churn applies");
    assert!(out.coloring.is_proper(session.graph()));
    assert_eq!(
        WorkerPool::total_threads_spawned(),
        0,
        "a serial session's run and write must not start pool threads"
    );

    let server = SessionServer::new(ServerConfig::default().parallel(ParallelConfig::serial()));
    server.run(&spec, 1);
    server.apply_deltas(&spec, &batches).expect("churn applies");
    assert_eq!(
        WorkerPool::total_threads_spawned(),
        0,
        "a serial server's run and write must not start pool threads"
    );
}
