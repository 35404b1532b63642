//! A runtime keeps the thread count it was built with after a wider
//! runtime is built: the process has one worker pool that grows in place,
//! so no runtime holds a pool handle that a wider one could retire. Its
//! own binary, so no sibling test dispatches in this process mid-test.

use cgc_cluster::{ClusterGraph, ClusterNet, ParallelConfig};
use cgc_net::CommGraph;
use std::collections::HashSet;

/// The distinct threads that ran one `par_vertex_map` over `net`'s plan.
fn threads_used(net: &ClusterNet<'_>) -> usize {
    let ids = net.par_vertex_map(|_| Some(std::thread::current().id()));
    ids.into_iter().collect::<HashSet<_>>().len()
}

#[test]
fn a_runtime_built_before_a_wider_one_keeps_its_threads() {
    let h = ClusterGraph::singletons(CommGraph::path(64));
    let narrow = ClusterNet::with_parallel(&h, 64, ParallelConfig::with_threads(2));
    assert_eq!(narrow.shard_plan().n_shards(), 2);
    assert_eq!(threads_used(&narrow), 2);
    let wide = ClusterNet::with_parallel(&h, 64, ParallelConfig::with_threads(6));
    assert_eq!(wide.shard_plan().n_shards(), 6);
    assert_eq!(threads_used(&wide), 6);
    assert_eq!(
        threads_used(&narrow),
        2,
        "the 2-thread runtime still runs on 2 threads after a 6-thread one"
    );
}
