//! Cluster-graph substrate (paper §3).
//!
//! A *cluster graph* `H` is defined over a communication network `G` by
//! partitioning machines into disjoint connected clusters; two nodes of `H`
//! are adjacent iff some link of `G` joins their clusters (Definition 3.1).
//! Each cluster elects a leader and a *support tree* spanning it; a round on
//! `H` is broadcast-down-the-tree, computation on inter-cluster links, and
//! converge-cast back (§3.2).
//!
//! This crate provides:
//!
//! * [`ClusterGraph`] — topology: clusters, support trees, dilation `d`,
//!   deduplicated `H`-adjacency, link multiplicities;
//! * [`ClusterNet`] — the metered runtime: every communication primitive
//!   charges H-rounds, G-rounds and bits to a [`cgc_net::CostMeter`],
//!   pipelining oversized messages;
//! * [`groups`] — random intra-clique groups (Lemma 4.4).
//!
//! # Example
//!
//! ```
//! use cgc_net::CommGraph;
//! use cgc_cluster::{ClusterGraph, ClusterNet};
//!
//! // 4 machines in a path, grouped into two 2-machine clusters.
//! let g = CommGraph::path(4);
//! let h = ClusterGraph::build(g, vec![0, 0, 1, 1]).unwrap();
//! assert_eq!(h.n_vertices(), 2);
//! assert_eq!(h.degree(0), 1);
//! let mut net = ClusterNet::new(&h, 64);
//! net.charge_full_rounds(1, 16);
//! assert!(net.meter.h_rounds() >= 1);
//! ```

#![forbid(unsafe_code)]

pub mod comm;
pub mod exec;
pub mod graph;
pub mod groups;
pub mod overlay;
pub mod par;

pub use cgc_net::bits::{self, BitMatrix, BitsScratch, PaletteBits};
pub use comm::{ClusterNet, RoundScratch};
pub use exec::{
    execute_broadcast, execute_converge, execute_full_round, execute_link_exchange, ExecTrace,
};
pub use graph::{BuildTimings, ClusterGraph, DeltaReport, SupportTree, VertexId};
pub use groups::{check_groups, random_groups, GroupCheck, Groups};
pub use overlay::VirtualGraph;
pub use par::{available_threads, map_reduce_on, ParallelConfig, ShardPlan, WorkerPool};
