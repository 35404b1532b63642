//! Communication-network substrate for the cluster-graph coloring system.
//!
//! This crate models the *communication network* `G = (V_G, E_G)` of the
//! paper "Decentralized Distributed Graph Coloring: Cluster Graphs"
//! (Flin–Halldórsson–Nolin, PODC 2025), Section 3.2: an `n`-machine graph
//! whose links carry `O(log n)`-bit messages in synchronous rounds.
//!
//! It provides four things used by every higher layer:
//!
//! * [`CommGraph`] — the static machine/link topology, with a sharded,
//!   thread-count-independent bulk edge ingest
//!   ([`CommGraph::from_edges_with`]) built on the one edge canonicalizer
//!   ([`canonical_edges`]) and the one CSR assembly
//!   ([`csr_from_canonical_edges`]),
//! * [`CostMeter`] — honest accounting of rounds (both cluster-level
//!   "H-rounds" and network-level "G-rounds") and of bits per link per round,
//!   including automatic pipelining charges for oversized messages,
//! * [`SeedStream`] — deterministic, replayable per-entity random streams so
//!   every experiment row can be regenerated from a single seed,
//! * [`par`] — the shared parallel executor: [`ParallelConfig`],
//!   [`ShardPlan`], the process's one [`WorkerPool`] (a `static` that
//!   grows in place to the widest dispatch and never retires a worker)
//!   and the deterministic split-slice/map-reduce/k-way-merge primitives
//!   every sharded phase above (aggregation rounds, `ClusterGraph::build`,
//!   the generators) runs on. The primitives take a shard count, never a
//!   pool handle. `cgc_cluster` re-exports all of it, so either crate
//!   path works. The pool's job hand-off is the one exception to the
//!   crate-level lint below, which rejects raw-pointer code anywhere else.
//!
//! # Example
//!
//! ```
//! use cgc_net::{CommGraph, CostMeter};
//!
//! let g = CommGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
//! assert_eq!(g.degree(1), 2);
//! let mut meter = CostMeter::new(64);
//! meter.charge_messages(48, 1); // within budget: one sub-round
//! assert_eq!(meter.report().h_rounds, 0); // rounds are charged explicitly
//! ```

#![deny(unsafe_code)]

pub mod bandwidth;
pub mod bits;
pub mod delta;
pub mod error;
pub mod graph;
pub mod par;
pub mod rng;

pub use bandwidth::{CostMeter, CostReport, PhaseCost};
pub use bits::{BitsScratch, PaletteBits};
pub use delta::{DeltaBatch, DeltaEffect};
pub use error::NetError;
pub use graph::{canonical_edges, csr_from_canonical_edges, BfsScratch, CommGraph, MachineId};
pub use par::{
    available_threads, kway_merge_counted, kway_merge_dedup, map_reduce_on, patch_csr_rows,
    ParallelConfig, ShardPlan, WorkerPool,
};
pub use rng::{SeedStream, BULK_RUN_BYTES};
