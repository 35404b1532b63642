//! # cluster-coloring
//!
//! A full Rust implementation of **"Decentralized Distributed Graph
//! Coloring: Cluster Graphs"** (Flin, Halldórsson, Nolin — PODC 2025,
//! arXiv:2405.07725): sub-logarithmic `(Δ+1)`-coloring of cluster graphs,
//! together with every substrate the algorithm stands on — a metered
//! communication-network simulator, the cluster-graph aggregation layer,
//! fingerprint sketches, pseudo-random tool kits, the almost-clique
//! decomposition, baselines and workload generators.
//!
//! A *cluster graph* `H` arises by contracting disjoint connected sets of
//! machines of a communication network `G` into single conflict-graph
//! nodes; links carry `O(log n)` bits per round, so a node cannot even
//! learn its own palette — yet the paper colors `H` with `Δ+1` colors in
//! `O(d · log* n)` rounds for `Δ ≥ polylog(n)` (Theorem 1.2) and
//! `O(d · log⁷ log n)` in general (Theorem 1.1).
//!
//! ## Crate map
//!
//! | module | contents |
//! |---|---|
//! | [`net`] | machines, links, round/bandwidth metering, seeded RNG |
//! | [`cluster`] | cluster graphs, support trees, aggregation, random groups (Lemma 4.4) |
//! | [`sketch`] | fingerprints (§5): estimation, compression, counting |
//! | [`pseudo`] | k-wise/min-wise hashing, representative sets (App. C) |
//! | [`decomp`] | sparsity, buddy predicate, almost-clique decomposition (§5.4) |
//! | [`core`] | the coloring algorithm (§4–§9) and its driver |
//! | [`baselines`] | greedy, Johansson, naive-CONGEST cost model |
//! | [`graphs`] | generators: G(n,p), planted cliques/cabals, layouts, squares |
//!
//! ## Quickstart
//!
//! Every instance is addressed by a [`graphs::WorkloadSpec`] string and
//! every run goes through a [`core::Session`]:
//!
//! ```
//! use cluster_coloring::prelude::*;
//!
//! // 3 planted 16-cliques with light noise, laid out over star-shaped
//! // clusters of 4 machines, 2 parallel links per conflict edge.
//! let mut session = SessionBuilder::parse(
//!     "mixture:c=3,k=16,anti=0.04,ext=1,bg=20,bgp=0.1,seed=7,layout=star4,links=2",
//! )
//! .unwrap()
//! .build();
//!
//! // Color it with the paper's algorithm under a 32·log n bit budget.
//! let out = session.run(42);
//!
//! assert!(out.run.coloring.is_total());
//! assert!(out.run.coloring.is_proper(session.graph()));
//! println!(
//!     "colored {} ({} threads) in {} cluster rounds ({} network rounds)",
//!     out.spec_string,
//!     out.threads,
//!     out.run.report.h_rounds,
//!     out.run.report.g_rounds,
//! );
//! ```

#![forbid(unsafe_code)]

pub use cgc_baselines as baselines;
pub use cgc_cluster as cluster;
pub use cgc_core as core;
pub use cgc_decomp as decomp;
pub use cgc_graphs as graphs;
pub use cgc_net as net;
pub use cgc_pseudo as pseudo;
pub use cgc_sketch as sketch;

/// One-stop imports for applications.
pub mod prelude {
    pub use cgc_baselines::{greedy_coloring, luby_coloring, naive_simulation_cost};
    pub use cgc_cluster::{
        available_threads, ClusterGraph, ClusterNet, ParallelConfig, VertexId, WorkerPool,
    };
    pub use cgc_core::{
        color_cluster_graph_with, coloring_stats, Coloring, DriverOptions, Params, ParamsProfile,
        RunOutcome, RunResult, Session, SessionBuilder,
    };
    pub use cgc_decomp::{acd_oracle, compute_acd, AcdParams};
    pub use cgc_graphs::{
        bottleneck_instance, cabal_spec, gnp_spec, mixture_spec, realize, square_spec, HSpec,
        Layout, MixtureConfig, WorkloadFamily, WorkloadSpec,
    };
    pub use cgc_net::{CommGraph, CostMeter, CostReport, SeedStream};
    pub use cgc_sketch::{approx_count_neighbors, CountingParams, Fingerprint};
}
