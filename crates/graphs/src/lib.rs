//! Workload generators for the cluster-coloring experiments.
//!
//! Every generated instance is built through one pipeline
//! ([`pipeline`]): a family's kernels emit per-shard edge runs, the
//! conflict graph `H` is canonicalized into an [`HSpec`], a layout
//! expands it over a communication network, and one tail turns the
//! machine-edge runs into a ready [`cgc_cluster::ClusterGraph`]. There is
//! one builder per job:
//!
//! * [`WorkloadSpec`] — every family behind one typed,
//!   string-addressable instance spec (`"gnp:n=300,p=0.02,seed=14"`).
//!   [`WorkloadSpec::build_timed`] builds under a
//!   [`cgc_net::ParallelConfig`] (re-exported as
//!   `cgc_cluster::ParallelConfig`) and reports the setup timings,
//!   [`WorkloadSpec::build`] is its serial shorthand, and
//!   [`WorkloadSpec::conflict_spec`] stops at the canonical `H`. The
//!   output is a pure function of the spec, never of the thread count.
//! * The `HSpec` fixtures ([`gnp_spec`], [`power_law_spec`],
//!   [`geometric_spec`], [`planted_cliques_spec`], [`mixture_spec`],
//!   [`cabal_spec`], [`square_spec`]) sample one family serially.
//! * [`realize`] lays an `HSpec` out over a communication network with a
//!   chosen cluster topology (singleton = CONGEST, path, star, balanced
//!   tree — the paper's Figure 2/3 shapes) and link multiplicity.
//!
//! The modules:
//!
//! * [`gnp`] — Erdős–Rényi `G(n, p)`, sampled by a row-sharded skip walk
//!   (`O(m)` expected, not `O(n²)`);
//! * [`planted`] — disjoint or noisy planted almost-cliques, cabal-heavy
//!   instances with controlled anti-degree and external degree, and mixed
//!   Reed-style instances (sparse background + dense blocks);
//! * [`layouts`] — cluster realizations over `G`;
//! * [`power`] — square graphs for the distance-2 corollary (E12);
//! * [`powerlaw`] — Chung–Lu power-law (skewed-degree) graphs, sampled by
//!   per-row skip walks so generation shards across threads;
//! * [`rgg`] — random geometric (spatially clustered) graphs with a
//!   grid-bucketed, row-sharded edge scan;
//! * [`adversarial`] — the Figure 2/3 bottleneck-link instances;
//! * [`contraction`] — grid networks contracted along seeded blobs (the
//!   flow-algorithm scenario of §1.1);
//! * [`pipeline`] — the shared sharded edge pipeline
//!   ([`ShardedEdgeSource`]) every family's generate → canonicalize →
//!   build flow runs through;
//! * [`workload`] — [`WorkloadSpec`] and its string grammar;
//! * [`churn`] — [`ChurnSpec`], seeded delta-batch streams over a built
//!   instance.

#![forbid(unsafe_code)]

pub mod adversarial;
pub mod churn;
pub mod contraction;
pub mod gnp;
pub mod layouts;
pub mod pipeline;
pub mod planted;
pub mod power;
pub mod powerlaw;
pub mod rgg;
pub mod workload;

pub use churn::ChurnSpec;
pub use gnp::gnp_spec;
pub use layouts::{realize, realize_runs, HSpec, Layout};
pub use pipeline::ShardedEdgeSource;
pub use planted::{cabal_spec, mixture_spec, planted_cliques_spec, MixtureConfig, PlantedInfo};
pub use power::square_spec;
pub use powerlaw::{power_law_spec, power_law_weights, PowerLawConfig};
pub use rgg::{geometric_spec, radius_for_avg_degree};
pub use workload::{SetupTimings, WorkloadFamily, WorkloadParseError, WorkloadSpec};
