//! The sharded generation-to-graph edge pipeline.
//!
//! Every workload family flows through one discipline — *generate
//! per-shard edge runs, canonicalize shard-locally, merge
//! deterministically*:
//!
//! ```text
//! WorkloadSpec ──▶ ShardedEdgeSource ──▶ HSpec (canonical H-edges)
//!                  (per-row kernels,      │
//!                   per-shard runs)       ▼ layout expansion (realize_runs)
//!                                  ShardedEdgeSource (machine links)
//!                                         │
//!                                         ▼ CommGraph::from_edge_runs_with
//!                                  CommGraph ──▶ ClusterGraph::build_with
//! ```
//!
//! Rows shard one of two ways: [`ShardedEdgeSource::from_rows`] cuts
//! equal row counts, and [`ShardedEdgeSource::from_row_tasks_weighted`]
//! balances by expected per-row work and can split hub rows; both keep
//! each shard's output as one run. The last two steps are one tail, the
//! crate-private `assemble`: every generated instance ends in it, through
//! [`crate::WorkloadSpec::build_timed`] or [`crate::realize`].
//!
//! Generators in this crate derive one RNG stream per *row* (source
//! vertex) from the master seed, so a row's edges are a pure function of
//! `(seed, row)`. That makes parallel generation trivially deterministic:
//! split the rows into contiguous shards, let each worker emit its rows'
//! edges into a private run, and keep the runs in fixed shard order — the
//! logical edge sequence is identical at any thread count, and the
//! canonicalization steps downstream ([`ShardedEdgeSource::into_hspec`],
//! [`cgc_net::CommGraph::from_edge_runs_with`]) — both the one sharded
//! canonicalizer [`cgc_net::canonical_edges`] — produce the unique sorted
//! dedup of that sequence regardless of where the run boundaries fall.
//! Sharded stages dispatch on the process's one worker pool
//! ([`cgc_net::WorkerPool`]), the same parked workers every aggregation
//! round uses; a stage wider than every earlier dispatch grows the pool
//! in place.

use crate::layouts::HSpec;
use cgc_cluster::ClusterGraph;
use cgc_net::{canonical_edges, map_reduce_on, CommGraph, ParallelConfig, ShardPlan};
use std::ops::Range;
use std::time::Instant;

/// Per-shard edge runs: the intermediate product of every sharded
/// generator, handed to the canonicalizing sinks without being
/// concatenated into one edge `Vec` first. The logical edge sequence is
/// the concatenation of the runs in order; the runs themselves are an
/// execution detail that never changes any downstream result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardedEdgeSource {
    n: usize,
    runs: Vec<Vec<(usize, usize)>>,
}

impl ShardedEdgeSource {
    /// Wraps an already-materialized edge list as a single run (the
    /// serial generators' entry into the pipeline).
    pub fn from_edges(n: usize, edges: Vec<(usize, usize)>) -> Self {
        ShardedEdgeSource {
            n,
            runs: vec![edges],
        }
    }

    /// Runs `row(u, &mut run)` for every `u in 0..n`, sharded across the
    /// configured threads (contiguous row blocks of equal *count*),
    /// keeping each shard's output as its own run in ascending row order.
    /// `row` must be pure — the runs are a pure function of `(n, row)`,
    /// never of the thread count. Pass [`Self::from_row_tasks_weighted`]
    /// when per-row work is skewed.
    pub fn from_rows(
        n: usize,
        par: &ParallelConfig,
        row: impl Fn(usize, &mut Vec<(usize, usize)>) + Sync,
    ) -> Self {
        Self::collect(n, &ShardPlan::even(n, par.threads()), |range, run| {
            for u in range {
                row(u, run);
            }
        })
    }

    /// [`Self::from_rows`] with contiguous blocks balanced by `weights`
    /// (expected per-row work) instead of row count, so a heavy head —
    /// the hubs of a power-law weight sequence, the long early rows of a
    /// G(n, p) upper triangle — does not serialize shard 0.
    ///
    /// Heavy rows also split into independent column-range **tasks** —
    /// the generator-side half of hub-proof sharding. Row `u` becomes
    /// `k_u = ceil(w_u / quantum)` tasks (at least 1; rows at or under the
    /// quantum stay whole, and `quantum = 0` splits no row), and `task(u,
    /// j, k_u, &mut run)` runs once per task in ascending `(row, j)` order
    /// across shards, so a single hub row's emission spreads over several
    /// workers instead of bounding one shard.
    ///
    /// Two purity rules make this thread-count independent:
    ///
    /// * `quantum` must be a pure function of the weights (e.g.
    ///   `Σw / 1024`), **never** of the thread count — the task list, and
    ///   with it the logical output (the ascending-task concatenation of
    ///   the runs), must not change when only the executor width does;
    /// * the kernel must derive each task's randomness from a substream
    ///   keyed by `(u, j)` (the generators use
    ///   [`cgc_net::SeedStream::child`] namespacing for `k_u > 1`, keeping
    ///   unsplit rows byte-compatible with their historical per-row
    ///   streams), so tasks are independent wherever the shard bounds
    ///   fall.
    pub fn from_row_tasks_weighted(
        n: usize,
        par: &ParallelConfig,
        weights: &[f64],
        quantum: f64,
        task: impl Fn(usize, u32, u32, &mut Vec<(usize, usize)>) + Sync,
    ) -> Self {
        assert_eq!(weights.len(), n, "one weight per row");
        // Scale the float weights onto a fixed-point per-task prefix (each
        // row's weight split evenly over its tasks) so the generic
        // balanced-prefix cut applies; the scale only affects the
        // (output-invisible) shard bounds.
        let total: f64 = weights.iter().sum();
        let scale = if total > 0.0 {
            ((1u64 << 32) as f64) / total
        } else {
            0.0
        };
        let mut tasks: Vec<(usize, u32, u32)> = Vec::with_capacity(n);
        let mut prefix = Vec::with_capacity(n + 1);
        prefix.push(0usize);
        let mut acc = 0usize;
        for (u, &wu) in weights.iter().enumerate() {
            let k = if quantum > 0.0 && wu > quantum {
                (wu / quantum).ceil() as u32
            } else {
                1
            };
            for j in 0..k {
                tasks.push((u, j, k));
                acc += (wu * scale / k as f64) as usize;
                prefix.push(acc);
            }
        }
        let plan = ShardPlan::from_prefix(&prefix, par.threads());
        Self::collect(n, &plan, |range, run| {
            for &(u, j, k) in &tasks[range] {
                task(u, j, k, run);
            }
        })
    }

    /// Runs `emit(range, &mut run)` once per shard of `plan`, keeping each
    /// shard's output as its own run, in shard order.
    fn collect(
        n: usize,
        plan: &ShardPlan,
        emit: impl Fn(Range<usize>, &mut Vec<(usize, usize)>) + Sync,
    ) -> Self {
        let runs = map_reduce_on(
            plan,
            |range| {
                let mut run = Vec::new();
                emit(range, &mut run);
                vec![run]
            },
            |acc: &mut Vec<Vec<(usize, usize)>>, part| acc.extend(part),
        );
        ShardedEdgeSource { n, runs }
    }

    /// Total edges across all runs (before any deduplication).
    pub fn total_edges(&self) -> usize {
        self.runs.iter().map(Vec::len).sum()
    }

    /// The runs as borrowed slices — the shape
    /// [`cgc_net::CommGraph::from_edge_runs_with`] ingests.
    pub fn run_slices(&self) -> Vec<&[(usize, usize)]> {
        self.runs.iter().map(Vec::as_slice).collect()
    }

    /// Appends one more run after the sharded ones (e.g. the serially
    /// generated inter-cluster link run of a layout expansion).
    pub fn push_run(&mut self, run: Vec<(usize, usize)>) {
        self.runs.push(run);
    }

    /// Concatenates the runs into one edge `Vec` in logical order — the
    /// legacy shape, for callers that need a flat list.
    pub fn concat(self) -> Vec<(usize, usize)> {
        let total = self.total_edges();
        let mut out = Vec::with_capacity(total);
        for run in self.runs {
            out.extend(run);
        }
        out
    }

    /// Canonicalizes into an [`HSpec`] through [`canonical_edges`]:
    /// validates, normalizes orientation, sorts and deduplicates each
    /// shard's slice of the concatenated runs locally, then merges the
    /// sorted lists with the deterministic fixed-order k-way merge. The
    /// result equals `HSpec::new(n, concatenation)` exactly, at any thread
    /// count and for any run partition.
    ///
    /// # Panics
    ///
    /// Panics on self-loops or out-of-range endpoints, like
    /// [`HSpec::new`]; the message names the earliest bad edge in input
    /// order.
    pub fn into_hspec(self, par: &ParallelConfig) -> HSpec {
        let edges =
            canonical_edges(self.n, &self.run_slices(), par).unwrap_or_else(|e| panic!("{e}"));
        HSpec { n: self.n, edges }
    }
}

/// The one tail from machine-edge runs to a graph: canonicalize `runs`
/// into a [`CommGraph`] ([`CommGraph::from_edge_runs_with`]), then build
/// the [`ClusterGraph`] over `assignment` ([`ClusterGraph::build_with`]).
/// Returns the graph with the wall clock of the two phases, in seconds.
pub(crate) fn assemble(
    n_machines: usize,
    runs: &ShardedEdgeSource,
    assignment: Vec<usize>,
    par: &ParallelConfig,
) -> (ClusterGraph, f64, f64) {
    let t = Instant::now();
    let comm = CommGraph::from_edge_runs_with(n_machines, &runs.run_slices(), par)
        .expect("generated networks are valid by construction");
    let canonicalize_secs = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let graph = ClusterGraph::build_with(comm, assignment, par)
        .expect("clusters are connected by construction");
    (graph, canonicalize_secs, t.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_are_row_ordered_at_any_thread_count() {
        let kernel = |u: usize, out: &mut Vec<(usize, usize)>| {
            for j in 0..(u % 5) {
                out.push((u, u + j + 1));
            }
        };
        let reference =
            ShardedEdgeSource::from_rows(90, &ParallelConfig::serial(), kernel).concat();
        for threads in [2, 3, 8, 33] {
            let got =
                ShardedEdgeSource::from_rows(90, &ParallelConfig::with_threads(threads), kernel)
                    .concat();
            assert_eq!(got, reference, "threads={threads}");
        }
    }

    #[test]
    fn weighted_split_matches_unweighted_output() {
        // Hub-heavy weights: the split differs, the logical output must not.
        let weights: Vec<f64> = (0..100).map(|u| 1.0 / (u + 1) as f64).collect();
        let kernel = |u: usize, out: &mut Vec<(usize, usize)>| {
            out.push((u, (u + 1) % 100));
        };
        let reference =
            ShardedEdgeSource::from_rows(100, &ParallelConfig::serial(), kernel).concat();
        for threads in [2, 4, 9] {
            let got = ShardedEdgeSource::from_row_tasks_weighted(
                100,
                &ParallelConfig::with_threads(threads),
                &weights,
                0.0,
                |u, _, _, out| kernel(u, out),
            )
            .concat();
            assert_eq!(got, reference, "threads={threads}");
        }
    }

    #[test]
    fn into_hspec_equals_hspec_new_for_any_partition() {
        // Duplicates within and across runs, both orientations.
        let edges = vec![(3, 1), (1, 3), (0, 2), (4, 0), (2, 0), (1, 4), (3, 4)];
        let expect = HSpec::new(5, edges.clone());
        for cut in [1usize, 2, 3, 7] {
            let mut src = ShardedEdgeSource::from_edges(5, Vec::new());
            src.runs.clear();
            for chunk in edges.chunks(edges.len() / cut + 1) {
                src.push_run(chunk.to_vec());
            }
            for threads in [1, 2, 4] {
                let got = src
                    .clone()
                    .into_hspec(&ParallelConfig::with_threads(threads));
                assert_eq!(got, expect, "cut={cut} threads={threads}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn into_hspec_rejects_self_loops() {
        ShardedEdgeSource::from_edges(3, vec![(1, 1)]).into_hspec(&ParallelConfig::serial());
    }
}
