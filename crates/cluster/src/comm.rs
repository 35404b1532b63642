//! The metered cluster-graph runtime.
//!
//! Algorithms never touch links directly; they go through [`ClusterNet`]
//! primitives, each of which implements one §3.2 round shape (broadcast on
//! support trees → computation on inter-cluster links → converge-cast) and
//! charges the [`CostMeter`] for every bit and round, pipelining messages
//! that exceed the per-link budget.
//!
//! One idiom covers the aggregation the paper's algorithms need:
//! [`ClusterNet::neighbor_fold_into`] — each vertex publishes a small
//! query; link machines compute a contribution per `H`-edge; each vertex
//! receives the *aggregate* of contributions over its distinct neighbors.
//! This is the paper's "dedication of neighbors" pattern (§1.1): parallel
//! links to the same neighbor are deduplicated, so every neighbor
//! contributes once. Receiving the full list of neighbor messages instead
//! is legal but expensive — the converge-cast carries `deg(v) · |msg|`
//! bits — and the one model that prices it (`cgc_baselines`'
//! naive-CONGEST simulation) charges it through the public `charge_*`
//! calls without materializing the lists.
//!
//! # Allocation discipline
//!
//! A driver run executes thousands of aggregation rounds, so every metered
//! primitive writes into a caller-owned buffer (the `*_into` forms) or the
//! runtime's [`RoundScratch`] workspace: after warm-up, a metered round
//! performs **zero heap allocations** under the sequential
//! [`ParallelConfig`] and on a warm pool alike. The common fold shapes
//! (`bool` any-hit, `usize` sums, `u64` bitmaps) have dedicated entry
//! points ([`ClusterNet::neighbor_fold_flags`] and friends) that lend out
//! the workspace buffers directly, and the oracle-view row fills
//! ([`ClusterNet::par_vertex_fill_rows`]) reuse the caller's buffer.
//!
//! # Parallel execution
//!
//! The aggregation primitives shard the vertex set across worker threads
//! when the runtime carries a [`ParallelConfig`] with `threads > 1`
//! ([`ClusterNet::set_parallel`] / [`ClusterNet::with_parallel`]). Each
//! shard computes the fold for its own contiguous vertex range into its
//! own `&mut` part of the output buffer ([`crate::par::for_each_part`]),
//! walking the vertex's CSR row in ascending neighbor order — the same
//! contribution order at any shard count, one shard included — and every
//! [`CostMeter`] charge happens once, on the calling thread, before the
//! compute. Results and cost totals are therefore **bit-identical at any
//! thread count**; the `Fn` (not `FnMut`) bounds on the edge/init/fold
//! closures enforce the purity this needs.

use crate::graph::{ClusterGraph, VertexId};
use crate::par::{fill_sharded, for_each_part, ParallelConfig, ShardPlan, WorkerPool};
use cgc_net::CostMeter;
use std::sync::Arc;

/// Reusable per-round buffers owned by [`ClusterNet`]; grown on first use,
/// then recycled so metered rounds allocate nothing (SNIPPETS §1's
/// `local_workspace_set` idiom, applied to the aggregation hot path).
#[derive(Debug, Default)]
pub struct RoundScratch {
    flags: Vec<bool>,
    counts: Vec<usize>,
    words: Vec<u64>,
}

/// Metered runtime handle over a [`ClusterGraph`].
#[derive(Debug)]
pub struct ClusterNet<'a> {
    /// The topology this runtime executes on.
    pub g: &'a ClusterGraph,
    /// The cost meter; inspect via [`CostMeter::report`].
    pub meter: CostMeter,
    total_tree_edges: u64,
    n_links: u64,
    scratch: RoundScratch,
    par: ParallelConfig,
    plan: ShardPlan,
    /// Even per-vertex plan for the O(1)-per-vertex primitives
    /// (`exact_degrees_into`), where entry mass is the wrong balance measure.
    even_plan: ShardPlan,
    /// The persistent dispatch pool for `threads > 1` configs, acquired
    /// from the process-global cache ([`WorkerPool::global`]) so every
    /// runtime — and every round of every run — reuses the same parked
    /// workers instead of spawning threads per round.
    pool: Option<Arc<WorkerPool>>,
}

impl<'a> ClusterNet<'a> {
    /// Creates a sequential runtime with an explicit per-link per-round bit
    /// budget.
    ///
    /// # Panics
    ///
    /// Panics if `budget_bits == 0`.
    pub fn new(g: &'a ClusterGraph, budget_bits: u64) -> Self {
        Self::with_parallel(g, budget_bits, ParallelConfig::serial())
    }

    /// Creates a runtime with an explicit budget and parallel executor
    /// configuration. The shard plan is computed once, here, so per-round
    /// dispatch costs nothing.
    ///
    /// # Panics
    ///
    /// Panics if `budget_bits == 0`.
    pub fn with_parallel(g: &'a ClusterGraph, budget_bits: u64, par: ParallelConfig) -> Self {
        let total_tree_edges = (0..g.n_vertices())
            .map(|v| g.support(v).n_edges() as u64)
            .sum();
        ClusterNet {
            g,
            meter: CostMeter::new(budget_bits),
            total_tree_edges,
            n_links: g.n_links() as u64,
            scratch: RoundScratch::default(),
            plan: g.shard_plan(&par),
            even_plan: ShardPlan::even(g.n_vertices(), par.threads()),
            pool: WorkerPool::global(par.threads()),
            par,
        }
    }

    /// Creates a sequential runtime with budget
    /// `beta * ceil(log2(n_machines + 1))`, the concrete reading of the
    /// paper's `O(log n)` bandwidth.
    ///
    /// # Panics
    ///
    /// Panics if `beta == 0`.
    pub fn with_log_budget(g: &'a ClusterGraph, beta: u64) -> Self {
        Self::with_log_budget_parallel(g, beta, ParallelConfig::serial())
    }

    /// [`Self::with_log_budget`] with an explicit executor configuration —
    /// the one place the paper's log-budget reading is spelled out.
    ///
    /// # Panics
    ///
    /// Panics if `beta == 0`.
    pub fn with_log_budget_parallel(g: &'a ClusterGraph, beta: u64, par: ParallelConfig) -> Self {
        let logn = (u64::BITS - (g.n_machines() as u64).leading_zeros()) as u64;
        Self::with_parallel(g, beta * logn.max(1), par)
    }

    /// Reconfigures the parallel executor (replans the shards; a no-op
    /// when the config is unchanged). Outputs and meter totals do not
    /// depend on this — only wall-clock does.
    pub fn set_parallel(&mut self, par: ParallelConfig) {
        if par == self.par {
            return;
        }
        self.plan = self.g.shard_plan(&par);
        self.even_plan = ShardPlan::even(self.g.n_vertices(), par.threads());
        self.pool = WorkerPool::global(par.threads());
        self.par = par;
    }

    /// The persistent worker pool this runtime dispatches on (`None` under
    /// the sequential config).
    #[inline]
    pub fn worker_pool(&self) -> Option<&WorkerPool> {
        self.pool.as_deref()
    }

    /// The active parallel executor configuration.
    #[inline]
    pub fn parallel(&self) -> &ParallelConfig {
        &self.par
    }

    /// The active shard plan (one contiguous vertex range per worker).
    #[inline]
    pub fn shard_plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// `ceil(log2(x + 1))` — bits to address one of `x` values.
    pub fn bits_for(x: usize) -> u64 {
        (usize::BITS - x.leading_zeros()) as u64
    }

    /// Bits of a vertex identifier in `H`.
    pub fn id_bits(&self) -> u64 {
        Self::bits_for(self.g.n_vertices())
    }

    /// Bits of a color in `[Δ + 1]`.
    pub fn color_bits(&self) -> u64 {
        Self::bits_for(self.g.max_degree() + 1)
    }

    fn dilation(&self) -> u64 {
        self.g.dilation() as u64
    }

    /// Charges one broadcast from every leader down its support tree with
    /// messages of at most `msg_bits` bits. Returns sub-rounds used.
    pub fn charge_broadcast(&mut self, msg_bits: u64) -> u64 {
        let sub = self.meter.charge_messages(msg_bits, self.total_tree_edges);
        self.meter.charge_rounds(sub, sub * self.dilation());
        sub
    }

    /// Charges one exchange on every inter-cluster link.
    pub fn charge_link_round(&mut self, msg_bits: u64) -> u64 {
        let sub = self.meter.charge_messages(msg_bits, 2 * self.n_links);
        self.meter.charge_rounds(sub, sub);
        sub
    }

    /// Charges one converge-cast up every support tree with (partially
    /// aggregated) messages of at most `msg_bits` bits.
    pub fn charge_converge(&mut self, msg_bits: u64) -> u64 {
        let sub = self.meter.charge_messages(msg_bits, self.total_tree_edges);
        self.meter.charge_rounds(sub, sub * self.dilation());
        sub
    }

    /// Charges `count` full H-rounds (broadcast + link + converge) with
    /// messages of at most `msg_bits`, in O(1) meter arithmetic: the
    /// sub-round counts are identical every iteration, so bits, rounds and
    /// pipelining penalties scale linearly and need no per-round loop.
    pub fn charge_full_rounds(&mut self, count: u64, msg_bits: u64) {
        if count == 0 {
            return;
        }
        // Broadcast + converge are symmetric tree phases: 2·count of them.
        self.charge_tree_phases(msg_bits, 2 * count);
        let sub_link = self
            .meter
            .charge_messages_repeated(msg_bits, 2 * self.n_links, count);
        self.meter.charge_rounds(count * sub_link, count * sub_link);
    }

    /// Charges `phases` identical tree phases (broadcasts or converge-casts
    /// — the two are symmetric for fixed-size messages) in O(1) meter
    /// arithmetic. Returns the sub-rounds of one phase.
    pub fn charge_tree_phases(&mut self, msg_bits: u64, phases: u64) -> u64 {
        if phases == 0 {
            return 1;
        }
        let sub = self
            .meter
            .charge_messages_repeated(msg_bits, self.total_tree_edges, phases);
        self.meter
            .charge_rounds(phases * sub, phases * sub * self.dilation());
        sub
    }

    /// Sets the phase label on the meter (costs are grouped per phase).
    pub fn set_phase(&mut self, phase: &str) {
        self.meter.set_phase(phase);
    }

    /// One full aggregation round (§3.2): every vertex `v` publishes
    /// `queries[v]`; for every `H`-edge and both directions the link machine
    /// computes `edge(v, u, &queries[v], &queries[u])`; vertex `v` receives
    /// the fold of all `Some` contributions from its *distinct* neighbors.
    ///
    /// Charges: broadcast(`query_bits`) + link round(`query_bits`) +
    /// converge(`response_bits`). `response_bits` must bound the encoded
    /// size of the (partially aggregated) fold value.
    ///
    /// `out` is cleared and refilled, so a warm buffer makes the round
    /// allocation-free under the sequential config. The typed wrappers
    /// [`Self::neighbor_fold_flags`], [`Self::neighbor_fold_counts`] and
    /// [`Self::neighbor_fold_words`] fold into the runtime's own scratch.
    ///
    /// Each vertex's fold walks its CSR adjacency row in ascending neighbor
    /// order, folding into its `init` value in place, shard-parallel across
    /// the runtime's [`ShardPlan`] into disjoint output parts (inline when
    /// the plan has one shard). The contribution order per vertex is
    /// therefore the same at any thread count, so results are
    /// bit-identical across thread counts — even for non-commutative
    /// folds.
    ///
    /// # Panics
    ///
    /// Panics if `queries.len() != n_vertices`.
    #[allow(clippy::too_many_arguments)]
    pub fn neighbor_fold_into<Q: Sync, C, R: Send>(
        &mut self,
        query_bits: u64,
        response_bits: u64,
        queries: &[Q],
        edge: impl Fn(VertexId, VertexId, &Q, &Q) -> Option<C> + Sync,
        init: impl Fn(VertexId) -> R + Sync,
        fold: impl Fn(&mut R, C) + Sync,
        out: &mut Vec<R>,
    ) {
        assert_eq!(
            queries.len(),
            self.g.n_vertices(),
            "one query per vertex required"
        );
        self.charge_broadcast(query_bits);
        self.charge_link_round(query_bits);
        self.charge_converge(response_bits);

        out.clear();
        out.extend((0..self.g.n_vertices()).map(&init));
        let (offsets, adj) = self.g.adjacency_csr();
        fill_sharded(out, &self.plan, self.pool.as_deref(), |start, part| {
            for (i, acc) in part.iter_mut().enumerate() {
                let v = start + i;
                let qv = &queries[v];
                for &u in &adj[offsets[v]..offsets[v + 1]] {
                    if let Some(c) = edge(v, u, qv, &queries[u]) {
                        fold(acc, c);
                    }
                }
            }
        });
    }

    /// Any-hit fold: `flags[v]` is true iff some distinct neighbor `u`
    /// satisfies `edge(v, u, ..)`. The returned slice borrows the runtime's
    /// [`RoundScratch`]; copy it out if it must survive the next round.
    pub fn neighbor_fold_flags<Q: Sync>(
        &mut self,
        query_bits: u64,
        response_bits: u64,
        queries: &[Q],
        edge: impl Fn(VertexId, VertexId, &Q, &Q) -> bool + Sync,
    ) -> &[bool] {
        let mut buf = std::mem::take(&mut self.scratch.flags);
        self.neighbor_fold_into(
            query_bits,
            response_bits,
            queries,
            |v, u, qv, qu| edge(v, u, qv, qu).then_some(()),
            |_| false,
            |acc, ()| *acc = true,
            &mut buf,
        );
        self.scratch.flags = buf;
        &self.scratch.flags
    }

    /// Summing fold over `usize` contributions, reusing the runtime's
    /// [`RoundScratch`].
    pub fn neighbor_fold_counts<Q: Sync>(
        &mut self,
        query_bits: u64,
        response_bits: u64,
        queries: &[Q],
        edge: impl Fn(VertexId, VertexId, &Q, &Q) -> Option<usize> + Sync,
    ) -> &[usize] {
        let mut buf = std::mem::take(&mut self.scratch.counts);
        self.neighbor_fold_into(
            query_bits,
            response_bits,
            queries,
            edge,
            |_| 0usize,
            |acc, c| *acc += c,
            &mut buf,
        );
        self.scratch.counts = buf;
        &self.scratch.counts
    }

    /// Bitwise-OR fold over `u64` bitmap contributions, reusing the
    /// runtime's [`RoundScratch`].
    pub fn neighbor_fold_words<Q: Sync>(
        &mut self,
        query_bits: u64,
        response_bits: u64,
        queries: &[Q],
        edge: impl Fn(VertexId, VertexId, &Q, &Q) -> Option<u64> + Sync,
    ) -> &[u64] {
        let mut buf = std::mem::take(&mut self.scratch.words);
        self.neighbor_fold_into(
            query_bits,
            response_bits,
            queries,
            edge,
            |_| 0u64,
            |acc, c| *acc |= c,
            &mut buf,
        );
        self.scratch.words = buf;
        &self.scratch.words
    }

    /// Exact degree computation in one aggregation round (§1.1): neighbors
    /// deduplicate their parallel links so each contributes exactly 1.
    /// `out` is cleared and refilled. After the dedup round, each vertex's
    /// count equals its deduplicated CSR degree, so the fold is resolved
    /// directly from the topology — shard-parallel into disjoint output
    /// slices like every other primitive. The local work here is O(1) per
    /// vertex (an offsets difference, never a row walk), so the shards
    /// balance on the even per-vertex plan: entry mass — hub or not — is
    /// irrelevant to this primitive's cost.
    pub fn exact_degrees_into(&mut self, out: &mut Vec<usize>) {
        // One converge inside each neighbor to cut extra links, then the
        // counting round itself: constant rounds, O(log n)-bit messages.
        self.charge_full_rounds(1, self.id_bits());
        self.charge_broadcast(1);
        self.charge_link_round(1);
        self.charge_converge(self.id_bits());
        let (offsets, _) = self.g.adjacency_csr();
        out.clear();
        out.resize(self.g.n_vertices(), 0);
        fill_sharded(out, &self.even_plan, self.pool.as_deref(), |start, part| {
            for (i, deg) in part.iter_mut().enumerate() {
                let v = start + i;
                *deg = offsets[v + 1] - offsets[v];
            }
        });
    }

    /// Builds a per-vertex vector shard-parallel over the runtime's
    /// [`ShardPlan`]: element `v` is `f(v)`, bit-identical to the
    /// sequential `(0..n).map(f).collect()` at any thread count because
    /// each worker writes a disjoint contiguous part and `f` is pure
    /// (`Fn + Sync`). The output starts as `T::default()` and each element
    /// is overwritten once. Used by the driver for its per-phase
    /// eligibility masks, by the session's read-only palette queries and
    /// by the fingerprint engine's per-row summaries — free of meter
    /// charges, like any local recomputation.
    pub fn par_vertex_map<T: Clone + Default + Send>(
        &self,
        f: impl Fn(VertexId) -> T + Sync,
    ) -> Vec<T> {
        let mut out = vec![T::default(); self.g.n_vertices()];
        fill_sharded(&mut out, &self.plan, self.pool.as_deref(), |start, part| {
            for (i, x) in part.iter_mut().enumerate() {
                *x = f(start + i);
            }
        });
        out
    }

    /// Fills a flat row-major matrix of `row_len` elements per vertex,
    /// sharded over the runtime's plan: `fill(v, row)` runs once per
    /// vertex with `row` set to `T::default()`, writing the vertex's own
    /// row of its shard's part. The palette bit-rows of the fallback and
    /// list-coloring round loops ([`Self::par_vertex_fill_words`]) and the
    /// fingerprint matrices of `cgc_sketch` are built through this
    /// (row-mass-weighted plan: those fills walk each vertex's CSR row, so
    /// a hub must not pin one shard). Like the other oracle-view maps,
    /// nothing is charged. `out` is cleared and resized; warm calls with
    /// sufficient capacity never allocate.
    pub fn par_vertex_fill_rows<T: Copy + Default + Send>(
        &self,
        row_len: usize,
        out: &mut Vec<T>,
        fill: impl Fn(VertexId, &mut [T]) + Sync,
    ) {
        let n = self.g.n_vertices();
        out.clear();
        out.resize(n * row_len, T::default());
        if row_len == 0 {
            return;
        }
        let bounds = self.plan.bounds();
        for_each_part(
            self.pool.as_deref(),
            self.plan.n_shards(),
            out,
            |s| bounds[s] * row_len,
            |s, rows| {
                for (v, row) in self.plan.range(s).zip(rows.chunks_exact_mut(row_len)) {
                    fill(v, row);
                }
            },
        );
    }

    /// [`Self::par_vertex_fill_rows`] for a flat bit-row matrix:
    /// `words_per_row` packed `u64`s per vertex (see [`cgc_net::bits`]),
    /// each row zeroed before `fill` marks it.
    pub fn par_vertex_fill_words(
        &self,
        words_per_row: usize,
        out: &mut Vec<u64>,
        fill: impl Fn(VertexId, &mut [u64]) + Sync,
    ) {
        self.par_vertex_fill_rows(words_per_row, out, fill);
    }

    /// The naive link-counting "degree" (counts parallel links): what a
    /// cluster computes by a single internal aggregation without neighbor
    /// dedication. Overestimates [`Self::exact_degrees_into`] (Figure 1).
    pub fn naive_link_degrees(&mut self) -> Vec<usize> {
        self.charge_converge(self.id_bits());
        (0..self.g.n_vertices())
            .map(|v| self.g.incident_links(v))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgc_net::CommGraph;

    fn multi_link() -> ClusterGraph {
        let comm = CommGraph::from_edges(
            6,
            [
                (0, 1),
                (1, 2),
                (0, 2),
                (3, 4),
                (4, 5),
                (0, 3),
                (1, 4),
                (2, 5),
            ],
        )
        .unwrap();
        ClusterGraph::build(comm, vec![0, 0, 0, 1, 1, 1]).unwrap()
    }

    #[test]
    fn exact_vs_naive_degree() {
        let h = multi_link();
        let mut net = ClusterNet::new(&h, 64);
        let mut exact = Vec::new();
        net.exact_degrees_into(&mut exact);
        let naive = net.naive_link_degrees();
        assert_eq!(exact, vec![1, 1]);
        assert_eq!(naive, vec![3, 3]);
    }

    #[test]
    fn neighbor_fold_aggregates_over_distinct_neighbors() {
        let h = multi_link();
        let mut net = ClusterNet::new(&h, 64);
        // Sum of neighbor values: each cluster has exactly one neighbor.
        let vals = vec![10u64, 20u64];
        let mut sums = Vec::new();
        net.neighbor_fold_into(
            8,
            8,
            &vals,
            |_, _, _, qu| Some(*qu),
            |_| 0u64,
            |acc, c| *acc += c,
            &mut sums,
        );
        assert_eq!(sums, vec![20, 10]);
    }

    #[test]
    fn fold_into_reuses_buffer_and_matches_fold() {
        let h = multi_link();
        let mut net = ClusterNet::new(&h, 64);
        let vals = vec![10u64, 20u64];
        let mut buf: Vec<u64> = Vec::new();
        for _ in 0..3 {
            net.neighbor_fold_into(
                8,
                8,
                &vals,
                |_, _, _, qu| Some(*qu),
                |_| 0u64,
                |acc, c| *acc += c,
                &mut buf,
            );
            assert_eq!(buf, vec![20, 10]);
        }
    }

    #[test]
    fn typed_wrappers_match_generic_fold() {
        let comm = CommGraph::path(5);
        let h = ClusterGraph::singletons(comm);
        let mut net = ClusterNet::new(&h, 64);
        let vals: Vec<u64> = (0..5).collect();

        let counts = net
            .neighbor_fold_counts(8, 8, &vals, |_, _, _, _| Some(1usize))
            .to_vec();
        assert_eq!(counts, vec![1, 2, 2, 2, 1]);

        let flags = net
            .neighbor_fold_flags(8, 1, &vals, |_, _, _, qu| *qu >= 3)
            .to_vec();
        assert_eq!(flags, vec![false, false, true, true, true]);

        let words = net
            .neighbor_fold_words(8, 8, &vals, |_, _, _, qu| Some(1u64 << qu))
            .to_vec();
        assert_eq!(words, vec![0b00010, 0b00101, 0b01010, 0b10100, 0b01000]);
    }

    #[test]
    fn rounds_and_bits_are_charged() {
        let h = multi_link();
        let mut net = ClusterNet::new(&h, 16);
        net.set_phase("t");
        net.neighbor_fold_into(
            16,
            16,
            &[(); 2],
            |_, _, _, _| Some(1u32),
            |_| 0u32,
            |a, c| *a += c,
            &mut Vec::new(),
        );
        let r = net.meter.report();
        assert!(r.h_rounds >= 3, "broadcast + link + converge");
        assert!(r.g_rounds > r.h_rounds, "dilation > 1 means more G-rounds");
        assert!(r.bits > 0);
        assert!(r.within_budget());
    }

    #[test]
    fn oversized_messages_pipeline() {
        let h = multi_link();
        let mut net = ClusterNet::new(&h, 8);
        let before = net.meter.h_rounds();
        net.charge_broadcast(33); // ceil(33/8) = 5 sub-rounds
        assert_eq!(net.meter.h_rounds() - before, 5);
        assert!(!net.meter.report().within_budget());
    }

    #[test]
    fn full_rounds_arithmetic_matches_per_round_loop() {
        // The O(1) charge must agree exactly with charging one round at a
        // time, including pipelining penalties (33 bits on budget 8).
        let h = multi_link();
        for msg in [1u64, 8, 33] {
            let mut bulk = ClusterNet::new(&h, 8);
            bulk.charge_full_rounds(7, msg);
            let mut looped = ClusterNet::new(&h, 8);
            for _ in 0..7 {
                looped.charge_broadcast(msg);
                looped.charge_link_round(msg);
                looped.charge_converge(msg);
            }
            let (rb, rl) = (bulk.meter.report(), looped.meter.report());
            assert_eq!(rb.h_rounds, rl.h_rounds, "msg={msg}");
            assert_eq!(rb.g_rounds, rl.g_rounds, "msg={msg}");
            assert_eq!(rb.bits, rl.bits, "msg={msg}");
            assert_eq!(rb.oversized_msgs, rl.oversized_msgs, "msg={msg}");
            assert_eq!(rb.max_msg_bits, rl.max_msg_bits, "msg={msg}");
        }
    }

    #[test]
    fn zero_full_rounds_charge_nothing() {
        let h = multi_link();
        let mut net = ClusterNet::new(&h, 8);
        net.charge_full_rounds(0, 64);
        assert_eq!(net.meter.report().h_rounds, 0);
        assert_eq!(net.meter.report().bits, 0);
    }

    #[test]
    fn bits_for_matches_log2() {
        assert_eq!(ClusterNet::bits_for(0), 0);
        assert_eq!(ClusterNet::bits_for(1), 1);
        assert_eq!(ClusterNet::bits_for(2), 2);
        assert_eq!(ClusterNet::bits_for(255), 8);
        assert_eq!(ClusterNet::bits_for(256), 9);
    }
}
