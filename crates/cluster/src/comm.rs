//! The metered cluster-graph runtime.
//!
//! Algorithms never touch links directly; they go through [`ClusterNet`]
//! primitives, each of which implements one §3.2 round shape (broadcast on
//! support trees → computation on inter-cluster links → converge-cast) and
//! charges the [`CostMeter`] for every bit and round, pipelining messages
//! that exceed the per-link budget.
//!
//! Two idioms cover everything the paper's algorithms need:
//!
//! * [`ClusterNet::neighbor_fold`] — each vertex publishes a small query;
//!   link machines compute a contribution per `H`-edge; each vertex receives
//!   the *aggregate* of contributions over its distinct neighbors. This is
//!   the paper's "dedication of neighbors" pattern (§1.1): parallel links to
//!   the same neighbor are deduplicated, so every neighbor contributes once.
//! * [`ClusterNet::neighbor_collect`] — each vertex receives the full list
//!   of neighbor messages. Legal but expensive: the converge-cast carries
//!   `deg(v) · |msg|` bits and is charged with pipelining, which is exactly
//!   why high-degree algorithms must avoid it (and why the low-degree §9
//!   algorithms may use it when `Δ = O(log n)`).
//!
//! # Allocation discipline
//!
//! A driver run executes thousands of aggregation rounds, so the runtime
//! keeps a [`RoundScratch`] workspace and offers `*_into` variants of every
//! primitive: after warm-up, a metered round performs **zero heap
//! allocations** under the sequential [`ParallelConfig`]. The common fold
//! shapes (`bool` any-hit, `usize` sums, `u64` bitmaps) have dedicated
//! entry points ([`ClusterNet::neighbor_fold_flags`] and friends) that lend
//! out the workspace buffers directly, and [`ClusterNet::neighbor_collect`]
//! returns a flat CSR-shaped [`NeighborLists`] (offsets + arena) instead of
//! a `Vec<Vec<_>>` — its rows are aligned with [`ClusterGraph::neighbors`].
//!
//! # Parallel execution
//!
//! The aggregation primitives shard the vertex set across worker threads
//! when the runtime carries a [`ParallelConfig`] with `threads > 1`
//! ([`ClusterNet::set_parallel`] / [`ClusterNet::with_parallel`]). Each
//! shard computes the fold for its own contiguous vertex range into a
//! disjoint slice of the output buffer, walking the vertex's CSR row in
//! ascending neighbor order — the *same* contribution order the sequential
//! sweep applies — and every [`CostMeter`] charge happens once, on the
//! calling thread, before the compute. Results and cost totals are
//! therefore **bit-identical at any thread count**; the `Fn` (not `FnMut`)
//! bounds on the edge/init/fold closures enforce the purity this needs.

use crate::graph::{ClusterGraph, VertexId};
use crate::par::{
    fill_segmented_with_offsets, fill_sharded, fill_sharded_with_offsets, fold_rows_segmented,
    for_each_shard, ParallelConfig, SegmentedPlan, SendPtr, ShardPlan, WorkerPool,
};
use cgc_net::CostMeter;
use std::sync::Arc;

/// CSR-shaped result of a [`ClusterNet::neighbor_collect`] round: row `v`
/// holds `(u, message_of_u)` for every distinct neighbor `u` of `v`, in
/// ascending neighbor order (the same order as [`ClusterGraph::neighbors`]).
///
/// Reuse one instance across rounds via
/// [`ClusterNet::neighbor_collect_into`] to keep the round allocation-free
/// after warm-up.
#[derive(Debug, Clone)]
pub struct NeighborLists<Q> {
    offsets: Vec<usize>,
    data: Vec<(VertexId, Q)>,
}

impl<Q> Default for NeighborLists<Q> {
    fn default() -> Self {
        NeighborLists {
            offsets: Vec::new(),
            data: Vec::new(),
        }
    }
}

impl<Q> NeighborLists<Q> {
    /// An empty buffer ready to be filled by
    /// [`ClusterNet::neighbor_collect_into`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of rows (vertices) in the last filled round.
    pub fn n_rows(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// The `(neighbor, message)` pairs received by vertex `v`.
    #[inline]
    pub fn row(&self, v: VertexId) -> &[(VertexId, Q)] {
        &self.data[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Iterates `(v, row(v))` over all vertices.
    pub fn iter(&self) -> impl Iterator<Item = (VertexId, &[(VertexId, Q)])> + '_ {
        (0..self.n_rows()).map(move |v| (v, self.row(v)))
    }

    /// The flat `(neighbor, message)` arena across all rows.
    #[inline]
    pub fn flat(&self) -> &[(VertexId, Q)] {
        &self.data
    }
}

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
    /// The intra-row segmented plan, present only when the topology has a
    /// hub row heavier than the config's segmentation threshold (see
    /// [`SegmentedPlan::plan_csr`]). The monoid fold wrappers and
    /// `neighbor_collect` route through it when present, so one power-law
    /// hub no longer serializes a whole shard.
    seg: Option<SegmentedPlan>,
    /// Even per-vertex plan for the O(1)-per-vertex primitives
    /// (`exact_degrees`), where entry mass is the wrong balance measure.
    even_plan: ShardPlan,
    /// The persistent dispatch pool for `threads > 1` configs, acquired
    /// from the process-global cache ([`WorkerPool::global`]) so every
    /// runtime — and every round of every run — reuses the same parked
    /// workers instead of spawning scoped threads per round.
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
            n_links: g.links().len() as u64,
            scratch: RoundScratch::default(),
            plan: g.shard_plan(&par),
            seg: g.segmented_plan(&par),
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
        self.seg = self.g.segmented_plan(&par);
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

    /// The active intra-row segmented plan, when the topology's hub rows
    /// triggered segmentation (see [`SegmentedPlan::plan_csr`]).
    #[inline]
    pub fn segmented_plan(&self) -> Option<&SegmentedPlan> {
        self.seg.as_ref()
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
    /// Allocates one output vector; round loops should prefer
    /// [`Self::neighbor_fold_into`] (or the typed wrappers
    /// [`Self::neighbor_fold_flags`], [`Self::neighbor_fold_counts`],
    /// [`Self::neighbor_fold_words`]) which reuse a caller- or
    /// runtime-owned buffer.
    ///
    /// # Panics
    ///
    /// Panics if `queries.len() != n_vertices`.
    pub fn neighbor_fold<Q: Sync, C, R: Send>(
        &mut self,
        query_bits: u64,
        response_bits: u64,
        queries: &[Q],
        edge: impl Fn(VertexId, VertexId, &Q, &Q) -> Option<C> + Sync,
        init: impl Fn(VertexId) -> R + Sync,
        fold: impl Fn(&mut R, C) + Sync,
    ) -> Vec<R> {
        let mut out = Vec::new();
        self.neighbor_fold_into(
            query_bits,
            response_bits,
            queries,
            edge,
            init,
            fold,
            &mut out,
        );
        out
    }

    /// [`Self::neighbor_fold`] writing into a reusable buffer: `out` is
    /// cleared and refilled, so a warm buffer makes the round
    /// allocation-free under the sequential config.
    ///
    /// Each vertex's fold walks its CSR adjacency row in ascending neighbor
    /// order with the accumulator in a register, shard-parallel across the
    /// runtime's [`ShardPlan`] into disjoint output slices. The contribution
    /// order per vertex equals the flat edge-table sweep's (neighbors below
    /// `v` ascending, then above), so results are bit-identical to the
    /// historical sequential path at any thread count — even for
    /// non-commutative folds.
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

        if self.plan.n_shards() <= 1 {
            // Sequential: one sweep of the flat edge table (half the gather
            // traffic of the row walk, and the historical reference
            // semantics). For each vertex, contributions arrive from
            // neighbors below it in ascending order, then neighbors above
            // it in ascending order — i.e. ascending neighbor order.
            out.clear();
            out.extend((0..self.g.n_vertices()).map(&init));
            for &(u, v) in self.g.h_edge_slice() {
                if let Some(c) = edge(v, u, &queries[v], &queries[u]) {
                    fold(&mut out[v], c);
                }
                if let Some(c) = edge(u, v, &queries[u], &queries[v]) {
                    fold(&mut out[u], c);
                }
            }
        } else {
            // Sharded: each worker folds its own vertices by walking their
            // CSR rows — ascending neighbor order, so the per-vertex
            // contribution order (and thus the result) is identical to the
            // sequential sweep, while every write lands in the worker's
            // disjoint output slice.
            let (offsets, adj) = self.g.adjacency_csr();
            fill_sharded(out, &self.plan, self.pool.as_deref(), |start, slot| {
                for (i, cell) in slot.iter_mut().enumerate() {
                    let v = start + i;
                    let mut acc = init(v);
                    let qv = &queries[v];
                    for &u in &adj[offsets[v]..offsets[v + 1]] {
                        if let Some(c) = edge(v, u, qv, &queries[u]) {
                            fold(&mut acc, c);
                        }
                    }
                    cell.write(acc);
                }
            });
        }
    }

    /// [`Self::neighbor_fold_into`] for **monoid** folds — `init` is the
    /// combine identity and `merge` continues a fold split at any point
    /// (`merge(a, fold(init(v), es)) == fold(a, es)`). That extra law is
    /// what lets the round route through the runtime's [`SegmentedPlan`]
    /// when the topology has a hub row: each segment folds its fragments
    /// of the row independently, and the fragments merge in ascending
    /// segment order, so outputs and meter charges are bit-identical to
    /// the serial walk while no shard carries more than its entry share.
    /// Without a segmented plan (balanced topologies, serial configs) this
    /// is exactly `neighbor_fold_into`.
    ///
    /// The typed wrappers ([`Self::neighbor_fold_flags`] and friends) all
    /// route through here — their folds are monoids (OR, +, |) — so the
    /// driver's trial stages are hub-proof automatically. Non-monoid folds
    /// must stay on [`Self::neighbor_fold_into`].
    ///
    /// # Panics
    ///
    /// Panics if `queries.len() != n_vertices`.
    #[allow(clippy::too_many_arguments)]
    pub fn neighbor_fold_into_merging<Q: Sync, C, R: Send>(
        &mut self,
        query_bits: u64,
        response_bits: u64,
        queries: &[Q],
        edge: impl Fn(VertexId, VertexId, &Q, &Q) -> Option<C> + Sync,
        init: impl Fn(VertexId) -> R + Sync,
        fold: impl Fn(&mut R, C) + Sync,
        merge: impl FnMut(&mut R, R),
        out: &mut Vec<R>,
    ) {
        if self.seg.is_none() {
            self.neighbor_fold_into(query_bits, response_bits, queries, edge, init, fold, out);
            return;
        }
        assert_eq!(
            queries.len(),
            self.g.n_vertices(),
            "one query per vertex required"
        );
        self.charge_broadcast(query_bits);
        self.charge_link_round(query_bits);
        self.charge_converge(response_bits);
        let seg = self.seg.as_ref().expect("checked above");
        let (offsets, adj) = self.g.adjacency_csr();
        fold_rows_segmented(
            out,
            seg,
            self.pool.as_deref(),
            offsets,
            init,
            |v, es, acc| {
                let qv = &queries[v];
                for &u in &adj[es] {
                    if let Some(c) = edge(v, u, qv, &queries[u]) {
                        fold(acc, c);
                    }
                }
            },
            merge,
        );
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
        self.neighbor_fold_into_merging(
            query_bits,
            response_bits,
            queries,
            |v, u, qv, qu| edge(v, u, qv, qu).then_some(()),
            |_| false,
            |acc, ()| *acc = true,
            |acc, b| *acc = *acc || b,
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
        self.neighbor_fold_into_merging(
            query_bits,
            response_bits,
            queries,
            edge,
            |_| 0usize,
            |acc, c| *acc += c,
            |acc, b| *acc += b,
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
        self.neighbor_fold_into_merging(
            query_bits,
            response_bits,
            queries,
            edge,
            |_| 0u64,
            |acc, c| *acc |= c,
            |acc, b| *acc |= b,
            &mut buf,
        );
        self.scratch.words = buf;
        &self.scratch.words
    }

    /// Every vertex receives the full list of `(neighbor, message)` pairs,
    /// as a flat CSR buffer whose row `v` mirrors
    /// [`ClusterGraph::neighbors`]`(v)`.
    ///
    /// Charged honestly: the converge-cast for vertex `v` carries
    /// `deg(v) · query_bits` bits, so the round is pipelined over
    /// `ceil(max_v deg(v) · query_bits / budget)` sub-rounds. Use only where
    /// the paper does (low-degree regimes, `O(log n)`-sized payloads).
    ///
    /// # Panics
    ///
    /// Panics if `queries.len() != n_vertices`.
    pub fn neighbor_collect<Q: Clone + Send + Sync>(
        &mut self,
        query_bits: u64,
        queries: &[Q],
    ) -> NeighborLists<Q> {
        let mut out = NeighborLists::new();
        self.neighbor_collect_into(query_bits, queries, &mut out);
        out
    }

    /// [`Self::neighbor_collect`] into a reusable [`NeighborLists`]:
    /// offsets and arena are cleared and refilled in place, so a warm
    /// buffer makes the round allocation-free under the sequential config
    /// (modulo `Q::clone`). The arena fill is sharded over the runtime's
    /// [`ShardPlan`]: shard `s` writes the CSR entries of its own vertex
    /// rows, a disjoint arena slice, so the filled buffer is bit-identical
    /// to the sequential sweep at any thread count.
    ///
    /// # Panics
    ///
    /// Panics if `queries.len() != n_vertices`.
    pub fn neighbor_collect_into<Q: Clone + Send + Sync>(
        &mut self,
        query_bits: u64,
        queries: &[Q],
        out: &mut NeighborLists<Q>,
    ) {
        assert_eq!(
            queries.len(),
            self.g.n_vertices(),
            "one query per vertex required"
        );
        self.charge_broadcast(query_bits);
        self.charge_link_round(query_bits);
        let max_deg = self.g.max_degree() as u64;
        self.charge_converge(query_bits.saturating_mul(max_deg.max(1)));

        let (offsets, adj) = self.g.adjacency_csr();
        // Offsets copy and arena fill are sharded together in one scope:
        // shard `s` copies its own vertices' row starts and fills its own
        // rows' entries — the last O(n) sequential passes of the warm
        // round, removed without an extra spawn cycle. Entry `e` of the
        // output arena is a pure function of adjacency slot `e`, so when a
        // hub row triggered segmentation its entries can be written by
        // several segments, bit-identically to the row-granular fill.
        if let Some(seg) = &self.seg {
            fill_segmented_with_offsets(
                &mut out.offsets,
                &mut out.data,
                seg,
                self.pool.as_deref(),
                offsets,
                |es: std::ops::Range<usize>, slot: &mut [std::mem::MaybeUninit<_>]| {
                    for (i, cell) in slot.iter_mut().enumerate() {
                        let u = adj[es.start + i];
                        cell.write((u, queries[u].clone()));
                    }
                },
            );
            return;
        }
        fill_sharded_with_offsets(
            &mut out.offsets,
            &mut out.data,
            &self.plan,
            self.pool.as_deref(),
            offsets,
            {
                |range: std::ops::Range<usize>, slot: &mut [std::mem::MaybeUninit<_>]| {
                    let base = offsets[range.start];
                    for (i, cell) in slot.iter_mut().enumerate() {
                        let u = adj[base + i];
                        cell.write((u, queries[u].clone()));
                    }
                }
            },
        );
    }

    /// Exact degree computation in one aggregation round (§1.1): neighbors
    /// deduplicate their parallel links so each contributes exactly 1.
    pub fn exact_degrees(&mut self) -> Vec<usize> {
        let mut out = Vec::new();
        self.exact_degrees_into(&mut out);
        out
    }

    /// [`Self::exact_degrees`] into a reusable buffer. After the dedup
    /// round, each vertex's count equals its deduplicated CSR degree, so
    /// the fold is resolved directly from the topology — shard-parallel
    /// into disjoint output slices like every other primitive. The local
    /// work here is O(1) per vertex (an offsets difference, never a row
    /// walk), so the shards balance on the even per-vertex plan: entry
    /// mass — hub or not — is irrelevant to this primitive's cost.
    pub fn exact_degrees_into(&mut self, out: &mut Vec<usize>) {
        // One converge inside each neighbor to cut extra links, then the
        // counting round itself: constant rounds, O(log n)-bit messages.
        self.charge_full_rounds(1, self.id_bits());
        self.charge_broadcast(1);
        self.charge_link_round(1);
        self.charge_converge(self.id_bits());
        let (offsets, _) = self.g.adjacency_csr();
        fill_sharded(out, &self.even_plan, self.pool.as_deref(), |start, slot| {
            for (i, cell) in slot.iter_mut().enumerate() {
                let v = start + i;
                cell.write(offsets[v + 1] - offsets[v]);
            }
        });
    }

    /// Builds a per-vertex vector shard-parallel over the runtime's
    /// [`ShardPlan`]: element `v` is `f(v)`, bit-identical to the
    /// sequential `(0..n).map(f).collect()` at any thread count because
    /// each worker writes a disjoint contiguous slice and `f` is pure
    /// (`Fn + Sync`). Used by the driver for its per-phase eligibility
    /// masks — free of meter charges, like any local recomputation.
    pub fn par_vertex_map<T: Send>(&self, f: impl Fn(VertexId) -> T + Sync) -> Vec<T> {
        let mut out = Vec::new();
        self.par_vertex_map_into(&mut out, f);
        out
    }

    /// [`Self::par_vertex_map`] into a reusable buffer (allocation-free
    /// once warm).
    pub fn par_vertex_map_into<T: Send>(&self, out: &mut Vec<T>, f: impl Fn(VertexId) -> T + Sync) {
        fill_sharded(out, &self.plan, self.pool.as_deref(), |start, slot| {
            for (i, cell) in slot.iter_mut().enumerate() {
                cell.write(f(start + i));
            }
        });
    }

    /// Fills a flat row-major matrix of `row_len` elements per vertex,
    /// sharded over the runtime's plan: `fill(v, row)` runs once per
    /// vertex with `row` set to `T::default()`, writing the vertex's own
    /// disjoint range. The palette bit-rows of the fallback and
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
        let base = SendPtr::new(out.as_mut_ptr());
        for_each_shard(self.pool.as_deref(), self.plan.n_shards(), &|s| {
            for v in self.plan.range(s) {
                // SAFETY: rows are disjoint element ranges of the `n ·
                // row_len` buffer and shard `s` owns exactly the vertices
                // of `plan.range(s)`.
                let row =
                    unsafe { std::slice::from_raw_parts_mut(base.get().add(v * row_len), row_len) };
                fill(v, row);
            }
        });
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
    /// dedication. Overestimates [`Self::exact_degrees`] (Figure 1).
    pub fn naive_link_degrees(&mut self) -> Vec<usize> {
        self.charge_converge(self.id_bits());
        let mut deg = vec![0usize; self.g.n_vertices()];
        for &(_, _, cu, cv) in self.g.links() {
            deg[cu] += 1;
            deg[cv] += 1;
        }
        deg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgc_net::CommGraph;

    fn multi_link() -> ClusterGraph {
        let comm = CommGraph::from_edges(
            6,
            &[
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
        let exact = net.exact_degrees();
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
        let sums = net.neighbor_fold(
            8,
            8,
            &vals,
            |_, _, _, qu| Some(*qu),
            |_| 0u64,
            |acc, c| *acc += c,
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
    fn neighbor_collect_returns_all_neighbors() {
        let comm = CommGraph::path(4);
        let h = ClusterGraph::singletons(comm);
        let mut net = ClusterNet::new(&h, 64);
        let msgs = vec![0u8, 1, 2, 3];
        let got = net.neighbor_collect(8, &msgs);
        assert_eq!(got.n_rows(), 4);
        assert_eq!(got.row(0), &[(1, 1)]);
        // CSR rows are sorted by neighbor id.
        assert_eq!(got.row(1), &[(0, 0), (2, 2)]);
        assert_eq!(got.row(3), &[(2, 2)]);
    }

    #[test]
    fn collect_into_reuses_buffers() {
        let comm = CommGraph::path(4);
        let h = ClusterGraph::singletons(comm);
        let mut net = ClusterNet::new(&h, 64);
        let mut lists = NeighborLists::new();
        for round in 0..3u32 {
            let msgs = vec![round; 4];
            net.neighbor_collect_into(8, &msgs, &mut lists);
            assert_eq!(lists.row(2), &[(1, round), (3, round)]);
        }
    }

    #[test]
    fn rounds_and_bits_are_charged() {
        let h = multi_link();
        let mut net = ClusterNet::new(&h, 16);
        net.set_phase("t");
        net.neighbor_fold(
            16,
            16,
            &[(); 2],
            |_, _, _, _| Some(1u32),
            |_| 0u32,
            |a, c| *a += c,
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
    fn collect_in_congest_is_one_link_round() {
        // Singleton clusters: support trees have no edges, so the
        // converge-cast is free and collection is a single link round.
        let comm = CommGraph::star(5);
        let h = ClusterGraph::singletons(comm);
        let mut net = ClusterNet::new(&h, 8);
        let h0 = net.meter.h_rounds();
        net.neighbor_collect(8, &[0u8; 5]);
        assert_eq!(net.meter.h_rounds() - h0, 3);
    }

    #[test]
    fn collect_charges_degree_times_bits() {
        // Star of five 2-machine clusters: cluster i = {2i, 2i+1}; the
        // center cluster 0 links to each other cluster. Center degree 4.
        let mut edges: Vec<(usize, usize)> = (0..5).map(|i| (2 * i, 2 * i + 1)).collect();
        for i in 1..5 {
            edges.push((1, 2 * i)); // machine 1 (cluster 0) to each cluster
        }
        let comm = CommGraph::from_edges(10, &edges).unwrap();
        let h = ClusterGraph::build(comm, vec![0, 0, 1, 1, 2, 2, 3, 3, 4, 4]).unwrap();
        assert_eq!(h.degree(0), 4);
        let mut net = ClusterNet::new(&h, 8);
        let h0 = net.meter.h_rounds();
        net.neighbor_collect(8, &[0u8; 5]);
        // Converge carries up to 4 * 8 = 32 bits on a tree edge -> 4
        // sub-rounds; plus 1 broadcast and 1 link round.
        assert_eq!(net.meter.h_rounds() - h0, 1 + 1 + 4);
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
