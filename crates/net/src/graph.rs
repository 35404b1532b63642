//! The static communication-network topology `G = (V_G, E_G)`.
//!
//! Machines are indexed `0..n`; links are undirected, simple edges stored in
//! CSR adjacency form for cache-friendly traversal. The cluster layer builds
//! support trees and reads inter-cluster links off this graph.

use crate::delta::{DeltaBatch, DeltaEffect};
use crate::error::NetError;
use crate::par::{kway_merge_dedup, map_reduce_on, ParallelConfig, ShardPlan, WorkerPool};
use std::borrow::Borrow;
use std::collections::VecDeque;

/// Identifier of a machine (a vertex of the communication network `G`).
pub type MachineId = usize;

/// An undirected simple communication network, stored once as a CSR
/// adjacency with sorted rows; the canonical edge list is derived from it
/// ([`Self::edges`]).
///
/// Equality is structural (machine count + CSR), so the cluster layer's
/// differential suites can compare whole built instances.
///
/// # Example
///
/// ```
/// use cgc_net::CommGraph;
/// let g = CommGraph::path(5);
/// assert_eq!(g.n_machines(), 5);
/// assert_eq!(g.n_links(), 4);
/// assert!(g.is_connected());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommGraph {
    n: usize,
    /// CSR offsets: `adj[offsets[v]..offsets[v+1]]` are the neighbors of
    /// `v`, ascending.
    offsets: Vec<usize>,
    adj: Vec<MachineId>,
}

impl CommGraph {
    /// Builds a graph on `n` machines from an undirected edge list.
    ///
    /// Duplicate edges are collapsed; orientation is normalized. `edges`
    /// is a slice of pairs or an iterator of them, such as another graph's
    /// [`Self::edges`].
    ///
    /// # Errors
    ///
    /// Returns [`NetError::MachineOutOfRange`] if an endpoint is `>= n`,
    /// [`NetError::SelfLoop`] on a `(u, u)` edge and [`NetError::EmptyGraph`]
    /// when `n == 0`.
    pub fn from_edges<E: Borrow<(MachineId, MachineId)>>(
        n: usize,
        edges: impl IntoIterator<Item = E>,
    ) -> Result<Self, NetError> {
        let edges: Vec<(MachineId, MachineId)> = edges.into_iter().map(|e| *e.borrow()).collect();
        Self::from_edges_with(n, &edges, &ParallelConfig::serial())
    }

    /// [`Self::from_edges`] with validation, orientation normalization
    /// and sort/dedup sharded over `par`'s threads (dispatched on the
    /// process-global [`WorkerPool`]). Each shard canonicalizes and sorts
    /// a contiguous range of the input, the sorted runs merge through the
    /// deterministic fixed-order k-way merge, and one serial counting sort
    /// fills the CSR — the result (and, on invalid input, the reported
    /// error: always the earliest bad edge in input order) is
    /// **byte-identical** to the serial path at any thread count.
    ///
    /// # Errors
    ///
    /// As [`Self::from_edges`].
    pub fn from_edges_with(
        n: usize,
        edges: &[(MachineId, MachineId)],
        par: &ParallelConfig,
    ) -> Result<Self, NetError> {
        Self::from_edge_runs_with(n, &[edges], par)
    }

    /// The streaming entry of the edge pipeline: builds the graph from
    /// *per-shard edge runs* — the output shape of the sharded generators
    /// in `cgc_graphs` — without first concatenating them into one edge
    /// `Vec`. The logical input is the concatenation of the runs in order;
    /// semantics (dedup, normalization, error reporting) are exactly
    /// [`Self::from_edges`] on that concatenation, and the output is
    /// independent of both the run partition and the thread count.
    ///
    /// # Errors
    ///
    /// As [`Self::from_edges`].
    pub fn from_edge_runs_with(
        n: usize,
        runs: &[&[(MachineId, MachineId)]],
        par: &ParallelConfig,
    ) -> Result<Self, NetError> {
        if n == 0 {
            return Err(NetError::EmptyGraph);
        }
        // Run-start prefix so a shard of the concatenated index space can
        // locate its slice(s) without copying the input.
        let mut starts = Vec::with_capacity(runs.len() + 1);
        starts.push(0usize);
        for r in runs {
            starts.push(starts.last().unwrap() + r.len());
        }
        let total = *starts.last().unwrap();
        let plan = ShardPlan::even(total, par.threads());
        let pool = WorkerPool::global(par.threads());
        let pool = pool.as_deref();
        // Phase 1: validate + canonicalize + sort/dedup, shard-locally.
        // Shards are contiguous ascending input ranges merged in shard
        // order and each shard stops at its first bad edge, so the merged
        // error is the earliest bad edge in input order — exactly the
        // serial sweep's report.
        let sorted_runs = map_reduce_on(
            &plan,
            pool,
            |range| -> Result<Vec<Vec<(usize, usize)>>, NetError> {
                let mut canon: Vec<(usize, usize)> = Vec::with_capacity(range.len());
                let mut r = match starts.binary_search(&range.start) {
                    Ok(i) => i,
                    Err(i) => i - 1,
                };
                let mut off = range.start - starts[r];
                let mut remaining = range.len();
                while remaining > 0 {
                    let run = runs[r];
                    let take = remaining.min(run.len() - off);
                    for &(u, v) in &run[off..off + take] {
                        if u >= n {
                            return Err(NetError::MachineOutOfRange { machine: u, n });
                        }
                        if v >= n {
                            return Err(NetError::MachineOutOfRange { machine: v, n });
                        }
                        if u == v {
                            return Err(NetError::SelfLoop { machine: u });
                        }
                        canon.push((u.min(v), u.max(v)));
                    }
                    remaining -= take;
                    r += 1;
                    off = 0;
                }
                canon.sort_unstable();
                canon.dedup();
                Ok(vec![canon])
            },
            |acc, part| {
                if let Ok(lists) = acc {
                    match part {
                        Ok(more) => lists.extend(more),
                        Err(e) => *acc = Err(e),
                    }
                }
            },
        )?;
        // Phase 2: deterministic fixed-order k-way merge — the unique
        // sorted dedup of the union, independent of the partition.
        let canon = kway_merge_dedup(sorted_runs);
        Ok(Self::from_canonical_edges(n, &canon))
    }

    /// CSR assembly from the canonical (sorted, deduplicated, `u < v`)
    /// edge list by counting sort: one degree pass, then one cursor walk
    /// that appends each edge to both endpoint rows in edge order — so
    /// every row comes out ascending, the way `ClusterGraph::build` fills
    /// `H`'s rows. Serial: it is linear in `m` and sits behind the
    /// sharded sort above.
    fn from_canonical_edges(n: usize, canon: &[(usize, usize)]) -> Self {
        let mut deg = vec![0usize; n];
        for &(u, v) in canon {
            deg[u] += 1;
            deg[v] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0usize);
        for d in &deg {
            offsets.push(offsets.last().unwrap() + d);
        }
        let mut adj = vec![0usize; offsets[n]];
        let mut cursor = offsets[..n].to_vec();
        for &(u, v) in canon {
            adj[cursor[u]] = v;
            cursor[u] += 1;
            adj[cursor[v]] = u;
            cursor[v] += 1;
        }
        CommGraph { n, offsets, adj }
    }

    /// Applies an edge delta batch in place, serially. See
    /// [`Self::apply_delta_with`].
    ///
    /// # Errors
    ///
    /// As [`Self::apply_delta_with`].
    pub fn apply_delta(&mut self, batch: &DeltaBatch) -> Result<DeltaEffect, NetError> {
        self.apply_delta_with(batch, &ParallelConfig::serial())
    }

    /// Applies an edge delta batch in place: the edge set becomes
    /// `(E \ deletes) ∪ inserts` and the CSR is patched incrementally —
    /// untouched rows are copied wholesale, touched rows re-merged — so
    /// the result is byte-identical ([`PartialEq`]) to
    /// [`Self::from_edges`] on the mutated edge set at any thread count.
    /// Returns the *effective* change (no-op inserts/deletes filtered
    /// out); on error the graph is left unchanged.
    ///
    /// # Errors
    ///
    /// [`NetError::MachineOutOfRange`] if the batch names a machine
    /// `>= n_machines()` (batches built for a smaller machine count apply
    /// cleanly).
    pub fn apply_delta_with(
        &mut self,
        batch: &DeltaBatch,
        par: &ParallelConfig,
    ) -> Result<DeltaEffect, NetError> {
        let (next, effect) = self.with_delta_with(batch, par)?;
        *self = next;
        Ok(effect)
    }

    /// [`Self::apply_delta_with`] without consuming the receiver: builds
    /// the mutated graph alongside the old one and returns both the new
    /// graph and the effective change. The cluster layer uses this for
    /// compute-then-commit atomicity.
    ///
    /// # Errors
    ///
    /// As [`Self::apply_delta_with`].
    pub fn with_delta_with(
        &self,
        batch: &DeltaBatch,
        par: &ParallelConfig,
    ) -> Result<(Self, DeltaEffect), NetError> {
        let n = self.n;
        // A batch validated against a larger machine count may name
        // machines this graph does not have; both lists are canonical
        // (u < v), so checking the high endpoint suffices.
        if batch.n_machines() > n {
            for &(u, v) in batch.inserts().iter().chain(batch.deletes()) {
                if v >= n {
                    let machine = if u >= n { u } else { v };
                    return Err(NetError::MachineOutOfRange { machine, n });
                }
            }
        }
        // Effective sets: inserts that are absent, deletes that are
        // present (binary search per edge in the CSR row). Filtering a
        // sorted list keeps it sorted.
        let inserted: Vec<(usize, usize)> = batch
            .inserts()
            .iter()
            .copied()
            .filter(|&(u, v)| !self.has_link(u, v))
            .collect();
        let deleted: Vec<(usize, usize)> = batch
            .deletes()
            .iter()
            .copied()
            .filter(|&(u, v)| self.has_link(u, v))
            .collect();
        let effect = DeltaEffect { inserted, deleted };
        if effect.is_noop() {
            return Ok((self.clone(), effect));
        }
        let next = self.patched(&effect, par);
        Ok((next, effect))
    }

    /// Rebuilds the CSR for `(E \ deleted) ∪ inserted`, given the
    /// *effective* sets (sorted, canonical, inserts disjoint from `E`,
    /// deletes a subset of `E`). Rows are filled in a sharded pass
    /// balanced by new-row mass; a CSR row is ascending (all lower
    /// neighbors then all higher, each sorted), so patching a touched row
    /// is one linear sorted merge and the output is exactly what
    /// [`Self::from_canonical_edges`] would produce.
    fn patched(&self, effect: &DeltaEffect, par: &ParallelConfig) -> Self {
        // Directed patch pairs grouped by row: (row, neighbor) for both
        // endpoints of every changed edge, sorted so each row's additions
        // and removals are contiguous ascending runs.
        let mut ins_pairs = Vec::with_capacity(2 * effect.inserted.len());
        for &(u, v) in &effect.inserted {
            ins_pairs.push((u, v));
            ins_pairs.push((v, u));
        }
        ins_pairs.sort_unstable();
        let mut del_pairs = Vec::with_capacity(2 * effect.deleted.len());
        for &(u, v) in &effect.deleted {
            del_pairs.push((u, v));
            del_pairs.push((v, u));
        }
        del_pairs.sort_unstable();
        let (offsets, adj) =
            crate::par::patch_csr_rows(&self.offsets, &self.adj, &ins_pairs, &del_pairs, par);
        CommGraph {
            n: self.n,
            offsets,
            adj,
        }
    }

    /// A path `0 - 1 - ... - (n-1)` — CSR built directly (the edges are
    /// canonical by construction, so no validation pass or sort runs).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn path(n: usize) -> Self {
        assert!(n > 0, "path needs at least one machine");
        let mut offsets = Vec::with_capacity(n + 1);
        let mut adj = Vec::with_capacity(2 * (n - 1));
        offsets.push(0);
        for v in 0..n {
            if v > 0 {
                adj.push(v - 1);
            }
            if v + 1 < n {
                adj.push(v + 1);
            }
            offsets.push(adj.len());
        }
        CommGraph { n, offsets, adj }
    }

    /// A star with center `0` and leaves `1..n` — CSR built directly.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn star(n: usize) -> Self {
        assert!(n > 0, "star needs at least one machine");
        let mut offsets = Vec::with_capacity(n + 1);
        let mut adj = Vec::with_capacity(2 * (n - 1));
        offsets.push(0);
        adj.extend(1..n);
        offsets.push(adj.len());
        for _v in 1..n {
            adj.push(0);
            offsets.push(adj.len());
        }
        CommGraph { n, offsets, adj }
    }

    /// The complete graph on `n` machines — CSR built directly.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn complete(n: usize) -> Self {
        assert!(n > 0, "complete graph needs at least one machine");
        let mut offsets = Vec::with_capacity(n + 1);
        let mut adj = Vec::with_capacity(n * (n - 1));
        offsets.push(0);
        for v in 0..n {
            adj.extend((0..n).filter(|&w| w != v));
            offsets.push(adj.len());
        }
        CommGraph { n, offsets, adj }
    }

    /// Number of machines.
    #[inline]
    pub fn n_machines(&self) -> usize {
        self.n
    }

    /// Number of links.
    #[inline]
    pub fn n_links(&self) -> usize {
        self.adj.len() / 2
    }

    /// Approximate heap footprint in bytes (element counts × element
    /// sizes; capacity slack and allocator overhead are ignored, so the
    /// figure is deterministic for a given graph). Used by cache byte
    /// budgets.
    pub fn approx_heap_bytes(&self) -> usize {
        std::mem::size_of_val(&self.offsets[..]) + std::mem::size_of_val(&self.adj[..])
    }

    /// Degree of machine `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn degree(&self, v: MachineId) -> usize {
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Neighbors of machine `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn neighbors(&self, v: MachineId) -> &[MachineId] {
        &self.adj[self.offsets[v]..self.offsets[v + 1]]
    }

    /// The neighbors of `u` above `u`: the tail of its sorted CSR row.
    #[inline]
    pub fn upper_neighbors(&self, u: MachineId) -> &[MachineId] {
        let row = self.neighbors(u);
        &row[row.partition_point(|&w| w < u)..]
    }

    /// The canonical (`u < v`) edges, sorted: the upper halves of the CSR
    /// rows in row order.
    pub fn edges(&self) -> impl Iterator<Item = (MachineId, MachineId)> + '_ {
        (0..self.n).flat_map(move |u| self.upper_neighbors(u).iter().map(move |&v| (u, v)))
    }

    /// The CSR adjacency itself: `(offsets, targets)` with the neighbors of
    /// `v` at `targets[offsets[v]..offsets[v + 1]]`, ascending.
    #[inline]
    pub fn adjacency_csr(&self) -> (&[usize], &[MachineId]) {
        (&self.offsets, &self.adj)
    }

    /// Whether the link `{u, v}` exists (binary search in CSR row).
    pub fn has_link(&self, u: MachineId, v: MachineId) -> bool {
        if u >= self.n || v >= self.n {
            return false;
        }
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// BFS distances from `src`; unreachable machines get `usize::MAX`.
    ///
    /// # Panics
    ///
    /// Panics if `src` is out of range.
    pub fn bfs_distances(&self, src: MachineId) -> Vec<usize> {
        let mut dist = vec![usize::MAX; self.n];
        let mut q = VecDeque::new();
        dist[src] = 0;
        q.push_back(src);
        while let Some(u) = q.pop_front() {
            for &w in self.neighbors(u) {
                if dist[w] == usize::MAX {
                    dist[w] = dist[u] + 1;
                    q.push_back(w);
                }
            }
        }
        dist
    }

    /// BFS restricted to a machine subset, from `src`, into a reusable
    /// [`BfsScratch`]: afterwards [`BfsScratch::parent`] and
    /// [`BfsScratch::depth`] give each subset machine's tree parent and
    /// depth (machines outside the subset keep `None` and `usize::MAX`).
    /// Used to build support trees inside clusters.
    ///
    /// The `O(n)` parent/depth maps are (re)sized once and the BFS touches
    /// only subset entries, so a loop over many small subsets pays
    /// `O(subset + internal edges)` per call instead of `O(n)` — the win
    /// that makes per-cluster support-tree construction shardable and
    /// cheap. After reading the results the caller **must** call
    /// [`BfsScratch::reset`] with the subset's machines before reusing the
    /// scratch. Neighbors are visited in CSR order.
    pub fn bfs_tree_within_scratch(
        &self,
        src: MachineId,
        in_subset: &[bool],
        scratch: &mut BfsScratch,
    ) {
        debug_assert!(in_subset.len() == self.n);
        scratch.ensure(self.n);
        if !in_subset[src] {
            return;
        }
        scratch.depth[src] = 0;
        scratch.queue.push_back(src);
        while let Some(u) = scratch.queue.pop_front() {
            let du = scratch.depth[u];
            for &w in self.neighbors(u) {
                if in_subset[w] && scratch.depth[w] == usize::MAX {
                    scratch.depth[w] = du + 1;
                    scratch.parent[w] = Some(u);
                    scratch.queue.push_back(w);
                }
            }
        }
    }

    /// Whether the whole graph is connected.
    pub fn is_connected(&self) -> bool {
        if self.n == 0 {
            return true;
        }
        let dist = self.bfs_distances(0);
        dist.iter().all(|&d| d != usize::MAX)
    }

    /// Maximum degree over all machines.
    pub fn max_degree(&self) -> usize {
        (0..self.n).map(|v| self.degree(v)).max().unwrap_or(0)
    }
}

/// Reusable workspace for [`CommGraph::bfs_tree_within_scratch`]: the
/// full-size parent/depth maps plus the BFS queue, sized lazily and reset
/// sparsely (only the entries a BFS touched) so repeated subset BFS over
/// one graph never re-allocates or re-clears `O(n)` state.
#[derive(Debug, Default)]
pub struct BfsScratch {
    parent: Vec<Option<MachineId>>,
    depth: Vec<usize>,
    queue: VecDeque<MachineId>,
}

impl BfsScratch {
    /// Fresh scratch (sized on first use).
    pub fn new() -> Self {
        Self::default()
    }

    fn ensure(&mut self, n: usize) {
        if self.depth.len() < n {
            self.parent.resize(n, None);
            self.depth.resize(n, usize::MAX);
        }
        debug_assert!(self.queue.is_empty(), "BFS drains its queue");
    }

    /// Parent of `m` in the last BFS tree (`None` for the source and for
    /// unreached machines).
    #[inline]
    pub fn parent(&self, m: MachineId) -> Option<MachineId> {
        self.parent[m]
    }

    /// Depth of `m` in the last BFS tree (`usize::MAX` when unreached).
    #[inline]
    pub fn depth(&self, m: MachineId) -> usize {
        self.depth[m]
    }

    /// Clears the entries of `machines` — exactly the set a subset BFS
    /// may have touched — readying the scratch for the next call.
    pub fn reset<'a>(&mut self, machines: impl IntoIterator<Item = &'a MachineId>) {
        for &m in machines {
            self.parent[m] = None;
            self.depth[m] = usize::MAX;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_edges_dedups_and_normalizes() {
        let g = CommGraph::from_edges(3, [(0, 1), (1, 0), (2, 1)]).unwrap();
        assert_eq!(g.n_links(), 2);
        assert_eq!(g.edges().collect::<Vec<_>>(), [(0, 1), (1, 2)]);
        assert!(g.has_link(1, 0));
        assert!(!g.has_link(0, 2));
    }

    #[test]
    fn rejects_bad_edges() {
        assert!(matches!(
            CommGraph::from_edges(2, [(0, 2)]),
            Err(NetError::MachineOutOfRange { machine: 2, n: 2 })
        ));
        assert!(matches!(
            CommGraph::from_edges(2, [(1, 1)]),
            Err(NetError::SelfLoop { machine: 1 })
        ));
        assert!(matches!(
            CommGraph::from_edges(0, [] as [(usize, usize); 0]),
            Err(NetError::EmptyGraph)
        ));
    }

    #[test]
    fn path_star_complete_shapes() {
        let p = CommGraph::path(6);
        assert_eq!(p.n_links(), 5);
        assert_eq!(p.degree(0), 1);
        assert_eq!(p.degree(3), 2);

        let s = CommGraph::star(6);
        assert_eq!(s.degree(0), 5);
        assert_eq!(s.degree(5), 1);
        assert_eq!(s.max_degree(), 5);

        let k = CommGraph::complete(5);
        assert_eq!(k.n_links(), 10);
        assert!(k.is_connected());
    }

    #[test]
    fn bfs_distances_on_path() {
        let p = CommGraph::path(5);
        let d = p.bfs_distances(0);
        assert_eq!(d, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn bfs_tree_within_subset_respects_boundary() {
        // Path 0-1-2-3-4, subset {0,1,2}: machine 3,4 unreachable.
        let p = CommGraph::path(5);
        let subset = vec![true, true, true, false, false];
        let mut tree = BfsScratch::new();
        p.bfs_tree_within_scratch(0, &subset, &mut tree);
        assert_eq!(tree.depth(2), 2);
        assert_eq!(tree.parent(2), Some(1));
        assert_eq!(tree.depth(3), usize::MAX);
        assert_eq!(tree.parent(3), None);
    }

    #[test]
    fn disconnected_graph_detected() {
        let g = CommGraph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        assert!(!g.is_connected());
    }

    #[test]
    fn single_machine_graph() {
        let g = CommGraph::from_edges(1, [] as [(usize, usize); 0]).unwrap();
        assert!(g.is_connected());
        assert_eq!(g.n_links(), 0);
        assert_eq!(g.degree(0), 0);
    }

    /// A messy pseudo-random edge soup (duplicates, both orientations).
    fn soup(n: usize, m: usize, seed: u64) -> Vec<(usize, usize)> {
        let mut x = seed | 1;
        let mut out = Vec::with_capacity(m);
        while out.len() < m {
            x = x
                .wrapping_mul(0x5851_F42D_4C95_7F2D)
                .wrapping_add(0x14057B7EF767814F);
            let u = (x >> 33) as usize % n;
            let v = (x >> 13) as usize % n;
            if u != v {
                out.push((u, v));
            }
        }
        out
    }

    #[test]
    fn direct_csr_shapes_equal_from_edges() {
        for n in [1usize, 2, 5, 9] {
            let path_edges: Vec<_> = (0..n - 1).map(|i| (i, i + 1)).collect();
            assert_eq!(
                CommGraph::path(n),
                CommGraph::from_edges(n, &path_edges).unwrap(),
                "path({n})"
            );
            let star_edges: Vec<_> = (1..n).map(|i| (0, i)).collect();
            assert_eq!(
                CommGraph::star(n),
                CommGraph::from_edges(n, &star_edges).unwrap(),
                "star({n})"
            );
            let mut complete_edges = Vec::new();
            for u in 0..n {
                for v in (u + 1)..n {
                    complete_edges.push((u, v));
                }
            }
            assert_eq!(
                CommGraph::complete(n),
                CommGraph::from_edges(n, &complete_edges).unwrap(),
                "complete({n})"
            );
        }
    }

    #[test]
    fn sharded_ingest_is_thread_count_independent() {
        let _serial = crate::par::pool_test_lock();
        let edges = soup(120, 900, 7);
        let reference = CommGraph::from_edges_with(120, &edges, &ParallelConfig::serial()).unwrap();
        for threads in [2, 4, 8] {
            let got =
                CommGraph::from_edges_with(120, &edges, &ParallelConfig::with_threads(threads))
                    .unwrap();
            assert_eq!(got, reference, "threads={threads}");
        }
    }

    #[test]
    fn edge_runs_equal_their_concatenation() {
        let _serial = crate::par::pool_test_lock();
        let edges = soup(60, 500, 13);
        let reference = CommGraph::from_edges(60, &edges).unwrap();
        for cut in [1usize, 3, 7] {
            let runs: Vec<&[(usize, usize)]> = edges.chunks(edges.len() / cut + 1).collect();
            for threads in [1, 2, 4] {
                let got = CommGraph::from_edge_runs_with(
                    60,
                    &runs,
                    &ParallelConfig::with_threads(threads),
                )
                .unwrap();
                assert_eq!(got, reference, "cut={cut} threads={threads}");
            }
        }
    }

    type EdgeList = Vec<(usize, usize)>;

    /// Splits a canonical edge soup into a base set plus disjoint
    /// insert/delete candidate lists, pseudo-randomly but repeatably.
    fn churn_split(n: usize, m: usize, seed: u64) -> (EdgeList, EdgeList, EdgeList) {
        let mut canon: Vec<_> = soup(n, m, seed)
            .iter()
            .map(|&(u, v)| (u.min(v), u.max(v)))
            .collect();
        canon.sort_unstable();
        canon.dedup();
        let mut base = Vec::new();
        let mut dels = Vec::new();
        let mut ins = Vec::new();
        for (i, e) in canon.into_iter().enumerate() {
            match i % 5 {
                0 => ins.push(e), // absent edge to insert
                1 => {
                    base.push(e);
                    dels.push(e); // present edge to delete
                }
                _ => base.push(e),
            }
        }
        (base, ins, dels)
    }

    #[test]
    fn apply_delta_matches_from_edges_on_mutated_set() {
        let _serial = crate::par::pool_test_lock();
        let (base, ins, dels) = churn_split(80, 700, 11);
        let reference_edges: Vec<_> = {
            let mut e: Vec<_> = base.iter().copied().filter(|x| !dels.contains(x)).collect();
            e.extend_from_slice(&ins);
            e
        };
        let reference = CommGraph::from_edges(80, &reference_edges).unwrap();
        for threads in [1usize, 2, 4, 8] {
            let par = ParallelConfig::with_threads(threads);
            let mut g = CommGraph::from_edges_with(80, &base, &par).unwrap();
            let batch = DeltaBatch::new_with(80, &ins, &dels, &par).unwrap();
            let effect = g.apply_delta_with(&batch, &par).unwrap();
            assert_eq!(g, reference, "threads={threads}");
            assert_eq!(effect.inserted, ins, "threads={threads}");
            assert_eq!(effect.deleted, dels, "threads={threads}");
        }
    }

    #[test]
    fn apply_delta_filters_noop_entries() {
        let mut g = CommGraph::path(5); // edges (0,1),(1,2),(2,3),(3,4)
                                        // (0,1) already present; (0,4) absent so its delete is a no-op.
        let batch = DeltaBatch::new(5, &[(0, 1), (0, 2)], &[(0, 4), (3, 4)]).unwrap();
        let effect = g.apply_delta(&batch).unwrap();
        assert_eq!(effect.inserted, vec![(0, 2)]);
        assert_eq!(effect.deleted, vec![(3, 4)]);
        assert_eq!(
            g,
            CommGraph::from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3)]).unwrap()
        );
    }

    #[test]
    fn noop_delta_leaves_graph_bit_identical() {
        let g0 = CommGraph::path(6);
        let mut g = g0.clone();
        // Inserting existing edges and deleting absent ones changes nothing.
        let batch = DeltaBatch::new(6, &[(0, 1), (2, 3)], &[(0, 5)]).unwrap();
        let effect = g.apply_delta(&batch).unwrap();
        assert!(effect.is_noop());
        assert_eq!(g, g0);
    }

    #[test]
    fn delta_for_larger_machine_count_is_range_checked() {
        let mut g = CommGraph::path(4);
        let batch = DeltaBatch::new(10, &[(2, 7)], &[]).unwrap();
        let err = g.apply_delta(&batch).unwrap_err();
        assert_eq!(err, NetError::MachineOutOfRange { machine: 7, n: 4 });
        assert_eq!(g, CommGraph::path(4)); // untouched on error
                                           // A small-n batch applies cleanly to a bigger graph.
        let mut big = CommGraph::path(10);
        let small = DeltaBatch::new(4, &[(0, 2)], &[(1, 2)]).unwrap();
        let effect = big.apply_delta(&small).unwrap();
        assert_eq!(effect.len(), 2);
        assert!(big.has_link(0, 2) && !big.has_link(1, 2));
    }

    #[test]
    fn delta_can_empty_and_refill_a_graph() {
        let mut g = CommGraph::path(4);
        let wipe = DeltaBatch::new(4, &[], &[(0, 1), (1, 2), (2, 3)]).unwrap();
        g.apply_delta(&wipe).unwrap();
        assert_eq!(g.n_links(), 0);
        assert_eq!(
            g,
            CommGraph::from_edges(4, [] as [(usize, usize); 0]).unwrap()
        );
        let refill = DeltaBatch::new(4, &[(0, 3), (1, 3)], &[]).unwrap();
        g.apply_delta(&refill).unwrap();
        assert_eq!(g, CommGraph::from_edges(4, [(0, 3), (1, 3)]).unwrap());
    }

    #[test]
    fn sharded_ingest_reports_the_earliest_error() {
        let _serial = crate::par::pool_test_lock();
        // Two bad edges; the earliest in input order must win at every
        // thread count (shard-order merge), exactly like the serial sweep.
        let mut edges = soup(40, 300, 3);
        edges[17] = (5, 5); // self-loop, earliest
        edges[250] = (0, 99); // out of range, later
        for threads in [1, 2, 4, 8] {
            let err =
                CommGraph::from_edges_with(40, &edges, &ParallelConfig::with_threads(threads))
                    .unwrap_err();
            assert!(
                matches!(err, NetError::SelfLoop { machine: 5 }),
                "threads={threads}: {err:?}"
            );
        }
        assert!(matches!(
            CommGraph::from_edges_with(0, &[], &ParallelConfig::with_threads(2)),
            Err(NetError::EmptyGraph)
        ));
    }
}
