//! Cluster-graph topology (Definition 3.1).
//!
//! Builds, from a communication network and a machine→cluster assignment:
//! the clusters, a BFS support tree per cluster (leader = smallest machine
//! id, matching the paper's "assume each cluster elected a leader"), the
//! dilation `d`, the deduplicated adjacency of `H`, and each `H`-edge's
//! link multiplicity. The multiplicities are what make the paper's
//! Figure 1 phenomenon observable: two clusters can be joined by many links
//! yet contribute a single edge of `H`.
//!
//! Each adjacency is stored once. The inter-cluster links are read off the
//! communication CSR, the `H`-edges `(u, v)` with `u < v` are the upper
//! halves of `H`'s CSR rows, and the support trees share one flat layout
//! of member offsets, members, parents and heights.

use cgc_net::par::{map_reduce_on, patch_csr_rows, ParallelConfig, ShardPlan};
use cgc_net::{csr_from_canonical_edges, BfsScratch, CommGraph, DeltaBatch, MachineId, NetError};

/// Identifier of a node of the cluster graph `H` (a cluster of machines).
pub type VertexId = usize;

/// A BFS tree spanning one cluster in the communication graph: a view of
/// the graph's flat tree layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupportTree<'a> {
    /// Machines of the cluster, sorted; the first is the leader (root).
    pub machines: &'a [MachineId],
    /// Tree parent of each machine, positionally parallel with
    /// `machines`; the leader is its own parent.
    pub parents: &'a [MachineId],
    /// Height of the tree (max depth).
    pub height: usize,
}

impl SupportTree<'_> {
    /// The cluster's leader (root of the tree).
    pub fn leader(&self) -> MachineId {
        self.machines[0]
    }

    /// Parent of `machines[i]` (`None` for the leader).
    pub fn parent(&self, i: usize) -> Option<MachineId> {
        (i != 0).then(|| self.parents[i])
    }

    /// Number of machines spanned.
    pub fn size(&self) -> usize {
        self.machines.len()
    }

    /// Number of tree edges (`size - 1`).
    pub fn n_edges(&self) -> usize {
        self.machines.len().saturating_sub(1)
    }
}

/// What one [`ClusterGraph::apply_delta_with`] call changed above the
/// network layer: the effective `G`-edge change plus its projection onto
/// clusters and `H`-edges — the inputs the coloring layer's dirty-region
/// recolor needs.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DeltaReport {
    /// The effective `G`-level change (no-op entries filtered out).
    pub effect: cgc_net::DeltaEffect,
    /// Clusters whose support tree was rebuilt (an intra-cluster edge
    /// changed), ascending.
    pub dirty_clusters: Vec<VertexId>,
    /// `H`-edges that appeared (multiplicity went `0 → >0`), canonical
    /// sorted.
    pub h_inserted: Vec<(VertexId, VertexId)>,
    /// `H`-edges that vanished (multiplicity went `→ 0`), canonical
    /// sorted.
    pub h_removed: Vec<(VertexId, VertexId)>,
    /// `H`-edges whose multiplicity changed but which survived.
    pub h_mult_changed: usize,
}

impl DeltaReport {
    /// Whether the batch changed nothing at any layer.
    #[inline]
    pub fn is_noop(&self) -> bool {
        self.effect.is_noop()
    }
}

/// The cluster graph `H` over a communication network `G`.
///
/// Equality is full structural equality over every stored table — the
/// differential suites use it to pin the sharded build to the serial one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterGraph {
    comm: CommGraph,
    /// machine → cluster id.
    assignment: Vec<VertexId>,
    /// Support trees, flat: cluster `c`'s machines are
    /// `members[member_offsets[c]..member_offsets[c + 1]]`, ascending,
    /// with their tree parents at the same positions of `parents` and the
    /// tree's height at `heights[c]`.
    member_offsets: Vec<usize>,
    members: Vec<MachineId>,
    parents: Vec<MachineId>,
    heights: Vec<usize>,
    /// CSR adjacency of `H` (deduplicated, sorted).
    h_offsets: Vec<usize>,
    h_adj: Vec<VertexId>,
    /// `H`-edges are numbered row by row over the upper halves of the
    /// CSR rows: row `u`'s neighbors above `u` are edges
    /// `edge_offsets[u]..edge_offsets[u + 1]`.
    edge_offsets: Vec<usize>,
    /// Parallel `G`-links realizing each `H`-edge, by edge number.
    edge_mult: Vec<u32>,
    dilation: usize,
    max_degree: usize,
}

impl ClusterGraph {
    /// Builds the cluster graph from a machine→cluster assignment,
    /// sequentially.
    ///
    /// Cluster ids must form a contiguous range `0..k` (holes are rejected
    /// by the connectivity check since an empty cluster is vacuously
    /// disconnected in spirit; supply contiguous ids).
    ///
    /// # Errors
    ///
    /// * [`NetError::AssignmentLength`] if `assignment.len() != n_machines`,
    /// * [`NetError::DisconnectedCluster`] if some cluster does not induce a
    ///   connected subgraph of `G` (Definition 3.1 requires connectivity).
    pub fn build(comm: CommGraph, assignment: Vec<VertexId>) -> Result<Self, NetError> {
        Self::build_with(comm, assignment, &ParallelConfig::serial())
    }

    /// [`Self::build`] sharded over `par`'s threads, dispatched on the
    /// process's one worker pool ([`crate::WorkerPool`]): a build at `t`
    /// threads reuses the parked workers the aggregation rounds use,
    /// growing the pool in place only if no earlier dispatch was `t`
    /// wide. The two heavy phases shard independently: support-tree BFS by
    /// cluster id (each worker with its own subset scratch) and link
    /// collection by `G`-row mass (shard-local sort/dedup). A fixed-order
    /// k-way merge of the shard pair lists then fills `H`'s CSR serially
    /// ([`cgc_net::csr_from_canonical_edges`]), every row already sorted.
    /// Every derived table is **byte-identical** to the sequential build
    /// at any thread count (`tests/build_equivalence.rs` pins this),
    /// including which error is reported on invalid input.
    pub fn build_with(
        comm: CommGraph,
        assignment: Vec<VertexId>,
        par: &ParallelConfig,
    ) -> Result<Self, NetError> {
        let n = comm.n_machines();
        if assignment.len() != n {
            return Err(NetError::AssignmentLength {
                expected: n,
                actual: assignment.len(),
            });
        }
        let k = assignment.iter().copied().max().map_or(0, |m| m + 1);

        // Member CSR via counting sort: machines ascend within each
        // cluster, so `members(c)[0]` is the smallest machine — the leader.
        let mut member_offsets = vec![0usize; k + 1];
        for &c in &assignment {
            member_offsets[c + 1] += 1;
        }
        for i in 0..k {
            member_offsets[i + 1] += member_offsets[i];
        }
        let mut cursor = member_offsets[..k].to_vec();
        let mut member_ids = vec![0usize; n];
        for (m, &c) in assignment.iter().enumerate() {
            member_ids[cursor[c]] = m;
            cursor[c] += 1;
        }

        // ---- Phase 1: support trees, sharded by cluster id ----
        // Shards are contiguous ascending cluster ranges merged in shard
        // order, so the first error (by cluster id) wins exactly as in the
        // sequential walk. A cluster's BFS is an indivisible unit (the
        // traversal is one sequential frontier); `from_prefix`'s
        // retargeting keeps the clusters *after* a giant one evenly spread
        // instead of collapsing into it, which is the best a row-granular
        // split can do here.
        let tree_plan = ShardPlan::from_prefix(&member_offsets, par.threads());
        let (parents, heights) = map_reduce_on(
            &tree_plan,
            |range| build_support_trees(&comm, &member_offsets, &member_ids, range),
            |acc: &mut Result<(Vec<MachineId>, Vec<usize>), NetError>, part| {
                if let Ok((parents, heights)) = acc {
                    match part {
                        Ok((more_parents, more_heights)) => {
                            parents.extend(more_parents);
                            heights.extend(more_heights);
                        }
                        Err(e) => *acc = Err(e),
                    }
                }
            },
        )?;

        // ---- Phase 2: inter-cluster links, sharded by G-row mass ----
        // Each shard walks the upper halves of its contiguous machine
        // rows and sorts/dedups its own cluster pairs locally.
        let (comm_offsets, _) = comm.adjacency_csr();
        let link_plan = ShardPlan::from_prefix(comm_offsets, par.threads());
        let pair_lists: Vec<Vec<((VertexId, VertexId), u32)>> = map_reduce_on(
            &link_plan,
            |range| {
                let mut raw: Vec<(VertexId, VertexId)> = Vec::new();
                for a in range {
                    let ca = assignment[a];
                    for &b in comm.upper_neighbors(a) {
                        let cb = assignment[b];
                        if ca != cb {
                            raw.push((ca.min(cb), ca.max(cb)));
                        }
                    }
                }
                raw.sort_unstable();
                let mut pairs: Vec<((VertexId, VertexId), u32)> = Vec::new();
                for p in raw {
                    match pairs.last_mut() {
                        Some((last, mult)) if *last == p => *mult += 1,
                        _ => pairs.push((p, 1)),
                    }
                }
                vec![pairs]
            },
            |acc: &mut Vec<_>, part| acc.extend(part),
        );

        // ---- Phase 3: deterministic merge + CSR assembly ----
        // Fixed-order k-way merge of the sorted, deduped shard pair lists:
        // the sorted multiset union is unique, so `edges`/`edge_mult` equal
        // the sequential sort+dedup byte for byte. `edges` is sorted, so
        // its order is the row-by-row numbering of the upper halves.
        let (edges, edge_mult) = cgc_net::kway_merge_counted(pair_lists);
        let edge_offsets = row_offsets(k, edges.iter().map(|&(u, _)| u));
        let (h_offsets, h_adj) = csr_from_canonical_edges(k, &edges);

        let dilation = heights.iter().copied().max().unwrap_or(0).max(1);
        let max_degree = h_offsets.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0);
        Ok(ClusterGraph {
            comm,
            assignment,
            member_offsets,
            members: member_ids,
            parents,
            heights,
            h_offsets,
            h_adj,
            edge_offsets,
            edge_mult,
            dilation,
            max_degree,
        })
    }

    /// Applies a `G`-edge delta batch in place, serially. See
    /// [`Self::apply_delta_with`].
    ///
    /// # Errors
    ///
    /// As [`Self::apply_delta_with`].
    pub fn apply_delta(&mut self, batch: &DeltaBatch) -> Result<DeltaReport, NetError> {
        self.apply_delta_with(batch, &ParallelConfig::serial())
    }

    /// Propagates a `G`-edge delta batch through every stored table
    /// incrementally: the communication CSR patches via
    /// [`CommGraph::apply_delta_with`], support trees rebuild **only** for
    /// dirty clusters (those whose intra-cluster edges changed — an
    /// inter-cluster change cannot alter a subset BFS because a sorted CSR
    /// row's intra-cluster subsequence is unchanged), the multiplicity
    /// column merges linearly with the effective change, and the `H`
    /// adjacency re-merges only touched rows. The
    /// result is byte-identical ([`PartialEq`]) to
    /// [`Self::build_with`] on the mutated edge set at any thread count.
    ///
    /// The dirty-cluster repair is one serial walk, ascending by cluster
    /// id. Clusters are disjoint machine sets, so each rebuild reads only
    /// the patched CSR and writes only its own cluster's tree: no repair
    /// can disturb another, and no conflict-free schedule is needed.
    ///
    /// The whole update is compute-then-commit: on error (invalid batch,
    /// or a delete disconnecting a cluster) the graph is left unchanged.
    ///
    /// # Errors
    ///
    /// [`NetError::MachineOutOfRange`] if the batch names a machine the
    /// graph does not have; [`NetError::DisconnectedCluster`] (smallest
    /// failing cluster id, matching the full build) if a deletion
    /// disconnects a cluster's induced subgraph.
    pub fn apply_delta_with(
        &mut self,
        batch: &DeltaBatch,
        par: &ParallelConfig,
    ) -> Result<DeltaReport, NetError> {
        // Stage 1: patch G. Nothing mutates until every fallible step has
        // succeeded.
        let (new_comm, effect) = self.comm.with_delta_with(batch, par)?;
        if effect.is_noop() {
            return Ok(DeltaReport {
                effect,
                ..Default::default()
            });
        }
        let assignment = &self.assignment;
        // Partition the effective change intra/inter by the (unchanged)
        // assignment; both lists stay sorted by canonical machine pair.
        let mut dirty: Vec<VertexId> = Vec::new();
        let mut inter_ins: Vec<(MachineId, MachineId)> = Vec::new();
        let mut inter_del: Vec<(MachineId, MachineId)> = Vec::new();
        for &(a, b) in &effect.inserted {
            if assignment[a] == assignment[b] {
                dirty.push(assignment[a]);
            } else {
                inter_ins.push((a, b));
            }
        }
        for &(a, b) in &effect.deleted {
            if assignment[a] == assignment[b] {
                dirty.push(assignment[a]);
            } else {
                inter_del.push((a, b));
            }
        }
        dirty.sort_unstable();
        dirty.dedup();
        // Stage 2: support-tree repair for dirty clusters only. The walk
        // goes ascending, so the first disconnection (smallest cluster id)
        // is reported — exactly the full build's error, since an unchanged
        // cluster cannot newly fail.
        let rebuilt = self.repair_dirty(&new_comm, &dirty)?;
        // Stage 3: per-H-edge multiplicity deltas (net-zero entries drop).
        let mut pair_delta: Vec<((VertexId, VertexId), i64)> =
            Vec::with_capacity(inter_ins.len() + inter_del.len());
        for &(a, b) in &inter_ins {
            let (ca, cb) = (assignment[a], assignment[b]);
            pair_delta.push(((ca.min(cb), ca.max(cb)), 1));
        }
        for &(a, b) in &inter_del {
            let (ca, cb) = (assignment[a], assignment[b]);
            pair_delta.push(((ca.min(cb), ca.max(cb)), -1));
        }
        pair_delta.sort_unstable_by_key(|&(p, _)| p);
        let mut agg: Vec<((VertexId, VertexId), i64)> = Vec::with_capacity(pair_delta.len());
        for (p, d) in pair_delta {
            match agg.last_mut() {
                Some((last, sum)) if *last == p => *sum += d,
                _ => agg.push((p, d)),
            }
        }
        agg.retain(|&(_, d)| d != 0);
        // Stage 4: merge the sorted H-edges and their multiplicities with
        // the deltas, recording which H-edges appeared (multiplicity
        // 0 → >0) and vanished (→ 0), and the new lower endpoint of each
        // surviving edge for the row numbering.
        let mut h_inserted: Vec<(VertexId, VertexId)> = Vec::new();
        let mut h_removed: Vec<(VertexId, VertexId)> = Vec::new();
        let mut h_mult_changed = 0usize;
        let mut edge_mult = Vec::with_capacity(self.edge_mult.len() + agg.len());
        let mut lower = Vec::with_capacity(self.edge_mult.len() + agg.len());
        {
            let mut pi = 0usize;
            for (e, &m) in self.h_edges().zip(&self.edge_mult) {
                while pi < agg.len() && agg[pi].0 < e {
                    let (p, d) = agg[pi];
                    debug_assert!(d > 0, "negative multiplicity delta on absent H-edge");
                    lower.push(p.0);
                    edge_mult.push(d as u32);
                    h_inserted.push(p);
                    pi += 1;
                }
                let m = i64::from(m);
                if pi < agg.len() && agg[pi].0 == e {
                    let m2 = m + agg[pi].1;
                    pi += 1;
                    debug_assert!(m2 >= 0, "multiplicity underflow");
                    if m2 == 0 {
                        h_removed.push(e);
                        continue;
                    }
                    h_mult_changed += 1;
                    lower.push(e.0);
                    edge_mult.push(m2 as u32);
                } else {
                    lower.push(e.0);
                    edge_mult.push(m as u32);
                }
            }
            for &(p, d) in &agg[pi..] {
                debug_assert!(d > 0, "negative multiplicity delta on absent H-edge");
                lower.push(p.0);
                edge_mult.push(d as u32);
                h_inserted.push(p);
            }
        }
        // Stage 5: CSR patches and recomputed scalars, then commit.
        let k = self.n_vertices();
        let edge_offsets = row_offsets(k, lower.into_iter());
        let (h_offsets, h_adj) =
            patch_csr_rows(&self.h_offsets, &self.h_adj, &h_inserted, &h_removed, par);
        self.comm = new_comm;
        for (c, tree) in rebuilt {
            let range = self.member_offsets[c]..self.member_offsets[c + 1];
            self.parents[range].copy_from_slice(&tree.parents);
            self.heights[c] = tree.height;
        }
        self.edge_mult = edge_mult;
        self.edge_offsets = edge_offsets;
        self.h_offsets = h_offsets;
        self.h_adj = h_adj;
        self.dilation = self.heights.iter().copied().max().unwrap_or(0).max(1);
        self.max_degree = (0..k).map(|v| self.degree(v)).max().unwrap_or(0);
        Ok(DeltaReport {
            effect,
            dirty_clusters: dirty,
            h_inserted,
            h_removed,
            h_mult_changed,
        })
    }

    /// Stage 2: repairs each dirty cluster's support tree against the
    /// patched communication graph, ascending by cluster id, returning the
    /// rebuilt trees or the **first** disconnection.
    fn repair_dirty(
        &self,
        new_comm: &CommGraph,
        dirty: &[VertexId],
    ) -> Result<Vec<(VertexId, BuiltTree)>, NetError> {
        let mut rebuilt: Vec<(VertexId, BuiltTree)> = Vec::with_capacity(dirty.len());
        let mut in_subset = vec![false; new_comm.n_machines()];
        let mut scratch = BfsScratch::new();
        for &c in dirty {
            match build_tree(
                new_comm,
                self.support(c).machines,
                &mut in_subset,
                &mut scratch,
            ) {
                Some(t) => rebuilt.push((c, t)),
                None => return Err(NetError::DisconnectedCluster { cluster: c }),
            }
        }
        Ok(rebuilt)
    }

    /// The CONGEST special case: every machine is its own cluster
    /// (`H = G`, dilation 1).
    ///
    /// # Panics
    ///
    /// Panics only if the graph is empty, which [`CommGraph`] forbids.
    pub fn singletons(comm: CommGraph) -> Self {
        let n = comm.n_machines();
        Self::build(comm, (0..n).collect()).expect("singleton clusters are always connected")
    }

    /// The underlying communication network.
    #[inline]
    pub fn comm(&self) -> &CommGraph {
        &self.comm
    }

    /// Heap footprint in bytes of the built instance: every allocation
    /// the graph owns — the communication network, the assignment, the
    /// flat support trees, the `H` adjacency and the per-edge tables —
    /// counted as element counts × element sizes. That is exactly what a
    /// [`Clone`] allocates (capacity slack and allocator overhead are
    /// ignored, so the figure is deterministic for a given instance). This
    /// is the weight a graph cache's byte budget charges per entry.
    pub fn approx_heap_bytes(&self) -> usize {
        use std::mem::size_of_val;
        self.comm.approx_heap_bytes()
            + size_of_val(&self.assignment[..])
            + size_of_val(&self.member_offsets[..])
            + size_of_val(&self.members[..])
            + size_of_val(&self.parents[..])
            + size_of_val(&self.heights[..])
            + size_of_val(&self.h_offsets[..])
            + size_of_val(&self.h_adj[..])
            + size_of_val(&self.edge_offsets[..])
            + size_of_val(&self.edge_mult[..])
    }

    /// Number of nodes of `H`.
    #[inline]
    pub fn n_vertices(&self) -> usize {
        self.heights.len()
    }

    /// Number of machines of `G`.
    #[inline]
    pub fn n_machines(&self) -> usize {
        self.comm.n_machines()
    }

    /// The cluster id of a machine.
    #[inline]
    pub fn cluster_of(&self, m: MachineId) -> VertexId {
        self.assignment[m]
    }

    /// The full machine→cluster assignment — what a from-scratch rebuild
    /// of a mutated instance needs alongside the mutated edge set.
    #[inline]
    pub fn assignment(&self) -> &[VertexId] {
        &self.assignment
    }

    /// The support tree of vertex `v`.
    #[inline]
    pub fn support(&self, v: VertexId) -> SupportTree<'_> {
        let range = self.member_offsets[v]..self.member_offsets[v + 1];
        SupportTree {
            machines: &self.members[range.clone()],
            parents: &self.parents[range],
            height: self.heights[v],
        }
    }

    /// Maximum support-tree height over all clusters (the paper's `d`,
    /// up to the constant factor between height and diameter), minimum 1.
    #[inline]
    pub fn dilation(&self) -> usize {
        self.dilation
    }

    /// Deduplicated neighbors of `v` in `H`, sorted.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        &self.h_adj[self.h_offsets[v]..self.h_offsets[v + 1]]
    }

    /// The neighbors of `v` above `v`, sorted: the tail of its CSR row,
    /// holding `H`-edges `edge_offsets[v]..edge_offsets[v + 1]`.
    #[inline]
    pub fn upper_neighbors(&self, v: VertexId) -> &[VertexId] {
        let end = self.h_offsets[v + 1];
        &self.h_adj[end - (self.edge_offsets[v + 1] - self.edge_offsets[v])..end]
    }

    /// Degree of `v` in `H` (distinct neighboring clusters).
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.h_offsets[v + 1] - self.h_offsets[v]
    }

    /// Maximum degree `Δ` of `H`.
    #[inline]
    pub fn max_degree(&self) -> usize {
        self.max_degree
    }

    /// Whether `{u, v}` is an edge of `H`.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        u != v && self.neighbors(u).binary_search(&v).is_ok()
    }

    /// The number of the `H`-edge `{u, v}` in [`Self::h_edges`] order,
    /// in either orientation; `None` when `u == v`, an endpoint is out of
    /// range or the two are not adjacent.
    ///
    /// Resolved by a binary search over the upper half of the lower
    /// endpoint's CSR row — `O(log deg)` with no pointer chasing.
    pub fn edge_index(&self, u: VertexId, v: VertexId) -> Option<usize> {
        // Out-of-range ids are simply non-edges, never an index panic;
        // only the larger id needs checking.
        if u == v || u.max(v) >= self.n_vertices() {
            return None;
        }
        let (lo, hi) = (u.min(v), u.max(v));
        let i = self.upper_neighbors(lo).binary_search(&hi).ok()?;
        Some(self.edge_offsets[lo] + i)
    }

    /// Number of parallel `G`-links realizing the `H`-edge `{u, v}`
    /// (0 when not adjacent). Figure 1's multi-link phenomenon.
    pub fn link_multiplicity(&self, u: VertexId, v: VertexId) -> usize {
        self.edge_index(u, v)
            .map_or(0, |e| self.edge_mult[e] as usize)
    }

    /// Connected components of the subgraph of `H` on the vertices
    /// `keep_vertex` accepts and the edges `keep_edge(u, w)` accepts
    /// (asked from whichever endpoint the search reaches first, so it
    /// must be symmetric). Members ascend, components are ordered by
    /// their smallest member, and a kept vertex with no kept edge is a
    /// singleton. One search over the CSR rows: the growing member list
    /// is its own queue.
    pub fn components(
        &self,
        keep_vertex: impl Fn(VertexId) -> bool,
        keep_edge: impl Fn(VertexId, VertexId) -> bool,
    ) -> Vec<Vec<VertexId>> {
        let mut seen = vec![false; self.n_vertices()];
        let mut out = Vec::new();
        for s in 0..self.n_vertices() {
            if seen[s] || !keep_vertex(s) {
                continue;
            }
            seen[s] = true;
            let mut members = vec![s];
            let mut next = 0;
            while let Some(&u) = members.get(next) {
                next += 1;
                for &w in self.neighbors(u) {
                    if !seen[w] && keep_vertex(w) && keep_edge(u, w) {
                        seen[w] = true;
                        members.push(w);
                    }
                }
            }
            members.sort_unstable();
            out.push(members);
        }
        out
    }

    /// Number of inter-cluster links incident to cluster `v` — the naive
    /// "degree" a cluster would compute by counting links (§1.1), which can
    /// grossly overestimate [`Self::degree`]. Read off the communication
    /// rows of `v`'s machines.
    pub fn incident_links(&self, v: VertexId) -> usize {
        self.support(v)
            .machines
            .iter()
            .map(|&m| {
                let row = self.comm.neighbors(m);
                row.iter().filter(|&&w| self.assignment[w] != v).count()
            })
            .sum()
    }

    /// All inter-cluster links `(machine_u, machine_v, cluster_u,
    /// cluster_v)` with `cluster_u < cluster_v`, in the order of the
    /// canonical machine pairs — read off the communication CSR.
    pub fn links(&self) -> impl Iterator<Item = (MachineId, MachineId, VertexId, VertexId)> + '_ {
        self.comm.edges().filter_map(|(a, b)| {
            let (ca, cb) = (self.assignment[a], self.assignment[b]);
            match ca.cmp(&cb) {
                std::cmp::Ordering::Less => Some((a, b, ca, cb)),
                std::cmp::Ordering::Greater => Some((b, a, cb, ca)),
                std::cmp::Ordering::Equal => None,
            }
        })
    }

    /// Number of inter-cluster links: the sum of the `H`-edge
    /// multiplicities.
    pub fn n_links(&self) -> usize {
        self.edge_mult.iter().map(|&m| m as usize).sum()
    }

    /// Iterates over the deduplicated edges of `H` with `u < v`, in
    /// lexicographic order (edge number order) — the upper halves of the
    /// CSR rows.
    pub fn h_edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.h_edges_in(0..self.n_h_edges())
    }

    /// The `H`-edges numbered `range`, in order (see [`Self::h_edges`]):
    /// the walk starts at the row holding edge `range.start`, so a shard
    /// of edge numbers costs its own length.
    pub fn h_edges_in(
        &self,
        range: std::ops::Range<usize>,
    ) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        let first = self.edge_offsets.partition_point(|&o| o <= range.start) - 1;
        let skip = range.start - self.edge_offsets[first];
        (first..self.n_vertices())
            .flat_map(move |u| self.upper_neighbors(u).iter().map(move |&v| (u, v)))
            .skip(skip)
            .take(range.len())
    }

    /// Multiplicity per `H`-edge, in [`Self::h_edges`] order.
    #[inline]
    pub fn h_edge_multiplicities(&self) -> &[u32] {
        &self.edge_mult
    }

    /// The deduplicated CSR adjacency of `H`: `(offsets, targets)` with
    /// the neighbors of `v` at `targets[offsets[v]..offsets[v + 1]]`,
    /// sorted. The sharded row walks of [`crate::ClusterNet`] read it.
    #[inline]
    pub fn adjacency_csr(&self) -> (&[usize], &[VertexId]) {
        (&self.h_offsets, &self.h_adj)
    }

    /// Number of edges of `H`.
    pub fn n_h_edges(&self) -> usize {
        self.edge_mult.len()
    }

    /// Plans executor shards over the vertices of `H` under `cfg` —
    /// [`ShardPlan::from_prefix`] over the deduplicated `H`-adjacency, so
    /// shards cut by degree mass. A pure function of `(topology, cfg)`,
    /// reproducible across runs.
    pub fn shard_plan(&self, cfg: &ParallelConfig) -> ShardPlan {
        ShardPlan::from_prefix(&self.h_offsets, cfg.threads())
    }
}

/// Row offsets for `k` rows from the row of each entry, in row order.
fn row_offsets(k: usize, rows: impl Iterator<Item = usize>) -> Vec<usize> {
    let mut offsets = vec![0usize; k + 1];
    for r in rows {
        offsets[r + 1] += 1;
    }
    for i in 0..k {
        offsets[i + 1] += offsets[i];
    }
    offsets
}

/// One cluster's tree parents, positionally parallel with its members,
/// and its height.
#[derive(Debug, Clone)]
struct BuiltTree {
    parents: Vec<MachineId>,
    height: usize,
}

/// BFS from the smallest of `machines` (sorted ascending) inside them:
/// the tree, or `None` when they do not induce a connected subgraph.
/// `in_subset` and `scratch` are caller-owned reusable buffers, touched
/// only at `machines` and left clean on return, so a cluster costs
/// `O(size + internal edges)` instead of `O(n_machines)`.
fn build_tree(
    comm: &CommGraph,
    machines: &[MachineId],
    in_subset: &mut [bool],
    scratch: &mut BfsScratch,
) -> Option<BuiltTree> {
    for &m in machines {
        in_subset[m] = true;
    }
    let leader = machines[0];
    comm.bfs_tree_within_scratch(leader, in_subset, scratch);
    let mut parents = Vec::with_capacity(machines.len());
    let mut height = 0usize;
    let mut ok = true;
    for &m in machines {
        if scratch.depth(m) == usize::MAX {
            ok = false;
            break;
        }
        parents.push(scratch.parent(m).unwrap_or(leader));
        height = height.max(scratch.depth(m));
    }
    // Reset only this cluster's entries (the BFS touched no others).
    scratch.reset(machines);
    for &m in machines {
        in_subset[m] = false;
    }
    ok.then_some(BuiltTree { parents, height })
}

/// Builds the support trees of clusters `range` — one shard of the tree
/// phase: their parents (concatenated in member order) and heights. The
/// worker owns its subset mask and [`BfsScratch`]. Stops at the first
/// failing cluster, which — with shards merged in ascending cluster
/// order — reproduces the sequential error exactly.
fn build_support_trees(
    comm: &CommGraph,
    member_offsets: &[usize],
    member_ids: &[MachineId],
    range: std::ops::Range<usize>,
) -> Result<(Vec<MachineId>, Vec<usize>), NetError> {
    let mut in_subset = vec![false; comm.n_machines()];
    let mut scratch = BfsScratch::new();
    let mut parents = Vec::with_capacity(member_offsets[range.end] - member_offsets[range.start]);
    let mut heights = Vec::with_capacity(range.len());
    for c in range {
        let ms = &member_ids[member_offsets[c]..member_offsets[c + 1]];
        let disconnected = NetError::DisconnectedCluster { cluster: c };
        if ms.is_empty() {
            return Err(disconnected);
        }
        let tree = build_tree(comm, ms, &mut in_subset, &mut scratch).ok_or(disconnected)?;
        parents.extend(tree.parents);
        heights.push(tree.height);
    }
    Ok((parents, heights))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Figure-1-like instance: two clusters joined by 3 parallel links.
    fn multi_link_instance() -> ClusterGraph {
        // Machines 0,1,2 form cluster 0 (triangle); 3,4,5 cluster 1 (path).
        // Links (0,3), (1,4), (2,5) all join the same pair of clusters.
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
    fn multi_links_collapse_to_one_h_edge() {
        let h = multi_link_instance();
        assert_eq!(h.n_vertices(), 2);
        assert_eq!(h.degree(0), 1);
        assert_eq!(h.degree(1), 1);
        assert_eq!(h.link_multiplicity(0, 1), 3);
        assert_eq!(h.incident_links(0), 3);
        assert!(h.has_edge(0, 1));
        assert_eq!(h.n_h_edges(), 1);
    }

    #[test]
    fn singleton_clusters_reproduce_congest() {
        let comm = CommGraph::complete(5);
        let h = ClusterGraph::singletons(comm);
        assert_eq!(h.n_vertices(), 5);
        assert_eq!(h.max_degree(), 4);
        assert_eq!(h.dilation(), 1);
        for v in 0..5 {
            assert_eq!(h.degree(v), 4);
            assert_eq!(h.incident_links(v), 4);
        }
    }

    #[test]
    fn disconnected_cluster_rejected() {
        let comm = CommGraph::path(4);
        // Machines 0 and 3 are not connected within cluster 0.
        let r = ClusterGraph::build(comm, vec![0, 1, 1, 0]);
        assert!(matches!(
            r,
            Err(NetError::DisconnectedCluster { cluster: 0 })
        ));
    }

    #[test]
    fn assignment_length_checked() {
        let comm = CommGraph::path(4);
        let r = ClusterGraph::build(comm, vec![0, 0, 0]);
        assert!(matches!(
            r,
            Err(NetError::AssignmentLength {
                expected: 4,
                actual: 3
            })
        ));
    }

    #[test]
    fn support_tree_shape_on_path_cluster() {
        // One cluster spanning a path of 5 machines: height 4, leader 0.
        let comm = CommGraph::path(5);
        let h = ClusterGraph::build(comm, vec![0; 5]).unwrap();
        let t = h.support(0);
        assert_eq!(t.leader(), 0);
        assert_eq!(
            (t.parent(0), t.parent(1), t.parent(4)),
            (None, Some(0), Some(3))
        );
        assert_eq!(t.size(), 5);
        assert_eq!(t.height, 4);
        assert_eq!(h.dilation(), 4);
        assert_eq!(t.n_edges(), 4);
        assert_eq!(h.n_vertices(), 1);
        assert_eq!(h.max_degree(), 0);
    }

    #[test]
    fn dilation_is_at_least_one_for_singletons() {
        let comm = CommGraph::path(3);
        let h = ClusterGraph::singletons(comm);
        assert_eq!(h.dilation(), 1);
    }

    #[test]
    fn components_filter_vertices_and_edges() {
        let comm = CommGraph::from_edges(7, [(0, 5), (5, 2), (2, 6), (1, 3), (3, 6)]).unwrap();
        let h = ClusterGraph::singletons(comm);
        // Vertex 6 and the edge {1, 3} are filtered out: 0-5-2 stays
        // joined (members ascending), 1 and 3 fall apart, and the
        // isolated 4 is a singleton.
        let comps = h.components(|v| v != 6, |u, w| (u.min(w), u.max(w)) != (1, 3));
        assert_eq!(comps, vec![vec![0, 2, 5], vec![1], vec![3], vec![4]]);
    }

    #[test]
    fn neighbors_sorted_and_deduped() {
        let h = multi_link_instance();
        assert_eq!(h.neighbors(0), &[1]);
        assert_eq!(h.neighbors(1), &[0]);
        let edges: Vec<_> = h.h_edges().collect();
        assert_eq!(edges, vec![(0, 1)]);
    }
}
