//! Coloring as a scheduler: the computed coloring, materialized as a
//! conflict-free execution schedule.
//!
//! A proper coloring of `H` is exactly a partition of the clusters into
//! classes that share no `H`-edge — and two clusters share an `H`-edge iff
//! any of their machines are linked in `G`. So within one color class,
//! per-cluster state updates touch provably disjoint neighborhoods: the
//! class can run shard-parallel with read-only access to everything
//! outside it, no locks, no atomics. [`ColorSchedule`] materializes a
//! session's coloring into that form (a class-indexed CSR over `H`'s
//! vertices, built shard-parallel) and **asserts** the pairwise
//! disjointness invariant at build time, so its consumer inherits a
//! checked precondition instead of an assumed one.
//!
//! That consumer is the `contracted_flow_network` example, whose
//! per-cluster label relaxations read neighbours' slots while other
//! clusters write theirs. The write paths need no schedule. Clusters are
//! disjoint machine sets, so a dirty cluster's support-tree repair in
//! [`ClusterGraph::apply_delta_with`](cgc_cluster::ClusterGraph::apply_delta_with)
//! reads only the patched CSR and writes only its own tree. The recolor
//! sweep of [`crate::Session::apply_deltas`] writes only per-item
//! candidate slots before a serial commit, and forms its waves from the
//! previous coloring with one stable sort ([`crate::mutate`]).
//!
//! The wave order and the per-wave dispatch live one layer down in
//! [`cgc_cluster::WaveSchedule`] / [`cgc_cluster::run_waves`]; this module
//! binds them to a concrete `(graph, coloring)` pair.

use crate::coloring::Coloring;
use cgc_cluster::{
    map_reduce_on, ClusterGraph, ParallelConfig, ShardPlan, WaveSchedule, WorkerPool,
};

/// A proper coloring of `H`, indexed for execution: class `c` holds the
/// vertices colored `c`, ascending, and the classes run as waves.
///
/// Build-time invariants (asserted, not assumed):
///
/// * the coloring is **total** and sized to the graph;
/// * every `H`-edge joins two distinct classes (properness — i.e. the
///   classes are pairwise independent sets, the property that makes a
///   wave conflict-free).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColorSchedule {
    waves: WaveSchedule,
    q: usize,
}

impl ColorSchedule {
    /// Materializes `coloring` into a schedule over `graph`'s vertices,
    /// shard-parallel under `par` (the class CSR is a counting sort, the
    /// disjointness check a sharded edge scan — both deterministic).
    ///
    /// # Panics
    ///
    /// Panics when the coloring is not total, is sized to a different
    /// vertex count, or colors some `H`-edge monochromatically.
    pub fn build(graph: &ClusterGraph, coloring: &Coloring, par: &ParallelConfig) -> Self {
        let n = graph.n_vertices();
        assert_eq!(
            coloring.len(),
            n,
            "schedule needs a coloring of this graph's vertices"
        );
        let class_of: Vec<usize> = (0..n)
            .map(|v| {
                coloring
                    .get(v)
                    .expect("schedule needs a total coloring (run the session first)")
            })
            .collect();
        let waves = WaveSchedule::from_class_ids(&class_of, coloring.q(), par);
        let schedule = ColorSchedule {
            waves,
            q: coloring.q(),
        };
        assert!(
            schedule.verify_disjoint(graph, par),
            "schedule classes must be pairwise H-disjoint (improper coloring?)"
        );
        schedule
    }

    /// Whether every `H`-edge joins two distinct classes — the invariant
    /// that makes one wave safe to run in parallel. Sharded over the edge
    /// table under `par`; public so consumers (the example, the property
    /// suite) can re-check after further mutations.
    pub fn verify_disjoint(&self, graph: &ClusterGraph, par: &ParallelConfig) -> bool {
        if graph.n_vertices() != self.waves.n_items() {
            return false;
        }
        let m = graph.n_h_edges();
        let plan = ShardPlan::even(m, par.threads());
        let pool = WorkerPool::global(par.threads());
        map_reduce_on(
            &plan,
            pool.as_deref(),
            |range| {
                graph
                    .h_edges_in(range)
                    .all(|(u, v)| self.waves.wave_of(u) != self.waves.wave_of(v))
            },
            |acc, part| *acc &= part,
        )
    }

    /// Number of color classes (`q = Δ' + 1`), including empty ones.
    #[inline]
    pub fn n_classes(&self) -> usize {
        self.q
    }

    /// The vertices of class `c`, ascending.
    #[inline]
    pub fn class(&self, c: usize) -> &[usize] {
        self.waves.wave(c)
    }

    /// The class (wave) of vertex `v`.
    #[inline]
    pub fn class_of(&self, v: usize) -> usize {
        self.waves.wave_of(v)
    }

    /// Vertices in the fullest class.
    #[inline]
    pub fn largest_class(&self) -> usize {
        self.waves.largest_wave()
    }

    /// Per-class sizes (`n_classes` entries; empty classes are 0) — the
    /// wave-occupancy histogram `bench_schedule` records.
    pub fn occupancy(&self) -> Vec<usize> {
        (0..self.q).map(|c| self.class(c).len()).collect()
    }

    /// Classes that actually hold vertices.
    pub fn n_nonempty_classes(&self) -> usize {
        (0..self.q).filter(|&c| !self.class(c).is_empty()).count()
    }

    /// The executor-level schedule (feed its `offsets()`/`items()` to
    /// [`cgc_cluster::run_waves`]).
    #[inline]
    pub fn waves(&self) -> &WaveSchedule {
        &self.waves
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgc_net::CommGraph;

    fn colored_instance() -> (ClusterGraph, Coloring) {
        let comm = CommGraph::from_edges(
            8,
            [
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 6),
                (6, 7),
                (0, 7),
            ],
        )
        .unwrap();
        let g = ClusterGraph::singletons(comm);
        let q = g.max_degree() + 1;
        let mut c = Coloring::new(g.n_vertices(), q);
        for v in 0..g.n_vertices() {
            let used: Vec<usize> = g.neighbors(v).iter().filter_map(|&u| c.get(u)).collect();
            c.set(v, (0..q).find(|col| !used.contains(col)).unwrap());
        }
        (g, c)
    }

    #[test]
    fn classes_partition_vertices_and_are_disjoint() {
        let (g, c) = colored_instance();
        let s = ColorSchedule::build(&g, &c, &ParallelConfig::serial());
        assert!(s.verify_disjoint(&g, &ParallelConfig::serial()));
        assert_eq!(s.n_classes(), c.q());
        let mut seen = vec![false; g.n_vertices()];
        for cls in 0..s.n_classes() {
            for &v in s.class(cls) {
                assert_eq!(s.class_of(v), cls);
                assert_eq!(c.get(v), Some(cls));
                assert!(!seen[v]);
                seen[v] = true;
            }
        }
        assert!(seen.iter().all(|&b| b));
        assert_eq!(s.occupancy().iter().sum::<usize>(), g.n_vertices());
        assert_eq!(s.largest_class(), s.occupancy().into_iter().max().unwrap());
    }

    #[test]
    fn build_is_thread_count_invariant() {
        let (g, c) = colored_instance();
        let serial = ColorSchedule::build(&g, &c, &ParallelConfig::serial());
        for threads in [2usize, 4, 8] {
            let par = ColorSchedule::build(&g, &c, &ParallelConfig::with_threads(threads));
            assert_eq!(par, serial, "threads={threads}");
        }
    }

    #[test]
    #[should_panic(expected = "total coloring")]
    fn partial_coloring_rejected() {
        let (g, mut c) = colored_instance();
        c.clear(3);
        ColorSchedule::build(&g, &c, &ParallelConfig::serial());
    }

    #[test]
    #[should_panic(expected = "pairwise H-disjoint")]
    fn improper_coloring_rejected() {
        let (g, mut c) = colored_instance();
        // Force a monochromatic edge on (0, 1).
        let c0 = c.get(0).unwrap();
        c.clear(1);
        c.set(1, c0);
        ColorSchedule::build(&g, &c, &ParallelConfig::serial());
    }
}
