//! Conflict-graph specifications and cluster layouts.
//!
//! [`HSpec`] describes the graph to be colored; [`realize`] embeds it over
//! a communication network by expanding every node into a cluster of
//! machines with a chosen internal topology and wiring each `H`-edge with
//! one or more `G`-links between randomly chosen machines of the two
//! clusters. Multi-links per edge reproduce the Figure 1 phenomenon; long
//! path clusters reproduce the Figure 2/3 bottleneck shapes and stretch
//! the dilation `d` for experiment E11.

use crate::pipeline::{assemble, ShardedEdgeSource};
use cgc_cluster::{ClusterGraph, ParallelConfig};
use cgc_net::{map_reduce_on, SeedStream, ShardPlan};
use rand::RngExt;

/// A conflict-graph specification: the graph `H` to be colored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HSpec {
    /// Number of nodes.
    pub n: usize,
    /// Undirected edges (deduplicated on construction).
    pub edges: Vec<(usize, usize)>,
}

impl HSpec {
    /// Builds a spec, normalizing and deduplicating edges.
    ///
    /// # Panics
    ///
    /// Panics on self-loops or out-of-range endpoints.
    pub fn new(n: usize, edges: Vec<(usize, usize)>) -> Self {
        let mut canon: Vec<(usize, usize)> = edges
            .into_iter()
            .map(|(u, v)| {
                assert!(u != v, "self-loop {u}");
                assert!(u < n && v < n, "edge ({u},{v}) out of range for n={n}");
                (u.min(v), u.max(v))
            })
            .collect();
        canon.sort_unstable();
        canon.dedup();
        HSpec { n, edges: canon }
    }

    /// Maximum degree of the spec.
    pub fn max_degree(&self) -> usize {
        let mut deg = vec![0usize; self.n];
        for &(u, v) in &self.edges {
            deg[u] += 1;
            deg[v] += 1;
        }
        deg.into_iter().max().unwrap_or(0)
    }
}

/// Internal topology of each cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// One machine per cluster (`H = G`, the CONGEST model).
    Singleton,
    /// A path of `m` machines (dilation ≈ m).
    Path(usize),
    /// A star: 1 center + `m − 1` leaves (dilation 1–2).
    Star(usize),
    /// A balanced binary tree with `m` machines.
    BinaryTree(usize),
}

impl Layout {
    /// Machines per cluster under this layout.
    pub fn cluster_size(&self) -> usize {
        match *self {
            Layout::Singleton => 1,
            Layout::Path(m) | Layout::Star(m) | Layout::BinaryTree(m) => m.max(1),
        }
    }
}

impl std::fmt::Display for Layout {
    /// Compact form used inside workload spec strings: `single`, `path8`,
    /// `star4`, `tree15`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Layout::Singleton => write!(f, "single"),
            Layout::Path(m) => write!(f, "path{m}"),
            Layout::Star(m) => write!(f, "star{m}"),
            Layout::BinaryTree(m) => write!(f, "tree{m}"),
        }
    }
}

impl std::str::FromStr for Layout {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s == "single" {
            return Ok(Layout::Singleton);
        }
        let (ctor, digits): (fn(usize) -> Layout, &str) = if let Some(d) = s.strip_prefix("path") {
            (Layout::Path, d)
        } else if let Some(d) = s.strip_prefix("star") {
            (Layout::Star, d)
        } else if let Some(d) = s.strip_prefix("tree") {
            (Layout::BinaryTree, d)
        } else {
            return Err(format!("unknown layout `{s}`"));
        };
        let m: usize = digits
            .parse()
            .map_err(|_| format!("bad cluster size in layout `{s}`"))?;
        if m < 2 {
            return Err(format!("layout `{s}` needs at least 2 machines"));
        }
        Ok(ctor(m))
    }
}

/// Realizes a spec over a communication network, sequentially — the one
/// call from an [`HSpec`] to a [`ClusterGraph`].
///
/// Every `H`-edge is wired with `links_per_edge` distinct `G`-links whose
/// endpoint machines are chosen uniformly inside each cluster (so parallel
/// links and awkward attachment points occur naturally).
///
/// # Panics
///
/// Panics if `links_per_edge == 0` or the spec is empty.
pub fn realize(h: &HSpec, layout: Layout, links_per_edge: usize, seed: u64) -> ClusterGraph {
    let par = ParallelConfig::serial();
    let (n_machines, runs, assignment) = realize_runs(h, layout, links_per_edge, seed, &par);
    assemble(n_machines, &runs, assignment, &par).0
}

/// The raw generation half of [`realize`]: the machine count, the
/// per-shard machine-edge runs (intra-cluster wiring sharded by cluster
/// rows, plus inter-cluster link runs sharded by `H`-edge ranges) and the
/// machine→cluster assignment — handed straight to
/// [`cgc_net::CommGraph::from_edge_runs_with`] without concatenating into
/// one edge `Vec`. The logical edge sequence is a pure function of
/// `(spec, layout, links, seed)`, never of the thread count.
///
/// # Panics
///
/// Panics if `links_per_edge == 0` or the spec is empty.
pub fn realize_runs(
    h: &HSpec,
    layout: Layout,
    links_per_edge: usize,
    seed: u64,
    par: &ParallelConfig,
) -> (usize, ShardedEdgeSource, Vec<usize>) {
    assert!(links_per_edge > 0, "need at least one link per edge");
    assert!(h.n > 0, "empty spec");
    let m = layout.cluster_size();
    let n_machines = h.n * m;
    // Intra-cluster wiring: cluster c's machines are a pure function of
    // (c, layout), so the wiring shards by cluster rows.
    let mut runs = ShardedEdgeSource::from_rows(h.n, par, move |c, out| {
        let base = c * m;
        match layout {
            Layout::Singleton => {}
            Layout::Path(_) => {
                for j in 0..(m - 1) {
                    out.push((base + j, base + j + 1));
                }
            }
            Layout::Star(_) => {
                for j in 1..m {
                    out.push((base, base + j));
                }
            }
            Layout::BinaryTree(_) => {
                for j in 1..m {
                    out.push((base + (j - 1) / 2, base + j));
                }
            }
        }
    });
    // Inter-cluster links: every H-edge places its links_per_edge links
    // from its own seed substream, keyed by the edge's index in canonical
    // order — this was the last single-RNG serial sweep of the realize
    // pipeline, and per-edge streams let it shard by contiguous H-edge
    // ranges. Runs stay in ascending edge order, so the logical link
    // sequence is unchanged at every thread count.
    let link_seeds = SeedStream::new(seed).child(0xEDCE);
    let plan = ShardPlan::even(h.edges.len(), par.threads());
    let edges = &h.edges;
    let link_runs = map_reduce_on(
        &plan,
        |range| {
            let mut links: Vec<(usize, usize)> = Vec::with_capacity(range.len() * links_per_edge);
            for e in range {
                let (u, v) = edges[e];
                let mut rng = link_seeds.rng_for(e as u64, 0);
                for _ in 0..links_per_edge {
                    let mu = u * m + rng.random_range(0..m);
                    let mv = v * m + rng.random_range(0..m);
                    links.push((mu, mv));
                }
            }
            vec![links]
        },
        |acc: &mut Vec<Vec<(usize, usize)>>, part| acc.extend(part),
    );
    for run in link_runs {
        runs.push_run(run);
    }
    let assignment: Vec<usize> = (0..n_machines).map(|i| i / m).collect();
    (n_machines, runs, assignment)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> HSpec {
        HSpec::new(3, vec![(0, 1), (1, 2), (0, 2)])
    }

    #[test]
    fn spec_normalizes_edges() {
        let h = HSpec::new(3, vec![(1, 0), (0, 1), (2, 1)]);
        assert_eq!(h.edges, vec![(0, 1), (1, 2)]);
        assert_eq!(h.max_degree(), 2);
    }

    #[test]
    fn singleton_layout_reproduces_spec() {
        let g = realize(&triangle(), Layout::Singleton, 1, 1);
        assert_eq!(g.n_vertices(), 3);
        assert_eq!(g.n_machines(), 3);
        assert_eq!(g.dilation(), 1);
        assert!(g.has_edge(0, 1) && g.has_edge(1, 2) && g.has_edge(0, 2));
    }

    #[test]
    fn path_layout_stretches_dilation() {
        let g = realize(&triangle(), Layout::Path(8), 1, 2);
        assert_eq!(g.n_vertices(), 3);
        assert_eq!(g.n_machines(), 24);
        assert!(g.dilation() >= 4, "dilation {}", g.dilation());
        assert!(g.has_edge(0, 1));
    }

    #[test]
    fn star_layout_keeps_dilation_small() {
        let g = realize(&triangle(), Layout::Star(9), 1, 3);
        assert_eq!(g.dilation(), 1);
        assert_eq!(g.n_machines(), 27);
    }

    #[test]
    fn binary_tree_layout_is_logarithmic() {
        let g = realize(&triangle(), Layout::BinaryTree(15), 1, 4);
        assert!(g.dilation() <= 4, "dilation {}", g.dilation());
    }

    #[test]
    fn multi_links_realized() {
        let g = realize(&triangle(), Layout::Star(6), 4, 5);
        // Multiplicity can collapse when the same machine pair is drawn
        // twice, but with 36 machine pairs that is unlikely for all 4.
        assert!(g.link_multiplicity(0, 1) >= 2);
        assert_eq!(g.degree(0), 2, "H-degree unaffected by multiplicity");
    }

    #[test]
    fn edge_preservation_over_all_layouts() {
        for layout in [
            Layout::Singleton,
            Layout::Path(4),
            Layout::Star(4),
            Layout::BinaryTree(4),
        ] {
            let g = realize(&triangle(), layout, 2, 9);
            for &(u, v) in &triangle().edges {
                assert!(g.has_edge(u, v), "missing edge ({u},{v}) under {layout:?}");
            }
            assert_eq!(g.n_h_edges(), 3);
        }
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_rejected() {
        HSpec::new(2, vec![(1, 1)]);
    }
}
