//! The ε-almost-clique decomposition (Definition 4.2, Proposition 4.3).
//!
//! Pipeline: (1) per-edge buddy predicate via fingerprints (Lemma 5.8);
//! (2) exact buddy-degree per vertex in one deduplicated aggregation;
//! (3) almost-cliques = connected components of the buddy graph restricted
//! to high-buddy-degree vertices ([ACK19, Lemma 4.8]: these have diameter
//! 2, so an `O(1)`-round BFS elects leaders); (4) a *repair pass* enforcing
//! Definition 4.2 exactly — at laptop scale the concentration bounds have
//! real failure probability, and downstream stages rely on the
//! decomposition's structural guarantees, so vertices violating the size
//! or internal-degree conditions are peeled into the sparse set (charged
//! rounds; measured by experiment E10).

use crate::buddy::{buddy_edges, friendly_oracle, BuddyAnswers, BuddyParams};
use cgc_cluster::{ClusterGraph, ClusterNet, VertexId};
use cgc_net::SeedStream;

/// Classification of a vertex by the decomposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// `Ω(ε²Δ)`-sparse vertex.
    Sparse,
    /// Member of the almost-clique with the given index.
    Dense {
        /// Index into [`AlmostCliqueDecomp::cliques`].
        clique: usize,
    },
}

/// An ε-almost-clique decomposition of `H`.
#[derive(Debug, Clone)]
pub struct AlmostCliqueDecomp {
    /// The ε the decomposition was computed for.
    pub epsilon: f64,
    /// Per-vertex classification.
    pub kind: Vec<NodeKind>,
    /// Almost-cliques (sorted member lists).
    pub cliques: Vec<Vec<VertexId>>,
}

impl AlmostCliqueDecomp {
    /// The clique index of `v`, or `None` if sparse.
    pub fn clique_of(&self, v: VertexId) -> Option<usize> {
        match self.kind[v] {
            NodeKind::Sparse => None,
            NodeKind::Dense { clique } => Some(clique),
        }
    }

    /// Whether `v` is classified sparse.
    pub fn is_sparse(&self, v: VertexId) -> bool {
        matches!(self.kind[v], NodeKind::Sparse)
    }

    /// Number of almost-cliques.
    pub fn n_cliques(&self) -> usize {
        self.cliques.len()
    }

    /// Sparse vertices.
    pub fn sparse_vertices(&self) -> Vec<VertexId> {
        (0..self.kind.len())
            .filter(|&v| self.is_sparse(v))
            .collect()
    }

    /// Validates Definition 4.2 exactly against the graph.
    pub fn validate(&self, g: &ClusterGraph) -> AcdQuality {
        let delta = g.max_degree();
        let mut min_size = usize::MAX;
        let mut max_size = 0usize;
        let mut min_internal_frac: f64 = 1.0;
        let mut size_ok = true;
        for k in &self.cliques {
            min_size = min_size.min(k.len());
            max_size = max_size.max(k.len());
            if (k.len() as f64) > (1.0 + self.epsilon) * delta as f64 + 1.0 {
                size_ok = false;
            }
            for &v in k {
                let internal = g
                    .neighbors(v)
                    .iter()
                    .filter(|&&u| k.binary_search(&u).is_ok())
                    .count();
                let frac = internal as f64 / k.len() as f64;
                min_internal_frac = min_internal_frac.min(frac);
            }
        }
        if self.cliques.is_empty() {
            min_size = 0;
        }
        let internal_ok = min_internal_frac >= 1.0 - self.epsilon - 1e-9;
        AcdQuality {
            n_sparse: self.sparse_vertices().len(),
            n_cliques: self.cliques.len(),
            min_clique_size: min_size,
            max_clique_size: max_size,
            min_internal_frac,
            size_ok,
            internal_ok,
        }
    }
}

/// Exact validation summary of a decomposition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AcdQuality {
    /// Number of sparse vertices.
    pub n_sparse: usize,
    /// Number of almost-cliques.
    pub n_cliques: usize,
    /// Smallest almost-clique.
    pub min_clique_size: usize,
    /// Largest almost-clique.
    pub max_clique_size: usize,
    /// `min_{K, v∈K} |N(v) ∩ K| / |K|`.
    pub min_internal_frac: f64,
    /// All cliques within the `(1+ε)Δ` size bound.
    pub size_ok: bool,
    /// All members have `(1−ε)|K|` internal neighbors.
    pub internal_ok: bool,
}

impl AcdQuality {
    /// Whether Definition 4.2's clique conditions hold.
    pub fn is_valid(&self) -> bool {
        self.size_ok && self.internal_ok
    }
}

/// Parameters for the distributed decomposition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AcdParams {
    /// Target ε of Definition 4.2 (must be `< 1/3`).
    pub epsilon: f64,
    /// Buddy predicate knobs (ξ defaults to ε).
    pub buddy: BuddyParams,
    /// Dissolve almost-cliques smaller than `min_clique_frac · Δ` into the
    /// sparse set (protects downstream stages from degenerate fragments).
    pub min_clique_frac: f64,
}

impl Default for AcdParams {
    fn default() -> Self {
        // Laptop-scale margins: the paper's ε = 1/2000 presumes Δ large
        // enough that ξΔ dwarfs fingerprint noise; here ξ = 0.3 with
        // ~1.5k-trial fingerprints keeps the Yes/No gap of Lemma 5.8 wide
        // at Δ in the tens, and the repair pass enforces Definition 4.2
        // exactly regardless.
        AcdParams {
            epsilon: 0.2,
            buddy: BuddyParams {
                xi: 0.3,
                counting: cgc_sketch::CountingParams {
                    xi: 0.1,
                    t_factor: 3.0,
                    min_trials: 1536,
                },
            },
            min_clique_frac: 0.55,
        }
    }
}

/// Enforces Definition 4.2 on raw components by peeling low-internal-degree
/// vertices into the sparse set. Returns the repaired cliques and the
/// number of peeled vertices.
fn repair_cliques(
    g: &ClusterGraph,
    mut cliques: Vec<Vec<VertexId>>,
    epsilon: f64,
    min_clique_frac: f64,
) -> (Vec<Vec<VertexId>>, usize) {
    let delta = g.max_degree();
    let min_size = ((min_clique_frac * delta as f64).floor() as usize).max(2);
    let max_size = ((1.0 + epsilon) * delta as f64).floor() as usize + 1;
    let mut peeled = 0usize;
    let mut out = Vec::new();
    for k in cliques.iter_mut() {
        loop {
            if k.len() < min_size {
                peeled += k.len();
                k.clear();
                break;
            }
            // Internal degrees under the current membership.
            let internal: Vec<usize> = k
                .iter()
                .map(|&v| {
                    g.neighbors(v)
                        .iter()
                        .filter(|&&u| k.binary_search(&u).is_ok())
                        .count()
                })
                .collect();
            let need = ((1.0 - epsilon) * k.len() as f64).ceil() as usize;
            let worst = (0..k.len())
                .min_by_key(|&i| internal[i])
                .expect("nonempty clique");
            if k.len() > max_size || internal[worst] < need {
                k.remove(worst);
                peeled += 1;
            } else {
                break;
            }
        }
        if !k.is_empty() {
            out.push(std::mem::take(k));
        }
    }
    (out, peeled)
}

fn assemble(n: usize, epsilon: f64, cliques: Vec<Vec<VertexId>>) -> AlmostCliqueDecomp {
    let mut kind = vec![NodeKind::Sparse; n];
    for (i, k) in cliques.iter().enumerate() {
        for &v in k {
            kind[v] = NodeKind::Dense { clique: i };
        }
    }
    AlmostCliqueDecomp {
        epsilon,
        kind,
        cliques,
    }
}

/// The tail [`compute_acd`] and [`acd_oracle`] share: buddy degrees
/// counted from the answers, the candidates of buddy degree at least
/// `(1 − 2ξ)Δ`, the components of the buddy graph on them (singletons
/// dropped), and the repair. Returns the decomposition and the number of
/// vertices the repair peeled.
fn decompose(
    g: &ClusterGraph,
    buddy: &BuddyAnswers<'_>,
    xi: f64,
    epsilon: f64,
    min_clique_frac: f64,
) -> (AlmostCliqueDecomp, usize) {
    let n = g.n_vertices();
    let mut buddy_deg = vec![0usize; n];
    for ((u, v), b) in buddy.iter() {
        if b {
            buddy_deg[u] += 1;
            buddy_deg[v] += 1;
        }
    }
    let threshold = ((1.0 - 2.0 * xi) * g.max_degree() as f64).max(1.0);
    let candidate: Vec<bool> = buddy_deg.iter().map(|&d| d as f64 >= threshold).collect();
    let mut raw = g.components(|v| candidate[v], |u, w| buddy.get(&(u, w)) == Some(&true));
    raw.retain(|k| k.len() > 1);
    let (cliques, peeled) = repair_cliques(g, raw, epsilon, min_clique_frac);
    (assemble(n, epsilon, cliques), peeled)
}

/// Proposition 4.3: computes an ε-almost-clique decomposition on the
/// cluster graph in `O(1/ε²)` rounds (fingerprint rounds + `O(1)` BFS +
/// repair rounds, all charged).
pub fn compute_acd(
    net: &mut ClusterNet<'_>,
    params: &AcdParams,
    seeds: &SeedStream,
) -> AlmostCliqueDecomp {
    net.set_phase("acd");
    if net.g.max_degree() == 0 {
        return assemble(net.g.n_vertices(), params.epsilon, Vec::new());
    }

    // (1) Buddy predicate per edge.
    let buddy = buddy_edges(net, &params.buddy, &seeds.child(11));

    // (2) Exact buddy-degree: one deduplicated aggregation (§1.1
    // pattern) — each neighbor answers one bit over its link, and the
    // converge-cast sums counts of `id_bits`.
    let id_bits = net.id_bits();
    net.charge_broadcast(1);
    net.charge_link_round(1);
    net.charge_converge(id_bits);

    // (3) Component BFS + leader ids: O(1) rounds because almost-cliques
    // have diameter 2 [ACK19, Lemma 4.8].
    net.charge_full_rounds(3, id_bits);
    let (acd, peeled) = decompose(
        net.g,
        &buddy,
        params.buddy.xi,
        params.epsilon,
        params.min_clique_frac,
    );

    // (4) Repair: each peel iteration is one aggregation round.
    net.charge_full_rounds((peeled as u64).min(16) + 1, id_bits);
    acd
}

/// Exact-oracle decomposition: the same tail over exact friendliness
/// (ξ = ε). Used by tests and as a noise-free reference in experiment
/// E10.
pub fn acd_oracle(g: &ClusterGraph, epsilon: f64) -> AlmostCliqueDecomp {
    decompose(g, &friendly_oracle(g, epsilon), epsilon, epsilon, 0.55).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgc_net::CommGraph;

    /// `c` disjoint k-cliques plus `s` sparse vertices wired randomly-ish.
    fn planted(c: usize, k: usize) -> ClusterGraph {
        let mut edges = Vec::new();
        for i in 0..c {
            let base = i * k;
            for u in 0..k {
                for v in (u + 1)..k {
                    edges.push((base + u, base + v));
                }
            }
        }
        // A sparse tail: a path of k vertices attached to nothing dense.
        let tail = c * k;
        for j in 0..(k - 1) {
            edges.push((tail + j, tail + j + 1));
        }
        ClusterGraph::singletons(CommGraph::from_edges(c * k + k, &edges).unwrap())
    }

    #[test]
    fn oracle_recovers_planted_cliques() {
        let g = planted(3, 20);
        let acd = acd_oracle(&g, 0.15);
        assert_eq!(acd.n_cliques(), 3);
        for k in &acd.cliques {
            assert_eq!(k.len(), 20);
        }
        let q = acd.validate(&g);
        assert!(q.is_valid(), "{q:?}");
        // The path tail is sparse.
        assert!(acd.is_sparse(60));
        assert!(acd.is_sparse(65));
    }

    #[test]
    fn distributed_acd_matches_oracle_on_planted() {
        let g = planted(2, 24);
        let mut net = ClusterNet::with_log_budget(&g, 32);
        let seeds = SeedStream::new(900);
        let params = AcdParams {
            epsilon: 0.2,
            buddy: BuddyParams {
                xi: 0.2,
                counting: cgc_sketch::CountingParams {
                    xi: 0.08,
                    t_factor: 60.0,
                    min_trials: 1024,
                },
            },
            min_clique_frac: 0.55,
        };
        let acd = compute_acd(&mut net, &params, &seeds);
        assert_eq!(acd.n_cliques(), 2, "cliques: {:?}", acd.cliques);
        let q = acd.validate(&g);
        assert!(q.is_valid(), "{q:?}");
    }

    #[test]
    fn repair_peels_hangers_on() {
        // A 16-clique plus one vertex adjacent to only 4 members: the
        // component may include it via buddy edges, repair must peel it.
        let mut edges = Vec::new();
        for u in 0..16 {
            for v in (u + 1)..16 {
                edges.push((u, v));
            }
        }
        for v in 0..4 {
            edges.push((16, v));
        }
        let g = ClusterGraph::singletons(CommGraph::from_edges(17, &edges).unwrap());
        let cliques = vec![(0..17).collect::<Vec<_>>()];
        let (repaired, peeled) = repair_cliques(&g, cliques, 0.2, 0.5);
        assert_eq!(peeled, 1);
        assert_eq!(repaired[0], (0..16).collect::<Vec<_>>());
    }

    /// `decompose`'s candidate test and singleton drop. With ξ = 1 every
    /// edge is a buddy, so buddy degrees are plain degrees; the candidate
    /// threshold at ξ = 1/4 is `(1 − 2ξ)Δ = Δ/2`. `compute_acd` charges
    /// `min(peeled, 16) + 1` repair rounds, so the peel counts pin its
    /// charge too.
    #[test]
    fn candidates_and_singleton_components() {
        let all_buddies = |g| friendly_oracle(g, 1.0);
        // A lone candidate: the center of a 4-star (buddy degree 4 ≥ 2)
        // has only leaf buddies (buddy degree 1 < 2). Its singleton
        // component is dropped, not peeled by the repair.
        let star = ClusterGraph::singletons(
            CommGraph::from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)]).unwrap(),
        );
        let (acd, peeled) = decompose(&star, &all_buddies(&star), 0.25, 0.2, 0.55);
        assert_eq!((acd.n_cliques(), peeled), (0, 0));
        assert!(acd.is_sparse(0));
        // A vertex exactly at the threshold: K_8 plus vertex 8 adjacent to
        // four members, so Δ = 8 and vertex 8's buddy degree is 4 = Δ/2.
        // It is a candidate: it joins the clique's component, and the
        // repair peels it (internal degree 4 < ⌈0.8 · 9⌉).
        let mut edges: Vec<(usize, usize)> = (0..8)
            .flat_map(|u| ((u + 1)..8).map(move |v| (u, v)))
            .collect();
        edges.extend((0..4).map(|u| (u, 8)));
        let g = ClusterGraph::singletons(CommGraph::from_edges(9, &edges).unwrap());
        assert_eq!(g.max_degree(), 8);
        let (acd, peeled) = decompose(&g, &all_buddies(&g), 0.25, 0.2, 0.55);
        assert_eq!(peeled, 1);
        assert_eq!(acd.cliques, vec![(0..8).collect::<Vec<_>>()]);
        assert!(acd.is_sparse(8));
    }

    #[test]
    fn oversized_component_is_trimmed() {
        let g = planted(1, 12);
        // Pretend the component contains everything including the tail.
        let cliques = vec![(0..24).collect::<Vec<_>>()];
        let (repaired, _) = repair_cliques(&g, cliques, 0.15, 0.5);
        // Only the true clique survives the internal-degree constraint.
        assert_eq!(repaired.len(), 1);
        assert_eq!(repaired[0], (0..12).collect::<Vec<_>>());
    }

    #[test]
    fn empty_graph_yields_all_sparse() {
        let g =
            ClusterGraph::singletons(CommGraph::from_edges(5, [] as [(usize, usize); 0]).unwrap());
        let acd = acd_oracle(&g, 0.1);
        assert_eq!(acd.n_cliques(), 0);
        assert_eq!(acd.sparse_vertices().len(), 5);
    }

    #[test]
    fn clique_of_and_is_sparse_agree() {
        let g = planted(2, 10);
        let acd = acd_oracle(&g, 0.15);
        for v in 0..g.n_vertices() {
            match acd.clique_of(v) {
                Some(c) => {
                    assert!(!acd.is_sparse(v));
                    assert!(acd.cliques[c].binary_search(&v).is_ok());
                }
                None => assert!(acd.is_sparse(v)),
            }
        }
    }
}
