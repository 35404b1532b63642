//! Almost-clique decomposition and density classification (paper §4.1,
//! §5.4).
//!
//! The coloring algorithm starts from Reed's sparse–dense decomposition:
//! vertices are either `Ω(ε²Δ)`-sparse or grouped into ε-almost-cliques
//! (Definition 4.2). On cluster graphs the decomposition itself is
//! non-trivial — vertices cannot even count common neighbors — so it is
//! computed with the fingerprinting technique (Proposition 4.3, Lemma 5.8).
//!
//! * [`sparsity`] — exact sparsity `ζ_v` (Definition 4.1), the analyst's
//!   oracle used by tests, and the common-neighbor count behind the exact
//!   buddy oracle that experiment E10 compares against;
//! * [`buddy`] — the ξ-buddy predicate per `H`-edge via joint-neighborhood
//!   fingerprints (Lemma 5.8), and its exact oracle; both return
//!   [`BuddyAnswers`], one `bool` per `H`-edge in `h_edges()` order,
//!   looked up through `ClusterGraph::edge_index`;
//! * [`acd`] — the decomposition (Proposition 4.3) plus a validity-repair
//!   pass and an exact oracle variant, sharing one tail over the answers:
//!   buddy degrees, candidates, components
//!   (`ClusterGraph::components`), repair;
//! * [`degrees`] — external-degree estimates `ẽ_v`, averages `ẽ_K`, sizes
//!   `|K|` and the anti-degree proxy `x_v` (Equation 3);
//! * [`cabal`] — cabal classification (`ẽ_K < ℓ`) and reserved-color
//!   counts `r_K` (Equation 2);
//! * [`inliers`] — inlier/outlier split (Equation 4 and the cabal variant).

#![forbid(unsafe_code)]

pub mod acd;
pub mod buddy;
pub mod cabal;
pub mod degrees;
pub mod inliers;
pub mod sparsity;

pub use acd::{acd_oracle, compute_acd, AcdParams, AcdQuality, AlmostCliqueDecomp, NodeKind};
pub use buddy::{buddy_edges, BuddyAnswers, BuddyParams};
pub use cabal::{classify_cabals, CabalInfo};
pub use degrees::{degree_profile, DegreeProfile};
pub use inliers::{cabal_inliers, noncabal_inliers};
pub use sparsity::{common_neighbors, exact_sparsity};
