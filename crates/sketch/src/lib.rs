//! Fingerprint sketches (paper §5).
//!
//! A *fingerprint* is the coordinate-wise maximum of `t` independent
//! geometric random variables per participating element. Fingerprints:
//!
//! * estimate the number of contributing elements within `(1 ± ξ)`
//!   (Lemma 5.2 — [`estimate`]),
//! * compress to `O(t + log log d)` bits because maxima concentrate around
//!   `log d` (Lemmas 5.5–5.6 — [`encode`]),
//! * merge associatively and idempotently (max), so they aggregate
//!   correctly even over redundant paths — the property that makes them
//!   usable on cluster graphs where naive sums double-count,
//! * have a unique maximum with probability ≥ 2/3, located at a uniformly
//!   random element (Lemmas 5.3–5.4), which §6 exploits to find anti-edges.
//!
//! [`matrix`] is the engine that runs fingerprint rounds on a
//! [`cgc_cluster::ClusterNet`]: one flat byte matrix per role, each step a
//! sharded pass on the runtime's worker pool. [`counting`] packages it into
//! the Lemma 5.7 approximate neighborhood counting primitive.

#![forbid(unsafe_code)]

pub mod counting;
pub mod encode;
pub mod estimate;
pub mod fingerprint;
pub mod geometric;
mod histogram;
pub mod matrix;

pub use counting::{
    approx_count_neighbors, neighborhood_fingerprints, CountingParams, NeighborhoodFingerprints,
};
pub use encode::{decode_maxima, encode_maxima, encoded_bits};
pub use estimate::estimate_count;
pub use fingerprint::{Fingerprint, Maximum};
pub use geometric::sample_geometric;
pub use matrix::FingerprintMatrix;
