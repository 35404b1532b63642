//! Pseudo-random tools (paper Appendix C).
//!
//! * [`KWiseHash`] — k-wise independent polynomial hash families over the
//!   Mersenne prime `2^61 − 1`; describable in `O(k log N)` bits.
//! * [`MinWiseHash`] — `(ε, s)`-min-wise independent functions obtained
//!   from `O(log 1/ε)`-wise independence (Lemma C.2); used in §6 to sample
//!   a near-uniform anti-neighbor out of a set known only distributively.
//! * [`RepFamily`] — representative set families (Definition C.5, Lemma
//!   C.6): globally known families of `s`-sized subsets of a color space
//!   such that a random member approximates the density of *every* large
//!   test set; they let `MultiColorTrial` describe `Θ(log n)` color
//!   samples with an `O(log n)`-bit index (§D.3).

#![forbid(unsafe_code)]

pub mod kwise;
pub mod minwise;
pub mod repsets;

pub use kwise::KWiseHash;
pub use minwise::MinWiseHash;
pub use repsets::{RepFamily, RepParams};
