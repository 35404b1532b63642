//! Baseline coloring algorithms for the comparison experiments (E1, E14).
//!
//! * [`greedy`] — sequential greedy (the centralized yardstick; one
//!   charged round per vertex);
//! * [`luby`] — Luby/Johansson-style synchronous random palette trials,
//!   the classic `O(log n)`-round distributed algorithm [Joh99, Lub86];
//! * [`congest_naive`] — the cost model of naively simulating a CONGEST
//!   coloring step on a cluster graph *without* the paper's machinery:
//!   every vertex ships its neighbors' colors through its support tree,
//!   paying `Θ(Δ log Δ / B)` pipelined rounds per step (§1.1's
//!   obstruction made concrete).

#![forbid(unsafe_code)]

pub mod congest_naive;
pub mod greedy;
pub mod luby;

pub use congest_naive::naive_simulation_cost;
pub use greedy::greedy_coloring;
pub use luby::{johansson_stats, luby_coloring, JohanssonStats};
