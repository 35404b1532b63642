//! Luby/Johansson random palette trials — the `O(log n)` classic.
//!
//! Every uncolored vertex tries a uniform color from its current palette
//! each round; conflicts resolve by id. Θ(log n) rounds w.h.p. \[Joh99\].
//! This is the library's exact-palette trial kernel
//! ([`cgc_core::trycolor::palette_trial_rounds`]) run from an empty
//! coloring with `(Δ+1)`-bit palette bitmaps. It is E1's baseline: its
//! round count *grows* with `n` while the paper's algorithm stays
//! (nearly) flat in the high-degree regime.

use cgc_cluster::ClusterNet;
use cgc_core::{trycolor::palette_trial_rounds, Coloring};
use cgc_net::SeedStream;

/// Round-count statistics of a Johansson run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JohanssonStats {
    /// Rounds until the coloring became total.
    pub rounds: usize,
    /// Whether the run hit the round cap before finishing.
    pub capped: bool,
}

/// Runs Johansson's algorithm to completion (or `max_rounds`).
pub fn luby_coloring(
    net: &mut ClusterNet<'_>,
    seeds: &SeedStream,
    max_rounds: usize,
) -> (Coloring, JohanssonStats) {
    let n = net.g.n_vertices();
    let q = net.g.max_degree() + 1;
    let mut coloring = Coloring::new(n, q);
    net.set_phase("johansson");
    let (_, rounds) =
        palette_trial_rounds(net, &mut coloring, seeds, None, q as u64, max_rounds, |r| {
            r + 1
        });
    let capped = !coloring.is_total();
    (coloring, JohanssonStats { rounds, capped })
}

/// Convenience wrapper returning only the stats (E1 series).
pub fn johansson_stats(
    net: &mut ClusterNet<'_>,
    seeds: &SeedStream,
    max_rounds: usize,
) -> JohanssonStats {
    luby_coloring(net, seeds, max_rounds).1
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgc_cluster::ClusterGraph;
    use cgc_graphs::{gnp_spec, realize, Layout, WorkloadSpec};
    use cgc_net::CommGraph;

    #[test]
    fn finishes_cliques() {
        let g = ClusterGraph::singletons(CommGraph::complete(20));
        let mut net = ClusterNet::with_log_budget(&g, 32);
        let seeds = SeedStream::new(1);
        let (c, stats) = luby_coloring(&mut net, &seeds, 500);
        assert!(!stats.capped);
        assert!(c.is_total());
        assert!(c.is_proper(&g));
    }

    #[test]
    fn rounds_grow_mildly_with_n() {
        let run = |n: usize| {
            let spec = gnp_spec(n, 8.0 / n as f64, 3);
            let g = realize(&spec, Layout::Singleton, 1, 3);
            let mut net = ClusterNet::with_log_budget(&g, 32);
            let seeds = SeedStream::new(4);
            johansson_stats(&mut net, &seeds, 10_000).rounds
        };
        let small = run(64);
        let large = run(1024);
        // Logarithmic-ish growth: larger instance takes more rounds but
        // not absurdly more.
        assert!(large >= small, "small {small}, large {large}");
        assert!(large <= 20 * small.max(4), "large {large} vs small {small}");
    }

    /// FNV-1a over every vertex's color as a little-endian `u64`
    /// (`u64::MAX` when uncolored).
    fn digest(coloring: &Coloring) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for v in 0..coloring.len() {
            let color = coloring.get(v).map_or(u64::MAX, |c| c as u64);
            for byte in color.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    }

    #[test]
    fn cabal_run_is_pinned() {
        let spec: WorkloadSpec = "cabal:c=6,k=50,anti=3,ext=4,seed=3,layout=star3"
            .parse()
            .unwrap();
        let g = spec.build();
        let mut net = ClusterNet::with_log_budget(&g, 32);
        let (c, stats) = luby_coloring(&mut net, &SeedStream::new(4), 10_000);
        assert_eq!(
            stats,
            JohanssonStats {
                rounds: 4,
                capped: false
            }
        );
        let report = net.meter.report();
        assert_eq!(report.h_rounds, 24);
        assert_eq!(report.bits, 3_728_992);
        assert!(c.is_proper(&g));
        assert_eq!(digest(&c), 0x0bfc_c64b_12ae_ec74);
    }

    #[test]
    fn respects_round_cap() {
        let g = ClusterGraph::singletons(CommGraph::complete(30));
        let mut net = ClusterNet::with_log_budget(&g, 32);
        let seeds = SeedStream::new(5);
        let (_, stats) = luby_coloring(&mut net, &seeds, 1);
        assert_eq!(stats.rounds, 1);
        assert!(stats.capped);
    }
}
