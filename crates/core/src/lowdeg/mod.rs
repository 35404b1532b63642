//! The low-degree algorithm (§9, Theorem 1.1).
//!
//! When `Δ ≤ Δ_low` the high-degree machinery's concentration arguments
//! fail, and the paper switches to the classic shatter-then-finish
//! paradigm: `O(log log n)` rounds of palette trials leave uncolored
//! components of size `O(Δ² log_Δ n)` (§9.1, after \[BEPS16\]); the small
//! components are then finished by a list-coloring routine.
//!
//! In the `Δ = O(log n)` regime, palettes are maintained exactly with
//! `O(log n)`-bit bitmaps — a legal aggregate — which is what the
//! exact-palette trial kernel ([`crate::trycolor::palette_trial_rounds`])
//! charges. [`fn@shatter::shatter`] runs it on every uncolored vertex;
//! the small-instance finisher ([`listcolor`]) runs it on the components'
//! members, all components in parallel (expected `O(log N)` rounds on
//! size-`N` components), then the charged first-fit finish — the
//! reduced-fidelity stand-in for the Ghaffari–Kuhn rounding listed in the
//! README's "Substitutions" section, with rounds honestly charged and
//! reported.

pub mod listcolor;
pub mod shatter;

use crate::coloring::Coloring;
use crate::params::Params;
use cgc_cluster::ClusterNet;
use cgc_net::SeedStream;

pub use listcolor::color_components;
pub use shatter::{shatter, uncolored_components};

/// Counters for the low-degree path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LowDegReport {
    /// Vertices colored during shattering.
    pub shatter_colored: usize,
    /// Number of post-shattering components.
    pub n_components: usize,
    /// Largest post-shattering component.
    pub max_component: usize,
    /// Rounds spent in the small-instance finisher.
    pub finish_rounds: usize,
    /// Vertices colored by the sequential fallback.
    pub fallback: usize,
}

/// Theorem 1.1 driver: shatter, then finish small components.
pub fn color_low_degree(
    net: &mut ClusterNet<'_>,
    coloring: &mut Coloring,
    seeds: &SeedStream,
    params: &Params,
) -> LowDegReport {
    let mut report = LowDegReport::default();
    net.set_phase("lowdeg-shatter");
    report.shatter_colored = shatter(net, coloring, seeds, 0x9A11, params.shatter_rounds);

    let comps = uncolored_components(net.g, coloring);
    report.n_components = comps.len();
    report.max_component = comps.iter().map(Vec::len).max().unwrap_or(0);

    net.set_phase("lowdeg-finish");
    let (rounds, fallback) = color_components(net, coloring, seeds, 0x9A12, &comps);
    report.finish_rounds = rounds;
    report.fallback = fallback;
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    use cgc_graphs::{gnp_spec, realize, Layout};

    #[test]
    fn low_degree_gnp_is_fully_colored() {
        let spec = gnp_spec(150, 0.04, 77);
        let g = realize(&spec, Layout::Singleton, 1, 77);
        let mut coloring = Coloring::new(g.n_vertices(), g.max_degree() + 1);
        let mut net = ClusterNet::with_log_budget(&g, 32);
        let seeds = SeedStream::new(200);
        let params = Params::laptop(150);
        let report = color_low_degree(&mut net, &mut coloring, &seeds, &params);
        assert!(coloring.is_total(), "uncolored: {:?}", coloring.uncolored());
        assert!(coloring.is_proper(&g));
        assert!(report.shatter_colored > 100, "{report:?}");
    }

    #[test]
    fn shattering_leaves_small_components() {
        let spec = gnp_spec(300, 0.02, 78);
        let g = realize(&spec, Layout::Singleton, 1, 78);
        let mut coloring = Coloring::new(g.n_vertices(), g.max_degree() + 1);
        let mut net = ClusterNet::with_log_budget(&g, 32);
        let seeds = SeedStream::new(201);
        let params = Params::laptop(300);
        let report = color_low_degree(&mut net, &mut coloring, &seeds, &params);
        // BEPS shape: components after O(loglog n) trials are tiny.
        assert!(
            report.max_component <= 60,
            "component too large: {}",
            report.max_component
        );
        assert!(coloring.is_total());
    }

    #[test]
    fn works_on_cluster_layouts() {
        let spec = gnp_spec(60, 0.06, 79);
        let g = realize(&spec, Layout::Path(4), 1, 79);
        let mut coloring = Coloring::new(g.n_vertices(), g.max_degree() + 1);
        let mut net = ClusterNet::with_log_budget(&g, 32);
        let seeds = SeedStream::new(202);
        let params = Params::laptop(60);
        color_low_degree(&mut net, &mut coloring, &seeds, &params);
        assert!(coloring.is_total());
        assert!(coloring.is_proper(&g));
        // Dilation shows up in G-rounds.
        let r = net.meter.report();
        assert!(r.g_rounds > r.h_rounds);
    }
}
