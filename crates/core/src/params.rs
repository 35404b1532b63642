//! Algorithm parameters (paper Equation 1 and friends).
//!
//! The paper's constants (`ε = 1/2000`, `Δ_low = Θ(log²¹ n)`,
//! `ℓ = Θ(log^{1.1} n)`, reserve factor 250, …) make the high-degree
//! regime non-vacuous only for astronomically large `n`. All constants
//! therefore live here, with two presets: [`Params::paper`] (faithful
//! values, for documentation and asymptotic reasoning) and
//! [`Params::laptop`] (scaled values with identical control flow, used by
//! tests and experiments). See the README's "Substitutions" section.

use cgc_decomp::AcdParams;
use cgc_sketch::CountingParams;

/// Stage toggles for ablation experiments (experiment E19, `e19_ablation`;
/// the README's "Substitutions" section): disabling a stage does not
/// break correctness — later stages and the fallback phase absorb the
/// work — but the cost shifts become visible in the per-phase round
/// accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ablation {
    /// Run slack generation (Proposition 4.5).
    pub slackgen: bool,
    /// Run the colorful matchings (Lemma 4.9 / §6).
    pub matching: bool,
    /// Run the synchronized color trial (Lemma 4.13).
    pub sct: bool,
    /// Compute and use put-aside sets (Lemma 4.18 / §7).
    pub putaside: bool,
}

impl Default for Ablation {
    fn default() -> Self {
        Ablation {
            slackgen: true,
            matching: true,
            sct: true,
            putaside: true,
        }
    }
}

/// All tunable constants of the coloring algorithm.
#[derive(Debug, Clone, PartialEq)]
pub struct Params {
    /// Slack constant `γ` standing in for `γ_{4.5}`.
    pub gamma: f64,
    /// Cabal threshold `ℓ` (paper: `Θ(log^{1.1} n)`).
    pub ell: f64,
    /// Reserved-color factor `ρ` in `r_K = ρ · max(ẽ_K, ℓ)` (paper: 250).
    pub rho: f64,
    /// Cap on reserved colors as a fraction of Δ (paper: 300ε).
    pub reserve_cap_frac: f64,
    /// Global reserve `[ρ_g · Δ]` avoided by slack generation and
    /// matchings (paper: `300εΔ`), as a fraction of Δ.
    pub global_reserve_frac: f64,
    /// Activation probability in slack generation (paper: 1/200).
    pub slack_activation: f64,
    /// Threshold `Δ_low`: below it the §9 low-degree algorithm runs
    /// (paper: `Θ(log²¹ n)`).
    pub delta_low: usize,
    /// Fingerprint counting accuracy.
    pub counting: CountingParams,
    /// ACD knobs, including its ε (Definition 4.2; paper: 1/2000).
    pub acd: AcdParams,
    /// Rounds of `TryColor` used for constant-factor degree reduction.
    pub trycolor_rounds: usize,
    /// Cap on MultiColorTrial rounds before declaring the stage failed.
    pub mct_max_rounds: usize,
    /// Iterations of the sampled colorful matching (paper: `O(1/ε)`).
    pub matching_iters: usize,
    /// Trials `k` of the fingerprint matching (§6; paper: `Θ(log n / ε)`).
    pub fp_matching_trials: usize,
    /// `ℓ_s` — free-color threshold in put-aside coloring (paper: Θ(ℓ³)).
    pub ls: usize,
    /// Stage-level retries before falling back.
    pub max_retries: usize,
    /// Rounds of shattering trials in the low-degree path (§9.1).
    pub shatter_rounds: usize,
    /// Stage toggles (all enabled by default; see [`Ablation`]).
    pub ablation: Ablation,
}

impl Params {
    /// Laptop-scale preset for an `n`-vertex conflict graph: same control
    /// flow as the paper, constants shrunk so the dense machinery actually
    /// engages at `n` in the hundreds–thousands.
    pub fn laptop(n: usize) -> Self {
        let ln_n = (n.max(2) as f64).ln();
        Params {
            gamma: 0.1,
            ell: ln_n.max(2.0),
            rho: 2.0,
            reserve_cap_frac: 0.25,
            global_reserve_frac: 0.3,
            slack_activation: 0.05,
            delta_low: 16,
            counting: CountingParams {
                xi: 0.35,
                t_factor: 8.0,
                min_trials: 128,
            },
            acd: AcdParams::default(),
            trycolor_rounds: 8,
            mct_max_rounds: 40,
            matching_iters: 12,
            fp_matching_trials: (6.0 * ln_n).ceil() as usize,
            ls: 4,
            max_retries: 4,
            shatter_rounds: (2.0 * ln_n.ln().max(1.0)).ceil() as usize + 2,
            ablation: Ablation::default(),
        }
    }

    /// The paper's constants (Equation 1 and §4.1). With these values the
    /// high-degree path requires `Δ ≥ Θ(log²¹ n)`; any realistic instance
    /// will take the low-degree path, which is the honest asymptotic
    /// behavior. Exposed for documentation and sanity experiments.
    pub fn paper(n: usize) -> Self {
        let ln_n = (n.max(2) as f64).ln();
        let log_n = ln_n / 2f64.ln();
        Params {
            gamma: 0.01,
            ell: log_n.powf(1.1),
            rho: 250.0,
            reserve_cap_frac: 300.0 / 2000.0,
            global_reserve_frac: 300.0 / 2000.0,
            slack_activation: 1.0 / 200.0,
            delta_low: (log_n.powi(21)).min(1e18) as usize,
            counting: CountingParams {
                xi: 0.01,
                t_factor: 200.0,
                min_trials: 1024,
            },
            acd: AcdParams {
                epsilon: 1.0 / 2000.0,
                ..AcdParams::default()
            },
            trycolor_rounds: 64,
            mct_max_rounds: 64,
            matching_iters: 2000,
            fp_matching_trials: (6.0 * 2000.0 * ln_n).ceil() as usize,
            ls: (log_n.powf(1.1).powi(3)).min(1e9) as usize,
            max_retries: 8,
            shatter_rounds: (2.0 * ln_n.ln().max(1.0)).ceil() as usize + 2,
            ablation: Ablation::default(),
        }
    }

    /// Number of globally reserved colors `⌊ρ_g Δ⌋` (paper: `300εΔ`),
    /// clamped to leave at least one non-reserved color.
    pub fn global_reserve(&self, delta: usize) -> usize {
        let r = (self.global_reserve_frac * delta as f64).floor() as usize;
        r.min(delta.saturating_sub(1))
    }

    /// The put-aside set size `r` used in all cabals (paper: `250ℓ`,
    /// Equation 2 with `ẽ_K ≤ ℓ`), clamped against Δ so the machinery
    /// stays engaged at laptop scale.
    pub fn cabal_putaside_size(&self, delta: usize) -> usize {
        let r = (self.rho * self.ell).ceil() as usize;
        r.clamp(1, (delta / 8).max(1))
    }

    /// Donation block size `b` (paper: 256·ℓ_s⁶): `Δ+1` split into at
    /// least four blocks.
    pub fn effective_block_size(&self, delta: usize) -> usize {
        ((delta + 1) / 4).max(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn laptop_preset_is_sane() {
        let p = Params::laptop(1000);
        assert!(p.acd.epsilon < 1.0 / 3.0, "Definition 4.2 needs ε < 1/3");
        assert!(p.ell >= 2.0);
        assert!(p.fp_matching_trials > 10);
        assert!(p.shatter_rounds >= 3);
    }

    #[test]
    fn paper_preset_thresholds_are_astronomical() {
        let p = Params::paper(1 << 20);
        // log2(2^20) = 20; 20^21 is far beyond any realistic Δ.
        assert!(p.delta_low > 1 << 40);
        assert_eq!(p.acd.epsilon, 1.0 / 2000.0);
    }

    #[test]
    fn global_reserve_leaves_free_colors() {
        let p = Params::laptop(100);
        for delta in [1usize, 2, 10, 1000] {
            let r = p.global_reserve(delta);
            assert!(r < delta.max(1), "delta {delta}: reserve {r}");
        }
    }

    #[test]
    fn putaside_size_clamped() {
        let p = Params::laptop(500);
        let r = p.cabal_putaside_size(40);
        assert!((1..=10).contains(&r));
    }

    #[test]
    fn block_size_derivation() {
        let p = Params::laptop(100);
        assert_eq!(p.effective_block_size(99), 25);
    }
}
