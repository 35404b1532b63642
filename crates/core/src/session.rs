//! The unified run API: one builder-based entry point for every run,
//! experiment and bench.
//!
//! A [`Session`] owns a built [`ClusterGraph`] addressed by a
//! [`WorkloadSpec`] and caches it across runs — sweeping run seeds or
//! thread counts over one instance pays `ClusterGraph::build` once, not
//! per run (the build dominates setup at large `n`); the build itself is
//! sharded over the session's [`ParallelConfig`]. Every run goes
//! through [`Session::run`], which wires [`Params`], the
//! [`ParallelConfig`], the log-budget and the [`DriverOptions`] through
//! one place and returns a [`RunOutcome`]: the [`RunResult`] plus
//! wall-clock phase timings, the thread count, the detected cores and the
//! workload spec string — everything an experiment table or JSON baseline
//! needs to make the run reproducible and comparable across hardware.
//!
//! Parallel sessions dispatch on the **persistent worker pool**
//! ([`cgc_cluster::WorkerPool`]): the instance build, every
//! [`Session::make_net`] runtime and every round of every
//! [`Session::run`] reuse the same parked OS threads from the
//! process-global pool cache — across rounds, runs, and seed/thread
//! sweeps — so no per-round (or per-run) thread spawning ever happens.
//!
//! ```
//! use cgc_core::SessionBuilder;
//!
//! let mut session = SessionBuilder::parse("gnp:n=120,p=0.05,seed=1")
//!     .unwrap()
//!     .build();
//! let out = session.run(11);
//! assert!(out.run.coloring.is_proper(session.graph()));
//! assert_eq!(out.spec_string, "gnp:n=120,p=0.05,seed=1");
//! ```
//!
//! Callers that build their own [`ClusterNet`] (virtual overlays, custom
//! topologies) call the driver directly through
//! [`color_cluster_graph_with`], the one driver entry point `Session`
//! runs through too.

use crate::coloring::Coloring;
use crate::driver::{color_cluster_graph_with, DriverOptions, RunResult};
use crate::mutate::{recolor_dirty, MutationOutcome};
use crate::params::{Ablation, Params};
use cgc_cluster::{available_threads, BitsScratch, ClusterGraph, ClusterNet, ParallelConfig};
use cgc_graphs::{PlantedInfo, SetupTimings, WorkloadParseError, WorkloadSpec};
use cgc_net::{DeltaBatch, NetError};
use std::cell::RefCell;
use std::time::Instant;

thread_local! {
    /// Per-worker palette scratch of [`Session::query_palettes`].
    /// `const`-initialized, so registering the slot allocates nothing;
    /// pool workers persist, so a warm scratch already holds `⌈q/64⌉`
    /// words.
    static QUERY_SCRATCH: RefCell<BitsScratch> = const { RefCell::new(BitsScratch::new()) };
}

/// Which [`Params`] preset a session derives from the instance size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ParamsProfile {
    /// [`Params::laptop`] — scaled constants, the experiment default.
    #[default]
    Laptop,
    /// [`Params::paper`] — the faithful constants.
    Paper,
}

/// Everything one coloring run produced, bundled for uniform reporting.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The driver result: coloring, cost report, stage statistics.
    pub run: RunResult,
    /// Canonical string of the workload that was colored — parsing it
    /// rebuilds the instance bit-for-bit.
    pub spec_string: String,
    /// The run seed (the workload seed lives inside `spec_string`).
    pub seed: u64,
    /// Executor thread count the run used.
    pub threads: usize,
    /// Hardware cores detected on this machine.
    pub detected_cores: usize,
    /// Wall-clock seconds the whole instance setup (generation,
    /// canonicalization and the `ClusterGraph` build) took for this run's
    /// instance (`0.0` when the cached graph was reused).
    pub build_secs: f64,
    /// Setup sub-phase: raw edge generation (family kernels + layout
    /// expansion) seconds (`0.0` when cached).
    pub generate_secs: f64,
    /// Setup sub-phase: canonicalization (sort/dedup/merge + CSR
    /// assembly) seconds (`0.0` when cached).
    pub canonicalize_secs: f64,
    /// Setup sub-phase: `ClusterGraph::build` (support trees, link
    /// table) seconds (`0.0` when cached).
    pub graph_build_secs: f64,
    /// Whether this run reused a cached (previously built) graph — a
    /// **cache hit**, as opposed to "the setup was free": cached runs
    /// zero their setup timings, and this flag is how bench tables tell
    /// the two apart.
    pub cache_hit: bool,
    /// Delta epoch of the instance this run colored: the number of
    /// [`DeltaBatch`]es ever applied to it (`0` = the pristine build).
    /// Together with `spec_string` this addresses the exact mutated
    /// instance, so a cache hit can never silently serve a pre-delta
    /// graph.
    pub delta_epoch: u64,
    /// Wall-clock seconds of the coloring run itself.
    pub color_secs: f64,
}

/// What one palette query pass produced ([`Session::query_palettes`]):
/// per-vertex palette/slack views. A pure function of
/// `(graph, coloring)` — bit-identical at any thread count.
#[derive(Debug, Clone)]
pub struct PaletteQueryOutcome {
    /// Canonical string of the queried workload.
    pub spec_string: String,
    /// `|L(v)|` — free colors at `v` (index = vertex).
    pub free_counts: Vec<usize>,
    /// `deg_φ(v)` — uncolored neighbors of `v`.
    pub uncolored_degrees: Vec<usize>,
    /// Slack `s_φ(v) = |L(v)| − deg_φ(v)`.
    pub slacks: Vec<i64>,
    /// Reuse slack: colored neighbors minus distinct colors on them.
    pub reuse_slacks: Vec<usize>,
    /// Executor thread count the sweep used.
    pub threads: usize,
    /// Wall-clock seconds of the sweep.
    pub query_secs: f64,
}

/// Builder for a [`Session`]; every knob the 21 experiment binaries used
/// to hand-roll, behind fluent setters.
///
/// ```
/// use cgc_core::{ParamsProfile, SessionBuilder};
/// use cgc_graphs::WorkloadSpec;
///
/// let mut session = SessionBuilder::new(WorkloadSpec::gnp(60, 0.2, 7))
///     .params(ParamsProfile::Paper)
///     .log_budget(32)
///     .oracle_acd(false)
///     .build();
/// let out = session.run(19);
/// assert!(out.run.coloring.is_total());
/// ```
#[derive(Debug, Clone)]
pub struct SessionBuilder {
    spec: WorkloadSpec,
    profile: ParamsProfile,
    beta: u64,
    parallel: ParallelConfig,
    oracle_acd: bool,
    ablation: Option<Ablation>,
    delta_low: Option<usize>,
}

impl SessionBuilder {
    /// Builder for `spec` with the experiment defaults: laptop params,
    /// `32·⌈log₂ n⌉`-bit budget, `CGC_THREADS`-honoring executor,
    /// fingerprint ACD.
    pub fn new(spec: WorkloadSpec) -> Self {
        SessionBuilder {
            spec,
            profile: ParamsProfile::Laptop,
            beta: 32,
            parallel: ParallelConfig::from_env(),
            oracle_acd: false,
            ablation: None,
            delta_low: None,
        }
    }

    /// Builder from a compact workload string (`"gnp:n=120,p=0.05,seed=1"`).
    pub fn parse(spec: &str) -> Result<Self, WorkloadParseError> {
        Ok(Self::new(spec.parse()?))
    }

    /// Selects the [`Params`] preset (default: laptop).
    pub fn params(mut self, profile: ParamsProfile) -> Self {
        self.profile = profile;
        self
    }

    /// Bandwidth budget factor `β` (budget = `β·⌈log₂ n_machines⌉` bits
    /// per link per round; default 32).
    pub fn log_budget(mut self, beta: u64) -> Self {
        self.beta = beta;
        self
    }

    /// Overrides the executor configuration (default: honor `CGC_THREADS`).
    pub fn parallel(mut self, parallel: ParallelConfig) -> Self {
        self.parallel = parallel;
        self
    }

    /// Uses the exact-oracle ACD instead of the fingerprint ACD.
    pub fn oracle_acd(mut self, oracle: bool) -> Self {
        self.oracle_acd = oracle;
        self
    }

    /// Installs stage toggles for ablation runs (E19).
    pub fn ablation(mut self, ablation: Ablation) -> Self {
        self.ablation = Some(ablation);
        self
    }

    /// Overrides `Δ_low` (E2 forces the §9 path with a huge value).
    pub fn delta_low(mut self, delta_low: usize) -> Self {
        self.delta_low = Some(delta_low);
        self
    }

    /// Builds the instance (timed) and returns the ready [`Session`].
    pub fn build(self) -> Session {
        let (graph, planted, setup) = self.spec.build_timed(&self.parallel);
        let params = derive_params(
            self.profile,
            graph.n_vertices(),
            self.ablation,
            self.delta_low,
        );
        Session {
            spec: self.spec,
            graph,
            planted,
            setup,
            runs_on_graph: 0,
            delta_epoch: 0,
            coloring: None,
            profile: self.profile,
            ablation: self.ablation,
            delta_low: self.delta_low,
            params,
            beta: self.beta,
            parallel: self.parallel,
            oracle_acd: self.oracle_acd,
        }
    }
}

pub(crate) fn derive_params(
    profile: ParamsProfile,
    n: usize,
    ablation: Option<Ablation>,
    delta_low: Option<usize>,
) -> Params {
    let mut params = match profile {
        ParamsProfile::Laptop => Params::laptop(n),
        ParamsProfile::Paper => Params::paper(n),
    };
    if let Some(ab) = ablation {
        params.ablation = ab;
    }
    if let Some(dl) = delta_low {
        params.delta_low = dl;
    }
    params
}

/// The one shared coloring path: a fresh metered runtime over `graph`,
/// the driver with `params`/`seed`, and the wall-clock of the run. Both
/// [`Session::run`] and the multi-tenant server
/// ([`crate::serve::SessionServer`]) call this, so a served run is
/// bit-identical to a standalone session run by construction.
pub(crate) fn run_coloring_on(
    graph: &ClusterGraph,
    params: &Params,
    beta: u64,
    parallel: ParallelConfig,
    oracle_acd: bool,
    seed: u64,
) -> (RunResult, f64) {
    let mut net = ClusterNet::with_log_budget_parallel(graph, beta, parallel);
    let opts = DriverOptions {
        oracle_acd,
        parallel,
    };
    let start = Instant::now();
    let run = color_cluster_graph_with(&mut net, params, seed, opts);
    (run, start.elapsed().as_secs_f64())
}

/// A reusable coloring session: the built instance plus every run knob.
/// See the [module docs](self) and [`SessionBuilder`].
#[derive(Debug)]
pub struct Session {
    spec: WorkloadSpec,
    graph: ClusterGraph,
    planted: Option<PlantedInfo>,
    setup: SetupTimings,
    runs_on_graph: u64,
    /// Batches ever applied to the loaded instance (0 = pristine build).
    delta_epoch: u64,
    /// The most recent total proper coloring of the loaded instance —
    /// the seed for incremental recoloring. `None` until the first run
    /// (or after a failed apply left it stale).
    coloring: Option<Coloring>,
    profile: ParamsProfile,
    ablation: Option<Ablation>,
    delta_low: Option<usize>,
    params: Params,
    beta: u64,
    parallel: ParallelConfig,
    oracle_acd: bool,
}

impl Session {
    /// Shorthand for [`SessionBuilder::new`].
    pub fn builder(spec: WorkloadSpec) -> SessionBuilder {
        SessionBuilder::new(spec)
    }

    /// The workload currently loaded.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// The canonical string of the loaded workload.
    pub fn spec_string(&self) -> String {
        self.spec.to_string()
    }

    /// The built (cached) instance.
    pub fn graph(&self) -> &ClusterGraph {
        &self.graph
    }

    /// Planted ground truth of the loaded workload, when the family has
    /// one (planted cliques, mixtures, cabals).
    pub fn planted(&self) -> Option<&PlantedInfo> {
        self.planted.as_ref()
    }

    /// Wall-clock seconds the loaded instance took to set up end to end
    /// (generation + canonicalization + `ClusterGraph` build) — the
    /// historical name for what is now `setup_timings().total_secs`, so
    /// the `SetupTimings::build_secs` *sub-phase* is deliberately not
    /// what this returns.
    #[allow(clippy::misnamed_getters)]
    pub fn build_secs(&self) -> f64 {
        self.setup.total_secs
    }

    /// Per-phase setup timings of the loaded instance
    /// (generate / canonicalize / build — see
    /// [`cgc_graphs::SetupTimings`]).
    pub fn setup_timings(&self) -> &SetupTimings {
        &self.setup
    }

    /// The derived algorithm parameters for the loaded instance.
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// Mutable access for per-run tuning beyond the builder knobs. Changes
    /// persist until [`Session::set_workload`] rebuilds the instance and
    /// re-derives the params.
    pub fn params_mut(&mut self) -> &mut Params {
        &mut self.params
    }

    /// Executor thread count runs will use.
    pub fn threads(&self) -> usize {
        self.parallel.threads()
    }

    /// Replaces the executor configuration for subsequent runs (the cached
    /// graph is kept — thread sweeps do not rebuild).
    pub fn set_parallel(&mut self, parallel: ParallelConfig) {
        self.parallel = parallel;
    }

    /// Swaps the workload. The graph is rebuilt **only when the spec
    /// differs** from the loaded one; seed/thread sweeps over one instance
    /// reuse the cached build.
    pub fn set_workload(&mut self, spec: WorkloadSpec) {
        if spec == self.spec {
            return;
        }
        let (graph, planted, setup) = spec.build_timed(&self.parallel);
        self.setup = setup;
        self.runs_on_graph = 0;
        self.delta_epoch = 0;
        self.coloring = None;
        self.graph = graph;
        self.planted = planted;
        self.spec = spec;
        self.params = derive_params(
            self.profile,
            self.graph.n_vertices(),
            self.ablation,
            self.delta_low,
        );
    }

    /// A fresh metered runtime over the cached graph, with the session's
    /// budget and executor installed — for experiments that drive
    /// pipeline stages directly instead of the full driver.
    pub fn make_net(&self) -> ClusterNet<'_> {
        ClusterNet::with_log_budget_parallel(&self.graph, self.beta, self.parallel)
    }

    /// Runs the full coloring pipeline with `seed` on the cached instance
    /// and returns the bundled [`RunOutcome`]. Identical `(spec, seed)`
    /// pairs produce bit-identical colorings and cost reports at any
    /// thread count.
    pub fn run(&mut self, seed: u64) -> RunOutcome {
        let (run, color_secs) = run_coloring_on(
            &self.graph,
            &self.params,
            self.beta,
            self.parallel,
            self.oracle_acd,
            seed,
        );
        let cache_hit = self.runs_on_graph > 0;
        self.runs_on_graph += 1;
        self.coloring = Some(run.coloring.clone());
        let setup_or_zero = |secs: f64| if cache_hit { 0.0 } else { secs };
        RunOutcome {
            run,
            spec_string: self.spec.to_string(),
            seed,
            threads: self.parallel.threads(),
            detected_cores: available_threads(),
            build_secs: setup_or_zero(self.setup.total_secs),
            generate_secs: setup_or_zero(self.setup.generate_secs),
            canonicalize_secs: setup_or_zero(self.setup.canonicalize_secs),
            graph_build_secs: setup_or_zero(self.setup.build_secs),
            cache_hit,
            delta_epoch: self.delta_epoch,
            color_secs,
        }
    }

    /// The loaded instance's delta epoch: the number of batches ever
    /// applied to it (`0` = the pristine build of the spec).
    pub fn delta_epoch(&self) -> u64 {
        self.delta_epoch
    }

    /// The most recent total proper coloring of the loaded instance (from
    /// [`Session::run`] or [`Session::apply_deltas`]), if any.
    pub fn coloring(&self) -> Option<&Coloring> {
        self.coloring.as_ref()
    }

    /// Runs a read-only palette/slack query pass over every vertex of
    /// the loaded instance against the session's stored coloring: one
    /// [`ClusterNet::par_vertex_map`] on the session's executor, each
    /// vertex walking its CSR row once and marking neighbor colors in a
    /// per-worker packed [`BitsScratch`]. A read-only pass needs no
    /// conflict-free schedule, so its output is a pure function of
    /// `(graph, coloring)`: bit-identical at any thread count (the
    /// equivalence suite pins this).
    ///
    /// Returns `None` until the session holds a total coloring of the
    /// loaded instance (run [`Session::run`] first). Like the other
    /// oracle views, nothing is charged: the sweep reads public colors.
    pub fn query_palettes(&self) -> Option<PaletteQueryOutcome> {
        let coloring = self
            .coloring
            .as_ref()
            .filter(|c| c.is_total() && c.len() == self.graph.n_vertices())?;
        let q = coloring.q();
        let start = Instant::now();
        // Per vertex: (free colors, uncolored degree, reuse slack).
        let answers = self.make_net().par_vertex_map(|v| {
            QUERY_SCRATCH.with(|cell| {
                let mut scratch = cell.borrow_mut();
                let bits = scratch.bits(q);
                let row = self.graph.neighbors(v);
                let mut colored = 0usize;
                for &u in row {
                    if let Some(c) = coloring.get(u) {
                        colored += 1;
                        bits.mark(c);
                    }
                }
                let distinct = bits.count_marked();
                (q - distinct, row.len() - colored, colored - distinct)
            })
        });
        let query_secs = start.elapsed().as_secs_f64();
        Some(PaletteQueryOutcome {
            spec_string: self.spec.to_string(),
            free_counts: answers.iter().map(|a| a.0).collect(),
            uncolored_degrees: answers.iter().map(|a| a.1).collect(),
            slacks: answers.iter().map(|a| a.0 as i64 - a.1 as i64).collect(),
            reuse_slacks: answers.iter().map(|a| a.2).collect(),
            threads: self.parallel.threads(),
            query_secs,
        })
    }

    /// Applies `batches` of edge deltas to the loaded instance **in
    /// place** and repairs the coloring incrementally: each batch goes
    /// through [`ClusterGraph::apply_delta_with`] (the incremental CSR /
    /// support-tree / `H`-table patch — byte-identical to a from-scratch
    /// rebuild of the mutated edge set), then a single dirty-region
    /// recolor pass ([`crate::mutate`]) restores a total proper
    /// `Δ' + 1`-coloring seeded from the session's previous coloring.
    ///
    /// Deterministic: the recolor seed is derived from the delta epoch,
    /// so the outcome is a pure function of `(spec, batch history)` — at
    /// any thread count.
    ///
    /// # Errors
    ///
    /// Each batch applies atomically, but the *sequence* does not: if
    /// batch `i` fails (out-of-range machine, disconnected cluster), the
    /// graph keeps batches `0..i`, the epoch counts them, and the stored
    /// coloring is dropped (it may be stale), so the next mutation or run
    /// recolors from scratch.
    pub fn apply_deltas(&mut self, batches: &[DeltaBatch]) -> Result<MutationOutcome, NetError> {
        let apply_start = Instant::now();
        let mut reports = Vec::with_capacity(batches.len());
        for batch in batches {
            match self.graph.apply_delta_with(batch, &self.parallel) {
                Ok(report) => {
                    self.delta_epoch += 1;
                    reports.push(report);
                }
                Err(e) => {
                    if !reports.is_empty() {
                        self.coloring = None;
                    }
                    return Err(e);
                }
            }
        }
        let apply_secs = apply_start.elapsed().as_secs_f64();
        let recolor_start = Instant::now();
        let res = recolor_dirty(
            &self.graph,
            self.coloring.as_ref(),
            &reports,
            self.beta,
            self.parallel,
            self.delta_epoch,
        );
        let recolor_secs = recolor_start.elapsed().as_secs_f64();
        let mut dirty_clusters: Vec<_> = reports
            .iter()
            .flat_map(|r| r.dirty_clusters.iter().copied())
            .collect();
        dirty_clusters.sort_unstable();
        dirty_clusters.dedup();
        let outcome = MutationOutcome {
            spec_string: self.spec.to_string(),
            delta_epoch: self.delta_epoch,
            batches_applied: reports.len(),
            g_inserted: reports.iter().map(|r| r.effect.inserted.len()).sum(),
            g_deleted: reports.iter().map(|r| r.effect.deleted.len()).sum(),
            h_inserted: reports.iter().map(|r| r.h_inserted.len()).sum(),
            h_removed: reports.iter().map(|r| r.h_removed.len()).sum(),
            h_mult_changed: reports.iter().map(|r| r.h_mult_changed).sum(),
            dirty_clusters: dirty_clusters.len(),
            dirty_vertices: res.dirty_vertices,
            recolored: res.recolored,
            recolor_rounds: res.rounds,
            waves_run: res.waves_run,
            largest_wave: res.largest_wave,
            wave_recolored: res.wave_recolored,
            fallback_recolored: res.fallback_recolored,
            report: res.report,
            coloring: res.coloring.clone(),
            apply_secs,
            recolor_secs,
            threads: self.parallel.threads(),
        };
        self.coloring = Some(res.coloring);
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgc_graphs::Layout;

    #[test]
    fn session_runs_and_caches_the_graph() {
        let mut s = SessionBuilder::parse("gnp:n=100,p=0.06,seed=4")
            .unwrap()
            .build();
        let a = s.run(9);
        assert!(a.run.coloring.is_total() && a.run.coloring.is_proper(s.graph()));
        assert!(!a.cache_hit);
        let b = s.run(10);
        assert!(b.cache_hit, "second run must reuse the built graph");
        assert_eq!(b.build_secs, 0.0);
        assert_ne!(a.run.coloring, b.run.coloring, "seed reaches the driver");
        let c = s.run(9);
        assert_eq!(a.run.coloring, c.run.coloring, "same seed, same coloring");
        assert_eq!(a.run.report, c.run.report);
        s.set_parallel(ParallelConfig::with_threads(2));
        let d = s.run(9);
        assert!(d.cache_hit, "a thread change keeps the built graph");
        assert_eq!(a.run.coloring, d.run.coloring, "coloring at 2 threads");
        assert_eq!(a.run.report, d.run.report, "CostReport at 2 threads");
    }

    #[test]
    fn set_workload_rebuilds_only_on_change() {
        let spec = WorkloadSpec::cabal(2, 14, 2, 3, 5);
        let mut s = Session::builder(spec).build();
        let n0 = s.graph().n_vertices();
        s.run(1);
        s.set_workload(spec);
        assert!(s.run(2).cache_hit, "identical spec keeps the cache");
        s.set_workload(spec.with_seed(6));
        let out = s.run(3);
        assert!(!out.cache_hit, "changed spec rebuilds");
        assert_eq!(s.graph().n_vertices(), n0);
    }

    #[test]
    fn builder_knobs_reach_the_driver() {
        let spec = WorkloadSpec::mixture(&cgc_graphs::MixtureConfig::default(), 5);
        let mut s = SessionBuilder::new(spec).oracle_acd(true).build();
        let out = s.run(7);
        assert!(out.run.stats.oracle_acd);
        assert!(out.run.coloring.is_total());

        let mut forced = SessionBuilder::new(WorkloadSpec::gnp(60, 0.2, 7))
            .params(ParamsProfile::Paper)
            .build();
        let out = forced.run(19);
        assert_eq!(out.run.stats.path, crate::driver::AlgoPath::LowDegree);
    }

    #[test]
    fn outcome_carries_reporting_context() {
        let spec = WorkloadSpec::gnp(50, 0.1, 2).with_layout(Layout::Star(3));
        let mut s = SessionBuilder::new(spec)
            .parallel(ParallelConfig::with_threads(2))
            .build();
        let out = s.run(3);
        assert_eq!(out.threads, 2);
        assert!(out.detected_cores >= 1);
        assert_eq!(out.spec_string, "gnp:n=50,p=0.1,seed=2,layout=star3");
        assert_eq!(out.seed, 3);
        assert!(out.color_secs >= 0.0);
        // The first (uncached) run carries the setup sub-timings; cached
        // runs zero them like build_secs.
        assert!(out.generate_secs >= 0.0 && out.canonicalize_secs >= 0.0);
        assert!(
            out.build_secs
                >= out.generate_secs + out.canonicalize_secs + out.graph_build_secs - 1e-9
        );
        let cached = s.run(4);
        assert_eq!(cached.generate_secs, 0.0);
        assert_eq!(cached.canonicalize_secs, 0.0);
        assert_eq!(cached.graph_build_secs, 0.0);
    }

    /// A delta batch over the session's current instance: every 5th
    /// inter-cluster edge deleted, a handful of absent pairs inserted.
    fn churn_batch(s: &Session) -> DeltaBatch {
        let g = s.graph();
        let n = g.comm().n_machines();
        let deletes: Vec<_> = g
            .comm()
            .edges()
            .filter(|&(a, b)| g.cluster_of(a) != g.cluster_of(b))
            .step_by(5)
            .collect();
        let inserts: Vec<_> = (0..20u64)
            .map(|i| (i as usize, i as usize + 30))
            .filter(|&(a, b)| b < n && !g.comm().has_link(a, b))
            .collect();
        DeltaBatch::new(n, &inserts, &deletes).unwrap()
    }

    #[test]
    fn apply_deltas_patches_incrementally_and_recolors() {
        let mut s = SessionBuilder::parse("gnp:n=120,p=0.05,seed=3")
            .unwrap()
            .parallel(ParallelConfig::serial())
            .build();
        let first = s.run(5);
        assert_eq!(first.delta_epoch, 0);
        let batch = churn_batch(&s);
        let out = s.apply_deltas(std::slice::from_ref(&batch)).unwrap();
        assert_eq!(out.delta_epoch, 1);
        assert_eq!(out.batches_applied, 1);
        assert!(out.g_inserted > 0 && out.g_deleted > 0);
        assert!(out.coloring.is_total() && out.coloring.is_proper(s.graph()));
        assert_eq!(out.coloring.q(), s.graph().max_degree() + 1);
        assert_eq!(s.coloring(), Some(&out.coloring));
        // The mutated graph is byte-identical to a from-scratch build of
        // the mutated edge set.
        let comm =
            cgc_net::CommGraph::from_edges(s.graph().comm().n_machines(), s.graph().comm().edges())
                .unwrap();
        let rebuilt = ClusterGraph::build(comm, s.graph().assignment().to_vec()).unwrap();
        assert_eq!(s.graph(), &rebuilt);
        // Subsequent runs report the epoch and keep the (mutated) cache.
        let next = s.run(6);
        assert_eq!(next.delta_epoch, 1);
        assert!(next.cache_hit);
    }

    #[test]
    fn apply_deltas_is_deterministic_and_thread_independent() {
        let spec = "gnp:n=100,p=0.06,seed=8";
        let mut reference: Option<(Coloring, cgc_net::CostReport)> = None;
        for threads in [1usize, 2, 4, 8] {
            let mut s = SessionBuilder::parse(spec)
                .unwrap()
                .parallel(ParallelConfig::with_threads(threads))
                .build();
            s.run(3);
            let batch = churn_batch(&s);
            let out = s.apply_deltas(&[batch.clone(), batch.clone()]).unwrap();
            assert_eq!(out.batches_applied, 2);
            assert!(out.coloring.is_proper(s.graph()), "threads={threads}");
            match &reference {
                None => reference = Some((out.coloring, out.report)),
                Some((c, r)) => {
                    assert_eq!(&out.coloring, c, "threads={threads}");
                    assert_eq!(&out.report, r, "threads={threads}");
                }
            }
        }
    }

    #[test]
    fn set_workload_resets_the_delta_epoch() {
        let mut s = SessionBuilder::parse("gnp:n=80,p=0.08,seed=2")
            .unwrap()
            .parallel(ParallelConfig::serial())
            .build();
        s.run(1);
        let batch = churn_batch(&s);
        s.apply_deltas(&[batch]).unwrap();
        assert_eq!(s.delta_epoch(), 1);
        s.set_workload("gnp:n=80,p=0.08,seed=9".parse().unwrap());
        assert_eq!(s.delta_epoch(), 0);
        assert!(s.coloring().is_none());
    }

    #[test]
    fn query_palettes_matches_the_oracles() {
        let mut s = SessionBuilder::parse("gnp:n=90,p=0.07,seed=5")
            .unwrap()
            .parallel(ParallelConfig::serial())
            .build();
        assert!(
            s.query_palettes().is_none(),
            "no palette queries before the first coloring"
        );
        s.run(2);
        let out = s.query_palettes().unwrap();
        let n = s.graph().n_vertices();
        let coloring = s.coloring().unwrap();
        assert_eq!(out.free_counts.len(), n);
        for v in 0..n {
            assert_eq!(
                out.free_counts[v],
                coloring.palette_oracle(s.graph(), v).len(),
                "vertex {v}"
            );
            assert_eq!(out.slacks[v], coloring.slack_oracle(s.graph(), v));
            assert_eq!(out.uncolored_degrees[v], 0, "the coloring is total");
            assert_eq!(out.reuse_slacks[v], coloring.reuse_slack(s.graph(), v));
        }
        assert_eq!(out.threads, 1);
    }

    #[test]
    fn query_palettes_is_thread_count_invariant() {
        let mut reference: Option<(Vec<usize>, Vec<i64>, Vec<usize>)> = None;
        for threads in [1usize, 2, 4, 8] {
            let mut s = SessionBuilder::parse("gnp:n=110,p=0.06,seed=6")
                .unwrap()
                .parallel(ParallelConfig::with_threads(threads))
                .build();
            s.run(4);
            let out = s.query_palettes().unwrap();
            let triple = (out.free_counts, out.slacks, out.reuse_slacks);
            match &reference {
                None => reference = Some(triple),
                Some(r) => assert_eq!(&triple, r, "threads={threads}"),
            }
        }
    }

    #[test]
    fn planted_info_available_for_ground_truth_checks() {
        let mut s = Session::builder(WorkloadSpec::planted_cliques(3, 10, 8)).build();
        assert_eq!(s.planted().unwrap().cliques.len(), 3);
        let out = s.run(1);
        assert!(out.run.coloring.is_proper(s.graph()));
    }
}
