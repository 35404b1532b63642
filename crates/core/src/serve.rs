//! Multi-tenant session server over the process's worker pool.
//!
//! A [`SessionServer`] accepts concurrent run requests — `(workload
//! spec, seed)` pairs from any number of tenant threads — and serves
//! them all from one process over its one worker pool
//! ([`cgc_cluster::WorkerPool`]). The canonical [`WorkloadSpec`] string is
//! already a content address (parsing it rebuilds the instance
//! bit-for-bit), so the server keys its **graph cache** by that string:
//!
//! * **cache hit** — the built [`ClusterGraph`] is reused; the request
//!   pays only the coloring run, never a rebuild;
//! * **single-flight** — concurrent requests for the same uncached spec
//!   trigger exactly one build; the rest park on a condvar and reuse the
//!   winner's graph (`coalesced` in the [`ServeOutcome`]);
//! * **admission control** — at most
//!   [`ServerConfig::max_concurrent_builds`] cold builds run at once, so
//!   a stampede of distinct cold specs cannot oversubscribe the pool;
//!   excess builders queue (time spent queueing is reported as
//!   `admission_secs`);
//! * **LRU eviction** — ready entries are charged
//!   [`ClusterGraph::approx_heap_bytes`] against a byte budget and a
//!   slot count against an entry budget; exceeding either evicts the
//!   least-recently-used entries (the entry being served is never
//!   evicted).
//!
//! Served runs go through the same
//! [`run_coloring_on`](crate::session) path as
//! [`Session::run`](crate::Session::run), so a served [`RunOutcome`] is
//! **bit-identical** (coloring and cost report) to a standalone session
//! with the same spec, seed and thread count — the differential the
//! concurrency tests pin.
//!
//! Two multi-request forms ride on the same machinery:
//!
//! * **batch runs** — [`SessionServer::run_batch`] serves a whole seed
//!   sweep as *one* request: one admission pass, one cache pin, per-seed
//!   outcomes (seeds after the first are cache hits by construction);
//! * **streaming mutations** — [`SessionServer::apply_deltas`] applies
//!   [`DeltaBatch`]es to a spec's instance and republishes it under a
//!   bumped **delta epoch**. Cache slots are keyed by
//!   `spec string + delta epoch`, the pre-delta slot is dropped the
//!   moment the mutation commits, and every request re-resolves the
//!   spec's current epoch — so a cache hit can never serve a stale
//!   pre-delta graph. Evicted mutated entries rebuild by replaying the
//!   recorded delta history over a fresh base build (deterministic, so
//!   the replay is byte-identical to the evicted graph). A mutation is
//!   one [`ClusterGraph::apply_delta_with`] per batch on a clone of the
//!   published graph; the server keeps no colorings, so the cache holds
//!   only graphs, each charged to the byte budget.
//!
//! ```
//! use cgc_core::{ServerConfig, SessionServer};
//!
//! let server = SessionServer::new(ServerConfig::default());
//! let a = server.run_str("gnp:n=80,p=0.08,seed=3", 7).unwrap();
//! let b = server.run_str("gnp:n=80,p=0.08,seed=3", 7).unwrap();
//! assert!(!a.cache_hit && b.cache_hit);
//! assert_eq!(a.outcome.run.coloring, b.outcome.run.coloring);
//! assert_eq!(server.stats().builds_started, 1);
//! ```

use crate::params::Params;
use crate::session::{run_coloring_on, RunOutcome, DEFAULT_BETA};
use cgc_cluster::{ClusterGraph, ParallelConfig};
use cgc_graphs::{SetupTimings, WorkloadParseError, WorkloadSpec};
use cgc_net::{DeltaBatch, NetError};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Server knobs: cache budgets, admission bound, and the executor every
/// tenant shares. Every served run uses the session defaults —
/// [`Params::laptop`], a `32·⌈log₂ n⌉`-bit budget, the fingerprint ACD —
/// so it is bit-identical to a default [`crate::Session`] run.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Graph-cache entry budget (ready entries; at least 1 is kept).
    pub max_entries: usize,
    /// Graph-cache byte budget over
    /// [`ClusterGraph::approx_heap_bytes`] of the ready entries (the
    /// most recent entry is kept even when it alone exceeds the budget).
    pub max_bytes: usize,
    /// Cold builds allowed in flight at once (admission control; floor 1).
    pub max_concurrent_builds: usize,
    /// Executor configuration shared by builds and runs.
    pub parallel: ParallelConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_entries: 64,
            max_bytes: usize::MAX,
            max_concurrent_builds: 2,
            parallel: ParallelConfig::from_env(),
        }
    }
}

impl ServerConfig {
    /// Sets the cache entry budget.
    pub fn max_entries(mut self, max_entries: usize) -> Self {
        self.max_entries = max_entries;
        self
    }

    /// Sets the cache byte budget.
    pub fn max_bytes(mut self, max_bytes: usize) -> Self {
        self.max_bytes = max_bytes;
        self
    }

    /// Sets the admission bound on concurrent cold builds.
    pub fn max_concurrent_builds(mut self, builds: usize) -> Self {
        self.max_concurrent_builds = builds;
        self
    }

    /// Overrides the executor configuration (default: honor `CGC_THREADS`).
    pub fn parallel(mut self, parallel: ParallelConfig) -> Self {
        self.parallel = parallel;
        self
    }
}

/// One served run: the standard [`RunOutcome`] plus how the cache
/// treated the request.
#[derive(Debug, Clone)]
pub struct ServeOutcome {
    /// The run itself — bit-identical to a standalone [`crate::Session`]
    /// with the same spec, seed and thread count.
    pub outcome: RunOutcome,
    /// The spec's graph was already cached when the request arrived.
    pub cache_hit: bool,
    /// The request arrived while another tenant was building the same
    /// spec and reused that build (single-flight).
    pub coalesced: bool,
    /// Wall-clock seconds the request queued behind admission control
    /// or an in-flight build before its graph was available.
    pub admission_secs: f64,
}

/// Counter snapshot from [`SessionServer::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerStats {
    /// Cold builds the server actually started (one per distinct spec
    /// unless evicted — the single-flight pin).
    pub builds_started: u64,
    /// Requests served from an already-ready cache entry.
    pub cache_hits: u64,
    /// Requests that built (or queued to build) a missing entry.
    pub cache_misses: u64,
    /// Requests that waited on another tenant's in-flight build.
    pub coalesced_waits: u64,
    /// Ready entries evicted to honor the budgets.
    pub evictions: u64,
    /// Ready entries currently cached.
    pub cached_entries: usize,
    /// Approximate heap bytes currently charged to the cache.
    pub cached_bytes: usize,
}

/// A built instance plus everything derived from it, shared by every
/// request for the same spec.
struct CachedInstance {
    graph: ClusterGraph,
    setup: SetupTimings,
    params: Params,
    bytes: usize,
}

enum Slot {
    /// A tenant is building this spec; waiters park on the condvar.
    Building,
    /// Built and servable; `last_used` orders LRU eviction.
    Ready {
        inst: Arc<CachedInstance>,
        last_used: u64,
    },
}

#[derive(Default)]
struct CacheState {
    slots: HashMap<String, Slot>,
    /// Per-base-spec delta history; the spec's current epoch is the
    /// history length. Cold builds at epoch > 0 replay it over a fresh
    /// base build.
    deltas: HashMap<String, Arc<Vec<DeltaBatch>>>,
    /// Monotone logical clock stamping `last_used`.
    clock: u64,
    ready_bytes: usize,
    ready_entries: usize,
    builds_in_flight: usize,
}

impl CacheState {
    /// The spec's current delta epoch (batches ever applied).
    fn epoch_of(&self, base: &str) -> u64 {
        self.deltas.get(base).map_or(0, |d| d.len() as u64)
    }
}

/// Cache-slot key for `base` at `epoch`: the bare spec string for the
/// pristine build, `spec#deltaN` afterwards — stale pre-delta entries
/// are unreachable by construction because requests always key by the
/// spec's *current* epoch.
fn slot_key(base: &str, epoch: u64) -> String {
    if epoch == 0 {
        base.to_owned()
    } else {
        format!("{base}#delta{epoch}")
    }
}

/// The multi-tenant session server. See the [module docs](self).
///
/// `&self` methods are fully thread-safe; share the server across
/// tenant threads behind an [`Arc`].
pub struct SessionServer {
    cfg: ServerConfig,
    state: Mutex<CacheState>,
    cond: Condvar,
    builds_started: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    coalesced_waits: AtomicU64,
    evictions: AtomicU64,
}

impl std::fmt::Debug for SessionServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionServer")
            .field("cfg", &self.cfg)
            .field("stats", &self.stats())
            .finish()
    }
}

/// How `acquire` obtained the instance.
struct Acquired {
    inst: Arc<CachedInstance>,
    /// Delta epoch of the served instance (the spec's current epoch at
    /// resolution time).
    epoch: u64,
    cache_hit: bool,
    coalesced: bool,
    admission_secs: f64,
}

impl SessionServer {
    /// A server with `cfg`; no graphs are built until the first request.
    pub fn new(cfg: ServerConfig) -> Self {
        SessionServer {
            cfg,
            state: Mutex::new(CacheState::default()),
            cond: Condvar::new(),
            builds_started: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            coalesced_waits: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The configuration the server was created with.
    pub fn config(&self) -> &ServerConfig {
        &self.cfg
    }

    /// Serves one run over an already-acquired instance. `treat_cached`
    /// zeroes the setup timings (the graph was not built for this run).
    fn serve_on(&self, acq: &Acquired, base: &str, seed: u64, treat_cached: bool) -> ServeOutcome {
        let parallel = self.cfg.parallel;
        ServeOutcome {
            outcome: RunOutcome::new(
                run_coloring_on(
                    &acq.inst.graph,
                    &acq.inst.params,
                    DEFAULT_BETA,
                    parallel,
                    false,
                    seed,
                ),
                base.to_owned(),
                seed,
                parallel.threads(),
                (!treat_cached).then_some(&acq.inst.setup),
                acq.epoch,
            ),
            cache_hit: acq.cache_hit,
            coalesced: acq.coalesced,
            admission_secs: acq.admission_secs,
        }
    }

    /// Serves one run request. Parses nothing — see [`Self::run_str`]
    /// for the string form tenants usually hold.
    pub fn run(&self, spec: &WorkloadSpec, seed: u64) -> ServeOutcome {
        let base = spec.to_string();
        let acq = self.acquire(spec, &base);
        let cached = acq.cache_hit || acq.coalesced;
        self.serve_on(&acq, &base, seed, cached)
    }

    /// Serves one run request addressed by a compact workload string
    /// (`"gnp:n=120,p=0.05,seed=1"`).
    pub fn run_str(&self, spec: &str, seed: u64) -> Result<ServeOutcome, WorkloadParseError> {
        Ok(self.run(&spec.parse()?, seed))
    }

    /// Serves a whole seed sweep over one spec as a **single request**:
    /// the instance is resolved once (one admission pass, one
    /// hit/miss/coalesced tally, one cache pin), then every seed runs on
    /// the pinned graph. Outcomes come back in seed order; seeds after
    /// the first report `cache_hit` with zeroed setup timings (the graph
    /// was already resident for them by construction), and all share the
    /// batch's single admission wait. Each per-seed outcome is still
    /// bit-identical to a standalone [`crate::Session`] run.
    pub fn run_batch(&self, spec: &WorkloadSpec, seeds: &[u64]) -> Vec<ServeOutcome> {
        let base = spec.to_string();
        let Some((&first, rest)) = seeds.split_first() else {
            return Vec::new();
        };
        let acq = self.acquire(spec, &base);
        let cached = acq.cache_hit || acq.coalesced;
        let mut out = Vec::with_capacity(seeds.len());
        out.push(self.serve_on(&acq, &base, first, cached));
        for &seed in rest {
            out.push(self.serve_on(&acq, &base, seed, true));
        }
        out
    }

    /// [`Self::run_batch`] addressed by a compact workload string.
    pub fn run_batch_str(
        &self,
        spec: &str,
        seeds: &[u64],
    ) -> Result<Vec<ServeOutcome>, WorkloadParseError> {
        Ok(self.run_batch(&spec.parse()?, seeds))
    }

    /// Applies `batches` of edge deltas to `spec`'s instance and
    /// republishes it under the bumped delta epoch; returns the new
    /// epoch. The pre-delta cache entry is dropped in the same critical
    /// section that publishes the mutated one, so no request observes
    /// the stale graph afterwards. The recorded history makes evicted
    /// mutated entries rebuildable (cold builds replay it), and the
    /// mutation itself is atomic: a failing batch leaves the published
    /// instance, the history and the epoch untouched.
    ///
    /// Concurrent mutations of the same spec are safe (the commit
    /// revalidates the epoch it mutated and retries on interleaving).
    pub fn apply_deltas(
        &self,
        spec: &WorkloadSpec,
        batches: &[DeltaBatch],
    ) -> Result<u64, NetError> {
        let base = spec.to_string();
        loop {
            let acq = self.acquire(spec, &base);
            let mut graph = acq.inst.graph.clone();
            for batch in batches {
                graph.apply_delta_with(batch, &self.cfg.parallel)?;
            }
            let params = Params::laptop(graph.n_vertices());
            let bytes = graph.approx_heap_bytes();
            let inst = Arc::new(CachedInstance {
                graph,
                setup: acq.inst.setup,
                params,
                bytes,
            });
            let mut state = self.state.lock().unwrap();
            if state.epoch_of(&base) != acq.epoch {
                // Another tenant mutated the spec between our acquire and
                // commit; redo the work against the newer instance.
                continue;
            }
            let history = Arc::make_mut(state.deltas.entry(base.clone()).or_default());
            history.extend(batches.iter().cloned());
            let new_epoch = history.len() as u64;
            // Drop the stale pre-delta entry (coherence) and publish the
            // mutated one in the same critical section.
            let old_key = slot_key(&base, acq.epoch);
            if matches!(state.slots.get(&old_key), Some(Slot::Ready { .. })) {
                if let Some(Slot::Ready { inst: old, .. }) = state.slots.remove(&old_key) {
                    state.ready_bytes -= old.bytes;
                    state.ready_entries -= 1;
                }
            }
            let new_key = slot_key(&base, new_epoch);
            state.clock += 1;
            let stamp = state.clock;
            state.ready_bytes += inst.bytes;
            state.ready_entries += 1;
            state.slots.insert(
                new_key.clone(),
                Slot::Ready {
                    inst,
                    last_used: stamp,
                },
            );
            self.evict_over_budget(&mut state, &new_key);
            drop(state);
            self.cond.notify_all();
            return Ok(new_epoch);
        }
    }

    /// Obtains the built instance currently published for `base` —
    /// resolving the spec's **current delta epoch** on every pass, so a
    /// mutation that lands while this request waits is picked up, never
    /// raced past — building it single-flight under admission control
    /// when missing.
    fn acquire(&self, spec: &WorkloadSpec, base: &str) -> Acquired {
        let arrived = Instant::now();
        let mut waited_on_build = false;
        let mut state = self.state.lock().unwrap();
        loop {
            let epoch = state.epoch_of(base);
            let key = slot_key(base, epoch);
            state.clock += 1;
            let stamp = state.clock;
            match state.slots.get_mut(&key) {
                Some(Slot::Ready { inst, last_used }) => {
                    *last_used = stamp;
                    let inst = Arc::clone(inst);
                    if waited_on_build {
                        self.cache_misses.fetch_add(1, Ordering::Relaxed);
                        self.coalesced_waits.fetch_add(1, Ordering::Relaxed);
                    } else {
                        self.cache_hits.fetch_add(1, Ordering::Relaxed);
                    }
                    return Acquired {
                        inst,
                        epoch,
                        cache_hit: !waited_on_build,
                        coalesced: waited_on_build,
                        admission_secs: arrived.elapsed().as_secs_f64(),
                    };
                }
                Some(Slot::Building) => {
                    // Single-flight: another tenant owns this build.
                    waited_on_build = true;
                    state = self.cond.wait(state).unwrap();
                }
                None => {
                    if state.builds_in_flight >= self.cfg.max_concurrent_builds.max(1) {
                        // Admission control: the build lanes are full.
                        state = self.cond.wait(state).unwrap();
                        continue;
                    }
                    state.slots.insert(key.clone(), Slot::Building);
                    state.builds_in_flight += 1;
                    let replay = state.deltas.get(base).cloned();
                    drop(state);
                    let admission_secs = arrived.elapsed().as_secs_f64();
                    let inst = self.build_instance(spec, &key, replay);
                    self.cache_misses.fetch_add(1, Ordering::Relaxed);
                    return Acquired {
                        inst,
                        epoch,
                        cache_hit: false,
                        coalesced: false,
                        admission_secs,
                    };
                }
            }
        }
    }

    /// Runs the cold build for `key` (the `Building` slot is already
    /// installed and an admission lane held), publishes the result and
    /// wakes every waiter. At epoch > 0 the recorded delta history is
    /// replayed over the fresh base build — both are deterministic, so
    /// the result is byte-identical to the evicted mutated graph. A
    /// panicking build releases the slot and the lane before
    /// propagating, so waiters retry instead of hanging.
    fn build_instance(
        &self,
        spec: &WorkloadSpec,
        key: &str,
        replay: Option<Arc<Vec<DeltaBatch>>>,
    ) -> Arc<CachedInstance> {
        self.builds_started.fetch_add(1, Ordering::Relaxed);
        let built = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let (mut graph, _, setup) = spec.build_timed(&self.cfg.parallel);
            if let Some(batches) = &replay {
                for batch in batches.iter() {
                    graph
                        .apply_delta_with(batch, &self.cfg.parallel)
                        .expect("recorded delta history replays over the base build");
                }
            }
            let params = Params::laptop(graph.n_vertices());
            let bytes = graph.approx_heap_bytes();
            Arc::new(CachedInstance {
                graph,
                setup,
                params,
                bytes,
            })
        }));
        let mut state = self.state.lock().unwrap();
        state.builds_in_flight -= 1;
        match built {
            Ok(inst) => {
                state.clock += 1;
                let stamp = state.clock;
                state.ready_bytes += inst.bytes;
                state.ready_entries += 1;
                state.slots.insert(
                    key.to_owned(),
                    Slot::Ready {
                        inst: Arc::clone(&inst),
                        last_used: stamp,
                    },
                );
                self.evict_over_budget(&mut state, key);
                drop(state);
                self.cond.notify_all();
                inst
            }
            Err(panic) => {
                state.slots.remove(key);
                drop(state);
                self.cond.notify_all();
                std::panic::resume_unwind(panic);
            }
        }
    }

    /// Evicts least-recently-used ready entries until both budgets hold,
    /// never touching `protect` (the entry being served) and always
    /// keeping at least one entry.
    fn evict_over_budget(&self, state: &mut CacheState, protect: &str) {
        while state.ready_entries > 1
            && (state.ready_entries > self.cfg.max_entries.max(1)
                || state.ready_bytes > self.cfg.max_bytes)
        {
            let victim = state
                .slots
                .iter()
                .filter_map(|(k, slot)| match slot {
                    Slot::Ready { last_used, .. } if k != protect => Some((*last_used, k)),
                    _ => None,
                })
                .min()
                .map(|(_, k)| k.clone());
            let Some(victim) = victim else { break };
            if let Some(Slot::Ready { inst, .. }) = state.slots.remove(&victim) {
                state.ready_bytes -= inst.bytes;
                state.ready_entries -= 1;
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Counter snapshot: builds, hit/miss/coalesced tallies, evictions,
    /// and the current cache occupancy.
    pub fn stats(&self) -> ServerStats {
        let state = self.state.lock().unwrap();
        ServerStats {
            builds_started: self.builds_started.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            coalesced_waits: self.coalesced_waits.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            cached_entries: state.ready_entries,
            cached_bytes: state.ready_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SessionBuilder;

    fn cfg() -> ServerConfig {
        ServerConfig::default().parallel(ParallelConfig::serial())
    }

    #[test]
    fn second_request_for_a_spec_hits_the_cache() {
        let server = SessionServer::new(cfg());
        let spec = "gnp:n=90,p=0.07,seed=2";
        let a = server.run_str(spec, 5).unwrap();
        assert!(!a.cache_hit && !a.coalesced && !a.outcome.cache_hit);
        assert!(a.outcome.build_secs > 0.0);
        let b = server.run_str(spec, 6).unwrap();
        assert!(b.cache_hit && b.outcome.cache_hit);
        assert_eq!(b.outcome.build_secs, 0.0);
        let s = server.stats();
        assert_eq!(s.builds_started, 1, "the hit path must not rebuild");
        assert_eq!((s.cache_hits, s.cache_misses), (1, 1));
        assert_eq!(s.cached_entries, 1);
        assert!(s.cached_bytes > 0);
    }

    #[test]
    fn served_run_is_bit_identical_to_a_standalone_session() {
        let spec = "cabal:c=2,k=14,anti=2,ext=3,seed=5";
        let server = SessionServer::new(cfg());
        let served = server.run_str(spec, 11).unwrap();
        let mut standalone = SessionBuilder::parse(spec)
            .unwrap()
            .parallel(ParallelConfig::serial())
            .build();
        let direct = standalone.run(11);
        assert_eq!(served.outcome.run.coloring, direct.run.coloring);
        assert_eq!(served.outcome.run.report, direct.run.report);
    }

    #[test]
    fn lru_eviction_honors_the_entry_budget() {
        let server = SessionServer::new(cfg().max_entries(2));
        let specs = [
            "gnp:n=60,p=0.1,seed=1",
            "gnp:n=60,p=0.1,seed=2",
            "gnp:n=60,p=0.1,seed=3",
        ];
        server.run_str(specs[0], 1).unwrap();
        server.run_str(specs[1], 1).unwrap();
        // Touch spec 0 so spec 1 is the LRU victim when spec 2 arrives.
        assert!(server.run_str(specs[0], 2).unwrap().cache_hit);
        server.run_str(specs[2], 1).unwrap();
        let s = server.stats();
        assert_eq!((s.cached_entries, s.evictions), (2, 1));
        assert!(server.run_str(specs[0], 3).unwrap().cache_hit);
        assert!(
            !server.run_str(specs[1], 3).unwrap().cache_hit,
            "the LRU entry was evicted and must rebuild"
        );
        assert_eq!(server.stats().builds_started, 4);
    }

    /// A small insert+delete batch over a server-built instance of
    /// `spec` (computed from a standalone build of the same spec).
    fn churn_batch(spec: &str) -> cgc_net::DeltaBatch {
        let session = SessionBuilder::parse(spec)
            .unwrap()
            .parallel(ParallelConfig::serial())
            .build();
        let g = session.graph();
        let n = g.comm().n_machines();
        let deletes: Vec<_> = g
            .comm()
            .edges()
            .filter(|&(a, b)| g.cluster_of(a) != g.cluster_of(b))
            .step_by(4)
            .collect();
        let inserts: Vec<_> = (0..15usize)
            .map(|i| (i, i + 21))
            .filter(|&(a, b)| b < n && !g.comm().has_link(a, b))
            .collect();
        cgc_net::DeltaBatch::new(n, &inserts, &deletes).unwrap()
    }

    /// The coherence regression: a cache hit after `apply_deltas` must
    /// serve the *mutated* instance — bit-identical to a standalone
    /// session that applied the same deltas — never the stale pre-delta
    /// graph, also after a second write in a row on the same spec.
    #[test]
    fn cache_hit_after_apply_deltas_reflects_the_mutation() {
        let spec = "gnp:n=100,p=0.06,seed=4";
        let batch = churn_batch(spec);
        // An insert-only follow-up batch that applies on top of `batch`.
        let batch2 = {
            let session = SessionBuilder::parse(spec)
                .unwrap()
                .parallel(ParallelConfig::serial())
                .build();
            let g = session.graph();
            let n = g.comm().n_machines();
            let inserts: Vec<_> = (0..12usize)
                .map(|i| (i, i + 23))
                .filter(|&(a, b)| b < n && !g.comm().has_link(a, b))
                .collect();
            cgc_net::DeltaBatch::new(n, &inserts, &[]).unwrap()
        };
        let server = SessionServer::new(cfg());
        let before = server.run_str(spec, 9).unwrap();
        assert_eq!(before.outcome.delta_epoch, 0);
        // Ground truth: a standalone session that applies the same batches.
        let mut session = SessionBuilder::parse(spec)
            .unwrap()
            .parallel(ParallelConfig::serial())
            .build();
        for (i, b) in [batch, batch2].iter().enumerate() {
            let epoch = server
                .apply_deltas(&spec.parse().unwrap(), std::slice::from_ref(b))
                .unwrap();
            assert_eq!(epoch, i as u64 + 1);
            let after = server.run_str(spec, 9).unwrap();
            assert!(
                after.cache_hit,
                "the mutated instance is published ready — a hit, not a rebuild"
            );
            assert_eq!(after.outcome.delta_epoch, epoch);
            session.apply_deltas(std::slice::from_ref(b)).unwrap();
            let direct = session.run(9);
            assert_eq!(
                after.outcome.run.coloring, direct.run.coloring,
                "epoch {epoch}"
            );
            assert_eq!(after.outcome.run.report, direct.run.report, "epoch {epoch}");
        }
        assert_eq!(server.stats().builds_started, 1, "mutation never rebuilds");
    }

    #[test]
    fn evicted_mutated_entry_rebuilds_by_replaying_the_delta_history() {
        let spec = "gnp:n=90,p=0.07,seed=6";
        let server = SessionServer::new(cfg().max_entries(1));
        server.run_str(spec, 2).unwrap();
        let batch = churn_batch(spec);
        server
            .apply_deltas(&spec.parse().unwrap(), std::slice::from_ref(&batch))
            .unwrap();
        // Push the mutated entry out of the 1-slot cache...
        server.run_str("gnp:n=60,p=0.1,seed=1", 1).unwrap();
        // ...then come back: a cold build that must replay the history.
        let again = server.run_str(spec, 2).unwrap();
        assert!(!again.cache_hit);
        assert_eq!(again.outcome.delta_epoch, 1);
        let mut session = SessionBuilder::parse(spec)
            .unwrap()
            .parallel(ParallelConfig::serial())
            .build();
        session.apply_deltas(std::slice::from_ref(&batch)).unwrap();
        let direct = session.run(2);
        assert_eq!(again.outcome.run.coloring, direct.run.coloring);
        assert_eq!(again.outcome.run.report, direct.run.report);
    }

    #[test]
    fn run_batch_serves_a_seed_sweep_as_one_request() {
        let spec = "gnp:n=90,p=0.07,seed=2";
        let server = SessionServer::new(cfg());
        let seeds = [1u64, 2, 3];
        let outs = server.run_batch_str(spec, &seeds).unwrap();
        assert_eq!(outs.len(), 3);
        assert!(!outs[0].cache_hit && !outs[0].outcome.cache_hit);
        assert!(outs[0].outcome.build_secs > 0.0);
        for o in &outs[1..] {
            assert!(o.outcome.cache_hit, "later seeds reuse the pinned graph");
            assert_eq!(o.outcome.build_secs, 0.0);
        }
        let s = server.stats();
        assert_eq!(s.builds_started, 1);
        assert_eq!(
            (s.cache_hits, s.cache_misses),
            (0, 1),
            "one admission tally for the whole sweep"
        );
        // Per-seed outcomes stay bit-identical to standalone sessions.
        let mut standalone = SessionBuilder::parse(spec)
            .unwrap()
            .parallel(ParallelConfig::serial())
            .build();
        for (out, &seed) in outs.iter().zip(seeds.iter()) {
            let direct = standalone.run(seed);
            assert_eq!(out.outcome.run.coloring, direct.run.coloring);
            assert_eq!(out.outcome.run.report, direct.run.report);
        }
        assert!(server.run_batch_str(spec, &[]).unwrap().is_empty());
    }

    #[test]
    fn byte_budget_keeps_only_what_fits_but_never_empties() {
        // A 1-byte budget cannot hold any graph, yet the most recent
        // entry must survive so the server keeps making progress.
        let server = SessionServer::new(cfg().max_bytes(1));
        server.run_str("gnp:n=50,p=0.1,seed=1", 1).unwrap();
        server.run_str("gnp:n=50,p=0.1,seed=2", 1).unwrap();
        let s = server.stats();
        assert_eq!(
            s.cached_entries, 1,
            "over-budget entries evict to the floor"
        );
        assert_eq!(s.evictions, 1);
    }
}
