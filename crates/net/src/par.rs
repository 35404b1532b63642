//! Sharded multi-threaded execution: shard plans, the process's worker
//! pool, and deterministic fill/map-reduce helpers.
//!
//! The simulator *models* a distributed network, so its hot loops are
//! embarrassingly parallel by construction: every vertex's fold result
//! depends only on its own CSR row, every generator row on its own RNG
//! substream, every edge shard on its own contiguous input range. This
//! module partitions an index space into contiguous per-thread shards,
//! runs a kernel on each shard, and writes each shard's results into a
//! **disjoint slice** of the output buffer (or merges per-shard results in
//! a fixed shard order). The merge is deterministic, so the parallel
//! result is **bit-identical** to the sequential one at any thread count —
//! the invariant `crates/cluster/tests/parallel_equivalence.rs` and
//! `crates/graphs/tests/gen_equivalence.rs` pin and the property that
//! keeps [`crate::CostMeter`] accounting trustworthy under parallel
//! execution (costs are charged analytically on the calling thread, never
//! inside workers).
//!
//! Every sharded write goes through one primitive, [`for_each_part`]: it
//! cuts the output at monotone bounds into consecutive `&mut` sub-slices,
//! split off with `split_at_mut`, and hands each shard its own. The
//! borrow checker, not a comment, rules out two shards writing one slot,
//! and a bad cut panics before any shard runs. [`fill_sharded`] (per-item
//! outputs over a plan), [`map_reduce_on`]'s result slots,
//! [`patch_csr_rows`] and `cgc_cluster`'s row fills are thin layers over
//! it; the worker pool's job hand-off is the one place that needs raw
//! pointers. None of them takes a pool: the shard count is the whole
//! request.
//!
//! [`ParallelConfig`] is just a thread count. Passes over CSR rows shard
//! by [`ShardPlan::from_prefix`] (contiguous rows balanced by entry mass,
//! cut only at row boundaries); O(1)-per-item passes shard by
//! [`ShardPlan::even`].
//!
//! The module lives in `cgc_net` — the bottom of the crate stack — so that
//! every layer above it shares one executor: [`crate::canonical_edges`]
//! (the sharded edge canonicalizer behind `CommGraph` ingest, delta
//! batches and `cgc_graphs`' `HSpec`s), `cgc_cluster`'s aggregation rounds
//! and sharded `ClusterGraph::build`, and `cgc_graphs`' sharded
//! generators. `cgc_cluster` re-exports everything here, so existing
//! imports keep working.
//!
//! # The worker pool
//!
//! A driver run executes thousands of aggregation rounds, and spawning
//! threads per round costs ~50–150 µs — more than a small round's
//! compute. The process therefore has one pool, a `static` every sharded
//! call dispatches on, whose worker threads stay **parked between
//! rounds**: dispatch publishes a borrowed, type-erased job and bumps an
//! epoch word (seqlock style — workers spin briefly on the epoch, then
//! park) that also carries the round's active worker count in its low
//! bits, unparks exactly the workers the round uses, and waits on a
//! completion countdown. A warm dispatch performs no heap allocation,
//! spawns no threads, and never disturbs parked workers a narrow round
//! skips. Worker `w` always runs slot `w + 1` of a dispatch (the caller
//! itself runs slot 0); [`for_each_part`] hands the parts out in the
//! order the slots claim them, so which thread writes which part may
//! change from round to round, while the parts themselves never do.
//!
//! The pool starts empty and **grows in place**: a dispatch of `s` shards
//! first spawns, under the dispatch lock, whichever workers of slots
//! `1..s` do not exist yet, each starting from the current epoch word.
//! Workers are never retired, so every runtime, build and generator in
//! the process reuses the same parked workers — across rounds, runs and
//! seed/thread sweeps — and a runtime built before a wider one keeps
//! running on its own thread count. [`WorkerPool::total_threads_spawned`]
//! counts the spawns.
//!
//! A one-shard call, or a call from inside a pool job, runs its shards
//! **inline** on the calling thread, in shard order. Every output is
//! thread-count invariant, so that is only slower, never different.
//!
//! Determinism contract: kernels must be pure functions of `(index,
//! topology, inputs)` — the `Fn` (not `FnMut`) bounds on the sharded
//! primitives enforce this at the type level.

use std::cell::UnsafeCell;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

/// Thread count for the parallel executor.
///
/// `threads == 1` is the sequential path: primitives run inline on the
/// calling thread with zero spawn overhead (and stay allocation-free when
/// warm). Any `threads >= 2` runs shard workers; results are bit-identical
/// either way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelConfig {
    threads: usize,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        Self::serial()
    }
}

impl ParallelConfig {
    /// Sequential execution (one shard, calling thread).
    pub fn serial() -> Self {
        ParallelConfig { threads: 1 }
    }

    /// Explicit thread count (clamped to ≥ 1).
    pub fn with_threads(threads: usize) -> Self {
        ParallelConfig {
            threads: threads.max(1),
        }
    }

    /// One thread per available hardware core.
    pub fn max_parallel() -> Self {
        Self::with_threads(available_threads())
    }

    /// Reads the `CGC_THREADS` environment variable: unset or unparsable
    /// means sequential (an unparsable value additionally warns once on
    /// stderr, naming the value), `0` or `max` means one thread per core,
    /// any other number is taken literally. This is how the CI matrix and
    /// the experiment binaries select their thread count.
    pub fn from_env() -> Self {
        Self::from_env_values(std::env::var("CGC_THREADS").ok().as_deref())
    }

    /// The pure core of [`Self::from_env`], taking the raw variable value
    /// directly so the fallback rules are testable without mutating the
    /// process environment. `None` means the variable is unset; an
    /// unparsable value falls back to [`Self::serial`] and warns on stderr
    /// once per process, naming the rejected value, so a typo in a
    /// service's environment degrades to the documented sequential
    /// behavior instead of being silently misread.
    pub fn from_env_values(threads: Option<&str>) -> Self {
        static WARN_THREADS: std::sync::Once = std::sync::Once::new();
        match threads {
            None => Self::serial(),
            Some(s) => match s.trim() {
                "max" | "0" => Self::max_parallel(),
                other => match other.parse::<usize>() {
                    Ok(t) => Self::with_threads(t),
                    Err(_) => {
                        WARN_THREADS.call_once(|| {
                            eprintln!(
                                "cgc: unparsable CGC_THREADS={other:?}; \
                                 falling back to sequential execution"
                            );
                        });
                        Self::serial()
                    }
                },
            },
        }
    }

    /// Configured worker count (≥ 1).
    #[inline]
    pub fn threads(&self) -> usize {
        self.threads
    }
}

/// Detected hardware parallelism (1 when detection fails).
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// A shard plan over `n` vertices: `bounds` has one entry per shard edge,
/// `bounds[s]..bounds[s + 1]` being shard `s`'s contiguous vertex range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    bounds: Vec<usize>,
}

impl ShardPlan {
    /// One shard covering everything — the sequential plan.
    pub fn serial(n: usize) -> Self {
        ShardPlan { bounds: vec![0, n] }
    }

    /// At most `shards` contiguous ranges of (near-)equal item count over
    /// `n` items.
    pub fn even(n: usize, shards: usize) -> Self {
        let shards = shards.min(n.max(1));
        if shards <= 1 {
            return Self::serial(n);
        }
        let mut bounds = Vec::with_capacity(shards + 1);
        bounds.push(0);
        for s in 1..shards {
            bounds.push(s * n / shards);
        }
        bounds.push(n);
        ShardPlan { bounds }
    }

    /// At most `shards` contiguous item ranges over the `prefix.len() - 1`
    /// items described by a monotone prefix-sum array, balanced by prefix
    /// mass plus a per-item constant (so edgeless stretches still split).
    /// Used wherever per-item work is a prefix sum: CSR degrees, cluster
    /// member counts, `H`-row widths. A pure function of `(prefix,
    /// shards)` — never of runtime load — so plans are reproducible.
    ///
    /// Because cuts land on item boundaries only, a single item heavier
    /// than `total / shards` cannot be subdivided: each bound **retargets**
    /// against the mass actually remaining (rather than walking fixed
    /// absolute targets, which let a hub absorb several shards' quotas and
    /// silently yielded empty shards around it), so the rows *after* a hub
    /// still split evenly across the remaining shards. The shard holding
    /// the hub still carries at least the hub's whole mass.
    ///
    /// # Panics
    ///
    /// Panics when `prefix` is empty.
    pub fn from_prefix(prefix: &[usize], shards: usize) -> Self {
        let n = prefix.len() - 1;
        let shards = shards.min(n.max(1));
        if shards <= 1 {
            return Self::serial(n);
        }
        let base = prefix[0];
        let mass = |v: usize| (prefix[v] - base) + v;
        let total = mass(n);
        let mut bounds = Vec::with_capacity(shards + 1);
        bounds.push(0);
        let mut v = 0usize;
        for s in 1..shards {
            // Give this shard an even share of what is left, not of the
            // original total: after a hub overflows its share, the
            // remaining shards re-balance over the remaining mass.
            let consumed = mass(v);
            let target = consumed + (total - consumed) / (shards - s + 1);
            while v < n && mass(v) < target {
                v += 1;
            }
            bounds.push(v.min(n));
        }
        bounds.push(n);
        // The walk above is monotone; normalize defensively anyway.
        for i in 1..bounds.len() {
            if bounds[i] < bounds[i - 1] {
                bounds[i] = bounds[i - 1];
            }
        }
        // Collapse empty shards (duplicate bounds): dispatching an empty
        // shard wakes a worker that does nothing, every round. Dropping
        // one removes only a no-op slot: the kept shards' item ranges are
        // unchanged, so fills and shard-ordered reductions produce
        // bit-identical results.
        bounds.dedup();
        ShardPlan { bounds }
    }

    /// Number of shards.
    #[inline]
    pub fn n_shards(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Shard `s`'s vertex range.
    #[inline]
    pub fn range(&self, s: usize) -> std::ops::Range<usize> {
        self.bounds[s]..self.bounds[s + 1]
    }

    /// The raw bounds array (`n_shards + 1` entries).
    #[inline]
    pub fn bounds(&self) -> &[usize] {
        &self.bounds
    }

    /// Total vertices covered.
    #[inline]
    pub fn n_vertices(&self) -> usize {
        *self.bounds.last().unwrap()
    }
}

/// How many spin iterations a worker burns on the epoch counter before
/// parking on the condvar. Kept small: back-to-back rounds are caught in
/// the spin window, while an idle pool (or an oversubscribed single-core
/// box) parks quickly instead of burning the caller's CPU.
const SPIN_ROUNDS: u32 = 64;

/// The job pointer published to workers: a borrowed `&dyn Fn(usize)`
/// erased to `'static`. Sound because [`WorkerPool::run`] does not return
/// until every worker finished the job, so the borrow outlives every use.
type RawJob = *const (dyn Fn(usize) + Sync + 'static);

/// Bit split of [`PoolShared::epoch`]: the low [`ACTIVE_BITS`] bits carry
/// the round's active worker count, the high bits the round counter.
const ACTIVE_BITS: u32 = 16;
/// Mask selecting the active-count field of a packed epoch word.
const ACTIVE_MASK: u64 = (1 << ACTIVE_BITS) - 1;

/// Shared pool state. The `job` cell is written by the dispatcher strictly
/// before the epoch bump (and only while the workers of the previous round
/// are quiescent), and read by workers strictly after they observe the new
/// epoch — the acquire/release pair on `epoch` orders the accesses.
struct PoolShared {
    /// Packed round word: round counter in the high `64 - ACTIVE_BITS`
    /// bits, the round's active worker count in the low [`ACTIVE_BITS`]
    /// bits. Packing both into one atomic makes a worker's skip decision
    /// (`slot > active`) part of the same snapshot as the epoch it
    /// consumed. The fields must not be split into separate atomics: a
    /// worker skipping a narrow round is *not* waited on by the
    /// dispatcher, so the next (wider) dispatch can overwrite the round
    /// state while that worker is still between loads — with a split
    /// `active`, the stale worker could join the new round, then observe
    /// the un-consumed epoch bump and run the job a second time (double-
    /// decrementing `remaining`), or read a `None` job after the round
    /// ended.
    epoch: AtomicU64,
    job: UnsafeCell<Option<SendJob>>,
    /// Countdown of the current round's active workers (slots whose packed
    /// `active` covers them; skipping slots never touch it).
    remaining: AtomicUsize,
    panicked: AtomicBool,
    done: Mutex<()>,
    done_cv: Condvar,
}

// SAFETY: the epoch protocol above makes the UnsafeCell a single-writer /
// quiescent-readers slot; everything else is atomics and sync primitives.
#[allow(unsafe_code)]
unsafe impl Sync for PoolShared {}

/// A raw job pointer that may cross threads (the dispatch protocol, not
/// the type system, guarantees its validity).
#[derive(Clone, Copy)]
struct SendJob(RawJob);
// SAFETY: the one field points at a `dyn Fn(usize) + Sync`, which any
// thread may call through a shared reference, and `WorkerPool::run` keeps
// the pointee alive until every worker has finished with it.
#[allow(unsafe_code)]
unsafe impl Send for SendJob {}

/// Counts every OS thread the pool ever spawned in this process — the
/// `alloc_free` suite asserts it stays constant across warm rounds (no
/// per-round spawning), and the pool-lifecycle suite pins each growth.
static POOL_THREADS_SPAWNED: AtomicU64 = AtomicU64::new(0);

std::thread_local! {
    /// True while this thread is executing a pool job (the dispatching
    /// caller on slot 0, or a parked worker on its slot). A nested
    /// dispatch on the — one, process-wide — pool from inside a job
    /// would deadlock: same-thread re-entry self-deadlocks on the dispatch
    /// mutex, and a worker-slot dispatch waits on a round that is itself
    /// waiting on that worker. So [`for_each_shard`] (and with it
    /// [`for_each_part`]) runs nested fan-out inline instead.
    static IN_POOL_JOB: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// RAII set/restore of [`IN_POOL_JOB`] (restored on unwind too, so a
/// panicking job does not leave the thread marked busy). Restoring the
/// *prior* value — rather than clearing — keeps the guard correct even if
/// a thread ever enters it while already inside a pool job; clearing
/// there would unmark the thread mid-job and let a later dispatch
/// re-enter the pool it must avoid.
struct PoolJobGuard {
    prev: bool,
}

impl PoolJobGuard {
    fn enter() -> Self {
        PoolJobGuard {
            prev: IN_POOL_JOB.with(|f| f.replace(true)),
        }
    }
}

impl Drop for PoolJobGuard {
    fn drop(&mut self) {
        IN_POOL_JOB.with(|f| f.set(self.prev));
    }
}

fn lock_ignore_poison<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Serializes this crate's tests that dispatch at more than one shard —
/// directly, or through an entry point that does (`canonical_edges`,
/// `CommGraph::from_edges_with`, `DeltaBatch::new_with`,
/// [`patch_csr_rows`], ...). `cargo test` runs sibling tests concurrently
/// in one process, and the spawn-count assertions are only meaningful
/// when no sibling grows the pool mid-window.
#[cfg(test)]
pub(crate) fn pool_test_lock() -> std::sync::MutexGuard<'static, ()> {
    static POOL_TEST_LOCK: Mutex<()> = Mutex::new(());
    lock_ignore_poison(&POOL_TEST_LOCK)
}

/// The process's pool of parked worker threads, driven by an epoch
/// counter (see the [module docs](self)). One dispatch runs a borrowed
/// job once per *shard slot*: the calling thread takes slot 0, worker `w`
/// takes slot `w + 1`. Dispatches are serialized internally. There is one
/// instance, a private `static` that [`for_each_part`] dispatches on; the
/// type is public for [`WorkerPool::total_threads_spawned`].
pub struct WorkerPool {
    shared: PoolShared,
    /// The dispatch lock, guarding the workers' unpark handles (worker
    /// `w` at index `w`). A dispatch holds it for its whole round, so it
    /// also serializes dispatches from concurrent callers and orders each
    /// growth before the round that needs it.
    workers: Mutex<Vec<std::thread::Thread>>,
}

/// The pool: empty until the first dispatch of two or more shards.
static POOL: WorkerPool = WorkerPool {
    shared: PoolShared {
        epoch: AtomicU64::new(0),
        job: UnsafeCell::new(None),
        remaining: AtomicUsize::new(0),
        panicked: AtomicBool::new(false),
        done: Mutex::new(()),
        done_cv: Condvar::new(),
    },
    workers: Mutex::new(Vec::new()),
};

impl WorkerPool {
    /// Total pool worker threads ever spawned in this process — a
    /// regression sentinel: warm pooled rounds must not move it, and it
    /// only grows to the widest dispatch minus one.
    pub fn total_threads_spawned() -> u64 {
        POOL_THREADS_SPAWNED.load(Ordering::Relaxed)
    }

    /// Runs `job(slot)` once per slot in `0..shards` — slot 0 inline on
    /// the calling thread, the rest on the parked workers — and returns
    /// after **all** active slots finished. Under the dispatch lock it
    /// first spawns whatever workers `shards` lacks, each starting from
    /// the current epoch word so it waits for the next round. Workers
    /// beyond `shards` skip the round entirely, so a narrow dispatch on a
    /// wide pool only waits on the workers it actually uses. A warm
    /// dispatch allocates nothing and spawns nothing; `shards <= 1` runs
    /// fully inline without touching the pool.
    ///
    /// The job must treat `slot` as its only identity (pure kernels over
    /// disjoint data).
    ///
    /// `run` is **not reentrant**: a job must not dispatch from inside its
    /// slot — same-thread re-entry would self-deadlock on the dispatch
    /// mutex, and a dispatch from a worker slot would wait on a round that
    /// is waiting on that worker. Nested sharded work inside a job goes
    /// through [`for_each_part`], which detects the nesting and runs it
    /// inline.
    ///
    /// # Panics
    ///
    /// Panics on a nested dispatch from inside a pool job (which would
    /// otherwise deadlock), and when `shards - 1` exceeds the workers the
    /// packed epoch word can count. Propagates a panic if the job panicked
    /// on any slot (after all slots quiesced, so borrowed data is never
    /// used after `run` unwinds).
    fn run(&'static self, shards: usize, job: &(dyn Fn(usize) + Sync)) {
        assert!(
            !IN_POOL_JOB.with(|f| f.get()),
            "nested WorkerPool::run from inside a pool job would deadlock; \
             use for_each_part, which runs nested fan-out inline"
        );
        let workers = shards.max(1) - 1;
        if workers == 0 {
            job(0);
            return;
        }
        assert!(
            workers as u64 <= ACTIVE_MASK,
            "the pool serves at most {ACTIVE_MASK} workers, not {workers}"
        );
        let shared = &self.shared;
        let mut threads = lock_ignore_poison(&self.workers);
        if threads.len() < workers {
            // The epoch only moves under this lock, so every new worker
            // starts level with the round counter and waits for the round
            // published below. Join handles are dropped: workers live as
            // long as the process, and a job's panic reaches the
            // dispatcher through `panicked`, not through a join.
            let seen = shared.epoch.load(Ordering::Relaxed);
            while threads.len() < workers {
                let slot = threads.len() + 1;
                POOL_THREADS_SPAWNED.fetch_add(1, Ordering::Relaxed);
                let handle = std::thread::Builder::new()
                    .name(format!("cgc-pool-{}", slot - 1))
                    .spawn(move || worker_loop(shared, slot, seen))
                    .expect("spawning a pool worker");
                threads.push(handle.thread().clone());
            }
        }
        shared.remaining.store(workers, Ordering::Release);
        // SAFETY: every worker the previous round used is quiescent (its
        // dispatch waited for `remaining == 0`), and workers that skipped
        // a round never touch the job cell, so this write does not race;
        // lifetime erasure is sound because we wait below.
        #[allow(unsafe_code)]
        unsafe {
            *shared.job.get() = Some(SendJob(std::mem::transmute::<
                *const (dyn Fn(usize) + Sync),
                RawJob,
            >(job as *const _)));
        }
        // Publish the new round word — counter bumped, this round's active
        // worker count in the low bits — then unpark exactly the workers
        // the round uses, so a narrow dispatch on a wide pool never
        // disturbs the parked workers it skips. Publish-then-unpark cannot
        // lose a wake-up: an `unpark` racing a worker's `park` leaves a
        // token that makes the `park` return immediately. Dispatches are
        // serialized by the dispatch lock, so the read-modify-write below
        // does not race other dispatchers.
        let cur = shared.epoch.load(Ordering::Relaxed);
        let next = (((cur >> ACTIVE_BITS) + 1) << ACTIVE_BITS) | workers as u64;
        shared.epoch.store(next, Ordering::Release);
        for t in &threads[..workers] {
            t.unpark();
        }
        let caller = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _busy = PoolJobGuard::enter();
            job(0)
        }));
        // Wait for every worker: spin through the common photo-finish, then
        // park on the done condvar.
        let mut spins = 0u32;
        while shared.remaining.load(Ordering::Acquire) != 0 {
            spins += 1;
            if spins < SPIN_ROUNDS {
                std::hint::spin_loop();
            } else {
                let mut g = lock_ignore_poison(&shared.done);
                while shared.remaining.load(Ordering::Acquire) != 0 {
                    g = shared
                        .done_cv
                        .wait(g)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                }
            }
        }
        // SAFETY: every active worker finished (`remaining == 0`), so no
        // one reads the job cell until the next round's publication.
        #[allow(unsafe_code)]
        unsafe {
            *shared.job.get() = None;
        }
        // Clear the worker-panic flag *before* any early return: a round
        // where both the caller and a worker panicked must not leave the
        // flag set for the next (unrelated) dispatch.
        let worker_panicked = shared.panicked.swap(false, Ordering::AcqRel);
        if let Err(payload) = caller {
            std::panic::resume_unwind(payload);
        }
        if worker_panicked {
            panic!("a WorkerPool job panicked on a worker thread");
        }
    }
}

/// A worker's life: wait for each round after `seen`, run its slot when
/// the round covers it, and go back to waiting. Workers never exit; a
/// panicking job is caught and reported to the dispatcher.
fn worker_loop(shared: &PoolShared, slot: usize, mut seen: u64) {
    loop {
        // Wait for the next epoch: spin briefly, then park.
        let mut spins = 0u32;
        loop {
            let e = shared.epoch.load(Ordering::Acquire);
            if e != seen {
                seen = e;
                break;
            }
            spins += 1;
            if spins < SPIN_ROUNDS {
                std::hint::spin_loop();
            } else {
                // Parked between rounds. The dispatcher publishes the
                // epoch *before* unparking, and an `unpark` racing this
                // `park` leaves a token that makes it return immediately,
                // so the wake-up cannot be lost; spurious returns (stale
                // tokens) just loop back to the epoch check.
                std::thread::park();
            }
        }
        // A round narrower than the pool does not involve this worker:
        // skip the job and leave `remaining` (which only counts active
        // workers) untouched. The active count comes from the *same*
        // packed word as the observed epoch, so the decision cannot pair
        // a stale count with a newer round (see the `epoch` field docs).
        if slot > (seen & ACTIVE_MASK) as usize {
            continue;
        }
        // SAFETY: the dispatcher published the job before the epoch this
        // worker observed (acquire/release on `epoch`), and it keeps the
        // job alive until this worker decrements `remaining` below.
        #[allow(unsafe_code)]
        let job = unsafe {
            &*(*shared.job.get())
                .expect("epoch advanced without a published job")
                .0
        };
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _busy = PoolJobGuard::enter();
            job(slot)
        }));
        if outcome.is_err() {
            shared.panicked.store(true, Ordering::Release);
        }
        if shared.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            let _g = lock_ignore_poison(&shared.done);
            shared.done_cv.notify_one();
        }
    }
}

/// Runs `job(s)` for every shard `s in 0..shards`: on the pool when
/// `shards > 1` (slot 0 on the caller — allocation- and spawn-free when
/// warm), and inline on the calling thread, in shard order, otherwise. A
/// call from inside a pool job (which must not re-dispatch — see
/// [`WorkerPool::run`]) also runs inline, so nested sharded work
/// completes instead of deadlocking. Blocks until every shard completed;
/// propagates panics either way.
fn for_each_shard(shards: usize, job: &(dyn Fn(usize) + Sync)) {
    if shards > 1 && !IN_POOL_JOB.with(|f| f.get()) {
        POOL.run(shards, job)
    } else {
        (0..shards.max(1)).for_each(job)
    }
}

/// Cuts `out` into the consecutive parts `out[cut(s)..cut(s + 1)]`, one
/// per shard `s in 0..shards`, and runs `job(s, part)` once per part: on
/// the process's worker pool (grown to `shards` slots if it is narrower),
/// inline in shard order for one shard or a call from inside a pool job.
/// Blocks until every part is done.
///
/// This is the one way a sharded pass writes shared output. Each part is
/// a `&mut` sub-slice split off the front of a `Mutex`-guarded tail with
/// `split_at_mut`, as the dispatch's slots claim them in part order, so
/// no two shards can ever hold the same slot. The slot that runs part `s`
/// need not be slot `s`: `job` must depend only on `s`, the part and its
/// captured inputs, which keeps every output thread-count invariant. A
/// claim is one short lock, and nothing is allocated.
///
/// # Panics
///
/// Panics on the calling thread, before any part runs, unless `cut(0) ==
/// 0`, `cut` is monotone, and `cut(shards) == out.len()`; the message
/// names the offending shard. Propagates a panic from any `job`.
pub fn for_each_part<T: Send>(
    shards: usize,
    out: &mut [T],
    cut: impl Fn(usize) -> usize + Sync,
    job: impl Fn(usize, &mut [T]) + Sync,
) {
    let mut end = cut(0);
    assert_eq!(end, 0, "shard 0 starts at {end}, not at 0");
    for s in 0..shards {
        let next = cut(s + 1);
        assert!(next >= end, "shard {s} would run backwards: {end}..{next}");
        end = next;
    }
    assert_eq!(
        end,
        out.len(),
        "shard {} ends at {end}, but the output holds {} elements",
        shards.saturating_sub(1),
        out.len()
    );
    let tail = Mutex::new((0usize, out));
    for_each_shard(shards, &|_slot| {
        let (s, part) = {
            // Only a `cut` that changed its answers since the check above
            // can panic in here; every later claim then panics too.
            let mut claim = tail.lock().expect("an earlier part claim panicked");
            let (next, rest) = &mut *claim;
            let s = *next;
            if s == shards {
                return; // `shards == 0`: one inline slot, no part.
            }
            let (part, after) = std::mem::take(rest).split_at_mut(cut(s + 1) - cut(s));
            *rest = after;
            *next += 1;
            (s, part)
        };
        job(s, part);
    });
}

/// [`for_each_part`] over the shards of `plan`: `fill(start, part)` runs
/// once per shard with `part = out[plan.range(s)]` and `start` its first
/// index. `out` holds one initialized element per item of the plan (the
/// caller sizes and seeds it), so the result is the sequential
/// `for (v, x) in out.iter_mut().enumerate()` pass at any shard count
/// whenever `fill` is pure. Allocation-free; spawn-free on a warm pool.
///
/// # Panics
///
/// Panics when `out.len() != plan.n_vertices()`.
pub fn fill_sharded<T: Send>(
    out: &mut [T],
    plan: &ShardPlan,
    fill: impl Fn(usize, &mut [T]) + Sync,
) {
    let bounds = plan.bounds();
    for_each_part(
        plan.n_shards(),
        out,
        |s| bounds[s],
        |s, part| fill(bounds[s], part),
    );
}

/// Runs `work` over every shard of `plan` (on the pool, inline for a
/// one-shard plan), collecting each shard's result and folding them **in
/// shard order** with `merge` — the deterministic reduction used by the
/// sharded `ClusterGraph::build`, the generators and layout expansion in
/// `cgc_graphs`, [`crate::canonical_edges`] and the fingerprint engine's
/// aggregate pass. A plan always has at least one shard, so the reduction
/// is total.
pub fn map_reduce_on<T: Send>(
    plan: &ShardPlan,
    work: impl Fn(std::ops::Range<usize>) -> T + Sync,
    mut merge: impl FnMut(&mut T, T),
) -> T {
    let shards = plan.n_shards();
    if shards <= 1 {
        return work(plan.range(0));
    }
    let mut results: Vec<Option<T>> = (0..shards).map(|_| None).collect();
    for_each_part(
        shards,
        &mut results,
        |s| s,
        |s, slot| slot[0] = Some(work(plan.range(s))),
    );
    let mut parts = results.into_iter();
    let mut acc = parts
        .next()
        .flatten()
        .expect("shard 0 always produces a result");
    for r in parts {
        merge(&mut acc, r.expect("every shard produced a result"));
    }
    acc
}

/// Fixed-order k-way merge of sorted, locally-deduplicated `(item, count)`
/// lists into the globally sorted item list plus a summed count column.
/// Equal items across lists sum their counts; the output is the unique
/// sorted dedup of the union, independent of how the items were
/// partitioned — the deterministic reduction behind the sharded
/// `ClusterGraph::build` multiplicities and [`crate::CommGraph`]'s sharded
/// edge ingest.
pub fn kway_merge_counted<T: Ord + Copy>(lists: Vec<Vec<(T, u32)>>) -> (Vec<T>, Vec<u32>) {
    if lists.len() == 1 {
        let only = lists.into_iter().next().expect("one list");
        let mut items = Vec::with_capacity(only.len());
        let mut counts = Vec::with_capacity(only.len());
        for (p, m) in only {
            items.push(p);
            counts.push(m);
        }
        return (items, counts);
    }
    let upper: usize = lists.iter().map(Vec::len).sum();
    let mut items = Vec::with_capacity(upper);
    let mut counts = Vec::with_capacity(upper);
    let mut heads = vec![0usize; lists.len()];
    loop {
        let mut best: Option<T> = None;
        for (i, list) in lists.iter().enumerate() {
            if let Some(&(p, _)) = list.get(heads[i]) {
                if best.is_none_or(|b| p < b) {
                    best = Some(p);
                }
            }
        }
        let Some(p) = best else { break };
        let mut m = 0u32;
        for (i, list) in lists.iter().enumerate() {
            if let Some(&(q, c)) = list.get(heads[i]) {
                if q == p {
                    m += c;
                    heads[i] += 1;
                }
            }
        }
        items.push(p);
        counts.push(m);
    }
    (items, counts)
}

/// [`kway_merge_counted`] without the count column: merges sorted,
/// locally-deduplicated lists into their unique sorted union. Duplicates
/// across lists collapse; the result is independent of the partition.
/// Delegates to the counted merge with unit counts (one merge loop to
/// maintain); the single-list case — every serial pipeline — returns the
/// list untouched.
pub fn kway_merge_dedup<T: Ord + Copy>(lists: Vec<Vec<T>>) -> Vec<T> {
    if lists.len() == 1 {
        return lists.into_iter().next().expect("one list");
    }
    let counted = lists
        .into_iter()
        .map(|l| l.into_iter().map(|p| (p, 1u32)).collect())
        .collect();
    kway_merge_counted(counted).0
}

/// Patches the CSR of an undirected graph with **sorted rows** by edge
/// insertions and deletions, returning the new `(offsets, adj)`.
/// `inserted` / `deleted` are canonical edges `(u, v)` with `u < v`;
/// inserted edges must be absent and deleted edges present. Each edge
/// patches both endpoints' rows. Untouched rows copy wholesale and
/// touched rows re-merge in one linear pass, sharded over row ranges
/// balanced by new-row mass — a sorted row is unique, so the output is
/// byte-identical to rebuilding the whole CSR, at any thread
/// count. This is the shared incremental-maintenance kernel behind
/// `CommGraph::apply_delta` and the cluster layer's `H`-adjacency patch.
pub fn patch_csr_rows(
    offsets: &[usize],
    adj: &[usize],
    inserted: &[(usize, usize)],
    deleted: &[(usize, usize)],
    par: &ParallelConfig,
) -> (Vec<usize>, Vec<usize>) {
    // Directed `(row, entry)` pairs for both endpoints of every edge,
    // sorted so each row's additions and removals are contiguous
    // ascending runs.
    let directed = |edges: &[(usize, usize)]| {
        let mut pairs = Vec::with_capacity(2 * edges.len());
        for &(u, v) in edges {
            pairs.push((u, v));
            pairs.push((v, u));
        }
        pairs.sort_unstable();
        pairs
    };
    let (ins_pairs, del_pairs) = (directed(inserted), directed(deleted));
    let n = offsets.len() - 1;
    // New offsets: old degree adjusted by the per-row patch counts.
    let mut new_offsets = vec![0usize; n + 1];
    {
        let (mut ii, mut di) = (0usize, 0usize);
        for v in 0..n {
            let mut deg = offsets[v + 1] - offsets[v];
            while ii < ins_pairs.len() && ins_pairs[ii].0 == v {
                deg += 1;
                ii += 1;
            }
            while di < del_pairs.len() && del_pairs[di].0 == v {
                deg -= 1;
                di += 1;
            }
            new_offsets[v + 1] = new_offsets[v] + deg;
        }
    }
    let mut new_adj = vec![0usize; new_offsets[n]];
    let plan = ShardPlan::from_prefix(&new_offsets, par.threads());
    let bounds = plan.bounds();
    // Shard `s` writes exactly the entries of its rows,
    // `new_adj[new_offsets[bounds[s]]..new_offsets[bounds[s + 1]]]`.
    for_each_part(
        plan.n_shards(),
        &mut new_adj,
        |s| new_offsets[bounds[s]],
        |s, part| {
            let rows = plan.range(s);
            let mut ii = ins_pairs.partition_point(|p| p.0 < rows.start);
            let mut di = del_pairs.partition_point(|p| p.0 < rows.start);
            let mut out = 0usize;
            for v in rows {
                let old_row = &adj[offsets[v]..offsets[v + 1]];
                let ins_start = ii;
                while ii < ins_pairs.len() && ins_pairs[ii].0 == v {
                    ii += 1;
                }
                let del_start = di;
                while di < del_pairs.len() && del_pairs[di].0 == v {
                    di += 1;
                }
                if ins_start == ii && del_start == di {
                    // Untouched row: wholesale copy.
                    part[out..out + old_row.len()].copy_from_slice(old_row);
                    out += old_row.len();
                } else {
                    // Touched row: merge additions in, skip removals.
                    let ins_row = &ins_pairs[ins_start..ii];
                    let del_row = &del_pairs[del_start..di];
                    let (mut ip, mut dp) = (0usize, 0usize);
                    for &w in old_row {
                        while ip < ins_row.len() && ins_row[ip].1 < w {
                            part[out] = ins_row[ip].1;
                            out += 1;
                            ip += 1;
                        }
                        if dp < del_row.len() && del_row[dp].1 == w {
                            dp += 1;
                            continue;
                        }
                        part[out] = w;
                        out += 1;
                    }
                    for &(_, w) in &ins_row[ip..] {
                        part[out] = w;
                        out += 1;
                    }
                }
            }
            debug_assert_eq!(out, part.len());
        },
    );
    (new_offsets, new_adj)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// CSR degree offsets of a path on `n` vertices (degrees 1, 2, …, 2, 1)
    /// — the stand-in topology the plan tests cut up.
    fn path_offsets(n: usize) -> Vec<usize> {
        let mut offsets = vec![0usize];
        for v in 0..n {
            let deg = if n == 1 {
                0
            } else if v == 0 || v == n - 1 {
                1
            } else {
                2
            };
            offsets.push(offsets[v] + deg);
        }
        offsets
    }

    fn path_plan(n: usize, cfg: &ParallelConfig) -> ShardPlan {
        ShardPlan::from_prefix(&path_offsets(n), cfg.threads())
    }

    #[test]
    fn serial_plan_is_one_shard() {
        let p = path_plan(10, &ParallelConfig::serial());
        assert_eq!(p.n_shards(), 1);
        assert_eq!(p.range(0), 0..10);
    }

    #[test]
    fn plans_cover_all_vertices_without_overlap() {
        for threads in [2, 3, 4, 8, 64] {
            for p in [
                path_plan(23, &ParallelConfig::with_threads(threads)),
                ShardPlan::even(23, threads),
            ] {
                assert_eq!(p.bounds()[0], 0);
                assert_eq!(p.n_vertices(), 23);
                for s in 1..p.bounds().len() {
                    assert!(p.bounds()[s] >= p.bounds()[s - 1]);
                }
            }
        }
    }

    #[test]
    fn more_threads_than_vertices_collapses() {
        let p = path_plan(3, &ParallelConfig::with_threads(16));
        assert!(p.n_shards() <= 3);
        assert_eq!(p.n_vertices(), 3);
    }

    #[test]
    fn balanced_edges_splits_a_skewed_star() {
        // Star: vertex 0 has degree n-1, the rest degree 1. Balanced-edge
        // sharding must not put everything in shard 0.
        let n = 101;
        let mut offsets = vec![0usize, n - 1];
        for v in 1..n {
            offsets.push(offsets[v] + 1);
        }
        let p = ShardPlan::from_prefix(&offsets, 4);
        assert!(p.n_shards() >= 2);
        // The heavy head occupies an early shard; later shards still get
        // nonempty ranges.
        assert!(!p.range(p.n_shards() - 1).is_empty());
    }

    #[test]
    fn fill_sharded_matches_sequential_extend() {
        let _serial = pool_test_lock();
        for threads in [1, 2, 3, 8] {
            let plan = path_plan(57, &ParallelConfig::with_threads(threads));
            let mut out = vec![0u64; 57];
            fill_sharded(&mut out, &plan, |start, part| {
                for (i, cell) in part.iter_mut().enumerate() {
                    *cell = ((start + i) as u64).wrapping_mul(0x9E3779B97F4A7C15);
                }
            });
            let expect: Vec<u64> = (0..57u64)
                .map(|v| v.wrapping_mul(0x9E3779B97F4A7C15))
                .collect();
            assert_eq!(out, expect, "threads={threads}");
        }
    }

    #[test]
    fn map_reduce_is_shard_ordered() {
        let _serial = pool_test_lock();
        for threads in [1, 2, 4, 7] {
            let plan = path_plan(40, &ParallelConfig::with_threads(threads));
            // Concatenation is order-sensitive: any non-shard-order merge
            // would scramble the result.
            let got = map_reduce_on(&plan, |r| r.collect::<Vec<usize>>(), |a, b| a.extend(b));
            assert_eq!(got, (0..40).collect::<Vec<usize>>(), "threads={threads}");
        }
    }

    #[test]
    fn from_prefix_covers_and_balances() {
        // Skewed prefix: one heavy head, long light tail.
        let mut prefix = vec![0usize];
        for v in 0..100 {
            prefix.push(prefix[v] + if v == 0 { 1000 } else { 1 });
        }
        for shards in [1, 2, 4, 8] {
            let p = ShardPlan::from_prefix(&prefix, shards);
            assert_eq!(p.bounds()[0], 0);
            assert_eq!(p.n_vertices(), 100);
            for s in 0..p.n_shards() {
                assert!(
                    !p.range(s).is_empty(),
                    "empty shards must be collapsed (shards={shards}, s={s})"
                );
            }
        }
        // With 2+ shards the heavy head must not absorb everything.
        let p = ShardPlan::from_prefix(&prefix, 4);
        assert!(p.n_shards() >= 2);
        assert!(!p.range(p.n_shards() - 1).is_empty());
    }

    #[test]
    fn pool_runs_every_slot_and_reuses_threads() {
        let _serial = pool_test_lock();
        use std::sync::atomic::{AtomicUsize, Ordering};
        POOL.run(4, &|_| {});
        let spawned = WorkerPool::total_threads_spawned();
        for round in 1..=10usize {
            let hits = AtomicUsize::new(0);
            POOL.run(4, &|slot| {
                assert!(slot < 4);
                hits.fetch_add(slot + 1, Ordering::Relaxed);
            });
            assert_eq!(hits.load(Ordering::Relaxed), 1 + 2 + 3 + 4, "round {round}");
        }
        // Narrow rounds on the wide pool only run (and wait on) the active
        // slots.
        for shards in [1, 2, 3] {
            let hits = AtomicUsize::new(0);
            POOL.run(shards, &|slot| {
                assert!(slot < shards, "slot {slot} beyond {shards} shards");
                hits.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(hits.load(Ordering::Relaxed), shards);
        }
        assert_eq!(
            WorkerPool::total_threads_spawned(),
            spawned,
            "warm dispatches must not spawn threads"
        );
    }

    #[test]
    fn narrow_then_wide_dispatches_interleave_safely() {
        let _serial = pool_test_lock();
        // Regression: a worker skipping a narrow round is not waited on by
        // the dispatcher, so the next (wider) dispatch races its skip
        // decision. With the round's active count split from the epoch,
        // the stale worker could join the new round and then run its job a
        // second time (hits > shards) or die on a vanished job (deadlock).
        // Alternating widths for many warm rounds makes that window hot.
        for round in 0..10_000usize {
            let shards = if round % 2 == 0 { 2 } else { 8 };
            let hits = AtomicUsize::new(0);
            POOL.run(shards, &|slot| {
                assert!(slot < shards, "slot {slot} beyond {shards} shards");
                hits.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(hits.load(Ordering::Relaxed), shards, "round {round}");
        }
    }

    #[test]
    fn nested_dispatch_runs_inline() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let _serial = pool_test_lock();
        // A direct nested `run` is a documented error, not a deadlock.
        let direct = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            POOL.run(2, &|_| POOL.run(2, &|_| {}));
        }));
        assert!(direct.is_err(), "nested run must fail fast, not deadlock");
        // `for_each_shard` from inside a pool job (any slot) detects the
        // nesting and runs every shard inline, in shard order, on the
        // thread that owns the outer slot — including depth 2.
        let inner_hits = AtomicUsize::new(0);
        POOL.run(3, &|_| {
            let owner = std::thread::current().id();
            let order = Mutex::new(Vec::new());
            for_each_shard(2, &|a| {
                for_each_shard(2, &|b| {
                    assert_eq!(
                        std::thread::current().id(),
                        owner,
                        "nested shard left its thread"
                    );
                    lock_ignore_poison(&order).push((a, b));
                    inner_hits.fetch_add(1, Ordering::Relaxed);
                });
            });
            assert_eq!(
                *lock_ignore_poison(&order),
                [(0, 0), (0, 1), (1, 0), (1, 1)],
                "nested shards run in shard order"
            );
        });
        assert_eq!(inner_hits.load(Ordering::Relaxed), 3 * 2 * 2);
        // The pool still works after the nested rounds.
        let hits = AtomicUsize::new(0);
        POOL.run(4, &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn pool_propagates_worker_panics() {
        let _serial = pool_test_lock();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            POOL.run(2, &|slot| {
                if slot == 1 {
                    panic!("boom");
                }
            });
        }));
        assert!(r.is_err(), "worker panic must reach the dispatcher");
        // The pool stays usable after a panicked round, and the panic flag
        // does not leak into it — even when caller AND worker both panic.
        POOL.run(2, &|_| {});
        let both = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            POOL.run(2, &|_| panic!("everyone"));
        }));
        assert!(both.is_err());
        POOL.run(2, &|_| {}); // must not spuriously panic
    }

    #[test]
    fn kway_merges_are_partition_independent() {
        // The reference: plain sort + dedup of the union.
        let all: Vec<(u32, u32)> = vec![(1, 1), (3, 2), (3, 1), (7, 1), (9, 4), (9, 1)];
        let mut expect_items: Vec<u32> = all.iter().map(|&(p, _)| p).collect();
        expect_items.sort_unstable();
        expect_items.dedup();
        for split in [1usize, 2, 3] {
            let mut lists: Vec<Vec<(u32, u32)>> = vec![Vec::new(); split];
            for (i, &(p, c)) in all.iter().enumerate() {
                lists[i % split].push((p, c));
            }
            for l in &mut lists {
                l.sort_unstable();
                // Local dedup with summed counts, as shards do.
                let mut merged: Vec<(u32, u32)> = Vec::new();
                for &(p, c) in l.iter() {
                    match merged.last_mut() {
                        Some((q, m)) if *q == p => *m += c,
                        _ => merged.push((p, c)),
                    }
                }
                *l = merged;
            }
            let plain: Vec<Vec<u32>> = lists
                .iter()
                .map(|l| l.iter().map(|&(p, _)| p).collect())
                .collect();
            let (items, counts) = kway_merge_counted(lists);
            assert_eq!(items, expect_items, "split={split}");
            assert_eq!(counts.iter().sum::<u32>(), 10, "split={split}");
            assert_eq!(kway_merge_dedup(plain), expect_items, "split={split}");
        }
    }

    #[test]
    fn from_prefix_retargets_around_a_hub() {
        // One row of mass 1000 then 99 rows of mass 1. The fixed-target
        // walk used to let the hub absorb every intermediate target,
        // collapsing to 2 shards; retargeting re-balances the tail.
        let mut prefix = vec![0usize];
        for v in 0..100 {
            prefix.push(prefix[v] + if v == 0 { 1000 } else { 1 });
        }
        let p = ShardPlan::from_prefix(&prefix, 4);
        assert_eq!(p.n_shards(), 4, "post-hub rows must fill all shards");
        for s in 0..p.n_shards() {
            assert!(!p.range(s).is_empty(), "shard {s} empty: {:?}", p.bounds());
        }
        // The hub is alone in its shard; the ~99 tail rows split evenly.
        assert_eq!(p.range(0), 0..1);
        let tail_sizes: Vec<usize> = (1..4).map(|s| p.range(s).len()).collect();
        let (min, max) = (
            *tail_sizes.iter().min().unwrap(),
            *tail_sizes.iter().max().unwrap(),
        );
        assert!(max - min <= 1, "tail imbalance: {tail_sizes:?}");
    }

    #[test]
    fn env_config_parses() {
        // Only exercises the parser paths that don't depend on the
        // environment (from_env itself is covered by the CI matrix).
        assert_eq!(ParallelConfig::serial().threads(), 1);
        assert_eq!(ParallelConfig::with_threads(0).threads(), 1);
        assert!(ParallelConfig::max_parallel().threads() >= 1);
    }

    #[test]
    fn from_env_values_honors_the_documented_fallbacks() {
        // Unset or unparsable means sequential — the documented contract
        // (unparsable used to silently become with_threads(1) without the
        // warning; the values below must all land on serial()).
        assert_eq!(
            ParallelConfig::from_env_values(None),
            ParallelConfig::serial()
        );
        for bad in ["garbage", "-3", "2.5", "1e3", ""] {
            assert_eq!(
                ParallelConfig::from_env_values(Some(bad)),
                ParallelConfig::serial(),
                "CGC_THREADS={bad:?} must fall back to sequential"
            );
        }
        assert_eq!(ParallelConfig::from_env_values(Some(" 4 ")).threads(), 4);
        for all in ["max", "0"] {
            assert_eq!(
                ParallelConfig::from_env_values(Some(all)).threads(),
                available_threads()
            );
        }
    }

    /// Runs `f`, expecting it to panic, and returns the panic message.
    fn panic_message(f: impl FnOnce()) -> String {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
            .expect_err("the call must panic");
        match payload.downcast::<String>() {
            Ok(msg) => *msg,
            Err(payload) => payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .unwrap_or_default(),
        }
    }

    /// Every shard sees exactly `out[cut(s)..cut(s + 1)]`, once, empty
    /// parts included, inline and at every pool width.
    #[test]
    fn for_each_part_hands_each_shard_exactly_its_cut() {
        let _serial = pool_test_lock();
        let len = 29usize;
        for threads in [1usize, 2, 4, 8] {
            // Pairs of equal cuts make every other part empty.
            let cut = |s: usize| if s == threads { len } else { (s / 2) * 7 };
            let mut out: Vec<usize> = (0..len).collect();
            let claimed: Vec<AtomicUsize> = (0..threads).map(|_| AtomicUsize::new(0)).collect();
            for_each_part(threads, &mut out, cut, |s, part| {
                claimed[s].fetch_add(1, Ordering::Relaxed);
                assert_eq!(
                    part,
                    (cut(s)..cut(s + 1)).collect::<Vec<_>>(),
                    "shard {s} of {threads}"
                );
                for x in part.iter_mut() {
                    *x += 1000 * s;
                }
            });
            for (s, c) in claimed.iter().enumerate() {
                assert_eq!(c.load(Ordering::Relaxed), 1, "shard {s} of {threads}");
                let want: Vec<usize> = (cut(s)..cut(s + 1)).map(|i| i + 1000 * s).collect();
                assert_eq!(out[cut(s)..cut(s + 1)], want, "shard {s} of {threads}");
            }
        }
    }

    #[test]
    fn for_each_part_inside_a_pool_job_runs_inline() {
        let _serial = pool_test_lock();
        POOL.run(3, &|_| {
            let owner = std::thread::current().id();
            let mut local = vec![usize::MAX; 6];
            for_each_part(
                3,
                &mut local,
                |s| 2 * s,
                |s, part| {
                    assert_eq!(std::thread::current().id(), owner, "part left its thread");
                    part.fill(s);
                },
            );
            assert_eq!(local, [0, 0, 1, 1, 2, 2]);
        });
    }

    #[test]
    fn bad_cuts_panic_naming_the_shard_before_any_part_runs() {
        let _serial = pool_test_lock();
        let ran = AtomicUsize::new(0);
        let mut out = [0u8; 10];
        let mut call = |cuts: &[usize]| {
            panic_message(|| {
                for_each_part(
                    cuts.len() - 1,
                    &mut out,
                    |s| cuts[s],
                    |_, _| {
                        ran.fetch_add(1, Ordering::Relaxed);
                    },
                )
            })
        };
        let backwards = call(&[0, 5, 3, 10]);
        assert!(backwards.contains("shard 1"), "{backwards}");
        let short = call(&[0, 4, 8]);
        assert!(short.contains("shard 1 ends at 8"), "{short}");
        let long = call(&[0, 6, 12]);
        assert!(long.contains("shard 1 ends at 12"), "{long}");
        let offset = call(&[2, 10]);
        assert!(offset.contains("shard 0"), "{offset}");
        assert_eq!(
            ran.load(Ordering::Relaxed),
            0,
            "no part may run on a bad cut"
        );
    }

    #[test]
    fn panicking_part_propagates_and_the_pool_recovers() {
        let _serial = pool_test_lock();
        let mut out = vec![0usize; 8];
        for bad in [0usize, 1] {
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                for_each_part(
                    2,
                    &mut out,
                    |s| 4 * s,
                    |s, _| assert_ne!(s, bad, "part {bad} fails"),
                );
            }));
            assert!(r.is_err(), "a panic in part {bad} must reach the caller");
            for_each_part(2, &mut out, |s| 4 * s, |s, part| part.fill(s));
            assert_eq!(out, [0, 0, 0, 0, 1, 1, 1, 1]);
        }
    }
}
