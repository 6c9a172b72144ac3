//! A persistent, lazily-initialized worker pool for data-parallel kernels.
//!
//! The tensor kernels and the dataset renderer previously spawned fresh
//! scoped threads on every call; at fusion-pipeline rates that per-op spawn
//! cost dominates small kernels. This crate keeps one process-wide pool of
//! workers alive and hands them indexed task batches instead.
//!
//! Design constraints:
//!
//! - **std-only** — `std::thread` plus `Mutex`/`Condvar`, no external
//!   dependencies, so the workspace builds hermetically offline.
//! - **Deterministic partitioning** — [`parallel_for`] runs `f(i)` for every
//!   `i in 0..n` exactly once; callers partition work so each index touches
//!   a disjoint output region, which keeps results bit-identical to a serial
//!   loop regardless of thread count.
//! - **Panic propagation** — a panic inside any task is captured and
//!   re-raised on the calling thread after the whole batch has settled;
//!   worker threads survive and the pool stays usable.
//! - **Caller participation** — the calling thread always works on its own
//!   batch, so nested `parallel_for` calls cannot deadlock even when every
//!   worker is busy.
//! - **Spin, then park** — a worker that has just finished a batch, and a
//!   caller waiting for its batch to settle, poll for at most 50 µs
//!   before sleeping on the condvar, so back-to-back parallel regions (the
//!   training kernels) hand over without a futex wake-up each.
//!
//! Thread count resolution: the `SF_THREADS` environment variable if it
//! parses to a positive integer, otherwise
//! [`std::thread::available_parallelism`]. `SF_THREADS=1` disables the
//! workers entirely and every call runs serially inline.
//!
//! # Examples
//!
//! ```
//! let squares = sf_runtime::parallel_map(&[1, 2, 3, 4], |&x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

type PanicPayload = Box<dyn std::any::Any + Send + 'static>;

/// One indexed task batch: `f(i)` for every `i in 0..n`.
///
/// Workers (and the submitting thread) claim indices with an atomic counter
/// until the batch is exhausted, so load balances dynamically while every
/// index still runs exactly once.
struct Batch {
    /// The task body. The `'static` lifetime is a lie told with
    /// `transmute`: the submitting thread blocks in [`Pool::run`] until
    /// `completed == n`, so the borrow outlives every dereference.
    f: &'static (dyn Fn(usize) + Sync),
    n: usize,
    next: AtomicUsize,
    /// Indices finished. The `AcqRel` increment in [`Batch::work`] pairs
    /// with the `Acquire` load in [`Batch::settled`]: a waiter that reads
    /// `n` sees every write the tasks made.
    completed: AtomicUsize,
    /// Guards nothing but the sleep on `done`: the finisher takes it
    /// before notifying, so a waiter that saw `completed < n` under it is
    /// already parked when the notification fires.
    parked: Mutex<()>,
    done: Condvar,
    panic: Mutex<Option<PanicPayload>>,
}

/// How long a thread polls for an event it expects within one parallel
/// region before it parks on a condvar. Parked, a region costs two futex
/// wake-ups (worker for the work, submitter for the result) of tens of µs
/// under a hypervisor and as variable as the host. The training kernels
/// submit regions back to back, ~0.1 ms each, and that is what the spin
/// still pays for; a compiled-plan forward pass was ~31 such regions when
/// this was introduced and is one region now, so the executor no longer
/// cares. Re-measured after that change (2 cores, 0 / 10 / 50 / 100 /
/// 200 µs, medians of 8 and 6 fresh processes): benchmark set-up (training
/// plus calibration) 1.020 / 1.009 / 1.008 / 1.006 / 1.000 s; batch-8 int8
/// plan 3 088 / 3 067 / 3 078 / 3 100 / 3 107 img/s (flat); saturated
/// serving 3 266 / 3 286 / 3 269 / – / 3 290 req/s (flat) with its p95
/// latency spread 0.78 / 0.31 / 0.05 / – / 0.03 ms between processes, and
/// CPU per request +1.7 % at 50 µs, +3.1 % at 200 µs over not spinning.
/// 50 µs keeps the set-up time and the tail stable for half the CPU of
/// 200; an idle worker burns it once per pass, then parks.
const SPIN: Duration = Duration::from_micros(50);

/// Polls `ready` for at most [`SPIN`]; returns whether it became true.
/// The clock is first read after a burst of polls, so an event that is
/// already there (or a few µs away) costs no clock read at all.
fn spin_until(ready: impl Fn() -> bool) -> bool {
    let mut start = None;
    loop {
        for _ in 0..64 {
            if ready() {
                return true;
            }
            std::hint::spin_loop();
        }
        if start.get_or_insert_with(Instant::now).elapsed() >= SPIN {
            return ready();
        }
    }
}

impl Batch {
    /// Claims and runs indices until the batch is exhausted.
    fn work(&self) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.n {
                return;
            }
            let result = catch_unwind(AssertUnwindSafe(|| (self.f)(i)));
            if let Err(payload) = result {
                let mut slot = self.panic.lock().expect("panic slot poisoned");
                slot.get_or_insert(payload);
            }
            if self.completed.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
                drop(self.parked.lock().expect("parked poisoned"));
                self.done.notify_all();
            }
        }
    }

    fn settled(&self) -> bool {
        self.completed.load(Ordering::Acquire) == self.n
    }

    /// Blocks until every claimed index has finished executing: polls
    /// briefly (the other threads are finishing their last index), then
    /// parks.
    fn wait(&self) {
        if spin_until(|| self.settled()) {
            return;
        }
        let mut parked = self.parked.lock().expect("parked poisoned");
        while !self.settled() {
            parked = self.done.wait(parked).expect("parked poisoned");
        }
    }

    fn take_panic(&self) -> Option<PanicPayload> {
        self.panic.lock().expect("panic slot poisoned").take()
    }
}

struct PoolShared {
    queue: Mutex<VecDeque<Arc<Batch>>>,
    /// `queue.len()`, republished after every change under the lock, so an
    /// idle worker can poll for work without taking it. A hint only
    /// (`Relaxed`): batches are handed over under the mutex.
    queued: AtomicUsize,
    work_ready: Condvar,
    shutdown: AtomicBool,
}

/// Cumulative counters for one [`Pool`], read via [`Pool::stats`].
///
/// Long-lived callers (the inference server) watch these to confirm the
/// pool is still making progress after panicked batches: `panicked_batches`
/// counts batches that re-raised a panic, while `batches` keeps growing as
/// long as the pool serves new work.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Batches submitted (inline and pooled alike).
    pub batches: u64,
    /// Task indices submitted across all batches.
    pub tasks: u64,
    /// Batches that ended with a re-raised panic.
    pub panicked_batches: u64,
}

/// Delta between two snapshots of the same (monotonic) counters:
/// `after - before`. Saturating, so comparing snapshots from different
/// pools by mistake yields zeros rather than wrapping garbage. The chaos
/// harness subtracts snapshots taken around a run to prove the pool kept
/// serving work and survived every injected panic.
impl std::ops::Sub for PoolStats {
    type Output = PoolStats;

    fn sub(self, before: PoolStats) -> PoolStats {
        PoolStats {
            batches: self.batches.saturating_sub(before.batches),
            tasks: self.tasks.saturating_sub(before.tasks),
            panicked_batches: self
                .panicked_batches
                .saturating_sub(before.panicked_batches),
        }
    }
}

/// A fixed-size worker pool.
///
/// Most callers want the process-wide [`global`] pool; explicit pools exist
/// so tests can pin a thread count independent of the environment.
pub struct Pool {
    shared: Arc<PoolShared>,
    threads: usize,
    batches: AtomicU64,
    tasks: AtomicU64,
    panicked_batches: AtomicU64,
}

impl Pool {
    /// Creates a pool that runs batches on `threads` threads *total*,
    /// counting the submitting thread — `threads == 1` spawns no workers
    /// and runs everything inline.
    pub fn with_threads(threads: usize) -> Pool {
        let threads = threads.max(1);
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(VecDeque::new()),
            queued: AtomicUsize::new(0),
            work_ready: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        for worker in 0..threads - 1 {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("sf-runtime-{worker}"))
                .spawn(move || worker_loop(&shared))
                .expect("failed to spawn sf-runtime worker");
        }
        Pool {
            shared,
            threads,
            batches: AtomicU64::new(0),
            tasks: AtomicU64::new(0),
            panicked_batches: AtomicU64::new(0),
        }
    }

    /// The total number of threads batches run on (workers + caller).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Snapshot of this pool's cumulative counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            batches: self.batches.load(Ordering::Relaxed),
            tasks: self.tasks.load(Ordering::Relaxed),
            panicked_batches: self.panicked_batches.load(Ordering::Relaxed),
        }
    }

    /// Runs `f(i)` for every `i in 0..n`, returning once all calls have
    /// finished. If any call panics, the first panic payload is re-raised
    /// here after the batch settles; the pool remains usable.
    pub fn run(&self, n: usize, f: &(dyn Fn(usize) + Sync)) {
        if n == 0 {
            return;
        }
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.tasks.fetch_add(n as u64, Ordering::Relaxed);
        if self.threads == 1 || n == 1 {
            // The inline path still counts panics so a long-lived server
            // sees the same accounting regardless of thread count.
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| {
                for i in 0..n {
                    f(i);
                }
            })) {
                self.panicked_batches.fetch_add(1, Ordering::Relaxed);
                resume_unwind(payload);
            }
            return;
        }
        // SAFETY: `run` does not return until `wait()` has observed every
        // claimed index complete, and stale queue entries never touch `f`
        // once the index counter is exhausted, so extending the borrow to
        // 'static never outlives the actual data.
        let f_static: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(f) };
        let batch = Arc::new(Batch {
            f: f_static,
            n,
            next: AtomicUsize::new(0),
            completed: AtomicUsize::new(0),
            parked: Mutex::new(()),
            done: Condvar::new(),
            panic: Mutex::new(None),
        });
        {
            let mut queue = self.shared.queue.lock().expect("queue poisoned");
            for _ in 0..(self.threads - 1).min(n - 1) {
                queue.push_back(Arc::clone(&batch));
            }
            self.shared.queued.store(queue.len(), Ordering::Relaxed);
        }
        self.shared.work_ready.notify_all();
        batch.work();
        batch.wait();
        // Remove entries workers never got to; they are harmless no-ops
        // (the index counter is exhausted) but would accumulate.
        {
            let mut queue = self.shared.queue.lock().expect("queue poisoned");
            queue.retain(|b| !Arc::ptr_eq(b, &batch));
            self.shared.queued.store(queue.len(), Ordering::Relaxed);
        }
        if let Some(payload) = batch.take_panic() {
            self.panicked_batches.fetch_add(1, Ordering::Relaxed);
            resume_unwind(payload);
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.work_ready.notify_all();
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        // The next region of a kernel sequence is usually microseconds away:
        // poll for it before paying for a park and a wake-up.
        spin_until(|| {
            shared.queued.load(Ordering::Relaxed) > 0 || shared.shutdown.load(Ordering::Relaxed)
        });
        let batch = {
            let mut queue = shared.queue.lock().expect("queue poisoned");
            loop {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(batch) = queue.pop_front() {
                    shared.queued.store(queue.len(), Ordering::Relaxed);
                    break batch;
                }
                queue = shared.work_ready.wait(queue).expect("queue poisoned");
            }
        };
        batch.work();
    }
}

/// Thread count from the environment: `SF_THREADS` if set to a positive
/// integer, else [`std::thread::available_parallelism`].
fn configured_threads() -> usize {
    threads_from_env(std::env::var("SF_THREADS").ok().as_deref())
}

/// The parsing rule behind [`configured_threads`], split out for tests:
/// a positive integer wins; `None`, zero or garbage fall back to the
/// machine's available parallelism.
fn threads_from_env(value: Option<&str>) -> usize {
    if let Some(n) = value.and_then(|v| v.trim().parse::<usize>().ok()) {
        if n >= 1 {
            return n;
        }
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// The process-wide pool, created on first use.
pub fn global() -> &'static Pool {
    static GLOBAL: OnceLock<Pool> = OnceLock::new();
    GLOBAL.get_or_init(|| Pool::with_threads(configured_threads()))
}

/// Total threads the global pool runs batches on.
pub fn num_threads() -> usize {
    global().threads()
}

/// Snapshot of the global pool's cumulative counters.
pub fn pool_stats() -> PoolStats {
    global().stats()
}

/// Runs `f(i)` for every `i in 0..n` on the global pool.
///
/// Blocks until every call finishes; a panic in any call is re-raised on
/// the calling thread. Callers are responsible for making distinct indices
/// touch disjoint data.
pub fn parallel_for(n: usize, f: impl Fn(usize) + Sync) {
    global().run(n, &f);
}

/// Maps `f` over `items` on the global pool, preserving order.
///
/// Equivalent to `items.iter().map(f).collect()` but parallel; each output
/// slot is written exactly once, so the result is identical to the serial
/// map for any thread count.
pub fn parallel_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let n = items.len();
    let mut out: Vec<Option<R>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    let slots = SendPtr(out.as_mut_ptr());
    global().run(n, &|i| {
        // SAFETY: each index writes only its own slot, and `run` joins all
        // tasks before `out` can be touched (or dropped) again.
        unsafe { *slots.get().add(i) = Some(f(&items[i])) };
    });
    out.into_iter()
        .map(|slot| slot.expect("every index runs exactly once"))
        .collect()
}

/// Splits `data` into consecutive chunks of at most `chunk_len` elements
/// and runs `f(chunk_index, chunk)` for each on the global pool.
///
/// The chunk boundaries are a pure function of `len` and `chunk_len`, so
/// output produced this way is bit-identical across thread counts.
pub fn parallel_chunks_mut<T: Send>(
    data: &mut [T],
    chunk_len: usize,
    f: impl Fn(usize, &mut [T]) + Sync,
) {
    let len = data.len();
    if len == 0 {
        return;
    }
    let chunk_len = chunk_len.max(1);
    let chunks = len.div_ceil(chunk_len);
    let base = SendPtr(data.as_mut_ptr());
    global().run(chunks, &|ci| {
        let start = ci * chunk_len;
        let end = (start + chunk_len).min(len);
        // SAFETY: chunks are disjoint subranges of `data`, and `run` joins
        // all tasks before the mutable borrow of `data` ends.
        let chunk = unsafe { std::slice::from_raw_parts_mut(base.get().add(start), end - start) };
        f(ci, chunk);
    });
}

/// A raw pointer that may cross thread boundaries. Safety is argued at
/// every use site: indices partition the pointee disjointly and the batch
/// is joined before the borrow ends.
struct SendPtr<T>(*mut T);

impl<T> SendPtr<T> {
    /// Accessor instead of field access so closures capture the whole
    /// `Sync` wrapper rather than disjointly capturing the raw pointer.
    fn get(&self) -> *mut T {
        self.0
    }
}

unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn pool_stats_delta_is_saturating() {
        let before = PoolStats {
            batches: 10,
            tasks: 100,
            panicked_batches: 1,
        };
        let after = PoolStats {
            batches: 13,
            tasks: 140,
            panicked_batches: 1,
        };
        let delta = after - before;
        assert_eq!(delta.batches, 3);
        assert_eq!(delta.tasks, 40);
        assert_eq!(delta.panicked_batches, 0);
        // Mismatched snapshots clamp to zero instead of wrapping.
        let nonsense = before - after;
        assert_eq!(nonsense.batches, 0);
    }

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<usize> = (0..1000).collect();
        let doubled = parallel_map(&items, |&x| 2 * x);
        assert_eq!(doubled, (0..1000).map(|x| 2 * x).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_for_runs_every_index_once() {
        let hits: Vec<AtomicU64> = (0..257).map(|_| AtomicU64::new(0)).collect();
        parallel_for(hits.len(), |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn chunks_mut_partitions_exactly() {
        let mut data = vec![0usize; 103];
        parallel_chunks_mut(&mut data, 10, |ci, chunk| {
            for (k, v) in chunk.iter_mut().enumerate() {
                *v = ci * 10 + k;
            }
        });
        assert_eq!(data, (0..103).collect::<Vec<_>>());
    }

    #[test]
    fn empty_batches_are_no_ops() {
        parallel_for(0, |_| panic!("must not run"));
        let empty: Vec<u8> = parallel_map(&[] as &[u8], |&b| b);
        assert!(empty.is_empty());
        parallel_chunks_mut(&mut [] as &mut [u8], 4, |_, _| panic!("must not run"));
    }

    #[test]
    fn panic_propagates_and_pool_survives() {
        let result = std::panic::catch_unwind(|| {
            parallel_for(64, |i| {
                if i == 33 {
                    panic!("boom at 33");
                }
            });
        });
        let payload = result.expect_err("the task panic must propagate");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("non-str payload");
        assert!(msg.contains("boom"), "unexpected payload: {msg}");
        // The pool must still work after a panicked batch.
        let sum: usize = parallel_map(&[1usize, 2, 3], |&x| x).iter().sum();
        assert_eq!(sum, 6);
    }

    #[test]
    fn nested_parallelism_does_not_deadlock() {
        let totals = parallel_map(&[10usize, 20, 30, 40], |&outer| {
            let inner: Vec<usize> = parallel_map(&(0..outer).collect::<Vec<_>>(), |&x| x + 1);
            inner.iter().sum::<usize>()
        });
        assert_eq!(totals, vec![55, 210, 465, 820]);
    }

    #[test]
    fn explicit_single_thread_pool_runs_inline() {
        let pool = Pool::with_threads(1);
        assert_eq!(pool.threads(), 1);
        let caller = std::thread::current().id();
        pool.run(8, &|_| assert_eq!(std::thread::current().id(), caller));
    }

    #[test]
    fn explicit_pool_uses_helper_threads() {
        let pool = Pool::with_threads(4);
        assert_eq!(pool.threads(), 4);
        let mut seen = Mutex::new(std::collections::HashSet::new());
        pool.run(256, &|_| {
            seen.lock().unwrap().insert(std::thread::current().id());
            // Give helpers a chance to claim indices too.
            std::thread::yield_now();
        });
        assert!(!seen.get_mut().unwrap().is_empty());
    }

    /// Both hand-over paths settle every batch: the worker finishing
    /// long after the caller has given up polling and parked, and regions
    /// submitted back to back while the worker is still polling.
    #[test]
    fn batches_settle_parked_and_polling() {
        let pool = Pool::with_threads(2);
        let caller = std::thread::current().id();
        let both_in = std::sync::Barrier::new(2);
        let ran = AtomicU64::new(0);
        pool.run(2, &|_| {
            // The barrier puts one index on each thread; the worker then
            // outlasts the caller's polling by far.
            both_in.wait();
            if std::thread::current().id() != caller {
                std::thread::sleep(SPIN * 40);
            }
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ran.load(Ordering::Relaxed), 2);
        for _ in 0..2000 {
            pool.run(2, &|_| {
                ran.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(ran.load(Ordering::Relaxed), 4002);
    }

    #[test]
    fn env_parsing_rules() {
        assert_eq!(threads_from_env(Some("3")), 3);
        assert_eq!(threads_from_env(Some(" 12 ")), 12);
        assert_eq!(threads_from_env(Some("1")), 1);
        let fallback = threads_from_env(None);
        assert!(fallback >= 1);
        assert_eq!(threads_from_env(Some("0")), fallback);
        assert_eq!(threads_from_env(Some("lots")), fallback);
        assert_eq!(threads_from_env(Some("-2")), fallback);
    }
}
