//! Per-thread reusable scratch buffers for kernel workspaces.
//!
//! The convolution kernels need two large temporaries per call: the
//! `im2col` patch matrix and (on the batched path) a staging buffer for
//! the matmul output. In the serving and training hot loops the same
//! geometry repeats for thousands of calls, so allocating fresh buffers
//! every time turns the allocator into a bottleneck — especially once the
//! calls run on the persistent [`sf_runtime`] worker pool, where every
//! worker hammers the same global allocator.
//!
//! This module keeps a small per-thread free list of `Vec<f32>` buffers.
//! Because the pool's workers are long-lived threads, a worker that ran a
//! convolution once serves every later call with the same geometry from
//! its local list, allocation-free. Buffers are handed out zeroed, so
//! kernels that accumulate into their workspace behave exactly as they
//! would on a fresh `Tensor::zeros` — results stay bit-identical.
//!
//! The free list matters far beyond the convolution workspaces: a batched
//! forward pass allocates dozens of activation tensors big enough to cross
//! the allocator's mmap threshold, at which point every op pays
//! mmap/munmap plus a page fault per touched page. Handing those buffers
//! back (the autodiff tape recycles its node storage on drop) and re-using
//! them keeps the serving and training hot loops inside memory that is
//! already mapped and cache-warm.
//!
//! The free list is still bounded (a fixed buffer count and byte budget,
//! largest kept): the goal is steady-state reuse in hot loops, not a
//! general allocator.
//!
//! # Examples
//!
//! ```
//! let sum = sf_tensor::scratch::with_zeroed(128, |buf| {
//!     buf[0] = 1.0;
//!     buf.iter().sum::<f32>()
//! });
//! assert_eq!(sum, 1.0);
//! ```

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Maximum buffers kept per thread: enough for every intermediate tensor
/// of one batched forward pass, so a graph dropped after inference can
/// seed the next pass completely.
const MAX_POOLED: usize = 192;

/// Byte budget across all pooled buffers on one thread, so a burst of
/// huge workspaces cannot pin unbounded memory.
const MAX_POOLED_BYTES: usize = 256 << 20;

thread_local! {
    static FREE_LIST: RefCell<Vec<Vec<f32>>> = const { RefCell::new(Vec::new()) };
    /// Total capacity (in elements) held by `FREE_LIST`, tracked
    /// incrementally so neither take nor recycle re-sums the pool.
    static HELD_ELEMS: Cell<usize> = const { Cell::new(0) };
    /// High-water mark of this thread's pooled bytes.
    static PEAK_BYTES: Cell<usize> = const { Cell::new(0) };
}

// Process-wide mirrors of the per-thread counters, maintained with
// relaxed atomics on every take/recycle. They let a process report one
// arena high-water mark across all its threads. Relaxed is enough: the
// values are monitoring data, never used for synchronisation.
static GLOBAL_HELD_BYTES: AtomicUsize = AtomicUsize::new(0);
static GLOBAL_PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);
static GLOBAL_BUFFERS: AtomicUsize = AtomicUsize::new(0);

/// Arena residency counters — what the free lists currently *hold*, not
/// what kernels have loaned out.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScratchStats {
    /// Bytes currently held by the free lists.
    pub held_bytes: usize,
    /// Number of pooled buffers.
    pub buffers: usize,
    /// High-water mark of `held_bytes` since startup or the last
    /// [`reset_peak`].
    pub peak_bytes: usize,
}

fn thread_held_bytes() -> usize {
    HELD_ELEMS.with(Cell::get) * std::mem::size_of::<f32>()
}

/// Records `bytes` entering a free list (one buffer kept).
fn pool_grew(bytes: usize) {
    EXIT_GUARD.with(|_| {});
    GLOBAL_BUFFERS.fetch_add(1, Ordering::Relaxed);
    let now = GLOBAL_HELD_BYTES.fetch_add(bytes, Ordering::Relaxed) + bytes;
    GLOBAL_PEAK_BYTES.fetch_max(now, Ordering::Relaxed);
    let held = thread_held_bytes();
    PEAK_BYTES.with(|p| p.set(p.get().max(held)));
}

/// Records `bytes` leaving a free list (one buffer taken or evicted).
fn pool_shrank(bytes: usize) {
    GLOBAL_BUFFERS.fetch_sub(1, Ordering::Relaxed);
    GLOBAL_HELD_BYTES.fetch_sub(bytes, Ordering::Relaxed);
}

thread_local! {
    /// Settles this thread's share of the global counters when the
    /// thread exits — otherwise buffers freed by TLS teardown would stay
    /// counted as held forever. Touched once per recycle so the
    /// destructor is registered on every pooling thread.
    static EXIT_GUARD: ExitGuard = const { ExitGuard };
}

struct ExitGuard;

impl Drop for ExitGuard {
    fn drop(&mut self) {
        // TLS destructor order is unspecified: the lists may already be
        // gone, in which case their own teardown freed the memory and we
        // saturate rather than underflow.
        let bytes = HELD_ELEMS.try_with(Cell::get).unwrap_or(0) * std::mem::size_of::<f32>();
        let buffers = FREE_LIST.try_with(|c| c.borrow().len()).unwrap_or(0);
        let _ = GLOBAL_HELD_BYTES.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
            Some(v.saturating_sub(bytes))
        });
        let _ = GLOBAL_BUFFERS.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
            Some(v.saturating_sub(buffers))
        });
    }
}

/// This thread's arena counters: current residency plus the per-thread
/// high-water mark.
pub fn stats() -> ScratchStats {
    ScratchStats {
        held_bytes: thread_held_bytes(),
        buffers: FREE_LIST.with(|c| c.borrow().len()),
        peak_bytes: PEAK_BYTES.with(Cell::get),
    }
}

/// Resets this thread's high-water mark to the current residency.
pub fn reset_peak() {
    PEAK_BYTES.with(|p| p.set(thread_held_bytes()));
}

/// Process-wide arena counters aggregated over every thread.
/// `peak_bytes` is monotone within a process (no global reset: a
/// concurrent reset would race with worker threads). Because every
/// thread in the process feeds it, it cannot attribute growth to one
/// server or test; invariants that need that (the chaos engine's
/// plateau check) read per-thread [`stats`] instead.
pub fn pool_stats() -> ScratchStats {
    ScratchStats {
        held_bytes: GLOBAL_HELD_BYTES.load(Ordering::Relaxed),
        buffers: GLOBAL_BUFFERS.load(Ordering::Relaxed),
        peak_bytes: GLOBAL_PEAK_BYTES.load(Ordering::Relaxed),
    }
}

/// Pops the smallest pooled buffer with capacity for `len` elements, so
/// one huge buffer is not burned on a tiny request. The free list is
/// kept sorted by capacity, so this is a binary search, not a scan —
/// a hot forward pass performs hundreds of takes per batch.
fn take_best_fit(len: usize) -> Option<Vec<f32>> {
    FREE_LIST.with(|cell| {
        let mut pool = cell.borrow_mut();
        let i = pool.partition_point(|buf| buf.capacity() < len);
        (i < pool.len()).then(|| {
            let buf = pool.remove(i);
            HELD_ELEMS.with(|held| held.set(held.get() - buf.capacity()));
            pool_shrank(buf.capacity() * std::mem::size_of::<f32>());
            buf
        })
    })
}

/// Takes a zeroed buffer of exactly `len` elements from this thread's
/// free list, allocating only if no pooled buffer has enough capacity.
pub fn take_zeroed(len: usize) -> Vec<f32> {
    match take_best_fit(len) {
        Some(mut buf) => {
            buf.clear();
            buf.resize(len, 0.0);
            buf
        }
        None => vec![0.0; len],
    }
}

/// Takes an *empty* buffer with capacity for at least `len` elements —
/// for producers that fill it with `extend`/`push` and never read stale
/// contents. Skips the zeroing pass [`take_zeroed`] pays.
pub fn take_spare(len: usize) -> Vec<f32> {
    match take_best_fit(len) {
        Some(mut buf) => {
            buf.clear();
            buf
        }
        None => Vec::with_capacity(len),
    }
}

/// Returns a buffer to this thread's free list for later reuse. Bounded
/// by buffer count and a total byte budget; evicts the smallest pooled
/// buffer when full.
pub fn recycle(buf: Vec<f32>) {
    if buf.capacity() == 0 {
        return;
    }
    FREE_LIST.with(|cell| {
        let mut pool = cell.borrow_mut();
        let cap = buf.capacity();
        let held = HELD_ELEMS.with(Cell::get);
        if (held + cap) * std::mem::size_of::<f32>() > MAX_POOLED_BYTES {
            return;
        }
        // Insert in capacity order so `take_best_fit` can binary-search.
        let i = pool.partition_point(|b| b.capacity() < cap);
        if pool.len() < MAX_POOLED {
            pool.insert(i, buf);
            HELD_ELEMS.with(|h| h.set(held + cap));
            pool_grew(cap * std::mem::size_of::<f32>());
        } else if i > 0 {
            // Full: evict the smallest buffer (index 0) for a bigger one.
            let evicted = pool.remove(0);
            pool.insert(i - 1, buf);
            HELD_ELEMS.with(|h| h.set(held + cap - evicted.capacity()));
            pool_grew(cap * std::mem::size_of::<f32>());
            pool_shrank(evicted.capacity() * std::mem::size_of::<f32>());
        }
    });
}

/// Runs `f` with a zeroed scratch slice of `len` elements, recycling the
/// buffer afterwards. The workhorse entry point for kernels.
pub fn with_zeroed<R>(len: usize, f: impl FnOnce(&mut [f32]) -> R) -> R {
    let mut buf = take_zeroed(len);
    let result = f(&mut buf);
    recycle(buf);
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_come_back_zeroed() {
        with_zeroed(64, |buf| {
            assert_eq!(buf.len(), 64);
            buf.fill(7.5);
        });
        // The recycled buffer must be scrubbed on the next loan.
        with_zeroed(64, |buf| {
            assert!(buf.iter().all(|&v| v == 0.0));
        });
    }

    #[test]
    fn reuse_preserves_capacity_across_sizes() {
        let big = take_zeroed(1024);
        let cap = big.capacity();
        recycle(big);
        // A smaller request reuses the big buffer rather than allocating.
        let small = take_zeroed(16);
        assert!(small.capacity() >= 16);
        recycle(small);
        // And a same-size request gets the original capacity back.
        let again = take_zeroed(1024);
        assert!(again.capacity() >= cap.min(1024));
    }

    #[test]
    fn free_list_is_bounded() {
        let bufs: Vec<Vec<f32>> = (0..2 * MAX_POOLED).map(|i| take_zeroed(8 + i)).collect();
        for b in bufs {
            recycle(b);
        }
        FREE_LIST.with(|cell| assert!(cell.borrow().len() <= MAX_POOLED));
    }

    #[test]
    fn spare_buffers_are_empty_with_capacity() {
        let mut buf = take_spare(256);
        assert!(buf.is_empty());
        assert!(buf.capacity() >= 256);
        buf.extend(std::iter::repeat_n(3.0, 256));
        recycle(buf);
        let again = take_spare(256);
        assert!(again.is_empty(), "reused buffers must come back cleared");
        assert!(again.capacity() >= 256);
    }

    #[test]
    fn stats_track_residency_and_peak() {
        // Establish a known floor, then grow the pool and watch the
        // counters move. Other tests on this thread may have pooled
        // buffers already, so assert deltas, not absolutes.
        reset_peak();
        let before = stats();
        assert_eq!(before.peak_bytes, before.held_bytes);
        let buf = take_zeroed(4096);
        let cap_bytes = buf.capacity() * std::mem::size_of::<f32>();
        recycle(buf);
        let after = stats();
        assert!(after.held_bytes >= before.held_bytes.min(after.held_bytes));
        assert!(
            after.peak_bytes >= cap_bytes.min(after.held_bytes),
            "peak {} must register the recycled buffer",
            after.peak_bytes
        );
        assert!(after.buffers >= 1);
        // Taking the buffer back lowers residency but never the peak.
        let again = take_zeroed(4096);
        let drained = stats();
        assert!(drained.held_bytes < after.held_bytes);
        assert_eq!(drained.peak_bytes, after.peak_bytes);
        recycle(again);
        // reset_peak collapses the mark onto current residency.
        reset_peak();
        let reset = stats();
        assert_eq!(reset.peak_bytes, reset.held_bytes);
    }

    #[test]
    fn pool_stats_see_every_thread() {
        let buf = take_zeroed(1 << 16);
        recycle(buf);
        std::thread::spawn(|| {
            let buf = take_zeroed(1 << 16);
            recycle(buf);
        })
        .join()
        .unwrap();
        let pool = pool_stats();
        // Both this thread's and the worker's recycles registered; the
        // worker's buffer is still held (its thread never took it back).
        assert!(pool.peak_bytes >= (1 << 16) * std::mem::size_of::<f32>());
        assert!(pool.peak_bytes >= pool.held_bytes || pool.buffers > 0);
    }

    #[test]
    fn nested_loans_are_distinct_buffers() {
        with_zeroed(32, |outer| {
            outer.fill(1.0);
            with_zeroed(32, |inner| {
                assert!(inner.iter().all(|&v| v == 0.0));
            });
            assert!(outer.iter().all(|&v| v == 1.0));
        });
    }
}
