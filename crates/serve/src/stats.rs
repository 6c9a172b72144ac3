//! Serving statistics: counters plus a latency reservoir, snapshotted on
//! demand.
//!
//! The counters obey a conservation law: once the server is quiescent
//! (no requests in flight), `submitted == completed + rejected + expired
//! + failed`. Every admitted request reaches exactly one of those
//! terminal states. (The fleet's leg ledger extends the law with
//! `redirected`; that is the form the chaos engine asserts.)

use std::sync::Mutex;
use std::time::{Duration, Instant};

use sf_core::{BreakerState, BreakerTransition};

use crate::request::SourceId;

/// One per-slot circuit breaker's state, keyed by the [`SourceId`] it
/// guards (`None` is the shared breaker for untagged requests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotBreakerStats {
    /// Which source slot this breaker guards.
    pub source: Option<SourceId>,
    /// The breaker's state at snapshot time.
    pub state: BreakerState,
    /// How many times this slot's breaker tripped open.
    pub trips: u64,
}

/// Point-in-time view of a server's counters, exposed by
/// [`Server::stats`] and returned by [`Server::shutdown`].
///
/// [`Server::stats`]: crate::Server::stats
/// [`Server::shutdown`]: crate::Server::shutdown
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatsSnapshot {
    /// Requests that entered `submit` and were either admitted to the
    /// queue or rejected (shape-invalid and shutting-down submissions are
    /// refused before they count as submitted).
    pub submitted: u64,
    /// Requests fulfilled successfully.
    pub completed: u64,
    /// Requests refused at submit time (`QueueFull` under `Reject`).
    pub rejected: u64,
    /// Requests whose deadline passed — at dequeue (never executed) or at
    /// completion (result discarded).
    pub expired: u64,
    /// Requests failed after admission (batch panic or bad request).
    pub failed: u64,
    /// Fulfilled requests whose depth input was quarantined.
    pub quarantined: u64,
    /// Forward-pass batches executed.
    pub batches: u64,
    /// Mean requests per executed batch.
    pub mean_batch_occupancy: f64,
    /// Completed requests per second since the server started.
    pub throughput_rps: f64,
    /// Median request latency (enqueue → fulfill), milliseconds.
    pub latency_p50_ms: f64,
    /// 95th-percentile request latency, milliseconds.
    pub latency_p95_ms: f64,
    /// Worst request latency, milliseconds.
    pub latency_max_ms: f64,
    /// Worst per-slot breaker state, if the server runs breakers
    /// (`Open` > `HalfOpen` > `Closed`). With only untagged traffic this
    /// is exactly the single shared breaker's state.
    pub breaker_state: Option<BreakerState>,
    /// Trips summed over every slot breaker.
    pub breaker_trips: u64,
    /// Transition logs of every slot breaker concatenated in slot-key
    /// order (untagged first, then ascending [`SourceId`]), oldest first
    /// within a slot.
    pub breaker_transitions: Vec<BreakerTransition>,
    /// Per-slot breaker detail, in slot-key order.
    pub breaker_slots: Vec<SlotBreakerStats>,
    /// High-water mark of this server's *own* scratch arena, bytes: the
    /// executor thread's [`sf_tensor::scratch::stats`] peak, published at
    /// every batch boundary. Scoped to the server, so concurrent servers
    /// (or tests) in one process never see each other's allocations.
    /// Excluded from determinism fingerprints; the chaos engine asserts
    /// it *plateaus* instead.
    pub scratch_peak_bytes: usize,
    /// Version of the model currently serving (0 until the first
    /// [`Server::stage_model`] swap is claimed by the executor).
    ///
    /// [`Server::stage_model`]: crate::Server::stage_model
    pub model_version: u64,
    /// Hot model swaps the executor has performed at batch boundaries.
    pub swaps: u64,
}

impl StatsSnapshot {
    /// Requests still in flight when the snapshot was taken. Zero once
    /// the server is quiescent — the conservation invariant.
    pub fn in_flight(&self) -> u64 {
        self.submitted
            .saturating_sub(self.completed + self.rejected + self.expired + self.failed)
    }

    /// True when every submitted request has reached exactly one terminal
    /// state (the snapshot was taken at quiescence and nothing was lost
    /// or double-counted).
    pub fn is_conserved(&self) -> bool {
        self.submitted == self.completed + self.rejected + self.expired + self.failed
    }
}

#[derive(Default)]
struct StatsData {
    submitted: u64,
    completed: u64,
    rejected: u64,
    expired: u64,
    failed: u64,
    quarantined: u64,
    batches: u64,
    batched_requests: u64,
    latencies_ms: Vec<f64>,
    scratch_peak_bytes: usize,
    model_version: u64,
    swaps: u64,
}

/// Internal collector; one per server, shared by submitters and the
/// executor.
pub(crate) struct StatsCollector {
    data: Mutex<StatsData>,
    started: Instant,
}

impl StatsCollector {
    pub(crate) fn new() -> StatsCollector {
        StatsCollector {
            data: Mutex::new(StatsData::default()),
            started: Instant::now(),
        }
    }

    pub(crate) fn record_admitted(&self) {
        self.data.lock().expect("stats poisoned").submitted += 1;
    }

    pub(crate) fn record_rejected(&self) {
        let mut data = self.data.lock().expect("stats poisoned");
        data.submitted += 1;
        data.rejected += 1;
    }

    pub(crate) fn record_expired(&self) {
        self.data.lock().expect("stats poisoned").expired += 1;
    }

    /// Called by the executor thread once per batch; also publishes that
    /// thread's scratch-arena peak, which only the executor can read.
    pub(crate) fn record_batch(&self, occupancy: usize) {
        let mut data = self.data.lock().expect("stats poisoned");
        data.batches += 1;
        data.batched_requests += occupancy as u64;
        data.scratch_peak_bytes = sf_tensor::scratch::stats().peak_bytes;
    }

    pub(crate) fn record_completed(&self, latency: Duration, quarantined: bool) {
        let mut data = self.data.lock().expect("stats poisoned");
        data.completed += 1;
        if quarantined {
            data.quarantined += 1;
        }
        data.latencies_ms.push(latency.as_secs_f64() * 1e3);
    }

    pub(crate) fn record_failed(&self, count: usize) {
        self.data.lock().expect("stats poisoned").failed += count as u64;
    }

    pub(crate) fn record_swap(&self, version: u64) {
        let mut data = self.data.lock().expect("stats poisoned");
        data.swaps += 1;
        data.model_version = version;
    }

    pub(crate) fn snapshot(&self) -> StatsSnapshot {
        let data = self.data.lock().expect("stats poisoned");
        let elapsed = self.started.elapsed().as_secs_f64();
        let mut sorted = data.latencies_ms.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        StatsSnapshot {
            submitted: data.submitted,
            completed: data.completed,
            rejected: data.rejected,
            expired: data.expired,
            failed: data.failed,
            quarantined: data.quarantined,
            batches: data.batches,
            mean_batch_occupancy: if data.batches == 0 {
                0.0
            } else {
                data.batched_requests as f64 / data.batches as f64
            },
            throughput_rps: if elapsed > 0.0 {
                data.completed as f64 / elapsed
            } else {
                0.0
            },
            latency_p50_ms: percentile(&sorted, 0.50),
            latency_p95_ms: percentile(&sorted, 0.95),
            latency_max_ms: sorted.last().copied().unwrap_or(0.0),
            breaker_state: None,
            breaker_trips: 0,
            breaker_transitions: Vec::new(),
            breaker_slots: Vec::new(),
            scratch_peak_bytes: data.scratch_peak_bytes,
            model_version: data.model_version,
            swaps: data.swaps,
        }
    }
}

/// Nearest-rank percentile of an ascending-sorted slice; 0.0 when empty.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;
    use sf_tensor::testkit::check_cases;

    #[test]
    fn percentile_nearest_rank() {
        let sorted = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        assert_eq!(percentile(&sorted, 0.50), 5.0);
        assert_eq!(percentile(&sorted, 0.95), 10.0);
        assert_eq!(percentile(&sorted, 0.01), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn snapshot_aggregates_counters() {
        let stats = StatsCollector::new();
        stats.record_batch(4);
        stats.record_batch(2);
        for i in 0..6 {
            stats.record_admitted();
            stats.record_completed(Duration::from_millis(i + 1), i == 0);
        }
        stats.record_rejected();
        stats.record_admitted();
        stats.record_admitted();
        stats.record_failed(2);
        stats.record_admitted();
        stats.record_expired();
        let snap = stats.snapshot();
        assert_eq!(snap.submitted, 10);
        assert_eq!(snap.completed, 6);
        assert_eq!(snap.rejected, 1);
        assert_eq!(snap.failed, 2);
        assert_eq!(snap.expired, 1);
        assert_eq!(snap.quarantined, 1);
        assert_eq!(snap.batches, 2);
        assert!(snap.is_conserved());
        assert_eq!(snap.in_flight(), 0);
        assert!((snap.mean_batch_occupancy - 3.0).abs() < 1e-12);
        assert!(snap.latency_max_ms >= snap.latency_p95_ms);
        assert!(snap.latency_p95_ms >= snap.latency_p50_ms);
        assert!(snap.throughput_rps > 0.0);
    }

    /// Property: under arbitrary interleavings of admissions with their
    /// terminal outcomes (serve / reject / expire / fail), the counters
    /// are conserved at quiescence, in-flight never goes negative
    /// mid-stream, and the latency percentiles stay ordered.
    #[test]
    fn counters_conserved_under_random_interleavings() {
        check_cases(64, |c| {
            let stats = StatsCollector::new();
            let events = c.usize_in(1, 120);
            // Admitted-but-unresolved requests; each later resolves to
            // exactly one terminal state.
            let mut in_flight = 0u64;
            let mut expected = (0u64, 0u64, 0u64, 0u64); // completed, rejected, expired, failed
            for _ in 0..events {
                if in_flight > 0 && c.rng().chance(0.5) {
                    // Resolve one in-flight request.
                    in_flight -= 1;
                    match c.usize_in(0, 3) {
                        0 => {
                            let ms = c.usize_in(1, 1000) as u64;
                            stats.record_completed(Duration::from_millis(ms), c.rng().chance(0.3));
                            expected.0 += 1;
                        }
                        1 => {
                            stats.record_expired();
                            expected.2 += 1;
                        }
                        _ => {
                            stats.record_failed(1);
                            expected.3 += 1;
                        }
                    }
                } else if c.rng().chance(0.2) {
                    stats.record_rejected();
                    expected.1 += 1;
                } else {
                    stats.record_admitted();
                    in_flight += 1;
                }
                // Mid-stream, in-flight accounting must match and the
                // percentile ordering must already hold.
                let snap = stats.snapshot();
                assert_eq!(snap.in_flight(), in_flight);
                assert!(snap.latency_p50_ms <= snap.latency_p95_ms);
                assert!(snap.latency_p95_ms <= snap.latency_max_ms);
            }
            // Drain: resolve everything still in flight, then conserve.
            while in_flight > 0 {
                stats.record_completed(Duration::from_millis(1), false);
                expected.0 += 1;
                in_flight -= 1;
            }
            let snap = stats.snapshot();
            assert!(snap.is_conserved(), "case {}: {snap:?}", c.case);
            assert_eq!(
                (snap.completed, snap.rejected, snap.expired, snap.failed),
                expected
            );
        });
    }
}
