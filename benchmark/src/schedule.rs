//! The open-loop arrival schedule.
//!
//! Tick `k` is due at `start + k·period` no matter how the system is
//! doing: a stall delays every tick that fell due during it, and because
//! latency is timed from the *due* time, that wait is counted instead of
//! silently thinning the load (coordinated omission).

use std::time::{Duration, Instant};

/// Calls `send(tick, due)` for `ticks` ticks. Sleeps until each due
/// time — never spins — and sends at once when already late.
pub fn open_loop(ticks: u64, period: Duration, start: Instant, mut send: impl FnMut(u64, Instant)) {
    for tick in 0..ticks {
        let due = start + period.mul_f64(tick as f64);
        let wait = due.saturating_duration_since(Instant::now());
        if !wait.is_zero() {
            std::thread::sleep(wait);
        }
        send(tick, due);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 20 ms stall in the sender must show up in the latency of every
    /// tick that fell due during it — which only happens when latency is
    /// measured from the due time, not from the (delayed) send.
    #[test]
    fn a_stall_is_charged_to_the_requests_due_during_it() {
        let period = Duration::from_millis(2);
        let stall = Duration::from_millis(20);
        let stall_tick = 10;
        let mut from_due = Vec::new();
        let mut from_send = Vec::new();
        let start = Instant::now() + period;
        open_loop(30, period, start, |tick, due| {
            let sent = Instant::now();
            if tick == stall_tick {
                std::thread::sleep(stall);
            }
            // "Completion" is immediate: all latency is schedule delay.
            let done = Instant::now();
            from_due.push(done.saturating_duration_since(due));
            from_send.push(done.saturating_duration_since(sent));
        });
        assert_eq!(from_due.len(), 30);
        // Ticks 11..=19 fell due 2, 4, … 18 ms into the stall.
        for tick in 11..=19u32 {
            let owed = stall - period * (tick - stall_tick as u32);
            assert!(
                from_due[tick as usize] >= owed,
                "tick {tick}: {:?} from due, owed at least {owed:?}",
                from_due[tick as usize]
            );
            assert!(
                from_send[tick as usize] < Duration::from_millis(5),
                "timing from send hides the stall"
            );
        }
        // Before the stall the generator is on time.
        assert!(from_due[..10]
            .iter()
            .all(|d| *d < Duration::from_millis(10)));
    }

    #[test]
    fn ticks_are_due_on_the_grid_even_when_late() {
        let start = Instant::now();
        let period = Duration::from_micros(500);
        let mut dues = Vec::new();
        open_loop(8, period, start, |_, due| dues.push(due));
        for (k, due) in dues.iter().enumerate() {
            assert_eq!(*due, start + period.mul_f64(k as f64));
        }
    }
}
