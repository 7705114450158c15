//! Every clock read of the benchmark.
//!
//! The program keeps wall-clock data out of its deterministic state; the
//! benchmark needs it, so all of it sits in this one module behind
//! `wall-clock` waivers. Times are nanoseconds on a monotonic clock,
//! counted from the first read in the process.

use std::sync::OnceLock;
// lint:allow(wall-clock) -- the benchmark's monotonic clock; no other module reads time
use std::time::{Duration, Instant};

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the process's first clock read.
#[inline]
pub fn now_ns() -> u64 {
    let epoch = *EPOCH.get_or_init(Instant::now);
    epoch.elapsed().as_nanos() as u64
}

/// Sleeps until `deadline_ns` (a [`now_ns`] value); returns at once if it
/// has passed.
pub fn sleep_until(deadline_ns: u64) {
    let now = now_ns();
    if deadline_ns > now {
        std::thread::sleep(Duration::from_nanos(deadline_ns - now));
    }
}

/// A socket timeout of `ns` nanoseconds (at least one microsecond: a zero
/// duration means "block forever" to the socket API).
pub fn timeout(ns: u64) -> Duration {
    Duration::from_nanos(ns.max(1_000))
}

/// Seconds, as the metric unit `s`.
pub fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Milliseconds, as the metric unit `ms`.
pub fn millis(ns: u64) -> f64 {
    ns as f64 / 1e6
}
