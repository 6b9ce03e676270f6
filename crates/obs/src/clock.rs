//! Monotonic time as an injectable dependency.
//!
//! Wall-clock observability (spans, status `host_nanos`, latency
//! percentiles) needs a time source, but scattering `Instant::now()`
//! through the sweep engine makes the resulting artifacts untestable: every
//! test asserting on recorded times becomes flaky. The [`Clock`] trait
//! is the one seam — production code takes a [`SharedClock`] and reads
//! [`Clock::now_nanos`]; tests inject a [`FakeClock`] and advance it
//! explicitly, so span fixtures are byte-stable.
//!
//! Clock readings are monotonic nanoseconds since an arbitrary origin
//! fixed at clock construction. Only differences are meaningful; no
//! reading ever decreases.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A monotonic nanosecond clock.
///
/// `Debug + Send + Sync` are supertraits so a `SharedClock` can be
/// stored in `derive(Debug)` structs and shared across worker threads.
pub trait Clock: fmt::Debug + Send + Sync {
    /// Monotonic nanoseconds since this clock's origin. Never
    /// decreases; the origin is arbitrary, so only differences between
    /// two readings of the *same* clock are meaningful.
    fn now_nanos(&self) -> u64;
}

/// A shareable clock handle: the form production code passes around.
pub type SharedClock = Arc<dyn Clock>;

/// The real clock: [`Instant`]-backed, origin fixed at construction.
#[derive(Debug, Clone)]
pub struct MonotonicClock {
    origin: Instant,
}

impl MonotonicClock {
    /// A clock whose origin is "now".
    pub fn new() -> MonotonicClock {
        MonotonicClock {
            origin: Instant::now(),
        }
    }

    /// A fresh real clock behind a [`SharedClock`] handle.
    pub fn shared() -> SharedClock {
        Arc::new(MonotonicClock::new())
    }
}

impl Default for MonotonicClock {
    fn default() -> MonotonicClock {
        MonotonicClock::new()
    }
}

impl Clock for MonotonicClock {
    fn now_nanos(&self) -> u64 {
        self.origin.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
    }
}

/// A deterministic clock for tests: reads whatever was last set and
/// only moves when told to. Share it via `Arc<FakeClock>` (which
/// coerces to [`SharedClock`]) and keep a second `Arc` to advance it
/// from the test body.
#[derive(Debug, Default)]
pub struct FakeClock {
    nanos: AtomicU64,
}

impl FakeClock {
    /// A fake clock starting at `start_nanos`.
    pub fn new(start_nanos: u64) -> FakeClock {
        FakeClock {
            nanos: AtomicU64::new(start_nanos),
        }
    }

    /// A fake clock behind an `Arc`, for sharing with the code under
    /// test while the test keeps its own handle to advance time.
    pub fn shared(start_nanos: u64) -> Arc<FakeClock> {
        Arc::new(FakeClock::new(start_nanos))
    }

    /// Moves time forward by `nanos`.
    pub fn advance(&self, nanos: u64) {
        self.nanos.fetch_add(nanos, Ordering::SeqCst);
    }

    /// Jumps time to an absolute reading. Monotonicity is the caller's
    /// responsibility — going backwards is allowed here so tests can
    /// exercise how consumers defend against a broken clock.
    pub fn set(&self, nanos: u64) {
        self.nanos.store(nanos, Ordering::SeqCst);
    }
}

impl Clock for FakeClock {
    fn now_nanos(&self) -> u64 {
        self.nanos.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_clock_never_goes_backwards() {
        let clock = MonotonicClock::new();
        let mut last = clock.now_nanos();
        for _ in 0..1000 {
            let now = clock.now_nanos();
            assert!(now >= last);
            last = now;
        }
    }

    #[test]
    fn fake_clock_moves_only_when_told() {
        let clock = FakeClock::new(100);
        assert_eq!(clock.now_nanos(), 100);
        assert_eq!(clock.now_nanos(), 100);
        clock.advance(50);
        assert_eq!(clock.now_nanos(), 150);
        clock.set(7);
        assert_eq!(clock.now_nanos(), 7);
    }

    #[test]
    fn fake_clock_shares_through_trait_object() {
        let fake = FakeClock::shared(0);
        let shared: SharedClock = Arc::clone(&fake) as SharedClock;
        fake.advance(42);
        assert_eq!(shared.now_nanos(), 42);
    }
}
