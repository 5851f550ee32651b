//! Lightweight instrumentation: shareable event counters.
//!
//! The adapter, LAPI dispatcher, and MPL matching engine all expose
//! statistics through these types; tests assert on them (e.g. "a lossy run
//! really did retransmit") and the bench harness prints them alongside the
//! reproduced figures.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A shareable monotonically increasing event counter.
#[derive(Clone, Debug, Default)]
pub struct StatCounter {
    n: Arc<AtomicU64>,
}

impl StatCounter {
    /// New counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one.
    #[inline]
    pub fn incr(&self) {
        // ordering: monotone stat counter, read after threads join.
        self.n.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `k`.
    #[inline]
    pub fn add(&self, k: u64) {
        // ordering: monotone stat counter, read after threads join.
        self.n.fetch_add(k, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        // ordering: stat read; exact only once the counting threads joined.
        self.n.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let c = StatCounter::new();
        c.incr();
        c.add(4);
        assert_eq!(c.get(), 5);
        let c2 = c.clone();
        c2.incr();
        assert_eq!(c.get(), 6);
    }
}
