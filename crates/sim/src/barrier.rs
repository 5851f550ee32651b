//! A virtual-time barrier.
//!
//! Experiments need all nodes to start from an agreed virtual instant;
//! [`VBarrier::wait`] blocks until every participant arrives and then sets
//! every participant's clock to the maximum arrival time plus a configurable
//! barrier cost. This mirrors what a real `LAPI_Gfence`/`MP_SYNC` does to
//! wall-clock alignment on the SP, and makes measurements deterministic.

use std::sync::Arc;

use parking_lot::Mutex;

use crate::clock::VClock;
use crate::config::MachineConfig;
use crate::sched::SimCondvar;
use crate::time::{VDur, VTime};

struct State {
    arrived: usize,
    generation: u64,
    max_time: VTime,
    release_time: VTime,
}

struct Inner {
    n: usize,
    cost: VDur,
    state: Mutex<State>,
    cond: SimCondvar,
}

/// A reusable barrier over `n` participants that aligns virtual clocks.
#[derive(Clone)]
pub struct VBarrier {
    inner: Arc<Inner>,
}

impl VBarrier {
    /// A barrier for `n` participants charging `cost` per crossing.
    pub fn new(n: usize, cost: VDur) -> Self {
        assert!(n > 0, "barrier needs at least one participant");
        VBarrier {
            inner: Arc::new(Inner {
                n,
                cost,
                state: Mutex::new(State {
                    arrived: 0,
                    generation: 0,
                    max_time: VTime::ZERO,
                    release_time: VTime::ZERO,
                }),
                cond: SimCondvar::new(),
            }),
        }
    }

    /// Number of participants.
    pub fn participants(&self) -> usize {
        self.inner.n
    }

    /// Enter the barrier; returns the aligned virtual time (which `clock`
    /// has been set to).
    ///
    /// Panics if the other participants fail to arrive within a generous
    /// real-time bound — that means a peer died or deadlocked, and hanging
    /// the whole job would mask the failure.
    pub fn wait(&self, clock: &VClock) -> VTime {
        self.wait_with_progress(clock, || {})
    }

    /// Enter the barrier, invoking `progress` periodically (with the barrier
    /// lock released) while waiting for stragglers.
    ///
    /// This exists for protocols where a parked participant must still
    /// service incoming requests: polling-mode LAPI makes no progress unless
    /// the target polls, so a node that reaches `LAPI_Gfence` first has to
    /// keep draining its receive queue — a peer may be blocked on a request
    /// (e.g. an rmw) that it sent *before* heading to its own fence, and
    /// that request is only served here. `progress` must be non-blocking
    /// and must not advance the virtual clock when there is no work, or the
    /// wait would couple virtual time to real time.
    pub fn wait_with_progress(&self, clock: &VClock, progress: impl FnMut()) -> VTime {
        self.wait_among(clock, self.inner.n, progress)
    }

    /// Enter the barrier expecting only `expected` of the `n` configured
    /// participants to show up this generation, invoking `progress`
    /// periodically like [`VBarrier::wait_with_progress`].
    ///
    /// This is the survivor-set barrier behind `gfence_surviving`: after a
    /// node crash, the live members synchronize among themselves without
    /// waiting (and escaping) on the dead. Every participant of one
    /// generation must pass the same `expected`, and `expected` must stay
    /// consistent across a release (mixing counts in one generation would
    /// release early or strand arrivals — the fault plan is the shared
    /// membership ground truth that guarantees agreement).
    pub fn wait_among(&self, clock: &VClock, expected: usize, mut progress: impl FnMut()) -> VTime {
        assert!(
            expected >= 1 && expected <= self.inner.n,
            "survivor set of {expected} outside 1..={}",
            self.inner.n
        );
        let mut st = self.inner.state.lock();
        let my_gen = st.generation;
        st.max_time = st.max_time.max(clock.now());
        st.arrived += 1;
        if st.arrived == expected {
            st.release_time = st.max_time + self.inner.cost;
            st.arrived = 0;
            st.max_time = VTime::ZERO;
            st.generation += 1;
            let release = st.release_time;
            drop(st);
            self.inner.cond.notify_all();
            clock.merge(release);
            return release;
        }
        // Wait in short real-time slices so `progress` keeps running; a
        // peer that dies or deadlocks trips the escape after ~60s.
        const TICK: std::time::Duration = std::time::Duration::from_millis(5);
        const MAX_TICKS: u32 = 12_000;
        let mut ticks: u32 = 0;
        while st.generation == my_gen {
            if self.inner.cond.wait_for(&mut st, TICK).timed_out() {
                ticks += 1;
                if ticks > MAX_TICKS {
                    panic!(
                        "VBarrier: only {}/{} expected participants arrived within 60s \
                         of real time — a peer died or deadlocked",
                        st.arrived, expected
                    );
                }
                drop(st);
                progress();
                st = self.inner.state.lock();
            }
        }
        let release = st.release_time;
        drop(st);
        clock.merge(release);
        release
    }

    /// Cost model of a job-wide synchronization over `n` nodes: a
    /// dissemination barrier pays ~log2(n) rounds, each one fabric latency
    /// plus the library's per-round `software` cost.
    pub fn dissemination_cost(cfg: &MachineConfig, n: usize, software: VDur) -> VDur {
        let rounds = (usize::BITS - (n.max(2) - 1).leading_zeros()) as u64;
        (cfg.fabric_latency + software) * rounds
    }
}

/// Collective u64 exchange board: every participant posts one value and
/// reads everyone's (the substrate of `LAPI_Address_init`).
pub struct Exchange {
    slots: Mutex<Vec<u64>>,
    barrier: VBarrier,
}

impl Exchange {
    /// A board for `n` participants, each crossing charging `cost`.
    pub fn new(n: usize, cost: VDur) -> Self {
        Exchange {
            slots: Mutex::new(vec![0; n]),
            barrier: VBarrier::new(n, cost),
        }
    }

    /// Post `value` as participant `me`; returns every participant's value.
    pub fn exchange(&self, clock: &VClock, me: usize, value: u64) -> Vec<u64> {
        self.slots.lock()[me] = value;
        self.barrier.wait(clock);
        let out = self.slots.lock().clone();
        // Second phase keeps a fast next exchange from overwriting slots
        // before a slow participant has read this round.
        self.barrier.wait(clock);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn aligns_clocks_to_max_plus_cost() {
        let b = VBarrier::new(3, VDur::from_us(2));
        let clocks: Vec<VClock> = (0..3)
            .map(|i| VClock::starting_at(VTime::from_us(10 * i as u64)))
            .collect();
        thread::scope(|s| {
            for c in &clocks {
                let b = b.clone();
                s.spawn(move || b.wait(c));
            }
        });
        for c in &clocks {
            assert_eq!(c.now(), VTime::from_us(22));
        }
    }

    #[test]
    fn is_reusable_across_generations() {
        let b = VBarrier::new(2, VDur::ZERO);
        let c0 = VClock::new();
        let c1 = VClock::new();
        for round in 1..=5u64 {
            let (r0, r1) = thread::scope(|s| {
                let b0 = b.clone();
                let b1 = b.clone();
                let c0 = &c0;
                let c1 = &c1;
                let h0 = s.spawn(move || {
                    c0.advance(VDur::from_us(3));
                    b0.wait(c0)
                });
                let h1 = s.spawn(move || b1.wait(c1));
                (h0.join().unwrap(), h1.join().unwrap())
            });
            assert_eq!(r0, r1);
            assert_eq!(r0, VTime::from_us(3 * round));
        }
    }

    #[test]
    fn single_participant_is_trivial() {
        let b = VBarrier::new(1, VDur::from_us(1));
        let c = VClock::starting_at(VTime::from_us(9));
        assert_eq!(b.wait(&c), VTime::from_us(10));
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_participants_rejected() {
        let _ = VBarrier::new(0, VDur::ZERO);
    }

    #[test]
    fn survivor_set_releases_without_the_dead() {
        // A 4-way barrier where only 3 participants remain alive: wait_among
        // releases at 3 arrivals and still aligns clocks to max + cost.
        let b = VBarrier::new(4, VDur::from_us(2));
        let clocks: Vec<VClock> = (0..3)
            .map(|i| VClock::starting_at(VTime::from_us(10 * i as u64)))
            .collect();
        thread::scope(|s| {
            for c in &clocks {
                let b = b.clone();
                s.spawn(move || b.wait_among(c, 3, || {}));
            }
        });
        for c in &clocks {
            assert_eq!(c.now(), VTime::from_us(22));
        }
        // The barrier is reusable afterwards at full strength semantics
        // (generation advanced exactly once).
        let c = VClock::starting_at(VTime::from_us(100));
        assert_eq!(b.wait_among(&c, 1, || {}), VTime::from_us(102));
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn oversized_survivor_set_rejected() {
        let b = VBarrier::new(2, VDur::ZERO);
        let c = VClock::new();
        b.wait_among(&c, 3, || {});
    }
}
