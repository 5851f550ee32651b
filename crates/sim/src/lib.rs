//! # spsim — virtual-time simulation kernel for the simulated RS/6000 SP
//!
//! This crate provides the substrate on which the LAPI reproduction runs:
//! every simulated SP *node* is a cooperative task multiplexed M:N onto a
//! fixed worker pool ([`sched`]), and time is **virtual**.
//! Each node owns a [`VClock`] — a monotonically advancing virtual-nanosecond
//! counter. CPU work performed by the communication libraries is charged to
//! the clock with [`VClock::advance`]; messages carry virtual timestamps, and
//! a receiver that observes an event *merges* the event time into its own
//! clock ([`VClock::merge`]). A node that is blocked waiting does **not**
//! advance its clock, which makes latency and bandwidth measurements
//! deterministic and independent of the host machine.
//!
//! The pieces:
//!
//! * [`VTime`] / [`VDur`] — virtual instants and durations (nanoseconds).
//! * [`VClock`] — a shareable per-node clock.
//! * [`MachineConfig`] — the calibrated cost model of the simulated SP
//!   (packet sizes, wire bandwidth, software overheads, interrupt costs).
//! * [`DeliveryRings`] — *the* packet-delivery queue: one SPSC ring per
//!   source lane, popped in virtual-timestamp order; receiving merges the
//!   element's timestamp into the caller's clock. This is how packet
//!   arrival times propagate between nodes.
//! * [`TimedQueue`] — the multi-producer timestamp heap: the LAPI engine's
//!   completion-work queue, and the ordering reference the rings are tested
//!   against.
//! * [`VBarrier`] — a barrier that aligns the virtual clocks of all
//!   participants (to the maximum, plus a configurable cost), its
//!   dissemination cost model, and the [`barrier::Exchange`] board both
//!   libraries collect addresses with.
//! * [`run_spmd`] — run `n` node tasks executing the same closure
//!   (single-program-multiple-data, like a parallel job on the SP), with
//!   panic propagation.
//! * [`SimRng`] — a tiny deterministic RNG (SplitMix64) used for route
//!   selection and drop injection in the switch model.
//! * [`trace`] — virtual-time event tracing: per-node ring buffers behind a
//!   process-global [`trace::TraceSink`], drained by [`run_spmd`] into a
//!   merged deterministic timeline. Disabled by default (one atomic load on
//!   the hot path); powers the deadlock diagnostics and
//!   [`trace::TraceSink::assert_quiescent`].
//! * [`diag`] — the diagnostic-panic discipline for engine hot paths
//!   ([`sim_panic!`], [`OrDiag`]); enforced statically by `spsim-lint`.

#![warn(missing_docs)]

pub mod barrier;
pub mod clock;
pub mod config;
pub mod diag;
pub mod fault;
pub mod mutation;
pub mod queue;
pub mod rng;
pub mod runtime;
pub mod sched;
pub mod spsc;
pub mod stats;
pub mod time;
pub mod trace;

pub use barrier::VBarrier;
pub use clock::VClock;
pub use config::MachineConfig;
pub use diag::OrDiag;
pub use fault::{FaultPlan, FaultProfile, FaultWindow, LinkFaults, NodeFault};
pub use mutation::Mutant;
pub use queue::{QueueClosed, Stamped, TimedQueue};
pub use rng::SimRng;
pub use runtime::{
    run_spmd, run_spmd_with, set_schedule_tiebreak, spawn_service, NodeId, ServiceHandle,
};
pub use sched::{set_worker_cap, yield_now, SimCondvar, SimWaitTimeoutResult};
pub use spsc::DeliveryRings;
pub use stats::StatCounter;
pub use time::{VDur, VTime};
pub use trace::{EventKind, Timeline, TraceEvent, TraceSession, TraceSink};

// Source compatibility for the frozen `benchmark/` (probes.rs:29 `DeliveryQueue::Rings(..)`,
// lanes/mod.rs:22 `with_delivery_path(DeliveryPath::Rings)`, main.rs:679 `set_sched_mode(..)`);
// used by nothing in-tree. The next PR that may edit `benchmark/` deletes this block.
#[doc(hidden)]
mod compat {
    pub enum SchedMode {
        Pool,
    }
    pub fn set_sched_mode(_: Option<SchedMode>) {}
    pub enum DeliveryPath {
        Rings,
    }
    impl crate::MachineConfig {
        pub fn with_delivery_path(self, _: DeliveryPath) -> Self {
            self
        }
    }
    pub enum DeliveryQueue<T> {
        Rings(crate::DeliveryRings<T>),
    }
    impl<T> std::ops::Deref for DeliveryQueue<T> {
        type Target = crate::DeliveryRings<T>;
        fn deref(&self) -> &Self::Target {
            let DeliveryQueue::Rings(q) = self;
            q
        }
    }
}
#[doc(hidden)]
pub use compat::{set_sched_mode, DeliveryPath, DeliveryQueue, SchedMode};
