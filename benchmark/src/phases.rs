//! Virtual-time phases of one closed-loop put, from the `spsim::trace`
//! timeline of a traced set-up world.
//!
//! The pair lanes keep one op outstanding, so in virtual time every event of
//! op `i` lies between the origin's completion-counter events of ops `i − 1`
//! and `i`. Within such a window the op is cut at the last event of each
//! kind:
//!
//! ```text
//! origin cmpl counter (op i−1)            = op i starts (waitcntr returned)
//!   issue_to_inject     put call overhead, last data packet on the wire
//! origin's last inject
//!   inject_to_eject     fabric and ejection link (and retransmits, if lossy)
//! target's last eject
//!   eject_to_deliver    waiting for the target to poll
//! target's last deliver
//!   deliver_to_counter  dispatch, reassembly, target counter
//! target's counter
//!   counter_to_complete the Done message back and the origin's counter
//! origin cmpl counter (op i)
//! ```
//!
//! The cuts telescope, so the five phases of an op sum to its window.

use spsim::{EventKind, Timeline};

pub const PHASES: [&str; 5] = [
    "vt.issue_to_inject_us",
    "vt.inject_to_eject_us",
    "vt.eject_to_deliver_us",
    "vt.deliver_to_counter_us",
    "vt.counter_to_complete_us",
];

const ORIGIN: usize = 0;
const TARGET: usize = 1;

/// Mean µs of each phase over the ops of the timeline, and the ops counted.
pub fn of_pair_lane(tl: &Timeline) -> ([f64; 5], u64) {
    let mut sums = [0u64; 5];
    let mut ops = 0u64;
    let mut start = None;
    // Last time seen in the current window: origin inject, target eject,
    // target deliver, target counter.
    let mut cut = [None; 4];
    for e in &tl.events {
        let slot = match (e.node, e.kind) {
            (ORIGIN, EventKind::Inject) => 0,
            (TARGET, EventKind::Eject) => 1,
            (TARGET, EventKind::Deliver) => 2,
            (TARGET, EventKind::Counter) => 3,
            (ORIGIN, EventKind::Counter) => {
                if let (Some(s), [Some(a), Some(b), Some(c), Some(d)]) = (start, cut) {
                    let marks = [s, a, b, c, d, e.vtime.as_ns()];
                    for (sum, w) in sums.iter_mut().zip(marks.windows(2)) {
                        *sum += w[1].saturating_sub(w[0]);
                    }
                    ops += 1;
                }
                start = Some(e.vtime.as_ns());
                cut = [None; 4];
                continue;
            }
            _ => continue,
        };
        cut[slot] = Some(e.vtime.as_ns());
    }
    (sums.map(|s| s as f64 / 1000.0 / ops.max(1) as f64), ops)
}
