//! The workloads. Each lane builds one world, runs set-up inside the SPMD
//! closure and hands a per-rank [`Lane`] to [`drive`].

pub mod ga_mix;
pub mod mpl_mix;
pub mod put;
pub mod sweep;

use std::time::Instant;

use spsim::{DeliveryPath, MachineConfig};

use crate::harness::{
    add, fnv, sub, Counts, LaneOut, Pace, Phase, Plan, RankLog, RepClock, SetupEnd,
};

/// The calibrated machine with every environment-selectable knob pinned: no
/// fault profile, ring delivery. Lanes add what they need on top.
pub fn machine() -> MachineConfig {
    MachineConfig::sp_p2sc_120()
        .with_no_faults()
        .with_delivery_path(DeliveryPath::Rings)
}

/// Ops per issuing rank in the set-up phase of every world.
pub const WARM_OPS: u64 = 1000;

/// One rank's side of a workload, as the rep loop sees it.
pub trait Lane {
    /// The collective that opens every rep.
    fn barrier(&self);
    /// Span name of that collective.
    fn barrier_span(&self) -> &'static str;
    /// This rank's per-layer counters, from the layers' public stats.
    fn snapshot(&self) -> Counts;
    /// Ops per rank in one rep.
    fn ops_per_rep(&self) -> u64;
    /// Ops per rank in set-up.
    fn warm_ops(&self) -> u64 {
        WARM_OPS
    }
    /// Ranks that issue ops.
    fn issuers(&self) -> u64;
    /// `n` ops per rank, closed by a job-wide fence: when it returns on rank
    /// 0, every rank's ops have completed. `keep` records per-op virtual
    /// times; `clock` (rank 0) marks host-time batches.
    fn segment(
        &mut self,
        n: u64,
        rep: u64,
        phase: Phase,
        keep: bool,
        log: &mut RankLog,
        clock: Option<&mut RepClock>,
    );
    /// Check the segment's results (untimed).
    fn verify(&mut self, log: &mut RankLog);
}

/// The rep loop: rank 0 (the one holding a clock) times each rep between the
/// opening barrier and the return of the rep's closing fence.
fn drive(lane: &mut dyn Lane, pace: &Pace, clock: &mut Option<RepClock>, log: &mut RankLog) {
    let mut rep_id = 0u64;
    loop {
        if let Some(c) = clock {
            pace.publish(c.next_phase());
        }
        let t = Instant::now();
        lane.barrier();
        let phase = pace.phase();
        if phase == Phase::Done {
            return;
        }
        log.spans.set_on(phase == Phase::Traced);
        if phase == Phase::Traced {
            log.spans.end_rep(lane.barrier_span(), rep_id, Some(t));
        }
        let keep = log.keeps(phase);
        // Counters are read with every rank held between two barriers, so no
        // early starter's traffic leaks into a neighbour's snapshot.
        let before = keep.then(|| {
            let c = lane.snapshot();
            lane.barrier();
            c
        });
        if let Some(c) = clock {
            c.start();
        }
        lane.segment(lane.ops_per_rep(), rep_id, phase, keep, log, clock.as_mut());
        if let Some(c) = clock {
            c.stop(phase);
        }
        log.spans.set_on(false);
        if let Some(before) = before {
            log.counts = add(&log.counts, &sub(&lane.snapshot(), &before));
            log.exact_reps += 1;
        }
        lane.verify(log);
        rep_id += 1;
    }
}

/// One rank's life after world-specific initialisation: the warm ops that end
/// set-up, their fingerprint, then the rep loop. `t_world` is when world
/// construction began.
pub fn run_rank(
    lane: &mut dyn Lane,
    rank: usize,
    plan: Plan,
    pace: &Pace,
    t_world: Instant,
    base: Instant,
) -> (RankLog, Option<(RepClock, SetupEnd)>) {
    let mut log = RankLog::new(rank, base, lane.issuers());
    // A fixed, short prefix whose virtual times and counters must be
    // identical in every world built from one seed.
    lane.segment(lane.warm_ops(), 0, Phase::Warm, true, &mut log, None);
    lane.verify(&mut log);
    log.warm_vt_ns = std::mem::take(&mut log.vt_ns);
    log.setup_fp = log
        .warm_vt_ns
        .iter()
        .chain(&lane.snapshot())
        .fold(log.setup_fp, |h, v| fnv(h, *v));
    let end = (rank == 0).then(|| SetupEnd {
        setup_s: t_world.elapsed().as_secs_f64(),
        rss_kb: crate::host::status_kb("VmRSS"),
    });
    let mut clock = (rank == 0).then(|| RepClock::new(plan));
    drive(lane, pace, &mut clock, &mut log);
    (log, clock.zip(end))
}

/// Gather the per-rank results of one world.
pub fn finish(
    outs: Vec<(RankLog, Option<(RepClock, SetupEnd)>)>,
    world_init_s: f64,
    ops_per_rep: u64,
) -> LaneOut {
    let mut ranks = Vec::with_capacity(outs.len());
    let mut rank0 = None;
    for (log, r0) in outs {
        rank0 = rank0.or(r0);
        ranks.push(log);
    }
    let (clock, setup) = rank0.expect("rank 0 returns the clock");
    LaneOut {
        setup,
        world_init_s,
        ops_per_rep,
        clock,
        ranks,
    }
}
