//! The rep loop every workload shares: fixed-work reps paced by rank 0's
//! host clock, per-op virtual-time samples, per-layer count snapshots and
//! benchmark-side host-time spans.

use std::sync::atomic::{AtomicU8, Ordering};
use std::time::Instant;

/// Measured reps whose virtual-time samples and counts are reported. Host
/// throughput uses every rep that fits in `--seconds`; the virtual clock and
/// the counters use only this fixed prefix, so for one seed they are the
/// product of fixed work and repeat exactly however fast the host is.
pub const EXACT_REPS: usize = 3;

/// Host-time batches per measured rep (`host.batch_us_per_op_*`).
const BATCHES_PER_REP: u64 = 100;

/// Ops whose spans go to the span file: the first of the first traced rep,
/// shared out among the issuing ranks. Every traced op still feeds the
/// per-name totals.
const SPAN_FILE_OPS: u64 = 2000;

/// What the next rep is for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Phase {
    /// Discarded: fills caches, wraps delivery rings, finishes lazy set-up.
    Warm,
    /// Measured with span recording off.
    Plain,
    /// Measured with span recording on (`--trace 1` only).
    Traced,
    /// No more reps.
    Done,
}

/// How long one world lives.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// Stop at the end of set-up (world init, exchanges, warm ops): the
    /// repeated set-up measurement and the exactness check use this.
    pub setup_only: bool,
    /// Discarded full reps before measuring.
    pub warm_reps: usize,
    /// Keep starting measured reps until this much measured time has passed.
    pub seconds: f64,
    /// Alternate plain and traced reps.
    pub traced: bool,
    /// Measure exactly this many reps, whatever `seconds` says.
    pub fixed_reps: Option<usize>,
}

impl Plan {
    /// One set-up world and nothing more.
    pub const SETUP_ONLY: Plan = Plan {
        setup_only: true,
        warm_reps: 0,
        seconds: 0.0,
        traced: false,
        fixed_reps: None,
    };

    /// Measure for `seconds` after `warm_reps` discarded reps.
    pub fn timed(warm_reps: usize, seconds: f64, traced: bool) -> Plan {
        Plan {
            setup_only: false,
            warm_reps,
            seconds,
            traced,
            fixed_reps: None,
        }
    }

    /// Measure exactly `reps` plain reps after `warm_reps` discarded ones.
    pub fn fixed(warm_reps: usize, reps: usize) -> Plan {
        Plan {
            fixed_reps: Some(reps),
            ..Plan::timed(warm_reps, 0.0, false)
        }
    }

    fn min_reps(&self) -> usize {
        // A traced run needs EXACT_REPS plain reps beside as many traced ones.
        if self.traced {
            2 * EXACT_REPS
        } else {
            EXACT_REPS
        }
    }
}

/// Rank 0 decides each rep's phase from the host clock and publishes it here
/// before the barrier that opens the rep; every rank reads it after.
pub struct Pace {
    phase: AtomicU8,
}

impl Pace {
    pub fn new() -> Self {
        Pace {
            phase: AtomicU8::new(Phase::Done as u8),
        }
    }

    pub fn publish(&self, p: Phase) {
        // ordering: the opening barrier's lock orders this store before the
        // other ranks' loads.
        self.phase.store(p as u8, Ordering::Relaxed);
    }

    pub fn phase(&self) -> Phase {
        match self.phase.load(Ordering::Relaxed) {
            0 => Phase::Warm,
            1 => Phase::Plain,
            2 => Phase::Traced,
            _ => Phase::Done,
        }
    }
}

/// Rank 0's stopwatch over the reps of one world.
pub struct RepClock {
    plan: Plan,
    warm_left: usize,
    started: Option<(Instant, f64)>,
    batch_mark: Option<Instant>,
    /// Seconds spent in warm reps.
    pub warm_s: f64,
    /// Process CPU seconds spent inside measured reps.
    pub cpu_s: f64,
    /// `(phase, seconds)` of every measured rep, in order.
    pub reps: Vec<(Phase, f64)>,
    /// Host µs per op of every batch of every plain rep.
    pub batch_us_per_op: Vec<f64>,
}

impl RepClock {
    pub fn new(plan: Plan) -> Self {
        RepClock {
            plan,
            warm_left: plan.warm_reps,
            started: None,
            batch_mark: None,
            warm_s: 0.0,
            cpu_s: 0.0,
            reps: Vec::new(),
            batch_us_per_op: Vec::new(),
        }
    }

    pub fn next_phase(&mut self) -> Phase {
        if self.plan.setup_only {
            return Phase::Done;
        }
        if self.warm_left > 0 {
            self.warm_left -= 1;
            return Phase::Warm;
        }
        let measured: f64 = self.reps.iter().map(|r| r.1).sum();
        let more = match self.plan.fixed_reps {
            Some(k) => self.reps.len() < k,
            None => self.reps.len() < self.plan.min_reps() || measured < self.plan.seconds,
        };
        if !more {
            Phase::Done
        } else if self.plan.traced && self.reps.len() % 2 == 1 {
            Phase::Traced
        } else {
            Phase::Plain
        }
    }

    pub fn start(&mut self) {
        let cpu = crate::host::cpu_seconds();
        let now = Instant::now();
        self.started = Some((now, cpu));
        self.batch_mark = Some(now);
    }

    /// Close a batch of `ops` ops (plain reps only).
    pub fn batch(&mut self, phase: Phase, ops: u64) {
        if phase != Phase::Plain {
            return;
        }
        let now = Instant::now();
        let mark = self
            .batch_mark
            .replace(now)
            .expect("start() before batch()");
        self.batch_us_per_op
            .push((now - mark).as_secs_f64() * 1e6 / ops as f64);
    }

    pub fn stop(&mut self, phase: Phase) {
        let (t, cpu) = self.started.take().expect("start() before stop()");
        let s = t.elapsed().as_secs_f64();
        match phase {
            Phase::Warm => self.warm_s += s,
            _ => {
                self.reps.push((phase, s));
                self.cpu_s += crate::host::cpu_seconds() - cpu;
            }
        }
    }
}

/// Run `op(i)` for `i` in `0..n`, closing a host-time batch on `clock` (rank
/// 0's, in plain reps) every `n / BATCHES_PER_REP` iterations. One iteration
/// is `ops_per_iter` ops job-wide (every issuing rank runs this loop).
pub fn batched(
    n: u64,
    ops_per_iter: u64,
    phase: Phase,
    mut clock: Option<&mut RepClock>,
    mut op: impl FnMut(u64),
) {
    let per_batch = (n / BATCHES_PER_REP).max(1);
    for i in 0..n {
        op(i);
        if (i + 1) % per_batch == 0 {
            if let Some(c) = clock.as_deref_mut() {
                c.batch(phase, per_batch * ops_per_iter);
            }
        }
    }
}

// ------------------------------------------------------------------ counts

/// Per-layer work counters read from the layers' public stats structs, as
/// one flat array so lanes can sum ranks and subtract snapshots uniformly.
pub type Counts = [u64; ix::LEN];

/// Indices into [`Counts`].
pub mod ix {
    pub const PACKETS: usize = 0;
    pub const WIRE_BYTES: usize = 1;
    pub const RETRANSMITS: usize = 2;
    pub const ACKS: usize = 3;
    pub const DUPS: usize = 4;
    pub const DISPATCHED: usize = 5;
    pub const INTERRUPTS: usize = 6;
    pub const HDR_HANDLERS: usize = 7;
    pub const CMPL_HANDLERS: usize = 8;
    pub const MPL_EAGER: usize = 9;
    pub const MPL_RNDV: usize = 10;
    pub const MPL_UNEXPECTED: usize = 11;
    pub const MPL_PACKETS: usize = 12;
    /// GA requests served by active messages (header-payload or bulk).
    pub const GA_AM: usize = 13;
    pub const GA_DIRECT_RMC: usize = 14;
    /// GA requests served by vector or per-column RMC.
    pub const GA_OTHER_RMC: usize = 15;
    pub const GA_POOL_EXHAUSTED: usize = 16;
    pub const LEN: usize = 17;
}

pub fn wire_counts(s: &spswitch::AdapterStats, c: &mut Counts) {
    c[ix::PACKETS] = s.packets_sent.get();
    c[ix::WIRE_BYTES] = s.bytes_sent.get();
    c[ix::RETRANSMITS] = s.retransmits.get();
    c[ix::ACKS] = s.acks_sent.get();
    c[ix::DUPS] = s.dups_suppressed.get();
}

pub fn lapi_counts(ctx: &lapi::LapiContext) -> Counts {
    let mut c = Counts::default();
    wire_counts(ctx.wire_stats(), &mut c);
    let s = ctx.stats();
    c[ix::DISPATCHED] = s.packets_dispatched.get();
    c[ix::INTERRUPTS] = s.interrupts.get();
    c[ix::HDR_HANDLERS] = s.hdr_handlers.get();
    c[ix::CMPL_HANDLERS] = s.cmpl_handlers.get();
    c
}

pub fn sub(a: &Counts, b: &Counts) -> Counts {
    std::array::from_fn(|i| a[i] - b[i])
}

pub fn add(a: &Counts, b: &Counts) -> Counts {
    std::array::from_fn(|i| a[i] + b[i])
}

// ------------------------------------------------------------------- spans

/// One host-time span around a call into a layer, recorded by the benchmark.
pub struct Span {
    pub name: &'static str,
    /// Name of the enclosing span ("" at the top).
    pub parent: &'static str,
    /// The op this span belongs to; spans of one op share it.
    pub op: u64,
    pub rank: usize,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Per-rank span recorder. Off outside traced reps: `begin` then costs one
/// branch and no clock read.
pub struct Spans {
    rank: usize,
    base: Instant,
    on: bool,
    /// Ops of this rank's that go to the span file, and the id below which
    /// an op is one of them (set by the first traced op).
    file_ops: u64,
    file_ops_end: Option<u64>,
    /// Spans kept for the span file.
    pub kept: Vec<Span>,
    /// `(name, total ns, count)` over every traced call.
    pub totals: Vec<(&'static str, u64, u64)>,
}

impl Spans {
    /// `base` is the process-wide time origin, so ranks share one axis.
    pub fn new(rank: usize, base: Instant, issuers: u64) -> Self {
        Spans {
            rank,
            base,
            on: false,
            file_ops: (SPAN_FILE_OPS / issuers).max(1),
            file_ops_end: None,
            kept: Vec::new(),
            totals: Vec::new(),
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    #[inline]
    pub fn begin(&self) -> Option<Instant> {
        self.on.then(Instant::now)
    }

    /// Close a span of op `op` (the op itself, or a call made for it).
    #[inline]
    pub fn end(&mut self, name: &'static str, parent: &'static str, op: u64, t: Option<Instant>) {
        let Some(t) = t else { return };
        let keep = op < *self.file_ops_end.get_or_insert(op + self.file_ops);
        self.record(name, parent, op, t, keep);
    }

    /// Close a span that belongs to rep `rep` as a whole (its barrier, its
    /// closing fence). There are few of them; all go to the span file.
    pub fn end_rep(&mut self, name: &'static str, rep: u64, t: Option<Instant>) {
        if let Some(t) = t {
            self.record(name, "", rep, t, true);
        }
    }

    fn record(
        &mut self,
        name: &'static str,
        parent: &'static str,
        op: u64,
        t: Instant,
        keep: bool,
    ) {
        let end = Instant::now();
        let ns = (end - t).as_nanos() as u64;
        match self.totals.iter_mut().find(|e| e.0 == name) {
            Some(e) => {
                e.1 += ns;
                e.2 += 1;
            }
            None => self.totals.push((name, ns, 1)),
        }
        if keep {
            self.kept.push(Span {
                name,
                parent,
                op,
                rank: self.rank,
                start_ns: (t - self.base).as_nanos() as u64,
                end_ns: (end - self.base).as_nanos() as u64,
            });
        }
    }
}

// ------------------------------------------------------------- per-rank log

/// What one rank brings back from a world.
pub struct RankLog {
    /// Per-op virtual ns of the first [`EXACT_REPS`] plain reps.
    pub vt_ns: Vec<u64>,
    /// Per-op virtual ns of the set-up phase's warm ops.
    pub warm_vt_ns: Vec<u64>,
    /// Fingerprint of the set-up phase: warm-op virtual times and counters.
    /// Worlds built from one seed must agree on it bit for bit.
    pub setup_fp: u64,
    /// Counter deltas over the first [`EXACT_REPS`] plain reps.
    pub counts: Counts,
    /// Plain reps folded into `vt_ns` and `counts` so far.
    pub exact_reps: usize,
    pub attempted: u64,
    pub failed: u64,
    pub spans: Spans,
}

impl RankLog {
    pub fn new(rank: usize, base: Instant, issuers: u64) -> Self {
        RankLog {
            vt_ns: Vec::new(),
            warm_vt_ns: Vec::new(),
            setup_fp: FNV_OFFSET,
            counts: Counts::default(),
            exact_reps: 0,
            attempted: 0,
            failed: 0,
            spans: Spans::new(rank, base, issuers),
        }
    }

    /// Is this rep one whose virtual times and counts are kept?
    pub fn keeps(&self, phase: Phase) -> bool {
        phase == Phase::Plain && self.exact_reps < EXACT_REPS
    }

    pub fn check(&mut self, ok: bool) {
        if !ok {
            self.failed += 1;
        }
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

pub fn fnv(h: u64, v: u64) -> u64 {
    v.to_le_bytes()
        .iter()
        .fold(h, |h, b| (h ^ *b as u64).wrapping_mul(0x0100_0000_01b3))
}

/// Rank 0's reading at the end of set-up.
pub struct SetupEnd {
    /// Seconds since world construction began (init, exchanges, warm ops).
    pub setup_s: f64,
    /// `VmRSS` of the process.
    pub rss_kb: u64,
}

/// What one world brings back: rank 0's stopwatch and every rank's log.
pub struct LaneOut {
    pub setup: SetupEnd,
    /// World construction alone.
    pub world_init_s: f64,
    pub ops_per_rep: u64,
    pub clock: RepClock,
    pub ranks: Vec<RankLog>,
}

// ------------------------------------------------------------------- stats

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Quantile `q` of an ascending slice by linear interpolation.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of nothing");
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(v: &[f64]) -> f64 {
    quantile(&sorted(v.to_vec()), 0.5)
}

/// `k`-th smallest-rank percentile of integer samples, no interpolation: a
/// virtual-time percentile is always a value some op actually took.
pub fn percentile_ns(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of nothing");
    sorted[((sorted.len() - 1) as f64 * p).round() as usize]
}
