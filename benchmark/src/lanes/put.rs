//! LAPI put lanes: the 2-node closed loops (`lapi_small_n2`, `lapi_bulk_n2`,
//! `lapi_bulk_lossy_n2`) and the neighbour ring (`ring_n256`).

use std::sync::Arc;
use std::time::Instant;

use lapi::{Addr, Counter, LapiContext, LapiWorld, Mode, RemoteCounter};
use spsim::{MachineConfig, SimRng};

use crate::harness::{batched, lapi_counts, Counts, LaneOut, Pace, Phase, Plan, RankLog, RepClock};
use crate::lanes::{finish, machine, run_rank, Lane};

/// Who talks to whom.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Rank 0 puts to rank 1 and waits for remote completion (`cmpl_cntr`);
    /// rank 1 waits on its `tgt_cntr` and checks what landed.
    Pair,
    /// Every rank puts to `(rank + 1) % n`, waits for its remote completion,
    /// then waits on its own `tgt_cntr` for the put of its left neighbour.
    Ring,
}

#[derive(Clone, Copy)]
pub struct PutLane {
    pub nodes: usize,
    pub shape: Shape,
    pub bytes: usize,
    pub drop_prob: f64,
    /// Ops per issuing rank per rep.
    pub ops_per_rep: u64,
    /// Ops per issuing rank in set-up.
    pub warm_ops: u64,
}

impl PutLane {
    fn issuers(&self) -> u64 {
        match self.shape {
            Shape::Pair => 1,
            Shape::Ring => self.nodes as u64,
        }
    }

    fn peer(&self, rank: usize) -> usize {
        (rank + 1) % self.nodes
    }

    fn machine(&self) -> MachineConfig {
        if self.drop_prob > 0.0 {
            machine().with_drop_prob(self.drop_prob)
        } else {
            machine()
        }
    }
}

/// Receive slots per rank; op `i` lands in slot `i % SLOTS`. Both shapes close
/// the loop on remote completion, so a sender is at most one op ahead of its
/// receiver's check.
const SLOTS: u64 = 2;

struct PutRank<'a> {
    lane: PutLane,
    rank: usize,
    ctx: &'a LapiContext,
    /// Payload pattern; the op index is stamped over its first and last 8 B.
    payload: Vec<u8>,
    pattern: Vec<u8>,
    peer_addr: Addr,
    peer_tgt: RemoteCounter,
    local: Addr,
    tgt: Counter,
    cmpl: Counter,
    /// Ops issued (or awaited) so far, across every rep of this world.
    next_op: u64,
}

impl PutRank<'_> {
    fn slot(&self, op: u64) -> usize {
        (op % SLOTS) as usize * self.lane.bytes
    }

    fn stamp(&mut self, op: u64) {
        let n = self.payload.len();
        self.payload[..8].copy_from_slice(&op.to_le_bytes());
        self.payload[n - 8..].copy_from_slice(&op.to_le_bytes());
    }

    /// Put op `op` to the peer. A `LapiError` ends the run: the loop is in
    /// lock-step with the target and cannot continue past a lost op.
    fn put(&mut self, op: u64, log: &mut RankLog) {
        self.stamp(op);
        let addr = self.peer_addr.offset(self.slot(op));
        let t = log.spans.begin();
        let r = self.ctx.put(
            self.lane.peer(self.rank),
            addr,
            &self.payload,
            Some(self.peer_tgt),
            None,
            Some(&self.cmpl),
        );
        log.spans.end("lapi.put", "op", op, t);
        log.attempted += 1;
        if let Err(e) = r {
            log.failed += 1;
            panic!("op {op}: put failed: {e}");
        }
    }

    fn wait(&self, c: &Counter, op: u64, log: &mut RankLog) {
        let t = log.spans.begin();
        self.ctx.waitcntr(c, 1);
        log.spans.end("lapi.wait", "op", op, t);
    }

    /// Check what the sender's put left in this rank's slot for op `op`: the
    /// op index, at both ends of the payload.
    fn check_landed(&mut self, op: u64, log: &mut RankLog) {
        let at = self.local.offset(self.slot(op));
        let head = self.ctx.mem_read_u64(at);
        let tail = self.ctx.mem_read_u64(at.offset(self.lane.bytes - 8));
        log.check(head == op && tail == op);
    }

    fn one_op(&mut self, op: u64, keep: bool, log: &mut RankLog) {
        let ring = self.lane.shape == Shape::Ring;
        let (issues, receives) = (ring || self.rank == 0, ring || self.rank == 1);
        let t_op = log.spans.begin();
        let v0 = self.ctx.now();
        if issues {
            self.put(op, log);
            self.wait(&self.cmpl, op, log);
        }
        if receives {
            self.wait(&self.tgt, op, log);
            self.check_landed(op, log);
        }
        if issues {
            if keep && !ring {
                log.vt_ns.push((self.ctx.now() - v0).0);
            }
            log.spans.end("op", "", op, t_op);
        }
    }
}

impl Lane for PutRank<'_> {
    fn barrier(&self) {
        self.ctx.barrier();
    }

    fn barrier_span(&self) -> &'static str {
        "lapi.barrier"
    }

    fn snapshot(&self) -> Counts {
        lapi_counts(self.ctx)
    }

    fn ops_per_rep(&self) -> u64 {
        self.lane.ops_per_rep
    }

    fn warm_ops(&self) -> u64 {
        self.lane.warm_ops
    }

    fn issuers(&self) -> u64 {
        self.lane.issuers()
    }

    fn segment(
        &mut self,
        n: u64,
        rep: u64,
        phase: Phase,
        keep: bool,
        log: &mut RankLog,
        clock: Option<&mut RepClock>,
    ) {
        let first = self.next_op;
        let v0 = self.ctx.now();
        batched(n, self.lane.issuers(), phase, clock, |i| {
            self.one_op(first + i, keep, log)
        });
        self.next_op = first + n;
        // With many ranks, which message a rank happens to process first, and
        // so which timestamp its clock merges first, follows the host's
        // scheduling (ROADMAP item 2): single ops' virtual times do not
        // repeat, a rank's mean over the segment nearly does. One sample per
        // rank and segment, then.
        if keep && self.lane.shape == Shape::Ring {
            log.vt_ns.push((self.ctx.now() - v0).0 / n);
        }
        let t = log.spans.begin();
        self.ctx.gfence().expect("gfence");
        log.spans.end_rep("lapi.fence", rep, t);
    }

    /// After the segment's gfence: both counters are exactly consumed, every
    /// receive slot holds the last op of its residue, and the last payload
    /// landed whole, not just its two stamps.
    fn verify(&mut self, log: &mut RankLog) {
        log.check(self.ctx.getcntr(&self.tgt) == 0 && self.ctx.getcntr(&self.cmpl) == 0);
        let receives = self.lane.shape == Shape::Ring || self.rank == 1;
        let last = self.next_op - 1;
        if receives {
            for s in 0..SLOTS {
                let want = last - (last + SLOTS - s) % SLOTS;
                let at = self.local.offset(self.slot(s));
                log.check(self.ctx.mem_read_u64(at) == want);
            }
        }
        if self.lane.shape == Shape::Pair && self.rank == 1 {
            let got = self
                .ctx
                .mem_read(self.local.offset(self.slot(last)), self.lane.bytes);
            // Between the two 8 B stamps (nothing, for an 8 B payload).
            let mid = 8..got.len().saturating_sub(8).max(8);
            log.check(got.len() == self.pattern.len() && got[mid.clone()] == self.pattern[mid]);
        }
    }
}

pub fn run(lane: &PutLane, seed: u64, plan: Plan, base: Instant) -> LaneOut {
    let lane = *lane;
    let t_world = Instant::now();
    let ctxs = LapiWorld::init_seeded(lane.nodes, lane.machine(), Mode::Polling, seed);
    let world_init_s = t_world.elapsed().as_secs_f64();
    let pace = Arc::new(Pace::new());
    let mut pattern = vec![0u8; lane.bytes];
    let mut rng = SimRng::new(seed ^ 0x7061_7474);
    for chunk in pattern.chunks_mut(8) {
        let v = rng.next_u64().to_le_bytes();
        chunk.copy_from_slice(&v[..chunk.len()]);
    }
    let outs = spsim::run_spmd_with(ctxs, move |rank, ctx| {
        let local = ctx.alloc(lane.bytes * SLOTS as usize);
        let tgt = ctx.new_counter();
        let cmpl = ctx.new_counter();
        let addrs = ctx.address_init(local);
        let tgts = ctx.counter_init(&tgt);
        let peer = lane.peer(rank);
        let mut me = PutRank {
            lane,
            rank,
            ctx: &ctx,
            payload: pattern.clone(),
            pattern: pattern.clone(),
            peer_addr: addrs[peer],
            peer_tgt: tgts[peer],
            local,
            tgt,
            cmpl,
            next_op: 0,
        };
        run_rank(&mut me, rank, plan, &pace, t_world, base)
    });
    finish(outs, world_init_s, lane.ops_per_rep * lane.issuers())
}
