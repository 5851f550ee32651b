//! `mpl_mix_n2`: MPL send/recv ping-pong, seven 1 KiB eager messages then
//! one 64 KiB rendezvous, each answered by a 4-byte echo.

use std::sync::Arc;
use std::time::Instant;

use mpl::{MplContext, MplMode, MplWorld};
use spsim::SimRng;

use crate::harness::{
    batched, ix, wire_counts, Counts, LaneOut, Pace, Phase, Plan, RankLog, RepClock,
};
use crate::lanes::{finish, machine, run_rank, Lane};

const EAGER_BYTES: usize = 1024;
const RNDV_BYTES: usize = 64 * 1024;
/// Every `GROUP`-th message is the rendezvous one.
const GROUP: u64 = 8;
/// `MP_EAGER_LIMIT`, pinned to the library default so the 1 KiB / 64 KiB
/// split above lands on either side of it.
const EAGER_LIMIT: usize = 4096;
const TAG_DATA: i32 = 1;
const TAG_ECHO: i32 = 2;

#[derive(Clone, Copy)]
pub struct MplMixLane {
    pub ops_per_rep: u64,
}

struct MplRank<'a> {
    rank: usize,
    ops_per_rep: u64,
    ctx: &'a MplContext,
    /// `RNDV_BYTES` of pattern; a message is a prefix of it with the op
    /// index stamped over its first 8 B.
    payload: Vec<u8>,
    next_op: u64,
}

fn len_of(op: u64) -> usize {
    if op % GROUP == GROUP - 1 {
        RNDV_BYTES
    } else {
        EAGER_BYTES
    }
}

impl MplRank<'_> {
    fn one_op(&mut self, op: u64, keep: bool, log: &mut RankLog) {
        let len = len_of(op);
        if self.rank == 0 {
            let t_op = log.spans.begin();
            let v0 = self.ctx.now();
            self.payload[..8].copy_from_slice(&op.to_le_bytes());
            let t = log.spans.begin();
            self.ctx.send(1, TAG_DATA, &self.payload[..len]);
            log.spans.end("mpl.send", "op", op, t);
            let t = log.spans.begin();
            let (echo, st) = self.ctx.recv(Some(1), Some(TAG_ECHO));
            log.spans.end("mpl.recv", "op", op, t);
            if keep {
                log.vt_ns.push((self.ctx.now() - v0).0);
            }
            log.attempted += 1;
            log.check(st.len == 4 && echo == (op as u32).to_le_bytes());
            log.spans.end("op", "", op, t_op);
        } else {
            let (msg, st) = self.ctx.recv(Some(0), Some(TAG_DATA));
            // Length, the stamped prefix, and the pattern's last 8 B.
            log.check(
                st.len == len
                    && msg.len() == len
                    && msg[..8] == op.to_le_bytes()
                    && msg[len - 8..] == self.payload[len - 8..len],
            );
            self.ctx.send(0, TAG_ECHO, &(op as u32).to_le_bytes());
        }
    }
}

impl Lane for MplRank<'_> {
    fn barrier(&self) {
        self.ctx.barrier();
    }

    fn barrier_span(&self) -> &'static str {
        "mpl.barrier"
    }

    fn ops_per_rep(&self) -> u64 {
        self.ops_per_rep
    }

    fn issuers(&self) -> u64 {
        1
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
        batched(n, 1, phase, clock, |i| self.one_op(first + i, keep, log));
        self.next_op += n;
        let t = log.spans.begin();
        self.ctx.barrier();
        log.spans.end_rep("mpl.barrier", rep, t);
    }

    fn snapshot(&self) -> Counts {
        let mut c = Counts::default();
        wire_counts(self.ctx.wire_stats(), &mut c);
        let s = self.ctx.stats();
        c[ix::MPL_EAGER] = s.eager_msgs.get();
        c[ix::MPL_RNDV] = s.rndv_msgs.get();
        c[ix::MPL_UNEXPECTED] = s.unexpected.get();
        c[ix::MPL_PACKETS] = s.packets.get();
        c
    }

    /// Every message was matched by the receive that checked it; what is
    /// left to check is that the library agrees on how many there were.
    fn verify(&mut self, log: &mut RankLog) {
        let s = self.ctx.stats();
        log.check(s.sends.get() == self.next_op && s.recvs.get() == self.next_op);
    }
}

pub fn run(lane: &MplMixLane, seed: u64, plan: Plan, base: Instant) -> LaneOut {
    let lane = *lane;
    assert_eq!(lane.ops_per_rep % GROUP, 0, "whole message groups per rep");
    let cfg = machine().with_eager_limit(EAGER_LIMIT);
    let t_world = Instant::now();
    let ctxs = MplWorld::init_seeded(2, cfg, MplMode::Polling, seed);
    let world_init_s = t_world.elapsed().as_secs_f64();
    let pace = Arc::new(Pace::new());
    let mut pattern = vec![0u8; RNDV_BYTES];
    let mut rng = SimRng::new(seed ^ 0x006d_706c);
    for chunk in pattern.chunks_mut(8) {
        chunk.copy_from_slice(&rng.next_u64().to_le_bytes());
    }
    let outs = spsim::run_spmd_with(ctxs, move |rank, ctx| {
        let mut me = MplRank {
            rank,
            ops_per_rep: lane.ops_per_rep,
            ctx: &ctx,
            payload: pattern.clone(),
            next_op: 0,
        };
        run_rank(&mut me, rank, plan, &pace, t_world, base)
    });
    finish(outs, world_init_s, lane.ops_per_rep)
}
