//! `ga_mix_n4`: Global Arrays over LAPI in interrupt mode, every rank
//! issuing put / get / acc / element get / read_inc in rotation.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Instant;

use ga::{Ga, GaBackend, GaConfig, GaKind, GlobalArray, LapiGaBackend, Patch};
use lapi::{LapiWorld, Mode};
use spsim::SimRng;

use crate::harness::{
    batched, ix, lapi_counts, Counts, LaneOut, Pace, Phase, Plan, RankLog, RepClock,
};
use crate::lanes::{finish, machine, run_rank, Lane, WARM_OPS};

pub const NODES: usize = 4;
/// The double array: 256×256, in 128×128 blocks over the 2×2 task grid.
const DIM: usize = 256;
/// Patch edge of the three patch ops.
const EDGE: usize = 16;
/// Rank `r` alone writes columns `[BAND*r, BAND*(r+1))` of the double array,
/// so it knows what every element of its band holds, whoever owns it.
const BAND: usize = DIM / NODES;
/// A band is two halves: puts go to one and gets read the other, which no
/// put has touched since the last sync (GA orders a get after a put to the
/// same place only across a fence). The halves swap every rep.
const HALF: usize = BAND / 2;
/// Op kinds in rotation.
const KINDS: u64 = 5;

#[derive(Clone, Copy)]
pub struct GaMixLane {
    /// Ops per rank per rep; a multiple of `KINDS * NODES`.
    pub ops_per_rep: u64,
}

struct GaRank {
    rank: usize,
    ops_per_rep: u64,
    ga: Ga,
    backend: Arc<LapiGaBackend>,
    /// put / get target.
    a: GlobalArray,
    /// acc target: every rank accumulates ones anywhere in it.
    s: GlobalArray,
    /// One ticket counter per owner.
    t: GlobalArray,
    /// This rank's band of `a`, column-major, `DIM` rows.
    shadow: Vec<f64>,
    rng: SimRng,
    next_op: u64,
    /// Ops in the segment (warm ops or rep) just run.
    seg_ops: u64,
    reps_done: u64,
    /// Tickets drawn this rep, per counter.
    tickets: Vec<Vec<i64>>,
    /// `seen[c][k]`: how many ranks drew ticket `k` of this rep from counter
    /// `c`. Benchmark-side shared memory, not part of the simulated job.
    seen: Arc<Vec<Vec<AtomicU32>>>,
}

impl GaRank {
    fn patch(&mut self, write_half: bool) -> Patch {
        let parity = (self.reps_done % 2) as usize;
        let half = if write_half { parity } else { 1 - parity };
        let col0 = BAND * self.rank + HALF * half;
        let i = self.rng.next_below((DIM - EDGE + 1) as u64) as usize;
        let j = col0 + self.rng.next_below((HALF - EDGE + 1) as u64) as usize;
        Patch::new((i, j), (i + EDGE - 1, j + EDGE - 1))
    }

    /// For each element of `p` (inside this rank's band): its index in the
    /// shadow and its index in the patch's column-major data.
    fn cells(&self, p: Patch) -> impl Iterator<Item = (usize, usize)> {
        let band0 = BAND * self.rank;
        (p.lo.1..=p.hi.1).flat_map(move |j| {
            (p.lo.0..=p.hi.0).map(move |i| {
                (
                    (j - band0) * DIM + i,
                    (j - p.lo.1) * p.rows() + (i - p.lo.0),
                )
            })
        })
    }

    fn check_get(&self, p: Patch, got: &[f64]) -> bool {
        got.len() == p.elems() && self.cells(p).all(|(at, k)| got[k] == self.shadow[at])
    }

    fn one_op(&mut self, op: u64, keep: bool, log: &mut RankLog) {
        let t_op = log.spans.begin();
        let v0 = self.ga.now();
        let t = log.spans.begin();
        let name = match op % KINDS {
            0 => {
                let p = self.patch(true);
                let data: Vec<f64> = (0..p.elems())
                    .map(|k| (op * 1024 + k as u64) as f64)
                    .collect();
                self.a.put(p, &data);
                for (at, k) in self.cells(p) {
                    self.shadow[at] = data[k];
                }
                "ga.put"
            }
            1 => {
                let p = self.patch(false);
                let got = self.a.get(p);
                log.check(self.check_get(p, &got));
                "ga.get"
            }
            2 => {
                let i = self.rng.next_below((DIM - EDGE + 1) as u64) as usize;
                let j = self.rng.next_below((DIM - EDGE + 1) as u64) as usize;
                let p = Patch::new((i, j), (i + EDGE - 1, j + EDGE - 1));
                self.s.acc(p, 1.0, &[1.0; EDGE * EDGE]);
                "ga.acc"
            }
            3 => {
                let p = self.patch(false);
                let p = Patch::new(p.lo, p.lo);
                let got = self.a.get(p);
                log.check(self.check_get(p, &got));
                "ga.get"
            }
            _ => {
                let c = ((op / KINDS) as usize + self.rank) % NODES;
                let ticket = self.t.read_inc(c / 2, c % 2, 1);
                self.tickets[c].push(ticket);
                "ga.read_inc"
            }
        };
        log.spans.end(name, "op", op, t);
        if keep {
            log.vt_ns.push((self.ga.now() - v0).0);
        }
        log.attempted += 1;
        log.spans.end("op", "", op, t_op);
    }
}

impl Lane for GaRank {
    fn barrier(&self) {
        self.ga.sync();
    }

    fn barrier_span(&self) -> &'static str {
        "ga.sync"
    }

    fn ops_per_rep(&self) -> u64 {
        self.ops_per_rep
    }

    fn issuers(&self) -> u64 {
        NODES as u64
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
        batched(n, NODES as u64, phase, clock, |i| {
            self.one_op(first + i, keep, log)
        });
        self.next_op += n;
        self.seg_ops = n;
        let t = log.spans.begin();
        self.ga.sync();
        log.spans.end_rep("ga.sync", rep, t);
        self.reps_done += 1;
    }

    fn snapshot(&self) -> Counts {
        let mut c = lapi_counts(self.backend.lapi());
        let s = self.ga.stats();
        c[ix::GA_AM] = s.am_requests.get() + s.am_bulk_requests.get();
        c[ix::GA_DIRECT_RMC] = s.direct_rmc.get();
        c[ix::GA_OTHER_RMC] = s.vector_rmc.get() + s.per_column_rmc.get();
        c[ix::GA_POOL_EXHAUSTED] = s.pool_exhausted.get();
        c
    }

    /// After the rep's sync. Accumulated ones: the array's sum is 256 per acc
    /// ever issued, exactly (integers in f64). Tickets: each op group draws
    /// once from every counter (one rank each), so the draws of all ranks
    /// from a counter are a permutation of this rep's range of groups.
    fn verify(&mut self, log: &mut RankLog) {
        let local: f64 = self.s.local_data().iter().sum();
        let total: u64 = self.ga.backend().exchange(local as u64).iter().sum();
        let accs = self.next_op / KINDS * NODES as u64;
        log.check(local.fract() == 0.0 && total == accs * (EDGE * EDGE) as u64);

        let groups = (self.seg_ops / KINDS) as usize;
        let base = ((self.next_op - self.seg_ops) / KINDS) as i64;
        for (c, drawn) in self.tickets.iter_mut().enumerate() {
            for tk in drawn.drain(..) {
                match usize::try_from(tk - base).ok().filter(|k| *k < groups) {
                    // ordering: the syncs on either side order marks and check.
                    Some(k) => {
                        self.seen[c][k].fetch_add(1, Ordering::Relaxed);
                    }
                    None => log.failed += 1,
                }
            }
        }
        self.ga.sync();
        if self.rank == 0 {
            for slots in self.seen.iter() {
                for slot in &slots[..groups] {
                    log.check(slot.swap(0, Ordering::Relaxed) == 1);
                }
            }
        }
        self.ga.sync();
    }
}

pub fn run(lane: &GaMixLane, seed: u64, plan: Plan, base: Instant) -> LaneOut {
    let lane = *lane;
    assert_eq!(lane.ops_per_rep % KINDS, 0, "whole op groups per rep");
    let t_world = Instant::now();
    let ctxs = LapiWorld::init_seeded(NODES, machine(), Mode::Interrupt, seed);
    let world_init_s = t_world.elapsed().as_secs_f64();
    let pace = Arc::new(Pace::new());
    let groups = (lane.ops_per_rep.max(WARM_OPS) / KINDS) as usize;
    let seen: Arc<Vec<Vec<AtomicU32>>> = Arc::new(
        (0..NODES)
            .map(|_| (0..groups).map(|_| AtomicU32::new(0)).collect())
            .collect(),
    );
    let outs = spsim::run_spmd_with(ctxs, move |rank, ctx| {
        let backend = LapiGaBackend::new(ctx, GaConfig::default());
        let ga = Ga::new(Arc::clone(&backend) as Arc<dyn GaBackend>);
        let a = ga.create("mix", DIM, DIM, GaKind::Double);
        let s = ga.create("sums", DIM, DIM, GaKind::Double);
        let t = ga.create("tickets", 2, 2, GaKind::Int);
        a.fill(0.0);
        s.fill(0.0);
        t.fill_int(0);
        ga.sync();
        let mut me = GaRank {
            rank,
            ops_per_rep: lane.ops_per_rep,
            ga,
            backend,
            a,
            s,
            t,
            shadow: vec![0.0; DIM * BAND],
            rng: SimRng::new(seed ^ (0x6761 + rank as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            next_op: 0,
            seg_ops: 0,
            reps_done: 0,
            tickets: vec![Vec::new(); NODES],
            seen: Arc::clone(&seen),
        };
        run_rank(&mut me, rank, plan, &pace, t_world, base)
    });
    finish(outs, world_init_s, lane.ops_per_rep * NODES as u64)
}

/// Ops per rank of the bare-LAPI comparison.
const BARE_OPS: u64 = 2000;

/// Host µs per op, as a rank sees it, of the LAPI calls a GA op group comes
/// down to — put, get and put of a patch's bytes, an 8 B get, a fetch-and-add
/// — issued by all four ranks at once in interrupt mode, without GA on top.
/// `ga.self_us_per_op` is a GA op's span minus this.
pub fn bare_lapi_op_us(seed: u64) -> f64 {
    const PATCH_BYTES: usize = EDGE * EDGE * 8;
    let ctxs = LapiWorld::init_seeded(NODES, machine(), Mode::Interrupt, seed);
    let us = spsim::run_spmd_with(ctxs, |rank, ctx| {
        let buf = ctx.alloc(PATCH_BYTES);
        let cell = ctx.alloc(8);
        let bufs = ctx.address_init(buf);
        let cells = ctx.address_init(cell);
        let peer = (rank + 1) % NODES;
        let data = [rank as u8; PATCH_BYTES];
        ctx.barrier();
        let t = Instant::now();
        for op in 0..BARE_OPS {
            match op % KINDS {
                0 | 2 => ctx.put_wait(peer, bufs[peer], &data).expect("put"),
                1 => drop(ctx.get_wait(peer, bufs[peer], PATCH_BYTES).expect("get")),
                3 => drop(ctx.get_wait(peer, bufs[peer], 8).expect("get")),
                _ => drop(
                    ctx.rmw(peer, lapi::RmwOp::FetchAndAdd, cells[peer], 1, 0)
                        .expect("rmw")
                        .wait_result()
                        .expect("rmw reply"),
                ),
            }
        }
        let us = t.elapsed().as_secs_f64() * 1e6 / BARE_OPS as f64;
        ctx.gfence().expect("gfence");
        us
    });
    us.iter().sum::<f64>() / NODES as f64
}
