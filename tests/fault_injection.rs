//! Fault injection end to end: the adapter's reliability protocol (per-flow
//! sequence numbers, coalesced ACKs, go-back-N retransmission, duplicate
//! suppression) must make LAPI and Global-Arrays semantics *invariant* to
//! fabric misbehaviour — real drops, real duplicates, scripted black-hole
//! windows — while unrecoverable links surface as structured
//! [`LapiError::DeliveryTimeout`]s instead of hangs.
//!
//! Pinned here:
//!
//! 1. a mixed LAPI workload (put + amsend + rmw) produces byte-identical
//!    results at drop probabilities 0.05 / 0.2 / 0.4 and under fabric
//!    duplication — with the rmw fetch-add sum proving exactly-once
//!    delivery (a duplicated or replayed increment would overshoot);
//! 2. the wire quiesces afterwards: ACK traffic and suppressed duplicates
//!    are accounted below the protocol engines, so injected == delivered;
//! 3. a Global-Arrays computation (fill / acc / dot) is loss-invariant;
//! 4. a black-hole window delays traffic issued inside it until the window
//!    closes, then delivers intact;
//! 5. a permanently dead link yields `LapiError::DeliveryTimeout` from the
//!    issuing call *and* invokes the `err_hndlr` registered at init, with
//!    the flow's sequence state attached;
//! 6. the same seed + the same fault plan replays a byte-identical virtual
//!    timeline, dup and all.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use lapi_sp::ga::{Ga, GaBackend, GaConfig, GaKind, LapiGaBackend, Patch};
use lapi_sp::lapi::{HdrOutcome, LapiError, LapiWorld, Mode, RmwOp};
use lapi_sp::sim::trace::{self, EventKind};
use lapi_sp::sim::{run_spmd_with, FaultPlan, MachineConfig, VTime};

const SEED: u64 = 0xFA_0177;
const BYTES: usize = 24 * 1024; // spans ~24 packets: reassembly under loss

/// The trace sink is process-wide: while the LAPI test holds a session, the
/// packets of a job another test runs beside it land in that session's
/// quiescence ledger. Every test holds this for as long as it runs jobs.
static JOBS: Mutex<()> = Mutex::new(());

fn alone() -> MutexGuard<'static, ()> {
    JOBS.lock().unwrap_or_else(|e| e.into_inner())
}

/// Mixed-primitive LAPI workload. Every rank puts a rank-tagged pattern to
/// its right neighbour, amsends a stripe to its left neighbour, and
/// fetch-adds 1 into rank 0's cell. Returns per-rank (received put bytes,
/// received AM bytes, rank-0 cell value) for cross-configuration comparison.
fn lapi_workload(cfg: MachineConfig, n: usize) -> Vec<(Vec<u8>, Vec<u8>, u64)> {
    let ctxs = LapiWorld::init_seeded(n, cfg, Mode::Polling, SEED);
    run_spmd_with(ctxs, move |rank, ctx| {
        let n = ctx.tasks();
        let buf = ctx.alloc(BYTES);
        let am_buf = ctx.alloc(BYTES);
        let cell = ctx.alloc(8);
        ctx.mem_write_u64(cell, 0);
        ctx.register_handler(9, move |_hctx, info| {
            assert_eq!(info.uhdr, b"fi");
            HdrOutcome::into_buffer(am_buf)
        });
        let tgt = ctx.new_counter();
        let am_tgt = ctx.new_counter();
        let bufs = ctx.address_init(buf);
        let cells = ctx.address_init(cell);
        let put_remotes = ctx.counter_init(&tgt);
        let am_remotes = ctx.counter_init(&am_tgt);
        ctx.barrier();

        let pattern = |owner: usize| -> Vec<u8> {
            (0..BYTES).map(|i| ((i + owner * 37) % 251) as u8).collect()
        };
        let right = (rank + 1) % n;
        let left = (rank + n - 1) % n;
        let cmpl = ctx.new_counter();
        ctx.put(
            right,
            bufs[right],
            &pattern(rank),
            Some(put_remotes[right]),
            None,
            Some(&cmpl),
        )
        .expect("put");
        ctx.amsend(
            left,
            9,
            b"fi",
            &pattern(rank),
            Some(am_remotes[left]),
            None,
            None,
        )
        .expect("amsend");
        let prev = ctx
            .rmw(0, RmwOp::FetchAndAdd, cells[0], 1, 0)
            .expect("rmw")
            .wait();
        assert!(prev < n as u64, "fetch-add replayed: prev={prev}");
        ctx.waitcntr(&cmpl, 1);
        ctx.waitcntr(&tgt, 1);
        ctx.waitcntr(&am_tgt, 1);
        ctx.gfence().expect("gfence");

        let got_put = ctx.mem_read(buf, BYTES);
        let got_am = ctx.mem_read(am_buf, BYTES);
        assert_eq!(got_put, pattern(left), "put payload corrupted");
        assert_eq!(got_am, pattern(right), "amsend payload corrupted");
        let sum = ctx.mem_read_u64(cell);
        if rank == 0 {
            // The exactly-once proof: any duplicate-delivered or replayed
            // rmw would push the cell past n.
            assert_eq!(sum, n as u64, "fetch-add sum shows non-exactly-once");
        }
        (got_put, got_am, sum)
    })
}

#[test]
fn lapi_semantics_are_invariant_to_loss_and_duplication() {
    let _alone = alone();
    let lossless = lapi_workload(MachineConfig::default().with_no_faults(), 3);
    for &(drop, dup) in &[(0.05, 0.0), (0.2, 0.05), (0.4, 0.1)] {
        let s = trace::session();
        let cfg = MachineConfig::default()
            .with_no_faults()
            .with_drop_prob(drop)
            .with_dup_prob(dup);
        let lossy = lapi_workload(cfg, 3);
        // Every data packet that entered the wire was consumed exactly once
        // by a protocol engine; ACKs and suppressed duplicates live below
        // that ledger and must not unbalance it.
        s.sink().assert_quiescent();
        assert!(s.sink().acks() > 0, "reliability protocol never ACKed?");
        let tl = s.finish();
        assert!(
            tl.count(EventKind::Drop) > 0,
            "drop_prob {drop} never dropped"
        );
        assert_eq!(tl.count(EventKind::Drop), tl.count(EventKind::Retransmit));
        if dup > 0.0 {
            assert!(tl.count(EventKind::Dup) > 0, "dup_prob {dup} never duped");
        }
        assert_eq!(lossless, lossy, "results diverged at drop={drop} dup={dup}");
    }
}

/// Global-Arrays computation over the LAPI backend: fill, accumulate from
/// every rank, then dot — results must not depend on fabric behaviour.
fn ga_workload(cfg: MachineConfig, n: usize) -> Vec<f64> {
    const N: usize = 64;
    let gas: Vec<Ga> = LapiWorld::init_seeded(n, cfg, Mode::Interrupt, SEED)
        .into_iter()
        .map(|c| Ga::new(LapiGaBackend::new(c, GaConfig::default()) as Arc<dyn GaBackend>))
        .collect();
    run_spmd_with(gas, |rank, ga| {
        let a = ga.create("A", N, N, GaKind::Double);
        a.fill(1.0);
        ga.sync();
        // Every rank accumulates a deterministic patch: final cell values
        // are exact in f64 (small integers), so equality is meaningful.
        let patch = Patch::new((0, 0), (N / 2 - 1, N / 2 - 1));
        let data = vec![(rank + 1) as f64; N / 2 * N / 2];
        a.acc(patch, 2.0, &data);
        ga.sync();
        let d = a.dot(&a);
        ga.sync();
        d
    })
}

#[test]
fn ga_toolkit_results_are_loss_invariant() {
    let _alone = alone();
    let lossless = ga_workload(MachineConfig::default().with_no_faults(), 4);
    for &drop in &[0.05, 0.2] {
        let cfg = MachineConfig::default()
            .with_no_faults()
            .with_drop_prob(drop)
            .with_dup_prob(0.05);
        assert_eq!(
            lossless,
            ga_workload(cfg, 4),
            "GA results diverged at drop={drop}"
        );
    }
}

#[test]
fn black_hole_window_delays_then_delivers_intact() {
    let _alone = alone();
    // Link 0→1 swallows everything in [5ms, 8ms). A put issued at ~5ms
    // keeps retransmitting into the void until the window closes, then
    // lands intact — late, not lost.
    let plan = FaultPlan::new().with_black_hole(0, 1, VTime::from_us(5_000), VTime::from_us(8_000));
    let cfg = MachineConfig::default().with_no_faults().with_faults(plan);
    let ctxs = LapiWorld::init_seeded(2, cfg, Mode::Polling, SEED);
    let landed = run_spmd_with(ctxs, |rank, ctx| {
        let buf = ctx.alloc(64);
        let tgt = ctx.new_counter();
        let bufs = ctx.address_init(buf);
        let remotes = ctx.counter_init(&tgt);
        ctx.barrier();
        if rank == 0 {
            // Step into the window, then issue.
            ctx.compute(VTime::from_us(5_000) - ctx.now());
            let cmpl = ctx.new_counter();
            ctx.put(1, bufs[1], &[42u8; 64], Some(remotes[1]), None, Some(&cmpl))
                .expect("put");
            ctx.waitcntr(&cmpl, 1);
        } else {
            ctx.waitcntr(&tgt, 1);
        }
        ctx.gfence().expect("gfence");
        if rank == 1 {
            assert_eq!(ctx.mem_read(buf, 64), vec![42u8; 64]);
        }
        ctx.now()
    });
    assert!(
        landed[1] >= VTime::from_us(8_000),
        "rank 1 finished at {:?}, inside the black-hole window",
        landed[1]
    );
}

#[test]
fn dead_link_surfaces_delivery_timeout_and_fires_err_hndlr() {
    let _alone = alone();
    // Link 0→1 dies before the job starts; rank 0's put must fail with a
    // structured DeliveryTimeout carrying the flow's sequence state, and
    // the handler registered at init (the paper's `err_hndlr`) must see
    // the same error.
    let plan = FaultPlan::new().with_link_dead(0, 1, VTime::ZERO);
    let cfg = MachineConfig::default()
        .with_no_faults()
        .with_faults(plan)
        .with_max_retransmits(6);
    let ctxs = LapiWorld::init_full(2, cfg, Mode::Polling, SEED, Duration::from_secs(30));
    let seen: Arc<Mutex<Vec<LapiError>>> = Arc::new(Mutex::new(Vec::new()));
    let seen_in = Arc::clone(&seen);
    let fired = Arc::new(AtomicUsize::new(0));
    let fired_in = Arc::clone(&fired);
    run_spmd_with(ctxs, move |rank, ctx| {
        if rank == 0 {
            let seen = Arc::clone(&seen_in);
            let fired = Arc::clone(&fired_in);
            ctx.register_err_hndlr(move |e| {
                seen.lock().expect("err list").push(e.clone());
                fired.fetch_add(1, Ordering::SeqCst);
            });
            let buf = ctx.alloc(8);
            let err = ctx
                .put(1, buf, &[7u8; 8], None, None, None)
                .expect_err("the dead link must surface an error");
            match &err {
                LapiError::DeliveryTimeout {
                    target,
                    seq,
                    acked,
                    retries,
                    fast_failed,
                    detail,
                } => {
                    assert_eq!(*target, 1);
                    assert_eq!(*seq, 0, "first packet on the flow");
                    assert_eq!(*acked, 0, "nothing ever acknowledged");
                    assert_eq!(*retries, 6, "bounded by max_retransmits");
                    assert!(!*fast_failed, "first failure burns the retry budget");
                    assert!(detail.contains("flow 0→1"), "flow state missing: {detail}");
                }
                other => panic!("expected DeliveryTimeout, got {other:?}"),
            }
            // The op was abandoned and the peer latched dead: nothing
            // outstanding, and a second send fast-fails with zero wire
            // activity instead of burning another retry budget.
            assert_eq!(ctx.pending(1), 0);
            assert_eq!(ctx.dead_peers(), vec![1]);
            let err2 = ctx
                .put(1, buf, &[7u8; 8], None, None, None)
                .expect_err("send to a dead peer must fast-fail");
            assert!(
                matches!(
                    err2,
                    LapiError::DeliveryTimeout {
                        fast_failed: true,
                        ..
                    }
                ),
                "second failure should be a fast-fail, got {err2:?}"
            );
            // A fence toward a dead peer fails fast and deterministically
            // rather than reporting a vacuous success.
            let fence_err = ctx.fence(1).expect_err("fence to a dead peer fails fast");
            assert!(matches!(
                fence_err,
                LapiError::DeliveryTimeout {
                    fast_failed: true,
                    ..
                }
            ));
            assert_eq!(ctx.stats().delivery_timeouts.get(), 2);
            assert_eq!(ctx.stats().peer_deaths.get(), 1);
        }
        // No gfence: it would ride the dead link. Both ranks just finish.
    });
    // Exactly-once per *peer* death, not per killed flow or failed op: two
    // failed sends, one aggregated err_hndlr invocation.
    assert_eq!(fired.load(Ordering::SeqCst), 1, "err_hndlr fired once");
    let seen = seen.lock().expect("err list");
    assert_eq!(seen.len(), 1);
    match &seen[0] {
        LapiError::DeliveryTimeout {
            target: 1, detail, ..
        } => {
            assert!(
                detail.contains("declared dead"),
                "aggregated diagnostic missing: {detail}"
            );
            assert!(
                detail.contains("flow 0→1"),
                "killed-flow listing missing: {detail}"
            );
        }
        other => panic!("expected aggregated DeliveryTimeout, got {other:?}"),
    }
}

#[test]
fn same_seed_and_fault_plan_replay_identically() {
    let _alone = alone();
    // Faulty runs stay virtually deterministic: the dice live in the
    // per-node send path, so host scheduling cannot shift them.
    let run = || {
        let plan = FaultPlan::new().with_black_hole(0, 1, VTime::from_us(200), VTime::from_us(900));
        let cfg = MachineConfig::default()
            .with_no_faults()
            .with_drop_prob(0.25)
            .with_dup_prob(0.1)
            .with_faults(plan);
        let ctxs = LapiWorld::init_seeded(2, cfg, Mode::Polling, SEED);
        run_spmd_with(ctxs, |rank, ctx| {
            let buf = ctx.alloc(BYTES);
            let tgt = ctx.new_counter();
            let bufs = ctx.address_init(buf);
            let remotes = ctx.counter_init(&tgt);
            ctx.barrier();
            let peer = 1 - rank;
            let cmpl = ctx.new_counter();
            ctx.put(
                peer,
                bufs[peer],
                &vec![rank as u8 + 1; BYTES],
                Some(remotes[peer]),
                None,
                Some(&cmpl),
            )
            .expect("put");
            ctx.waitcntr(&cmpl, 1);
            ctx.waitcntr(&tgt, 1);
            ctx.gfence().expect("gfence");
            assert_eq!(ctx.mem_read(buf, BYTES), vec![peer as u8 + 1; BYTES]);
            ctx.now().as_ns()
        })
    };
    let a = run();
    assert_eq!(a, run(), "same seed + same fault plan must replay exactly");
    assert!(a.iter().all(|&t| t > 0));
}
