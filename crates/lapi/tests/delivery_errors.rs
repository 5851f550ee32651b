//! Error unwinding on the issuing paths: when the adapter's reliability
//! protocol exhausts its retransmission budget (dead link), the issuing
//! call must surface `LapiError::DeliveryTimeout` and leave the context
//! clean — no leaked outstanding-op counts (fence would hang), no stale
//! rmw tickets, no counter ticks for data that never moved. The paper's
//! `err_hndlr` registered at `LAPI_Init` maps to exactly this condition.

use std::time::Duration;

use lapi::{LapiError, LapiWorld, Mode, RmwOp};
use spsim::{run_spmd_with, FaultPlan, MachineConfig, VTime};

/// A fabric whose 0 -> 1 link swallows every data packet from the first
/// instant, with a small retry budget so the sender gives up quickly.
fn dead_link_cfg() -> MachineConfig {
    MachineConfig::default()
        .with_no_faults()
        .with_faults(FaultPlan::new().with_link_dead(0, 1, VTime::ZERO))
        .with_max_retransmits(4)
}

fn assert_timeout_toward(r: Result<(), LapiError>, want: usize) {
    match r {
        Err(LapiError::DeliveryTimeout {
            target, retries, ..
        }) => {
            assert_eq!(target, want, "timeout must name the unreachable task");
            assert_eq!(retries, 4, "the configured retry budget was spent");
        }
        other => panic!("expected DeliveryTimeout toward {want}, got {other:?}"),
    }
}

#[test]
fn get_over_dead_link_times_out_and_unwinds() {
    let ctxs = LapiWorld::init_full(
        2,
        dead_link_cfg(),
        Mode::Polling,
        7,
        Duration::from_secs(10),
    );
    run_spmd_with(ctxs, |rank, ctx| {
        let buf = ctx.alloc(64);
        let addrs = ctx.address_init(buf);
        if rank == 0 {
            let org = ctx.new_counter();
            let r = ctx.get(1, addrs[1], 64, buf, None, Some(&org));
            assert_timeout_toward(r, 1);
            // The failed op is fully unwound: nothing outstanding toward
            // the dead target, and the origin counter never ticked.
            assert_eq!(ctx.pending(1), 0, "failed get must not leak pending ops");
            assert_eq!(ctx.getcntr(&org), 0, "no data landed, no counter tick");
        }
        // Collectives ride the in-memory exchange, not the fabric, so the
        // ranks can still agree to exit over a dead link.
        ctx.barrier();
    });
}

#[test]
fn rmw_over_dead_link_times_out_and_retires_its_ticket() {
    let ctxs = LapiWorld::init_full(
        2,
        dead_link_cfg(),
        Mode::Polling,
        7,
        Duration::from_secs(10),
    );
    run_spmd_with(ctxs, |rank, ctx| {
        let cell = ctx.alloc(8);
        let addrs = ctx.address_init(cell);
        if rank == 0 {
            let r = ctx.rmw(1, RmwOp::FetchAndAdd, addrs[1], 5, 0).map(|_| ());
            assert_timeout_toward(r, 1);
            assert_eq!(
                ctx.rmw_pending(),
                0,
                "a ticket whose issue failed must be retired before the error surfaces"
            );
        }
        ctx.barrier();
    });
}

#[test]
fn failure_toward_one_task_leaves_other_flows_healthy() {
    // Three tasks, one dead directed link (0 -> 1). After rank 0 burns its
    // retry budget toward task 1, the same origin must still be able to
    // get *and* rmw against task 2, and fence(2) must not hang on state
    // leaked by the failure.
    let ctxs = LapiWorld::init_full(
        3,
        dead_link_cfg(),
        Mode::Interrupt,
        7,
        Duration::from_secs(10),
    );
    run_spmd_with(ctxs, |rank, ctx| {
        let buf = ctx.alloc(8);
        ctx.mem_write(buf, &[rank as u8; 8]);
        let addrs = ctx.address_init(buf);
        ctx.barrier();
        if rank == 0 {
            assert_timeout_toward(ctx.get(1, addrs[1], 8, buf, None, None), 1);
            assert_eq!(ctx.rmw_pending(), 0);

            // Healthy flow, same context: blocking get returns task 2's
            // bytes, and the rmw future resolves with the previous value.
            let got = ctx.get_wait(2, addrs[2], 8).expect("get toward 2");
            assert_eq!(got, vec![2u8; 8]);
            let prev = ctx
                .rmw(2, RmwOp::FetchAndAdd, addrs[2], 1, 0)
                .expect("rmw toward 2")
                .wait();
            assert_eq!(prev, u64::from_le_bytes([2u8; 8]));
            ctx.fence(2)
                .expect("fence(2) must not see leaked pending ops");
            assert_eq!(ctx.rmw_pending(), 0);
        }
        ctx.barrier();
    });
}

#[test]
fn delivered_but_unacknowledged_put_unwinds_once() {
    // Data always arrives, (almost) no ACK ever does: the put times out
    // although the target received it, so the target's `Done` comes back
    // to an origin that is retiring the same op on its error path. The
    // two must not both give the op's fence count back — the origin
    // latches the peer dead (which zeroes the count) before anything
    // else, so the late `Done` finds a dead peer and is dropped.
    let cfg = || {
        MachineConfig::default()
            .with_no_faults()
            .with_ack_drop_prob(0.999)
            .with_max_retransmits(2)
    };
    for seed in 0..20 {
        let ctxs = LapiWorld::init_full(2, cfg(), Mode::Interrupt, seed, Duration::from_secs(10));
        run_spmd_with(ctxs, |rank, ctx| {
            // The target's `Done` times out the same way; that failure has
            // no call to return through.
            ctx.register_err_hndlr(|_| {});
            let buf = ctx.alloc(8);
            let addrs = ctx.address_init(buf);
            ctx.barrier();
            if rank == 0 {
                let r = ctx.put(1, addrs[1], &[9u8; 8], None, None, None);
                assert!(
                    matches!(r, Err(LapiError::DeliveryTimeout { target: 1, .. })),
                    "expected a timeout toward 1, got {r:?}"
                );
                assert_eq!(ctx.dead_peers(), vec![1]);
                assert_eq!(ctx.pending(1), 0, "failed put must not leak pending ops");
            }
            ctx.barrier();
        });
    }
}
