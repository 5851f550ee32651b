//! Polling mode exists so that a message does not pay for a kernel
//! transition nobody needs (paper §5.3.1), and the simulator holds itself to
//! the same rule: on one worker nobody sleeps while a ping-pong is in
//! flight, so no park, wake or packet delivery may issue a `futex` wake.
//! Both libraries run on the same progress driver, so both are held to it.
//!
//! A test binary of its own: the worker cap and the scheduler's counters are
//! process-global. For the same reason the two shapes run one after the
//! other inside one test, never as two tests in parallel.

use lapi::{LapiWorld, Mode};
use mpl::{MplMode, MplWorld};
use spsim::sched::counters;
use spsim::{run_spmd_with, MachineConfig};

const WARM: usize = 500;
const OPS: usize = 10_000;

/// `(kernel notifies, parks)` rank 0 saw over `OPS` LAPI put ping-pongs.
fn lapi_ping_pong() -> (u64, u64) {
    let cfg = MachineConfig::default().with_no_faults();
    let ctxs = LapiWorld::init_seeded(2, cfg, Mode::Polling, 13);
    let deltas = run_spmd_with(ctxs, |rank, ctx| {
        let buf = ctx.alloc(8);
        let addrs = ctx.address_init(buf);
        let cmpl = ctx.new_counter();
        let tgt = ctx.new_counter();
        let remotes = ctx.counter_init(&tgt);
        let peer = 1 - rank;
        let mut warm = counters();
        for i in 0..WARM + OPS {
            if i == WARM {
                warm = counters();
            }
            if rank == 1 {
                ctx.waitcntr(&tgt, 1); // the ping
            }
            let data = (i as u64).to_le_bytes();
            ctx.put(
                peer,
                addrs[peer],
                &data,
                Some(remotes[peer]),
                None,
                Some(&cmpl),
            )
            .unwrap();
            ctx.waitcntr(&cmpl, 1);
            if rank == 0 {
                ctx.waitcntr(&tgt, 1); // the pong
            }
        }
        let end = counters();
        ctx.gfence().unwrap();
        (
            end.kernel_notifies - warm.kernel_notifies,
            end.parks - warm.parks,
        )
    });
    deltas[0]
}

/// `(kernel notifies, parks)` rank 0 saw over `OPS` MPL 1 KiB eager
/// send/recv ping-pongs.
fn mpl_ping_pong() -> (u64, u64) {
    let cfg = MachineConfig::default().with_no_faults();
    let ctxs = MplWorld::init_seeded(2, cfg, MplMode::Polling, 13);
    let deltas = run_spmd_with(ctxs, |rank, ctx| {
        let data = [7u8; 1024];
        let peer = 1 - rank;
        let mut warm = counters();
        for i in 0..WARM + OPS {
            if i == WARM {
                warm = counters();
            }
            if rank == 0 {
                ctx.send(peer, 1, &data);
                ctx.recv(Some(peer), Some(1));
            } else {
                ctx.recv(Some(peer), Some(1));
                ctx.send(peer, 1, &data);
            }
        }
        let end = counters();
        ctx.barrier();
        (
            end.kernel_notifies - warm.kernel_notifies,
            end.parks - warm.parks,
        )
    });
    deltas[0]
}

#[test]
fn polling_ping_pong_on_one_worker_issues_no_kernel_notifies() {
    spsim::set_worker_cap(Some(1));
    for (lib, (notifies, parks)) in [("LAPI", lapi_ping_pong()), ("MPL", mpl_ping_pong())] {
        assert!(
            parks >= OPS as u64,
            "{lib}: the job must really park: {parks}"
        );
        assert_eq!(
            notifies, 0,
            "{lib}: {parks} parks woke the kernel {notifies} times"
        );
    }
}
