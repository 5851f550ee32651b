//! Polling mode exists so that a message does not pay for a kernel
//! transition nobody needs (paper §5.3.1), and the simulator holds itself to
//! the same rule: on one worker nobody sleeps while a ping-pong is in
//! flight, so no park, wake or packet delivery may issue a `futex` wake.
//!
//! A test binary of its own: the worker cap and the scheduler's counters are
//! process-global.

use lapi::{LapiWorld, Mode};
use spsim::sched::counters;
use spsim::{run_spmd_with, MachineConfig};

const WARM: usize = 500;
const OPS: usize = 10_000;

#[test]
fn polling_ping_pong_on_one_worker_issues_no_kernel_notifies() {
    spsim::set_worker_cap(Some(1));
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
    let (notifies, parks) = deltas[0];
    assert!(parks >= OPS as u64, "the job must really park: {parks}");
    assert_eq!(
        notifies, 0,
        "{parks} parks woke the kernel {notifies} times"
    );
}
