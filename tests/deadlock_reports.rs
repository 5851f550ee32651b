//! A deadlock in either library, in either progress mode, dies with the
//! classic "simulated deadlock" marker *and* the stuck engine's state: every
//! blocking call of LAPI and MPL waits through the one progress driver, so
//! every one of them reports the same way. Each case runs with a short
//! escape so the suite does not sit on the default 30 s.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use lapi::{LapiWorld, Mode};
use mpl::{MplMode, MplWorld};
use spsim::{run_spmd_with, MachineConfig};

const ESCAPE: Duration = Duration::from_millis(200);

/// Run `job`, which must deadlock, and return its panic message.
fn deadlock_message(job: impl FnOnce()) -> String {
    let err = catch_unwind(AssertUnwindSafe(job)).expect_err("the run must deadlock");
    err.downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .expect("panic payload is a string")
}

fn assert_reports(msg: &str, wants: &[&str]) {
    assert!(msg.contains("simulated deadlock"), "no marker in: {msg}");
    for w in wants {
        assert!(msg.contains(w), "missing {w:?} in: {msg}");
    }
}

#[test]
fn lapi_interrupt_waitcntr_on_an_unbumped_counter_reports_engine_state() {
    let msg = deadlock_message(|| {
        let ctxs = LapiWorld::init_full(1, MachineConfig::default(), Mode::Interrupt, 1, ESCAPE);
        run_spmd_with(ctxs, |_, ctx| {
            let c = ctx.new_counter();
            ctx.waitcntr(&c, 1); // nobody ever bumps it
        });
    });
    assert_reports(
        &msg,
        &[
            "(Interrupt mode)",
            "LAPI_Waitcntr on counter 0 for 1",
            "outstanding ops per target: [0]",
        ],
    );
}

#[test]
fn mpl_interrupt_recv_with_no_sender_reports_matching_state() {
    let msg = deadlock_message(|| {
        let ctxs = MplWorld::init_full(1, MachineConfig::default(), MplMode::Interrupt, 1, ESCAPE);
        run_spmd_with(ctxs, |_, ctx| {
            ctx.recv(None, Some(7)); // nobody ever sends
        });
    });
    assert_reports(
        &msg,
        &["(Interrupt mode)", "MPL receive", "posted receives: 1"],
    );
}

#[test]
fn mpl_polling_rendezvous_send_with_no_receive_reports_matching_state() {
    let msg = deadlock_message(|| {
        let ctxs = MplWorld::init_full(2, MachineConfig::default(), MplMode::Polling, 1, ESCAPE);
        run_spmd_with(ctxs, |rank, ctx| {
            if rank == 0 {
                // Above the eager limit: the send waits for a CTS that a
                // receiver which never posts will never return.
                let big = vec![1u8; ctx.machine().mpl_eager_limit + 1];
                ctx.send(1, 3, &big);
            }
        });
    });
    assert_reports(
        &msg,
        &[
            "(Polling mode)",
            "MPL send",
            "is the peer polling?",
            "parked rendezvous sends: 1",
        ],
    );
}
