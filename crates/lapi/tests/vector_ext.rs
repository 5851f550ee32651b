//! Tests of the §6 extensions: the noncontiguous (`putv`/`getv`) interface
//! and multiple completion-handler threads.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use lapi::{HdrOutcome, IoVec, LapiError, LapiWorld, Mode};
use spsim::{run_spmd_with, MachineConfig, VDur};

#[test]
fn putv_scatters_across_vectors() {
    let ctxs = LapiWorld::init(2, MachineConfig::default(), Mode::Interrupt);
    run_spmd_with(ctxs, |rank, ctx| {
        let buf = ctx.alloc(1000);
        let tgt = ctx.new_counter();
        let addrs = ctx.address_init(buf);
        let remotes = ctx.counter_init(&tgt);
        if rank == 0 {
            // three disjoint runs, out of address order
            let vecs = [
                IoVec {
                    addr: addrs[1].offset(500),
                    len: 100,
                },
                IoVec {
                    addr: addrs[1],
                    len: 50,
                },
                IoVec {
                    addr: addrs[1].offset(200),
                    len: 25,
                },
            ];
            let data: Vec<u8> = (0..175).map(|i| i as u8).collect();
            ctx.putv(1, &vecs, &data, Some(remotes[1]), None, None)
                .expect("putv");
        } else {
            ctx.waitcntr(&tgt, 1);
            let m = ctx.mem_read(buf, 1000);
            assert!(m[500..600].iter().enumerate().all(|(i, &b)| b == i as u8));
            assert!(m[0..50]
                .iter()
                .enumerate()
                .all(|(i, &b)| b == (100 + i) as u8));
            assert!(m[200..225]
                .iter()
                .enumerate()
                .all(|(i, &b)| b == (150 + i) as u8));
            // untouched gaps stay zero
            assert!(m[50..200].iter().all(|&b| b == 0));
        }
        ctx.gfence().expect("gfence");
    });
}

#[test]
fn putv_large_stream_spans_packets() {
    let ctxs = LapiWorld::init(2, MachineConfig::default(), Mode::Interrupt);
    run_spmd_with(ctxs, |rank, ctx| {
        let n_vecs = 40;
        let run = 977; // just over one packet payload per run
        let buf = ctx.alloc(n_vecs * 1024);
        let addrs = ctx.address_init(buf);
        if rank == 0 {
            let vecs: Vec<IoVec> = (0..n_vecs)
                .map(|k| IoVec {
                    addr: addrs[1].offset(k * 1024),
                    len: run,
                })
                .collect();
            let total = n_vecs * run;
            let data: Vec<u8> = (0..total).map(|i| (i % 253) as u8).collect();
            let cmpl = ctx.new_counter();
            ctx.putv(1, &vecs, &data, None, None, Some(&cmpl))
                .expect("putv");
            ctx.waitcntr(&cmpl, 1);
        }
        ctx.gfence().expect("gfence");
        if rank == 1 {
            let mut stream_i = 0usize;
            for k in 0..n_vecs {
                let got = ctx.mem_read(buf.offset(k * 1024), run);
                for &b in &got {
                    assert_eq!(b, (stream_i % 253) as u8, "stream offset {stream_i}");
                    stream_i += 1;
                }
            }
        }
    });
}

#[test]
fn getv_gathers_remote_vectors() {
    let ctxs = LapiWorld::init(2, MachineConfig::default(), Mode::Interrupt);
    run_spmd_with(ctxs, |rank, ctx| {
        let buf = ctx.alloc(8192);
        if rank == 1 {
            ctx.mem_write(
                buf,
                &(0..=255u16)
                    .cycle()
                    .take(8192)
                    .map(|v| v as u8)
                    .collect::<Vec<_>>(),
            );
        }
        let addrs = ctx.address_init(buf);
        if rank == 0 {
            let vecs = [
                IoVec {
                    addr: addrs[1].offset(1000),
                    len: 10,
                },
                IoVec {
                    addr: addrs[1],
                    len: 5,
                },
                IoVec {
                    addr: addrs[1].offset(3000),
                    len: 2000,
                },
            ];
            let dst = ctx.alloc(2015);
            let org = ctx.new_counter();
            ctx.getv(1, &vecs, dst, None, Some(&org)).expect("getv");
            ctx.waitcntr(&org, 1);
            let got = ctx.mem_read(dst, 2015);
            let expect: Vec<u8> = (1000..1010)
                .chain(0..5)
                .chain(3000..5000)
                .map(|i| (i % 256) as u8)
                .collect();
            assert_eq!(got, expect);
        }
        ctx.gfence().expect("gfence");
    });
}

#[test]
fn vector_table_size_is_enforced() {
    let ctxs = LapiWorld::init(2, MachineConfig::default(), Mode::Interrupt);
    run_spmd_with(ctxs, |rank, ctx| {
        if rank == 0 {
            let too_many: Vec<IoVec> = (0..ctx.max_vecs() + 1)
                .map(|k| IoVec {
                    addr: lapi::Addr(k as u64 * 8),
                    len: 8,
                })
                .collect();
            let err = ctx
                .putv(
                    1,
                    &too_many,
                    &vec![0u8; 8 * too_many.len()],
                    None,
                    None,
                    None,
                )
                .unwrap_err();
            assert!(matches!(err, LapiError::TooManyVecs { .. }));
        }
        ctx.gfence().expect("gfence");
    });
}

#[test]
fn putv_survives_reordering_and_loss() {
    let mut cfg = MachineConfig::default().with_drop_prob(0.2);
    cfg.route_skew = VDur::from_us(30);
    let ctxs = LapiWorld::init_seeded(2, cfg, Mode::Interrupt, 31);
    run_spmd_with(ctxs, |rank, ctx| {
        let buf = ctx.alloc(60_000);
        let addrs = ctx.address_init(buf);
        if rank == 0 {
            let vecs: Vec<IoVec> = (0..30)
                .map(|k| IoVec {
                    addr: addrs[1].offset(k * 2000),
                    len: 1500,
                })
                .collect();
            let data: Vec<u8> = (0..30 * 1500).map(|i| (i * 13 % 251) as u8).collect();
            let cmpl = ctx.new_counter();
            ctx.putv(1, &vecs, &data, None, None, Some(&cmpl))
                .expect("putv");
            ctx.waitcntr(&cmpl, 1);
        }
        ctx.gfence().expect("gfence");
        if rank == 1 {
            let mut stream_i = 0;
            for k in 0..30 {
                for &b in &ctx.mem_read(buf.offset(k * 2000), 1500) {
                    assert_eq!(b, (stream_i * 13 % 251) as u8);
                    stream_i += 1;
                }
            }
        }
    });
}

#[test]
fn multiple_completion_threads_run_handlers_concurrently() {
    // §6 extension: with several completion threads, two slow completion
    // handlers overlap in *real* time (virtual cost is still charged to
    // the single node clock). Real-time overlap is an OS-thread property —
    // a handler's `thread::sleep` blocks the worker it runs on — so this
    // test asks for four workers. An explicit cap overrides `SPSIM_WORKERS`
    // and the core count, so they exist even on a 1-core host.
    struct CapGuard;
    impl Drop for CapGuard {
        fn drop(&mut self) {
            spsim::set_worker_cap(None);
        }
    }
    spsim::set_worker_cap(Some(4));
    let _guard = CapGuard;
    let ctxs = LapiWorld::init_ext(
        2,
        MachineConfig::default(),
        Mode::Interrupt,
        1,
        Duration::from_secs(30),
        3,
    );
    let peak = Arc::new(AtomicUsize::new(0));
    let live = Arc::new(AtomicUsize::new(0));
    let p2 = Arc::clone(&peak);
    let l2 = Arc::clone(&live);
    run_spmd_with(ctxs, move |rank, ctx| {
        if rank == 1 {
            let peak = Arc::clone(&p2);
            let live = Arc::clone(&l2);
            ctx.register_handler(5, move |hctx, info| {
                let buf = hctx.alloc(info.data_len.max(1));
                let peak = Arc::clone(&peak);
                let live = Arc::clone(&live);
                HdrOutcome::into_buffer(buf).with_completion(Box::new(move |_c| {
                    let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(30));
                    live.fetch_sub(1, Ordering::SeqCst);
                }))
            });
        }
        ctx.gfence().expect("gfence");
        if rank == 0 {
            let cmpl = ctx.new_counter();
            for _ in 0..6 {
                ctx.amsend(1, 5, b"go", &[1, 2, 3], None, None, Some(&cmpl))
                    .expect("amsend");
            }
            ctx.waitcntr(&cmpl, 6);
        }
        ctx.gfence().expect("gfence");
    });
    assert!(
        peak.load(Ordering::SeqCst) >= 2,
        "completion handlers never overlapped (peak {})",
        peak.load(Ordering::SeqCst)
    );
}
