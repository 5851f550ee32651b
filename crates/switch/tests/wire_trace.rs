//! Adapter tests that read the process-global trace sink.
//!
//! They live in a test binary of their own because the sink records every
//! packet sent anywhere in the process while a session is open: beside
//! session-less neighbours (the adapter's unit tests) the event counts
//! below pick up strangers' packets. Here every test opens a
//! `trace::session()`, whose lock serializes them.

use std::sync::Arc;

use spsim::{FaultPlan, MachineConfig, VTime};
use spswitch::{Adapter, Network};

fn clean() -> MachineConfig {
    // Calibration tests must not be perturbed by SPSIM_FAULT_PROFILE.
    MachineConfig::default().with_no_faults()
}

fn pair() -> Vec<Adapter<u64>> {
    Network::new(2, Arc::new(clean()), 1).into_adapters()
}

#[test]
fn loopback_skips_fault_injection() {
    // Hairpinned packets never cross the fabric: even an absurdly lossy
    // configuration must not drop, duplicate, retransmit or ack them.
    let session = spsim::trace::session();
    let cfg = Arc::new(
        clean()
            .with_drop_prob(0.9)
            .with_dup_prob(0.9)
            .with_max_retransmits(4),
    );
    let ads = Network::new(2, cfg, 3).into_adapters();
    for i in 0..50u64 {
        let r = ads[0].send_at(VTime::from_us(i), 0, 64, i);
        assert_eq!(r.delivered_at, r.injected_at);
    }
    for _ in 0..50 {
        ads[0].rx().recv_merge(ads[0].clock()).unwrap();
    }
    assert!(ads[0].rx().is_empty(), "exactly once");
    assert_eq!(ads[0].stats().retransmits.get(), 0);
    assert_eq!(ads[0].stats().dups_suppressed.get(), 0);
    assert_eq!(ads[0].stats().acks_sent.get(), 0);
    let t = session.finish();
    assert_eq!(t.count(spsim::EventKind::Drop), 0);
    assert_eq!(t.count(spsim::EventKind::Dup), 0);
    assert_eq!(t.count(spsim::EventKind::Ack), 0);
}

#[test]
fn really_dropped_packet_is_recovered_by_retransmission() {
    // The acceptance-criteria witness: a packet whose *first* copy never
    // reached the destination (trace shows its drop strictly before any
    // eject) still arrives, exactly once, via retransmission.
    let mut proved = false;
    for seed in 0..20 {
        let session = spsim::trace::session();
        let cfg = Arc::new(clean().with_drop_prob(0.5).with_ack_drop_prob(0.0));
        let ads = Network::new(2, cfg, seed).into_adapters();
        let r = ads[0].send_at(VTime::ZERO, 1, 256, 42u64);
        let t = session.finish();
        let first_drop = t
            .events
            .iter()
            .find(|e| e.kind == spsim::EventKind::Drop)
            .map(|e| e.vtime);
        let eject = t
            .events
            .iter()
            .find(|e| e.kind == spsim::EventKind::Eject)
            .map(|e| e.vtime)
            .expect("packet must eventually eject");
        if let Some(d) = first_drop {
            if d < eject {
                // First transmission really was lost in the fabric…
                assert!(ads[0].stats().retransmits.get() > 0);
                // …and recovery delivered exactly one copy.
                let got = ads[1].rx().recv_merge(ads[1].clock()).unwrap();
                assert_eq!(got.item.body, 42);
                assert_eq!(got.at, r.delivered_at);
                assert!(ads[1].rx().is_empty(), "exactly once");
                proved = true;
                break;
            }
        }
    }
    assert!(proved, "no seed in 0..20 dropped the first copy at p=0.5?");
}

#[test]
fn fabric_duplicates_are_suppressed_exactly_once() {
    let session = spsim::trace::session();
    let cfg = Arc::new(clean().with_dup_prob(1.0));
    let ads = Network::new(2, cfg, 11).into_adapters();
    let n = 40u64;
    for i in 0..n {
        ads[0].send_at(VTime::from_us(i * 100), 1, 128, i);
    }
    for _ in 0..n {
        ads[1].rx().recv_merge(ads[1].clock()).unwrap();
    }
    assert!(ads[1].rx().is_empty(), "every duplicate was suppressed");
    assert_eq!(ads[1].stats().dups_suppressed.get(), n);
    assert_eq!(ads[0].stats().retransmits.get(), 0, "dup is not loss");
    let t = session.finish();
    assert_eq!(t.count(spsim::EventKind::Eject), n as usize);
    assert_eq!(t.count(spsim::EventKind::Dup), n as usize);
}

#[test]
fn acks_are_coalesced_and_charged_to_the_wire() {
    let session = spsim::trace::session();
    let cfg = Arc::new(clean().with_drop_prob(0.05));
    let ack_every = cfg.ack_every as u64;
    let ads = Network::new(2, cfg, 31).into_adapters();
    let n = 160u64;
    for i in 0..n {
        ads[0].send_at(VTime::from_us(i * 10), 1, 128, i);
    }
    ads[1].shutdown();
    ads[0].shutdown(); // flushes the final partial batch
    let acks = ads[1].stats().acks_sent.get();
    assert!(acks > 0, "a lossy run must ack");
    // Each retransmission stall can flush one partial batch at the
    // deadline, so the coalescing bound is full batches + stalls.
    let stalls = ads[0].stats().retransmits.get();
    assert!(
        acks <= n / ack_every + stalls + 2,
        "coalescing: {acks} wire acks for {n} packets (every {ack_every}, {stalls} stalls)"
    );
    let t = session.finish();
    assert_eq!(t.count(spsim::EventKind::Ack) as u64, acks);
    // Ack events live on the receiver's timeline.
    assert!(t
        .events
        .iter()
        .filter(|e| e.kind == spsim::EventKind::Ack)
        .all(|e| e.node == 1));
}

#[test]
fn send_emits_wire_trace_events() {
    let session = spsim::trace::session();
    let cfg = Arc::new(clean().with_drop_prob(0.3));
    let ads = Network::new(2, cfg, 5).into_adapters();
    for i in 0..50u64 {
        ads[0].send_at(VTime::ZERO, 1, 256, i);
    }
    let sink = session.sink();
    assert_eq!(sink.injected(), 50);
    assert_eq!(sink.in_flight(), 50, "nothing consumed the packets yet");
    let t = session.finish();
    assert_eq!(t.count(spsim::EventKind::Inject), 50);
    assert_eq!(t.count(spsim::EventKind::Eject), 50);
    assert_eq!(
        t.count(spsim::EventKind::Drop),
        t.count(spsim::EventKind::Retransmit),
        "every drop (data or ack) charges exactly one retransmit"
    );
    assert!(t.count(spsim::EventKind::Drop) > 0, "30% drop must show up");
}

#[test]
fn lossless_pays_nothing_for_the_protocol() {
    // Pay-for-what-you-use: with a clean config no ack/dup/retransmit
    // machinery may appear — neither in the trace nor in the stats.
    let session = spsim::trace::session();
    let ads = pair();
    for i in 0..50u64 {
        ads[0].send_at(VTime::from_us(i), 1, 256, i);
    }
    ads[0].pump(VTime::from_us(10_000)); // must be free too
    ads[0].shutdown();
    assert_eq!(ads[1].stats().acks_sent.get(), 0);
    assert_eq!(ads[0].stats().retransmits.get(), 0);
    let t = session.finish();
    assert_eq!(t.count(spsim::EventKind::Ack), 0);
    assert_eq!(t.count(spsim::EventKind::Dup), 0);
    assert_eq!(t.count(spsim::EventKind::Drop), 0);
}

#[test]
fn adaptive_rto_backs_off_exponentially_and_caps() {
    // Dead link, adaptive RTO (the default): retransmission gaps must
    // grow round over round (exponential backoff) until the rto_max
    // cap, and never exceed cap + cap/8 jitter + serialization.
    let session = spsim::trace::session();
    let cfg = Arc::new(
        clean()
            .with_faults(FaultPlan::new().with_link_dead(0, 1, VTime::ZERO))
            .with_max_retransmits(10),
    );
    let ads = Network::new(2, Arc::clone(&cfg), 42).into_adapters();
    let err = ads[0]
        .try_send_at(VTime::ZERO, 1, 64, 1u64)
        .expect_err("link is dead");
    assert!(!err.fast_failed, "first detection pays the full budget");
    let t = session.finish();
    let times: Vec<u64> = t
        .events
        .iter()
        .filter(|e| e.kind == spsim::EventKind::Retransmit)
        .map(|e| e.vtime.as_ns())
        .collect();
    assert_eq!(times.len(), 10);
    let gaps: Vec<u64> = times.windows(2).map(|w| w[1] - w[0]).collect();
    let ser = cfg.wire_time(64).as_ns();
    let cap = cfg.rto_max.as_ns();
    // Uncapped prefix grows strictly: doubling dominates the ≤RTO/8
    // jitter. Every gap respects the cap (+ jitter + serialization).
    for w in gaps.windows(2) {
        if w[1] < cap {
            assert!(w[1] > w[0], "backoff must grow: {gaps:?}");
        }
    }
    assert!(
        gaps.iter().all(|&g| g <= cap + cap / 8 + ser),
        "gap exceeds rto_max + jitter: {gaps:?}"
    );
    assert!(
        *gaps.last().unwrap() >= cap,
        "ten doublings from rto_min must reach the cap: {gaps:?}"
    );
}

#[test]
fn rtt_samples_shrink_the_rto_below_the_initial_timeout() {
    // Warm a flow on a fast, lightly lossy fabric, then black-hole it:
    // the first retransmission gap must reflect the *measured* RTT
    // (≪ the initial retransmit_timeout), not the fixed constant.
    let session = spsim::trace::session();
    let cfg = Arc::new(
        clean()
            .with_drop_prob(0.01)
            .with_faults(FaultPlan::new().with_black_hole(
                0,
                1,
                VTime::from_us(900_000),
                VTime::MAX,
            )),
    );
    let ads = Network::new(2, Arc::clone(&cfg), 7).into_adapters();
    for i in 0..100u64 {
        // widely spaced: every send completes its exchange
        ads[0]
            .try_send_at(VTime::from_us(i * 1000), 1, 256, i)
            .unwrap();
    }
    let err = ads[0]
        .try_send_at(VTime::from_us(950_000), 1, 256, 999u64)
        .expect_err("link is black-holed forever");
    assert!(!err.fast_failed);
    let t = session.finish();
    let mut retrans: Vec<u64> = t
        .events
        .iter()
        .filter(|e| e.kind == spsim::EventKind::Retransmit)
        .map(|e| e.vtime.as_ns())
        .collect();
    retrans.retain(|&ns| ns >= VTime::from_us(950_000).as_ns());
    // First gap = injected→first retransmit ≈ clamp(srtt+4·rttvar,
    // rto_min, ..) + jitter. The measured RTT is a few µs, so the gap
    // must sit near rto_min — far below the initial timeout.
    let first_gap = retrans[0] - err.first_attempt.as_ns();
    assert!(
        first_gap < cfg.retransmit_timeout.as_ns(),
        "measured RTO {}ns should undercut the initial timeout {}ns",
        first_gap,
        cfg.retransmit_timeout.as_ns()
    );
    assert!(
        first_gap >= cfg.rto_min.as_ns(),
        "RTO must respect rto_min: {first_gap}ns"
    );
}

#[test]
fn second_send_to_a_dead_peer_fast_fails_at_zero_cost() {
    // The fast-fail ledger: detection pays the full retransmission
    // budget once; every later send to the latched peer costs zero
    // virtual time and leaves zero wire footprint.
    let session = spsim::trace::session();
    let cfg = Arc::new(
        clean()
            .with_faults(FaultPlan::new().with_link_dead(0, 1, VTime::ZERO))
            .with_max_retransmits(6),
    );
    let ads = Network::new(2, Arc::clone(&cfg), 3).into_adapters();
    let e1 = ads[0]
        .try_send_at(VTime::ZERO, 1, 64, 1u64)
        .expect_err("detection send");
    assert!(!e1.fast_failed);
    assert_eq!(e1.retries, 6);
    assert!(ads[0].peer_health().is_dead(1));
    let vt1 = (e1.last_attempt - e1.first_attempt).as_ns();
    assert!(vt1 > 0);

    let e2 = ads[0]
        .try_send_at(e1.last_attempt, 1, 64, 2u64)
        .expect_err("latched peer");
    assert!(e2.fast_failed);
    assert_eq!(e2.retries, 0);
    let vt2 = (e2.last_attempt - e2.first_attempt).as_ns();
    assert!(
        vt2 * 10 <= vt1,
        "fast fail must be ≥10× cheaper: first {vt1}ns, second {vt2}ns"
    );
    assert_eq!(ads[0].stats().timeouts.get(), 1, "one real detection");
    assert_eq!(ads[0].stats().fast_fails.get(), 1);
    assert_eq!(ads[0].peer_health().dead_peers(), vec![1]);
    // No wire footprint for the refused send, and the write-off keeps
    // the quiescence ledger balanced for the detection send.
    let sink = session.sink();
    assert_eq!(sink.injected(), 1, "fast fail never injects");
    sink.assert_quiescent();
    let t = session.finish();
    assert_eq!(t.count(spsim::EventKind::WriteOff), 1);
}
