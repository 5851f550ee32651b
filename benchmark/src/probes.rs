//! Direct-drive probes of the two lowest layers: host cost of one unit of
//! their work with nothing above them running. They are the same in every
//! workload's traced run; what differs is how many units a workload buys
//! (`switch.packets_per_op` and friends).

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use spsim::{DeliveryQueue, DeliveryRings, MachineConfig, VBarrier, VClock, VDur, VTime};
use spswitch::Network;

use crate::harness::median;
use crate::lanes::machine;

const PROBE_REPS: usize = 5;
const PACKETS: u64 = 200_000;
const SWITCHES: u64 = 100_000;
const BARRIERS: u64 = 40;
const BIG: usize = 256;

/// Median over `PROBE_REPS` runs of `f`, which returns one measurement.
fn med(mut f: impl FnMut() -> f64) -> f64 {
    median(&(0..PROBE_REPS).map(|_| f()).collect::<Vec<_>>())
}

/// `DeliveryQueue::push_from` + `try_recv`, one thread, one lane.
fn queue_ns_per_packet() -> f64 {
    let q: DeliveryQueue<u64> = DeliveryQueue::Rings(DeliveryRings::new(2, 4096));
    med(|| {
        let t = Instant::now();
        for i in 0..PACKETS {
            q.push_from(0, VTime::from_ns(i * 100), i);
            black_box(q.try_recv().expect("open queue"));
        }
        t.elapsed().as_nanos() as f64 / PACKETS as f64
    })
}

/// `Adapter::send_at` + `rx().try_recv`, one thread, 1 KiB packets spaced so
/// that no link queues. Armed = reliability protocol on (`drop_prob` 0.05).
fn send_ns_per_packet(cfg: MachineConfig, seed: u64) -> f64 {
    let ads = Network::<u64>::new(2, Arc::new(cfg), seed).into_adapters();
    let mut at = 0u64;
    med(|| {
        let t = Instant::now();
        for i in 0..PACKETS {
            at += 50;
            ads[0].send_at(VTime::from_us(at), 1, 1024, i);
            // A dropped packet's retransmission lands later in virtual time
            // but is queued by the same call.
            while black_box(ads[1].rx().try_recv().expect("open queue")).is_none() {}
        }
        t.elapsed().as_nanos() as f64 / PACKETS as f64
    })
}

/// Two fibers handing one worker back and forth through `yield_now`.
fn fiber_switch_ns() -> f64 {
    med(|| {
        let t = Instant::now();
        spsim::run_spmd(2, |_| {
            for _ in 0..SWITCHES {
                spsim::yield_now();
            }
        });
        t.elapsed().as_nanos() as f64 / (2 * SWITCHES) as f64
    })
}

fn spawn_us_per_node() -> f64 {
    med(|| {
        let t = Instant::now();
        spsim::run_spmd(BIG, black_box);
        t.elapsed().as_secs_f64() * 1e6 / BIG as f64
    })
}

fn barrier_us_n256() -> f64 {
    med(|| {
        let barrier = VBarrier::new(BIG, VDur::from_us(1));
        let secs = spsim::run_spmd(BIG, move |_| {
            let clock = VClock::new();
            barrier.wait(&clock);
            let t = Instant::now();
            for _ in 0..BARRIERS {
                barrier.wait(&clock);
            }
            t.elapsed().as_secs_f64()
        });
        secs[0] * 1e6 / BARRIERS as f64
    })
}

fn switch_init_us_per_node(seed: u64) -> f64 {
    let cfg = Arc::new(machine());
    med(|| {
        let t = Instant::now();
        black_box(Network::<u64>::new(BIG, Arc::clone(&cfg), seed).into_adapters());
        t.elapsed().as_secs_f64() * 1e6 / BIG as f64
    })
}

pub fn run_all(seed: u64) -> Vec<(&'static str, f64)> {
    vec![
        ("sim.queue_ns_per_packet", queue_ns_per_packet()),
        ("sim.fiber_switch_ns", fiber_switch_ns()),
        ("sim.spawn_us_per_node", spawn_us_per_node()),
        ("sim.barrier_us_n256", barrier_us_n256()),
        (
            "switch.send_ns_per_packet",
            send_ns_per_packet(machine(), seed),
        ),
        (
            "switch.armed_send_ns_per_packet",
            send_ns_per_packet(machine().with_drop_prob(0.05), seed),
        ),
        ("switch.init_us_per_node", switch_init_us_per_node(seed)),
    ]
}
