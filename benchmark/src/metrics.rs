//! The names this benchmark reports: workloads, end-to-end metrics with their
//! regression bounds, per-layer metrics. `BENCHMARK.json` is this table
//! printed by `spbench --manifest`.

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

/// `(name, why)`; later issues cite the names.
pub const WORKLOADS: [(&str, &str); 7] = [
    (
        "lapi_small_n2",
        "8 B put + wait, 2 nodes polling: one packet each way, so lapi dispatch, counters and spsim park/yield are the work",
    ),
    (
        "lapi_bulk_n2",
        "64 KiB put, 68 packets/op: spswitch link reservation, the unarmed batched send path, delivery rings and reassembly dominate",
    ),
    (
        "lapi_bulk_lossy_n2",
        "64 KiB put at drop_prob 0.05: the same adapter armed, with per-packet sends, ACKs, RTO timers and retransmits",
    ),
    (
        "ga_mix_n4",
        "GA put/get/acc/element get/read_inc from 4 ranks in interrupt mode: ga protocols, lapi dispatcher and handlers, SimCondvar parks",
    ),
    (
        "mpl_mix_n2",
        "MPL ping-pong, seven 1 KiB eager then one 64 KiB rendezvous: the only steady load on mpl::engine",
    ),
    (
        "ring_n256",
        "256 nodes each putting 64 B to a neighbour: scheduler run queue, fiber switches, per-node engine state, n^2 flows, memory",
    ),
    (
        "paper_sweep",
        "the six quick paper experiments: hundreds of short-lived worlds, the wall time a contributor waits on, the accuracy reference",
    ),
];

/// End-to-end metrics with the share of the parent's median by which each
/// may worsen before a change counts as a regression. One bound serves all
/// seven workloads, so it is set by the workload on which the metric is
/// least steady (see README, "Bounds").
pub const END_TO_END: [(MetricDef, f64); 7] = [
    (m("ops_per_s", "1/s", Better::Higher), 0.10),
    (m("vt_us_per_op_p50", "us_virtual", Better::Lower), 0.06),
    (m("vt_us_per_op_p99", "us_virtual", Better::Lower), 0.12),
    (m("paper_err_pct", "%", Better::Lower), 0.02),
    (m("peak_rss_mb", "MB", Better::Lower), 0.08),
    (m("setup_s", "s", Better::Lower), 0.25),
    (m("ok_share", "ratio", Better::Higher), 0.000001),
];

const fn m(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// Per-layer metrics, measured from the benchmark's side of each layer's
/// public interface. A metric of a layer the workload does not exercise
/// reads 0.
pub const PER_LAYER: [MetricDef; 66] = [
    // spsim, direct-drive probes
    m("sim.queue_ns_per_packet", "ns", Lower),
    m("sim.fiber_switch_ns", "ns", Lower),
    m("sim.spawn_us_per_node", "us", Lower),
    m("sim.barrier_us_n256", "us", Lower),
    m("sim.rss_kb_per_node", "kB", Lower),
    m("sim.w2_speedup", "ratio", Higher),
    m("sim.scale_n1024_ops_per_s", "1/s", Higher),
    m("sim.scale_n1024_ops_per_s_min", "1/s", Higher),
    m("sim.scale_n1024_ops_per_s_max", "1/s", Higher),
    // spswitch, direct-drive probes and AdapterStats
    m("switch.send_ns_per_packet", "ns", Lower),
    m("switch.armed_send_ns_per_packet", "ns", Lower),
    m("switch.init_us_per_node", "us", Lower),
    m("switch.packets_per_op", "count", Lower),
    m("switch.wire_bytes_per_op", "B", Lower),
    m("switch.retransmits_per_op", "count", Lower),
    m("switch.acks_per_op", "count", Lower),
    m("switch.dups_per_op", "count", Lower),
    m("switch.self_us_per_op", "us", Lower),
    // lapi, call spans and LapiStats
    m("lapi.put_call_us", "us", Lower),
    m("lapi.wait_call_us", "us", Lower),
    m("lapi.fence_call_us", "us", Lower),
    m("lapi.barrier_call_us", "us", Lower),
    m("lapi.dispatched_per_op", "count", Lower),
    m("lapi.interrupts_per_op", "count", Lower),
    m("lapi.hdr_handlers_per_op", "count", Lower),
    m("lapi.cmpl_handlers_per_op", "count", Lower),
    m("lapi.self_us_per_op", "us", Lower),
    // mpl, call spans and MplStats
    m("mpl.send_call_us", "us", Lower),
    m("mpl.recv_call_us", "us", Lower),
    m("mpl.eager_share", "ratio", Higher),
    m("mpl.unexpected_per_op", "count", Lower),
    m("mpl.packets_per_op", "count", Lower),
    m("mpl.self_us_per_op", "us", Lower),
    // ga, call spans and GaStats
    m("ga.put_call_us", "us", Lower),
    m("ga.get_call_us", "us", Lower),
    m("ga.acc_call_us", "us", Lower),
    m("ga.read_inc_call_us", "us", Lower),
    m("ga.sync_call_us", "us", Lower),
    m("ga.am_share", "ratio", Higher),
    m("ga.direct_rmc_share", "ratio", Higher),
    m("ga.pool_exhausted", "count", Lower),
    m("ga.self_us_per_op", "us", Lower),
    // experiments
    m("sweep.table2_s", "s", Lower),
    m("sweep.pipeline_s", "s", Lower),
    m("sweep.fig2_s", "s", Lower),
    m("sweep.ga_latency_s", "s", Lower),
    m("sweep.fig3_s", "s", Lower),
    m("sweep.fig4_s", "s", Lower),
    // virtual-time phases of one op, from the spsim::trace timeline
    m("vt.issue_to_inject_us", "us_virtual", Lower),
    m("vt.inject_to_eject_us", "us_virtual", Lower),
    m("vt.eject_to_deliver_us", "us_virtual", Lower),
    m("vt.deliver_to_counter_us", "us_virtual", Lower),
    m("vt.counter_to_complete_us", "us_virtual", Lower),
    m("vt.phase_sum_err_pct", "%", Lower),
    // host clock
    m("host.batch_us_per_op_p50", "us", Lower),
    m("host.batch_us_per_op_p95", "us", Lower),
    m("host.cpu_share", "ratio", Lower),
    m("host.rep_spread_pct", "%", Lower),
    m("host.ops_per_s_min", "1/s", Higher),
    m("host.ops_per_s_max", "1/s", Higher),
    m("setup.world_init_s", "s", Lower),
    m("setup.warmup_s", "s", Lower),
    m("setup.accuracy_ref_s", "s", Lower),
    m("trace.overhead_pct", "%", Lower),
    m("trace.spans_written", "count", Higher),
    m("check.counts_repeat_exact", "bool", Higher),
];
