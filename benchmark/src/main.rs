//! `spbench`: one named workload per process, every metric printed by name
//! with its unit, outputs verified. See `benchmark/README.md`.

mod harness;
mod host;
mod lanes;
mod metrics;
mod phases;
mod probes;
mod repeat;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use harness::{
    add, ix, median, percentile_ns, quantile, sorted, Counts, LaneOut, Phase, Plan, EXACT_REPS,
};
use lanes::ga_mix::GaMixLane;
use lanes::mpl_mix::MplMixLane;
use lanes::put::{PutLane, Shape};
use lanes::sweep::{self, Accuracy};
use lanes::WARM_OPS;
use metrics::{Better, END_TO_END, PER_LAYER, WORKLOADS};

/// The seed the committed tables were taken with.
pub const DEFAULT_SEED: u64 = 0x1998_0330;
/// `run_seconds` of `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 6;

/// Set-up worlds per run: at least `MIN`, then more while they are cheap.
const SETUP_WORLDS_MIN: usize = 5;
const SETUP_WORLDS_MAX: usize = 15;
const SETUP_BUDGET_S: f64 = 1.5;

/// Reps of the worker-cap-2 comparison (`sim.w2_speedup`).
const W2_REPS: usize = 3;
/// The informational 1024-node point: ops per rank per rep, and reps.
const N1024_OPS: u64 = 100;
const N1024_REPS: usize = 3;

/// glibc's allocator with its run-time self-tuning off (setting either
/// variable is what turns it off). Left on, both thresholds follow the largest
/// block freed so far: 512 KiB fiber stacks move between `mmap` and the heap
/// accordingly, the heap is or is not trimmed after every 64 KiB message, and
/// `paper_sweep` lands in one of two speeds 2x apart depending on allocation
/// history. Pinned: the mmap threshold at glibc's initial 128 KiB, so a fiber
/// stack is always a mapping of its own, as in a fresh process; the trim
/// threshold at the 1 MiB the tuner picks once the first stack is freed.
pub const MALLOC_PINS: [(&str, &str); 2] = [
    ("MALLOC_MMAP_THRESHOLD_", "131072"),
    ("MALLOC_TRIM_THRESHOLD_", "1048576"),
];

fn pinned() -> bool {
    MALLOC_PINS
        .iter()
        .all(|(k, v)| std::env::var(k).as_deref() == Ok(*v))
}

/// Run this same command line in a child that has the allocator pinned, and
/// pass its exit code on.
fn rerun_pinned() -> ExitCode {
    let child = std::env::current_exe().and_then(|exe| {
        std::process::Command::new(exe)
            .args(std::env::args_os().skip(1))
            .envs(MALLOC_PINS)
            .status()
    });
    match child {
        Ok(status) => ExitCode::from(status.code().map_or(1, |c| c as u8)),
        Err(e) => {
            eprintln!("spbench: cannot rerun with the allocator pinned: {e}");
            ExitCode::FAILURE
        }
    }
}

pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub check: bool,
    pub repeat: Option<usize>,
    manifest: bool,
}

const USAGE: &str =
    "usage: spbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--check]
       spbench --repeat K [--workload NAME] [--seed N] [--seconds S]
       spbench --manifest";

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        trace: false,
        check: false,
        repeat: None,
        manifest: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => {
                let v = value()?;
                let parsed = match v.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => v.parse(),
                };
                a.seed = parsed.map_err(|e| format!("--seed {v}: {e}"))?;
            }
            "--seconds" => {
                let v = value()?;
                a.seconds = v.parse().map_err(|e| format!("--seconds {v}: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 60.0) {
                    return Err(format!("--seconds {v}: must be in (0, 60]"));
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace {v}: must be 0 or 1")),
                }
            }
            "--repeat" => {
                let v = value()?;
                a.repeat = Some(v.parse().map_err(|e| format!("--repeat {v}: {e}"))?);
            }
            "--check" => a.check = true,
            "--manifest" => a.manifest = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

enum Workload {
    Put(PutLane),
    GaMix(GaMixLane),
    MplMix(MplMixLane),
    Sweep,
}

fn workload(name: &str) -> Option<Workload> {
    let pair = |bytes, drop_prob, ops_per_rep| {
        Workload::Put(PutLane {
            nodes: 2,
            shape: Shape::Pair,
            bytes,
            drop_prob,
            ops_per_rep,
            warm_ops: WARM_OPS,
        })
    };
    Some(match name {
        "lapi_small_n2" => pair(8, 0.0, 300_000),
        "lapi_bulk_n2" => pair(64 * 1024, 0.0, 22_000),
        "lapi_bulk_lossy_n2" => pair(64 * 1024, 0.05, 18_000),
        "ga_mix_n4" => Workload::GaMix(GaMixLane {
            ops_per_rep: 30_000,
        }),
        "mpl_mix_n2" => Workload::MplMix(MplMixLane {
            ops_per_rep: 100_000,
        }),
        "ring_n256" => Workload::Put(ring(256, 1000)),
        "paper_sweep" => Workload::Sweep,
        _ => return None,
    })
}

fn ring(nodes: usize, ops_per_rep: u64) -> PutLane {
    PutLane {
        nodes,
        shape: Shape::Ring,
        bytes: 64,
        drop_prob: 0.0,
        ops_per_rep,
        // Set-up is repeated; at a thousand ops for each of 256 ranks it
        // would take longer than the measurement.
        warm_ops: WARM_OPS / 4,
    }
}

impl Workload {
    /// Discarded full reps. The ring needs four: each rank's two busy delivery
    /// rings (4096 slots; one packet per op each) are touched page by page
    /// until they have wrapped, and throughput falls and RSS grows until then.
    fn warm_reps(&self) -> usize {
        match self {
            Workload::Put(l) if l.shape == Shape::Ring => 4,
            _ => 1,
        }
    }

    /// Is one seed's virtual time expected to repeat bit for bit? Today that
    /// holds for 2-node polling jobs (DESIGN §9); with more nodes or in
    /// interrupt mode the order in which ranks reserve links and merge
    /// clocks follows the host's scheduling.
    fn exact(&self) -> bool {
        match self {
            Workload::Put(l) => l.shape == Shape::Pair,
            Workload::MplMix(_) => true,
            Workload::GaMix(_) | Workload::Sweep => false,
        }
    }

    fn run(&self, seed: u64, plan: Plan, base: Instant) -> (LaneOut, Option<Accuracy>) {
        match self {
            Workload::Put(l) => (lanes::put::run(l, seed, plan, base), None),
            Workload::GaMix(l) => (lanes::ga_mix::run(l, seed, plan, base), None),
            Workload::MplMix(l) => (lanes::mpl_mix::run(l, seed, plan, base), None),
            Workload::Sweep => {
                let (out, acc) = sweep::run(plan, base);
                (out, Some(acc))
            }
        }
    }
}

fn setup_fp(out: &LaneOut) -> u64 {
    out.ranks.iter().fold(0, |h, r| harness::fnv(h, r.setup_fp))
}

fn ops_per_s(out: &LaneOut, phase: Phase) -> Vec<f64> {
    out.clock
        .reps
        .iter()
        .filter(|r| r.0 == phase)
        .map(|r| out.ops_per_rep as f64 / r.1)
        .collect()
}

/// Mean µs of the spans called `name`, over all ranks.
fn span_us(out: &LaneOut, name: &str) -> f64 {
    let (ns, n) = out
        .ranks
        .iter()
        .flat_map(|r| r.spans.totals.iter())
        .filter(|t| t.0 == name)
        .fold((0u64, 0u64), |a, t| (a.0 + t.1, a.1 + t.2));
    ns as f64 / 1000.0 / n.max(1) as f64
}

fn write_spans(name: &str, out: &LaneOut) -> std::io::Result<u64> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let mut text = String::from("[\n");
    let mut n = 0u64;
    for s in out.ranks.iter().flat_map(|r| r.spans.kept.iter()) {
        let sep = if n == 0 { "" } else { ",\n" };
        let _ = write!(
            text,
            "{sep}{{\"name\": \"{}\", \"parent\": \"{}\", \"op\": {}, \"rank\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
            s.name, s.parent, s.op, s.rank, s.start_ns, s.end_ns
        );
        n += 1;
    }
    text.push_str("\n]\n");
    std::fs::write(dir.join(format!("{name}.spans.json")), text)?;
    Ok(n)
}

/// The result line the driver reads.
fn result_json(correct: bool, attempted: u64, failed: u64, values: &[(&str, &str, f64)]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, unit, v)) in values.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("}}");
    s
}

fn run_one(args: &Args, name: &str, w: &Workload) -> bool {
    let base = Instant::now();
    println!("{}", host::fingerprint());
    println!(
        "workload {name} seed {:#x} seconds {} trace {} | scheduler pool, 1 worker, rings, closed loop, malloc thresholds pinned",
        args.seed, args.seconds, args.trace as u8
    );

    // ---------------------------------------------------------------- set-up
    let (reference, accuracy_ref_s) = match w {
        Workload::Sweep => (None, 0.0),
        _ => {
            let (acc, s) = sweep::reference();
            (Some(acc), s)
        }
    };
    let mut setups = Vec::new();
    let mut fps = Vec::new();
    let rss_before_kb = host::status_kb("VmRSS");
    let mut first_world_kb_per_node = None;
    let t_setups = Instant::now();
    while setups.len() + 1 < SETUP_WORLDS_MIN
        || (setups.len() + 1 < SETUP_WORLDS_MAX
            && t_setups.elapsed().as_secs_f64() < SETUP_BUDGET_S)
    {
        let (out, _) = w.run(args.seed, Plan::SETUP_ONLY, base);
        first_world_kb_per_node.get_or_insert(
            out.setup.rss_kb.saturating_sub(rss_before_kb) as f64 / out.ranks.len() as f64,
        );
        setups.push(out.setup.setup_s);
        fps.push(setup_fp(&out));
    }

    // ----------------------------------------------------------- measurement
    let plan = Plan::timed(w.warm_reps(), args.seconds, args.trace);
    let (out, swept) = w.run(args.seed, plan, base);
    setups.push(out.setup.setup_s);
    fps.push(setup_fp(&out));
    let exact = fps.iter().all(|f| *f == fps[0]);

    let plain = ops_per_s(&out, Phase::Plain);
    let mut vt: Vec<u64> = out
        .ranks
        .iter()
        .flat_map(|r| r.vt_ns.iter().copied())
        .collect();
    vt.sort_unstable();
    let accuracy = swept
        .as_ref()
        .or(reference.as_ref())
        .expect("one accuracy source");
    let mut attempted: u64 = out.ranks.iter().map(|r| r.attempted).sum();
    let mut failed: u64 = out.ranks.iter().map(|r| r.failed).sum();
    if let Some(r) = &reference {
        attempted += r.rows;
        failed += r.bad_rows;
    }
    let ok = attempted.saturating_sub(failed);
    let correct = failed == 0 && (exact || !w.exact());

    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    values.insert("ops_per_s", median(&plain));
    values.insert("vt_us_per_op_p50", percentile_ns(&vt, 0.50) as f64 / 1000.0);
    values.insert("vt_us_per_op_p99", percentile_ns(&vt, 0.99) as f64 / 1000.0);
    values.insert("paper_err_pct", accuracy.err_pct());
    values.insert("setup_s", median(&setups));
    values.insert("ok_share", ok as f64 / attempted.max(1) as f64);

    // -------------------------------------------------------------- per layer
    let counts = out
        .ranks
        .iter()
        .fold(Counts::default(), |a, r| add(&a, &r.counts));
    let ops = (out.ops_per_rep * EXACT_REPS as u64) as f64;
    let per_op = |i: usize| counts[i] as f64 / ops;
    let share = |a: f64, rest: f64| if a + rest > 0.0 { a / (a + rest) } else { 0.0 };
    for (metric, i) in [
        ("switch.packets_per_op", ix::PACKETS),
        ("switch.wire_bytes_per_op", ix::WIRE_BYTES),
        ("switch.retransmits_per_op", ix::RETRANSMITS),
        ("switch.acks_per_op", ix::ACKS),
        ("switch.dups_per_op", ix::DUPS),
        ("lapi.dispatched_per_op", ix::DISPATCHED),
        ("lapi.interrupts_per_op", ix::INTERRUPTS),
        ("lapi.hdr_handlers_per_op", ix::HDR_HANDLERS),
        ("lapi.cmpl_handlers_per_op", ix::CMPL_HANDLERS),
        ("mpl.unexpected_per_op", ix::MPL_UNEXPECTED),
        ("mpl.packets_per_op", ix::MPL_PACKETS),
        ("ga.pool_exhausted", ix::GA_POOL_EXHAUSTED),
    ] {
        values.insert(metric, per_op(i));
    }
    let (eager, rndv) = (per_op(ix::MPL_EAGER), per_op(ix::MPL_RNDV));
    values.insert("mpl.eager_share", share(eager, rndv));
    let (am, direct, other) = (
        per_op(ix::GA_AM),
        per_op(ix::GA_DIRECT_RMC),
        per_op(ix::GA_OTHER_RMC),
    );
    values.insert("ga.am_share", share(am, direct + other));
    values.insert("ga.direct_rmc_share", share(direct, am + other));
    let batches = sorted(out.clock.batch_us_per_op.clone());
    if !batches.is_empty() {
        values.insert("host.batch_us_per_op_p50", quantile(&batches, 0.50));
        values.insert("host.batch_us_per_op_p95", quantile(&batches, 0.95));
    }
    let plain_sorted = sorted(plain.clone());
    let (lo, hi) = (plain_sorted[0], plain_sorted[plain_sorted.len() - 1]);
    values.insert("host.ops_per_s_min", lo);
    values.insert("host.ops_per_s_max", hi);
    values.insert("host.rep_spread_pct", 100.0 * (hi - lo) / median(&plain));
    values.insert(
        "host.cpu_share",
        out.clock.cpu_s / out.clock.reps.iter().map(|r| r.1).sum::<f64>(),
    );
    values.insert(
        "sim.rss_kb_per_node",
        first_world_kb_per_node.expect("at least one set-up world"),
    );
    values.insert("setup.world_init_s", out.world_init_s);
    values.insert("setup.warmup_s", out.clock.warm_s);
    values.insert("setup.accuracy_ref_s", accuracy_ref_s);
    values.insert("check.counts_repeat_exact", exact as u8 as f64);
    if args.trace {
        traced_extras(args, name, w, &out, &mut values, base);
    }
    values.insert("peak_rss_mb", host::status_kb("VmHWM") as f64 / 1024.0);

    // ----------------------------------------------------------------- report
    println!(
        "reps: {} warm, {} measured of {} ops each ({:.3} s median); virtual time and counts over the first {EXACT_REPS}: {} samples, {} beyond p99",
        w.warm_reps(),
        out.clock.reps.len(),
        out.ops_per_rep,
        out.ops_per_rep as f64 / median(&plain),
        vt.len(),
        vt.len() / 100,
    );
    println!(
        "ops_per_s over the {} plain reps: min {:.1} q1 {:.1} median {:.1} q3 {:.1} max {:.1}",
        plain.len(),
        lo,
        quantile(&plain_sorted, 0.25),
        median(&plain),
        quantile(&plain_sorted, 0.75),
        hi
    );
    match w {
        Workload::Sweep => println!(
            "paper_sweep: vt_us_per_op_p50/p99 are the median and the largest of the sweep's {} rows reported in us",
            vt.len()
        ),
        Workload::Put(l) if l.shape == Shape::Ring => println!(
            "ring: vt_us_per_op_p50/p99 are over each rank's mean per rep ({} samples); single ops do not repeat at this node count",
            vt.len()
        ),
        _ => {}
    }
    println!(
        "set-up: {} worlds, fingerprints {} ({})",
        setups.len(),
        if exact { "identical" } else { "differ" },
        if w.exact() {
            "must be identical"
        } else {
            "informational on this workload"
        },
    );
    let table: Vec<(&str, &str, f64)> = if args.trace {
        PER_LAYER
            .iter()
            .map(|d| (d.name, d.unit, values.get(d.name).copied().unwrap_or(0.0)))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|(d, _)| (d.name, d.unit, values[d.name]))
            .collect()
    };
    for (metric, unit, v) in &table {
        println!("  {metric:<34} {v:>16.6} {unit}");
    }
    println!("{}", result_json(correct, attempted, failed, &table));
    correct
}

/// The parts of a traced run beyond the alternating plain/traced reps:
/// span-derived call costs, the span file, the virtual-time phases, the
/// worker-cap-2 comparison and (ring only) the 1024-node point.
fn traced_extras(
    args: &Args,
    name: &str,
    w: &Workload,
    out: &LaneOut,
    values: &mut BTreeMap<&'static str, f64>,
    base: Instant,
) {
    // After the measurement, never before it: a traced run's reps must see
    // the process (its heap, its pool of workers) as an untraced run's do.
    for (metric, v) in probes::run_all(args.seed) {
        values.insert(metric, v);
    }
    for (metric, span) in [
        ("lapi.put_call_us", "lapi.put"),
        ("lapi.wait_call_us", "lapi.wait"),
        ("lapi.fence_call_us", "lapi.fence"),
        ("lapi.barrier_call_us", "lapi.barrier"),
        ("mpl.send_call_us", "mpl.send"),
        ("mpl.recv_call_us", "mpl.recv"),
        ("ga.put_call_us", "ga.put"),
        ("ga.get_call_us", "ga.get"),
        ("ga.acc_call_us", "ga.acc"),
        ("ga.read_inc_call_us", "ga.read_inc"),
        ("ga.sync_call_us", "ga.sync"),
    ] {
        values.insert(metric, span_us(out, span));
    }
    for (span, metric, _) in sweep::MODULES {
        values.insert(metric, span_us(out, span) / 1e6);
    }

    // Self time: a layer's op span minus what its child layer accounts for.
    // The switch has no spans of its own from out here, so its share is the
    // packets an op bought times the probe's cost of one.
    let op_us = span_us(out, "op");
    let armed = matches!(w, Workload::Put(l) if l.drop_prob > 0.0);
    let per_packet_ns = values[if armed {
        "switch.armed_send_ns_per_packet"
    } else {
        "switch.send_ns_per_packet"
    }];
    let switch_self = values["switch.packets_per_op"] * per_packet_ns / 1000.0;
    values.insert("switch.self_us_per_op", switch_self);
    match w {
        Workload::Put(_) => {
            values.insert("lapi.self_us_per_op", op_us - switch_self);
        }
        Workload::MplMix(_) => {
            values.insert("mpl.self_us_per_op", op_us - switch_self);
        }
        Workload::GaMix(_) => {
            let bare = lanes::ga_mix::bare_lapi_op_us(args.seed);
            values.insert("lapi.self_us_per_op", bare - switch_self);
            values.insert("ga.self_us_per_op", op_us - bare);
        }
        Workload::Sweep => {}
    }

    let plain = median(&ops_per_s(out, Phase::Plain));
    let traced = ops_per_s(out, Phase::Traced);
    if !traced.is_empty() {
        values.insert(
            "trace.overhead_pct",
            100.0 * (plain - median(&traced)) / plain,
        );
    }
    let written = write_spans(name, out).unwrap_or_else(|e| panic!("cannot write span file: {e}"));
    values.insert("trace.spans_written", written as f64);

    if let Workload::Put(l) = w {
        if l.shape == Shape::Pair {
            spsim::trace::TraceSink::global().set_capacity(1 << 20);
            let session = spsim::trace::session();
            let (world, _) = w.run(args.seed, Plan::SETUP_ONLY, base);
            let timeline = session.finish();
            assert_eq!(
                timeline.evicted, 0,
                "trace rings too small for the traced ops"
            );
            let (phase_us, ops) = phases::of_pair_lane(&timeline);
            for (metric, v) in phases::PHASES.iter().zip(phase_us) {
                values.insert(metric, v);
            }
            // The lane's own clock over the same ops, minus the first (its
            // window has no predecessor to start from).
            let lane_vt = &world.ranks[0].warm_vt_ns[1..];
            let lane_mean = lane_vt.iter().sum::<u64>() as f64 / 1000.0 / lane_vt.len() as f64;
            assert_eq!(ops as usize, lane_vt.len(), "one window per traced op");
            let sum: f64 = phase_us.iter().sum();
            values.insert(
                "vt.phase_sum_err_pct",
                100.0 * (sum - lane_mean).abs() / lane_mean,
            );
        }
    }

    if !matches!(w, Workload::Sweep) {
        // The same world at worker cap 2, which is what the scheduler picks
        // by default on this class of host.
        spsim::set_worker_cap(Some(2));
        let (two, _) = w.run(args.seed, Plan::fixed(1, W2_REPS), base);
        spsim::set_worker_cap(Some(1));
        values.insert(
            "sim.w2_speedup",
            median(&ops_per_s(&two, Phase::Plain)) / plain,
        );
    }

    if matches!(w, Workload::Put(l) if l.shape == Shape::Ring) {
        let big = PutLane {
            warm_ops: N1024_OPS,
            ..ring(1024, N1024_OPS)
        };
        let big = lanes::put::run(&big, args.seed, Plan::fixed(0, N1024_REPS), base);
        let rates = sorted(ops_per_s(&big, Phase::Plain));
        values.insert("sim.scale_n1024_ops_per_s", median(&rates));
        values.insert("sim.scale_n1024_ops_per_s_min", rates[0]);
        values.insert("sim.scale_n1024_ops_per_s_max", rates[rates.len() - 1]);
    }
}

fn manifest() -> String {
    let esc = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
    let better = |b: Better| {
        if b == Better::Lower {
            "lower"
        } else {
            "higher"
        }
    };
    let mut s = String::from("{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    s.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 == WORKLOADS.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{name}\", \"why\": \"{}\"}}{sep}",
            esc(why)
        );
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, (d, bound)) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 == END_TO_END.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {bound}}}{sep}",
            d.name, d.unit, better(d.better)
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, d) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 == PER_LAYER.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}",
            d.name,
            d.unit,
            better(d.better)
        );
    }
    s.push_str("  ]\n}\n");
    s
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("spbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.manifest {
        print!("{}", manifest());
        return ExitCode::SUCCESS;
    }
    // Every knob the workloads depend on is set in code; an SPSIM_* variable
    // could only make this run measure something else under the same name.
    if let Some((k, _)) = std::env::vars().find(|(k, _)| k.starts_with("SPSIM_")) {
        eprintln!("spbench: {k} is set; unset every SPSIM_* variable before benchmarking");
        return ExitCode::from(2);
    }
    if let Some(k) = args.repeat {
        return repeat::run(&args, k);
    }
    if !pinned() {
        return rerun_pinned();
    }
    let Some(name) = args.workload.as_deref() else {
        eprintln!("spbench: --workload is required\n{USAGE}");
        return ExitCode::from(2);
    };
    let Some(w) = workload(name) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        eprintln!(
            "spbench: unknown workload {name}; one of {}",
            names.join(", ")
        );
        return ExitCode::from(2);
    };
    // One pool worker: the configuration whose numbers repeat, and survive a
    // busy neighbour on the other core (README, "Why one worker").
    spsim::set_sched_mode(Some(spsim::SchedMode::Pool));
    spsim::set_worker_cap(Some(1));
    let correct = run_one(&args, name, &w);
    if args.check && !correct {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
