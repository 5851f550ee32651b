//! `paper_sweep`: one rep is the six quick paper experiments, back to back.
//! Also the accuracy reference every workload reports as `paper_err_pct`.

use std::time::Instant;

use lapi_bench::experiments::{fig2, fig3, fig4, ga_latency, pipeline, table2};
use lapi_bench::report::Report;

use crate::harness::{LaneOut, Phase, Plan, RankLog, RepClock, SetupEnd};

/// Span name, per-layer metric (mean seconds of that span), entry point.
type Module = (&'static str, &'static str, fn(bool) -> Report);

pub const MODULES: [Module; 6] = [
    ("sweep.table2", "sweep.table2_s", table2::run),
    ("sweep.pipeline", "sweep.pipeline_s", pipeline::run),
    ("sweep.fig2", "sweep.fig2_s", fig2::run),
    ("sweep.ga_latency", "sweep.ga_latency_s", ga_latency::run),
    ("sweep.fig3", "sweep.fig3_s", fig3::run),
    ("sweep.fig4", "sweep.fig4_s", fig4::run),
];

/// The two cheap modules that carry paper values (Table 2 and the GA element
/// latencies, ≈25 ms): the accuracy reference of the six steady-state
/// workloads, and the sweep's own unit of set-up.
const REFERENCE: [usize; 2] = [0, 3];

/// measured / paper must fall in this range for a row to count as correct.
/// A sanity band, not an accuracy target (`paper_err_pct` is that): the
/// widest miss today is GA put over LAPI, 0.48× in the quick run.
const SANE: std::ops::RangeInclusive<f64> = 0.4..=2.5;

/// What the rows of some reports say about the model's accuracy.
#[derive(Default)]
pub struct Accuracy {
    /// Sum and count of |measured/paper − 1| over rows with a paper value.
    err_sum: f64,
    err_rows: u64,
    /// Rows checked / rows not finite or outside [`SANE`] of their paper value.
    pub rows: u64,
    pub bad_rows: u64,
    /// Every row reported in µs, as virtual ns.
    pub us_rows_ns: Vec<u64>,
}

impl Accuracy {
    pub fn absorb(&mut self, r: &Report) {
        for row in &r.rows {
            self.rows += 1;
            let mut ok = row.measured.is_finite();
            if let Some(ratio) = row.ratio() {
                ok &= SANE.contains(&ratio);
                self.err_sum += (ratio - 1.0).abs();
                self.err_rows += 1;
            }
            if !ok {
                self.bad_rows += 1;
            }
            if row.unit == "us" && ok {
                self.us_rows_ns.push((row.measured * 1000.0).round() as u64);
            }
        }
    }

    pub fn err_pct(&self) -> f64 {
        100.0 * self.err_sum / self.err_rows.max(1) as f64
    }
}

/// Run the reference modules once; returns their accuracy and wall time.
pub fn reference() -> (Accuracy, f64) {
    let t = Instant::now();
    let mut acc = Accuracy::default();
    for i in REFERENCE {
        acc.absorb(&(MODULES[i].2)(true));
    }
    (acc, t.elapsed().as_secs_f64())
}

/// The sweep as a lane: set-up is one run of the reference modules, a rep is
/// all six. Experiments fix their own seeds, so `--seed` changes nothing here.
pub fn run(plan: Plan, base: Instant) -> (LaneOut, Accuracy) {
    let (_, setup_s) = reference();
    let mut log = RankLog::new(0, base, 1);
    let mut clock = RepClock::new(plan);
    let mut acc = Accuracy::default();
    loop {
        let phase = clock.next_phase();
        if phase == Phase::Done {
            break;
        }
        // Per-module wall time is this lane's per-layer breakdown, so the
        // recorder runs in every rep; the sweep has no untraced twin.
        log.spans.set_on(true);
        let keep = log.keeps(phase);
        let mut rep = Accuracy::default();
        clock.start();
        let t_op = log.spans.begin();
        for (name, _, module) in MODULES {
            let t = log.spans.begin();
            let report = module(true);
            log.spans.end(name, "op", clock.reps.len() as u64, t);
            rep.absorb(&report);
        }
        log.spans.end("op", "", clock.reps.len() as u64, t_op);
        clock.stop(phase);
        log.attempted += rep.rows;
        log.failed += rep.bad_rows;
        if keep {
            log.exact_reps += 1;
            // Every rep reruns the same experiments: the first kept rep's
            // rows are the lane's virtual-time samples.
            if acc.rows == 0 {
                log.vt_ns = rep.us_rows_ns.clone();
                acc = rep;
            }
        }
    }
    let out = LaneOut {
        setup: SetupEnd {
            setup_s,
            rss_kb: crate::host::status_kb("VmRSS"),
        },
        world_init_s: 0.0,
        ops_per_rep: MODULES.len() as u64,
        clock,
        ranks: vec![log],
    };
    (out, acc)
}
