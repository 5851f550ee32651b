//! 1024-node scale smoke test — the acceptance gate for M:N node
//! scheduling: a four-figure node count (~3000 simulated contexts: node,
//! dispatcher and completion service each) must complete on the pooled
//! scheduler with a worker set sized to the host.
//!
//! The workload is deliberately short — create one distributed array, fill
//! every block locally, then pull a single remote element from the ring
//! neighbor — because what is under test is the scheduler (spawn, yield
//! points, engine service tasks, barrier parks, teardown at n = 1024),
//! not GA throughput. `#[ignore]`d in the default lane: it is quick under
//! `--release` (CI runs it there with `-- --ignored`) but slow in debug.

use std::sync::Arc;

use ga::{Ga, GaBackend, GaConfig, GaKind, LapiGaBackend, Patch};
use lapi::{LapiWorld, Mode};
use spsim::{run_spmd_with, MachineConfig};

const TASKS: usize = 1024;
const ROWS: usize = 128;
const COLS: usize = 128;

/// `VmHWM` of this process in bytes (`None` off Linux).
fn vm_hwm_bytes() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: usize = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

fn col_major(patch: &Patch, f: impl Fn(usize, usize) -> f64) -> Vec<f64> {
    let mut out = Vec::with_capacity(patch.elems());
    for j in patch.lo.1..=patch.hi.1 {
        for i in patch.lo.0..=patch.hi.0 {
            out.push(f(i, j));
        }
    }
    out
}

#[test]
#[ignore = "1024 nodes: run with --release (CI's ga-scale job does)"]
fn thousand_node_ga_workload_completes_pooled() {
    let gas: Vec<(Ga, Arc<LapiGaBackend>)> =
        LapiWorld::init(TASKS, MachineConfig::default(), Mode::Interrupt)
            .into_iter()
            .map(|ctx| {
                let backend = LapiGaBackend::new(ctx, GaConfig::default());
                (Ga::new(backend.clone() as Arc<dyn GaBackend>), backend)
            })
            .collect();
    let reserved: usize = run_spmd_with(gas, |rank, (ga, backend)| {
        let a = ga.create("scale", ROWS, COLS, GaKind::Double);
        ga.sync();

        // Everyone writes its own block (exercises the put path and the
        // owner-local fast path at full node count).
        let mine = a
            .local_patch()
            .expect("1024 = 32x32 grid, every task owns a block");
        a.put(mine, &col_major(&mine, |_, _| rank as f64));
        ga.sync();

        // One remote element from the ring neighbor: 1024 simultaneous
        // interrupt-mode gets, each served by a pooled dispatcher task.
        let next = (rank + 1) % TASKS;
        let theirs = a.distribution(next).expect("neighbor owns a block");
        let corner = Patch::new(theirs.lo, theirs.lo);
        assert_eq!(a.get(corner), vec![next as f64]);
        ga.sync();
        backend.lapi().mem_allocated()
    })
    .into_iter()
    .sum();
    // Reserved is not resident: nearly all of each node's arena is its
    // 4 MiB AM pool, and nothing here sends a bulk accumulate, so no page of
    // it should ever be mapped. The ratio is the arena's zero-on-demand
    // property and means the same on any allocator and runner, which an
    // absolute bound would not. Ring memory is guarded where it shows: the
    // slot-count tests in `spsim::spsc` and `ring_n256`'s `peak_rss_mb`.
    if let Some(hwm) = vm_hwm_bytes() {
        println!(
            "VmHWM at exit: {} MB of {} MB reserved",
            hwm >> 20,
            reserved >> 20
        );
        assert!(
            hwm < reserved / 4,
            "peak resident {hwm} B is not under a quarter of the {reserved} B the arenas reserved"
        );
    }
}
