//! What the benchmark reads about the host it runs on.

use std::fs;

/// A `kB` line of `/proc/self/status` (`VmHWM`, `VmRSS`); 0 where there is
/// no procfs.
pub fn status_kb(key: &str) -> u64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(key) && l[key.len()..].starts_with(':'))
                .and_then(|l| l.split_whitespace().nth(1)?.parse().ok())
        })
        .unwrap_or(0)
}

/// CPU seconds this process has run, over all its threads, from the
/// scheduler's own nanosecond accounting.
pub fn cpu_seconds() -> f64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0.0;
    };
    let ns: u64 = tasks
        .flatten()
        .filter_map(|t| fs::read_to_string(t.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum();
    ns as f64 / 1e9
}

/// One line naming the host, so absolute host-clock numbers are only ever
/// compared like for like.
pub fn fingerprint() -> String {
    let cpu = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "host: nproc={nproc} cpu=\"{cpu}\" kernel={kernel} rustc=\"{}\"",
        env!("SPBENCH_RUSTC")
    )
}
