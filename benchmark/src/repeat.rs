//! `spbench --repeat K`: K fresh processes per workload, each with another
//! seed, and the dispersion of every end-to-end metric across them.

use std::process::{Command, ExitCode};

use crate::metrics::{END_TO_END, WORKLOADS};
use crate::Args;

/// `statistics.quantiles(values, n=4)` of Python (the exclusive method), so
/// the table reads the same as the one the acceptance driver computes.
fn quartiles(sorted: &[f64]) -> [f64; 3] {
    let n = sorted.len();
    std::array::from_fn(|i| {
        let pos = (i + 1) * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    })
}

/// The value of metric `name` in a result line.
fn metric(line: &str, name: &str) -> Option<f64> {
    let rest = line.split(&format!("\"{name}\": {{\"value\": ")).nth(1)?;
    rest.split([',', '}']).next()?.trim().parse().ok()
}

fn one_run(args: &Args, workload: &str, seed: u64) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--trace", "0", "--check"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .envs(crate::MALLOC_PINS)
        .output()
        .map_err(|e| format!("cannot start a run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or("").to_string();
    if !out.status.success() || !line.contains("\"correct\": true") {
        return Err(format!(
            "{workload} seed {seed}: run failed ({}): {line}\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    Ok(line)
}

pub fn run(args: &Args, k: usize) -> ExitCode {
    if k < 2 {
        eprintln!("spbench: --repeat needs at least 2 runs");
        return ExitCode::from(2);
    }
    println!("{}", crate::host::fingerprint());
    let mut over = false;
    for (workload, _) in WORKLOADS {
        if args.workload.as_deref().is_some_and(|w| w != workload) {
            continue;
        }
        let mut lines = Vec::new();
        for i in 0..k {
            match one_run(args, workload, args.seed.wrapping_add(i as u64)) {
                Ok(line) => lines.push(line),
                Err(e) => {
                    eprintln!("spbench: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        println!("\n{workload}: {k} runs, seeds {:#x}..", args.seed);
        println!(
            "  {:<18} {:>14} {:>14} {:>14} {:>14} {:>14} {:>9} {:>7}",
            "metric", "min", "q1", "median", "q3", "max", "spread%", "bound%"
        );
        for (def, bound) in &END_TO_END {
            let mut v: Vec<f64> = lines
                .iter()
                .map(|l| metric(l, def.name).unwrap_or_else(|| panic!("no {} in {l}", def.name)))
                .collect();
            v.sort_by(|a, b| a.total_cmp(b));
            let [q1, q2, q3] = quartiles(&v);
            let spread = (q3 - q1) / q2;
            // As in the acceptance driver, set-up time is held to its bound
            // between medians only, not in its spread.
            let flag = if spread > *bound && def.name != "setup_s" {
                over = true;
                " OVER"
            } else {
                ""
            };
            println!(
                "  {:<18} {:>14.4} {:>14.4} {:>14.4} {:>14.4} {:>14.4} {:>9.3} {:>7.3}{flag}",
                def.name,
                v[0],
                q1,
                q2,
                q3,
                v[k - 1],
                100.0 * spread,
                100.0 * bound
            );
        }
    }
    if over {
        eprintln!("spbench: an end-to-end spread exceeds its bound");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
