//! Self-tests for spsim-lint: fixture positive/negative cases per rule
//! (per-file L-rules and interprocedural A-rules), allowlist round-trips,
//! binary exit codes, and the meta-test that the live workspace is
//! lint-clean.

use std::path::{Path, PathBuf};
use std::process::Command;

use spsim_lint::allowlist::Allowlist;
use spsim_lint::rules::{Finding, Rule};
use spsim_lint::{analyze_set, lint_file, lint_root};

fn fixture(name: &str) -> (String, String) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let src = std::fs::read_to_string(&path).expect("fixture readable");
    (path.to_string_lossy().into_owned(), src)
}

/// Lint a fixture with an empty allowlist; return (rule, line) pairs.
fn run_fixture(name: &str) -> Vec<(Rule, u32)> {
    let (path, src) = fixture(name);
    let allow = Allowlist::default();
    lint_file(&path, &src, &allow)
        .into_iter()
        .map(|f| (f.rule, f.line))
        .collect()
}

fn rules_of(findings: &[(Rule, u32)]) -> Vec<Rule> {
    findings.iter().map(|(r, _)| *r).collect()
}

// ------------------------------------------------------------ per-rule

#[test]
fn l1_fires_on_wall_clock_and_not_on_clean_code() {
    let bad = run_fixture("l1_bad.rs");
    assert_eq!(rules_of(&bad), vec![Rule::L1; 5], "bad: {bad:?}");
    assert!(run_fixture("l1_ok.rs").is_empty());
}

#[test]
fn l2_fires_on_hash_collections_and_not_on_btree() {
    let bad = run_fixture("l2_bad.rs");
    assert_eq!(rules_of(&bad), vec![Rule::L2; 4], "bad: {bad:?}");
    assert!(run_fixture("l2_ok.rs").is_empty());
}

#[test]
fn l3_fires_on_unjustified_orderings_only() {
    let bad = run_fixture("l3_bad.rs");
    assert_eq!(rules_of(&bad), vec![Rule::L3; 2], "bad: {bad:?}");
    assert!(run_fixture("l3_ok.rs").is_empty());
}

#[test]
fn l4_fires_on_guard_across_wait_only() {
    let bad = run_fixture("l4_bad.rs");
    assert_eq!(rules_of(&bad), vec![Rule::L4; 2], "bad: {bad:?}");
    assert!(run_fixture("l4_ok.rs").is_empty());
}

#[test]
fn l5_fires_on_bare_panics_only() {
    let bad = run_fixture("l5_bad.rs");
    assert_eq!(rules_of(&bad), vec![Rule::L5; 3], "bad: {bad:?}");
    assert!(run_fixture("l5_ok.rs").is_empty());
}

#[test]
fn l6_fires_on_unannotated_wait_loops_only() {
    let bad = run_fixture("l6_bad.rs");
    assert_eq!(rules_of(&bad), vec![Rule::L6; 3], "bad: {bad:?}");
    // Each finding addresses the loop keyword's line.
    let (_, src) = fixture("l6_bad.rs");
    for (_, line) in &bad {
        let text = src.lines().nth(*line as usize - 1).unwrap_or("");
        assert!(
            text.contains("while") || text.contains("loop"),
            "finding line {line} is not a loop: `{text}`"
        );
    }
    assert!(run_fixture("l6_ok.rs").is_empty());
}

#[test]
fn findings_carry_stable_lines() {
    // Line numbers must address the offending token, not drift with
    // multi-line strings or comments above.
    let (path, src) = fixture("l5_bad.rs");
    let allow = Allowlist::default();
    let findings = lint_file(&path, &src, &allow);
    for f in &findings {
        let line = src.lines().nth(f.line as usize - 1).unwrap_or("");
        assert!(
            line.contains("panic!") || line.contains(".unwrap()") || line.contains(".expect("),
            "finding line {} does not contain the violation: `{line}`",
            f.line
        );
    }
}

// ------------------------------------------------------------ A-rules

/// Run the interprocedural analyzer over a set of fixtures as one
/// mini-workspace.
fn analyze_fixtures(names: &[&str], allow: &Allowlist) -> Vec<Finding> {
    let files: Vec<(String, String)> = names.iter().map(|n| fixture(n)).collect();
    analyze_set(&files, allow)
}

fn witness_labels(f: &Finding) -> Vec<&str> {
    f.witness.iter().map(|h| h.label.as_str()).collect()
}

#[test]
fn a1_fires_on_indirect_taint_only() {
    let f = analyze_fixtures(&["a1_bad.rs"], &Allowlist::default());
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!(f[0].rule, Rule::A1);
    // The finding addresses the caller; the witness walks down to the
    // clock primitive in the callee.
    assert_eq!(
        witness_labels(&f[0]),
        ["engine::issue_packet", "engine::timebase", "Instant"]
    );
    assert!(analyze_fixtures(&["a1_ok.rs"], &Allowlist::default()).is_empty());
}

#[test]
fn a1_suppressed_bridge_blocks_taint() {
    // The same fixture, but the direct clock use is an allowlisted
    // real-time bridge — the bridge absorbs the taint, so the caller is
    // clean (that is the point of the suppression).
    let toml = r#"
        [[allow]]
        rule = "L1"
        path = "a1_bad.rs"
        contains = "Instant::now"
        reason = "fixture: sanctioned real-time bridge"
    "#;
    let allow = Allowlist::parse(toml).expect("parses");
    assert!(analyze_fixtures(&["a1_bad.rs"], &allow).is_empty());
}

#[test]
fn a2_fires_on_lock_order_inversion_only() {
    let f = analyze_fixtures(&["a2_bad.rs"], &Allowlist::default());
    assert_eq!(f.len(), 1, "one cycle, reported once: {f:?}");
    assert_eq!(f[0].rule, Rule::A2);
    assert!(
        f[0].msg.contains("lapi:outstanding") && f[0].msg.contains("lapi:reasm"),
        "cycle names both locks: {}",
        f[0].msg
    );
    assert!(analyze_fixtures(&["a2_ok.rs"], &Allowlist::default()).is_empty());
}

#[test]
fn a3_fires_on_unannotated_blocking_chain_only() {
    let f = analyze_fixtures(&["a3_bad.rs"], &Allowlist::default());
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!(f[0].rule, Rule::A3);
    assert_eq!(
        witness_labels(&f[0]),
        ["engine::dispatcher_loop", "engine::step", "engine::recv"]
    );
    // The annotated variant is absorbed at `step` and reports nothing.
    assert!(analyze_fixtures(&["a3_ok.rs"], &Allowlist::default()).is_empty());
}

#[test]
fn a4_bans_raw_threads_outside_runtime() {
    let f = analyze_fixtures(&["a4_bad.rs"], &Allowlist::default());
    assert_eq!(f.len(), 4, "3×JoinHandle + thread::spawn: {f:?}");
    assert!(f.iter().all(|x| x.rule == Rule::A4));
    // The identical primitives are legal in spsim::sched — and nowhere
    // else in the kernel: spsim::runtime spawns no OS thread.
    let (path, ok) = fixture("a4_ok.rs");
    assert!(analyze_set(&[(path.clone(), ok.clone())], &Allowlist::default()).is_empty());
    let as_runtime = ok.replace("crates/sim/src/sched.rs", "crates/sim/src/runtime.rs");
    let f = analyze_set(&[(path, as_runtime)], &Allowlist::default());
    assert_eq!(f.len(), 4, "3×JoinHandle + thread::spawn: {f:?}");
    assert!(f.iter().all(|x| x.rule == Rule::A4));
}

#[test]
fn a4_bans_park_and_raw_condvar_outside_scheduler() {
    // Blocking primitives pin a pooled worker without yielding: two
    // `Condvar` mentions (import + field) plus park and park_timeout.
    let f = analyze_fixtures(&["a4_park_bad.rs"], &Allowlist::default());
    assert_eq!(f.len(), 4, "2×Condvar + park + park_timeout: {f:?}");
    assert!(f.iter().all(|x| x.rule == Rule::A4));
    assert!(
        f.iter()
            .any(|x| x.msg.contains("thread::park") && x.msg.contains("SimCondvar")),
        "park findings steer to SimCondvar: {f:?}"
    );
    assert!(
        f.iter()
            .any(|x| x.msg.contains("`Condvar`") && x.msg.contains("parks fibers")),
        "condvar findings explain the fiber path: {f:?}"
    );
    // The scheduler is a sanctioned home: parking workers and the raw
    // condvar fallback live there by design.
    assert!(analyze_fixtures(&["a4_park_ok.rs"], &Allowlist::default()).is_empty());
}

#[test]
fn conservative_resolution_covers_dynamic_calls() {
    // Trait-object and generic calls degrade to name-match, closures fold
    // into their enclosing fn, and calls resolve across crate boundaries.
    let f = analyze_fixtures(
        &["xcrate/handlers.rs", "xcrate/hostclock.rs"],
        &Allowlist::default(),
    );
    let a1: Vec<&Finding> = f.iter().filter(|x| x.rule == Rule::A1).collect();
    let mut flagged: Vec<&str> = a1.iter().filter_map(|x| x.msg.split('`').nth(1)).collect();
    flagged.sort_unstable();
    assert_eq!(
        flagged,
        [
            "engine::fire",
            "engine::fire_deferred",
            "engine::fire_generic",
            "engine::stamp_now",
            "hostclock::on_complete",
        ],
        "{a1:?}"
    );
    // The trait-object call's witness crosses into the other file.
    let fire = a1
        .iter()
        .find(|x| x.msg.contains("`engine::fire`"))
        .expect("fire flagged");
    assert!(
        fire.witness
            .iter()
            .any(|h| h.label == "hostclock::on_complete" && h.path.contains("hostclock.rs")),
        "witness routes through the cross-file impl: {:?}",
        fire.witness
    );
}

#[test]
fn witness_chains_render_with_file_line_per_hop() {
    let f = analyze_fixtures(&["a3_bad.rs"], &Allowlist::default());
    let r = f[0].render();
    assert!(
        r.contains("witness: engine::dispatcher_loop → engine::step → engine::recv"),
        "arrow line present: {r}"
    );
    for h in &f[0].witness {
        assert!(
            r.contains(&format!("{} at {}:{}", h.label, h.path, h.line)),
            "hop `{}` has a file:line in: {r}",
            h.label
        );
    }
}

// ------------------------------------------------------------ allowlist

#[test]
fn suppression_round_trip() {
    let (path, src) = fixture("l1_bad.rs");
    let toml = r#"
        # suppress exactly the Instant::now finding, leave the rest
        [[allow]]
        rule = "L1"
        path = "l1_bad.rs"
        contains = "Instant::now"
        reason = "fixture round-trip"
    "#;
    let allow = Allowlist::parse(toml).expect("parses");
    let findings = lint_file(&path, &src, &allow);
    assert_eq!(findings.len(), 4, "Instant::now suppressed: {findings:?}");
    assert!(findings.iter().all(|f| !src
        .lines()
        .nth(f.line as usize - 1)
        .unwrap()
        .contains("Instant::now")));
    assert!(allow.unused().is_empty(), "the entry matched");
}

#[test]
fn suppression_without_reason_is_rejected() {
    let err = Allowlist::parse("[[allow]]\nrule = \"L1\"\npath = \"x.rs\"\n").unwrap_err();
    assert!(err.msg.contains("reason"), "got: {err}");
    let err = Allowlist::parse("[[allow]]\nrule = \"L1\"\npath = \"x.rs\"\nreason = \"  \"\n")
        .unwrap_err();
    assert!(err.msg.contains("reason"), "got: {err}");
}

#[test]
fn global_suppressions_are_rejected() {
    let err = Allowlist::parse("[[allow]]\nrule = \"L5\"\nreason = \"everything\"\n").unwrap_err();
    assert!(err.msg.contains("path"), "got: {err}");
}

#[test]
fn unknown_rule_and_key_are_rejected() {
    assert!(Allowlist::parse("[[allow]]\nrule = \"L9\"\npath = \"x\"\nreason = \"r\"\n").is_err());
    assert!(Allowlist::parse("[[allow]]\nrule = \"L1\"\nfile = \"x\"\nreason = \"r\"\n").is_err());
}

#[test]
fn unused_suppressions_are_reported() {
    let toml = "[[allow]]\nrule = \"L2\"\npath = \"no/such/file.rs\"\nreason = \"stale\"\n";
    let allow = Allowlist::parse(toml).expect("parses");
    let (path, src) = fixture("l1_ok.rs");
    let _ = lint_file(&path, &src, &allow);
    assert_eq!(allow.unused().len(), 1);
}

#[test]
fn repo_lint_toml_parses_and_every_entry_has_a_reason() {
    let root = workspace_root();
    let text = std::fs::read_to_string(root.join("lint.toml")).expect("lint.toml exists");
    let allow = Allowlist::parse(&text).expect("lint.toml is valid");
    assert!(!allow.is_empty());
}

// ------------------------------------------------------------ meta

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn live_workspace_is_lint_clean() {
    let root = workspace_root();
    let text = std::fs::read_to_string(root.join("lint.toml")).expect("lint.toml exists");
    let allow = Allowlist::parse(&text).expect("lint.toml is valid");
    let report = lint_root(&root, &allow);
    assert!(report.files > 50, "walked the real tree ({})", report.files);
    let rendered: Vec<String> = report.findings.iter().map(|f| f.render()).collect();
    assert!(
        rendered.is_empty(),
        "workspace has lint findings:\n{}",
        rendered.join("\n")
    );
    // Every suppression must still be earning its keep — zero stale
    // entries, which `--strict` (on in CI) turns into a hard failure.
    assert!(
        report.stale.is_empty(),
        "stale lint.toml entries: {:?}",
        report.stale
    );
}

// ------------------------------------------------------------ binary

#[test]
fn binary_exits_nonzero_on_each_bad_fixture_and_zero_on_workspace() {
    let bin = env!("CARGO_BIN_EXE_spsim-lint");
    for name in [
        "l1_bad.rs",
        "l2_bad.rs",
        "l3_bad.rs",
        "l4_bad.rs",
        "l5_bad.rs",
        "l6_bad.rs",
        "a1_bad.rs",
        "a2_bad.rs",
        "a3_bad.rs",
        "a4_bad.rs",
        "a4_park_bad.rs",
    ] {
        let (path, _) = fixture(name);
        let out = Command::new(bin)
            .args(["--allow", "/nonexistent-empty-allowlist", &path])
            .output()
            .expect("binary runs");
        assert_eq!(
            out.status.code(),
            Some(1),
            "{name}: expected findings, got {}",
            String::from_utf8_lossy(&out.stdout)
        );
        assert!(!out.stdout.is_empty(), "{name}: findings printed");
    }
    for name in [
        "l1_ok.rs",
        "l2_ok.rs",
        "l3_ok.rs",
        "l4_ok.rs",
        "l5_ok.rs",
        "l6_ok.rs",
        "a1_ok.rs",
        "a2_ok.rs",
        "a3_ok.rs",
        "a4_ok.rs",
        "a4_park_ok.rs",
    ] {
        let (path, _) = fixture(name);
        let out = Command::new(bin)
            .args(["--allow", "/nonexistent-empty-allowlist", &path])
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(0), "{name} must be clean");
    }
    let out = Command::new(bin)
        .arg("--root")
        .arg(workspace_root())
        .output()
        .expect("binary runs");
    assert_eq!(
        out.status.code(),
        Some(0),
        "workspace run: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn binary_strict_makes_stale_suppressions_fatal() {
    let bin = env!("CARGO_BIN_EXE_spsim-lint");
    let dir = std::env::temp_dir().join("spsim-lint-test-stale-allow");
    std::fs::create_dir_all(&dir).unwrap();
    let stale = dir.join("stale.toml");
    std::fs::write(
        &stale,
        "[[allow]]\nrule = \"L2\"\npath = \"no/such/file.rs\"\nreason = \"stale\"\n",
    )
    .unwrap();
    let (path, _) = fixture("l1_ok.rs");
    // Without --strict the stale entry is only a warning (exit 0)…
    let out = Command::new(bin)
        .args(["--allow", &stale.to_string_lossy(), &path])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(0), "stale entry warns by default");
    // …with --strict it is a failure.
    let out = Command::new(bin)
        .args(["--strict", "--allow", &stale.to_string_lossy(), &path])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1), "--strict makes it fatal");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("unused suppression"),
        "names the stale entry"
    );
}

#[test]
fn binary_json_emits_findings_and_witness_chains() {
    let bin = env!("CARGO_BIN_EXE_spsim-lint");
    let (path, _) = fixture("a3_bad.rs");
    let out = Command::new(bin)
        .args(["--json", "--allow", "/nonexistent-empty-allowlist", &path])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(
        json.starts_with('{') && json.trim_end().ends_with('}'),
        "{json}"
    );
    for needle in [
        "\"tool\":\"spsim-lint\"",
        "\"rule\":\"A3\"",
        "\"witness\":[",
        "\"label\":\"engine::dispatcher_loop\"",
        "\"stale_suppressions\":[",
    ] {
        assert!(json.contains(needle), "missing {needle} in: {json}");
    }
    // The clean workspace run emits an empty findings array.
    let out = Command::new(bin)
        .args(["--json", "--strict", "--root"])
        .arg(workspace_root())
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(0));
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(
        json.contains("\"findings\":[]") && json.contains("\"strict\":true"),
        "{json}"
    );
}

#[test]
fn binary_exits_two_on_bad_allowlist() {
    let bin = env!("CARGO_BIN_EXE_spsim-lint");
    let dir = std::env::temp_dir().join("spsim-lint-test-bad-allow");
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad.toml");
    std::fs::write(&bad, "[[allow]]\nrule = \"L1\"\npath = \"x\"\n").unwrap();
    let (path, _) = fixture("l1_ok.rs");
    let out = Command::new(bin)
        .args(["--allow", &bad.to_string_lossy(), &path])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
}
