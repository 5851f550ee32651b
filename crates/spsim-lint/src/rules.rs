//! The rule catalogue. Each rule is a token-level pass over one lexed file;
//! see DESIGN §10 for the rationale behind every rule and the procedure for
//! adding one.

use crate::lexer::{lex, strip_test_items, Lexed, Tok, Token};

/// The ten enforced invariants: six per-file token rules (L1–L6) and four
/// interprocedural, call-graph rules (A1–A4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Virtual-time purity: no wall-clock primitives in simulated code.
    L1,
    /// Determinism: no `HashMap`/`HashSet` on ordering-sensitive paths.
    L2,
    /// Atomics hygiene: `Relaxed`/`SeqCst` need an `// ordering:` comment.
    L3,
    /// Lock guard held across a blocking wait/recv/pump/send call.
    L4,
    /// Panic discipline: hot paths must use the diagnostic helpers.
    L5,
    /// Liveness: wait loops need a `// liveness:` comment naming the
    /// wakeup source.
    L6,
    /// Transitive virtual-time taint: a simulated function *indirectly*
    /// reaching a wall-clock primitive through its callees.
    A1,
    /// Lock-order inversion: a cycle in the acquired-while-held graph
    /// built across function boundaries.
    A2,
    /// Blocking reachability: a function reachable from an engine entry
    /// point that can park or wait must carry or inherit `// liveness:`.
    A3,
    /// Raw OS-thread primitives (`thread::spawn`, `JoinHandle`) outside
    /// `spsim::runtime` — the M:N-scheduling precondition.
    A4,
}

impl Rule {
    /// Stable short code, as used in `lint.toml`.
    pub fn code(self) -> &'static str {
        match self {
            Rule::L1 => "L1",
            Rule::L2 => "L2",
            Rule::L3 => "L3",
            Rule::L4 => "L4",
            Rule::L5 => "L5",
            Rule::L6 => "L6",
            Rule::A1 => "A1",
            Rule::A2 => "A2",
            Rule::A3 => "A3",
            Rule::A4 => "A4",
        }
    }

    /// Parse a short code.
    pub fn from_code(s: &str) -> Option<Rule> {
        Some(match s {
            "L1" => Rule::L1,
            "L2" => Rule::L2,
            "L3" => Rule::L3,
            "L4" => Rule::L4,
            "L5" => Rule::L5,
            "L6" => Rule::L6,
            "A1" => Rule::A1,
            "A2" => Rule::A2,
            "A3" => Rule::A3,
            "A4" => Rule::A4,
            _ => return None,
        })
    }
}

/// One hop of a witness chain: a function (or call/primitive site) an
/// interprocedural finding routes through.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hop {
    /// Short label, `stem::fn` (e.g. `engine::poll_step`).
    pub label: String,
    /// Repo-relative path of the hop.
    pub path: String,
    /// 1-based line of the hop.
    pub line: u32,
}

/// One violation, addressed by repo-relative path and 1-based line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Which rule fired.
    pub rule: Rule,
    /// Repo-relative path with forward slashes.
    pub path: String,
    /// 1-based line of the offending token.
    pub line: u32,
    /// Human-readable description.
    pub msg: String,
    /// Witness chain for interprocedural (A-rule) findings: the call path
    /// from the entry/flagged function down to the offending primitive.
    /// Empty for the per-file L-rules.
    pub witness: Vec<Hop>,
}

impl Finding {
    /// `path:line: [Lx] msg` — the stable output format. A-rule findings
    /// append their witness chain, one arrow line plus one `file:line` line
    /// per hop.
    pub fn render(&self) -> String {
        let mut s = format!(
            "{}:{}: [{}] {}",
            self.path,
            self.line,
            self.rule.code(),
            self.msg
        );
        if !self.witness.is_empty() {
            let arrows: Vec<&str> = self.witness.iter().map(|h| h.label.as_str()).collect();
            s.push_str(&format!("\n    witness: {}", arrows.join(" → ")));
            for h in &self.witness {
                s.push_str(&format!("\n      {} at {}:{}", h.label, h.path, h.line));
            }
        }
        s
    }
}

/// Which rules apply to a file, derived from its repo-relative path.
#[derive(Debug, Clone, Copy, Default)]
pub struct FileClass {
    /// L1: the file is simulated code (virtual time only).
    pub virtual_time: bool,
    /// L2: iteration order in this file shapes traces or wire traffic.
    pub ordering_sensitive: bool,
    /// L3/L4: simulator code subject to atomics and lock hygiene.
    pub simulator: bool,
    /// L5: engine hot path under the diagnostic-panic discipline.
    pub hot_path: bool,
}

/// Crates whose `src/` is simulated code: wall-clock use is forbidden
/// outside `lint.toml`-allowlisted real-time bridges (L1).
const VIRTUAL_TIME_CRATES: &[&str] = &[
    "crates/sim/src/",
    "crates/switch/src/",
    "crates/lapi/src/",
    "crates/mpl/src/",
    "crates/ga/src/",
];

/// Files where map iteration order feeds traces, wire traffic, or decoded
/// programs (L2). Everything an engine or the conformance runner touches.
const ORDERING_SENSITIVE: &[&str] = &[
    "crates/mpl/src/engine.rs",
    "crates/lapi/src/engine.rs",
    "crates/switch/src/",
    "crates/sim/src/trace.rs",
    "crates/sim/src/runtime.rs",
    "crates/sim/src/queue.rs",
    "crates/sim/src/spsc.rs",
    "crates/ga/src/array.rs",
    "crates/ga/src/backend_lapi.rs",
    "crates/check/src/",
];

/// Engine hot paths under the panic discipline (L5).
const HOT_PATHS: &[&str] = &[
    "crates/lapi/src/engine.rs",
    "crates/mpl/src/engine.rs",
    "crates/switch/src/adapter.rs",
    "crates/switch/src/progress.rs",
    "crates/sim/src/queue.rs",
    "crates/sim/src/spsc.rs",
];

/// Classify a repo-relative path; `None` means the file is out of scope
/// entirely (tests, benches, fixtures, the lint tool itself, stubs).
pub fn classify(path: &str) -> Option<FileClass> {
    if !path.ends_with(".rs") || excluded(path) {
        return None;
    }
    let mut c = FileClass {
        simulator: true,
        ..FileClass::default()
    };
    c.virtual_time = VIRTUAL_TIME_CRATES.iter().any(|p| path.starts_with(p));
    c.ordering_sensitive = ORDERING_SENSITIVE.iter().any(|p| path.starts_with(p));
    c.hot_path = HOT_PATHS.iter().any(|p| path.starts_with(p));
    Some(c)
}

/// True for paths outside lint scope: tests, benches, examples, fixtures,
/// the lint crate itself, stubs, and build output. A workspace walk must
/// skip these *before* linting, or a fixture's `// lint-as:` header would
/// pull it back into scope.
pub fn excluded(path: &str) -> bool {
    path.contains("/tests/")
        || path.contains("/benches/")
        || path.contains("/examples/")
        || path.contains("/fixtures/")
        || path.starts_with("crates/spsim-lint/")
        || path.starts_with("stubs/")
        || path.starts_with("target/")
}

/// Lint one file's source under a class. `path` is used only for reporting.
pub fn lint_source(path: &str, src: &str, class: FileClass) -> Vec<Finding> {
    let lexed = lex(src);
    let tokens = strip_test_items(&lexed.tokens);
    let mut out = Vec::new();
    if class.virtual_time {
        rule_l1(path, &tokens, &mut out);
    }
    if class.ordering_sensitive {
        rule_l2(path, &tokens, &mut out);
    }
    if class.simulator {
        rule_l3(path, &tokens, &lexed, &mut out);
        rule_l4(path, &tokens, &mut out);
    }
    if class.hot_path {
        rule_l5(path, &tokens, &mut out);
        rule_l6(path, &tokens, &lexed, &mut out);
    }
    out.sort_by_key(|a| (a.line, a.rule));
    out.dedup();
    out
}

fn ident(t: Option<&Token>) -> Option<&str> {
    match t.map(|t| &t.tok) {
        Some(Tok::Ident(s)) => Some(s.as_str()),
        _ => None,
    }
}

fn is_punct(t: Option<&Token>, c: char) -> bool {
    matches!(t.map(|t| &t.tok), Some(Tok::Punct(p)) if *p == c)
}

// --------------------------------------------------------------------- L1

/// Wall-clock primitives in simulated code. `Duration` is fine (used for
/// real-time escapes' spans); the *clock reads* are what break purity.
fn rule_l1(path: &str, toks: &[Token], out: &mut Vec<Finding>) {
    for (i, t) in toks.iter().enumerate() {
        let name = match &t.tok {
            Tok::Ident(s) => s.as_str(),
            _ => continue,
        };
        let flagged = match name {
            "Instant" | "SystemTime" => Some(format!(
                "`{name}` is wall-clock state in simulated code — use VTime/VClock, \
                 or allowlist this real-time bridge in lint.toml"
            )),
            "sleep"
                if i >= 2
                    && ident(toks.get(i - 1)).is_none()
                    && is_punct(toks.get(i - 1), ':')
                    && is_punct(toks.get(i - 2), ':')
                    && ident(toks.get(i.wrapping_sub(3))) == Some("thread") =>
            {
                Some(
                    "`thread::sleep` blocks real time inside the simulation — \
                     use virtual-time waits"
                        .to_string(),
                )
            }
            _ => None,
        };
        if let Some(msg) = flagged {
            out.push(Finding {
                rule: Rule::L1,
                path: path.to_string(),
                line: t.line,
                msg,
                witness: Vec::new(),
            });
        }
    }
}

// --------------------------------------------------------------------- L2

fn rule_l2(path: &str, toks: &[Token], out: &mut Vec<Finding>) {
    for t in toks {
        if let Tok::Ident(s) = &t.tok {
            if s == "HashMap" || s == "HashSet" {
                out.push(Finding {
                    rule: Rule::L2,
                    path: path.to_string(),
                    line: t.line,
                    msg: format!(
                        "`{s}` iteration order is randomized per process and can break \
                         same-seed trace identity — use BTree{} here",
                        &s[4..]
                    ),
                    witness: Vec::new(),
                });
            }
        }
    }
}

// --------------------------------------------------------------------- L3

/// A `Relaxed`/`SeqCst` site is justified by an `// ordering:` comment on
/// the same line, on one of the 3 lines above, or by chaining: the line
/// directly above contains an already-justified site (so one comment covers
/// a contiguous run of stores).
fn rule_l3(path: &str, toks: &[Token], lexed: &Lexed, out: &mut Vec<Finding>) {
    let comment_lines = lexed.comment_lines_containing("ordering:");
    let mut justified: Vec<u32> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if ident(Some(t)) != Some("Ordering") {
            continue;
        }
        if !(is_punct(toks.get(i + 1), ':') && is_punct(toks.get(i + 2), ':')) {
            continue;
        }
        let which = match ident(toks.get(i + 3)) {
            Some(w @ ("Relaxed" | "SeqCst")) => w,
            _ => continue,
        };
        let line = t.line;
        let by_comment = comment_lines.iter().any(|&c| c <= line && line - c <= 3);
        let by_chain = justified.iter().any(|&j| j == line || j + 1 == line);
        if by_comment || by_chain {
            justified.push(line);
        } else {
            out.push(Finding {
                rule: Rule::L3,
                path: path.to_string(),
                line,
                msg: format!(
                    "`Ordering::{which}` without an adjacent `// ordering:` justification \
                     comment (same line, up to 3 lines above, or continuing a justified run)"
                ),
                witness: Vec::new(),
            });
        }
    }
}

// --------------------------------------------------------------------- L4

/// Blocking calls that must not run under a held lock guard.
const BLOCKING_CALLS: &[&str] = &[
    "wait",
    "wait_for",
    "wait_until",
    "wait_while",
    "recv",
    "recv_merge",
    "recv_timeout",
    "pump",
    "send_at",
    "send_now",
];

/// Guard-producing calls.
const GUARD_CALLS: &[&str] = &["lock", "read", "write"];

#[derive(Debug)]
struct Guard {
    name: String,
    depth: usize,
    line: u32,
}

/// Track `let g = ….lock();`-style bindings per brace depth; flag a
/// blocking call while any guard is live in an enclosing scope, unless the
/// call's arguments mention the guard (condvar waits take the guard by
/// `&mut`, which is the sanctioned pattern) or the guard was `drop`ped.
fn rule_l4(path: &str, toks: &[Token], out: &mut Vec<Finding>) {
    let mut depth = 0usize;
    let mut guards: Vec<Guard> = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        match &toks[i].tok {
            Tok::Punct('{') => depth += 1,
            Tok::Punct('}') => {
                depth = depth.saturating_sub(1);
                guards.retain(|g| g.depth <= depth);
            }
            Tok::Ident(w) if w == "let" => {
                if let Some((name, end)) = guard_binding(toks, i) {
                    guards.push(Guard {
                        name,
                        depth,
                        line: toks[i].line,
                    });
                    i = end;
                    continue;
                }
            }
            Tok::Ident(w) if w == "drop" && is_punct(toks.get(i + 1), '(') => {
                if let Some(name) = ident(toks.get(i + 2)) {
                    guards.retain(|g| g.name != name);
                }
            }
            Tok::Ident(w)
                if BLOCKING_CALLS.contains(&w.as_str()) && is_punct(toks.get(i + 1), '(') =>
            {
                // Only flag method/function *calls*; `.recv()` and
                // `recv(…)` both match, a field named `wait` does not.
                let close = match_paren(toks, i + 1);
                let args: Vec<&str> = toks[i + 2..close]
                    .iter()
                    .filter_map(|t| match &t.tok {
                        Tok::Ident(s) => Some(s.as_str()),
                        _ => None,
                    })
                    .collect();
                for g in &guards {
                    if !args.contains(&g.name.as_str()) {
                        out.push(Finding {
                            rule: Rule::L4,
                            path: path.to_string(),
                            line: toks[i].line,
                            msg: format!(
                                "blocking call `{w}` while lock guard `{}` (taken on line {}) \
                                 is held — deadlock-prone; drop the guard first or pass it \
                                 to the wait",
                                g.name, g.line
                            ),
                            witness: Vec::new(),
                        });
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
}

/// If the statement starting at `let` (index `i`) binds a plain identifier
/// to an expression ending in `.lock()`/`.read()`/`.write()`, return the
/// bound name and the index of the terminating `;`.
fn guard_binding(toks: &[Token], i: usize) -> Option<(String, usize)> {
    let mut j = i + 1;
    if ident(toks.get(j)) == Some("mut") {
        j += 1;
    }
    let name = ident(toks.get(j))?.to_string();
    if !is_punct(toks.get(j + 1), '=') {
        return None;
    }
    // Scan to the statement-terminating `;` at bracket depth 0.
    let mut k = j + 2;
    let mut d = 0i32;
    while k < toks.len() {
        match toks[k].tok {
            Tok::Punct('(') | Tok::Punct('[') | Tok::Punct('{') => d += 1,
            Tok::Punct(')') | Tok::Punct(']') | Tok::Punct('}') => d -= 1,
            Tok::Punct(';') if d == 0 => break,
            _ => {}
        }
        k += 1;
    }
    // Expression must end `… . lock ( )` (or read/write).
    if k >= 4
        && is_punct(toks.get(k - 1), ')')
        && is_punct(toks.get(k - 2), '(')
        && ident(toks.get(k - 3)).is_some_and(|m| GUARD_CALLS.contains(&m))
        && is_punct(toks.get(k - 4), '.')
    {
        Some((name, k))
    } else {
        None
    }
}

fn match_brace(toks: &[Token], open: usize) -> usize {
    let mut d = 0usize;
    let mut i = open;
    while i < toks.len() {
        match toks[i].tok {
            Tok::Punct('{') => d += 1,
            Tok::Punct('}') => {
                d -= 1;
                if d == 0 {
                    return i;
                }
            }
            _ => {}
        }
        i += 1;
    }
    toks.len().saturating_sub(1)
}

fn match_paren(toks: &[Token], open: usize) -> usize {
    let mut d = 0usize;
    let mut i = open;
    while i < toks.len() {
        match toks[i].tok {
            Tok::Punct('(') => d += 1,
            Tok::Punct(')') => {
                d -= 1;
                if d == 0 {
                    return i;
                }
            }
            _ => {}
        }
        i += 1;
    }
    toks.len().saturating_sub(1)
}

// --------------------------------------------------------------------- L5

/// Bare `panic!` / `.unwrap()` / `.expect(…)` on hot paths. A `panic!`
/// whose arguments route through `deadlock_report` or `tail_report` is the
/// sanctioned diagnostic form; `sim_panic!` and `or_diag` are distinct
/// identifiers and never match.
fn rule_l5(path: &str, toks: &[Token], out: &mut Vec<Finding>) {
    let mut i = 0usize;
    while i < toks.len() {
        match ident(toks.get(i)) {
            Some("panic") if is_punct(toks.get(i + 1), '!') && is_punct(toks.get(i + 2), '(') => {
                let close = match_paren(toks, i + 2);
                let diagnostic = toks[i + 3..close].iter().any(|t| {
                    matches!(&t.tok, Tok::Ident(s)
                        if s == "deadlock_report" || s == "tail_report")
                });
                if !diagnostic {
                    out.push(Finding {
                        rule: Rule::L5,
                        path: path.to_string(),
                        line: toks[i].line,
                        msg: "bare `panic!` on an engine hot path — use `spsim::sim_panic!` \
                              or embed `deadlock_report`/`tail_report` in the message"
                            .to_string(),
                        witness: Vec::new(),
                    });
                }
                i = close + 1;
                continue;
            }
            Some(m @ ("unwrap" | "expect"))
                if i >= 1 && is_punct(toks.get(i - 1), '.') && is_punct(toks.get(i + 1), '(') =>
            {
                out.push(Finding {
                    rule: Rule::L5,
                    path: path.to_string(),
                    line: toks[i].line,
                    msg: format!(
                        "`.{m}()` on an engine hot path dies without simulator context — \
                         use `spsim::OrDiag::or_diag` so the trace tail is attached"
                    ),
                    witness: Vec::new(),
                });
            }
            _ => {}
        }
        i += 1;
    }
}

// --------------------------------------------------------------------- L6

/// Calls that make a loop a *wait* loop: each iteration blocks, parks,
/// yields, or pumps the simulator waiting for another thread (or the
/// fabric) to change state. A loop that only transforms local data never
/// matches and needs no annotation.
const WAIT_PROBES: &[&str] = &[
    "wait",
    "wait_for",
    "wait_until",
    "wait_while",
    "recv",
    "recv_merge",
    "recv_timeout",
    "poll_step",
    "park",
    "park_timeout",
    "yield_now",
];

/// Unbounded virtual-time wait loops need a `// liveness:` justification
/// naming their wakeup source. A `loop`/`while` (including `while let`)
/// whose condition or body contains a wait-probe call (see
/// [`WAIT_PROBES`]) is a wait loop: its termination depends on some other
/// thread making progress — exactly the kind of cross-thread contract a
/// reader cannot reconstruct from the loop itself, and the code the
/// node-failure domain must audit (every such loop needs a wakeup *or* a
/// poison path when the peer it waits on dies). The justification is a
/// comment block directly above the loop (or on the loop's own line)
/// containing `liveness:` — contiguity, not a fixed distance, so
/// multi-line explanations stay legal.
fn rule_l6(path: &str, toks: &[Token], lexed: &Lexed, out: &mut Vec<Finding>) {
    let comment_lines = lexed.comment_lines_containing("");
    let liveness = lexed.comment_lines_containing("liveness:");
    let justified = |line: u32| {
        liveness
            .iter()
            .any(|&c| c == line || (c < line && (c + 1..line).all(|l| comment_lines.contains(&l))))
    };
    for (i, t) in toks.iter().enumerate() {
        let kw = match ident(Some(t)) {
            Some(k @ ("loop" | "while")) => k,
            _ => continue,
        };
        // Find the body's opening brace. For `loop` it is the next token;
        // for `while` it is the first `{` after the condition (Rust bans
        // brace-bearing expressions in loop conditions without parens, so
        // the first `{` opens the body).
        let Some(open) = (i + 1..toks.len()).find(|&j| is_punct(toks.get(j), '{')) else {
            continue;
        };
        if kw == "loop" && open != i + 1 {
            continue; // `loop` introduces a loop only as `loop {`
        }
        let close = match_brace(toks, open);
        let is_wait_loop = (i + 1..close).any(|j| {
            ident(toks.get(j)).is_some_and(|w| WAIT_PROBES.contains(&w))
                && is_punct(toks.get(j + 1), '(')
        });
        if is_wait_loop && !justified(t.line) {
            out.push(Finding {
                rule: Rule::L6,
                path: path.to_string(),
                line: t.line,
                msg: format!(
                    "`{kw}` waits on another thread without a `// liveness:` comment — \
                     name the wakeup source (who fills the slot / notifies the cv / \
                     closes the queue) in a comment block directly above the loop"
                ),
                witness: Vec::new(),
            });
        }
    }
}
