//! Token-level static lint for the workspace's concurrency invariants.
//!
//! A hand-rolled scanner (no `syn`: the build environment has no
//! crates.io) lexes each Rust source file into identifier/punctuation
//! tokens with line numbers, tracking comments, strings, `#[cfg(test)]`
//! regions and `fault-injection` cfg gates. Rules:
//!
//! - **R1 unsafe-safety** — every `unsafe` keyword (block, fn, impl, trait)
//!   carries a `// SAFETY:` comment on the same line or within the three
//!   lines above it.
//! - **R2 relaxed-allowlist** — `Relaxed` atomic ordering only appears in
//!   files on a checked allowlist (stale entries are themselves errors).
//! - **R3 thread-primitives** — `thread::spawn`/`Mutex`/`Condvar`/`RwLock`
//!   stay inside the pool and the engine (`crates/runtime/src/pool.rs` and
//!   `lib.rs`), the serve tier, the checker itself, the bench harness and
//!   the CLI; `#[cfg(test)]` regions and `tests/` code are exempt.
//! - **R4 no-wall-clock** — `Instant::now` is banned in deterministic
//!   extraction paths (`crates/core`, `crates/graph`, `crates/runtime`)
//!   outside the session's `extract_ns` stamp in
//!   `crates/core/src/session.rs` and the pool's overhead calibration.
//! - **R5 release-sensitive-asserts** — `debug_assert!` is banned in
//!   atomic-ordering-sensitive files (pool/publish/queue): an
//!   invariant worth asserting there must also hold under `--release`.
//! - **R6 fault-gating** — every reference to the fault-injection module
//!   outside its own file sits under `cfg(test)` or a cfg listing the
//!   `fault-injection` feature, so FAULT-verb code can never ship in a
//!   default release build.
//! - **R7 index-width** — the raw `as u32` narrowing cast is banned in
//!   `crates/graph/` outside the layout module
//!   (`crates/graph/src/layout.rs`): graph-index narrowing must go through
//!   `chordal_graph::layout::narrow_index`, which asserts the value fits
//!   a `u32`. (`as VertexId` on structurally bounded vertex
//!   loops is the sanctioned idiom and is not matched.)

use std::fmt;
use std::path::{Path, PathBuf};

// ---------------------------------------------------------------------------
// Policy tables
// ---------------------------------------------------------------------------

/// Files allowed to use `Ordering::Relaxed`. Checked: entries must exist
/// and actually use `Relaxed`, otherwise the lint fails with a
/// stale-allowlist diagnostic. Keep this list short and justified:
/// every file here owns a documented protocol whose Relaxed uses are
/// argued in `docs/concurrency.md` or at the use site.
const RELAXED_ALLOWLIST: &[&str] = &[
    "crates/core/src/parallel.rs",
    "crates/runtime/src/lib.rs",
    "crates/runtime/src/pool.rs",
    // Publish and wait: the relaxed abort flag carries no data, and the
    // model test stores its entries relaxed before the release publish
    // that orders them (module docs).
    "crates/runtime/src/publish.rs",
];

/// Path prefixes where `std::thread::spawn` / `Mutex` / `Condvar` /
/// `RwLock` are allowed outside test code.
const THREAD_ALLOWED_PREFIXES: &[&str] = &[
    // The pool spawns its workers; `Engine::for_each_mut` puts each
    // piece's sub-slice behind its own `Mutex`.
    "crates/runtime/src/pool.rs",
    "crates/runtime/src/lib.rs",
    "crates/serve/",
    "crates/checker/",
    "crates/bench/",
    "crates/cli/",
];

/// Deterministic extraction paths: wall-clock reads banned here (R4).
const INSTANT_CHECKED_PREFIXES: &[&str] = &["crates/core/", "crates/graph/", "crates/runtime/"];

/// Files under the checked prefixes that may read the wall clock.
const INSTANT_ALLOWLIST: &[&str] = &[
    // Stamps `ChordalResult::extract_ns`, which serve replies report; no
    // extraction or placement decision reads the clock.
    "crates/core/src/session.rs",
    // Per-width region-overhead calibration
    // (`estimated_region_overhead_ns_for`): measuring the wall clock IS the
    // job. Nothing in the pool reads the result (`JOIN_SPINS` is a
    // constant); the benchmark's `pool.region_overhead_ns` and the
    // experiments' `region_overhead_ns` report it, and it never reaches
    // extraction output.
    "crates/runtime/src/pool.rs",
];

/// Atomic-ordering-sensitive files where `debug_assert!` is banned (R5).
const DEBUG_ASSERT_SENSITIVE: &[&str] = &[
    "crates/runtime/src/pool.rs",
    "crates/runtime/src/publish.rs",
    "crates/serve/src/queue.rs",
];

/// The fault-injection module: references outside this file must be gated.
const FAULT_MODULE_FILE: &str = "crates/serve/src/fault.rs";

/// The one file in `crates/graph/` allowed to spell the raw `as u32`
/// narrowing cast (R7): the sealed index-width seam. Everything else in the
/// crate routes narrowing through `layout::narrow_index`.
const INDEX_WIDTH_MODULE_FILE: &str = "crates/graph/src/layout.rs";

/// Path prefix where R7 confines `as u32` to the layout module.
const INDEX_WIDTH_CHECKED_PREFIX: &str = "crates/graph/";

// ---------------------------------------------------------------------------
// Diagnostics
// ---------------------------------------------------------------------------

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    pub file: String,
    pub line: usize,
    pub rule: &'static str,
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

#[derive(Clone, Debug, PartialEq, Eq)]
enum Tok {
    Ident(String),
    Punct(char),
}

struct Lexed {
    /// (token, line, test_gated, fault_gated)
    toks: Vec<(Tok, usize, bool, bool)>,
    /// (line, comment text) for every `//` and `/* */` comment.
    comments: Vec<(usize, String)>,
}

fn lex(src: &str) -> Lexed {
    let b: Vec<char> = src.chars().collect();
    let mut toks: Vec<(Tok, usize)> = Vec::new();
    let mut comments = Vec::new();
    let mut i = 0usize;
    let mut line = 1usize;
    while i < b.len() {
        let c = b[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            '/' if i + 1 < b.len() && b[i + 1] == '/' => {
                let start = i + 2;
                while i < b.len() && b[i] != '\n' {
                    i += 1;
                }
                comments.push((line, b[start.min(i)..i].iter().collect()));
            }
            '/' if i + 1 < b.len() && b[i + 1] == '*' => {
                let cline = line;
                let start = i + 2;
                let mut depth = 1;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == '/' && i + 1 < b.len() && b[i + 1] == '*' {
                        depth += 1;
                        i += 2;
                    } else if b[i] == '*' && i + 1 < b.len() && b[i + 1] == '/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        if b[i] == '\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                }
                let end = i.saturating_sub(2).max(start);
                comments.push((cline, b[start..end].iter().collect()));
            }
            '"' => {
                // String literal (escapes honored).
                i += 1;
                while i < b.len() {
                    match b[i] {
                        '\\' => i += 2,
                        '"' => {
                            i += 1;
                            break;
                        }
                        '\n' => {
                            line += 1;
                            i += 1;
                        }
                        _ => i += 1,
                    }
                }
            }
            'r' | 'b' if starts_raw_string(&b, i) => {
                // Raw string r"..." / r#"..."# / br#"..."#.
                let mut j = i + 1;
                if b[j] == 'r' {
                    j += 1; // br prefix
                }
                let mut hashes = 0;
                while j < b.len() && b[j] == '#' {
                    hashes += 1;
                    j += 1;
                }
                debug_assert_eq!(b[j], '"');
                j += 1;
                'scan: while j < b.len() {
                    if b[j] == '\n' {
                        line += 1;
                    } else if b[j] == '"' {
                        let mut k = 0;
                        while k < hashes && j + 1 + k < b.len() && b[j + 1 + k] == '#' {
                            k += 1;
                        }
                        if k == hashes {
                            j += 1 + hashes;
                            break 'scan;
                        }
                    }
                    j += 1;
                }
                i = j;
            }
            '\'' => {
                // Lifetime or char literal.
                if i + 2 < b.len()
                    && (b[i + 1].is_alphabetic() || b[i + 1] == '_')
                    && b[i + 2] != '\''
                {
                    // Lifetime: consume the identifier.
                    i += 2;
                    while i < b.len() && (b[i].is_alphanumeric() || b[i] == '_') {
                        i += 1;
                    }
                } else {
                    // Char literal.
                    i += 1;
                    while i < b.len() {
                        match b[i] {
                            '\\' => i += 2,
                            '\'' => {
                                i += 1;
                                break;
                            }
                            _ => i += 1,
                        }
                    }
                }
            }
            c if c.is_alphabetic() || c == '_' => {
                let start = i;
                while i < b.len() && (b[i].is_alphanumeric() || b[i] == '_') {
                    i += 1;
                }
                toks.push((Tok::Ident(b[start..i].iter().collect()), line));
            }
            c if c.is_ascii_digit() => {
                // Numeric literal (incl. suffixes / underscores / hex).
                while i < b.len() && (b[i].is_alphanumeric() || b[i] == '_' || b[i] == '.') {
                    // Avoid eating `..` range operators.
                    if b[i] == '.' && i + 1 < b.len() && b[i + 1] == '.' {
                        break;
                    }
                    i += 1;
                }
            }
            _ => {
                toks.push((Tok::Punct(c), line));
                i += 1;
            }
        }
    }
    Lexed {
        toks: mark_gated_regions(toks),
        comments,
    }
}

/// True for raw strings only (`r"`, `r#"`, `br"`, `br#"`); plain `b"..."`
/// byte strings are handled by the identifier + `"` arms so escapes work.
fn starts_raw_string(b: &[char], i: usize) -> bool {
    let mut j = i + 1;
    if b[i] == 'b' {
        if j >= b.len() || b[j] != 'r' {
            return false;
        }
        j += 1;
    }
    while j < b.len() && b[j] == '#' {
        j += 1;
    }
    j < b.len() && b[j] == '"'
}

/// Mark each token with whether it sits inside a `#[cfg(test)]`-style
/// region and/or a `fault-injection`-gated region. An attribute gates the
/// next item: either up to the matching `}` of the item's body, or up to
/// the terminating `;` for brace-less items (`pub mod fault;`).
fn mark_gated_regions(toks: Vec<(Tok, usize)>) -> Vec<(Tok, usize, bool, bool)> {
    let mut out = Vec::with_capacity(toks.len());
    let mut depth = 0usize;
    // Gates active for bodies: (depth at which the gated `{` opened, test, fault)
    let mut stack: Vec<(usize, bool, bool)> = Vec::new();
    let mut pending: Option<(bool, bool)> = None;
    let mut i = 0usize;
    while i < toks.len() {
        // Attribute? `#` `[` ... `]` — collect its idents.
        #[allow(clippy::collapsible_if)]
        if toks[i].0 == Tok::Punct('#') {
            if i + 1 < toks.len() && toks[i + 1].0 == Tok::Punct('[') {
                let mut j = i + 2;
                let mut bracket = 1;
                let mut has_test = false;
                let mut has_fault = false;
                while j < toks.len() && bracket > 0 {
                    match &toks[j].0 {
                        Tok::Punct('[') => bracket += 1,
                        Tok::Punct(']') => bracket -= 1,
                        Tok::Ident(id) => {
                            if id == "test" {
                                has_test = true;
                            }
                            // `feature = "fault-injection"` — the string is
                            // stripped, so key off the feature ident plus
                            // the cfg context; `cfg(any(test, feature =
                            // ...))` in serve is the only feature gate we
                            // accept for fault code.
                            if id == "feature" {
                                has_fault = true;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
                // Emit the attribute tokens themselves (gated by context).
                let (ptest, pfault) = pending.unwrap_or((false, false));
                let (stest, sfault) = stack_gates(&stack);
                for t in &toks[i..j] {
                    out.push((t.0.clone(), t.1, stest || ptest, sfault || pfault));
                }
                pending = Some((ptest || has_test, pfault || has_fault || has_test));
                i = j;
                continue;
            }
        }
        let (stest, sfault) = stack_gates(&stack);
        let (ptest, pfault) = pending.unwrap_or((false, false));
        let tok = &toks[i];
        out.push((tok.0.clone(), tok.1, stest || ptest, sfault || pfault));
        match tok.0 {
            Tok::Punct('{') => {
                depth += 1;
                if let Some((t, f)) = pending.take() {
                    stack.push((depth, t || stest, f || sfault));
                }
            }
            Tok::Punct('}') => {
                while stack.last().is_some_and(|&(d, _, _)| d >= depth) {
                    stack.pop();
                }
                depth = depth.saturating_sub(1);
            }
            Tok::Punct(';') => {
                // Brace-less item ends: the pending gate covered it.
                pending = None;
            }
            _ => {}
        }
        i += 1;
    }
    out
}

fn stack_gates(stack: &[(usize, bool, bool)]) -> (bool, bool) {
    stack
        .iter()
        .fold((false, false), |(t, f), &(_, gt, gf)| (t || gt, f || gf))
}

// ---------------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------------

fn path_has_prefix(path: &str, prefixes: &[&str]) -> bool {
    prefixes.iter().any(|p| path.starts_with(p))
}

fn is_test_path(path: &str) -> bool {
    path.starts_with("tests/")
        || path.starts_with("examples/")
        || path.starts_with("benches/")
        || path.contains("/tests/")
        || path.contains("/benches/")
        || path.contains("/examples/")
}

/// Lint a single file's source. `path` is workspace-relative with `/`
/// separators. Returns diagnostics plus whether the file used `Relaxed`
/// (for allowlist staleness checking).
pub fn lint_source(path: &str, src: &str) -> (Vec<Diagnostic>, bool) {
    let lexed = lex(src);
    let mut diags = Vec::new();
    let mut used_relaxed = false;
    let toks = &lexed.toks;
    let in_tests_dir = is_test_path(path);

    let ident = |i: usize| -> Option<&str> {
        match toks.get(i) {
            Some((Tok::Ident(s), _, _, _)) => Some(s.as_str()),
            _ => None,
        }
    };
    let is_path_sep = |i: usize| -> bool {
        matches!(toks.get(i), Some((Tok::Punct(':'), _, _, _)))
            && matches!(toks.get(i + 1), Some((Tok::Punct(':'), _, _, _)))
    };
    // The next identifier after position `i`, skipping whitespace tokens
    // (the lexer emits them as `Punct`); stops at any other token.
    let next_ident = |mut i: usize| -> Option<&str> {
        while let Some((Tok::Punct(c), _, _, _)) = toks.get(i) {
            if !c.is_whitespace() {
                return None;
            }
            i += 1;
        }
        ident(i)
    };

    for i in 0..toks.len() {
        let (tok, tline, test_gated, fault_gated) = &toks[i];
        let (line, test_gated, fault_gated) = (*tline, *test_gated, *fault_gated);
        let Tok::Ident(id) = tok else { continue };
        // One arm per rule; guards stay inside the arms for readability.
        #[allow(clippy::collapsible_match, clippy::collapsible_if)]
        match id.as_str() {
            // R1: unsafe needs a SAFETY comment nearby.
            "unsafe" => {
                let has_safety = lexed.comments.iter().any(|(cl, text)| {
                    (*cl + 3 >= line && *cl <= line) && text.trim_start().starts_with("SAFETY:")
                });
                if !has_safety {
                    diags.push(Diagnostic {
                        file: path.to_string(),
                        line,
                        rule: "unsafe-safety",
                        message: "`unsafe` without a `// SAFETY:` comment on the same line or \
                                  the three lines above"
                            .to_string(),
                    });
                }
            }
            // R2: Relaxed ordering allowlist.
            "Relaxed" => {
                used_relaxed = true;
                if !RELAXED_ALLOWLIST.contains(&path) && !in_tests_dir {
                    diags.push(Diagnostic {
                        file: path.to_string(),
                        line,
                        rule: "relaxed-allowlist",
                        message: "`Ordering::Relaxed` outside the checked allowlist \
                                  (crates/checker/src/lint.rs RELAXED_ALLOWLIST); use a \
                                  stronger ordering or justify and allowlist this file"
                            .to_string(),
                    });
                }
            }
            // R3: threading primitives confined to pool/serve layers.
            "Mutex" | "Condvar" | "RwLock" => {
                if !test_gated && !in_tests_dir && !path_has_prefix(path, THREAD_ALLOWED_PREFIXES) {
                    diags.push(Diagnostic {
                        file: path.to_string(),
                        line,
                        rule: "thread-primitives",
                        message: format!(
                            "`{id}` outside the pool, the engine, serve, checker, bench and cli; \
                             route concurrency through the pool"
                        ),
                    });
                }
            }
            "thread" => {
                // `thread::spawn` / `thread :: spawn`.
                if is_path_sep(i + 1) && ident(i + 3) == Some("spawn") {
                    let spawn_test_gated = toks[i + 3].2;
                    if !test_gated
                        && !spawn_test_gated
                        && !in_tests_dir
                        && !path_has_prefix(path, THREAD_ALLOWED_PREFIXES)
                    {
                        diags.push(Diagnostic {
                            file: path.to_string(),
                            line,
                            rule: "thread-primitives",
                            message: "`thread::spawn` outside the pool and serve; use the \
                                      persistent pool instead"
                                .to_string(),
                        });
                    }
                }
            }
            // R4: wall-clock reads banned in deterministic extraction paths.
            "Instant" => {
                if is_path_sep(i + 1)
                    && ident(i + 3) == Some("now")
                    && path_has_prefix(path, INSTANT_CHECKED_PREFIXES)
                    && !INSTANT_ALLOWLIST.contains(&path)
                    && !test_gated
                    && !in_tests_dir
                {
                    diags.push(Diagnostic {
                        file: path.to_string(),
                        line,
                        rule: "no-wall-clock",
                        message: "`Instant::now` in a deterministic extraction path; timing \
                                  belongs in the session's extract_ns stamp \
                                  (crates/core/src/session.rs) or bench code"
                            .to_string(),
                    });
                }
            }
            // R5: debug_assert in ordering-sensitive files.
            "debug_assert" | "debug_assert_eq" | "debug_assert_ne" => {
                if DEBUG_ASSERT_SENSITIVE.contains(&path) && !test_gated {
                    diags.push(Diagnostic {
                        file: path.to_string(),
                        line,
                        rule: "release-sensitive-assert",
                        message: format!(
                            "`{id}!` in an atomic-ordering-sensitive file: the checked \
                             invariant silently vanishes under --release; use `assert!` or \
                             restructure"
                        ),
                    });
                }
            }
            // R6: fault-injection references must be cfg-gated.
            "fault" => {
                if is_path_sep(i + 1)
                    && path != FAULT_MODULE_FILE
                    && path.starts_with("crates/serve/")
                    && !fault_gated
                    && !test_gated
                    && !in_tests_dir
                {
                    diags.push(Diagnostic {
                        file: path.to_string(),
                        line,
                        rule: "fault-gating",
                        message: "reference to the fault-injection module outside \
                                  `cfg(any(test, feature = \"fault-injection\"))`; FAULT-verb \
                                  code must not ship in default release builds"
                            .to_string(),
                    });
                }
            }
            // R7: `as u32` narrowing confined to the layout module.
            "as" => {
                if next_ident(i + 1) == Some("u32")
                    && path.starts_with(INDEX_WIDTH_CHECKED_PREFIX)
                    && path != INDEX_WIDTH_MODULE_FILE
                    && !test_gated
                    && !in_tests_dir
                {
                    diags.push(Diagnostic {
                        file: path.to_string(),
                        line,
                        rule: "index-width",
                        message: "raw `as u32` narrowing outside the index-width seam \
                                  (crates/graph/src/layout.rs); route graph-index narrowing \
                                  through `layout::narrow_index` (or `as VertexId` for \
                                  structurally bounded vertex loops)"
                            .to_string(),
                    });
                }
            }
            _ => {}
        }
    }
    (diags, used_relaxed)
}

// ---------------------------------------------------------------------------
// Workspace walk
// ---------------------------------------------------------------------------

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lint every `.rs` file under `root` (the workspace checkout). Also
/// validates the Relaxed allowlist for staleness.
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Diagnostic>> {
    let mut files = Vec::new();
    collect_rs_files(root, &mut files)?;
    files.sort();
    let mut diags = Vec::new();
    let mut relaxed_seen: Vec<&'static str> = Vec::new();
    for file in &files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(file)
            .to_string_lossy()
            .replace('\\', "/");
        let src = std::fs::read_to_string(file)?;
        let (mut d, used_relaxed) = lint_source(&rel, &src);
        diags.append(&mut d);
        if used_relaxed {
            if let Some(entry) = RELAXED_ALLOWLIST.iter().find(|&&e| e == rel) {
                relaxed_seen.push(entry);
            }
        }
    }
    for entry in RELAXED_ALLOWLIST {
        if !root.join(entry).exists() {
            diags.push(Diagnostic {
                file: (*entry).to_string(),
                line: 0,
                rule: "relaxed-allowlist",
                message: "stale allowlist entry: file does not exist".to_string(),
            });
        } else if !relaxed_seen.contains(entry) {
            diags.push(Diagnostic {
                file: (*entry).to_string(),
                line: 0,
                rule: "relaxed-allowlist",
                message: "stale allowlist entry: file no longer uses `Ordering::Relaxed`; \
                          remove it from RELAXED_ALLOWLIST"
                    .to_string(),
            });
        }
    }
    Ok(diags)
}
