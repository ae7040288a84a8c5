//! Fixture tests for chordal-lint: each rule must fire on a minimal
//! violating source (with a file:line diagnostic) and stay silent on the
//! compliant version. The final test runs the lint over the real
//! workspace and requires it to be clean.

use chordal_checker::lint::{lint_source, lint_workspace, Diagnostic};

fn rules(diags: &[Diagnostic]) -> Vec<&'static str> {
    diags.iter().map(|d| d.rule).collect()
}

// --- R1: unsafe-safety ------------------------------------------------------

#[test]
fn unsafe_without_safety_comment_fires() {
    let src = "fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n";
    let (diags, _) = lint_source("crates/graph/src/x.rs", src);
    assert_eq!(rules(&diags), vec!["unsafe-safety"]);
    assert_eq!(diags[0].line, 2);
    assert!(diags[0].message.contains("SAFETY"));
}

#[test]
fn unsafe_with_safety_comment_passes() {
    let src = "fn f(p: *const u8) -> u8 {\n    // SAFETY: caller guarantees p is valid.\n    unsafe { *p }\n}\n";
    let (diags, _) = lint_source("crates/graph/src/x.rs", src);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn unsafe_in_string_or_comment_is_ignored() {
    let src = "fn f() {\n    let _ = \"unsafe { }\";\n    // unsafe in a comment\n}\n";
    let (diags, _) = lint_source("crates/graph/src/x.rs", src);
    assert!(diags.is_empty(), "{diags:?}");
}

// --- R2: relaxed-allowlist --------------------------------------------------

#[test]
fn relaxed_outside_allowlist_fires() {
    let src = "fn f(x: &std::sync::atomic::AtomicUsize) -> usize {\n    x.load(std::sync::atomic::Ordering::Relaxed)\n}\n";
    let (diags, used) = lint_source("crates/graph/src/x.rs", src);
    assert!(used);
    assert_eq!(rules(&diags), vec!["relaxed-allowlist"]);
    assert_eq!(diags[0].line, 2);
}

#[test]
fn relaxed_in_allowlisted_file_passes() {
    let src = "fn f(x: &std::sync::atomic::AtomicUsize) -> usize {\n    x.load(std::sync::atomic::Ordering::Relaxed)\n}\n";
    let (diags, used) = lint_source("crates/runtime/src/pool.rs", src);
    assert!(used);
    assert!(diags.is_empty(), "{diags:?}");
}

// --- R3: thread-primitives --------------------------------------------------

#[test]
fn mutex_outside_allowed_layers_fires() {
    let src = "use std::sync::Mutex;\nstatic M: Mutex<u32> = Mutex::new(0);\n";
    let (diags, _) = lint_source("crates/core/src/x.rs", src);
    assert_eq!(
        rules(&diags),
        vec![
            "thread-primitives",
            "thread-primitives",
            "thread-primitives"
        ]
    );
}

#[test]
fn thread_spawn_outside_allowed_layers_fires() {
    let src = "fn f() {\n    std::thread::spawn(|| {});\n}\n";
    let (diags, _) = lint_source("crates/core/src/x.rs", src);
    assert_eq!(rules(&diags), vec!["thread-primitives"]);
    assert_eq!(diags[0].line, 2);
}

#[test]
fn mutex_in_serve_passes() {
    let src = "use std::sync::Mutex;\nstatic M: Mutex<u32> = Mutex::new(0);\n";
    let (diags, _) = lint_source("crates/serve/src/x.rs", src);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn mutex_in_test_module_passes() {
    let src = "#[cfg(test)]\nmod tests {\n    use std::sync::Mutex;\n    #[test]\n    fn t() { let _ = Mutex::new(0); }\n}\n";
    let (diags, _) = lint_source("crates/core/src/x.rs", src);
    assert!(diags.is_empty(), "{diags:?}");
}

// --- R4: no-wall-clock ------------------------------------------------------

#[test]
fn instant_now_in_extraction_path_fires() {
    let src = "fn f() -> std::time::Instant {\n    std::time::Instant::now()\n}\n";
    let (diags, _) = lint_source("crates/runtime/src/x.rs", src);
    assert_eq!(rules(&diags), vec!["no-wall-clock"]);
    assert_eq!(diags[0].line, 2);
}

#[test]
fn instant_now_in_session_passes() {
    let src = "fn f() -> std::time::Instant {\n    std::time::Instant::now()\n}\n";
    let (diags, _) = lint_source("crates/core/src/session.rs", src);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn instant_now_outside_checked_paths_passes() {
    let src = "fn f() -> std::time::Instant {\n    std::time::Instant::now()\n}\n";
    let (diags, _) = lint_source("crates/serve/src/x.rs", src);
    assert!(diags.is_empty(), "{diags:?}");
}

// --- R5: release-sensitive-assert -------------------------------------------

#[test]
fn debug_assert_in_sensitive_file_fires() {
    let src = "fn f(n: usize) {\n    debug_assert!(n > 0, \"positive\");\n}\n";
    let (diags, _) = lint_source("crates/serve/src/queue.rs", src);
    assert_eq!(rules(&diags), vec!["release-sensitive-assert"]);
    assert_eq!(diags[0].line, 2);
}

#[test]
fn debug_assert_elsewhere_passes() {
    let src = "fn f(n: usize) {\n    debug_assert!(n > 0);\n}\n";
    let (diags, _) = lint_source("crates/graph/src/x.rs", src);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn plain_assert_in_sensitive_file_passes() {
    let src = "fn f(n: usize) {\n    assert!(n > 0, \"positive\");\n}\n";
    let (diags, _) = lint_source("crates/serve/src/queue.rs", src);
    assert!(diags.is_empty(), "{diags:?}");
}

// --- R6: fault-gating -------------------------------------------------------

#[test]
fn ungated_fault_reference_fires() {
    let src = "fn handle() {\n    crate::fault::inject(1);\n}\n";
    let (diags, _) = lint_source("crates/serve/src/server.rs", src);
    assert_eq!(rules(&diags), vec!["fault-gating"]);
    assert_eq!(diags[0].line, 2);
}

#[test]
fn cfg_gated_fault_reference_passes() {
    let src = "#[cfg(any(test, feature = \"fault-injection\"))]\nfn handle() {\n    crate::fault::inject(1);\n}\n";
    let (diags, _) = lint_source("crates/serve/src/server.rs", src);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn fault_module_itself_passes() {
    let src = "pub fn inject(n: u32) { let _ = n; }\nfn helper() { crate::fault::inject(2); }\n";
    let (diags, _) = lint_source("crates/serve/src/fault.rs", src);
    assert!(diags.is_empty(), "{diags:?}");
}

// --- R7: index-width --------------------------------------------------------

#[test]
fn as_u32_in_graph_crate_fires() {
    let src = "fn f(i: usize) -> u32 {\n    i as u32\n}\n";
    let (diags, _) = lint_source("crates/graph/src/csr.rs", src);
    assert_eq!(rules(&diags), vec!["index-width"]);
    assert_eq!(diags[0].line, 2);
    assert!(diags[0].message.contains("narrow_index"));
}

#[test]
fn as_u32_in_layout_module_passes() {
    let src = "pub fn narrow_index(value: usize) -> u32 {\n    value as u32\n}\n";
    let (diags, _) = lint_source("crates/graph/src/layout.rs", src);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn as_u32_outside_graph_crate_passes() {
    let src = "fn f(i: usize) -> u32 {\n    i as u32\n}\n";
    let (diags, _) = lint_source("crates/core/src/x.rs", src);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn as_u32_in_graph_test_module_passes() {
    let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { let _ = 7usize as u32; }\n}\n";
    let (diags, _) = lint_source("crates/graph/src/csr.rs", src);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn widening_and_vertex_id_casts_pass() {
    let src = "fn f(i: u32, n: usize) -> (u64, u32) {\n    (i as u64, n as VertexId)\n}\n";
    let (diags, _) = lint_source("crates/graph/src/csr.rs", src);
    assert!(diags.is_empty(), "{diags:?}");
}

// --- diagnostics format -----------------------------------------------------

#[test]
fn diagnostic_renders_file_line_rule() {
    let src = "fn f(p: *const u8) -> u8 { unsafe { *p } }\n";
    let (diags, _) = lint_source("crates/graph/src/bad.rs", src);
    let rendered = diags[0].to_string();
    assert!(
        rendered.starts_with("crates/graph/src/bad.rs:1: [unsafe-safety]"),
        "{rendered}"
    );
}

// --- the real workspace must be clean ---------------------------------------

#[test]
fn workspace_is_clean() {
    // CARGO_MANIFEST_DIR = crates/checker; the workspace root is two up.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .unwrap()
        .to_path_buf();
    let diags = lint_workspace(&root).expect("lint walk");
    assert!(
        diags.is_empty(),
        "chordal-lint found violations in the workspace:\n{}",
        diags
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
