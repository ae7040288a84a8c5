//! The `chordal` binary as a process: its exit code and stderr when stdout
//! is closed or a retired flag is given.

use std::process::{Command, Output, Stdio};

/// Runs `chordal <args> --in <a small R-MAT edge list>` with `stdout`.
fn run_on_graph(tag: &str, args: &[&str], stdout: Stdio) -> Output {
    let chordal = || Command::new(env!("CARGO_BIN_EXE_chordal"));
    let path = std::env::temp_dir().join(format!("chordal_cli_{tag}_{}.txt", std::process::id()));
    let generate = ["generate", "--kind", "rmat-b", "--scale", "8", "--out"];
    let generated = chordal().args(generate).arg(&path).output();
    let generated = generated.expect("running chordal generate");
    assert!(generated.status.success());
    let mut command = chordal();
    command.args(args).arg("--in").arg(&path).stdout(stdout);
    let output = command.output();
    let _ = std::fs::remove_file(&path);
    output.expect("running chordal")
}

#[test]
fn a_closed_stdout_ends_the_command_without_a_panic() {
    // The read end is gone before the child starts, so its first line meets
    // a closed pipe whatever the timing.
    let (reader, writer) = std::io::pipe().expect("creating a pipe");
    drop(reader);
    let output = run_on_graph("closed_stdout", &["analyze"], writer.into());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(output.status.code(), Some(3), "{stderr}");
}

#[test]
fn the_retired_semantics_flag_is_a_usage_error() {
    let args = ["extract", "--semantics", "sync"];
    let output = run_on_graph("flag", &args, Stdio::null());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("argument `--semantics`"), "{stderr}");
    assert!(stderr.contains("commands:"), "no usage text: {stderr}");
}
