//! The `chordal` binary as a process: its exit code and stderr when stdout
//! is closed or a retired flag is given, every registry cell through
//! `extract` and `verify`, and the usage errors of the extraction keys.

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

fn chordal() -> Command {
    Command::new(env!("CARGO_BIN_EXE_chordal"))
}

/// A file in the temp directory, named by `tag` and the process id and
/// removed on drop.
struct TempFile(PathBuf);

impl TempFile {
    fn new(tag: &str) -> Self {
        let name = format!("chordal_cli_{tag}_{}.txt", std::process::id());
        Self(std::env::temp_dir().join(name))
    }

    /// A small R-MAT edge list, RMAT-B(8), written by `chordal generate`.
    fn graph(tag: &str) -> Self {
        let file = Self::new(tag);
        let generate = ["generate", "--kind", "rmat-b", "--scale", "8", "--out"];
        let generated = chordal().args(generate).arg(&file.0).output();
        let generated = generated.expect("running chordal generate");
        assert!(generated.status.success());
        file
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Runs `chordal <args> --in <a small R-MAT edge list>` with `stdout`.
fn run_on_graph(tag: &str, args: &[&str], stdout: Stdio) -> Output {
    let graph = TempFile::graph(tag);
    let output = chordal()
        .args(args)
        .arg("--in")
        .arg(&graph.0)
        .stdout(stdout)
        .output();
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

#[test]
fn every_registry_cell_extracts_and_verifies() {
    let graph = TempFile::graph("registry");
    for algorithm in ["alg1", "reference", "dearing", "partitioned"] {
        for repair in [false, true] {
            let name = if repair {
                format!("{algorithm}+repair")
            } else {
                algorithm.to_string()
            };
            let out = TempFile::new(&format!("registry_{name}"));
            let mut extract = chordal();
            extract.args(["extract", "--algorithm", algorithm, "--in"]);
            extract.arg(&graph.0).arg("--out").arg(&out.0);
            if repair {
                extract.arg("--repair");
            }
            let output = extract.output().expect("running chordal extract");
            let stdout = String::from_utf8_lossy(&output.stdout);
            let stderr = String::from_utf8_lossy(&output.stderr);
            assert_eq!(output.status.code(), Some(0), "{name}: {stderr}");
            assert!(stdout.starts_with(&format!("{name}:")), "{name}: {stdout}");

            let verify = chordal()
                .arg("verify")
                .arg("--graph")
                .arg(&graph.0)
                .arg("--subgraph")
                .arg(&out.0)
                .args(["--maximality", "200"])
                .output()
                .expect("running chordal verify");
            let report = String::from_utf8_lossy(&verify.stdout);
            // The partitioned baseline's output need not be chordal.
            if algorithm != "partitioned" {
                assert_eq!(verify.status.code(), Some(0), "{name}: {report}");
                if repair || algorithm == "dearing" {
                    assert!(report.contains("maximal: true"), "{name}: {report}");
                }
            }
        }
    }
}

#[test]
fn invalid_extraction_keys_are_usage_errors() {
    let graph = TempFile::graph("keys");
    for (flag, value) in [
        ("--threads", "many"),
        ("--partitions", "x"),
        ("--algorithm", "magic"),
        ("--variant", "fast"),
        ("--engine", "gpu"),
    ] {
        let output = chordal()
            .args(["extract", flag, value, "--in"])
            .arg(&graph.0)
            .output()
            .expect("running chordal extract");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{flag} {value}: {stderr}");
        assert!(stderr.contains(&format!("`{value}`")), "{flag}: {stderr}");
    }
}
