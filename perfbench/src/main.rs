//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints notes, then one JSON result line as the last line of standard
//! output, and writes a report under `out/`. Exit codes: 0 when every
//! output passed the correctness gate, 1 when one failed (the result line
//! says `"correct": false`), 2 on a usage error, 3 when the run could not
//! complete.

use perfbench::inputs::{out_dir, Sizes};
use perfbench::workloads::Workload;
use perfbench::{provenance, run, Options};
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <rmat16|gene-batch|serve-mixed> \
                     --seed <n> --seconds <s> --trace <0|1> [--tiny]";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut sizes = Sizes::FULL;
    let mut i = 0;
    while i < args.len() {
        let value = || {
            args.get(i + 1)
                .ok_or_else(|| format!("{} needs a value", args[i]))
        };
        match args[i].as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::parse(name).ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--tiny" => {
                sizes = Sizes::TINY;
                i += 1;
                continue;
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 2;
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        sizes,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!("# provenance {}", provenance(&opts));
    let outcome = match run(&opts) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(3);
        }
    };
    for note in &outcome.notes {
        println!("# {note}");
    }
    for failure in &outcome.gate.failures {
        println!("# gate failure: {failure}");
    }
    for (name, value, unit) in &outcome.metrics.0 {
        println!("# metric {name} = {value} {unit}");
    }
    let report = out_dir().join(format!(
        "report-{}-seed{}-trace{}.json",
        opts.workload.name(),
        opts.seed,
        u8::from(opts.trace)
    ));
    match std::fs::write(&report, &outcome.report) {
        Ok(()) => println!("# report {}", report.display()),
        Err(e) => eprintln!("perfbench: writing {}: {e}", report.display()),
    }
    println!("{}", outcome.result_line());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
