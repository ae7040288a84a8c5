//! Regenerates every table and figure of the paper's evaluation at a
//! configurable (reduced) scale.
//!
//! ```text
//! cargo run -p chordal-bench --release --bin experiments -- <command> [options]
//!
//! Commands:
//!   table1            Structural properties of the test suite (Table I)
//!   figure2           Clustering coefficient vs degree (Figure 2)
//!   figure3           Shortest-path-length distribution (Figure 3)
//!   figure4           Scaling on the R-MAT suite (Figure 4)
//!   figure5           Scaling on the gene-correlation networks (Figure 5)
//!   figure7           Queue sizes and iteration counts (Figure 7)
//!   table2            Speedups at full parallelism (Table II)
//!   chordal-fraction  Percentage of chordal edges (Section V)
//!   maximality-gap    Near-maximality probe (reproduction finding)
//!   scheduler         Batch-scheduling policy ablation (pool counters)
//!   repair            Maximality-repair ablation (incremental vs scratch oracle)
//!   storage           Cold-start ablation: text re-parse vs binary mmap reload
//!   kernels           Kernel ablation: merge/gallop/adaptive x skew, Pearson scalar/blocked
//!   serving           Closed-loop load against the resident extraction service
//!   all               Run everything above in order
//!
//! Options:
//!   --scale N      Base R-MAT scale (default 14)
//!   --genes N      Genes per synthetic gene-correlation network (default 1200)
//!   --threads N    Maximum worker threads (default: all logical CPUs)
//!   --repeats N    Best-of-N timing repetitions (default 2)
//!   --out PATH     Append machine-readable JSON-lines records to PATH
//!   --quick        Shrink every sweep for a fast smoke run
//! ```

use chordal_bench::experiments::{
    chordal_fraction, figure2, figure3, figure7, kernels, maximality_gap, repair, scaling,
    scheduler, serving, storage, table1, table2, HarnessOptions,
};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, options) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!("run with `help` for usage");
            return ExitCode::FAILURE;
        }
    };

    match command.as_str() {
        "table1" => {
            table1::run_and_print(&options);
        }
        "figure2" => {
            figure2::run_and_print(&options);
        }
        "figure3" => {
            figure3::run_and_print(&options);
        }
        "figure4" => {
            scaling::figure4_and_print(&options);
        }
        "figure5" => {
            scaling::figure5_and_print(&options);
        }
        "figure7" => {
            figure7::run_and_print(&options);
        }
        "table2" => {
            table2::run_and_print(&options);
        }
        "chordal-fraction" => {
            chordal_fraction::run_and_print(&options);
        }
        "maximality-gap" => {
            maximality_gap::run_and_print(&options);
        }
        "scheduler" => {
            scheduler::run_and_print(&options);
        }
        "repair" => {
            repair::run_and_print(&options);
        }
        "storage" => {
            storage::run_and_print(&options);
        }
        "kernels" => {
            kernels::run_and_print(&options);
        }
        "serving" => {
            serving::run_and_print(&options);
        }
        "all" => {
            table1::run_and_print(&options);
            println!();
            figure2::run_and_print(&options);
            println!();
            figure3::run_and_print(&options);
            println!();
            scaling::figure4_and_print(&options);
            println!();
            scaling::figure5_and_print(&options);
            println!();
            figure7::run_and_print(&options);
            println!();
            table2::run_and_print(&options);
            println!();
            chordal_fraction::run_and_print(&options);
            println!();
            maximality_gap::run_and_print(&options);
            println!();
            scheduler::run_and_print(&options);
            println!();
            repair::run_and_print(&options);
            println!();
            storage::run_and_print(&options);
            println!();
            kernels::run_and_print(&options);
            println!();
            serving::run_and_print(&options);
        }
        "help" | "--help" | "-h" => {
            print_usage();
        }
        other => {
            eprintln!("error: unknown command `{other}`");
            print_usage();
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

fn print_usage() {
    println!(
        "usage: experiments <table1|figure2|figure3|figure4|figure5|figure7|table2|chordal-fraction|maximality-gap|scheduler|repair|storage|kernels|serving|all> \
         [--scale N] [--genes N] [--threads N] [--repeats N] [--out PATH] [--quick]"
    );
}

fn parse(args: &[String]) -> Result<(String, HarnessOptions), String> {
    let mut options = HarnessOptions::default();
    let mut command = None;
    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--scale" => options.rmat_scale = parse_value(&mut iter, "--scale")?,
            "--genes" => options.genes = parse_value(&mut iter, "--genes")?,
            "--threads" => options.max_threads = parse_value(&mut iter, "--threads")?,
            "--repeats" => options.repeats = parse_value(&mut iter, "--repeats")?,
            "--out" => {
                let value = iter
                    .next()
                    .ok_or_else(|| "--out requires a path".to_string())?;
                options.out = Some(PathBuf::from(value));
            }
            "--quick" => options.quick = true,
            flag if flag.starts_with("--") => return Err(format!("unknown option `{flag}`")),
            cmd => {
                if command.is_some() {
                    return Err(format!("unexpected extra argument `{cmd}`"));
                }
                command = Some(cmd.to_string());
            }
        }
    }
    let command = command.unwrap_or_else(|| "help".to_string());
    if options.max_threads == 0 {
        return Err("--threads must be at least 1".to_string());
    }
    if options.rmat_scale == 0 || options.rmat_scale > 26 {
        return Err("--scale must be between 1 and 26".to_string());
    }
    Ok((command, options))
}

fn parse_value<'a, T: std::str::FromStr>(
    iter: &mut std::iter::Peekable<std::slice::Iter<'a, String>>,
    flag: &str,
) -> Result<T, String> {
    let value = iter
        .next()
        .ok_or_else(|| format!("{flag} requires a value"))?;
    value
        .parse::<T>()
        .map_err(|_| format!("invalid value `{value}` for {flag}"))
}
