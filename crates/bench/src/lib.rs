//! Shared infrastructure for the benchmark harness.
//!
//! The `experiments` binary (in `src/bin`) regenerates every table and
//! figure of the paper and runs the ablations behind the `BENCH_*.json`
//! snapshots. It is built on the helpers in this library: workload
//! construction at a configurable scale, simple wall-clock timing, and
//! serialisable experiment records, which encode themselves through
//! `chordal_serve::json::ToJson`, the encoder that also writes every serve
//! reply. The repository benchmark, `perfbench/`, is a package of its own.

#![deny(missing_docs)]

pub mod experiments;
pub mod records;
pub mod timing;
pub mod workloads;

pub use records::{ExperimentRecord, ScalingPoint};
pub use timing::time_best_of;
pub use workloads::{bio_suite, rmat_suite, thread_sweep, NamedGraph};
