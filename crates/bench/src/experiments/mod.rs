//! Implementations of every table- and figure-regeneration experiment.
//!
//! Each submodule corresponds to one artefact of the paper's evaluation
//! (Table I, Figures 2–7, Table II), to one quantitative claim made in the
//! text (chordal edge fractions, near-maximality of the output), or to one
//! implementation ablation beyond the paper (the `scheduler` batch-policy
//! sweep, the `repair` maintainer-vs-oracle ablation, the `storage` cold-start
//! comparison of text re-parse vs binary mmap reload, and the `kernels`
//! intersection-variant × skew sweep). The `experiments`
//! binary
//! dispatches to these based on its subcommand; the modules are also
//! exercised directly by the integration tests at reduced sizes.

pub mod chordal_fraction;
pub mod figure2;
pub mod figure3;
pub mod figure7;
pub mod kernels;
pub mod maximality_gap;
pub mod options;
pub mod repair;
pub mod scaling;
pub mod scheduler;
pub mod serving;
pub mod storage;
pub mod table1;
pub mod table2;

pub use options::HarnessOptions;
