//! Network analysis routines used by the paper's evaluation.
//!
//! * [`clustering`] — local clustering coefficients and the average
//!   clustering coefficient per degree (Figure 2).
//! * [`paths`] — distribution of shortest path lengths (Figure 3).
//! * [`assortativity`] — Newman's degree assortativity coefficient, used in
//!   the paper's discussion of why the biological networks behave
//!   differently from the R-MAT inputs.
//!
//! Table I's rows are `chordal_graph::GraphStats`, and Section V's chordal
//! fraction is `chordal_core::ChordalResult::chordal_fraction`.

#![deny(missing_docs)]

pub mod assortativity;
pub mod clustering;
pub mod paths;

pub use assortativity::degree_assortativity;
pub use clustering::{average_clustering_by_degree, local_clustering_coefficients};
pub use paths::shortest_path_distribution;
