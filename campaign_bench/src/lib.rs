//! Whole-campaign benchmark for lancer.
//!
//! One *pass* runs a `Campaign` per seed of the pass and dialect (sqlite,
//! mysql, postgres, duckdb), one after the other, each with two worker
//! threads.  The untraced run times passes end to end.  The traced run
//! runs the first seed's campaigns plain, then again with every oracle
//! wrapped in a delegating [`trace::Traced`] oracle, and reports per-layer
//! spans and the program's own counters.  Every campaign run goes through
//! the output check in [`check`].  `run.py` builds and runs this package;
//! see README.md for the metrics.

pub mod bench;
pub mod check;
pub mod sys;
pub mod trace;
pub mod workload;
