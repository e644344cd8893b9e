//! Experiment harness regenerating every table and figure of the paper.
//!
//! Each `figures_*`/`tables` function reproduces one evaluation artifact;
//! the `repro` binary dispatches to them (`cargo run -p mf-bench --release
//! --bin repro -- <experiment>`). Shared plumbing — workload construction
//! with per-benchmark evaluation budgets, sweep caching, text tables —
//! lives in [`session`], [`experiments`] and [`table`]; [`cli`] holds the
//! binaries' shared flag parser and result-file placement.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod cli;
pub mod experiments;
pub mod figures_memory;
pub mod figures_perf;
pub mod figures_tradeoff;
pub mod figures_user;
pub mod profiling;
pub mod session;
pub mod stats;
pub mod table;
pub mod tables;

pub use experiments::{budget_for, evaluator_for, EvalBudget};
pub use profiling::{profile_run, ProfileRun, Scheme};
pub use session::{Level, Session};
pub use stats::percentile;
pub use table::TextTable;
