//! Synthetic NLP benchmark suite — the substitute for the paper's six
//! evaluation applications (Table II).
//!
//! The paper measures accuracy on trained PyTorch models for IMDB, MR,
//! BABI, SNLI, PTB and an English–French MT corpus. Those checkpoints are
//! unavailable, so this crate generates *trained-like* networks with the
//! exact Table II shapes and evaluates accuracy by **teacher match**: the
//! exact (unapproximated) network's argmax is the ground-truth label, and
//! an optimized execution's accuracy is its agreement rate with the exact
//! one. This isolates precisely the quantity the paper trades against
//! performance — the degradation introduced by the approximations — without
//! needing the original datasets.
//!
//! A [`Workload`] runs no exact forward at generation: its teacher labels
//! are computed on the first [`Workload::teacher_labels`] call, so callers
//! that only serve or compile never pay for them.
//!
//! # Example
//!
//! ```
//! use workloads::{Benchmark, Workload};
//!
//! let wl = Workload::generate(Benchmark::Mr, 4, 7);
//! assert_eq!(wl.spec().hidden_size, 256);
//! assert_eq!(wl.eval_set().len(), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accuracy;
pub mod dataset;
pub mod spec;
pub mod synth;

pub use accuracy::{teacher_match, teacher_match_nested};
pub use dataset::Dataset;
pub use spec::{Benchmark, BenchmarkSpec, TaskKind};
pub use synth::{teacher_predictions, SynthParams, Workload};
