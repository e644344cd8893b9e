//! Dynamic Row Skip (paper Sec. V, Algorithm 3) — re-exported.
//!
//! The DRS primitives moved to [`lstm::drs`] so the shared execution-plan
//! IR ([`lstm::plan`]) can price masked kernels without depending on this
//! crate. This module re-exports them under their historical paths.

pub use lstm::drs::{skip_cost, skip_fraction, DrsConfig, DrsMode, SkipCost};
