//! LSTM/GRU inference engine with cuDNN-style kernel scheduling.
//!
//! This crate is the substitute for the paper's PyTorch + cuDNN software
//! stack: it executes real `f32` LSTM arithmetic (Eqs. 1–5) on the CPU
//! while simultaneously emitting the kernel trace — `Sgemm(W, x)` per
//! layer, `Sgemv(U, h_{t-1})` + `lstm_ew` per cell (Algorithm 1) — that the
//! `gpu-sim` crate prices on the modelled Tegra X1.
//!
//! Every flow compiles to an [`ExecutionPlan`] ([`plan`]) and runs on one
//! runtime, [`PlanRuntime`]: its lane-generic tissue walk ([`batch`])
//! executes B sequences in lockstep through LSTM and GRU layers alike,
//! and a solo run is the batch of one.
//!
//! The optimized plan compilers (layer reorganization, Dynamic Row Skip)
//! live in the `memlstm` crate and reuse the cell math, region allocation
//! and kernel-cost helpers defined here.
//!
//! # Example
//!
//! ```
//! use gpu_sim::{DeviceModel, KernelDesc};
//! use lstm::{ExecutionPlan, LstmNetwork, ModelConfig, PlanRuntime};
//! use tensor::init::seeded_rng;
//!
//! let config = ModelConfig::new("tiny", 8, 16, 1, 4, 2).unwrap();
//! let mut rng = seeded_rng(0);
//! let net = LstmNetwork::random(&config, &mut rng);
//! let xs = lstm::random_inputs(&config, &mut rng);
//! let plan = ExecutionPlan::compile_baseline(&net, xs.len(), &DeviceModel::default_preset());
//! let mut trace: Vec<KernelDesc> = Vec::new();
//! let out = PlanRuntime::new().run_lstm(&plan, &net, &xs, &mut trace);
//! assert_eq!(out.logits.len(), 2);
//! assert_eq!(trace.len(), 1 + 2 * xs.len() + 1); // Sgemm(W,x), 4 x (Sgemv + lstm_ew), head
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod cell;
pub mod config;
pub mod drs;
pub mod gru;
pub mod gru_exec;
pub mod network;
pub mod plan;
pub mod regions;
pub mod schedule;
mod workspace;

pub use cell::{CellScratch, CellWeights, GateVectors};
pub use config::ModelConfig;
pub use drs::{DrsConfig, DrsMode};
pub use gru::GruWeights;
pub use gru_exec::GruNetwork;
pub use network::LstmNetwork;
pub use plan::{ExecutionPlan, KernelSink, PlanOutput, PlanRuntime};
pub use regions::{LayerRegions, RegionAllocator};

use rand::Rng;
use tensor::Vector;

/// Samples a random input sequence (`seq_len` vectors of `input_dim`) with
/// activations in `[-1, 1]`, the range layer inputs occupy after an
/// embedding + tanh front-end.
pub fn random_inputs(config: &ModelConfig, rng: &mut impl Rng) -> Vec<Vector> {
    (0..config.seq_len)
        .map(|_| Vector::from_fn(config.input_dim, |_| rng.gen_range(-1.0f32..=1.0)))
        .collect()
}
