//! Dense `f32` linear-algebra substrate for the memlstm reproduction.
//!
//! This crate provides exactly the operations the paper's LSTM execution
//! needs: row-major matrices and vectors, reference `Sgemv` kernels (dense
//! and row-masked, as Dynamic Row Skip uses them), one packed gate slab
//! ([`FusedGates`]) that stores a cell's gate matrices in SIMD row panels
//! at fp32, fp16 or int8 ([`Precision`]) and runs every fast product, the
//! gate activation functions, weight initializers that mimic trained-LSTM statistics, and
//! the running statistics used by the offline context-link distribution
//! collection (paper Eq. 6).
//!
//! # Example
//!
//! ```
//! use tensor::{Matrix, Vector};
//!
//! let a = Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f32);
//! let x = Vector::from(vec![1.0, 0.0, -1.0]);
//! let y = a.gemv(&x);
//! assert_eq!(y.as_slice(), &[-2.0, -2.0]);
//! ```

// `deny`, not `forbid`: the one sanctioned exception is the dispatch
// wrapper that `packed::simd_kernel!` generates for each panel
// micro-kernel — calling the AVX build after `is_x86_feature_detected!`
// — which carries a scoped `#[allow(unsafe_code)]` and a safety argument.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod activation;
pub mod error;
pub mod fused;
pub mod gemm;
pub mod init;
pub mod matrix;
pub mod packed;
pub mod quant;
pub mod stats;
pub mod vector;

pub use activation::{sigmoid, tanh};
pub use error::{ShapeError, TensorResult};
pub use fused::FusedGates;
pub use matrix::Matrix;
pub use quant::{f16_bits_to_f32, f32_to_f16_bits, quantize_row_i8, Precision};
pub use stats::RunningStats;
pub use vector::Vector;
