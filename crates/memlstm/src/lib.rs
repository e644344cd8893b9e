//! Memory-friendly LSTM optimizations for mobile GPUs — the paper's core
//! contribution.
//!
//! Two optimization levels hierarchically reduce off-chip memory accesses:
//!
//! * **Inter-cell** (paper Sec. IV): [`relevance`] quantifies each context
//!   link with Algorithm 2, [`breakpoints`]/[`division`] break the weak
//!   ones into independent sub-layers, [`prediction`] recovers accuracy
//!   with the Eq. 6 expectation vector, and [`tissue`] fuses cells from
//!   different sub-layers into *tissues* (bounded by the maximum tissue
//!   size that [`mts`] measures) so the united weight matrix is loaded
//!   once per tissue instead of once per cell.
//! * **Intra-cell** (paper Sec. V): [`drs`] implements Dynamic Row Skip
//!   (Algorithm 3) — compute the output gate first, identify near-zero
//!   elements, and skip the corresponding `U_{f,i,c}` rows — in both the
//!   divergence-paying software variant and the CRM hardware variant.
//!   [`pruning`] provides the element-granular zero-pruning baseline \[31\]
//!   the paper compares against (Fig. 16).
//!
//! [`exec`] ties both levels into executors that produce real numbers plus
//! kernel traces; [`thresholds`] spans the performance–accuracy trade-off
//! space (Fig. 19) and selects the AO/BPA operating points; [`tuner`] and
//! [`user_study`] implement the user-oriented (UO) scheme and the Fig. 18
//! study; [`overhead`] reproduces the Sec. VI-F overhead accounting.
//!
//! # Example
//!
//! ```
//! use lstm::{LstmNetwork, ModelConfig};
//! use memlstm::drs::{DrsConfig, DrsMode};
//! use memlstm::exec::{OptimizedExecutor, OptimizerConfig};
//! use memlstm::prediction::NetworkPredictors;
//! use tensor::init::seeded_rng;
//!
//! let config = ModelConfig::new("demo", 8, 12, 1, 6, 2).unwrap();
//! let mut rng = seeded_rng(1);
//! let net = LstmNetwork::random(&config, &mut rng);
//! let offline = vec![lstm::random_inputs(&config, &mut rng)];
//! let predictors = NetworkPredictors::collect(&net, &offline);
//!
//! let opts = OptimizerConfig::builder()
//!     .alpha_inter(1.0)
//!     .max_tissue_size(5)
//!     .drs(DrsConfig { alpha_intra: 0.05, mode: DrsMode::Hardware })
//!     .build();
//! let xs = lstm::random_inputs(&config, &mut rng);
//! let run = OptimizedExecutor::new(&net, &predictors, opts).run(&xs)?;
//! assert_eq!(run.layers[0].hs.len(), 6);
//! # Ok::<(), memlstm::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod breakpoints;
pub mod compile;
pub mod division;
pub mod drs;
pub mod error;
pub mod exec;
pub mod fleet;
pub mod gru_drs;
pub mod mts;
pub mod overhead;
pub mod prediction;
pub mod prelude;
pub mod pruning;
pub mod relevance;
pub mod serve;
pub mod thresholds;
pub mod tissue;
pub mod tuner;
pub mod user_study;

pub use breakpoints::find_breakpoints;
pub use division::{divide, SubLayer};
pub use drs::{trivial_row_mask, DrsConfig, DrsMode};
pub use error::{Error, MemlstmResult};
pub use exec::{OptimizedExecutor, OptimizerConfig, OptimizerConfigBuilder};
pub use fleet::{
    Affinity, DeviceMetrics, DeviceStatus, FleetEngine, FleetMetrics, FleetOutcome,
    LeastQueueDepth, RoundRobin, RoutePolicy,
};
pub use gru_drs::compile_gru_drs;
pub use mts::{determine_mts, MtsResult, MtsSample};
pub use prediction::{LinkPredictor, NetworkPredictors};
pub use pruning::ZeroPruning;
pub use relevance::RelevanceAnalyzer;
pub use serve::{
    Completion, DegradeEvent, Failure, FaultPlan, Request, RoundReport, ServeConfig,
    ServeConfigBuilder, ServeEngine, ServeMetrics, ServeOutcome, Shed, ShedReason, SheddingPolicy,
    SloClass,
};
pub use thresholds::{select_ao, select_bpa, threshold_sets, ThresholdSet, TradeoffPoint};
pub use tissue::{form_tissues, schedule_tissues, Tissue};
pub use tuner::UoTuner;
pub use user_study::{Participant, StudyResult, UserStudy};
