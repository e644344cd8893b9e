//! One-stop imports for typical callers: `use memlstm::prelude::*;`.
//!
//! Re-exports the two-dozen-odd types a caller driving the stack end to
//! end actually touches — device models, the network, its plans and the
//! runtime that executes them, the optimized plan builder, the
//! accuracy/threshold machinery, and the serving tier (single-device and
//! fleet) — so examples and downstream binaries don't chase types across
//! five crates.
//!
//! ```
//! use memlstm::prelude::*;
//!
//! let config = ModelConfig::new("prelude-demo", 8, 12, 1, 6, 2).unwrap();
//! let mut rng = seeded_rng(1);
//! let net = LstmNetwork::random(&config, &mut rng);
//! let xs = lstm::random_inputs(&config, &mut rng);
//! let plan = ExecutionPlan::compile_baseline(&net, xs.len(), &DeviceModel::default_preset());
//! let serve = ServeConfig::builder(DeviceModel::default_preset()).build().unwrap();
//! let mut engine = ServeEngine::new(&plan, &net, serve).unwrap();
//! engine.submit(Request { id: 0, xs, arrival_s: 0.0, deadline_s: None }).unwrap();
//! assert_eq!(engine.drain().len(), 1);
//! ```

pub use gpu_sim::{DeviceModel, GpuDevice};
pub use lstm::plan::{ExecutionPlan, PlanRuntime};
pub use lstm::{LstmNetwork, ModelConfig};
pub use tensor::init::seeded_rng;
pub use tensor::{Precision, Vector};
pub use workloads::{Benchmark, Workload};

pub use crate::drs::{DrsConfig, DrsMode};
pub use crate::error::{Error, MemlstmResult};
pub use crate::exec::{OptimizedExecutor, OptimizerConfig, OptimizerConfigBuilder};
pub use crate::fleet::{
    Affinity, DeviceMetrics, DeviceStatus, FleetEngine, FleetMetrics, FleetOutcome,
    LeastQueueDepth, RoundRobin, RoutePolicy,
};
pub use crate::mts::determine_mts;
pub use crate::prediction::NetworkPredictors;
pub use crate::serve::{
    FaultPlan, Request, ServeConfig, ServeConfigBuilder, ServeEngine, ServeMetrics, ServeOutcome,
    ShedReason, SheddingPolicy,
};
pub use crate::thresholds::{select_ao, select_bpa, threshold_sets, Evaluator, ThresholdSet};
pub use crate::tuner::UoTuner;
pub use crate::user_study::Participant;
