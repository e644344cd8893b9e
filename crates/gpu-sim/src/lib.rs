//! An analytical, trace-driven timing and energy model of a mobile GPU.
//!
//! The paper evaluates on an NVIDIA Jetson TX1 (Tegra X1 SoC); this crate
//! is the substitute substrate: LSTM executors describe every kernel they
//! would launch (`Sgemm`, `Sgemv`, `lstm_ew`, `DRS`) as a [`KernelDesc`] —
//! FLOPs, global-memory accesses against named regions, on-chip traffic,
//! CTA geometry and divergence — and a [`GpuDevice`] replays the trace
//! against:
//!
//! * an L2 cache model ([`cache`]) that captures the *redundant data
//!   movement* bottleneck (paper Sec. III-A): the united weight matrix is
//!   megabytes, the L2 is 256 KiB, so every sequentially-executed cell
//!   reloads it from DRAM;
//! * a bound-resource timing model ([`timing`]) with pipeline-stall
//!   attribution matching Fig. 4's categories, which also reproduces the
//!   *limited off-chip bandwidth* bottleneck (Sec. III-B, Fig. 6) and the
//!   on-chip bandwidth ceiling that defines the maximum tissue size
//!   (Fig. 9);
//! * an energy model ([`energy`]) with static rails plus per-byte/per-FLOP
//!   dynamic energy, reported per component;
//! * a cycle model of the paper's CTA-reorganization hardware module
//!   ([`crm`], Fig. 12) used by hardware Dynamic Row Skip.
//!
//! # Example
//!
//! ```
//! use gpu_sim::{GpuConfig, GpuDevice, KernelDesc, KernelKind, RegionId};
//!
//! let mut dev = GpuDevice::new(GpuConfig::tegra_x1());
//! let weights = RegionId::new(1);
//! let kernel = KernelDesc::builder("sgemv", KernelKind::Sgemv)
//!     .flops(2 * 2048 * 512)
//!     .read(weights, 2048 * 512 * 4)
//!     .threads(2048, 256)
//!     .build();
//! let report = dev.launch(&kernel);
//! assert!(report.time_s > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod config;
pub mod crm;
pub mod device;
pub mod energy;
pub mod kernel;
pub mod model;
pub mod profile;
pub mod report;
pub mod timing;

pub use cache::{LineCache, RegionCache, RegionId};
pub use config::GpuConfig;
pub use crm::CrmModel;
pub use device::{GpuDevice, TraceSession};
pub use energy::{EnergyBreakdown, EnergyModel};
pub use kernel::{KernelDesc, KernelKind, MemAccess};
pub use model::{DeviceModel, DEVICE_ENV_VAR, PRESET_NAMES};
pub use profile::{validate_chrome_trace, ChromeTrace, KernelSpan, Phase, Profiler, SpanTag};
pub use report::{KernelReport, SimReport, StallBreakdown};
