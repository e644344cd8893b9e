//! The execution-plan IR and the streaming runtime shared by every
//! executor.
//!
//! Planning and execution are separate concerns in this codebase:
//!
//! * An [`ExecutionPlan`] is *pure data*, compiled once per (network,
//!   thresholds, maximum tissue size) against a probe sequence. It owns
//!   every offline product of the paper's pipeline — breakpoints,
//!   sub-layer division, aligned tissues with their context sources,
//!   Eq. 6 predicted links — plus the per-step kernel templates with
//!   their [`RegionId`]s pre-allocated, so the kernel *stream* (labels,
//!   order, region identity) is fixed at compile time.
//! * A [`PlanRuntime`] executes a plan over streaming inputs, performing
//!   the real `f32` arithmetic and feeding each kernel to a
//!   [`KernelSink`] the moment it is "launched" — a collector for trace
//!   inspection, or a [`gpu_sim::TraceSession`] for incremental pricing
//!   without materializing the whole trace.
//!
//! Only the row-masked `Sgemv/Sgemm(U, ·, R)` kernel of Dynamic Row Skip
//! cannot be fully priced at compile time: its cost depends on the gate
//! values of the actual input. The plan stores it as a [`MaskedUKernel`]
//! template whose regions are still fixed; the runtime fills in the
//! mask-dependent numbers per step. Everything else is cloned verbatim
//! from the plan, so two runs of the same plan emit identical streams
//! except for those numeric fields.
//!
//! The baseline flows compile here ([`ExecutionPlan::compile_baseline`],
//! [`ExecutionPlan::compile_gru_baseline`]); the optimized flows compile
//! in the `memlstm` crate, which owns the offline analyses.

use crate::cell::GatePreacts;
use crate::drs::{skip_cost, skip_fraction, trivial_row_mask_into, union_active_into, DrsMode};
use crate::gru::GruWeights;
use crate::gru_exec::GruNetwork;
use crate::network::LstmNetwork;
use crate::regions::{LayerRegions, NetworkRegions, RegionAllocator};
use crate::schedule::{
    ew_kernel, gru_wx_sgemm_kernel, head_kernel, u_sgemv_kernel, wx_sgemm_kernel, F32,
};
use crate::workspace::{SharedScratch, Workspace};
use gpu_sim::{DeviceModel, KernelDesc, KernelKind, MemAccess, RegionId, SpanTag, TraceSession};
use std::mem;
use tensor::{Precision, Vector};

/// Receives kernels as the runtime "launches" them.
///
/// Implementations decide what a launch means: collect it, price it on a
/// simulated device, or discard it. The runtime calls [`begin_layer`]
/// before the first kernel of each layer and [`begin_tail`] before the
/// head, letting sinks that care about trace structure segment the
/// stream.
///
/// [`begin_layer`]: KernelSink::begin_layer
/// [`begin_tail`]: KernelSink::begin_tail
pub trait KernelSink {
    /// Called before the first kernel of layer `layer`.
    fn begin_layer(&mut self, layer: usize) {
        let _ = layer;
    }

    /// Called before the post-layer (head) kernels.
    fn begin_tail(&mut self) {}

    /// Announces the plan phase of the kernels that follow. Sinks that
    /// profile (e.g. a [`TraceSession`] with profiling enabled) attach the
    /// tag to subsequent spans; everyone else inherits this no-op.
    fn tag(&mut self, tag: SpanTag) {
        let _ = tag;
    }

    /// Receives one launched kernel, by reference: the runtime retains
    /// ownership (most kernels live in the plan or a recycled workspace
    /// slot), so sinks that merely price or discard never copy.
    fn emit(&mut self, kernel: &KernelDesc);
}

/// Discards every kernel. Used when only the numerics matter — e.g. while
/// a plan compiler advances its probe sequence through already-planned
/// layers, or in accuracy-only evaluation runs.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl KernelSink for NullSink {
    fn emit(&mut self, _kernel: &KernelDesc) {}
}

/// Collects the flat kernel stream in launch order.
impl KernelSink for Vec<KernelDesc> {
    fn emit(&mut self, kernel: &KernelDesc) {
        self.push(kernel.clone());
    }
}

/// Prices each kernel incrementally on the session's device as it is
/// launched — the streaming path: no trace is ever materialized.
impl KernelSink for TraceSession<'_> {
    fn tag(&mut self, tag: SpanTag) {
        self.set_span_tag(tag);
    }

    fn emit(&mut self, kernel: &KernelDesc) {
        self.price_kernel(kernel);
    }
}

/// Where a planned cell reads its `(h, c)` context from — resolved at
/// compile time from the schedule (paper Fig. 10 steps 5–8).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrevSource {
    /// The genuine zero initial state (cell 0 of the layer).
    Zeros,
    /// A broken context link: inject the plan's predicted vectors
    /// (Eq. 6; zeros when link prediction is ablated).
    Predicted,
    /// The previous timestep's output, already produced by an earlier
    /// tissue or an earlier step — the schedule guarantees the order.
    Prior,
}

/// Template of a row-masked recurrent kernel (Algorithm 3 line 7):
/// `Sgemv(U_{f,i,c}, h, R)` per cell, `Sgemm(U_{f,i,c}, H, R)` per
/// tissue, or the GRU's `Sgemv(U_{r,h}, h, R)`.
///
/// The regions (and therefore the stream identity) are fixed when the
/// plan is compiled; only the mask-dependent numeric fields — FLOPs,
/// bytes, divergence, derate, skip counts — are filled in per step by
/// [`instantiate_into`](Self::instantiate_into).
#[derive(Debug, Clone, PartialEq)]
pub struct MaskedUKernel {
    label: String,
    /// Gate matrices batched into the masked GEMM: 3 for the LSTM's
    /// `U_{f,i,c}`, 2 for the GRU's `U_{r,h}`.
    gates: u64,
    hidden: u64,
    /// Cells batched into the kernel (1 per-cell, tissue size batched).
    batch: u64,
    u_region: RegionId,
    h_region: RegionId,
    out_region: RegionId,
    mode: DrsMode,
    /// Whether the on-chip traffic includes the activation operand (the
    /// LSTM tissue formulation does; the GRU per-cell one does not).
    smem_includes_act: bool,
    /// Storage precision of the `U` slice this template streams: the
    /// mask-dependent weight read shrinks by the tier's bytes-per-weight
    /// ratio (set by [`ExecutionPlan::with_precision`]; `Fp32` default).
    precision: Precision,
}

impl MaskedUKernel {
    /// Builds a template, allocating its transient input/output regions
    /// in the same order an eager builder would (`read h`, `write out`).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        label: impl Into<String>,
        gates: usize,
        hidden: usize,
        batch: usize,
        u_region: RegionId,
        mode: DrsMode,
        smem_includes_act: bool,
        alloc: &mut RegionAllocator,
    ) -> Self {
        Self {
            label: label.into(),
            gates: gates as u64,
            hidden: hidden as u64,
            batch: batch as u64,
            u_region,
            h_region: alloc.fresh(),
            out_region: alloc.fresh(),
            mode,
            smem_includes_act,
            precision: Precision::Fp32,
        }
    }

    /// The kernel's display label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Sets the weight-storage precision the template prices its `U`
    /// reads at (dequantize-on-load: only the DRAM weight read shrinks;
    /// compute, activations, and on-chip staging stay fp32-shaped).
    pub fn set_precision(&mut self, precision: Precision) {
        self.precision = precision;
    }

    /// Prices the template for `seqs` concurrent sequences sharing one
    /// weight load, given every planned cell's *active* mask:
    /// `masks` concatenates each sequence's per-cell masks
    /// (sequence-major, `seqs × batch` of them). DRAM traffic covers the
    /// union of rows *any* cell keeps (the rows must be loaded if anyone
    /// needs them) — per-tissue reuse plus cross-request amortization —
    /// while compute, activations, and writes scale with every cell's own
    /// active rows.
    ///
    /// `union` is mask scratch; `out` is overwritten field by field, its
    /// label and access-list buffers reused, so steady-state step loops
    /// never allocate. The result mirrors the [`KernelDesc::builder`]
    /// semantics exactly (zero-byte accesses are dropped, thread counts
    /// saturate, divergence/derate are clamped).
    ///
    /// # Panics
    /// Panics unless `masks.len() == seqs × batch`.
    pub fn instantiate_into(
        &self,
        masks: &[Vec<bool>],
        seqs: usize,
        union: &mut Vec<bool>,
        out: &mut KernelDesc,
    ) {
        assert_eq!(
            masks.len() as u64,
            self.batch * seqs as u64,
            "MaskedUKernel::instantiate_into: {} masks for {} sequences of batch {}",
            masks.len(),
            seqs,
            self.batch
        );
        let (g, h, t) = (self.gates, self.hidden, masks.len() as u64);
        union_active_into(masks, union);
        let union_rows = union.iter().filter(|&&a| a).count() as u64;
        let active_total: u64 = masks
            .iter()
            .map(|m| m.iter().filter(|&&a| a).count() as u64)
            .sum();
        let skipped_total = t * h - active_total;
        let mean_skip = if t * h > 0 {
            skipped_total as f64 / (t * h) as f64
        } else {
            0.0
        };
        let cost = skip_cost(self.mode, mean_skip);
        let union_bytes = self.precision.scale_bytes(g * union_rows * h * F32);
        let act_bytes = t * h * F32;
        let write_bytes = t * g * h * F32;
        let smem = g * active_total * h * F32 + if self.smem_includes_act { act_bytes } else { 0 };
        out.label.clone_from(&self.label);
        out.kind = if t > 1 {
            KernelKind::Sgemm
        } else {
            KernelKind::Sgemv
        };
        out.flops = 2 * g * active_total * h;
        out.reads.clear();
        if union_bytes > 0 {
            out.reads.push(MemAccess {
                region: self.u_region,
                bytes: union_bytes,
            });
        }
        if act_bytes > 0 {
            out.reads.push(MemAccess {
                region: self.h_region,
                bytes: act_bytes,
            });
        }
        out.writes.clear();
        if write_bytes > 0 {
            out.writes.push(MemAccess {
                region: self.out_region,
                bytes: write_bytes,
            });
        }
        out.smem_bytes = smem;
        out.threads = u32::try_from(g * h * t).unwrap_or(u32::MAX);
        out.cta_size = 256;
        out.divergence = cost.divergence.max(1.0);
        out.skipped_threads = u32::try_from(g * skipped_total).unwrap_or(u32::MAX);
        out.uses_crm = cost.uses_crm;
        out.dram_derate = cost.dram_derate.clamp(1e-3, 1.0);
        out.fused = u32::try_from(g).unwrap_or(u32::MAX).max(1);
    }
}

/// One planned cell of a sequential baseline flow (Algorithm 1 lines
/// 3–6): the recurrent `Sgemv(U, h)` plus the element-wise update.
#[derive(Debug, Clone, PartialEq)]
pub struct SeqCellPlan {
    /// The recurrent `Sgemv(U, h_{t-1})`.
    pub sgemv: KernelDesc,
    /// The element-wise cell update (`lstm_ew` / `gru_ew`).
    pub ew: KernelDesc,
}

/// One planned cell of the per-cell Dynamic-Row-Skip flow (Algorithm 3).
#[derive(Debug, Clone, PartialEq)]
pub struct DrsCellPlan {
    /// `Sgemv(U_o, h_{t-1})` — the hoisted output-gate GEMV.
    pub uo: KernelDesc,
    /// Element-wise sigmoid producing `o_t`.
    pub gate_ew: KernelDesc,
    /// The `DRS(o_t, α_intra, R)` trivial-row selection kernel.
    pub select: KernelDesc,
    /// The row-masked `Sgemv(U_{f,i,c}, h_{t-1}, R)` template.
    pub masked: MaskedUKernel,
    /// The element-wise cell update.
    pub ew: KernelDesc,
}

/// One planned cell of the GRU Dynamic-Row-Skip flow: the update gate is
/// computed first, then rows of `U_{r,h}` whose `z_t` element is trivial
/// are skipped (the cell keeps its history there).
#[derive(Debug, Clone, PartialEq)]
pub struct GruDrsCellPlan {
    /// `Sgemv(U_z, h_{t-1})` — the hoisted update-gate GEMV.
    pub uz: KernelDesc,
    /// The `DRS(z_t, α_intra, R)` selection kernel.
    pub select: KernelDesc,
    /// The row-masked `Sgemv(U_{r,h}, h_{t-1}, R)` template.
    pub masked: MaskedUKernel,
    /// The element-wise cell update.
    pub ew: KernelDesc,
}

/// The kernels of one scheduled tissue (paper Fig. 10 step 9).
// Variant sizes differ by a few KernelDescs; boxing the large variant
// would add a pointer chase on the per-tissue hot path for no real
// memory win (plans hold few of these).
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum TissueKernels {
    /// Batched execution without intra-cell skipping.
    Plain {
        /// The batched `Sgemm(U, H_t)` over the tissue's cells.
        sgemm: KernelDesc,
        /// The batched element-wise update.
        ew: KernelDesc,
    },
    /// Batched execution with Dynamic Row Skip inside the tissue.
    Drs {
        /// The batched `Sgemm(U_o, H_t)`.
        uo: KernelDesc,
        /// Element-wise sigmoid producing the tissue's `o_t` columns.
        gate_ew: KernelDesc,
        /// The `DRS` selection kernel.
        select: KernelDesc,
        /// The row-masked `Sgemm(U_{f,i,c}, H_t, R)` template.
        masked: MaskedUKernel,
        /// The batched element-wise update.
        ew: KernelDesc,
    },
}

/// One scheduled tissue: which cells it batches, where each reads its
/// context, and the kernels that execute it.
#[derive(Debug, Clone, PartialEq)]
pub struct TissuePlan {
    /// Timestep indices of the member cells, in batch order.
    pub cells: Vec<usize>,
    /// Sub-layer index of each member cell (parallel to `cells`); used to
    /// attribute profiler spans to the division that produced the tissue.
    pub sublayers: Vec<usize>,
    /// Context source per member cell (parallel to `cells`).
    pub prev: Vec<PrevSource>,
    /// The tissue's kernels.
    pub kernels: TissueKernels,
}

/// Structural statistics of one planned LSTM layer — the compile-time
/// half of the run statistics (the runtime half is skip accounting).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PlanLayerStats {
    /// Context links broken by the breakpoint search.
    pub breakpoints: usize,
    /// Sub-layers after division.
    pub sublayers: usize,
    /// Scheduled tissues (sequential kernel rounds).
    pub tissues: usize,
    /// Mean cells per tissue (the parallelism win).
    pub mean_tissue_size: f64,
}

/// The planned body of one LSTM layer — which execution flow it compiles
/// to and the pre-built kernels for it.
#[allow(clippy::large_enum_variant)] // one LayerBody per layer; boxing buys nothing
#[derive(Debug, Clone, PartialEq)]
pub enum LayerBody {
    /// Algorithm 1: strictly sequential per-cell execution.
    Baseline {
        /// One entry per timestep.
        cells: Vec<SeqCellPlan>,
    },
    /// Algorithm 3 on the sequential schedule: per-cell Dynamic Row
    /// Skip.
    Drs {
        /// The `α_intra` threshold the runtime masks with.
        alpha_intra: f32,
        /// One entry per timestep.
        cells: Vec<DrsCellPlan>,
    },
    /// The reorganized layer (paper Fig. 10): offline breakpoints and
    /// tissues, optionally with in-tissue Dynamic Row Skip.
    Tissues {
        /// The offline relevance-analysis + breakpoint-search kernel.
        search: KernelDesc,
        /// The Eq. 6 link-prediction kernel (absent when no links broke).
        link: Option<KernelDesc>,
        /// The `α_intra` threshold; only read when `tissues` carry
        /// [`TissueKernels::Drs`].
        alpha_intra: f32,
        /// Predicted hidden state injected at broken links.
        predicted_h: Vector,
        /// Predicted cell state injected at broken links.
        predicted_c: Vector,
        /// The scheduled tissues, in execution order.
        tissues: Vec<TissuePlan>,
    },
}

/// Lowers layer `l`'s Algorithm 1 per-cell flow: one `Sgemv(U_fico, h)`
/// and one `lstm_ew` per timestep. [`ExecutionPlan::compile_baseline`] and
/// an optimizing compiler with both levels off both build layers here.
pub fn baseline_layer(
    l: usize,
    hidden: usize,
    seq_len: usize,
    regions: &LayerRegions,
    alloc: &mut RegionAllocator,
) -> (LayerBody, PlanLayerStats) {
    let cells = (0..seq_len)
        .map(|t| SeqCellPlan {
            sgemv: u_sgemv_kernel(
                format!("Sgemv(U_fico,h) l{l} t{t}"),
                regions.u_full,
                4 * hidden,
                hidden,
                alloc,
            ),
            ew: ew_kernel(format!("lstm_ew l{l} t{t}"), hidden, 1, alloc),
        })
        .collect();
    let stats = PlanLayerStats {
        breakpoints: 0,
        sublayers: 1,
        tissues: seq_len,
        mean_tissue_size: 1.0,
    };
    (LayerBody::Baseline { cells }, stats)
}

/// One planned LSTM layer.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerPlan {
    /// The per-layer `Sgemm(W, x)` (Algorithm 1 line 2 — shared by every
    /// flow).
    pub wx: KernelDesc,
    /// The flow-specific body.
    pub body: LayerBody,
    /// Structural statistics of the planned body.
    pub stats: PlanLayerStats,
}

/// The planned body of one GRU layer.
#[derive(Debug, Clone, PartialEq)]
pub enum GruLayerBody {
    /// The cuDNN-style sequential schedule.
    Baseline {
        /// One entry per timestep.
        cells: Vec<SeqCellPlan>,
    },
    /// Per-cell Dynamic Row Skip driven by the update gate.
    Drs {
        /// The `α_intra` threshold the runtime masks with.
        alpha_intra: f32,
        /// One entry per timestep.
        cells: Vec<GruDrsCellPlan>,
    },
}

/// One planned GRU layer.
#[derive(Debug, Clone, PartialEq)]
pub struct GruLayerPlan {
    /// The per-layer `Sgemm(W_{r,z,h}, x)`.
    pub wx: KernelDesc,
    /// The flow-specific body.
    pub body: GruLayerBody,
}

/// The layer stack of a plan — LSTM and GRU plans share the envelope
/// (regions, head, runtime) and differ only here.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanBody {
    /// An LSTM network's layers.
    Lstm(Vec<LayerPlan>),
    /// A GRU network's layers.
    Gru(Vec<GruLayerPlan>),
}

/// A compiled execution plan: every offline decision and kernel template
/// needed to execute a network, as pure data.
///
/// Compile once per (network, thresholds, maximum tissue size); execute
/// many times with a [`PlanRuntime`]. The plan is independent of any
/// particular input sequence except its length — the optimized compilers
/// in `memlstm` analyze a *probe* sequence to fix the schedule, exactly
/// the paper's offline phase.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionPlan {
    /// Persistent weight regions the plan's kernels read.
    pub regions: NetworkRegions,
    /// Sequence length the plan was compiled for.
    pub seq_len: usize,
    /// The per-layer plans.
    pub body: PlanBody,
    /// The classifier-head kernel.
    pub head: KernelDesc,
    /// Device the plan was compiled for. Thresholds, tissue sizes and
    /// kernel shapes encode this device's bandwidth ratios, so pricing
    /// layers (profiling, serving, evaluation) refuse to run the plan on
    /// a different device.
    pub device: DeviceModel,
    /// Weight-storage precision the plan executes and prices at. `Fp32`
    /// by default — quantization is strictly opt-in via
    /// [`with_precision`](Self::with_precision), which also rescales
    /// every gate-weight DRAM read in the kernel stream.
    pub precision: Precision,
}

impl ExecutionPlan {
    /// Compiles the Algorithm 1 baseline flow for an LSTM network on
    /// `device`.
    ///
    /// # Panics
    /// Panics if `seq_len` is zero.
    pub fn compile_baseline(net: &LstmNetwork, seq_len: usize, device: &DeviceModel) -> Self {
        assert!(
            seq_len > 0,
            "ExecutionPlan::compile_baseline: zero-length sequence"
        );
        let cfg = net.config();
        let mut alloc = RegionAllocator::new();
        let regions = NetworkRegions::allocate(&mut alloc, cfg.num_layers);
        let mut layers = Vec::with_capacity(cfg.num_layers);
        for (l, layer) in net.layers().iter().enumerate() {
            let wx = wx_sgemm_kernel(
                l,
                regions.layers[l].w,
                layer.hidden(),
                layer.input_dim(),
                seq_len,
                &mut alloc,
            );
            let (body, stats) =
                baseline_layer(l, layer.hidden(), seq_len, &regions.layers[l], &mut alloc);
            layers.push(LayerPlan { wx, body, stats });
        }
        let head = head_kernel(regions.head, cfg.num_classes, cfg.hidden_size, &mut alloc);
        Self {
            regions,
            seq_len,
            body: PlanBody::Lstm(layers),
            head,
            device: device.clone(),
            precision: Precision::Fp32,
        }
    }

    /// Compiles the cuDNN-style baseline flow for a GRU network on
    /// `device`.
    ///
    /// # Panics
    /// Panics if `seq_len` is zero.
    pub fn compile_gru_baseline(net: &GruNetwork, seq_len: usize, device: &DeviceModel) -> Self {
        assert!(
            seq_len > 0,
            "ExecutionPlan::compile_gru_baseline: zero-length sequence"
        );
        let hidden = net.hidden();
        let num_layers = net.layers().len();
        let mut alloc = RegionAllocator::new();
        let regions = NetworkRegions::allocate(&mut alloc, num_layers);
        let mut layers = Vec::with_capacity(num_layers);
        for (l, layer) in net.layers().iter().enumerate() {
            let wx = gru_wx_sgemm_kernel(
                l,
                regions.layers[l].w,
                hidden,
                layer.input_dim(),
                seq_len,
                &mut alloc,
            );
            let cells = (0..seq_len)
                .map(|t| {
                    let mut sgemv = u_sgemv_kernel(
                        format!("Sgemv(U_rzh,h) l{l} t{t}"),
                        regions.layers[l].u_full,
                        3 * hidden,
                        hidden,
                        &mut alloc,
                    );
                    // The candidate term multiplies U_h by (r ⊙ h): one
                    // extra element-wise pass folded into the GEMV.
                    sgemv.flops += 2 * hidden as u64;
                    SeqCellPlan {
                        sgemv,
                        ew: ew_kernel(format!("gru_ew l{l} t{t}"), hidden, 1, &mut alloc),
                    }
                })
                .collect();
            layers.push(GruLayerPlan {
                wx,
                body: GruLayerBody::Baseline { cells },
            });
        }
        let head = head_kernel(regions.head, net.num_classes(), hidden, &mut alloc);
        Self {
            regions,
            seq_len,
            body: PlanBody::Gru(layers),
            head,
            device: device.clone(),
            precision: Precision::Fp32,
        }
    }

    /// Re-prices a freshly compiled plan for a reduced weight-storage
    /// precision: every DRAM read of a packed gate-weight region
    /// (`U_full`/`U_o`/`U_fic`/`W` — biases and the classifier head stay
    /// fp32) shrinks by the tier's bytes-per-weight ratio, the masked
    /// templates price their mask-dependent reads at the tier, and the
    /// runtime executes on weights rounded to the tier. FLOPs,
    /// activations, and on-chip staging are unchanged (weights are
    /// dequantized as they stream through the core).
    ///
    /// Apply exactly once, on a plan straight out of a compiler;
    /// `with_precision(Precision::Fp32)` is the identity.
    #[must_use]
    pub fn with_precision(mut self, precision: Precision) -> Self {
        if precision == self.precision {
            return self;
        }
        assert_eq!(
            self.precision,
            Precision::Fp32,
            "with_precision: plan already re-priced at {}",
            self.precision
        );
        self.precision = precision;
        let regions = &self.regions;
        let scale = |kernel: &mut KernelDesc, regions: &NetworkRegions| {
            for read in &mut kernel.reads {
                if regions.is_gate_weight(read.region) {
                    read.bytes = precision.scale_bytes(read.bytes);
                }
            }
        };
        match &mut self.body {
            PlanBody::Lstm(layers) => {
                for lp in layers {
                    scale(&mut lp.wx, regions);
                    match &mut lp.body {
                        LayerBody::Baseline { cells } => {
                            for cell in cells {
                                scale(&mut cell.sgemv, regions);
                            }
                        }
                        LayerBody::Drs { cells, .. } => {
                            for cell in cells {
                                scale(&mut cell.uo, regions);
                                cell.masked.set_precision(precision);
                            }
                        }
                        LayerBody::Tissues {
                            search,
                            link,
                            tissues,
                            ..
                        } => {
                            scale(search, regions);
                            if let Some(k) = link {
                                scale(k, regions);
                            }
                            for tp in tissues {
                                match &mut tp.kernels {
                                    TissueKernels::Plain { sgemm, .. } => scale(sgemm, regions),
                                    TissueKernels::Drs { uo, masked, .. } => {
                                        scale(uo, regions);
                                        masked.set_precision(precision);
                                    }
                                }
                            }
                        }
                    }
                }
            }
            PlanBody::Gru(layers) => {
                for lp in layers {
                    scale(&mut lp.wx, regions);
                    match &mut lp.body {
                        GruLayerBody::Baseline { cells } => {
                            for cell in cells {
                                scale(&mut cell.sgemv, regions);
                            }
                        }
                        GruLayerBody::Drs { cells, .. } => {
                            for cell in cells {
                                scale(&mut cell.uz, regions);
                                cell.masked.set_precision(precision);
                            }
                        }
                    }
                }
            }
        }
        self
    }

    /// Per-layer structural statistics (empty for GRU plans, which do not
    /// report layer reorganization).
    pub fn layer_stats(&self) -> Vec<PlanLayerStats> {
        match &self.body {
            PlanBody::Lstm(layers) => layers.iter().map(|l| l.stats).collect(),
            PlanBody::Gru(_) => Vec::new(),
        }
    }
}

/// Per-layer skip accounting accumulated by a run — the runtime half of
/// the statistics (the structural half is [`PlanLayerStats`]).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SkipStats {
    /// Sum of per-cell skip fractions.
    pub sum: f64,
    /// Number of cells that contributed.
    pub count: usize,
}

impl SkipStats {
    /// Mean skip fraction over the contributing cells (0 when none did).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    pub(crate) fn push(&mut self, frac: f64) {
        self.sum += frac;
        self.count += 1;
    }
}

/// Numeric results of one plan execution.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanOutput {
    /// Hidden outputs per layer, per timestep.
    pub layer_hs: Vec<Vec<Vector>>,
    /// Task-head logits.
    pub logits: Vector,
    /// Per-layer skip accounting (all zeros for flows without Dynamic
    /// Row Skip).
    pub layer_skips: Vec<SkipStats>,
}

impl Default for PlanOutput {
    fn default() -> Self {
        Self {
            layer_hs: Vec::new(),
            logits: Vector::zeros(0),
            layer_skips: Vec::new(),
        }
    }
}

impl PlanOutput {
    /// An empty output shell for the `_into` runtime entry points; the
    /// buffers grow on first run and are recycled afterwards.
    pub fn new() -> Self {
        Self::default()
    }

    /// The argmax class of the logits.
    ///
    /// # Panics
    /// Panics if the logits are empty (the head always has `>= 1` class).
    pub fn predicted_class(&self) -> usize {
        self.logits
            .argmax()
            .expect("head produces at least one logit")
    }

    /// Mean skip fraction across every masked cell of the run.
    pub fn mean_skip_fraction(&self) -> f64 {
        let sum: f64 = self.layer_skips.iter().map(|s| s.sum).sum();
        let count: usize = self.layer_skips.iter().map(|s| s.count).sum();
        if count == 0 {
            0.0
        } else {
            sum / count as f64
        }
    }
}

/// Executes [`ExecutionPlan`]s over streaming inputs — the one runtime
/// behind every solo run, serving gang, and plan-compile probe.
///
/// An LSTM plan runs on B sequences ("lanes") in lockstep through the
/// lane-generic interpreter in [`crate::batch`]; a solo run
/// ([`run_lstm`](Self::run_lstm)) is the batch of one and emits the
/// planned kernels as they are. GRU plans run one sequence at a time
/// ([`run_gru`](Self::run_gru)).
///
/// The runtime owns one [`Workspace`] and one `W·x` pre-activation
/// buffer per lane plus one cross-lane scratch (the lane-major mask list,
/// its union, and the recycled kernel descriptors), reusing all of them
/// across executions: a warm plan-once / evaluate-many loop performs
/// no per-run planning work and zero heap allocations per steady-state
/// timestep.
#[derive(Debug, Default)]
pub struct PlanRuntime {
    pub(crate) wx: Vec<Vec<GatePreacts>>,
    pub(crate) ws: Vec<Workspace>,
    pub(crate) shared: SharedScratch,
}

impl PlanRuntime {
    /// Creates a runtime with empty scratch buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grows the per-lane buffers to at least `lanes` (never shrinks, so
    /// gangs of varying size reuse the same workspaces).
    pub(crate) fn reserve_lanes(&mut self, lanes: usize) {
        if self.ws.len() < lanes {
            self.ws.resize_with(lanes, Workspace::new);
            self.wx.resize_with(lanes, Vec::new);
        }
    }

    /// Executes a GRU plan on `xs`, streaming kernels into `sink`.
    ///
    /// Allocating convenience wrapper over
    /// [`run_gru_into`](Self::run_gru_into).
    ///
    /// # Panics
    /// Panics if `xs` is empty, if its length differs from the plan's
    /// compiled sequence length, or if the plan was compiled for an LSTM
    /// network or a different layer count.
    pub fn run_gru(
        &mut self,
        plan: &ExecutionPlan,
        net: &GruNetwork,
        xs: &[Vector],
        sink: &mut impl KernelSink,
    ) -> PlanOutput {
        let mut out = PlanOutput::new();
        self.run_gru_into(plan, net, xs, sink, &mut out);
        out
    }

    /// [`run_gru`](Self::run_gru) into a recycled [`PlanOutput`].
    /// Bit-identical numerics and an identical kernel stream.
    ///
    /// # Panics
    /// As [`run_gru`](Self::run_gru).
    pub fn run_gru_into(
        &mut self,
        plan: &ExecutionPlan,
        net: &GruNetwork,
        xs: &[Vector],
        sink: &mut impl KernelSink,
        out: &mut PlanOutput,
    ) {
        assert!(!xs.is_empty(), "PlanRuntime::run_gru: empty input");
        assert_eq!(
            xs.len(),
            plan.seq_len,
            "plan compiled for sequence length {}, got {}",
            plan.seq_len,
            xs.len()
        );
        let PlanBody::Gru(layer_plans) = &plan.body else {
            panic!("PlanRuntime::run_gru: plan was compiled for an LSTM network");
        };
        assert_eq!(
            layer_plans.len(),
            net.layers().len(),
            "plan/network layer count mismatch"
        );

        let hidden = net.hidden();
        self.reserve_lanes(1);
        out.layer_hs.resize_with(layer_plans.len(), Vec::new);
        out.layer_skips.clear();
        out.layer_skips
            .resize(layer_plans.len(), SkipStats::default());
        for (l, (lp, layer)) in layer_plans.iter().zip(net.layers()).enumerate() {
            sink.begin_layer(l);
            sink.tag(SpanTag::wx(l));
            sink.emit(&lp.wx);
            let (done, rest) = out.layer_hs.split_at_mut(l);
            let current: &[Vector] = if l == 0 { xs } else { &done[l - 1] };
            Self::execute_gru_body_into(
                l,
                plan.precision,
                &lp.body,
                layer,
                hidden,
                current,
                &mut self.ws[0],
                &mut self.shared,
                sink,
                &mut out.layer_skips[l],
                &mut rest[0],
            );
        }
        sink.begin_tail();
        sink.tag(SpanTag::head());
        sink.emit(&plan.head);
        let h_final = out
            .layer_hs
            .last()
            .and_then(|hs| hs.last())
            .expect("non-empty sequence");
        net.apply_head_into(h_final, &mut out.logits);
    }

    #[allow(clippy::too_many_arguments)] // internal: the workspace split needs each piece
    fn execute_gru_body_into(
        layer: usize,
        precision: Precision,
        body: &GruLayerBody,
        weights: &GruWeights,
        hidden: usize,
        xs: &[Vector],
        ws: &mut Workspace,
        shared: &mut SharedScratch,
        sink: &mut impl KernelSink,
        skips: &mut SkipStats,
        hs_out: &mut Vec<Vector>,
    ) {
        match body {
            GruLayerBody::Baseline { cells } => {
                assert_eq!(cells.len(), xs.len(), "plan/input length mismatch");
                ws.h.resize_fill(hidden, 0.0);
                hs_out.resize_with(xs.len(), || Vector::zeros(0));
                for (t, (cell, x)) in cells.iter().zip(xs).enumerate() {
                    sink.tag(SpanTag::cells(layer, t));
                    sink.emit(&cell.sgemv);
                    weights.step_into(precision, x, &ws.h, &mut ws.gru, &mut ws.h_next);
                    mem::swap(&mut ws.h, &mut ws.h_next);
                    hs_out[t].clone_from(&ws.h);
                    sink.emit(&cell.ew);
                }
            }
            GruLayerBody::Drs { alpha_intra, cells } => {
                assert_eq!(cells.len(), xs.len(), "plan/input length mismatch");
                ws.h.resize_fill(hidden, 0.0);
                hs_out.resize_with(xs.len(), || Vector::zeros(0));
                if shared.all_masks.is_empty() {
                    shared.all_masks.push(Vec::new());
                }
                let SharedScratch {
                    all_masks,
                    union_mask,
                    masked_desc,
                    ..
                } = shared;
                let active = &mut all_masks[..1];
                for (t, (cell, x)) in cells.iter().zip(xs).enumerate() {
                    sink.tag(SpanTag::cells(layer, t));
                    sink.emit(&cell.uz);
                    weights.update_gate_into(precision, x, &ws.h, &mut ws.gru, &mut ws.gate);
                    sink.emit(&cell.select);
                    trivial_row_mask_into(&ws.gate, *alpha_intra, &mut active[0]);
                    skips.push(skip_fraction(&active[0]));
                    cell.masked
                        .instantiate_into(active, 1, union_mask, masked_desc);
                    sink.emit(masked_desc);
                    sink.emit(&cell.ew);
                    weights.step_masked_into(
                        precision,
                        x,
                        &ws.h,
                        &ws.gate,
                        &active[0],
                        &mut ws.gru,
                        &mut ws.h_next,
                    );
                    mem::swap(&mut ws.h, &mut ws.h_next);
                    hs_out[t].clone_from(&ws.h);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use gpu_sim::{GpuConfig, GpuDevice};
    use rand::Rng;
    use tensor::init::seeded_rng;

    fn setup() -> (LstmNetwork, Vec<Vector>) {
        let config = ModelConfig::new("test", 12, 24, 2, 8, 3).unwrap();
        let mut rng = seeded_rng(11);
        let net = LstmNetwork::random(&config, &mut rng);
        let xs = crate::random_inputs(&config, &mut rng);
        (net, xs)
    }

    #[test]
    fn baseline_plan_matches_exact_forward() {
        let (net, xs) = setup();
        let plan = ExecutionPlan::compile_baseline(&net, xs.len(), &DeviceModel::default_preset());
        let out = PlanRuntime::new().run_lstm(&plan, &net, &xs, &mut NullSink);
        assert_eq!(out, net.forward(&xs));
        assert_eq!(out.mean_skip_fraction(), 0.0);
    }

    #[test]
    fn pricing_sink_matches_batch_pricing() {
        let (net, xs) = setup();
        let plan = ExecutionPlan::compile_baseline(&net, xs.len(), &DeviceModel::default_preset());
        let mut runtime = PlanRuntime::new();
        let mut trace: Vec<KernelDesc> = Vec::new();
        runtime.run_lstm(&plan, &net, &xs, &mut trace);

        let mut batch_dev = GpuDevice::new(GpuConfig::tegra_x1());
        let batch = batch_dev.run_trace(trace.iter());

        let mut stream_dev = GpuDevice::new(GpuConfig::tegra_x1());
        let mut session = stream_dev.begin_trace();
        runtime.run_lstm(&plan, &net, &xs, &mut session);
        let streamed = session.finish();
        assert_eq!(batch, streamed);
    }

    #[test]
    fn gru_baseline_plan_matches_exact_forward() {
        let mut rng = seeded_rng(5);
        let net = GruNetwork::random(10, 14, 2, 4, &mut rng);
        let xs: Vec<Vector> = (0..7)
            .map(|_| Vector::from_fn(10, |_| rng.gen_range(-1.0f32..1.0)))
            .collect();
        let plan =
            ExecutionPlan::compile_gru_baseline(&net, xs.len(), &DeviceModel::default_preset());
        let out = PlanRuntime::new().run_gru(&plan, &net, &xs, &mut NullSink);
        assert_eq!(out, net.forward(&xs));
    }

    fn price(k: &MaskedUKernel, masks: &[Vec<bool>], seqs: usize) -> KernelDesc {
        let mut out = KernelDesc::builder(String::new(), KernelKind::Other).build();
        k.instantiate_into(masks, seqs, &mut Vec::new(), &mut out);
        out
    }

    #[test]
    fn masked_template_full_mask_prices_all_rows() {
        let mut alloc = RegionAllocator::new();
        let u = alloc.fresh();
        let k = MaskedUKernel::new("m", 3, 8, 1, u, DrsMode::Hardware, true, &mut alloc);
        let full = price(&k, &[vec![true; 8]], 1);
        assert_eq!(full.flops, 2 * 3 * 8 * 8);
        assert_eq!(full.reads[0].bytes, 3 * 8 * 8 * F32);
        assert_eq!(full.divergence, 1.0);
        assert!(!full.uses_crm);

        let half: Vec<bool> = (0..8).map(|i| i < 4).collect();
        let masked = price(&k, &[half], 1);
        assert_eq!(masked.flops, full.flops / 2);
        assert!(masked.reads[0].bytes < full.reads[0].bytes);
        assert!(masked.uses_crm);
        // The stream identity (label, regions) is unchanged by the mask.
        assert_eq!(masked.label, full.label);
        assert_eq!(masked.reads[0].region, full.reads[0].region);
        assert_eq!(masked.writes[0].region, full.writes[0].region);
    }

    #[test]
    fn masked_template_prices_union_across_sequences() {
        let mut alloc = RegionAllocator::new();
        let u = alloc.fresh();
        let k = MaskedUKernel::new("m", 3, 8, 1, u, DrsMode::Hardware, true, &mut alloc);
        // Two sequences with disjoint active halves: the weight read
        // covers the union (all rows), compute covers each half.
        let lo: Vec<bool> = (0..8).map(|i| i < 4).collect();
        let hi: Vec<bool> = (0..8).map(|i| i >= 4).collect();
        let priced = price(&k, &[lo, hi], 2);
        assert_eq!(priced.reads[0].bytes, 3 * 8 * 8 * F32);
        assert_eq!(priced.flops, 2 * 3 * 8 * 8); // 2 x half the rows
        assert_eq!(priced.kind, KernelKind::Sgemm);
    }

    #[test]
    #[should_panic(expected = "2 masks for 1 sequences of batch 1")]
    fn masked_template_rejects_mask_count_mismatch() {
        let mut alloc = RegionAllocator::new();
        let u = alloc.fresh();
        let k = MaskedUKernel::new("m", 3, 8, 1, u, DrsMode::Hardware, true, &mut alloc);
        price(&k, &[vec![true; 8], vec![true; 8]], 1);
    }

    #[test]
    fn with_precision_fp32_is_the_identity() {
        let (net, xs) = setup();
        let plan = ExecutionPlan::compile_baseline(&net, xs.len(), &DeviceModel::default_preset());
        let same = plan.clone().with_precision(Precision::Fp32);
        assert_eq!(plan, same);
    }

    #[test]
    fn quantized_plan_shrinks_gate_weight_reads_only() {
        let (net, xs) = setup();
        let fp32 = ExecutionPlan::compile_baseline(&net, xs.len(), &DeviceModel::default_preset());
        let int8 = fp32.clone().with_precision(Precision::Int8);
        assert_eq!(int8.precision, Precision::Int8);
        let (PlanBody::Lstm(a), PlanBody::Lstm(b)) = (&fp32.body, &int8.body) else {
            unreachable!()
        };
        for (la, lb) in a.iter().zip(b) {
            // The Sgemm(W,x) weight read shrinks 4x; activations don't.
            assert_eq!(lb.wx.reads[0].bytes * 4, la.wx.reads[0].bytes);
            assert_eq!(lb.wx.reads[1].bytes, la.wx.reads[1].bytes);
            assert_eq!(lb.wx.flops, la.wx.flops);
            let (LayerBody::Baseline { cells: ca }, LayerBody::Baseline { cells: cb }) =
                (&la.body, &lb.body)
            else {
                unreachable!()
            };
            for (sa, sb) in ca.iter().zip(cb) {
                assert_eq!(sb.sgemv.reads[0].bytes * 4, sa.sgemv.reads[0].bytes);
            }
        }
        // The classifier head stays fp32.
        assert_eq!(int8.head, fp32.head);
        // Pricing: the quantized plan is strictly cheaper on-device.
        let mut runtime = PlanRuntime::new();
        let mut dev32 = GpuDevice::new(GpuConfig::tegra_x1());
        let mut s32 = dev32.begin_trace();
        runtime.run_lstm(&fp32, &net, &xs, &mut s32);
        let t32 = s32.finish().time_s;
        let mut dev8 = GpuDevice::new(GpuConfig::tegra_x1());
        let mut s8 = dev8.begin_trace();
        runtime.run_lstm(&int8, &net, &xs, &mut s8);
        let t8 = s8.finish().time_s;
        assert!(
            t8 < t32,
            "int8 weight traffic must price cheaper: {t8} vs {t32}"
        );
    }

    #[test]
    fn quantized_plan_runs_deterministically_and_close_to_fp32() {
        let (net, xs) = setup();
        let fp32 = ExecutionPlan::compile_baseline(&net, xs.len(), &DeviceModel::default_preset());
        let exact = PlanRuntime::new().run_lstm(&fp32, &net, &xs, &mut NullSink);
        for p in [Precision::Fp16, Precision::Int8] {
            let quant = fp32.clone().with_precision(p);
            let a = PlanRuntime::new().run_lstm(&quant, &net, &xs, &mut NullSink);
            let b = PlanRuntime::new().run_lstm(&quant, &net, &xs, &mut NullSink);
            assert_eq!(a, b, "quantized run must be bit-deterministic ({p})");
            for (la, le) in a.logits.iter().zip(exact.logits.iter()) {
                assert!((la - le).abs() < 0.35, "{p} logits drifted: {la} vs {le}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "already re-priced")]
    fn double_quantization_rejected() {
        let (net, xs) = setup();
        let _ = ExecutionPlan::compile_baseline(&net, xs.len(), &DeviceModel::default_preset())
            .with_precision(Precision::Int8)
            .with_precision(Precision::Fp16);
    }

    #[test]
    #[should_panic(expected = "sequence length")]
    fn wrong_length_input_rejected() {
        let (net, xs) = setup();
        let plan =
            ExecutionPlan::compile_baseline(&net, xs.len() + 1, &DeviceModel::default_preset());
        PlanRuntime::new().run_lstm(&plan, &net, &xs, &mut NullSink);
    }

    #[test]
    #[should_panic(expected = "empty input")]
    fn empty_input_rejected() {
        let (net, _) = setup();
        let plan = ExecutionPlan::compile_baseline(&net, 4, &DeviceModel::default_preset());
        PlanRuntime::new().run_lstm(&plan, &net, &[], &mut NullSink);
    }
}
