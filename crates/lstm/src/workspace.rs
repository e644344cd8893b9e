//! The reusable step-loop scratch: every transient buffer the runtime
//! touches per timestep, allocated once and recycled across runs.
//!
//! The paper's premise is that the recurrent loop is launch-bound and
//! bandwidth-bound; the host-side analogue of that waste is per-step heap
//! churn. A [`PlanRuntime`](crate::plan::PlanRuntime) owns one
//! [`Workspace`] per lane (the fused gate slab, the `(h, c)` double
//! buffers, the tissue slots and per-cell masks of one sequence) plus one
//! shared scratch for what the lanes price together (the lane-major mask
//! list, its union, and the recycled kernel descriptors), so a warm
//! runtime performs zero heap allocations per steady-state timestep
//! (asserted by the `alloc_audit` bench).

use crate::cell::CellScratch;
use crate::gru::GruScratch;
use gpu_sim::{KernelDesc, KernelKind};
use tensor::Vector;

/// Recycled buffers for one lane (sequence) of an executing layer body.
///
/// Every field is scratch: the contents carry no meaning between runs,
/// only the capacity. The runtime resizes (never reallocates, once warm)
/// at the start of each layer and overwrites in place per timestep.
#[derive(Debug)]
pub struct Workspace {
    /// LSTM cell scratch: the fused `U` gate slab plus the row-gather
    /// panel used by masked GEMVs.
    pub(crate) cell: CellScratch,
    /// GRU scratch: per-gate slabs, `r`, `z`, and `r ⊙ h` buffers.
    pub(crate) gru: GruScratch,
    /// Hidden-state double buffer (current side).
    pub(crate) h: Vector,
    /// Cell-state double buffer (current side).
    pub(crate) c: Vector,
    /// Hidden-state double buffer (next side, swapped each step).
    pub(crate) h_next: Vector,
    /// Cell-state double buffer (next side, swapped each step).
    pub(crate) c_next: Vector,
    /// The hoisted gate driving Dynamic Row Skip: `o_t` for the LSTM,
    /// `z_t` for the GRU.
    pub(crate) gate: Vector,
    /// Per-cell output gates of one tissue (parallel to its cells).
    pub(crate) os: Vec<Vector>,
    /// Per-cell active masks of one tissue (parallel to its cells).
    pub(crate) masks: Vec<Vec<bool>>,
    /// Per-timestep hidden outputs of a reorganized layer.
    pub(crate) h_slots: Vec<Vector>,
    /// Per-timestep cell outputs of a reorganized layer.
    pub(crate) c_slots: Vec<Vector>,
    /// Which slots have been produced so far (schedule-order guard).
    pub(crate) filled: Vec<bool>,
    /// The genuine zero initial hidden state, sized per layer.
    pub(crate) zero_h: Vector,
    /// The genuine zero initial cell state, sized per layer.
    pub(crate) zero_c: Vector,
}

impl Workspace {
    /// Creates an empty workspace; buffers grow on first use and are
    /// reused afterwards.
    pub fn new() -> Self {
        Self {
            cell: CellScratch::new(),
            gru: GruScratch::new(),
            h: Vector::zeros(0),
            c: Vector::zeros(0),
            h_next: Vector::zeros(0),
            c_next: Vector::zeros(0),
            gate: Vector::zeros(0),
            os: Vec::new(),
            masks: Vec::new(),
            h_slots: Vec::new(),
            c_slots: Vec::new(),
            filled: Vec::new(),
            zero_h: Vector::zeros(0),
            zero_c: Vector::zeros(0),
        }
    }
}

impl Default for Workspace {
    fn default() -> Self {
        Self::new()
    }
}

/// The runtime's cross-lane recycled scratch.
#[derive(Debug)]
pub(crate) struct SharedScratch {
    /// Per-cell active masks of every lane, lane-major: what one masked
    /// kernel prices over (`DRS(gate, α_intra, R)` outputs).
    pub(crate) all_masks: Vec<Vec<bool>>,
    /// Column-wise union of the masks a masked kernel prices over.
    pub(crate) union_mask: Vec<bool>,
    /// The descriptor masked templates are instantiated into.
    pub(crate) masked_desc: KernelDesc,
    /// The descriptor planned kernels are batched into.
    pub(crate) batched: KernelDesc,
}

impl Default for SharedScratch {
    fn default() -> Self {
        Self {
            all_masks: Vec::new(),
            union_mask: Vec::new(),
            masked_desc: KernelDesc::builder(String::new(), KernelKind::Other).build(),
            batched: KernelDesc::builder(String::new(), KernelKind::Other).build(),
        }
    }
}
