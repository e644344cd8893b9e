//! The reusable step-loop scratch: every transient buffer the runtime
//! touches per timestep, allocated once and recycled across runs.
//!
//! The paper's premise is that the recurrent loop is launch-bound and
//! bandwidth-bound; the host-side analogue of that waste is per-step heap
//! churn. A [`PlanRuntime`](crate::plan::PlanRuntime) owns one
//! [`Workspace`] per lane (the cell's step slab, and the per-timestep
//! cell states, hoisted gates and masks a layer's tissues fill, for LSTM
//! and GRU layers alike) plus one shared scratch for what the lanes share
//! (the lane-major mask list, its union, the recycled kernel descriptors,
//! and the columns of a tissue's lockstep recurrent product), so a warm
//! runtime performs zero heap allocations per steady-state timestep
//! (asserted by the `alloc_audit` bench).

use crate::cell::CellScratch;
use gpu_sim::{KernelDesc, KernelKind};
use tensor::Vector;

/// Recycled buffers for one lane (sequence) of an executing layer body.
///
/// Every field is scratch: the contents carry no meaning between runs,
/// only the capacity. The runtime resizes (never reallocates, once warm)
/// at the start of each layer and overwrites in place per timestep.
#[derive(Debug)]
pub struct Workspace {
    /// Cell scratch: the `U·h` slab of one step.
    pub(crate) cell: CellScratch,
    /// Per-cell hoisted gates of one tissue — the LSTM's `o_t` or the
    /// GRU's `z_t` — in its first entries (grown, never shrunk).
    pub(crate) os: Vec<Vector>,
    /// Per-cell active masks of one tissue, as `os`.
    pub(crate) masks: Vec<Vec<bool>>,
    /// Per-timestep cell states of an LSTM layer (its hidden outputs are
    /// written straight into the run's `PlanOutput::layer_hs`; a GRU
    /// layer leaves these untouched).
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
            os: Vec::new(),
            masks: Vec::new(),
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
    /// The columns of a tissue's lockstep recurrent product.
    pub(crate) lockstep: Lockstep,
}

/// The recycled columns of a dense tissue's lockstep step: one column
/// per lane per cell, lane-major, each slab grown and never shrunk.
#[derive(Debug, Default)]
pub(crate) struct Lockstep {
    /// Every column's previous hidden state.
    pub(crate) h_prev: Vec<Vector>,
    /// Every column's recurrent products, as the cell lays them out.
    pub(crate) uh: Vec<f32>,
}

impl Default for SharedScratch {
    fn default() -> Self {
        Self {
            all_masks: Vec::new(),
            union_mask: Vec::new(),
            masked_desc: KernelDesc::builder(String::new(), KernelKind::Other).build(),
            batched: KernelDesc::builder(String::new(), KernelKind::Other).build(),
            lockstep: Lockstep::default(),
        }
    }
}
