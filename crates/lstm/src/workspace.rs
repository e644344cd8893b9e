//! The reusable step-loop scratch: every transient buffer the runtime
//! touches per timestep, allocated once and recycled across runs.
//!
//! The paper's premise is that the recurrent loop is launch-bound and
//! bandwidth-bound; the host-side analogue of that waste is per-step heap
//! churn. A [`PlanRuntime`](crate::plan::PlanRuntime) keeps per lane only
//! what differs between lanes — its `W·x` terms and its per-timestep cell
//! states — and one [`SharedScratch`] for the rest: the recycled kernel
//! descriptors and mask union the lanes are priced through, and the tissue
//! walk's state ([`Walk`]), which is the same for every lane (the layer's
//! zero states, its `filled` flags, one cell scratch) or holds one tissue's
//! columns, one per lane per cell, lane-major. So a warm runtime performs
//! zero heap allocations per steady-state timestep (asserted by the
//! `alloc_audit` bench).

use crate::cell::CellScratch;
use gpu_sim::{KernelDesc, KernelKind};
use tensor::Vector;

/// The runtime's cross-lane recycled scratch.
#[derive(Debug)]
pub(crate) struct SharedScratch {
    /// Column-wise union of the masks a masked kernel prices over.
    pub(crate) union_mask: Vec<bool>,
    /// The descriptor masked templates are instantiated into.
    pub(crate) masked_desc: KernelDesc,
    /// The descriptor planned kernels are batched into.
    pub(crate) batched: KernelDesc,
    /// The tissue walk's state.
    pub(crate) walk: Walk,
}

impl Default for SharedScratch {
    fn default() -> Self {
        Self {
            union_mask: Vec::new(),
            masked_desc: KernelDesc::builder(String::new(), KernelKind::Other).build(),
            batched: KernelDesc::builder(String::new(), KernelKind::Other).build(),
            walk: Walk::default(),
        }
    }
}

/// The tissue walk's recycled state. Every field is scratch: the contents
/// carry no meaning between runs, only the capacity. The per-layer fields
/// are resized at the start of each layer; the column lists hold one
/// column per lane per cell of a tissue, lane-major, and are grown and
/// never shrunk.
#[derive(Debug, Default)]
pub(crate) struct Walk {
    /// Cell scratch: the `U·h` slab of one step (columns run one after
    /// another).
    pub(crate) cell: CellScratch,
    /// The genuine zero initial hidden state, sized per layer.
    pub(crate) zero_h: Vector,
    /// The genuine zero initial cell state, sized per layer.
    pub(crate) zero_c: Vector,
    /// Which of the layer's cells have run (schedule-order guard).
    pub(crate) filled: Vec<bool>,
    /// Every column's previous hidden state.
    pub(crate) h_prev: Vec<Vector>,
    /// A plain tissue's recurrent products, as the cell lays them out.
    pub(crate) uh: Vec<f32>,
    /// A DRS tissue's hoisted gates — the LSTM's `o_t` or the GRU's `z_t`.
    pub(crate) gates: Vec<Vector>,
    /// A DRS tissue's active masks: what its one masked kernel prices
    /// over (`DRS(gate, α_intra, R)` outputs).
    pub(crate) masks: Vec<Vec<bool>>,
}
