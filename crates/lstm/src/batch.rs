//! Lane-generic plan execution: the one interpreter behind solo runs,
//! serving gangs, and plan-compile probes, for LSTM and GRU plans alike.
//!
//! The paper's diagnosis (Fig. 4/6) is that mobile-GPU LSTM inference is
//! DRAM-bound on *weight* reloads; tissues and Dynamic Row Skip attack
//! that within one sequence. Serving many concurrent sequences offers the
//! same lever across requests: on the simulated device, running B
//! sequences in lockstep turns each per-step `Sgemv(U, h)` into an
//! `Sgemm(U, H_B)`, so one weight load serves B hidden vectors (cf.
//! Appleyard et al.'s batched RNN kernels and E-PUR's weight-reuse
//! argument). The device model prices that reuse
//! ([`batch_kernel_into`]).
//!
//! [`PlanRuntime`] executes one compiled [`ExecutionPlan`] on B sequences
//! ("lanes") at once, and a solo run is the batch of one. Each layer is
//! one walk over its tissue list — preceded, for a reorganized layer, by
//! the offline search/link kernels — whatever flow produced it: the
//! per-cell flows are one-cell tissues. The walk reaches the cell math
//! only through the crate-private `RecurrentCell` operations (batched
//! `W·x` into one gate-major buffer per lane, the batched hoisted gates,
//! the batched dense and masked steps), so a GRU layer runs the same loop with
//! `z_t` hoisted where the LSTM hoists `o_t`. Sequences are independent,
//! so interchanging the timestep and lane loops cannot change any value:
//! every lane's output is **bit-identical** to running that sequence
//! alone.
//!
//! Every tissue, plain or DRS, runs as columns: one per lane per cell,
//! lane-major. A tissue's cells never read each other (a `Prior`
//! predecessor ran in an earlier tissue), so its columns are independent,
//! and one step runs them in three passes: copy each column's `h_{t-1}`
//! into the shared column scratch; run the tissue kind's product pass;
//! run each column's step. A plain tissue's product pass is the host's
//! form of the same weight reuse — one batched product over every column,
//! for the LSTM one walk over the `U_{f,i,c,o}` slab that loads each
//! weight panel once per four columns (`FusedGates::gemv_batch_into`) —
//! and each column then runs its own elementwise pass. A GRU step does
//! not split (its `U_h` multiplies `r ⊙ h`), so it runs whole per column.
//! A DRS tissue's product pass is column-blocked too, as the device runs
//! it: one walk over the hoisted gate's panels for every column, each
//! column's mask into the column slots that price its masked kernel,
//! then one masked walk that loads a panel once for every column with
//! an active row there; each column then runs its masked elementwise
//! pass. The GRU's masked step does not split either, so it runs whole
//! per column. The offline phase runs one layer of such a gang at a time
//! without kernels ([`PlanRuntime::layer_numerics`]). The kernel stream
//! does not see the columns: B lanes emit one batched kernel per planned
//! kernel, priced by [`batch_kernel_into`] with amortized weight traffic,
//! and a single lane emits the planned descriptors as they are.

use crate::cell::{CellScratch, CellWeights};
use crate::drs::{skip_fraction, trivial_row_mask_into};
use crate::gru::GruWeights;
use crate::gru_exec::GruNetwork;
use crate::network::LstmNetwork;
use crate::plan::{
    ExecutionPlan, KernelSink, LayerBody, LayerPlan, MaskedUKernel, NullSink, PlanBody, PlanOutput,
    PlanRuntime, PrevSource, SkipStats, TissueKernels, TissuePlan,
};
use crate::regions::{NetworkRegions, RegionAllocator};
use crate::workspace::{SharedScratch, Walk};
use gpu_sim::{KernelDesc, KernelKind, SpanTag};
use std::fmt::Write as _;
use std::slice;
use tensor::{Precision, Vector};

/// The batched runtime's name from before solo and batched execution
/// merged into [`PlanRuntime`]; kept so code written against
/// `lstm::batch::BatchRuntime` (the `e2ebench` harness) still builds.
pub type BatchRuntime = PlanRuntime;

/// Writes the batched form of a planned kernel serving `batch`
/// concurrent sequences into a recycled descriptor (the label and
/// access-list buffers of `out` are reused).
///
/// Compute, transient traffic, and thread counts scale with the batch;
/// reads of persistent weight regions (per [`NetworkRegions::is_weight`])
/// do **not** — the weight tile is staged once and reused by every
/// sequence, which is the entire simulated speedup. On-chip traffic
/// scales only in its non-weight part for the same reason, and a batched
/// `Sgemv` becomes an `Sgemm`.
///
/// `batch <= 1` copies the kernel unchanged, so a batch of one prices
/// bit-identically to serial execution.
pub fn batch_kernel_into(
    desc: &KernelDesc,
    batch: usize,
    regions: &NetworkRegions,
    out: &mut KernelDesc,
) {
    out.copy_from(desc);
    if batch <= 1 {
        return;
    }
    let b = batch as u64;
    let mut weight_bytes = 0u64;
    for r in &mut out.reads {
        if regions.is_weight(r.region) {
            weight_bytes += r.bytes;
        } else {
            r.bytes *= b;
        }
    }
    for w in &mut out.writes {
        w.bytes *= b;
    }
    out.flops *= b;
    out.smem_bytes = weight_bytes + b * out.smem_bytes.saturating_sub(weight_bytes);
    out.threads = u32::try_from(u64::from(out.threads) * b).unwrap_or(u32::MAX);
    out.skipped_threads = u32::try_from(u64::from(out.skipped_threads) * b).unwrap_or(u32::MAX);
    if out.kind == KernelKind::Sgemv {
        out.kind = KernelKind::Sgemm;
    }
    push_batch_suffix(&mut out.label, batch);
}

/// Appends the batch-size suffix the serve traces use (`"... xB4"`) in
/// place.
fn push_batch_suffix(label: &mut String, batch: usize) {
    let _ = write!(label, " xB{batch}");
}

/// The kernel side of a B-lane run: forwards every planned kernel to the
/// caller's sink in its batched form, with batch-tagged spans. One lane
/// forwards the planned descriptors themselves, uncopied. Without a sink
/// (a numerics-only run) every kernel is dropped unbuilt.
struct LaneSink<'a, K> {
    inner: Option<&'a mut K>,
    lanes: usize,
    regions: &'a NetworkRegions,
    batched: &'a mut KernelDesc,
    union: &'a mut Vec<bool>,
    masked: &'a mut KernelDesc,
}

impl<'a, K: KernelSink> LaneSink<'a, K> {
    /// Borrows the descriptor scratch out of `shared`, handing back the
    /// tissue walk's state.
    fn new(
        inner: Option<&'a mut K>,
        lanes: usize,
        regions: &'a NetworkRegions,
        shared: &'a mut SharedScratch,
    ) -> (Self, &'a mut Walk) {
        let SharedScratch {
            union_mask,
            masked_desc,
            batched,
            walk,
        } = shared;
        let sink = Self {
            inner,
            lanes,
            regions,
            batched,
            union: union_mask,
            masked: masked_desc,
        };
        (sink, walk)
    }

    /// The caller's sink of a priced run.
    fn inner(&mut self) -> &mut K {
        self.inner.as_deref_mut().expect("a priced run has a sink")
    }

    fn tag(&mut self, tag: SpanTag) {
        let Some(inner) = self.inner.as_deref_mut() else {
            return;
        };
        let tag = if self.lanes > 1 {
            tag.with_batch(self.lanes)
        } else {
            tag
        };
        inner.tag(tag);
    }

    fn emit(&mut self, planned: &KernelDesc) {
        let Some(inner) = self.inner.as_deref_mut() else {
            return;
        };
        if self.lanes == 1 {
            inner.emit(planned);
        } else {
            batch_kernel_into(planned, self.lanes, self.regions, self.batched);
            inner.emit(self.batched);
        }
    }

    /// Prices `template` over every column's mask (lane-major) and emits
    /// it.
    fn emit_masked(&mut self, template: &MaskedUKernel, masks: &[Vec<bool>]) {
        let Some(inner) = self.inner.as_deref_mut() else {
            return;
        };
        template.instantiate_into(masks, self.lanes, self.union, self.masked);
        if self.lanes > 1 {
            push_batch_suffix(&mut self.masked.label, self.lanes);
        }
        inner.emit(self.masked);
    }
}

/// The cell arithmetic the tissue walk runs, implemented by the LSTM's
/// [`CellWeights`] and the GRU's [`GruWeights`]: the walk is the same for
/// both, and only these operations differ. A GRU cell carries no `c`
/// state and ignores the `c` operands.
pub(crate) trait RecurrentCell {
    /// Gates per cell: the sections of one column of the gate-major
    /// `W·x` terms.
    const GATES: usize;

    /// Hidden width.
    fn width(&self) -> usize;

    /// The batched `W·x` terms of a layer's inputs into a recycled
    /// buffer, one gate-major column of `GATES * width` values per input.
    fn wx_into(&self, precision: Precision, xs: &[Vector], out: &mut Vec<f32>);

    /// The hoisted gates Dynamic Row Skip masks on — the LSTM's `o_t`,
    /// the GRU's `z_t` — of independent cells, one column per
    /// `h_prev[j]` into `out[j]`: one dense walk over that gate's panels
    /// for every column. `wx` yields each column's gate-major `W·x` terms.
    fn hoisted_gates_into<'a>(
        &self,
        precision: Precision,
        wx: impl IntoIterator<Item = &'a [f32]>,
        h_prev: &[Vector],
        scratch: &mut CellScratch,
        out: &mut [Vector],
    );

    /// The batched half of the exact steps of independent cells, one
    /// column per `h_prev[j]`: the recurrent products every column needs
    /// before its elementwise pass, into `uh`. A cell whose step does
    /// not split into a product and an elementwise pass leaves `uh`
    /// alone and runs its whole step in
    /// [`dense_step_into`](Self::dense_step_into).
    fn dense_products_into(&self, precision: Precision, h_prev: &[Vector], uh: &mut Vec<f32>);

    /// Column `j`'s exact step after
    /// [`dense_products_into`](Self::dense_products_into) filled `uh`.
    #[allow(clippy::too_many_arguments)]
    fn dense_step_into(
        &self,
        precision: Precision,
        uh: &[f32],
        j: usize,
        wx: &[f32],
        h_prev: &Vector,
        c_prev: &Vector,
        scratch: &mut CellScratch,
        h_out: &mut Vector,
        c_out: &mut Vector,
    );

    /// The batched half of the masked steps of independent cells, column
    /// `j` on `h_prev[j]` under its own row mask `masks[j]`: the masked
    /// recurrent products every column needs before its elementwise pass,
    /// into `uh`. A cell whose masked step does not split leaves `uh`
    /// alone and runs its whole step in
    /// [`masked_step_into`](Self::masked_step_into).
    fn masked_products_into(
        &self,
        precision: Precision,
        h_prev: &[Vector],
        masks: &[Vec<bool>],
        uh: &mut Vec<f32>,
    );

    /// Column `j`'s masked step on its hoisted `gate` and its `active`
    /// rows, after [`masked_products_into`](Self::masked_products_into)
    /// filled `uh`.
    #[allow(clippy::too_many_arguments)]
    fn masked_step_into(
        &self,
        precision: Precision,
        uh: &[f32],
        j: usize,
        wx: &[f32],
        h_prev: &Vector,
        c_prev: &Vector,
        gate: &Vector,
        active: &[bool],
        scratch: &mut CellScratch,
        h_out: &mut Vector,
        c_out: &mut Vector,
    );
}

impl RecurrentCell for CellWeights {
    const GATES: usize = 4;

    fn width(&self) -> usize {
        self.hidden()
    }

    fn wx_into(&self, precision: Precision, xs: &[Vector], out: &mut Vec<f32>) {
        self.precompute_wx_batch_into(precision, xs, out);
    }

    fn hoisted_gates_into<'a>(
        &self,
        precision: Precision,
        wx: impl IntoIterator<Item = &'a [f32]>,
        h_prev: &[Vector],
        scratch: &mut CellScratch,
        out: &mut [Vector],
    ) {
        self.output_gate_into(precision, wx, h_prev, scratch, out);
    }

    fn dense_products_into(&self, precision: Precision, h_prev: &[Vector], uh: &mut Vec<f32>) {
        self.recurrent_batch_into(precision, h_prev, uh);
    }

    fn dense_step_into(
        &self,
        _precision: Precision,
        uh: &[f32],
        j: usize,
        wx: &[f32],
        _h_prev: &Vector,
        c_prev: &Vector,
        _scratch: &mut CellScratch,
        h_out: &mut Vector,
        c_out: &mut Vector,
    ) {
        let n = self.hidden();
        self.dense_gates_into(wx, &uh[4 * n * j..4 * n * (j + 1)], c_prev, h_out, c_out);
    }

    fn masked_products_into(
        &self,
        precision: Precision,
        h_prev: &[Vector],
        masks: &[Vec<bool>],
        uh: &mut Vec<f32>,
    ) {
        self.masked_recurrent_batch_into(precision, h_prev, masks, uh);
    }

    fn masked_step_into(
        &self,
        _precision: Precision,
        uh: &[f32],
        j: usize,
        wx: &[f32],
        _h_prev: &Vector,
        c_prev: &Vector,
        gate: &Vector,
        active: &[bool],
        _scratch: &mut CellScratch,
        h_out: &mut Vector,
        c_out: &mut Vector,
    ) {
        let n = self.hidden();
        let uh = &uh[3 * n * j..3 * n * (j + 1)];
        self.masked_gates_into(wx, uh, c_prev, gate, active, h_out, c_out);
    }
}

impl RecurrentCell for GruWeights {
    const GATES: usize = 3;

    fn width(&self) -> usize {
        self.hidden()
    }

    fn wx_into(&self, precision: Precision, xs: &[Vector], out: &mut Vec<f32>) {
        self.precompute_wx_batch_into(precision, xs, out);
    }

    fn hoisted_gates_into<'a>(
        &self,
        precision: Precision,
        wx: impl IntoIterator<Item = &'a [f32]>,
        h_prev: &[Vector],
        scratch: &mut CellScratch,
        out: &mut [Vector],
    ) {
        self.update_gate_into(precision, wx, h_prev, scratch, out);
    }

    /// `U_h` applies to `r ⊙ h`, and `r` needs `U_r·h` first, so a GRU
    /// step does not split: every column runs its whole step.
    fn dense_products_into(&self, _precision: Precision, _h_prev: &[Vector], _uh: &mut Vec<f32>) {}

    fn dense_step_into(
        &self,
        precision: Precision,
        _uh: &[f32],
        _j: usize,
        wx: &[f32],
        h_prev: &Vector,
        _c_prev: &Vector,
        scratch: &mut CellScratch,
        h_out: &mut Vector,
        _c_out: &mut Vector,
    ) {
        self.step_into(precision, wx, h_prev, scratch, h_out);
    }

    /// `U_h` applies to `r ⊙ h`, and `r` needs the masked `U_r·h`
    /// first, so a masked GRU step does not split either: every column
    /// runs its whole step.
    fn masked_products_into(
        &self,
        _precision: Precision,
        _h_prev: &[Vector],
        _masks: &[Vec<bool>],
        _uh: &mut Vec<f32>,
    ) {
    }

    fn masked_step_into(
        &self,
        precision: Precision,
        _uh: &[f32],
        _j: usize,
        wx: &[f32],
        h_prev: &Vector,
        _c_prev: &Vector,
        gate: &Vector,
        active: &[bool],
        scratch: &mut CellScratch,
        h_out: &mut Vector,
        _c_out: &mut Vector,
    ) {
        self.step_masked_into(precision, wx, h_prev, gate, active, scratch, h_out);
    }
}

impl PlanRuntime {
    /// Executes an LSTM plan on `xs`, streaming kernels into `sink`.
    ///
    /// Allocating convenience wrapper over
    /// [`run_lstm_into`](Self::run_lstm_into).
    ///
    /// # Panics
    /// Panics if `xs` is empty, if its length differs from the plan's
    /// compiled sequence length, or if the plan was compiled for a GRU
    /// network or a different layer count.
    pub fn run_lstm(
        &mut self,
        plan: &ExecutionPlan,
        net: &LstmNetwork,
        xs: &[Vector],
        sink: &mut impl KernelSink,
    ) -> PlanOutput {
        let mut out = PlanOutput::new();
        self.run_lstm_into(plan, net, xs, sink, &mut out);
        out
    }

    /// [`run_lstm`](Self::run_lstm) into a recycled [`PlanOutput`]: the
    /// batch of one. The per-layer hidden sequences, logits, and skip
    /// statistics are overwritten in place, reusing their buffers, and
    /// the planned kernels stream into `sink` as they are.
    ///
    /// # Panics
    /// As [`run_lstm`](Self::run_lstm).
    pub fn run_lstm_into(
        &mut self,
        plan: &ExecutionPlan,
        net: &LstmNetwork,
        xs: &[Vector],
        sink: &mut impl KernelSink,
        out: &mut PlanOutput,
    ) {
        self.run_lstm_lanes(plan, net, slice::from_ref(&xs), sink, slice::from_mut(out));
    }

    /// Executes an LSTM plan on every sequence of `seqs` in lockstep,
    /// streaming one *batched* kernel per planned kernel into `sink`.
    ///
    /// Allocating convenience wrapper over
    /// [`run_lstm_batch_into`](Self::run_lstm_batch_into).
    ///
    /// # Panics
    /// Panics if `seqs` is empty, if any sequence is empty or differs
    /// from the plan's compiled length, or if the plan was compiled for a
    /// GRU network or a different layer count.
    pub fn run_lstm_batch<S: AsRef<[Vector]>>(
        &mut self,
        plan: &ExecutionPlan,
        net: &LstmNetwork,
        seqs: &[S],
        sink: &mut impl KernelSink,
    ) -> Vec<PlanOutput> {
        let mut outs = Vec::new();
        self.run_lstm_batch_into(plan, net, seqs, sink, &mut outs);
        outs
    }

    /// [`run_lstm_batch`](Self::run_lstm_batch) into a recycled output
    /// vector (resized to the batch, buffers reused). Output `i` is
    /// bit-identical to `run_lstm(plan, net, seqs[i], ..)`.
    ///
    /// # Panics
    /// As [`run_lstm_batch`](Self::run_lstm_batch).
    pub fn run_lstm_batch_into<S: AsRef<[Vector]>>(
        &mut self,
        plan: &ExecutionPlan,
        net: &LstmNetwork,
        seqs: &[S],
        sink: &mut impl KernelSink,
        outs: &mut Vec<PlanOutput>,
    ) {
        assert!(!seqs.is_empty(), "PlanRuntime::run_lstm_batch: empty batch");
        outs.resize_with(seqs.len(), PlanOutput::new);
        self.run_lstm_lanes(plan, net, seqs, sink, outs);
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

    /// [`run_gru`](Self::run_gru) into a recycled [`PlanOutput`]: the
    /// batch of one on the same tissue walk as an LSTM plan.
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
        let PlanBody::Gru(layer_plans) = &plan.body else {
            panic!("PlanRuntime::run_gru: plan was compiled for an LSTM network");
        };
        self.run_lanes(
            plan,
            layer_plans,
            net.layers(),
            |h, logits| net.apply_head_into(h, logits),
            slice::from_ref(&xs),
            sink,
            slice::from_mut(out),
        );
    }

    /// Executes one planned LSTM layer on a gang of lanes *numerically
    /// only* — no kernel is built and no skip statistics are returned —
    /// with the gate packs stored at `precision`: lane `s` runs on `wx[s]`, its sequence's gate-major
    /// `W·x` terms from [`CellWeights::precompute_wx_batch_into`] at the
    /// same tier. The lanes run in lockstep on the same tissue walk as
    /// [`run_lstm_batch`](Self::run_lstm_batch), so each lane is
    /// bit-identical to running its sequence alone. The offline phase
    /// advances its sequences through this, gang by gang.
    ///
    /// Returns each lane's hidden and cell-state sequences, in lane
    /// order, lent from the runtime's own buffers until its next run.
    ///
    /// # Panics
    /// Panics if `wx` is empty or its lanes differ in length.
    pub fn layer_numerics<'a, W: AsRef<[f32]>>(
        &'a mut self,
        precision: Precision,
        layer: &LayerPlan,
        weights: &CellWeights,
        wx: &[W],
    ) -> impl ExactSizeIterator<Item = (&'a [Vector], &'a [Vector])> + 'a {
        let b = wx.len();
        assert!(b > 0, "PlanRuntime::layer_numerics: empty gang");
        self.reserve_lanes(b);
        if self.numerics.len() < b {
            self.numerics.resize_with(b, || PlanOutput {
                layer_hs: vec![Vec::new()],
                layer_skips: vec![SkipStats::default()],
                ..PlanOutput::new()
            });
        }
        // Without a sink no kernel is built, so the regions are never
        // consulted.
        let regions = NetworkRegions::allocate(&mut RegionAllocator::new(), 0);
        let (mut sink, walk) = LaneSink::new(None::<&mut NullSink>, b, &regions, &mut self.shared);
        let (c_slots, outs) = (&mut self.c_slots[..b], &mut self.numerics[..b]);
        execute_body_into(
            0, precision, layer, weights, wx, c_slots, walk, &mut sink, outs,
        );
        let hs = self.numerics[..b]
            .iter()
            .map(|out| out.layer_hs[0].as_slice());
        hs.zip(self.c_slots[..b].iter().map(Vec::as_slice))
    }

    /// The LSTM entries' half of the run loop: the plan must hold LSTM
    /// layers.
    fn run_lstm_lanes<S: AsRef<[Vector]>>(
        &mut self,
        plan: &ExecutionPlan,
        net: &LstmNetwork,
        seqs: &[S],
        sink: &mut impl KernelSink,
        outs: &mut [PlanOutput],
    ) {
        let PlanBody::Lstm(layer_plans) = &plan.body else {
            panic!("PlanRuntime::run_lstm: plan was compiled for a GRU network");
        };
        self.run_lanes(
            plan,
            layer_plans,
            net.layers(),
            |h, logits| net.apply_head_into(h, logits),
            seqs,
            sink,
            outs,
        );
    }

    /// The shared run loop: one lane per sequence, `outs[i]` receiving
    /// sequence `i`'s results; `head` maps the last hidden state to the
    /// logits.
    #[allow(clippy::too_many_arguments)] // internal: the runtime split needs each piece
    fn run_lanes<C: RecurrentCell, S: AsRef<[Vector]>>(
        &mut self,
        plan: &ExecutionPlan,
        layer_plans: &[LayerPlan],
        cells: &[C],
        head: impl Fn(&Vector, &mut Vector),
        seqs: &[S],
        sink: &mut impl KernelSink,
        outs: &mut [PlanOutput],
    ) {
        for (i, xs) in seqs.iter().enumerate() {
            let len = xs.as_ref().len();
            assert!(len > 0, "PlanRuntime: empty input (sequence {i})");
            assert_eq!(
                len, plan.seq_len,
                "plan compiled for sequence length {}, got {len} (sequence {i})",
                plan.seq_len
            );
        }
        assert_eq!(
            layer_plans.len(),
            cells.len(),
            "plan/network layer count mismatch"
        );
        let b = seqs.len();
        self.reserve_lanes(b);
        for out in outs.iter_mut() {
            out.layer_hs.resize_with(layer_plans.len(), Vec::new);
            out.layer_skips.clear();
            out.layer_skips
                .resize(layer_plans.len(), SkipStats::default());
        }
        let (wx, c_slots) = (&mut self.wx[..b], &mut self.c_slots[..b]);
        let (mut sink, walk) = LaneSink::new(Some(sink), b, &plan.regions, &mut self.shared);
        for (l, (lp, cell)) in layer_plans.iter().zip(cells).enumerate() {
            sink.inner().begin_layer(l);
            sink.tag(SpanTag::wx(l));
            sink.emit(&lp.wx);
            for (s, wx_s) in wx.iter_mut().enumerate() {
                let current: &[Vector] = if l == 0 {
                    seqs[s].as_ref()
                } else {
                    &outs[s].layer_hs[l - 1]
                };
                cell.wx_into(plan.precision, current, wx_s);
            }
            execute_body_into(
                l,
                plan.precision,
                lp,
                cell,
                wx,
                c_slots,
                walk,
                &mut sink,
                outs,
            );
        }
        sink.inner().begin_tail();
        sink.tag(SpanTag::head());
        sink.emit(&plan.head);
        for out in outs.iter_mut() {
            let h_final = out
                .layer_hs
                .last()
                .and_then(|hs| hs.last())
                .expect("non-empty sequence");
            head(h_final, &mut out.logits);
        }
    }
}

/// Executes one planned layer for every lane, emitting one (batched)
/// kernel per planned kernel: the optional offline preamble of a
/// reorganized layer, then the tissue list in order. Lane `s` reads
/// `wx[s]` and keeps its cell states in `c_slots[s]`; its hidden outputs
/// land in `outs[s].layer_hs[layer]`, its skip statistics in
/// `outs[s].layer_skips[layer]`.
#[allow(clippy::too_many_arguments)] // internal: the runtime split needs each piece
fn execute_body_into<C: RecurrentCell, W: AsRef<[f32]>, K: KernelSink>(
    layer: usize,
    precision: Precision,
    lp: &LayerPlan,
    weights: &C,
    wx: &[W],
    c_slots: &mut [Vec<Vector>],
    walk: &mut Walk,
    sink: &mut LaneSink<'_, K>,
    outs: &mut [PlanOutput],
) {
    let (hidden, stride) = (weights.width(), C::GATES * weights.width());
    let n = wx[0].as_ref().len() / stride;
    let (alpha_intra, predicted) = match &lp.body {
        LayerBody::Baseline => (None, None),
        LayerBody::Drs { alpha_intra } => (Some(*alpha_intra), None),
        LayerBody::Tissues {
            search,
            link,
            alpha_intra,
            predicted_h,
            predicted_c,
        } => {
            sink.tag(SpanTag::offline(layer));
            sink.emit(search);
            if let Some(k) = link {
                sink.emit(k);
            }
            (Some(*alpha_intra), Some((predicted_h, predicted_c)))
        }
    };
    for (s, c) in c_slots.iter_mut().enumerate() {
        assert_eq!(wx[s].as_ref().len(), n * stride, "lane length mismatch");
        outs[s].layer_hs[layer].resize_with(n, || Vector::zeros(0));
        c.resize_with(n, || Vector::zeros(0));
    }
    walk.zero_h.resize_fill(hidden, 0.0);
    walk.zero_c.resize_fill(hidden, 0.0);
    walk.filled.clear();
    walk.filled.resize(n, false);
    for tp in &lp.tissues {
        sink.tag(tp.tag);
        // The schedule guarantees every Prior predecessor was produced by
        // an earlier tissue; check up front so the in-place slot writes
        // below cannot mask a malformed plan. It also means no tissue
        // reads its own outputs, so its columns' `h_{t-1}` can be copied
        // before any of them runs.
        for (&t, src) in tp.cells.iter().zip(&tp.prev) {
            if matches!(src, PrevSource::Prior) {
                assert!(
                    walk.filled[t - 1],
                    "schedule guarantees the predecessor already ran"
                );
            }
        }
        step_tissue(
            precision,
            weights,
            wx,
            tp,
            alpha_intra,
            predicted,
            layer,
            c_slots,
            walk,
            sink,
            outs,
        );
    }
    assert!(
        walk.filled.iter().all(|&f| f),
        "every cell scheduled exactly once"
    );
}

/// Cell `t`'s previous state in one lane's slots `states` (its hidden
/// outputs or its cell states), by its context source: `zero` (that
/// state's genuine zero), the layer's `predicted` state, or slot `t - 1`.
///
/// # Panics
/// Panics on a broken link without a predicted state: only a reorganized
/// layer breaks links.
fn prev_state<'a>(
    src: &PrevSource,
    t: usize,
    states: &'a [Vector],
    zero: &'a Vector,
    predicted: Option<&'a Vector>,
) -> &'a Vector {
    match src {
        PrevSource::Zeros => zero,
        PrevSource::Predicted => predicted.expect("a broken link runs in a reorganized layer"),
        PrevSource::Prior => &states[t - 1],
    }
}

/// Runs one tissue for every lane and emits its kernels. The tissue's
/// cells never read each other (a `Prior` predecessor ran in an earlier
/// tissue), so its columns — one per lane per cell, lane-major — are
/// independent and run in three passes:
/// 1. each column's `h_{t-1}` is copied into `walk.h_prev`;
/// 2. the product pass: a plain tissue runs one batched product over
///    every column ([`RecurrentCell::dense_products_into`], for the LSTM
///    one walk over the `U` slab); a DRS tissue computes every column's
///    hoisted gate in one walk ([`RecurrentCell::hoisted_gates_into`]),
///    each column's mask and skip fraction into the column slots its
///    masked kernel is priced from, and every column's masked product
///    in one masked walk ([`RecurrentCell::masked_products_into`]);
/// 3. each column runs its step — the elementwise pass after the batched
///    product, or the masked step on its own mask.
///
/// Lane `s` writes its hidden outputs into `outs[s].layer_hs[layer]` and
/// its cell states into `c_slots[s]`.
#[allow(clippy::too_many_arguments)] // internal: the runtime split needs each piece
fn step_tissue<C: RecurrentCell, W: AsRef<[f32]>, K: KernelSink>(
    precision: Precision,
    weights: &C,
    wx: &[W],
    tp: &TissuePlan,
    alpha_intra: Option<f32>,
    predicted: Option<(&Vector, &Vector)>,
    layer: usize,
    c_slots: &mut [Vec<Vector>],
    walk: &mut Walk,
    sink: &mut LaneSink<'_, K>,
    outs: &mut [PlanOutput],
) {
    let size = tp.cells.len();
    let columns = c_slots.len() * size;
    // Lane `s`'s gate-major `W·x` column of cell `t`.
    let stride = C::GATES * weights.width();
    let wx_at = move |s: usize, t: usize| &wx[s].as_ref()[t * stride..(t + 1) * stride];
    let Walk {
        cell,
        zero_h,
        zero_c,
        filled,
        h_prev,
        uh,
        gates,
        masks,
    } = walk;
    // Grow only: a smaller tissue or gang keeps the extra columns.
    if h_prev.len() < columns {
        h_prev.resize_with(columns, || Vector::zeros(0));
    }
    for (s, out) in outs.iter().enumerate() {
        for (i, (&t, src)) in tp.cells.iter().zip(&tp.prev).enumerate() {
            let h = prev_state(src, t, &out.layer_hs[layer], zero_h, predicted.map(|p| p.0));
            h_prev[s * size + i].clone_from(h);
        }
    }
    let h_prev = &h_prev[..columns];
    let drs = match &tp.kernels {
        TissueKernels::Plain { sgemm, ew } => {
            sink.emit(sgemm);
            sink.emit(ew);
            weights.dense_products_into(precision, h_prev, uh);
            false
        }
        TissueKernels::Drs {
            uo,
            gate_ew,
            select,
            masked,
            ew,
        } => {
            let alpha_intra = alpha_intra.expect("a DRS tissue runs in a layer with α_intra");
            sink.emit(uo);
            if let Some(k) = gate_ew {
                sink.emit(k);
            }
            sink.emit(select);
            if gates.len() < columns {
                gates.resize_with(columns, || Vector::zeros(0));
                masks.resize_with(columns, Vec::new);
            }
            let (gates, masks) = (&mut gates[..columns], &mut masks[..columns]);
            let lane_wx = |s| tp.cells.iter().map(move |&t| wx_at(s, t));
            let column_wx = (0..outs.len()).flat_map(lane_wx);
            weights.hoisted_gates_into(precision, column_wx, h_prev, cell, gates);
            for (j, (gate, mask)) in gates.iter().zip(masks.iter_mut()).enumerate() {
                trivial_row_mask_into(gate, alpha_intra, mask);
                outs[j / size].layer_skips[layer].push(skip_fraction(mask));
            }
            weights.masked_products_into(precision, h_prev, masks, uh);
            sink.emit_masked(masked, masks);
            sink.emit(ew);
            true
        }
    };
    for (s, (c_slots, out)) in c_slots.iter_mut().zip(outs.iter_mut()).enumerate() {
        let hs = &mut out.layer_hs[layer];
        for (i, (&t, src)) in tp.cells.iter().zip(&tp.prev).enumerate() {
            let (done_c, rest_c) = c_slots.split_at_mut(t);
            let c_prev = prev_state(src, t, done_c, zero_c, predicted.map(|p| p.1));
            let j = s * size + i;
            if drs {
                weights.masked_step_into(
                    precision,
                    uh,
                    j,
                    wx_at(s, t),
                    &h_prev[j],
                    c_prev,
                    &gates[j],
                    &masks[j],
                    cell,
                    &mut hs[t],
                    &mut rest_c[0],
                );
            } else {
                weights.dense_step_into(
                    precision,
                    uh,
                    j,
                    wx_at(s, t),
                    &h_prev[j],
                    c_prev,
                    cell,
                    &mut hs[t],
                    &mut rest_c[0],
                );
            }
            filled[t] = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use crate::drs::DrsConfig;
    use crate::schedule::u_sgemv_kernel;
    use gpu_sim::{DeviceModel, GpuConfig, GpuDevice};
    use tensor::init::seeded_rng;

    fn setup(seed: u64) -> (LstmNetwork, Vec<Vec<Vector>>) {
        let config = ModelConfig::new("test", 12, 24, 2, 8, 3).unwrap();
        let mut rng = seeded_rng(seed);
        let net = LstmNetwork::random(&config, &mut rng);
        let seqs = (0..4)
            .map(|_| crate::random_inputs(&config, &mut rng))
            .collect();
        (net, seqs)
    }

    fn batched(desc: &KernelDesc, batch: usize, regions: &NetworkRegions) -> KernelDesc {
        let mut out = KernelDesc::builder(String::new(), KernelKind::Other).build();
        batch_kernel_into(desc, batch, regions, &mut out);
        out
    }

    #[test]
    fn batch_of_one_streams_the_plan_with_exact_numerics() {
        let (net, seqs) = setup(21);
        let plan =
            ExecutionPlan::compile_baseline(&net, seqs[0].len(), &DeviceModel::default_preset());
        let mut trace: Vec<KernelDesc> = Vec::new();
        let outs = PlanRuntime::new().run_lstm_batch(&plan, &net, &seqs[..1], &mut trace);
        // Numerics: the exact Algorithm 1 forward pass.
        assert_eq!(outs, [net.forward(&seqs[0])]);
        // Stream: the plan's own descriptors, in plan order.
        let PlanBody::Lstm(layers) = &plan.body else {
            unreachable!()
        };
        let mut planned: Vec<&KernelDesc> = Vec::new();
        for lp in layers {
            planned.push(&lp.wx);
            assert_eq!(lp.body, LayerBody::Baseline);
            for tp in &lp.tissues {
                let TissueKernels::Plain { sgemm, ew } = &tp.kernels else {
                    unreachable!()
                };
                planned.extend([sgemm, ew]);
            }
        }
        planned.push(&plan.head);
        assert_eq!(trace.iter().collect::<Vec<_>>(), planned);
    }

    /// `plan` with every layer's per-cell flow at `drs`: for `Some`, the
    /// intra-only Dynamic Row Skip plan a serve engine degrades to.
    fn per_cell_plan(plan: &ExecutionPlan, net: &LstmNetwork, drs: DrsConfig) -> ExecutionPlan {
        let mut plan = plan.clone();
        let mut alloc = RegionAllocator::new();
        let PlanBody::Lstm(layers) = &mut plan.body else {
            unreachable!()
        };
        for (l, (lp, cell)) in layers.iter_mut().zip(net.layers()).enumerate() {
            *lp = LayerPlan::per_cell(
                l,
                lp.wx.clone(),
                false,
                cell.hidden(),
                plan.seq_len,
                &plan.regions.layers[l],
                Some(drs),
                &mut alloc,
            );
        }
        plan
    }

    /// `plan` with every layer reorganized: its links before cells 3 and
    /// 6 broken (those cells read the layer's predicted state), and the
    /// three sub-layers' cells run side by side in tissues `{0, 3, 6}`,
    /// `{1, 4, 7}` and `{2, 5}` of the plan's own per-cell kernels. A
    /// per-cell DRS plan gives DRS tissues masked at `alpha_intra`, their
    /// masked `U_{f,i,c}` template batched over the tissue's cells.
    fn multi_cell_plan(plan: &ExecutionPlan, net: &LstmNetwork, alpha_intra: f32) -> ExecutionPlan {
        const STARTS: [usize; 3] = [0, 3, 6];
        let mut plan = plan.clone();
        assert_eq!(plan.seq_len, 8, "the tissues cover eight cells");
        let u_fic: Vec<_> = plan.regions.layers.iter().map(|r| r.u_fic).collect();
        let mut alloc = RegionAllocator::new();
        let PlanBody::Lstm(layers) = &mut plan.body else {
            unreachable!()
        };
        for (l, (lp, cell)) in layers.iter_mut().zip(net.layers()).enumerate() {
            let h = cell.hidden();
            lp.body = LayerBody::Tissues {
                search: lp.wx.clone(),
                link: None,
                alpha_intra,
                predicted_h: Vector::from_fn(h, |j| (j as f32 * 0.37).sin() * 0.5),
                predicted_c: Vector::from_fn(h, |j| (j as f32 * 0.11).cos()),
            };
            let kernels = lp.tissues[0].kernels.clone();
            lp.tissues = (0..3)
                .map(|i| {
                    let cells: Vec<usize> =
                        STARTS.iter().map(|&s| s + i).filter(|&t| t < 8).collect();
                    let prev = cells
                        .iter()
                        .map(|&t| match t {
                            0 => PrevSource::Zeros,
                            3 | 6 => PrevSource::Predicted,
                            _ => PrevSource::Prior,
                        })
                        .collect();
                    let mut kernels = kernels.clone();
                    if let TissueKernels::Drs { masked, .. } = &mut kernels {
                        *masked = MaskedUKernel::new(
                            format!("Sgemm(U_fic,H,R) l{l} k{i}"),
                            3,
                            h,
                            cells.len(),
                            u_fic[l],
                            crate::drs::DrsMode::Hardware,
                            true,
                            &mut alloc,
                        );
                    }
                    TissuePlan {
                        cells,
                        prev,
                        tag: SpanTag::tissue(l, i, Some(0)),
                        kernels,
                    }
                })
                .collect();
        }
        plan
    }

    #[test]
    fn batched_outputs_bit_identical_per_sequence() {
        // Gangs of 1 to 9 lanes reach every mix of the lockstep walk's
        // four-, three-, two- and lone-column kernels: a plain tissue's
        // columns are its lanes times its cells, so the multi-cell plan
        // runs 2 to 27 columns per tissue. The multi-cell DRS plan lays
        // out a gate and a mask per lane per cell, lane-major, so a
        // column mis-indexed across lanes and cells masks the wrong
        // rows. One runtime serves every gang, so its recycled columns
        // grow and shrink.
        let config = ModelConfig::new("test", 12, 24, 2, 8, 3).unwrap();
        let mut rng = seeded_rng(22);
        let net = LstmNetwork::random(&config, &mut rng);
        let seqs: Vec<Vec<Vector>> = (0..9)
            .map(|_| crate::random_inputs(&config, &mut rng))
            .collect();
        let baseline = ExecutionPlan::compile_baseline(&net, 8, &DeviceModel::default_preset());
        let drs = DrsConfig {
            alpha_intra: 0.05,
            mode: crate::drs::DrsMode::Hardware,
        };
        let per_cell_drs = per_cell_plan(&baseline, &net, drs);
        let plans = [
            ("baseline", baseline.clone()),
            ("multi-cell", multi_cell_plan(&baseline, &net, 0.0)),
            (
                "multi-cell DRS",
                multi_cell_plan(&per_cell_drs, &net, drs.alpha_intra),
            ),
            ("per-cell DRS", per_cell_drs),
        ];
        let mut runtime = PlanRuntime::new();
        for (name, plan) in &plans {
            for precision in Precision::ALL {
                let plan = plan.clone().with_precision(precision);
                let solo: Vec<PlanOutput> = seqs
                    .iter()
                    .map(|xs| PlanRuntime::new().run_lstm(&plan, &net, xs, &mut NullSink))
                    .collect();
                let skipped = solo[0].layer_skips.iter().any(|s| s.sum > 0.0);
                assert_eq!(skipped, name.ends_with("DRS"), "{name} {precision} skips");
                for b in 1..=9 {
                    let batched = runtime.run_lstm_batch(&plan, &net, &seqs[..b], &mut NullSink);
                    for (lane, (out, want)) in batched.iter().zip(&solo).enumerate() {
                        assert_eq!(out, want, "{name} {precision}: lane {lane} of {b}");
                    }
                }
            }
        }
    }

    #[test]
    fn layer_numerics_lanes_bit_identical_to_solo() {
        // The offline phase's lane walk: every layer of each plan over
        // gangs of 1 to 9 lanes on one runtime, each lane's `W·x` from
        // its sequence's solo run. Each lane's hidden sequence equals the
        // solo `run_lstm`'s, and its cell states equal that lane run
        // alone through the walk.
        let config = ModelConfig::new("test", 12, 24, 2, 8, 3).unwrap();
        let mut rng = seeded_rng(27);
        let net = LstmNetwork::random(&config, &mut rng);
        let seqs: Vec<Vec<Vector>> = (0..9)
            .map(|_| crate::random_inputs(&config, &mut rng))
            .collect();
        let baseline = ExecutionPlan::compile_baseline(&net, 8, &DeviceModel::default_preset());
        let drs = DrsConfig {
            alpha_intra: 0.05,
            mode: crate::drs::DrsMode::Hardware,
        };
        let per_cell_drs = per_cell_plan(&baseline, &net, drs);
        let plans = [
            ("baseline", baseline.clone()),
            (
                "multi-cell DRS",
                multi_cell_plan(&per_cell_drs, &net, drs.alpha_intra),
            ),
            ("per-cell DRS", per_cell_drs),
        ];
        let mut runtime = PlanRuntime::new();
        for (name, plan) in &plans {
            for precision in Precision::ALL {
                let plan = plan.clone().with_precision(precision);
                let PlanBody::Lstm(layers) = &plan.body else {
                    unreachable!()
                };
                let solo: Vec<PlanOutput> = seqs
                    .iter()
                    .map(|xs| PlanRuntime::new().run_lstm(&plan, &net, xs, &mut NullSink))
                    .collect();
                for (l, (lp, cell)) in layers.iter().zip(net.layers()).enumerate() {
                    let wx: Vec<Vec<f32>> = seqs
                        .iter()
                        .zip(&solo)
                        .map(|(xs, out)| {
                            let input = if l == 0 { xs } else { &out.layer_hs[l - 1] };
                            let mut wx = Vec::new();
                            cell.precompute_wx_batch_into(precision, input, &mut wx);
                            wx
                        })
                        .collect();
                    let alone: Vec<Vec<Vector>> = wx
                        .iter()
                        .zip(&solo)
                        .map(|(wx, solo)| {
                            let mut lanes = runtime.layer_numerics(precision, lp, cell, &[wx]);
                            let (h, c) = lanes.next().expect("one lane");
                            assert!(lanes.next().is_none());
                            assert_eq!(h, solo.layer_hs[l], "{name} {precision}: layer {l}");
                            c.to_vec()
                        })
                        .collect();
                    for b in 1..=9 {
                        let lanes = runtime.layer_numerics(precision, lp, cell, &wx[..b]);
                        assert_eq!(lanes.len(), b);
                        for (s, (h, c)) in lanes.enumerate() {
                            let at = format!("{name} {precision}: layer {l}, lane {s} of {b}");
                            assert_eq!(h, solo[s].layer_hs[l].as_slice(), "{at}: h");
                            assert_eq!(c, alone[s].as_slice(), "{at}: c");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn batched_kernel_amortizes_weight_reads_only() {
        let (net, seqs) = setup(23);
        let plan =
            ExecutionPlan::compile_baseline(&net, seqs[0].len(), &DeviceModel::default_preset());
        let PlanBody::Lstm(layers) = &plan.body else {
            unreachable!()
        };
        let wx = &layers[0].wx;
        let k = batched(wx, 8, &plan.regions);
        assert_eq!(k.flops, 8 * wx.flops);
        // Weight read unchanged; the transient activation read scales.
        assert_eq!(k.reads[0].bytes, wx.reads[0].bytes);
        assert_eq!(k.reads[1].bytes, 8 * wx.reads[1].bytes);
        assert_eq!(k.writes[0].bytes, 8 * wx.writes[0].bytes);
        assert!(k.label.ends_with(" xB8"));
        // A batched recurrent Sgemv becomes an Sgemm.
        let TissueKernels::Plain { sgemm: sgemv, .. } = &layers[0].tissues[0].kernels else {
            unreachable!()
        };
        let sgemm = batched(sgemv, 4, &plan.regions);
        assert_eq!(sgemm.kind, KernelKind::Sgemm);
        assert_eq!(sgemm.reads[0].bytes, sgemv.reads[0].bytes);
        // Batch of one is the identity.
        assert_eq!(batched(wx, 1, &plan.regions), *wx);
    }

    #[test]
    fn batched_run_is_cheaper_than_serial_per_sequence() {
        let (net, seqs) = setup(24);
        let plan =
            ExecutionPlan::compile_baseline(&net, seqs[0].len(), &DeviceModel::default_preset());

        let mut serial_time = 0.0;
        for xs in &seqs {
            let mut dev = GpuDevice::new(GpuConfig::tegra_x1());
            let mut session = dev.begin_trace();
            PlanRuntime::new().run_lstm(&plan, &net, xs, &mut session);
            serial_time += session.finish().time_s;
        }

        let mut dev = GpuDevice::new(GpuConfig::tegra_x1());
        let mut session = dev.begin_trace();
        PlanRuntime::new().run_lstm_batch(&plan, &net, &seqs, &mut session);
        let batched_time = session.finish().time_s;

        assert!(
            batched_time < serial_time / 2.0,
            "batch-{} run should amortize weight loads: {batched_time} vs serial {serial_time}",
            seqs.len()
        );
    }

    #[test]
    fn batched_sgemv_priced_with_u_sgemv_regions() {
        // Sanity: a u_sgemv kernel built against a real weight region is
        // recognized as amortizable.
        let mut alloc = RegionAllocator::new();
        let regions = NetworkRegions::allocate(&mut alloc, 1);
        let k = u_sgemv_kernel("Sgemv(U,h)", regions.layers[0].u_full, 32, 8, &mut alloc);
        let b = batched(&k, 4, &regions);
        assert_eq!(b.reads[0].bytes, k.reads[0].bytes);
        assert_eq!(b.reads[1].bytes, 4 * k.reads[1].bytes);
    }

    #[test]
    #[should_panic(expected = "empty batch")]
    fn empty_batch_rejected() {
        let (net, seqs) = setup(25);
        let plan =
            ExecutionPlan::compile_baseline(&net, seqs[0].len(), &DeviceModel::default_preset());
        let empty: &[Vec<Vector>] = &[];
        PlanRuntime::new().run_lstm_batch(&plan, &net, empty, &mut NullSink);
    }

    #[test]
    #[should_panic(expected = "sequence length")]
    fn wrong_length_sequence_rejected() {
        let (net, seqs) = setup(26);
        let plan = ExecutionPlan::compile_baseline(
            &net,
            seqs[0].len() + 1,
            &DeviceModel::default_preset(),
        );
        PlanRuntime::new().run_lstm_batch(&plan, &net, &seqs, &mut NullSink);
    }
}
