//! Lane-generic LSTM plan execution: the one interpreter behind solo
//! runs, serving gangs, and plan-compile probes.
//!
//! The paper's diagnosis (Fig. 4/6) is that mobile-GPU LSTM inference is
//! DRAM-bound on *weight* reloads; tissues and Dynamic Row Skip attack
//! that within one sequence. Serving many concurrent sequences offers the
//! same lever across requests: on the simulated device, running B
//! sequences in lockstep turns each per-step `Sgemv(U, h)` into an
//! `Sgemm(U, H_B)`, so one weight load serves B hidden vectors (cf.
//! Appleyard et al.'s batched RNN kernels and E-PUR's weight-reuse
//! argument). That reuse is a property of the *pricing*
//! ([`batch_kernel_into`]), not of the host numerics.
//!
//! [`PlanRuntime`] executes one compiled [`ExecutionPlan`] on B sequences
//! ("lanes") at once, and a solo run is the batch of one. Sequences are
//! independent, so interchanging the timestep and lane loops cannot
//! change any value: every lane's output is **bit-identical** to running
//! that sequence alone. On the host each lane still runs its own `U·h`
//! product per step: the `U` slab stays in L2 across a gang's lanes, and
//! a gang-wide weight-stationary `U·h` measured no faster (a recorded
//! non-win in DESIGN Sec. 2g). Batching changes only the emitted kernel
//! stream — one batched kernel per planned kernel, priced by
//! [`batch_kernel_into`] with amortized weight traffic. A single lane
//! emits the planned descriptors as they are.

use crate::cell::{CellWeights, GatePreacts};
use crate::drs::{skip_fraction, trivial_row_mask_into};
use crate::network::LstmNetwork;
use crate::plan::{
    ExecutionPlan, KernelSink, LayerBody, MaskedUKernel, NullSink, PlanBody, PlanOutput,
    PlanRuntime, PrevSource, SkipStats, TissueKernels, TissuePlan,
};
use crate::regions::{NetworkRegions, RegionAllocator};
use crate::workspace::{SharedScratch, Workspace};
use gpu_sim::{KernelDesc, KernelKind, SpanTag};
use std::fmt::Write as _;
use std::{mem, slice};
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
/// forwards the planned descriptors themselves, uncopied.
struct LaneSink<'a, K> {
    inner: &'a mut K,
    lanes: usize,
    regions: &'a NetworkRegions,
    batched: &'a mut KernelDesc,
    union: &'a mut Vec<bool>,
    masked: &'a mut KernelDesc,
}

impl<'a, K: KernelSink> LaneSink<'a, K> {
    /// Borrows the descriptor scratch out of `shared`, handing back the
    /// lane-major mask list the layer bodies fill.
    fn new(
        inner: &'a mut K,
        lanes: usize,
        regions: &'a NetworkRegions,
        shared: &'a mut SharedScratch,
    ) -> (Self, &'a mut Vec<Vec<bool>>) {
        let SharedScratch {
            all_masks,
            union_mask,
            masked_desc,
            batched,
        } = shared;
        let sink = Self {
            inner,
            lanes,
            regions,
            batched,
            union: union_mask,
            masked: masked_desc,
        };
        (sink, all_masks)
    }

    fn tag(&mut self, tag: SpanTag) {
        let tag = if self.lanes > 1 {
            tag.with_batch(self.lanes)
        } else {
            tag
        };
        self.inner.tag(tag);
    }

    fn emit(&mut self, planned: &KernelDesc) {
        if self.lanes == 1 {
            self.inner.emit(planned);
        } else {
            batch_kernel_into(planned, self.lanes, self.regions, self.batched);
            self.inner.emit(self.batched);
        }
    }

    /// Prices `template` over every lane's masks (lane-major) and emits it.
    fn emit_masked(&mut self, template: &MaskedUKernel, masks: &[Vec<bool>]) {
        template.instantiate_into(masks, self.lanes, self.union, self.masked);
        if self.lanes > 1 {
            push_batch_suffix(&mut self.masked.label, self.lanes);
        }
        self.inner.emit(self.masked);
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

    /// Executes one planned LSTM layer body on one sequence *numerically
    /// only* — no kernels, no skip accounting — with the gate packs
    /// stored at `precision`. Plan compilers use this to advance their
    /// probe sequences through already-planned layers with the exact
    /// arithmetic the runtime will use (`wx` must come from
    /// [`CellWeights::precompute_wx_batch_into`] at the same tier).
    pub fn layer_numerics(
        &mut self,
        precision: Precision,
        body: &LayerBody,
        weights: &CellWeights,
        wx: &[GatePreacts],
    ) -> Vec<Vector> {
        self.reserve_lanes(1);
        let mut out = PlanOutput {
            layer_hs: vec![Vec::new()],
            layer_skips: vec![SkipStats::default()],
            ..PlanOutput::new()
        };
        // One lane never batches, so the regions are never consulted.
        let regions = NetworkRegions::allocate(&mut RegionAllocator::new(), 0);
        let mut null = NullSink;
        let (mut sink, all_masks) = LaneSink::new(&mut null, 1, &regions, &mut self.shared);
        execute_lstm_body_into(
            0,
            precision,
            body,
            weights,
            slice::from_ref(&wx),
            &mut self.ws[..1],
            all_masks,
            &mut sink,
            slice::from_mut(&mut out),
        );
        mem::take(&mut out.layer_hs[0])
    }

    /// The shared run loop: one lane per sequence, `outs[i]` receiving
    /// sequence `i`'s results.
    fn run_lstm_lanes<S: AsRef<[Vector]>>(
        &mut self,
        plan: &ExecutionPlan,
        net: &LstmNetwork,
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
        let PlanBody::Lstm(layer_plans) = &plan.body else {
            panic!("PlanRuntime::run_lstm: plan was compiled for a GRU network");
        };
        assert_eq!(
            layer_plans.len(),
            net.layers().len(),
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
        let (wx, ws) = (&mut self.wx[..b], &mut self.ws[..b]);
        let (mut sink, all_masks) = LaneSink::new(sink, b, &plan.regions, &mut self.shared);
        for (l, (lp, layer)) in layer_plans.iter().zip(net.layers()).enumerate() {
            sink.inner.begin_layer(l);
            sink.tag(SpanTag::wx(l));
            sink.emit(&lp.wx);
            for (s, wx_s) in wx.iter_mut().enumerate() {
                let current: &[Vector] = if l == 0 {
                    seqs[s].as_ref()
                } else {
                    &outs[s].layer_hs[l - 1]
                };
                layer.precompute_wx_batch_into(plan.precision, current, wx_s);
            }
            execute_lstm_body_into(
                l,
                plan.precision,
                &lp.body,
                layer,
                wx,
                ws,
                all_masks,
                &mut sink,
                outs,
            );
        }
        sink.inner.begin_tail();
        sink.tag(SpanTag::head());
        sink.emit(&plan.head);
        for out in outs.iter_mut() {
            let h_final = out
                .layer_hs
                .last()
                .and_then(|hs| hs.last())
                .expect("non-empty sequence");
            net.apply_head_into(h_final, &mut out.logits);
        }
    }
}

/// Executes one layer body for every lane, emitting one (batched) kernel
/// per planned kernel. Lane `s` reads `wx[s]` and works in `ws[s]`; its
/// hidden outputs land in `outs[s].layer_hs[layer]`, its skip statistics
/// in `outs[s].layer_skips[layer]`.
#[allow(clippy::too_many_arguments)] // internal: the runtime split needs each piece
fn execute_lstm_body_into<W: AsRef<[GatePreacts]>, K: KernelSink>(
    layer: usize,
    precision: Precision,
    body: &LayerBody,
    weights: &CellWeights,
    wx: &[W],
    ws: &mut [Workspace],
    all_masks: &mut Vec<Vec<bool>>,
    sink: &mut LaneSink<'_, K>,
    outs: &mut [PlanOutput],
) {
    let hidden = weights.hidden();
    let b = wx.len();
    let n = wx[0].as_ref().len();
    for (s, w) in ws.iter_mut().enumerate() {
        assert_eq!(wx[s].as_ref().len(), n, "lane length mismatch");
        // The sequential flows start every lane from the zero state.
        w.h.resize_fill(hidden, 0.0);
        w.c.resize_fill(hidden, 0.0);
        outs[s].layer_hs[layer].resize_with(n, || Vector::zeros(0));
    }
    match body {
        LayerBody::Baseline { cells } => {
            assert_eq!(cells.len(), n, "plan/input length mismatch");
            for (t, cell) in cells.iter().enumerate() {
                sink.tag(SpanTag::cells(layer, t));
                sink.emit(&cell.sgemv);
                for s in 0..b {
                    let w = &mut ws[s];
                    weights.step_fused_into(
                        precision,
                        &wx[s].as_ref()[t],
                        &w.h,
                        &w.c,
                        &mut w.cell,
                        &mut w.h_next,
                        &mut w.c_next,
                    );
                    mem::swap(&mut w.h, &mut w.h_next);
                    mem::swap(&mut w.c, &mut w.c_next);
                    outs[s].layer_hs[layer][t].clone_from(&w.h);
                }
                sink.emit(&cell.ew);
            }
        }
        LayerBody::Drs { alpha_intra, cells } => {
            assert_eq!(cells.len(), n, "plan/input length mismatch");
            if all_masks.len() < b {
                all_masks.resize_with(b, Vec::new);
            }
            for (t, cell) in cells.iter().enumerate() {
                sink.tag(SpanTag::cells(layer, t));
                sink.emit(&cell.uo);
                sink.emit(&cell.gate_ew);
                for s in 0..b {
                    let w = &mut ws[s];
                    weights.output_gate_into(
                        precision,
                        &wx[s].as_ref()[t].o,
                        &w.h,
                        &mut w.cell,
                        &mut w.gate,
                    );
                }
                sink.emit(&cell.select);
                for s in 0..b {
                    trivial_row_mask_into(&ws[s].gate, *alpha_intra, &mut all_masks[s]);
                    outs[s].layer_skips[layer].push(skip_fraction(&all_masks[s]));
                }
                sink.emit_masked(&cell.masked, &all_masks[..b]);
                sink.emit(&cell.ew);
                for s in 0..b {
                    let w = &mut ws[s];
                    weights.step_masked_into(
                        precision,
                        &wx[s].as_ref()[t],
                        &w.h,
                        &w.c,
                        &w.gate,
                        &all_masks[s],
                        &mut w.cell,
                        &mut w.h_next,
                        &mut w.c_next,
                    );
                    mem::swap(&mut w.h, &mut w.h_next);
                    mem::swap(&mut w.c, &mut w.c_next);
                    outs[s].layer_hs[layer][t].clone_from(&w.h);
                }
            }
        }
        LayerBody::Tissues {
            search,
            link,
            alpha_intra,
            predicted_h,
            predicted_c,
            tissues,
        } => {
            sink.tag(SpanTag::offline(layer));
            sink.emit(search);
            if let Some(k) = link {
                sink.emit(k);
            }
            for w in ws.iter_mut() {
                w.zero_h.resize_fill(hidden, 0.0);
                w.zero_c.resize_fill(hidden, 0.0);
                w.h_slots.resize_with(n, || Vector::zeros(0));
                w.c_slots.resize_with(n, || Vector::zeros(0));
                w.filled.clear();
                w.filled.resize(n, false);
            }
            for (k, tp) in tissues.iter().enumerate() {
                sink.tag(SpanTag::tissue(layer, k, tp.sublayers.first().copied()));
                // The schedule guarantees every Prior predecessor was
                // produced by an earlier tissue; check up front so the
                // in-place slot writes below cannot mask a malformed plan.
                for w in ws.iter() {
                    for (&t, src) in tp.cells.iter().zip(&tp.prev) {
                        if matches!(src, PrevSource::Prior) {
                            assert!(
                                w.filled[t - 1],
                                "schedule guarantees the predecessor already ran"
                            );
                        }
                    }
                }
                match &tp.kernels {
                    TissueKernels::Plain { sgemm, ew } => {
                        sink.emit(sgemm);
                        sink.emit(ew);
                        for (s, w) in ws.iter_mut().enumerate() {
                            step_tissue(
                                precision,
                                weights,
                                wx[s].as_ref(),
                                tp,
                                predicted_h,
                                predicted_c,
                                false,
                                w,
                            );
                        }
                    }
                    TissueKernels::Drs {
                        uo,
                        gate_ew,
                        select,
                        masked,
                        ew,
                    } => {
                        sink.emit(uo);
                        sink.emit(gate_ew);
                        sink.emit(select);
                        let size = tp.cells.len();
                        for (s, w) in ws.iter_mut().enumerate() {
                            let Workspace {
                                cell,
                                os,
                                masks,
                                h_slots,
                                zero_h,
                                ..
                            } = w;
                            os.resize_with(size, || Vector::zeros(0));
                            masks.resize_with(size, Vec::new);
                            for (i, (&t, src)) in tp.cells.iter().zip(&tp.prev).enumerate() {
                                let h_prev = match src {
                                    PrevSource::Zeros => &*zero_h,
                                    PrevSource::Predicted => predicted_h,
                                    PrevSource::Prior => &h_slots[t - 1],
                                };
                                weights.output_gate_into(
                                    precision,
                                    &wx[s].as_ref()[t].o,
                                    h_prev,
                                    cell,
                                    &mut os[i],
                                );
                                trivial_row_mask_into(&os[i], *alpha_intra, &mut masks[i]);
                            }
                            for mask in masks.iter() {
                                outs[s].layer_skips[layer].push(skip_fraction(mask));
                            }
                        }
                        // Concatenate each lane's masks, lane-major.
                        if all_masks.len() < b * size {
                            all_masks.resize_with(b * size, Vec::new);
                        }
                        for (s, w) in ws.iter().enumerate() {
                            for (i, mask) in w.masks.iter().enumerate() {
                                all_masks[s * size + i].clone_from(mask);
                            }
                        }
                        sink.emit_masked(masked, &all_masks[..b * size]);
                        sink.emit(ew);
                        for (s, w) in ws.iter_mut().enumerate() {
                            step_tissue(
                                precision,
                                weights,
                                wx[s].as_ref(),
                                tp,
                                predicted_h,
                                predicted_c,
                                true,
                                w,
                            );
                        }
                    }
                }
            }
            for (s, w) in ws.iter_mut().enumerate() {
                for (t, slot) in outs[s].layer_hs[layer].iter_mut().enumerate() {
                    assert!(w.filled[t], "every cell scheduled exactly once");
                    mem::swap(slot, &mut w.h_slots[t]);
                }
            }
        }
    }
}

/// Runs one lane's tissue steps into its workspace slots: fused full
/// steps, or — for a DRS tissue — masked steps using the gates/masks
/// already computed in `w.os`/`w.masks`.
#[allow(clippy::too_many_arguments)] // internal: the runtime split needs each piece
fn step_tissue(
    precision: Precision,
    weights: &CellWeights,
    wx: &[GatePreacts],
    tp: &TissuePlan,
    predicted_h: &Vector,
    predicted_c: &Vector,
    masked: bool,
    w: &mut Workspace,
) {
    let Workspace {
        cell,
        os,
        masks,
        h_slots,
        c_slots,
        filled,
        zero_h,
        zero_c,
        ..
    } = w;
    for (i, (&t, src)) in tp.cells.iter().zip(&tp.prev).enumerate() {
        let (done_h, rest_h) = h_slots.split_at_mut(t);
        let (done_c, rest_c) = c_slots.split_at_mut(t);
        let (h_prev, c_prev) = match src {
            PrevSource::Zeros => (&*zero_h, &*zero_c),
            PrevSource::Predicted => (predicted_h, predicted_c),
            PrevSource::Prior => (&done_h[t - 1], &done_c[t - 1]),
        };
        let (h_out, c_out) = (&mut rest_h[0], &mut rest_c[0]);
        if masked {
            weights.step_masked_into(
                precision, &wx[t], h_prev, c_prev, &os[i], &masks[i], cell, h_out, c_out,
            );
        } else {
            weights.step_fused_into(precision, &wx[t], h_prev, c_prev, cell, h_out, c_out);
        }
        filled[t] = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
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
            let LayerBody::Baseline { cells } = &lp.body else {
                unreachable!()
            };
            for cell in cells {
                planned.extend([&cell.sgemv, &cell.ew]);
            }
        }
        planned.push(&plan.head);
        assert_eq!(trace.iter().collect::<Vec<_>>(), planned);
    }

    #[test]
    fn batched_outputs_bit_identical_per_sequence() {
        let (net, seqs) = setup(22);
        let plan =
            ExecutionPlan::compile_baseline(&net, seqs[0].len(), &DeviceModel::default_preset());
        let batched = PlanRuntime::new().run_lstm_batch(&plan, &net, &seqs, &mut NullSink);
        for (xs, out) in seqs.iter().zip(&batched) {
            let serial = PlanRuntime::new().run_lstm(&plan, &net, xs, &mut NullSink);
            assert_eq!(*out, serial);
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
        let LayerBody::Baseline { cells } = &layers[0].body else {
            unreachable!()
        };
        let sgemm = batched(&cells[0].sgemv, 4, &plan.regions);
        assert_eq!(sgemm.kind, KernelKind::Sgemm);
        assert_eq!(sgemm.reads[0].bytes, cells[0].sgemv.reads[0].bytes);
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
