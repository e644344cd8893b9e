//! Gated Recurrent Unit (GRU) cells.
//!
//! The paper focuses on LSTMs but notes (Sec. II-B) that "the proposed
//! methods can also be applied to GRUs with simple adjustment". This module
//! provides that adjustment target: GRU weights, the exact step, and a
//! masked step in the spirit of Dynamic Row Skip — for a GRU, a unit whose
//! update gate `z_t` is near zero keeps its previous hidden value, so the
//! candidate-state rows for those units can be skipped.
//!
//! The products use the LSTM cell's gate-major layout with three gates:
//! a layer's `W_{r,z,h}·x` is one `Vec<f32>` per sequence, `3H` per
//! column, and each step writes its `U_r·h`, `U_z·h` and `U_h·(r ⊙ h)`
//! products into their own sections of a `3H` scratch block, so `r`,
//! `z` and `h` are read at their own gate indices in both.

use crate::cell::{grow, CellScratch};
use rand::Rng;
use std::sync::OnceLock;
use tensor::activation::{gru_blend_into, gru_reset_into, sigmoid_gate_into, GateRows};
use tensor::init::{GateBiasInit, RowScaledInit};
use tensor::{FusedGates, Matrix, Precision, Vector};

/// Gate indices inside the fused `r, z, h` packs and the gate-major
/// `W·x` and `U·h` slabs they write.
const GATE_R: usize = 0;
const GATE_Z: usize = 1;
const GATE_H: usize = 2;

/// Per-layer GRU weights.
///
/// Gates follow the standard formulation:
/// `r = σ(W_r x + U_r h + b_r)`, `z = σ(W_z x + U_z h + b_z)`,
/// `h̃ = tanh(W_h x + U_h (r ⊙ h) + b_h)`, `h' = (1-z) ⊙ h + z ⊙ h̃`.
#[derive(Debug)]
pub struct GruWeights {
    /// Reset-gate input/recurrent/bias.
    pub w_r: Matrix,
    /// Update-gate input weights.
    pub w_z: Matrix,
    /// Candidate input weights.
    pub w_h: Matrix,
    /// Reset-gate recurrent weights.
    pub u_r: Matrix,
    /// Update-gate recurrent weights.
    pub u_z: Matrix,
    /// Candidate recurrent weights.
    pub u_h: Matrix,
    /// Reset-gate bias.
    pub b_r: Vector,
    /// Update-gate bias.
    pub b_z: Vector,
    /// Candidate bias.
    pub b_h: Vector,
    hidden: usize,
    input: usize,
    /// Lazily built fused `r, z, h` packs, one slot per [`Precision`]
    /// tier indexed by `precision as usize` (same rules as the LSTM
    /// cell's cache: the fp32 slot is a pure relayout, the quantized
    /// slots are lossy but deterministic; the `U` slab's row order is
    /// read from `b_z`; all dropped on clone so clone-then-edit starts
    /// cache-cold).
    packed: [OnceLock<FusedGruWeights>; 3],
}

/// The fused packed gate slabs (`W_{r,z,h}` and `U_{r,z,h}`) at one
/// storage precision.
#[derive(Debug, Clone)]
struct FusedGruWeights {
    /// `W_r / W_z / W_h`, natural row order.
    w: FusedGates,
    /// `U_r / U_z / U_h`, rows in ascending `b_z` order (ties by index),
    /// so the units whose update gate DRS finds near zero share panels
    /// and the masked `U_r`/`U_h` products skip them whole, as the LSTM
    /// slab does by `b_o`.
    u: FusedGates,
}

impl Clone for GruWeights {
    fn clone(&self) -> Self {
        Self {
            w_r: self.w_r.clone(),
            w_z: self.w_z.clone(),
            w_h: self.w_h.clone(),
            u_r: self.u_r.clone(),
            u_z: self.u_z.clone(),
            u_h: self.u_h.clone(),
            b_r: self.b_r.clone(),
            b_z: self.b_z.clone(),
            b_h: self.b_h.clone(),
            hidden: self.hidden,
            input: self.input,
            packed: Default::default(),
        }
    }
}

impl PartialEq for GruWeights {
    fn eq(&self, other: &Self) -> bool {
        // The packed cache is a pure relayout — equality is over the
        // logical weights only.
        self.w_r == other.w_r
            && self.w_z == other.w_z
            && self.w_h == other.w_h
            && self.u_r == other.u_r
            && self.u_z == other.u_z
            && self.u_h == other.u_h
            && self.b_r == other.b_r
            && self.b_z == other.b_z
            && self.b_h == other.b_h
            && self.hidden == other.hidden
            && self.input == other.input
    }
}

impl GruWeights {
    /// Samples trained-like GRU weights; a fraction of update gates are
    /// biased strongly negative (mostly-copy units — the GRU analogue of
    /// the LSTM's saturated output gates).
    pub fn random(input: usize, hidden: usize, rng: &mut impl Rng) -> Self {
        let rec = RowScaledInit::default();
        let xavier = |rng: &mut dyn rand::RngCore| tensor::init::xavier_uniform(rng, hidden, input);
        let plain = GateBiasInit {
            saturated_frac: 0.0,
            regular_mean: 0.0,
            regular_std: 0.3,
            ..GateBiasInit::default()
        };
        let update = GateBiasInit {
            saturated_frac: 0.35,
            ..GateBiasInit::default()
        };
        Self {
            w_r: xavier(rng),
            w_z: xavier(rng),
            w_h: xavier(rng),
            u_r: rec.sample(rng, hidden, hidden),
            u_z: rec.sample(rng, hidden, hidden),
            u_h: rec.sample(rng, hidden, hidden),
            b_r: plain.sample(rng, hidden),
            b_z: update.sample(rng, hidden),
            b_h: plain.sample(rng, hidden),
            hidden,
            input,
            packed: Default::default(),
        }
    }

    /// The packed gate slabs at `precision`, built on first use per tier.
    fn fused_at(&self, precision: Precision) -> &FusedGruWeights {
        self.packed[precision as usize].get_or_init(|| FusedGruWeights {
            w: FusedGates::pack(&[&self.w_r, &self.w_z, &self.w_h], precision),
            u: FusedGates::pack_sorted(
                &[&self.u_r, &self.u_z, &self.u_h],
                precision,
                self.b_z.as_slice(),
            ),
        })
    }

    /// Hidden width.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Input width.
    pub fn input_dim(&self) -> usize {
        self.input
    }

    /// Bytes of the united recurrent matrix `U_{r,z,h}`.
    pub fn united_u_bytes(&self) -> u64 {
        3 * self.hidden as u64 * self.hidden as u64 * 4
    }

    /// The `W_{r,z,h}·x_t` terms of a batch of input columns, with the `W`
    /// triple stored at `precision`, through the same GEMM-shaped walk as
    /// [`CellWeights::precompute_wx_batch_into`](crate::cell::CellWeights::precompute_wx_batch_into):
    /// `out` is resized to `xs.len() * 3 * hidden`, column `t`'s
    /// gate-major `r, z, h` terms at `out[3 * hidden * t ..]`, buffers
    /// reused.
    ///
    /// # Panics
    /// Panics if any `xs[i].len() != input_dim`.
    pub(crate) fn precompute_wx_batch_into(
        &self,
        precision: Precision,
        xs: &[Vector],
        out: &mut Vec<f32>,
    ) {
        out.resize(xs.len() * 3 * self.hidden, 0.0);
        self.fused_at(precision).w.gemv_batch_into(xs, out);
    }

    /// Gate `g`'s pre-activation addends: its sections of the gate-major
    /// `wx` and `uh` slabs, and its bias.
    fn gate_rows<'a>(&'a self, g: usize, wx: &'a [f32], uh: &'a [f32]) -> GateRows<'a, 1> {
        let b = [&self.b_r, &self.b_z, &self.b_h][g];
        GateRows::sections([g], self.hidden, wx, uh, [b.as_slice()])
    }

    /// Gate `g`'s section of a gate-major `U·h` slab.
    fn section<'a>(&self, uh: &'a mut [f32], g: usize) -> &'a mut [f32] {
        &mut uh[g * self.hidden..(g + 1) * self.hidden]
    }

    /// The update gates `z_t` alone of independent steps, one column per
    /// `h_prev[j]`, with the `U` triple stored at `precision` — computed
    /// first in the DRS-adapted flow, mirroring Algorithm 3 lines 4–5.
    /// One dense walk over the `U_z` panels computes every column's
    /// product ([`FusedGates::gate_gemv_into`]); then column `j`'s gate
    /// goes into the recycled `z_out[j]` from its gate-major `W·x` terms,
    /// the `j`-th item of `wx`. Each column is bit-identical to computing
    /// it alone.
    ///
    /// # Panics
    /// Panics if `wx` or `z_out` holds fewer columns than `h_prev`, or any
    /// `h_prev[j].len() != hidden`.
    pub fn update_gate_into<'a>(
        &self,
        precision: Precision,
        wx: impl IntoIterator<Item = &'a [f32]>,
        h_prev: &[Vector],
        scratch: &mut CellScratch,
        z_out: &mut [Vector],
    ) {
        let n = self.hidden;
        let len = n * h_prev.len();
        grow(&mut scratch.slab, len);
        let uz = &mut scratch.slab[..len];
        self.fused_at(precision)
            .u
            .gate_gemv_into(GATE_Z, h_prev, uz);
        let mut columns = 0;
        for ((wx, uz), z) in wx.into_iter().zip(uz.chunks_exact(n)).zip(z_out) {
            z.resize_fill(n, 0.0);
            let rows = GateRows {
                wx: [&wx[GATE_Z * n..(GATE_Z + 1) * n]],
                uh: [uz],
                b: [self.b_z.as_slice()],
            };
            sigmoid_gate_into(rows, z.as_mut_slice());
            columns += 1;
        }
        assert_eq!(
            columns,
            h_prev.len(),
            "update_gate_into: one W·x column and one output per h_prev column"
        );
    }

    /// One exact GRU step from its gate-major `W·x` terms, with the `U`
    /// triple stored at `precision` (activations stay fp32): one `U_g`
    /// GEMV per gate through the fused `r, z, h` pack into its section of
    /// the scratch slab, which also holds `z` and `r ⊙ h`.
    pub fn step_into(
        &self,
        precision: Precision,
        wx: &[f32],
        h_prev: &Vector,
        scratch: &mut CellScratch,
        h_out: &mut Vector,
    ) {
        let n = self.hidden;
        let u = &self.fused_at(precision).u;
        let h = h_prev.as_slice();
        grow(&mut scratch.slab, 5 * n);
        let (uh, rest) = scratch.slab[..5 * n].split_at_mut(3 * n);
        let (z, rh) = rest.split_at_mut(n);
        u.gate_gemv_into(GATE_R, &[h], self.section(uh, GATE_R));
        gru_reset_into(self.gate_rows(GATE_R, wx, uh), h, None, rh);
        u.gate_gemv_into(GATE_Z, &[h], self.section(uh, GATE_Z));
        sigmoid_gate_into(self.gate_rows(GATE_Z, wx, uh), z);
        u.gate_gemv_into(GATE_H, &[&*rh], self.section(uh, GATE_H));
        h_out.resize_fill(n, 0.0);
        gru_blend_into(
            self.gate_rows(GATE_H, wx, uh),
            z,
            h,
            None,
            h_out.as_mut_slice(),
        );
    }

    /// The DRS-adapted GRU step from its gate-major `W·x` terms, with the
    /// `U` triple stored at `precision`: units where `active[j]` is
    /// `false` (near-zero update gate) skip their reset/candidate rows and
    /// copy the previous hidden value through. `U_r` applies to `h_{t-1}`
    /// and `U_h` to `r ⊙ h_{t-1}`, so the two masked recurrent GEMVs run
    /// per gate (they cannot share one launch the way the LSTM's `f, i, c`
    /// prefix does); each runs in place on that gate's packed panels,
    /// computing only the panels that hold an active row. `z` is the
    /// update gate from [`update_gate_into`](Self::update_gate_into).
    ///
    /// # Panics
    /// Panics on length mismatches.
    #[allow(clippy::too_many_arguments)]
    pub fn step_masked_into(
        &self,
        precision: Precision,
        wx: &[f32],
        h_prev: &Vector,
        z: &Vector,
        active: &[bool],
        scratch: &mut CellScratch,
        h_out: &mut Vector,
    ) {
        let n = self.hidden;
        assert_eq!(active.len(), n, "mask length mismatch");
        assert_eq!(z.len(), n, "update-gate length mismatch");
        let u = &self.fused_at(precision).u;
        let h = h_prev.as_slice();
        grow(&mut scratch.slab, 4 * n);
        let (uh, rh) = scratch.slab[..4 * n].split_at_mut(3 * n);
        u.gate_gemv_masked_into(GATE_R, h, active, 0.0, self.section(uh, GATE_R));
        gru_reset_into(self.gate_rows(GATE_R, wx, uh), h, Some(active), rh);
        u.gate_gemv_masked_into(GATE_H, rh, active, 0.0, self.section(uh, GATE_H));
        h_out.resize_fill(n, 0.0);
        gru_blend_into(
            self.gate_rows(GATE_H, wx, uh),
            z.as_slice(),
            h,
            Some(active),
            h_out.as_mut_slice(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensor::gemm::sgemv;
    use tensor::init::seeded_rng;

    fn weights(seed: u64) -> GruWeights {
        GruWeights::random(5, 8, &mut seeded_rng(seed))
    }

    fn vec_of(len: usize, seed: u64) -> Vector {
        let mut rng = seeded_rng(seed);
        Vector::from_fn(len, |_| rng.gen_range(-1.0f32..1.0))
    }

    fn wx_of(w: &GruWeights, x: &Vector) -> Vec<f32> {
        let mut out = Vec::new();
        w.precompute_wx_batch_into(Precision::Fp32, std::slice::from_ref(x), &mut out);
        out
    }

    fn update_gate(w: &GruWeights, wx: &[f32], h: &Vector) -> Vector {
        let mut z = [Vector::zeros(0)];
        w.update_gate_into(
            Precision::Fp32,
            [wx],
            std::slice::from_ref(h),
            &mut CellScratch::new(),
            &mut z,
        );
        let [z] = z;
        z
    }

    fn step(w: &GruWeights, wx: &[f32], h: &Vector) -> Vector {
        let mut h_out = Vector::zeros(0);
        w.step_into(Precision::Fp32, wx, h, &mut CellScratch::new(), &mut h_out);
        h_out
    }

    fn step_masked(w: &GruWeights, wx: &[f32], h: &Vector, active: &[bool]) -> Vector {
        let z = update_gate(w, wx, h);
        let mut h_out = Vector::zeros(0);
        let mut scratch = CellScratch::new();
        w.step_masked_into(Precision::Fp32, wx, h, &z, active, &mut scratch, &mut h_out);
        h_out
    }

    #[test]
    fn shapes_and_sizes() {
        let w = weights(1);
        assert_eq!(w.hidden(), 8);
        assert_eq!(w.input_dim(), 5);
        assert_eq!(w.united_u_bytes(), 3 * 8 * 8 * 4);
    }

    #[test]
    fn batched_wx_matches_per_gate_sgemv() {
        // The batched W·x walk over the fused r, z, h pack reproduces the
        // naive per-gate products bitwise, column by column.
        let w = GruWeights::random(11, 13, &mut seeded_rng(12));
        let xs: Vec<Vector> = (0..5).map(|s| vec_of(11, 30 + s)).collect();
        let mut wx = Vec::new();
        w.precompute_wx_batch_into(Precision::Fp32, &xs, &mut wx);
        assert_eq!(wx.len(), xs.len() * 3 * 13);
        for (x, column) in xs.iter().zip(wx.chunks(3 * 13)) {
            assert_eq!(&column[GATE_R * 13..][..13], sgemv(&w.w_r, x).as_slice());
            assert_eq!(&column[GATE_Z * 13..][..13], sgemv(&w.w_z, x).as_slice());
            assert_eq!(&column[GATE_H * 13..][..13], sgemv(&w.w_h, x).as_slice());
        }
    }

    #[test]
    fn hidden_state_stays_bounded() {
        let w = weights(2);
        let mut h = Vector::zeros(8);
        for s in 0..20 {
            h = step(&w, &wx_of(&w, &vec_of(5, s)), &h);
            assert!(h.max_abs() <= 1.0, "GRU h escaped [-1,1]");
        }
    }

    #[test]
    fn zero_update_gate_copies_history() {
        // With z ~ 0 the unit must keep its previous value — the property
        // the masked step exploits.
        let w = weights(3);
        let h_prev = vec_of(8, 4);
        let wx = wx_of(&w, &vec_of(5, 5));
        let z = update_gate(&w, &wx, &h_prev);
        let h_next = step(&w, &wx, &h_prev);
        for j in 0..8 {
            if z[j] < 0.01 {
                assert!((h_next[j] - h_prev[j]).abs() < 0.03);
            }
        }
    }

    #[test]
    fn full_mask_matches_exact_step() {
        let w = weights(6);
        let h_prev = vec_of(8, 7);
        let wx = wx_of(&w, &vec_of(5, 8));
        let exact = step(&w, &wx, &h_prev);
        let masked = step_masked(&w, &wx, &h_prev, &[true; 8]);
        for j in 0..8 {
            assert!((exact[j] - masked[j]).abs() < 1e-6);
        }
    }

    #[test]
    fn masked_units_copy_previous_value() {
        let w = weights(9);
        let h_prev = vec_of(8, 10);
        let wx = wx_of(&w, &vec_of(5, 11));
        let mut active = [true; 8];
        active[1] = false;
        active[6] = false;
        let h = step_masked(&w, &wx, &h_prev, &active);
        assert_eq!(h[1], h_prev[1]);
        assert_eq!(h[6], h_prev[6]);
    }

    #[test]
    fn update_gate_population_has_saturated_units() {
        let w = GruWeights::random(16, 200, &mut seeded_rng(13));
        let z = update_gate(&w, &wx_of(&w, &vec_of(16, 14)), &Vector::zeros(200));
        let closed = z.iter().filter(|&&v| v < 0.05).count();
        assert!(closed > 20, "too few mostly-copy units: {closed}");
    }
}
