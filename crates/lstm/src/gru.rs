//! Gated Recurrent Unit (GRU) cells.
//!
//! The paper focuses on LSTMs but notes (Sec. II-B) that "the proposed
//! methods can also be applied to GRUs with simple adjustment". This module
//! provides that adjustment target: GRU weights, the exact step, and a
//! masked step in the spirit of Dynamic Row Skip — for a GRU, a unit whose
//! update gate `z_t` is near zero keeps its previous hidden value, so the
//! candidate-state rows for those units can be skipped.

use rand::Rng;
use std::sync::OnceLock;
use tensor::init::{GateBiasInit, RowScaledInit};
use tensor::{sigmoid, tanh, FusedGates, Matrix, Precision, Vector};

/// Gate indices inside the fused `r, z, h` packs.
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
    /// slots are lossy but deterministic; all dropped on clone so
    /// clone-then-edit starts cache-cold).
    packed: [OnceLock<FusedGruWeights>; 3],
}

/// The fused packed gate slabs (`W_{r,z,h}` and `U_{r,z,h}`) at one
/// storage precision.
#[derive(Debug, Clone)]
struct FusedGruWeights {
    w: FusedGates,
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

/// Reusable scratch for the zero-allocation GRU step APIs (the GRU twin
/// of [`CellScratch`](crate::cell::CellScratch)).
#[derive(Debug, Default)]
pub struct GruScratch {
    /// `2 * hidden` slab: the `W·x` and `U·h` pre-activations of the
    /// gate currently being evaluated.
    slab: Vec<f32>,
    /// Reset gate `r_t`.
    r: Vec<f32>,
    /// `r_t ⊙ h_{t-1}`, the candidate GEMV operand.
    rh: Vector,
    /// Update gate `z_t` (dense step only; the masked step takes `z`).
    z: Vec<f32>,
}

impl GruScratch {
    /// New, empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
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
            u: FusedGates::pack(&[&self.u_r, &self.u_z, &self.u_h], precision),
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

    /// The update gate `z_t` alone (computed first in the DRS-adapted
    /// flow, mirroring Algorithm 3 lines 4–5).
    pub fn update_gate(&self, x: &Vector, h_prev: &Vector) -> Vector {
        let mut scratch = GruScratch::new();
        let mut z = Vector::zeros(0);
        self.update_gate_into(Precision::Fp32, x, h_prev, &mut scratch, &mut z);
        z
    }

    /// [`update_gate`](Self::update_gate) into a recycled buffer with the
    /// gate packs rounded to `precision` (activations stay fp32) — the
    /// zero-allocation form for DRS step loops. At `Fp32` it is
    /// bit-identical to the owned form.
    pub fn update_gate_into(
        &self,
        precision: Precision,
        x: &Vector,
        h_prev: &Vector,
        scratch: &mut GruScratch,
        z_out: &mut Vector,
    ) {
        let n = self.hidden;
        let fused = self.fused_at(precision);
        scratch.slab.clear();
        scratch.slab.resize(2 * n, 0.0);
        let (wz, uz) = scratch.slab.split_at_mut(n);
        fused.w.gate_gemv_into(GATE_Z, x.as_slice(), wz);
        fused.u.gate_gemv_into(GATE_Z, h_prev.as_slice(), uz);
        z_out.resize_fill(n, 0.0);
        for j in 0..n {
            z_out[j] = sigmoid(wz[j] + uz[j] + self.b_z[j]);
        }
    }

    /// One exact GRU step.
    pub fn step(&self, x: &Vector, h_prev: &Vector) -> Vector {
        let mut scratch = GruScratch::new();
        let mut h = Vector::zeros(0);
        self.step_into(Precision::Fp32, x, h_prev, &mut scratch, &mut h);
        h
    }

    /// The zero-allocation exact GRU step with the gate packs rounded to
    /// `precision`: each gate is one pass through the fused `r, z, h`
    /// packs into the scratch slab (all six GEMVs),
    /// with `r ⊙ h` and `z` held in recycled scratch buffers. At `Fp32`
    /// it is bit-identical to [`step`](Self::step) (the packed GEMV
    /// reproduces the reference `sgemv` bitwise, and the per-element
    /// expressions are unchanged).
    pub fn step_into(
        &self,
        precision: Precision,
        x: &Vector,
        h_prev: &Vector,
        scratch: &mut GruScratch,
        h_out: &mut Vector,
    ) {
        let n = self.hidden;
        let fused = self.fused_at(precision);
        scratch.slab.clear();
        scratch.slab.resize(2 * n, 0.0);
        scratch.r.clear();
        scratch.r.resize(n, 0.0);
        scratch.z.clear();
        scratch.z.resize(n, 0.0);
        let (wbuf, ubuf) = scratch.slab.split_at_mut(n);
        fused.w.gate_gemv_into(GATE_R, x.as_slice(), wbuf);
        fused.u.gate_gemv_into(GATE_R, h_prev.as_slice(), ubuf);
        for j in 0..n {
            scratch.r[j] = sigmoid(wbuf[j] + ubuf[j] + self.b_r[j]);
        }
        fused.w.gate_gemv_into(GATE_Z, x.as_slice(), wbuf);
        fused.u.gate_gemv_into(GATE_Z, h_prev.as_slice(), ubuf);
        for j in 0..n {
            scratch.z[j] = sigmoid(wbuf[j] + ubuf[j] + self.b_z[j]);
        }
        scratch.rh.resize_fill(n, 0.0);
        for j in 0..n {
            scratch.rh[j] = scratch.r[j] * h_prev[j];
        }
        fused.w.gate_gemv_into(GATE_H, x.as_slice(), wbuf);
        fused.u.gate_gemv_into(GATE_H, scratch.rh.as_slice(), ubuf);
        h_out.resize_fill(n, 0.0);
        for j in 0..n {
            let cand = tanh(wbuf[j] + ubuf[j] + self.b_h[j]);
            h_out[j] = (1.0 - scratch.z[j]) * h_prev[j] + scratch.z[j] * cand;
        }
    }

    /// The DRS-adapted GRU step: units where `active[j]` is `false`
    /// (near-zero update gate) skip their reset/candidate rows and copy the
    /// previous hidden value through.
    ///
    /// `z` must be the update gate from [`Self::update_gate`].
    ///
    /// # Panics
    /// Panics on length mismatches.
    pub fn step_masked(&self, x: &Vector, h_prev: &Vector, z: &Vector, active: &[bool]) -> Vector {
        let mut scratch = GruScratch::new();
        let mut h = Vector::zeros(0);
        self.step_masked_into(Precision::Fp32, x, h_prev, z, active, &mut scratch, &mut h);
        h
    }

    /// The zero-allocation DRS-adapted step with the gate packs stored
    /// at `precision`. `U_r` applies to `h_{t-1}` and `U_h` to
    /// `r ⊙ h_{t-1}`, so the two masked recurrent GEMVs run per gate
    /// (they cannot share one launch the way the LSTM's `f, i, c` prefix
    /// does); each runs in place on that gate's packed panels, computing
    /// only the panels that hold an active row. At `Fp32` it is
    /// bit-identical to [`step_masked`](Self::step_masked).
    ///
    /// # Panics
    /// Panics on length mismatches.
    #[allow(clippy::too_many_arguments)]
    pub fn step_masked_into(
        &self,
        precision: Precision,
        x: &Vector,
        h_prev: &Vector,
        z: &Vector,
        active: &[bool],
        scratch: &mut GruScratch,
        h_out: &mut Vector,
    ) {
        let n = self.hidden;
        assert_eq!(active.len(), n, "mask length mismatch");
        assert_eq!(z.len(), n, "update-gate length mismatch");
        let fused = self.fused_at(precision);
        scratch.slab.clear();
        scratch.slab.resize(2 * n, 0.0);
        scratch.r.clear();
        scratch.r.resize(n, 0.0);
        let (wbuf, ubuf) = scratch.slab.split_at_mut(n);
        fused.w.gate_gemv_into(GATE_R, x.as_slice(), wbuf);
        fused
            .u
            .gate_gemv_masked_into(GATE_R, h_prev.as_slice(), active, 0.0, ubuf);
        for j in 0..n {
            scratch.r[j] = if active[j] {
                sigmoid(wbuf[j] + ubuf[j] + self.b_r[j])
            } else {
                0.0
            };
        }
        scratch.rh.resize_fill(n, 0.0);
        for j in 0..n {
            scratch.rh[j] = scratch.r[j] * h_prev[j];
        }
        fused.w.gate_gemv_into(GATE_H, x.as_slice(), wbuf);
        fused
            .u
            .gate_gemv_masked_into(GATE_H, scratch.rh.as_slice(), active, 0.0, ubuf);
        h_out.resize_fill(n, 0.0);
        for j in 0..n {
            h_out[j] = if active[j] {
                let cand = tanh(wbuf[j] + ubuf[j] + self.b_h[j]);
                (1.0 - z[j]) * h_prev[j] + z[j] * cand
            } else {
                // Near-zero update gate: the unit copies its history.
                h_prev[j]
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensor::init::seeded_rng;

    fn weights(seed: u64) -> GruWeights {
        GruWeights::random(5, 8, &mut seeded_rng(seed))
    }

    fn vec_of(len: usize, seed: u64) -> Vector {
        let mut rng = seeded_rng(seed);
        Vector::from_fn(len, |_| rng.gen_range(-1.0f32..1.0))
    }

    #[test]
    fn shapes_and_sizes() {
        let w = weights(1);
        assert_eq!(w.hidden(), 8);
        assert_eq!(w.input_dim(), 5);
        assert_eq!(w.united_u_bytes(), 3 * 8 * 8 * 4);
    }

    #[test]
    fn hidden_state_stays_bounded() {
        let w = weights(2);
        let mut h = Vector::zeros(8);
        for s in 0..20 {
            h = w.step(&vec_of(5, s), &h);
            assert!(h.max_abs() <= 1.0, "GRU h escaped [-1,1]");
        }
    }

    #[test]
    fn zero_update_gate_copies_history() {
        // With z ~ 0 the unit must keep its previous value — the property
        // the masked step exploits.
        let w = weights(3);
        let h_prev = vec_of(8, 4);
        let x = vec_of(5, 5);
        let z = w.update_gate(&x, &h_prev);
        let h_next = w.step(&x, &h_prev);
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
        let x = vec_of(5, 8);
        let z = w.update_gate(&x, &h_prev);
        let exact = w.step(&x, &h_prev);
        let masked = w.step_masked(&x, &h_prev, &z, &[true; 8]);
        for j in 0..8 {
            assert!((exact[j] - masked[j]).abs() < 1e-6);
        }
    }

    #[test]
    fn masked_units_copy_previous_value() {
        let w = weights(9);
        let h_prev = vec_of(8, 10);
        let x = vec_of(5, 11);
        let z = w.update_gate(&x, &h_prev);
        let mut active = [true; 8];
        active[1] = false;
        active[6] = false;
        let h = w.step_masked(&x, &h_prev, &z, &active);
        assert_eq!(h[1], h_prev[1]);
        assert_eq!(h[6], h_prev[6]);
    }

    #[test]
    fn update_gate_population_has_saturated_units() {
        let w = GruWeights::random(16, 200, &mut seeded_rng(13));
        let z = w.update_gate(&vec_of(16, 14), &Vector::zeros(200));
        let closed = z.iter().filter(|&&v| v < 0.05).count();
        assert!(closed > 20, "too few mostly-copy units: {closed}");
    }
}
