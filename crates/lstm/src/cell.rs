//! The LSTM cell: weights and the Eq. 1–5 arithmetic.

use rand::Rng;
use std::sync::OnceLock;
use tensor::init::{xavier_uniform, GateBiasInit, RowScaledInit};
use tensor::{
    tanh, Activation, FusedGates, GatherScratch, Matrix, Precision, QuantizedGates, Vector,
};

/// One vector per LSTM gate, in the paper's `f, i, c, o` order.
///
/// Depending on context this holds pre-activations (`W·x` terms), biases,
/// or post-activation gate values.
#[derive(Debug, Clone, PartialEq)]
pub struct GateVectors {
    /// Forget-gate component.
    pub f: Vector,
    /// Input-gate component.
    pub i: Vector,
    /// Candidate-state component.
    pub c: Vector,
    /// Output-gate component.
    pub o: Vector,
}

impl GateVectors {
    /// All-zero gate vectors of width `hidden`.
    pub fn zeros(hidden: usize) -> Self {
        Self {
            f: Vector::zeros(hidden),
            i: Vector::zeros(hidden),
            c: Vector::zeros(hidden),
            o: Vector::zeros(hidden),
        }
    }
}

/// Alias used where the vectors are the `W_{f,i,c,o}·x_t` pre-activation
/// terms computed by the per-layer `Sgemm` (paper Fig. 3, part 2).
pub type GatePreacts = GateVectors;

/// Result of one detailed cell step: outputs plus post-activation gates.
#[derive(Debug, Clone, PartialEq)]
pub struct CellStep {
    /// Hidden output `h_t`.
    pub h: Vector,
    /// Cell state `c_t`.
    pub c: Vector,
    /// Post-activation gate values (`f_t`, `i_t`, `tanh` candidate, `o_t`).
    pub gates: GateVectors,
}

/// The per-layer LSTM weights (shared by every unrolled cell of the layer).
///
/// Matrices follow Eqs. 1–4: `W_g` is `hidden x input`, `U_g` is
/// `hidden x hidden`, and `b_g` has length `hidden`, for each gate
/// `g ∈ {f, i, c, o}`.
#[derive(Debug)]
pub struct CellWeights {
    /// Input weights per gate.
    pub w: GateMatrices,
    /// Recurrent weights per gate.
    pub u: GateMatrices,
    /// Biases per gate.
    pub b: GateVectors,
    hidden: usize,
    input: usize,
    gate_activation: Activation,
    /// Lazily built fused packed copies of the gate matrices, shared
    /// by every plan/runtime that executes this layer — one slot per
    /// [`Precision`] tier (`fp32`/`fp16`/`int8`), indexed by
    /// `precision as usize`. Packing is paid once per layer per tier,
    /// not per timestep (cf. E-PUR's tiled weight reuse). The fp32
    /// cache never diverges from `w`/`u` numerically (packing is a
    /// relayout, not a transform); the quantized tiers are lossy by
    /// design but deterministic. Callers that mutate the public weight
    /// fields after a forward pass must rebuild the cell via
    /// [`CellWeights::from_parts`] to drop the stale panels. `Clone` is
    /// manual and does **not** copy the caches, so the common
    /// clone-then-edit pattern (e.g. zero pruning) starts cache-cold.
    packed: [OnceLock<FusedCellWeights>; 3],
}

impl Clone for CellWeights {
    fn clone(&self) -> Self {
        Self {
            w: self.w.clone(),
            u: self.u.clone(),
            b: self.b.clone(),
            hidden: self.hidden,
            input: self.input,
            gate_activation: self.gate_activation,
            // Deliberately fresh: a clone is usually made to be edited,
            // and a carried-over cache would keep serving the original
            // weights after the edit.
            packed: Default::default(),
        }
    }
}

/// One packed gate quartet at a chosen storage precision: the exact fp32
/// row-panel slab ([`FusedGates`]) or its quantized twin
/// ([`QuantizedGates`], fp16/int8 with dequantize-on-load kernels). Both
/// share the panel layout and accumulation order, so every forwarding
/// method below is bit-identical to the fp32 kernel run on the
/// dequantized ([`Precision::apply`]) weights.
#[derive(Debug, Clone)]
pub(crate) enum GateSlab {
    /// Full-precision fused panels.
    Exact(FusedGates),
    /// fp16/int8 panels, dequantized as they stream through the kernel.
    Quant(QuantizedGates),
}

impl GateSlab {
    /// Packs the gate quartet at `precision`.
    pub(crate) fn pack(mats: &[&Matrix], precision: Precision) -> Self {
        match precision {
            Precision::Fp32 => GateSlab::Exact(FusedGates::pack(mats)),
            _ => GateSlab::Quant(QuantizedGates::pack(mats, precision)),
        }
    }

    /// Fused GEMV over every gate: `out` is the stacked gate results.
    pub(crate) fn gemv_into(&self, x: &[f32], out: &mut [f32]) {
        match self {
            GateSlab::Exact(f) => f.gemv_into(x, out),
            GateSlab::Quant(q) => q.gemv_into(x, out),
        }
    }

    /// GEMV of one gate's matrix only.
    pub(crate) fn gate_gemv_into(&self, g: usize, x: &[f32], out: &mut [f32]) {
        match self {
            GateSlab::Exact(f) => f.gate_gemv_into(g, x, out),
            GateSlab::Quant(q) => q.gate_gemv_into(g, x, out),
        }
    }

    /// GEMM-shaped batch GEMV of one gate over many input columns.
    pub(crate) fn gate_gemv_batch_with(
        &self,
        g: usize,
        xs: &[Vector],
        write: impl FnMut(usize, usize, &[f32]),
    ) {
        match self {
            GateSlab::Exact(f) => f.gate_gemv_batch_with(g, xs, write),
            GateSlab::Quant(q) => q.gate_gemv_batch_with(g, xs, write),
        }
    }

    /// Row-masked GEMV over the first `ngates` gates under one shared mask.
    pub(crate) fn gemv_masked_prefix_into(
        &self,
        ngates: usize,
        x: &Vector,
        active: &[bool],
        skipped_value: f32,
        scratch: &mut GatherScratch,
        out: &mut [f32],
    ) {
        match self {
            GateSlab::Exact(f) => {
                f.gemv_masked_prefix_into(ngates, x, active, skipped_value, scratch, out)
            }
            GateSlab::Quant(q) => {
                q.gemv_masked_prefix_into(ngates, x, active, skipped_value, scratch, out)
            }
        }
    }

    /// Row-masked GEMV of one gate.
    pub(crate) fn gate_gemv_masked_into(
        &self,
        g: usize,
        x: &Vector,
        active: &[bool],
        skipped_value: f32,
        scratch: &mut GatherScratch,
        out: &mut [f32],
    ) {
        match self {
            GateSlab::Exact(f) => {
                f.gate_gemv_masked_into(g, x, active, skipped_value, scratch, out)
            }
            GateSlab::Quant(q) => {
                q.gate_gemv_masked_into(g, x, active, skipped_value, scratch, out)
            }
        }
    }
}

/// Fused row-panel packed copies of the gate matrices (see
/// [`tensor::fused`]): the `W_{f,i,c,o}` quartet in one slab and the
/// `U_{f,i,c,o}` quartet in another, each applied with a single fused
/// GEMV per step instead of four. Built lazily by
/// [`CellWeights::fused_at`]; gate order is `f, i, c, o` (so the masked
/// DRS step can run the `f, i, c` prefix under one shared row mask and
/// [`CellWeights::output_gate`] addresses gate `3`).
#[derive(Debug, Clone)]
struct FusedCellWeights {
    /// `W_f / W_i / W_c / W_o` (`hidden x input` each).
    w: GateSlab,
    /// `U_f / U_i / U_c / U_o` (`hidden x hidden` each).
    u: GateSlab,
}

/// Gate indices inside the fused `f, i, c, o` packs.
const GATE_O: usize = 3;

/// Reusable scratch for the zero-allocation `_into` cell-step APIs.
///
/// One `CellScratch` serves any number of layers sequentially: the
/// fused-gate slab and the DRS gather panel grow to the largest layer
/// seen and are then reused without further heap traffic. Runtimes keep
/// one of these per workspace and rent it to every step.
#[derive(Debug, Default)]
pub struct CellScratch {
    /// Fused pre-activation slab: `4 * hidden` for dense steps
    /// (`U_{f,i,c,o}·h`), `3 * hidden` for masked steps (`U_{f,i,c}·h`),
    /// `hidden` for the output-gate-only launch.
    slab: Vec<f32>,
    /// Row-gather panel for DRS-masked recurrent GEMVs.
    gather: GatherScratch,
}

impl CellScratch {
    /// New, empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

impl PartialEq for CellWeights {
    fn eq(&self, other: &Self) -> bool {
        // The packed cache is a pure relayout of `w`/`u` — two cells are
        // equal iff their logical weights are, cache state aside.
        self.w == other.w
            && self.u == other.u
            && self.b == other.b
            && self.hidden == other.hidden
            && self.input == other.input
            && self.gate_activation == other.gate_activation
    }
}

/// One matrix per LSTM gate, in `f, i, c, o` order.
#[derive(Debug, Clone, PartialEq)]
pub struct GateMatrices {
    /// Forget gate.
    pub f: Matrix,
    /// Input gate.
    pub i: Matrix,
    /// Candidate state.
    pub c: Matrix,
    /// Output gate.
    pub o: Matrix,
}

impl GateMatrices {
    fn each_shape(&self) -> (usize, usize) {
        self.f.shape()
    }
}

/// Parameters of the trained-like random initialization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellInit {
    /// Recurrent-matrix sampler (row-scale spread drives the weak-link
    /// population Algorithm 2 discovers).
    pub recurrent: RowScaledInit,
    /// Output-gate bias mixture (saturated fraction drives the trivial-row
    /// population Dynamic Row Skip removes).
    pub output_bias: GateBiasInit,
    /// Mean of the forget-gate bias (the usual `+1` convention keeps early
    /// state alive).
    pub forget_bias_mean: f32,
    /// Gain multiplier on the input matrices `W`. Trained LSTMs are
    /// strongly input-driven: the `W·x + b` term frequently pushes gate
    /// pre-activations outside the sensitive area, which is precisely what
    /// makes some context links weak (paper Sec. IV-A). A gain `> 1`
    /// reproduces that saturation statistics on synthetic weights.
    pub input_gain: f32,
    /// Wire input channel 0 as a *segment boundary* detector: every
    /// forget-gate row receives a strong negative weight on that channel
    /// (and the input/output gates moderate negative ones), so a boundary
    /// token coherently resets the cell. Trained LSTMs on text are well
    /// documented to learn exactly such units at sentence/clause
    /// boundaries; these resets are the weak context links the paper's
    /// layer division finds. Only meaningful for the first layer (deeper
    /// layers see hidden states, not tokens).
    pub boundary_channel: bool,
    /// Constant added to every entry of `W_f` — the *content keep-alive*
    /// structure of deeper layers in stacked LSTMs: hidden states carry a
    /// positive drift, so a positive-mean forget row keeps memory alive on
    /// content and lets it collapse on the near-zero hidden states a lower
    /// layer emits at segment boundaries. Combine with a negative
    /// [`CellInit::forget_bias_mean`] to make the reset effective.
    pub forget_input_shift: f32,
    /// Mean of the candidate-state bias. The first layer carries a clear
    /// positive drift (what makes the Eq. 6 expectation informative);
    /// deeper layers need a small drift or their cell states saturate
    /// `tanh` into a near-constant pattern and stop carrying information.
    pub cand_bias_mean: f32,
}

impl Default for CellInit {
    fn default() -> Self {
        Self {
            recurrent: RowScaledInit {
                base_std: 0.012,
                light_row_frac: 0.55,
                light_scale: 0.15,
            },
            output_bias: GateBiasInit::default(),
            forget_bias_mean: 1.0,
            input_gain: 2.2,
            boundary_channel: true,
            forget_input_shift: 0.0,
            cand_bias_mean: 0.45,
        }
    }
}

impl CellWeights {
    /// Builds weights from explicit parts.
    ///
    /// # Panics
    /// Panics if any shape is inconsistent with (`hidden`, `input`).
    pub fn from_parts(w: GateMatrices, u: GateMatrices, b: GateVectors) -> Self {
        let (hidden, input) = w.each_shape();
        for m in [&w.f, &w.i, &w.c, &w.o] {
            assert_eq!(m.shape(), (hidden, input), "W gate shape mismatch");
        }
        for m in [&u.f, &u.i, &u.c, &u.o] {
            assert_eq!(m.shape(), (hidden, hidden), "U gate shape mismatch");
        }
        for v in [&b.f, &b.i, &b.c, &b.o] {
            assert_eq!(v.len(), hidden, "bias length mismatch");
        }
        Self {
            w,
            u,
            b,
            hidden,
            input,
            gate_activation: Activation::Sigmoid,
            packed: Default::default(),
        }
    }

    /// The packed copies of the gate matrices at `precision`, built on
    /// first use per tier and reused for the lifetime of the cell.
    fn fused_at(&self, precision: Precision) -> &FusedCellWeights {
        self.packed[precision as usize].get_or_init(|| FusedCellWeights {
            w: GateSlab::pack(&[&self.w.f, &self.w.i, &self.w.c, &self.w.o], precision),
            u: GateSlab::pack(&[&self.u.f, &self.u.i, &self.u.c, &self.u.o], precision),
        })
    }

    /// Switches the gate activation to the hard sigmoid (the accelerated
    /// variant some mobile frameworks substitute; paper Sec. IV-A notes
    /// the sensitive-area boundaries fit both). The candidate/state path
    /// keeps `tanh`.
    pub fn with_gate_activation(mut self, activation: Activation) -> Self {
        self.gate_activation = activation;
        self
    }

    /// The gate activation in use.
    pub fn gate_activation(&self) -> Activation {
        self.gate_activation
    }

    /// Samples trained-like weights with the default [`CellInit`].
    pub fn random(input: usize, hidden: usize, rng: &mut impl Rng) -> Self {
        Self::random_with(input, hidden, &CellInit::default(), rng)
    }

    /// Samples trained-like weights with explicit initialization parameters.
    ///
    /// Output-gate behaviour is sampled *per unit* in three persistent
    /// classes, mirroring trained LSTMs where a unit's role is stable over
    /// time rather than flickering token to token:
    ///
    /// * **deep-saturated** (fraction [`GateBiasInit::saturated_frac`]):
    ///   strongly negative `b_o` *and* attenuated `W_o`/`U_o` rows, so the
    ///   unit's output gate stays near zero for every input — the trivial
    ///   rows Dynamic Row Skip removes at any threshold;
    /// * **quiet** (fixed ~18%): moderately negative bias and attenuated
    ///   rows (`o_t` hovers in the few-percent range) — skippable only at
    ///   larger `α_intra`, at a measurable but small accuracy cost;
    /// * **active**: ordinary bias and full-scale rows.
    pub fn random_with(input: usize, hidden: usize, init: &CellInit, rng: &mut impl Rng) -> Self {
        const QUIET_FRAC: f32 = 0.18;
        // Per-unit output-gate class: 0 = active, 1 = quiet, 2 = deep.
        let classes: Vec<u8> = (0..hidden)
            .map(|_| {
                let r: f32 = rng.gen();
                if r < init.output_bias.saturated_frac {
                    2
                } else if r < init.output_bias.saturated_frac + QUIET_FRAC {
                    1
                } else {
                    0
                }
            })
            .collect();
        // The output gate's input coupling is weaker than the other
        // gates' across all classes (trained LSTMs hold o_t steadier than
        // f/i/c against token-magnitude swings); deep/quiet units are
        // attenuated further so they cannot be woken by strong tokens.
        let o_row_scale = |class: u8| match class {
            2 => 0.10f32,
            1 => 0.20,
            _ => 0.30,
        };

        let mut u_mat = || init.recurrent.sample(rng, hidden, hidden);
        let u_f = u_mat();
        let u_i = u_mat();
        let u_c = u_mat();
        let mut u_o = u_mat();
        for (j, &class) in classes.iter().enumerate() {
            let scale = o_row_scale(class);
            if scale < 1.0 {
                for v in u_o.row_mut(j) {
                    *v *= scale;
                }
            }
        }
        let u = GateMatrices {
            f: u_f,
            i: u_i,
            c: u_c,
            o: u_o,
        };

        let w_mat = |rng: &mut dyn rand::RngCore| {
            let mut m = xavier_uniform(rng, hidden, input);
            for v in m.as_mut_slice() {
                *v *= init.input_gain;
            }
            m
        };
        let mut w_f = w_mat(rng);
        if init.forget_input_shift != 0.0 {
            for v in w_f.as_mut_slice() {
                *v += init.forget_input_shift;
            }
        }
        let mut w_i = w_mat(rng);
        let w_c = w_mat(rng);
        let mut w_o = w_mat(rng);
        for (j, &class) in classes.iter().enumerate() {
            let scale = o_row_scale(class);
            if scale < 1.0 {
                for v in w_o.row_mut(j) {
                    *v *= scale;
                }
            }
        }
        if init.boundary_channel {
            // The learned segment-boundary detector: channel 0 closes the
            // forget and input gates and quiets the output gate.
            for j in 0..hidden {
                w_f[(j, 0)] = -(2.0 + tensor::init::normal(rng, 0.0, 0.5).abs());
                w_i[(j, 0)] = -(1.4 + tensor::init::normal(rng, 0.0, 0.4).abs());
                let o_scale = o_row_scale(classes[j]);
                w_o[(j, 0)] =
                    -(1.1 + tensor::init::normal(rng, 0.0, 0.3).abs()) / o_scale.max(0.3) * o_scale;
            }
        }
        let w = GateMatrices {
            f: w_f,
            i: w_i,
            c: w_c,
            o: w_o,
        };

        let plain = GateBiasInit {
            saturated_frac: 0.0,
            regular_mean: 0.0,
            regular_std: 0.3,
            ..init.output_bias
        };
        // Trained models are not sign-symmetric: the candidate-state bias
        // carries a positive drift, which is what makes the context-link
        // expectation (Eq. 6) a genuinely better predictor than zero.
        let cand = GateBiasInit {
            saturated_frac: 0.0,
            regular_mean: init.cand_bias_mean,
            regular_std: 0.35,
            ..init.output_bias
        };
        let forget = GateBiasInit {
            saturated_frac: 0.0,
            regular_mean: init.forget_bias_mean,
            regular_std: 0.3,
            ..init.output_bias
        };
        let b_o = Vector::from_fn(hidden, |j| match classes[j] {
            2 => tensor::init::normal(rng, -5.0, 0.45),
            1 => tensor::init::normal(rng, -2.6, 0.35),
            _ => tensor::init::normal(rng, init.output_bias.regular_mean, 0.55),
        });
        let b = GateVectors {
            f: forget.sample(rng, hidden),
            i: plain.sample(rng, hidden),
            c: cand.sample(rng, hidden),
            o: b_o,
        };
        Self::from_parts(w, u, b)
    }

    /// Hidden width.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Input width.
    pub fn input_dim(&self) -> usize {
        self.input
    }

    /// Bytes of the united recurrent matrix `U_{f,i,c,o}`.
    pub fn united_u_bytes(&self) -> u64 {
        4 * self.hidden as u64 * self.hidden as u64 * 4
    }

    /// Bytes of the `U_{f,i,c}` slice used by the masked Sgemv of
    /// Algorithm 3 line 7.
    pub fn u_fic_bytes(&self) -> u64 {
        3 * self.hidden as u64 * self.hidden as u64 * 4
    }

    /// Bytes of the `U_o` slice used by Algorithm 3 line 4.
    pub fn u_o_bytes(&self) -> u64 {
        self.hidden as u64 * self.hidden as u64 * 4
    }

    /// Bytes of the united input matrix `W_{f,i,c,o}`.
    pub fn united_w_bytes(&self) -> u64 {
        4 * self.hidden as u64 * self.input as u64 * 4
    }

    /// The united recurrent matrix (rows stacked `f, i, c, o`), as the
    /// backend library would lay it out (paper Sec. II-C).
    pub fn united_u(&self) -> Matrix {
        Matrix::vstack(&[&self.u.f, &self.u.i, &self.u.c, &self.u.o])
    }

    /// Computes the `W_{f,i,c,o}·x_t` pre-activation terms (no bias).
    ///
    /// # Panics
    /// Panics if `x.len() != input_dim`.
    pub fn precompute_wx(&self, x: &Vector) -> GatePreacts {
        let mut out = GatePreacts::zeros(self.hidden);
        self.precompute_wx_into(Precision::Fp32, x, &mut out);
        out
    }

    /// [`precompute_wx`](Self::precompute_wx) into caller-owned gate
    /// vectors (resized in place; allocation-free once at width), with
    /// the `W` quartet stored at `precision`. One fused pass over the
    /// `W_{f,i,c,o}` slab fills all four sections. `Fp32` is the exact
    /// path; the quantized tiers dequantize on load with the same
    /// accumulation order, so the result is bit-identical to running
    /// fp32 on the [`Precision::apply`]-dequantized weights.
    ///
    /// # Panics
    /// Panics if `x.len() != input_dim`.
    pub fn precompute_wx_into(&self, precision: Precision, x: &Vector, out: &mut GatePreacts) {
        let n = self.hidden;
        let fused = &self.fused_at(precision).w;
        out.f.resize_fill(n, 0.0);
        out.i.resize_fill(n, 0.0);
        out.c.resize_fill(n, 0.0);
        out.o.resize_fill(n, 0.0);
        fused.gate_gemv_into(0, x.as_slice(), out.f.as_mut_slice());
        fused.gate_gemv_into(1, x.as_slice(), out.i.as_mut_slice());
        fused.gate_gemv_into(2, x.as_slice(), out.c.as_mut_slice());
        fused.gate_gemv_into(GATE_O, x.as_slice(), out.o.as_mut_slice());
    }

    /// The `W_{f,i,c,o}·x_t` terms of a whole batch of input columns, with
    /// the `W` quartet stored at `precision`, through the GEMM-shaped fused
    /// path: each weight panel is walked once and reused by every column.
    /// `out` is resized to `xs.len()` entries and fully overwritten, so a
    /// recycled buffer never touches the allocator. Entry `i` is
    /// bit-identical to [`precompute_wx_into`](Self::precompute_wx_into)`(precision, &xs[i], ..)`.
    ///
    /// # Panics
    /// Panics if any `xs[i].len() != input_dim`.
    pub fn precompute_wx_batch_into(
        &self,
        precision: Precision,
        xs: &[Vector],
        out: &mut Vec<GatePreacts>,
    ) {
        let n = self.hidden;
        out.resize_with(xs.len(), || GatePreacts::zeros(n));
        for gp in out.iter_mut() {
            gp.f.resize_fill(n, 0.0);
            gp.i.resize_fill(n, 0.0);
            gp.c.resize_fill(n, 0.0);
            gp.o.resize_fill(n, 0.0);
        }
        let fused = &self.fused_at(precision).w;
        fused.gate_gemv_batch_with(0, xs, |i, row0, vals| {
            out[i].f.as_mut_slice()[row0..row0 + vals.len()].copy_from_slice(vals);
        });
        fused.gate_gemv_batch_with(1, xs, |i, row0, vals| {
            out[i].i.as_mut_slice()[row0..row0 + vals.len()].copy_from_slice(vals);
        });
        fused.gate_gemv_batch_with(2, xs, |i, row0, vals| {
            out[i].c.as_mut_slice()[row0..row0 + vals.len()].copy_from_slice(vals);
        });
        fused.gate_gemv_batch_with(GATE_O, xs, |i, row0, vals| {
            out[i].o.as_mut_slice()[row0..row0 + vals.len()].copy_from_slice(vals);
        });
    }

    /// One exact cell step (Eqs. 1–5) from precomputed `W·x` terms.
    pub fn step(&self, wx: &GatePreacts, h_prev: &Vector, c_prev: &Vector) -> (Vector, Vector) {
        let mut scratch = CellScratch::new();
        let mut h = Vector::zeros(0);
        let mut c = Vector::zeros(0);
        self.step_fused_into(
            Precision::Fp32,
            wx,
            h_prev,
            c_prev,
            &mut scratch,
            &mut h,
            &mut c,
        );
        (h, c)
    }

    /// The zero-allocation exact cell step with the `U` quartet stored at
    /// `precision`: one fused `U_{f,i,c,o}·h` GEMV into the scratch slab
    /// (dequantizing on load), then the Eqs. 1–5 elementwise pass into
    /// the recycled `h_out`/`c_out` (activations and state arithmetic
    /// stay fp32). At `Fp32` it is bit-identical to [`step`](Self::step)
    /// (same kernels, same per-element association).
    ///
    /// `h_out`/`c_out` may alias the previous state only by value — pass
    /// distinct buffers; runtimes double-buffer and swap.
    ///
    /// # Panics
    /// Panics on `h_prev`/`c_prev` length mismatch.
    #[allow(clippy::too_many_arguments)]
    pub fn step_fused_into(
        &self,
        precision: Precision,
        wx: &GatePreacts,
        h_prev: &Vector,
        c_prev: &Vector,
        scratch: &mut CellScratch,
        h_out: &mut Vector,
        c_out: &mut Vector,
    ) {
        let n = self.hidden;
        assert_eq!(h_prev.len(), n, "h_prev length mismatch");
        assert_eq!(c_prev.len(), n, "c_prev length mismatch");
        scratch.slab.clear();
        scratch.slab.resize(4 * n, 0.0);
        self.fused_at(precision)
            .u
            .gemv_into(h_prev.as_slice(), &mut scratch.slab);
        let (uf, rest) = scratch.slab.split_at(n);
        let (ui, rest) = rest.split_at(n);
        let (uc, uo) = rest.split_at(n);
        h_out.resize_fill(n, 0.0);
        c_out.resize_fill(n, 0.0);
        let sig = self.gate_activation;
        for j in 0..n {
            let f = sig.apply(wx.f[j] + uf[j] + self.b.f[j]);
            let i = sig.apply(wx.i[j] + ui[j] + self.b.i[j]);
            let cand = tanh(wx.c[j] + uc[j] + self.b.c[j]);
            let o = sig.apply(wx.o[j] + uo[j] + self.b.o[j]);
            c_out[j] = f * c_prev[j] + i * cand;
            h_out[j] = o * tanh(c_out[j]);
        }
    }

    /// One exact cell step that also returns post-activation gate values
    /// (used by distribution collection and by tests).
    pub fn step_detailed(&self, wx: &GatePreacts, h_prev: &Vector, c_prev: &Vector) -> CellStep {
        let n = self.hidden;
        assert_eq!(h_prev.len(), n, "h_prev length mismatch");
        assert_eq!(c_prev.len(), n, "c_prev length mismatch");
        let mut slab = vec![0.0f32; 4 * n];
        self.fused_at(Precision::Fp32)
            .u
            .gemv_into(h_prev.as_slice(), &mut slab);
        let (uf, rest) = slab.split_at(n);
        let (ui, rest) = rest.split_at(n);
        let (uc, uo) = rest.split_at(n);

        let sig = self.gate_activation;
        let mut f = Vector::zeros(n);
        let mut i = Vector::zeros(n);
        let mut cand = Vector::zeros(n);
        let mut o = Vector::zeros(n);
        let mut c = Vector::zeros(n);
        let mut h = Vector::zeros(n);
        for j in 0..n {
            f[j] = sig.apply(wx.f[j] + uf[j] + self.b.f[j]);
            i[j] = sig.apply(wx.i[j] + ui[j] + self.b.i[j]);
            cand[j] = tanh(wx.c[j] + uc[j] + self.b.c[j]);
            o[j] = sig.apply(wx.o[j] + uo[j] + self.b.o[j]);
            c[j] = f[j] * c_prev[j] + i[j] * cand[j];
            h[j] = o[j] * tanh(c[j]);
        }
        CellStep {
            h,
            c,
            gates: GateVectors { f, i, c: cand, o },
        }
    }

    /// Computes only the output gate `o_t = σ(W_o x + U_o h_{t-1} + b_o)` —
    /// Algorithm 3 lines 4–5, executed *before* the `U_{f,i,c}` work so the
    /// trivial rows can be identified.
    pub fn output_gate(&self, wx_o: &Vector, h_prev: &Vector) -> Vector {
        let mut scratch = CellScratch::new();
        let mut o = Vector::zeros(0);
        self.output_gate_into(Precision::Fp32, wx_o, h_prev, &mut scratch, &mut o);
        o
    }

    /// [`output_gate`](Self::output_gate) into a recycled buffer with the
    /// `U` quartet stored at `precision` (only the `U_o` panel is
    /// streamed) — the zero-allocation form for DRS step loops. At
    /// `Fp32` it is bit-identical to the owned form.
    pub fn output_gate_into(
        &self,
        precision: Precision,
        wx_o: &Vector,
        h_prev: &Vector,
        scratch: &mut CellScratch,
        o_out: &mut Vector,
    ) {
        let n = self.hidden;
        scratch.slab.clear();
        scratch.slab.resize(n, 0.0);
        self.fused_at(precision)
            .u
            .gate_gemv_into(GATE_O, h_prev.as_slice(), &mut scratch.slab);
        o_out.resize_fill(n, 0.0);
        let sig = self.gate_activation;
        for j in 0..n {
            o_out[j] = sig.apply(wx_o[j] + scratch.slab[j] + self.b.o[j]);
        }
    }

    /// One Dynamic-Row-Skip cell step (Algorithm 3 lines 7–8): the rows of
    /// `U_{f,i,c}` where `active[j]` is `false` are skipped; the skipped
    /// elements of `c_t` are approximated to zero (and with them `h_t`,
    /// since `tanh(0) = 0`).
    ///
    /// `o` must be the output gate already computed by [`Self::output_gate`].
    ///
    /// # Panics
    /// Panics on any length mismatch.
    pub fn step_masked(
        &self,
        wx: &GatePreacts,
        h_prev: &Vector,
        c_prev: &Vector,
        o: &Vector,
        active: &[bool],
    ) -> (Vector, Vector) {
        let mut scratch = CellScratch::new();
        let mut h = Vector::zeros(0);
        let mut c = Vector::zeros(0);
        self.step_masked_into(
            Precision::Fp32,
            wx,
            h_prev,
            c_prev,
            o,
            active,
            &mut scratch,
            &mut h,
            &mut c,
        );
        (h, c)
    }

    /// The zero-allocation DRS step with the `U` quartet stored at
    /// `precision`: the `f, i, c` prefix of the fused `U` slab is applied
    /// under the shared row mask (one gathered launch, dequantizing the
    /// surviving rows on load), then the masked elementwise pass fills
    /// the recycled outputs. At `Fp32` it is bit-identical to
    /// [`step_masked`](Self::step_masked).
    ///
    /// # Panics
    /// Panics on any length mismatch.
    #[allow(clippy::too_many_arguments)]
    pub fn step_masked_into(
        &self,
        precision: Precision,
        wx: &GatePreacts,
        h_prev: &Vector,
        c_prev: &Vector,
        o: &Vector,
        active: &[bool],
        scratch: &mut CellScratch,
        h_out: &mut Vector,
        c_out: &mut Vector,
    ) {
        let n = self.hidden;
        assert_eq!(active.len(), n, "mask length mismatch");
        assert_eq!(o.len(), n, "output-gate length mismatch");
        scratch.slab.clear();
        scratch.slab.resize(3 * n, 0.0);
        self.fused_at(precision).u.gemv_masked_prefix_into(
            3,
            h_prev,
            active,
            0.0,
            &mut scratch.gather,
            &mut scratch.slab,
        );
        let (uf, rest) = scratch.slab.split_at(n);
        let (ui, uc) = rest.split_at(n);
        h_out.resize_fill(n, 0.0);
        c_out.resize_fill(n, 0.0);
        let sig = self.gate_activation;
        for j in 0..n {
            if active[j] {
                let f = sig.apply(wx.f[j] + uf[j] + self.b.f[j]);
                let i = sig.apply(wx.i[j] + ui[j] + self.b.i[j]);
                let cand = tanh(wx.c[j] + uc[j] + self.b.c[j]);
                c_out[j] = f * c_prev[j] + i * cand;
                h_out[j] = o[j] * tanh(c_out[j]);
            } else {
                // Skipped row: c_t element approximated to zero (Sec. V-A);
                // h_t follows since tanh(0) = 0.
                c_out[j] = 0.0;
                h_out[j] = 0.0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensor::init::seeded_rng;

    fn small_cell(seed: u64) -> CellWeights {
        CellWeights::random(6, 8, &mut seeded_rng(seed))
    }

    #[test]
    fn shapes_are_consistent() {
        let cell = small_cell(1);
        assert_eq!(cell.hidden(), 8);
        assert_eq!(cell.input_dim(), 6);
        assert_eq!(cell.united_u().shape(), (32, 8));
        assert_eq!(cell.united_u_bytes(), 4 * 8 * 8 * 4);
        assert_eq!(cell.u_fic_bytes() + cell.u_o_bytes(), cell.united_u_bytes());
        assert_eq!(cell.united_w_bytes(), 4 * 8 * 6 * 4);
    }

    #[test]
    fn outputs_respect_mathematical_ranges() {
        // h_t in [-1, 1] (Sec. IV-A derivation); gates in (0, 1).
        let cell = small_cell(2);
        let mut rng = seeded_rng(3);
        let x = Vector::from_fn(6, |_| rng.gen_range(-1.0f32..1.0));
        let h0 = Vector::from_fn(8, |_| rng.gen_range(-1.0f32..1.0));
        let c0 = Vector::from_fn(8, |_| rng.gen_range(-2.0f32..2.0));
        let wx = cell.precompute_wx(&x);
        let step = cell.step_detailed(&wx, &h0, &c0);
        for j in 0..8 {
            assert!(step.h[j].abs() <= 1.0);
            assert!(step.gates.f[j] > 0.0 && step.gates.f[j] < 1.0);
            assert!(step.gates.i[j] > 0.0 && step.gates.i[j] < 1.0);
            assert!(step.gates.o[j] > 0.0 && step.gates.o[j] < 1.0);
            assert!(step.gates.c[j].abs() <= 1.0);
        }
    }

    #[test]
    fn forget_gate_one_keeps_state() {
        // With f ~= 1, i ~= 0, the cell state must persist (the LSTM's
        // long-term memory property).
        let hidden = 4;
        let zeros_m = Matrix::zeros(hidden, hidden);
        let w = GateMatrices {
            f: Matrix::zeros(hidden, 2),
            i: Matrix::zeros(hidden, 2),
            c: Matrix::zeros(hidden, 2),
            o: Matrix::zeros(hidden, 2),
        };
        let u = GateMatrices {
            f: zeros_m.clone(),
            i: zeros_m.clone(),
            c: zeros_m.clone(),
            o: zeros_m,
        };
        let b = GateVectors {
            f: Vector::filled(hidden, 100.0),  // forget ~ 1
            i: Vector::filled(hidden, -100.0), // input ~ 0
            c: Vector::zeros(hidden),
            o: Vector::zeros(hidden),
        };
        let cell = CellWeights::from_parts(w, u, b);
        let wx = cell.precompute_wx(&Vector::zeros(2));
        let c0 = Vector::from(vec![0.7, -0.3, 0.1, 0.9]);
        let (_, c1) = cell.step(&wx, &Vector::zeros(hidden), &c0);
        for j in 0..hidden {
            assert!((c1[j] - c0[j]).abs() < 1e-4, "state leaked at {j}");
        }
    }

    #[test]
    fn output_gate_matches_detailed_step() {
        let cell = small_cell(4);
        let mut rng = seeded_rng(5);
        let x = Vector::from_fn(6, |_| rng.gen_range(-1.0f32..1.0));
        let h0 = Vector::from_fn(8, |_| rng.gen_range(-1.0f32..1.0));
        let c0 = Vector::zeros(8);
        let wx = cell.precompute_wx(&x);
        let o = cell.output_gate(&wx.o, &h0);
        let detailed = cell.step_detailed(&wx, &h0, &c0);
        for j in 0..8 {
            assert!((o[j] - detailed.gates.o[j]).abs() < 1e-6);
        }
    }

    #[test]
    fn full_mask_equals_exact_step() {
        let cell = small_cell(6);
        let mut rng = seeded_rng(7);
        let x = Vector::from_fn(6, |_| rng.gen_range(-1.0f32..1.0));
        let h0 = Vector::from_fn(8, |_| rng.gen_range(-1.0f32..1.0));
        let c0 = Vector::from_fn(8, |_| rng.gen_range(-1.0f32..1.0));
        let wx = cell.precompute_wx(&x);
        let o = cell.output_gate(&wx.o, &h0);
        let (h_masked, c_masked) = cell.step_masked(&wx, &h0, &c0, &o, &[true; 8]);
        let (h_exact, c_exact) = cell.step(&wx, &h0, &c0);
        for j in 0..8 {
            assert!((h_masked[j] - h_exact[j]).abs() < 1e-6);
            assert!((c_masked[j] - c_exact[j]).abs() < 1e-6);
        }
    }

    #[test]
    fn masked_rows_zero_h_and_c() {
        let cell = small_cell(8);
        let mut rng = seeded_rng(9);
        let x = Vector::from_fn(6, |_| rng.gen_range(-1.0f32..1.0));
        let h0 = Vector::from_fn(8, |_| rng.gen_range(-1.0f32..1.0));
        let c0 = Vector::filled(8, 0.5);
        let wx = cell.precompute_wx(&x);
        let o = cell.output_gate(&wx.o, &h0);
        let mut active = [true; 8];
        active[2] = false;
        active[5] = false;
        let (h, c) = cell.step_masked(&wx, &h0, &c0, &o, &active);
        assert_eq!(h[2], 0.0);
        assert_eq!(c[2], 0.0);
        assert_eq!(h[5], 0.0);
        assert_eq!(c[5], 0.0);
        assert_ne!(h[0], 0.0);
    }

    #[test]
    fn random_output_bias_has_saturated_units() {
        // The trained-like initialization must produce a sizeable
        // population of near-zero output gates for DRS to find: the deep
        // class (~50%) plus the quiet class (~18%).
        let cell = CellWeights::random(32, 256, &mut seeded_rng(10));
        let saturated = cell.b.o.iter().filter(|&&b| b < -1.8).count();
        let frac = saturated as f32 / 256.0;
        assert!(
            (frac - 0.68).abs() < 0.15,
            "saturated output-gate fraction {frac}"
        );
    }

    #[test]
    fn saturated_units_are_persistently_off() {
        // Deep-saturated units must keep o_t near zero across the whole
        // embedding input range ([-1, 1], the range `random_inputs`
        // documents): their W_o/U_o rows are attenuated along with the
        // bias, so token swings cannot wake them up. (Outside that range
        // the segment-boundary channel's deliberately strong w_o column
        // can wake the shallow tail of the deep class, which is not a
        // contract the initialization makes.)
        let cell = CellWeights::random(32, 128, &mut seeded_rng(20));
        let mut rng = seeded_rng(21);
        let deep: Vec<usize> = (0..128).filter(|&j| cell.b.o[j] < -4.2).collect();
        assert!(deep.len() > 20, "expected a deep-saturated population");
        for trial in 0..10 {
            let scale = if trial % 2 == 0 { 1.0 } else { 0.5 };
            let x = Vector::from_fn(32, |_| scale * rng.gen_range(-1.0f32..1.0));
            let h = Vector::from_fn(128, |_| rng.gen_range(-1.0f32..1.0));
            let wx = cell.precompute_wx(&x);
            let o = cell.output_gate(&wx.o, &h);
            for &j in &deep {
                assert!(o[j] < 0.05, "deep unit {j} woke up: o = {}", o[j]);
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        assert_eq!(small_cell(42), small_cell(42));
    }

    #[test]
    fn packed_paths_bit_identical_to_raw_sgemv() {
        // The packed weight panels must reproduce the reference sgemv
        // kernel bitwise — this is the cell-level anchor of the crate-wide
        // bit-exactness contract (tensor::packed docs).
        use tensor::gemm::sgemv;
        let cell = CellWeights::random(12, 20, &mut seeded_rng(77));
        let mut rng = seeded_rng(78);
        let x = Vector::from_fn(12, |_| rng.gen_range(-1.0f32..1.0));
        let h0 = Vector::from_fn(20, |_| rng.gen_range(-1.0f32..1.0));
        let wx = cell.precompute_wx(&x);
        assert_eq!(wx.f, sgemv(&cell.w.f, &x));
        assert_eq!(wx.i, sgemv(&cell.w.i, &x));
        assert_eq!(wx.c, sgemv(&cell.w.c, &x));
        assert_eq!(wx.o, sgemv(&cell.w.o, &x));
        let o = cell.output_gate(&wx.o, &h0);
        let o_ref = Vector::from_fn(20, |j| {
            cell.gate_activation()
                .apply(wx.o[j] + sgemv(&cell.u.o, &h0)[j] + cell.b.o[j])
        });
        assert_eq!(o, o_ref);
    }

    #[test]
    fn clone_does_not_carry_the_packed_cache() {
        // Regression: zero pruning clones a cell and overwrites its raw
        // matrices. A clone that carried the already-built panels would
        // keep computing with the *original* weights.
        use tensor::gemm::sgemv;
        let cell = CellWeights::random(12, 20, &mut seeded_rng(91));
        let mut rng = seeded_rng(92);
        let x = Vector::from_fn(12, |_| rng.gen_range(-1.0f32..1.0));
        let _ = cell.precompute_wx(&x); // force the pack on the original
        let mut edited = cell.clone();
        edited.u.f = Matrix::zeros(20, 20);
        edited.w.f = Matrix::zeros(20, 12);
        let wx = edited.precompute_wx(&x);
        assert_eq!(wx.f, sgemv(&edited.w.f, &x), "clone served stale panels");
        assert!(wx.f.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn hard_sigmoid_gates_saturate_exactly_at_the_boundaries() {
        // The paper's Fig. 7a observation: the hard sigmoid saturates
        // exactly at the sensitive-area boundaries, so the relevance
        // analysis is *exact* rather than approximate for it.
        use tensor::Activation;
        let cell = small_cell(30).with_gate_activation(Activation::HardSigmoid);
        assert_eq!(cell.gate_activation(), Activation::HardSigmoid);
        let wx = GatePreacts {
            f: Vector::filled(8, 10.0),
            i: Vector::filled(8, -10.0),
            c: Vector::zeros(8),
            o: Vector::filled(8, 10.0),
        };
        let step = cell.step_detailed(&wx, &Vector::zeros(8), &Vector::zeros(8));
        for j in 0..8 {
            assert_eq!(step.gates.f[j], 1.0, "hard sigmoid must pin at 1");
            assert_eq!(step.gates.i[j], 0.0, "hard sigmoid must pin at 0");
        }
    }

    #[test]
    fn hard_sigmoid_outputs_stay_bounded() {
        use tensor::Activation;
        let cell = small_cell(31).with_gate_activation(Activation::HardSigmoid);
        let mut rng = seeded_rng(32);
        let mut h = Vector::zeros(8);
        let mut c = Vector::zeros(8);
        for _ in 0..10 {
            let x = Vector::from_fn(6, |_| rng.gen_range(-2.0f32..2.0));
            let wx = cell.precompute_wx(&x);
            let (h2, c2) = cell.step(&wx, &h, &c);
            h = h2;
            c = c2;
            assert!(h.max_abs() <= 1.0);
        }
    }

    #[test]
    #[should_panic(expected = "U gate shape mismatch")]
    fn from_parts_validates_shapes() {
        let w = GateMatrices {
            f: Matrix::zeros(4, 2),
            i: Matrix::zeros(4, 2),
            c: Matrix::zeros(4, 2),
            o: Matrix::zeros(4, 2),
        };
        let u = GateMatrices {
            f: Matrix::zeros(4, 4),
            i: Matrix::zeros(4, 3), // wrong
            c: Matrix::zeros(4, 4),
            o: Matrix::zeros(4, 4),
        };
        let b = GateVectors::zeros(4);
        CellWeights::from_parts(w, u, b);
    }
}
