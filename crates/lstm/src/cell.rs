//! The LSTM cell: weights and the Eq. 1–5 arithmetic.
//!
//! Both of a step's products land in one layout, the gate-major slab
//! every [`FusedGates`] product writes: the layer's `W_{f,i,c,o}·x` is
//! one `Vec<f32>` per sequence, column `t`'s gates at
//! `[4H·t + g·H ..]` ([`CellWeights::precompute_wx_batch_into`]), and a
//! step's `U_{f,i,c,o}·h` is the same `4H` block in the scratch slab. The
//! steps take their `W·x` column as a `&[f32]` and read gate `g` of both
//! addends through one `GateRows::sections` call, so no code maps a gate
//! index to a field.

use rand::Rng;
use std::slice;
use std::sync::OnceLock;
use tensor::activation::{lstm_state_into, sigmoid_gate_into, GateRows};
use tensor::init::{xavier_uniform, GateBiasInit, RowScaledInit};
use tensor::{FusedGates, Matrix, Precision, Vector};

/// One vector per LSTM gate, in the paper's `f, i, c, o` order, such as a
/// cell's biases.
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
    /// Lazily built fused packed copies of the gate matrices, shared
    /// by every plan/runtime that executes this layer — one slot per
    /// [`Precision`] tier (`fp32`/`fp16`/`int8`), indexed by
    /// `precision as usize`. Packing is paid once per layer per tier,
    /// not per timestep (cf. E-PUR's tiled weight reuse). The fp32
    /// cache never diverges from `w`/`u` numerically (packing is a
    /// relayout, not a transform); the quantized tiers are lossy by
    /// design but deterministic. The `U` slab's row order is read from
    /// `b.o` when the tier is packed. Callers that mutate the public
    /// weight or bias fields after a forward pass must rebuild the cell via
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
            // Deliberately fresh: a clone is usually made to be edited,
            // and a carried-over cache would keep serving the original
            // weights after the edit.
            packed: Default::default(),
        }
    }
}

/// Fused row-panel packed copies of the gate matrices at one storage
/// precision (see [`tensor::fused`]): the `W_{f,i,c,o}` quartet in one
/// slab and the `U_{f,i,c,o}` quartet in another, each applied with a
/// single fused GEMV per step instead of four. Built lazily by
/// [`CellWeights::fused_at`]; gate order is `f, i, c, o` (so the masked
/// DRS step can run the `f, i, c` prefix under one shared row mask and
/// [`CellWeights::output_gate_into`] addresses gate `3`).
#[derive(Debug, Clone)]
struct FusedCellWeights {
    /// `W_f / W_i / W_c / W_o` (`hidden x input` each), natural row
    /// order.
    w: FusedGates,
    /// `U_f / U_i / U_c / U_o` (`hidden x hidden` each), rows in
    /// ascending `b_o` order (ties by index). DRS skips the rows whose
    /// `o_t` is near zero, and a strongly negative `b_o` is what keeps a
    /// unit's `o_t` there, so the masked `U_{f,i,c}` product skips whole
    /// panels (the host's form of the paper's CTA reorganization,
    /// Sec. V). Every product reads and writes natural row order.
    u: FusedGates,
}

/// Gate indices inside the fused `f, i, c, o` packs and the gate-major
/// `W·x` and `U·h` slabs they write.
const GATE_O: usize = 3;
const GATES_FIC: [usize; 3] = [0, 1, 2];

/// Reusable scratch for the zero-allocation `_into` step APIs of LSTM
/// and GRU cells.
///
/// One `CellScratch` serves any number of layers sequentially: the slab
/// grows to the largest layer seen and is then reused without further
/// heap traffic. The plan runtime keeps one, shared by every lane, and
/// rents it to each column's step in turn.
#[derive(Debug, Default)]
pub struct CellScratch {
    /// Gate-major `U·h` slab: `U_{f,i,c,o}·h` for dense LSTM steps,
    /// its `f, i, c` sections for masked ones and its `o` section for
    /// the hoisted-gate launch; the GRU steps keep their `U_{r,z,h}`
    /// sections, `z` and `r ⊙ h` here.
    pub(crate) slab: Vec<f32>,
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
            packed: Default::default(),
        }
    }

    /// The packed copies of the gate matrices at `precision`, built on
    /// first use per tier and reused for the lifetime of the cell.
    fn fused_at(&self, precision: Precision) -> &FusedCellWeights {
        self.packed[precision as usize].get_or_init(|| FusedCellWeights {
            w: FusedGates::pack(&[&self.w.f, &self.w.i, &self.w.c, &self.w.o], precision),
            u: FusedGates::pack_sorted(
                &[&self.u.f, &self.u.i, &self.u.c, &self.u.o],
                precision,
                self.b.o.as_slice(),
            ),
        })
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

    /// Bytes of the united input matrix `W_{f,i,c,o}`.
    pub fn united_w_bytes(&self) -> u64 {
        4 * self.hidden as u64 * self.input as u64 * 4
    }

    /// The `W_{f,i,c,o}·x_t` terms of a whole batch of input columns, with
    /// the `W` quartet stored at `precision`, through the GEMM-shaped fused
    /// path: one walk over the `W_{f,i,c,o}` slab, each weight panel loaded
    /// once for up to four columns ([`FusedGates::gemv_batch_into`]).
    /// `out` is resized to `xs.len() * 4 * hidden` and fully overwritten:
    /// column `t`'s gate-major terms are `out[4 * hidden * t ..]`, the
    /// layout of a step's `U·h` slab. A recycled buffer never touches the
    /// allocator once warm. `Fp32` is the exact path; a quantized slab
    /// stores the [`Precision::apply`]-rounded weights and runs the same
    /// kernels, so column `t`'s gate `g` is bit-identical to
    /// [`tensor::gemm::sgemv`] on gate `g`'s rounded matrix and `xs[t]`.
    ///
    /// # Panics
    /// Panics if any `xs[i].len() != input_dim`.
    pub fn precompute_wx_batch_into(
        &self,
        precision: Precision,
        xs: &[Vector],
        out: &mut Vec<f32>,
    ) {
        out.resize(xs.len() * 4 * self.hidden, 0.0);
        self.fused_at(precision).w.gemv_batch_into(xs, out);
    }

    /// One exact cell step (Eqs. 1–5) from its gate-major `W·x` terms
    /// `wx` (one column of
    /// [`precompute_wx_batch_into`](Self::precompute_wx_batch_into)),
    /// with the `U` quartet rounded to `precision`: one fused
    /// `U_{f,i,c,o}·h` GEMV into the scratch slab, then the elementwise
    /// pass into the recycled `h_out`/`c_out` (activations and state
    /// arithmetic stay fp32).
    ///
    /// `h_out`/`c_out` may alias the previous state only by value — pass
    /// distinct buffers; runtimes double-buffer and swap.
    ///
    /// # Panics
    /// Panics on `h_prev`/`c_prev` length mismatch or if `wx` holds
    /// fewer than `4 * hidden` values.
    #[allow(clippy::too_many_arguments)]
    pub fn step_fused_into(
        &self,
        precision: Precision,
        wx: &[f32],
        h_prev: &Vector,
        c_prev: &Vector,
        scratch: &mut CellScratch,
        h_out: &mut Vector,
        c_out: &mut Vector,
    ) {
        assert_eq!(h_prev.len(), self.hidden, "h_prev length mismatch");
        self.recurrent_batch_into(precision, slice::from_ref(h_prev), &mut scratch.slab);
        self.dense_gates_into(wx, &scratch.slab, c_prev, h_out, c_out);
    }

    /// The `U_{f,i,c,o}·h` products of independent dense steps in
    /// lockstep, one column per `h_prev[j]`, with the `U` quartet stored
    /// at `precision`: one walk over the `U` slab
    /// ([`FusedGates::gemv_batch_into`]), each weight panel loaded once
    /// for up to four columns. Column `j`'s gate-major `4 * hidden`
    /// products land in `uh[4 * hidden * j ..]`, bit-identical to the
    /// product [`step_fused_into`](Self::step_fused_into) runs on
    /// `h_prev[j]`. `uh` only grows, so a recycled buffer never touches
    /// the allocator once warm.
    ///
    /// # Panics
    /// Panics if any `h_prev[j].len() != hidden`.
    pub(crate) fn recurrent_batch_into(
        &self,
        precision: Precision,
        h_prev: &[Vector],
        uh: &mut Vec<f32>,
    ) {
        let len = 4 * self.hidden * h_prev.len();
        grow(uh, len);
        self.fused_at(precision)
            .u
            .gemv_batch_into(h_prev, &mut uh[..len]);
    }

    /// Gates `gates`' pre-activation addends: their sections of the
    /// gate-major `wx` and `uh` slabs, and their biases.
    fn gate_rows<'a, const N: usize>(
        &'a self,
        gates: [usize; N],
        wx: &'a [f32],
        uh: &'a [f32],
    ) -> GateRows<'a, N> {
        let b = [&self.b.f, &self.b.i, &self.b.c, &self.b.o];
        GateRows::sections(gates, self.hidden, wx, uh, gates.map(|g| b[g].as_slice()))
    }

    /// The elementwise pass of an exact step (Eqs. 1–5) from its
    /// gate-major `W·x` terms and `U_{f,i,c,o}·h` products `uh`, into the
    /// recycled `h_out`/`c_out`: the output gate into `h_out`, then the
    /// state pass that turns it into `h_t`.
    ///
    /// # Panics
    /// Panics if `c_prev.len() != hidden` or `wx` or `uh` holds fewer
    /// than `4 * hidden` values.
    pub(crate) fn dense_gates_into(
        &self,
        wx: &[f32],
        uh: &[f32],
        c_prev: &Vector,
        h_out: &mut Vector,
        c_out: &mut Vector,
    ) {
        let n = self.hidden;
        assert_eq!(c_prev.len(), n, "c_prev length mismatch");
        h_out.resize_fill(n, 0.0);
        c_out.resize_fill(n, 0.0);
        sigmoid_gate_into(self.gate_rows([GATE_O], wx, uh), h_out.as_mut_slice());
        lstm_state_into(
            self.gate_rows(GATES_FIC, wx, uh),
            c_prev.as_slice(),
            None,
            c_out.as_mut_slice(),
            h_out.as_mut_slice(),
        );
    }

    /// The output gates `o_t = σ(W_o x + U_o h_{t-1} + b_o)` of
    /// independent steps, one column per `h_prev[j]`, with the `U` quartet
    /// stored at `precision` — Algorithm 3 lines 4–5, executed *before*
    /// the `U_{f,i,c}` work so the trivial rows can be identified. One
    /// dense walk over the `U_o` panels alone computes every column's
    /// product ([`FusedGates::gate_gemv_into`]), loading each panel once
    /// for up to four columns; then column `j`'s gate goes into the
    /// recycled `o_out[j]` from its gate-major `W·x` terms, the `j`-th
    /// item of `wx`. Each column is bit-identical to computing it alone.
    ///
    /// # Panics
    /// Panics if `wx` or `o_out` holds fewer columns than `h_prev`, or any
    /// `h_prev[j].len() != hidden`.
    pub fn output_gate_into<'a>(
        &self,
        precision: Precision,
        wx: impl IntoIterator<Item = &'a [f32]>,
        h_prev: &[Vector],
        scratch: &mut CellScratch,
        o_out: &mut [Vector],
    ) {
        let n = self.hidden;
        let len = n * h_prev.len();
        grow(&mut scratch.slab, len);
        let uo = &mut scratch.slab[..len];
        self.fused_at(precision)
            .u
            .gate_gemv_into(GATE_O, h_prev, uo);
        let mut columns = 0;
        for ((wx, uo), o) in wx.into_iter().zip(uo.chunks_exact(n)).zip(o_out) {
            o.resize_fill(n, 0.0);
            let rows = GateRows {
                wx: [&wx[GATE_O * n..(GATE_O + 1) * n]],
                uh: [uo],
                b: [self.b.o.as_slice()],
            };
            sigmoid_gate_into(rows, o.as_mut_slice());
            columns += 1;
        }
        assert_eq!(
            columns,
            h_prev.len(),
            "output_gate_into: one W·x column and one output per h_prev column"
        );
    }

    /// One Dynamic-Row-Skip cell step (Algorithm 3 lines 7–8) with the
    /// `U` quartet stored at `precision`: the `f, i, c` prefix of the
    /// fused `U` slab is applied under the shared row mask (one launch, in
    /// place on the packed panels: only panels holding an active row are
    /// computed), then the masked elementwise pass fills the recycled
    /// outputs. The rows where `active[j]` is `false` are skipped; their
    /// `c_t` elements are approximated to zero (and with them `h_t`, since
    /// `tanh(0) = 0`). `o` is the output gate from
    /// [`output_gate_into`](Self::output_gate_into).
    ///
    /// # Panics
    /// Panics on any length mismatch.
    #[allow(clippy::too_many_arguments)]
    pub fn step_masked_into(
        &self,
        precision: Precision,
        wx: &[f32],
        h_prev: &Vector,
        c_prev: &Vector,
        o: &Vector,
        active: &[bool],
        scratch: &mut CellScratch,
        h_out: &mut Vector,
        c_out: &mut Vector,
    ) {
        assert_eq!(active.len(), self.hidden, "mask length mismatch");
        self.masked_recurrent_batch_into(
            precision,
            slice::from_ref(h_prev),
            slice::from_ref(&active),
            &mut scratch.slab,
        );
        self.masked_gates_into(wx, &scratch.slab, c_prev, o, active, h_out, c_out);
    }

    /// The masked `U_{f,i,c}·h` products of independent DRS steps in
    /// lockstep, column `j` on `h_prev[j]` under its own row mask
    /// `active[j]`, with the `U` quartet stored at `precision`: one masked
    /// walk over the `f, i, c` panels
    /// ([`FusedGates::gemv_masked_prefix_into`]), each panel loaded once
    /// for up to four of the columns with an active row in it. Column
    /// `j`'s gate-major `3 * hidden` products land in `uh[3 * hidden * j ..]`,
    /// its skipped rows zero, bit-identical to the product
    /// [`step_masked_into`](Self::step_masked_into) runs on that column
    /// alone. `uh` only grows, so a recycled buffer never touches the
    /// allocator once warm.
    ///
    /// # Panics
    /// Panics if `active.len() != h_prev.len()`, or on any column's
    /// length mismatch.
    pub(crate) fn masked_recurrent_batch_into<M: AsRef<[bool]>>(
        &self,
        precision: Precision,
        h_prev: &[Vector],
        active: &[M],
        uh: &mut Vec<f32>,
    ) {
        let len = 3 * self.hidden * h_prev.len();
        grow(uh, len);
        self.fused_at(precision)
            .u
            .gemv_masked_prefix_into(3, h_prev, active, 0.0, &mut uh[..len]);
    }

    /// The masked elementwise pass of a DRS step from its gate-major
    /// `W·x` terms and masked `U_{f,i,c}·h` products `uh`, into the
    /// recycled `h_out`/`c_out`: `h_out` takes the output gate `o`, then
    /// the state pass turns its active rows into `h_t` and zeroes the
    /// skipped rows of both.
    ///
    /// # Panics
    /// Panics on any length mismatch.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn masked_gates_into(
        &self,
        wx: &[f32],
        uh: &[f32],
        c_prev: &Vector,
        o: &Vector,
        active: &[bool],
        h_out: &mut Vector,
        c_out: &mut Vector,
    ) {
        let n = self.hidden;
        assert_eq!(active.len(), n, "mask length mismatch");
        assert_eq!(o.len(), n, "output-gate length mismatch");
        // `h_out` holds `o_t` until the state pass turns it into `h_t`.
        h_out.clone_from(o);
        c_out.resize_fill(n, 0.0);
        lstm_state_into(
            self.gate_rows(GATES_FIC, wx, uh),
            c_prev.as_slice(),
            Some(active),
            c_out.as_mut_slice(),
            h_out.as_mut_slice(),
        );
    }
}

/// Grows a recycled scratch slab to at least `len` values; it never
/// shrinks, so a warm slab never touches the allocator.
pub(crate) fn grow(slab: &mut Vec<f32>, len: usize) {
    if slab.len() < len {
        slab.resize(len, 0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensor::init::seeded_rng;
    use tensor::{sigmoid, tanh};

    fn small_cell(seed: u64) -> CellWeights {
        CellWeights::random(6, 8, &mut seeded_rng(seed))
    }

    fn wx_of(cell: &CellWeights, x: &Vector) -> Vec<f32> {
        let mut out = Vec::new();
        cell.precompute_wx_batch_into(Precision::Fp32, std::slice::from_ref(x), &mut out);
        out
    }

    /// Gate `g`'s section of a gate-major slab.
    fn gate(slab: &[f32], g: usize) -> &[f32] {
        let n = slab.len() / 4;
        &slab[g * n..(g + 1) * n]
    }

    fn step(cell: &CellWeights, wx: &[f32], h: &Vector, c: &Vector) -> (Vector, Vector) {
        let (mut h_out, mut c_out) = (Vector::zeros(0), Vector::zeros(0));
        let mut scratch = CellScratch::new();
        cell.step_fused_into(
            Precision::Fp32,
            wx,
            h,
            c,
            &mut scratch,
            &mut h_out,
            &mut c_out,
        );
        (h_out, c_out)
    }

    fn output_gate(cell: &CellWeights, wx: &[f32], h: &Vector) -> Vector {
        let mut o = [Vector::zeros(0)];
        cell.output_gate_into(
            Precision::Fp32,
            [wx],
            slice::from_ref(h),
            &mut CellScratch::new(),
            &mut o,
        );
        let [o] = o;
        o
    }

    fn step_masked(
        cell: &CellWeights,
        wx: &[f32],
        (h, c): (&Vector, &Vector),
        o: &Vector,
        active: &[bool],
    ) -> (Vector, Vector) {
        let (mut h_out, mut c_out) = (Vector::zeros(0), Vector::zeros(0));
        let mut scratch = CellScratch::new();
        cell.step_masked_into(
            Precision::Fp32,
            wx,
            h,
            c,
            o,
            active,
            &mut scratch,
            &mut h_out,
            &mut c_out,
        );
        (h_out, c_out)
    }

    #[test]
    fn shapes_are_consistent() {
        let cell = small_cell(1);
        assert_eq!(cell.hidden(), 8);
        assert_eq!(cell.input_dim(), 6);
        assert_eq!(cell.united_u_bytes(), 4 * 8 * 8 * 4);
        assert_eq!(cell.united_w_bytes(), 4 * 8 * 6 * 4);
    }

    #[test]
    fn outputs_respect_mathematical_ranges() {
        // h_t in [-1, 1] (Sec. IV-A derivation); the output gate in (0, 1).
        let cell = small_cell(2);
        let mut rng = seeded_rng(3);
        let x = Vector::from_fn(6, |_| rng.gen_range(-1.0f32..1.0));
        let h0 = Vector::from_fn(8, |_| rng.gen_range(-1.0f32..1.0));
        let c0 = Vector::from_fn(8, |_| rng.gen_range(-2.0f32..2.0));
        let wx = wx_of(&cell, &x);
        let (h, _) = step(&cell, &wx, &h0, &c0);
        let o = output_gate(&cell, &wx, &h0);
        for j in 0..8 {
            assert!(h[j].abs() <= 1.0);
            assert!(o[j] > 0.0 && o[j] < 1.0);
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
        let wx = wx_of(&cell, &Vector::zeros(2));
        let c0 = Vector::from(vec![0.7, -0.3, 0.1, 0.9]);
        let (_, c1) = step(&cell, &wx, &Vector::zeros(hidden), &c0);
        for j in 0..hidden {
            assert!((c1[j] - c0[j]).abs() < 1e-4, "state leaked at {j}");
        }
    }

    #[test]
    fn output_gate_matches_exact_step() {
        // The standalone output-gate launch (Algorithm 3 lines 4-5) computes
        // the same `o_t` the exact step folds into `h_t = o_t * tanh(c_t)`.
        let cell = small_cell(4);
        let mut rng = seeded_rng(5);
        let x = Vector::from_fn(6, |_| rng.gen_range(-1.0f32..1.0));
        let h0 = Vector::from_fn(8, |_| rng.gen_range(-1.0f32..1.0));
        let c0 = Vector::zeros(8);
        let wx = wx_of(&cell, &x);
        let o = output_gate(&cell, &wx, &h0);
        let (h, c) = step(&cell, &wx, &h0, &c0);
        for j in 0..8 {
            assert_eq!(h[j].to_bits(), (o[j] * tanh(c[j])).to_bits());
        }
    }

    #[test]
    fn full_mask_equals_exact_step() {
        let cell = small_cell(6);
        let mut rng = seeded_rng(7);
        let x = Vector::from_fn(6, |_| rng.gen_range(-1.0f32..1.0));
        let h0 = Vector::from_fn(8, |_| rng.gen_range(-1.0f32..1.0));
        let c0 = Vector::from_fn(8, |_| rng.gen_range(-1.0f32..1.0));
        let wx = wx_of(&cell, &x);
        let o = output_gate(&cell, &wx, &h0);
        let (h_masked, c_masked) = step_masked(&cell, &wx, (&h0, &c0), &o, &[true; 8]);
        let (h_exact, c_exact) = step(&cell, &wx, &h0, &c0);
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
        let wx = wx_of(&cell, &x);
        let o = output_gate(&cell, &wx, &h0);
        let mut active = [true; 8];
        active[2] = false;
        active[5] = false;
        let (h, c) = step_masked(&cell, &wx, (&h0, &c0), &o, &active);
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
            let wx = wx_of(&cell, &x);
            let o = output_gate(&cell, &wx, &h);
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
        let wx = wx_of(&cell, &x);
        assert_eq!(wx.len(), 4 * 20);
        for (g, w) in [&cell.w.f, &cell.w.i, &cell.w.c, &cell.w.o]
            .into_iter()
            .enumerate()
        {
            assert_eq!(gate(&wx, g), sgemv(w, &x).as_slice(), "gate {g}");
        }
        let o = output_gate(&cell, &wx, &h0);
        let o_ref = Vector::from_fn(20, |j| {
            sigmoid(gate(&wx, 3)[j] + sgemv(&cell.u.o, &h0)[j] + cell.b.o[j])
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
        let _ = wx_of(&cell, &x); // force the pack on the original
        let mut edited = cell.clone();
        edited.u.f = Matrix::zeros(20, 20);
        edited.w.f = Matrix::zeros(20, 12);
        let wx = wx_of(&edited, &x);
        assert_eq!(
            gate(&wx, 0),
            sgemv(&edited.w.f, &x).as_slice(),
            "clone served stale panels"
        );
        assert!(gate(&wx, 0).iter().all(|&v| v == 0.0));
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
        let b = GateVectors {
            f: Vector::zeros(4),
            i: Vector::zeros(4),
            c: Vector::zeros(4),
            o: Vector::zeros(4),
        };
        CellWeights::from_parts(w, u, b);
    }
}
