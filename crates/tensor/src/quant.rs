//! Reduced-precision weight storage: the quantized twin of
//! [`FusedGates`](crate::FusedGates).
//!
//! The paper's diagnosis is that mobile-GPU LSTM inference is bound by
//! *weight* traffic against a small L2; fp16 and int8 weight storage are
//! the other big lever on that axis (cf. E-PUR and SHARP, which both run
//! RNN inference at reduced weight precision and convert the byte savings
//! directly into memory-bound speedups). This module provides:
//!
//! * [`Precision`] — the weight-precision knob (`fp32`/`fp16`/`int8`)
//!   threaded through plan compilation and pricing,
//! * hand-rolled `f32`↔`f16` bit conversions (round-to-nearest-even; no
//!   external crate),
//! * per-row symmetric int8 quantization (`scale = max|row| / 127`),
//! * [`QuantizedGates`] — gate matrices stored quantized in **exactly**
//!   the gate-major [`MR`]-row panel layout of
//!   [`FusedGates`](crate::FusedGates), with dequantize-on-load kernels.
//!
//! ## Bit-exactness contract
//!
//! Every kernel here replicates `panel_gemv`'s accumulation order —
//! the same `cols / 4` phase chunks, the same four per-lane accumulators,
//! the same `((a0 + a1) + a2) + a3` reduction, the same sequential tail.
//! The only change is that each weight element is dequantized as it is
//! loaded: `f16` storage converts exactly (every `f16` value is an `f32`
//! value), and `int8` storage applies one IEEE rounding (`q as f32 *
//! scale`). A quantized kernel is therefore **bit-identical** to the
//! fp32 kernel run on the dequantized weights ([`Precision::apply`]),
//! which makes determinism automatic and the quantization error a pure
//! weight-perturbation bound, testable per row.

use crate::matrix::Matrix;
use crate::packed::{panel_gemv, GatherScratch, MR};
use crate::vector::Vector;

/// Weight-storage precision of the packed gate matrices.
///
/// `Fp32` is the default everywhere — quantization is strictly opt-in —
/// and the two quantized tiers shrink weight bytes by 2x and 4x.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Precision {
    /// Full-precision `f32` storage (the default; exact).
    #[default]
    Fp32,
    /// IEEE binary16 storage: half the weight bytes, ~3 decimal digits.
    Fp16,
    /// Per-row symmetric int8: a quarter of the weight bytes, one `f32`
    /// scale per matrix row.
    Int8,
}

impl Precision {
    /// Every precision tier, in decreasing storage order.
    pub const ALL: [Precision; 3] = [Precision::Fp32, Precision::Fp16, Precision::Int8];

    /// Stored bytes per weight element (4 / 2 / 1).
    pub fn bytes_per_weight(self) -> u64 {
        match self {
            Precision::Fp32 => 4,
            Precision::Fp16 => 2,
            Precision::Int8 => 1,
        }
    }

    /// Scales an fp32 byte count to this tier's storage footprint.
    pub fn scale_bytes(self, bytes: u64) -> u64 {
        bytes * self.bytes_per_weight() / 4
    }

    /// Whether the tier stores anything narrower than `f32`.
    pub fn is_quantized(self) -> bool {
        !matches!(self, Precision::Fp32)
    }

    /// Canonical lowercase name (`"fp32"` / `"fp16"` / `"int8"`).
    pub fn name(self) -> &'static str {
        match self {
            Precision::Fp32 => "fp32",
            Precision::Fp16 => "fp16",
            Precision::Int8 => "int8",
        }
    }

    /// Parses a canonical name back into a tier.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "fp32" => Some(Precision::Fp32),
            "fp16" => Some(Precision::Fp16),
            "int8" => Some(Precision::Int8),
            _ => None,
        }
    }

    /// Quantizes and immediately dequantizes a matrix — the fp32 shadow
    /// of this tier's storage. `Fp32` is the identity. A quantized
    /// kernel on the original matrix is bit-identical to the fp32 kernel
    /// on `apply`'s result.
    pub fn apply(self, m: &Matrix) -> Matrix {
        match self {
            Precision::Fp32 => m.clone(),
            Precision::Fp16 => Matrix::from_fn(m.rows(), m.cols(), |r, c| {
                f16_bits_to_f32(f32_to_f16_bits(m.row(r)[c]))
            }),
            Precision::Int8 => {
                let (rows, cols) = m.shape();
                let mut out = Matrix::zeros(rows, cols);
                let mut q = Vec::with_capacity(cols);
                for r in 0..rows {
                    let scale = quantize_row_i8(m.row(r), &mut q);
                    for (slot, &code) in out.row_mut(r).iter_mut().zip(&q) {
                        *slot = code as f32 * scale;
                    }
                }
                out
            }
        }
    }
}

impl std::fmt::Display for Precision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Converts an `f32` to IEEE binary16 bits, rounding to nearest even —
/// the hardware conversion semantics (`vcvtps2ph` / `__float2half_rn`).
pub fn f32_to_f16_bits(v: f32) -> u16 {
    let bits = v.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xff) as i32;
    let man = bits & 0x007f_ffff;
    if exp == 0xff {
        // Inf / NaN: preserve the class (quiet any NaN payload).
        return sign | 0x7c00 | u16::from(man != 0) << 9;
    }
    let unbiased = exp - 127;
    if unbiased < -25 {
        return sign; // underflows to zero even after rounding
    }
    if unbiased < -14 {
        // Subnormal half: shift the 24-bit significand (implicit bit
        // included) down past the 13 dropped bits plus the deficit.
        let man24 = 0x0080_0000 | man;
        let shift = (13 + (-14 - unbiased)) as u32;
        let rounded = round_shift_even(man24, shift);
        return sign | rounded as u16;
    }
    if unbiased > 15 {
        return sign | 0x7c00; // overflows to infinity
    }
    let half_exp = (unbiased + 15) as u32;
    // Round the 13 dropped mantissa bits; a carry out of the mantissa
    // bumps the exponent (and can round up to infinity at the top).
    let combined = round_shift_even((half_exp << 23) | man, 13);
    if combined >= 0x7c00 {
        return sign | 0x7c00;
    }
    sign | combined as u16
}

/// Shifts `v` right by `shift` bits, rounding the dropped bits to
/// nearest, ties to even.
fn round_shift_even(v: u32, shift: u32) -> u32 {
    if shift == 0 || shift > 31 {
        return if shift == 0 { v } else { 0 };
    }
    let kept = v >> shift;
    let rem = v & ((1u32 << shift) - 1);
    let halfway = 1u32 << (shift - 1);
    if rem > halfway || (rem == halfway && kept & 1 == 1) {
        kept + 1
    } else {
        kept
    }
}

/// Converts IEEE binary16 bits to `f32`. Exact: every `f16` value is
/// representable in `f32`.
pub fn f16_bits_to_f32(h: u16) -> f32 {
    let sign = u32::from(h & 0x8000) << 16;
    let exp = u32::from(h >> 10) & 0x1f;
    let man = u32::from(h & 0x3ff);
    if exp == 0 {
        // Zero or subnormal: value is man * 2^-24 (exact in f32).
        let v = man as f32 * (1.0 / 16_777_216.0);
        return if sign != 0 { -v } else { v };
    }
    if exp == 0x1f {
        return if man == 0 {
            f32::from_bits(sign | 0x7f80_0000)
        } else {
            f32::NAN
        };
    }
    f32::from_bits(sign | ((exp + 112) << 23) | (man << 13))
}

/// Per-row symmetric int8 quantization: `scale = max|row| / 127`,
/// `q = round(v / scale)` clamped to `[-127, 127]`, written into `q_out`
/// (resized to the row). Returns the scale (0 for an all-zero row, whose
/// codes are all 0). Dequantization is `q as f32 * scale` — one IEEE
/// rounding per element.
pub fn quantize_row_i8(row: &[f32], q_out: &mut Vec<i8>) -> f32 {
    q_out.clear();
    q_out.resize(row.len(), 0);
    let max_abs = row.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
    if max_abs == 0.0 {
        return 0.0;
    }
    let scale = max_abs / 127.0;
    for (slot, &v) in q_out.iter_mut().zip(row) {
        *slot = (v / scale).round().clamp(-127.0, 127.0) as i8;
    }
    scale
}

/// Quantized storage backing a [`QuantizedGates`] slab.
#[derive(Debug, Clone, PartialEq)]
enum QuantStore {
    /// binary16 bits in the panel layout.
    F16(Vec<u16>),
    /// int8 codes in the panel layout plus one scale per (gate, row).
    I8 {
        q: Vec<i8>,
        /// `scales[g * rows + r]` — per-row symmetric scales.
        scales: Vec<f32>,
    },
}

/// Gate matrices stored at reduced precision in the gate-major,
/// [`MR`]-row column-interleaved panel layout of
/// [`FusedGates`](crate::FusedGates), with dequantize-on-load kernels.
///
/// The API mirrors `FusedGates` method for method; see the module docs
/// for the bit-exactness contract.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedGates {
    gates: usize,
    rows: usize,
    cols: usize,
    precision: Precision,
    store: QuantStore,
}

impl QuantizedGates {
    /// Packs the gate matrices into one quantized gate-major slab.
    ///
    /// # Panics
    /// Panics if `mats` is empty, the shapes differ, or `precision` is
    /// [`Precision::Fp32`] (use `FusedGates` for exact storage).
    pub fn pack(mats: &[&Matrix], precision: Precision) -> Self {
        assert!(
            precision.is_quantized(),
            "QuantizedGates::pack: use FusedGates for fp32 storage"
        );
        assert!(!mats.is_empty(), "QuantizedGates::pack: no gate matrices");
        let (rows, cols) = mats[0].shape();
        for (g, m) in mats.iter().enumerate() {
            assert_eq!(
                m.shape(),
                (rows, cols),
                "QuantizedGates::pack: gate {g} shape mismatch"
            );
        }
        let ppg = rows.div_ceil(MR);
        let slab_len = mats.len() * ppg * MR * cols;
        let store = match precision {
            Precision::Fp16 => {
                let mut data = vec![0u16; slab_len];
                for (g, m) in mats.iter().enumerate() {
                    let gate_base = g * ppg * MR * cols;
                    for p in 0..ppg {
                        let base = gate_base + p * MR * cols;
                        for lane in 0..MR.min(rows - p * MR) {
                            let row = m.row(p * MR + lane);
                            for (k, &v) in row.iter().enumerate() {
                                data[base + k * MR + lane] = f32_to_f16_bits(v);
                            }
                        }
                    }
                }
                QuantStore::F16(data)
            }
            Precision::Int8 => {
                let mut q = vec![0i8; slab_len];
                let mut scales = vec![0.0f32; mats.len() * rows];
                let mut row_q = Vec::new();
                for (g, m) in mats.iter().enumerate() {
                    let gate_base = g * ppg * MR * cols;
                    for p in 0..ppg {
                        let base = gate_base + p * MR * cols;
                        for lane in 0..MR.min(rows - p * MR) {
                            let r = p * MR + lane;
                            scales[g * rows + r] = quantize_row_i8(m.row(r), &mut row_q);
                            for (k, &code) in row_q.iter().enumerate() {
                                q[base + k * MR + lane] = code;
                            }
                        }
                    }
                }
                QuantStore::I8 { q, scales }
            }
            Precision::Fp32 => unreachable!(),
        };
        Self {
            gates: mats.len(),
            rows,
            cols,
            precision,
            store,
        }
    }

    /// Number of fused gate matrices.
    pub fn gates(&self) -> usize {
        self.gates
    }

    /// Rows of each gate matrix.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns of each gate matrix.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total output rows of the fused product (`gates * rows`).
    pub fn total_rows(&self) -> usize {
        self.gates * self.rows
    }

    /// The storage tier.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Bytes the quantized slab actually stores (codes plus, for int8,
    /// the per-row `f32` scales). This is what a residency model should
    /// budget for.
    pub fn weight_bytes(&self) -> u64 {
        match &self.store {
            QuantStore::F16(data) => data.len() as u64 * 2,
            QuantStore::I8 { q, scales } => q.len() as u64 + scales.len() as u64 * 4,
        }
    }

    /// Panels per gate.
    fn ppg(&self) -> usize {
        self.rows.div_ceil(MR)
    }

    /// Dequantized weight element `(gate, row, col)` — exactly the value
    /// every kernel here feeds its accumulators.
    pub fn dequant(&self, g: usize, r: usize, k: usize) -> f32 {
        let ppg = self.ppg();
        let idx = g * ppg * MR * self.cols + (r / MR) * MR * self.cols + k * MR + (r % MR);
        match &self.store {
            QuantStore::F16(data) => f16_bits_to_f32(data[idx]),
            QuantStore::I8 { q, scales } => q[idx] as f32 * scales[g * self.rows + r],
        }
    }

    /// The [`MR`] per-lane scales of global panel `q` (int8 only); dead
    /// lanes get 1.0 (their codes are 0, so the product stays 0).
    fn panel_scales(&self, scales: &[f32], panel: usize) -> [f32; MR] {
        let ppg = self.ppg();
        let (g, p) = (panel / ppg, panel % ppg);
        let live = MR.min(self.rows - p * MR);
        let mut out = [1.0f32; MR];
        for (lane, slot) in out.iter_mut().enumerate().take(live) {
            *slot = scales[g * self.rows + p * MR + lane];
        }
        out
    }

    /// Row sums of global panel `q` via the matching dequant-on-load
    /// micro-kernel.
    fn panel_sum(&self, q: usize, x: &[f32]) -> [f32; MR] {
        let span = q * MR * self.cols..(q + 1) * MR * self.cols;
        match &self.store {
            QuantStore::F16(data) => panel_gemv_f16(&data[span], self.cols, x),
            QuantStore::I8 { q: codes, scales } => {
                let lane_scales = self.panel_scales(scales, q);
                panel_gemv_i8(&codes[span], &lane_scales, self.cols, x)
            }
        }
    }

    /// Writes global panel `q`'s live lanes into the fused output slab.
    fn scatter(&self, q: usize, sum: &[f32; MR], out: &mut [f32]) {
        let ppg = self.ppg();
        let (g, p) = (q / ppg, q % ppg);
        let live = MR.min(self.rows - p * MR);
        let start = g * self.rows + p * MR;
        out[start..start + live].copy_from_slice(&sum[..live]);
    }

    /// The fused matrix-vector product, dequantizing on load: one pass
    /// over the slab computes every gate's pre-activations into `out`,
    /// gate-major. Bit-identical to `FusedGates::gemv_into` on the
    /// [`Precision::apply`]-dequantized matrices.
    ///
    /// # Panics
    /// Panics if `x.len() != cols` or `out.len() != gates * rows`.
    pub fn gemv_into(&self, x: &[f32], out: &mut [f32]) {
        assert_eq!(x.len(), self.cols, "QuantizedGates::gemv_into: x length");
        assert_eq!(
            out.len(),
            self.total_rows(),
            "QuantizedGates::gemv_into: out length"
        );
        for q in 0..self.gates * self.ppg() {
            let sum = self.panel_sum(q, x);
            self.scatter(q, &sum, out);
        }
    }

    /// Matrix-vector product of a single gate's matrix. Bit-identical to
    /// `FusedGates::gate_gemv_into` on the dequantized gate.
    ///
    /// # Panics
    /// Panics if `g >= gates`, `x.len() != cols`, or `out.len() != rows`.
    pub fn gate_gemv_into(&self, g: usize, x: &[f32], out: &mut [f32]) {
        assert!(g < self.gates, "QuantizedGates::gate_gemv_into: gate {g}");
        assert_eq!(
            x.len(),
            self.cols,
            "QuantizedGates::gate_gemv_into: x length"
        );
        assert_eq!(
            out.len(),
            self.rows,
            "QuantizedGates::gate_gemv_into: out length"
        );
        let ppg = self.ppg();
        for p in 0..ppg {
            let sum = self.panel_sum(g * ppg + p, x);
            let live = MR.min(self.rows - p * MR);
            out[p * MR..p * MR + live].copy_from_slice(&sum[..live]);
        }
    }

    /// Batched single-gate product with the panel loop outermost,
    /// streaming results through `write(column, row_start, values)` —
    /// the quantized twin of `FusedGates::gate_gemv_batch_with`.
    ///
    /// # Panics
    /// Panics if `g >= gates` or any `xs[i].len() != cols`.
    pub fn gate_gemv_batch_with(
        &self,
        g: usize,
        xs: &[Vector],
        mut write: impl FnMut(usize, usize, &[f32]),
    ) {
        assert!(
            g < self.gates,
            "QuantizedGates::gate_gemv_batch_with: gate {g}"
        );
        for (i, x) in xs.iter().enumerate() {
            assert_eq!(
                x.len(),
                self.cols,
                "QuantizedGates::gate_gemv_batch_with: column {i} length"
            );
        }
        let ppg = self.ppg();
        for p in 0..ppg {
            let live = MR.min(self.rows - p * MR);
            for (i, x) in xs.iter().enumerate() {
                let sum = self.panel_sum(g * ppg + p, x.as_slice());
                write(i, p * MR, &sum[..live]);
            }
        }
    }

    /// Row-masked product of the first `ngates` gates under one shared
    /// DRS row mask — the quantized twin of
    /// `FusedGates::gemv_masked_prefix_into`.
    ///
    /// # Panics
    /// Panics if `ngates > gates`, `x.len() != cols`,
    /// `active.len() != rows`, or `out.len() != ngates * rows`.
    pub fn gemv_masked_prefix_into(
        &self,
        ngates: usize,
        x: &Vector,
        active: &[bool],
        skipped_value: f32,
        scratch: &mut GatherScratch,
        out: &mut [f32],
    ) {
        assert!(
            ngates <= self.gates,
            "QuantizedGates::gemv_masked_prefix_into: {ngates} > {} gates",
            self.gates
        );
        assert_eq!(
            out.len(),
            ngates * self.rows,
            "QuantizedGates::gemv_masked_prefix_into: out length"
        );
        for g in 0..ngates {
            let section = &mut out[g * self.rows..(g + 1) * self.rows];
            self.gate_gemv_masked_into(g, x, active, skipped_value, scratch, section);
        }
    }

    /// Row-masked product of one gate's matrix: active rows are
    /// dequantized while being gathered into the scratch panel, then run
    /// through the exact `panel_gemv` micro-kernel — the same grouping
    /// and association as `FusedGates::gate_gemv_masked_into` on the
    /// dequantized gate, so the sections are bit-identical to it.
    ///
    /// # Panics
    /// Panics if `g >= gates`, `x.len() != cols`, `active.len() != rows`,
    /// or `out.len() != rows`.
    pub fn gate_gemv_masked_into(
        &self,
        g: usize,
        x: &Vector,
        active: &[bool],
        skipped_value: f32,
        scratch: &mut GatherScratch,
        out: &mut [f32],
    ) {
        assert!(
            g < self.gates,
            "QuantizedGates::gate_gemv_masked_into: gate {g}"
        );
        assert_eq!(
            x.len(),
            self.cols,
            "QuantizedGates::gate_gemv_masked_into: x length"
        );
        assert_eq!(
            active.len(),
            self.rows,
            "QuantizedGates::gate_gemv_masked_into: mask length"
        );
        assert_eq!(
            out.len(),
            self.rows,
            "QuantizedGates::gate_gemv_masked_into: out length"
        );
        let cols = self.cols;
        out.fill(skipped_value);
        let panel = &mut scratch.panel;
        panel.clear();
        panel.resize(MR * cols, 0.0);
        let mut gathered: [usize; MR] = [0; MR];
        let mut lanes = 0usize;
        let mut flush = |panel: &mut [f32], gathered: &[usize; MR], lanes: &mut usize| {
            if *lanes == 0 {
                return;
            }
            // Dequantize the active rows straight into the scratch
            // panel (column index outermost, like the fp32 gather), so
            // the exact micro-kernel below sees the same values the
            // dense quantized kernels compute.
            for (k, chunk) in panel.chunks_exact_mut(MR).enumerate() {
                for (slot, &r) in chunk.iter_mut().zip(gathered.iter().take(*lanes)) {
                    *slot = self.dequant(g, r, k);
                }
                chunk[*lanes..].fill(0.0);
            }
            let sum = panel_gemv(panel, cols, x.as_slice());
            for (lane, &r) in gathered.iter().enumerate().take(*lanes) {
                out[r] = sum[lane];
            }
            *lanes = 0;
        };
        for (r, &is_active) in active.iter().enumerate() {
            if !is_active {
                continue;
            }
            gathered[lanes] = r;
            lanes += 1;
            if lanes == MR {
                flush(panel, &gathered, &mut lanes);
            }
        }
        flush(panel, &gathered, &mut lanes);
    }
}

/// [`panel_gemv`]'s accumulation order over an `f16`-stored panel: the
/// conversion to `f32` is exact, so each `*a += c * xv` rounds exactly
/// like the fp32 kernel on the dequantized panel.
fn panel_gemv_f16(panel: &[u16], cols: usize, x: &[f32]) -> [f32; MR] {
    let chunks = cols / 4;
    let mut acc = [[0.0f32; MR]; 4];
    for i in 0..chunks {
        let base = i * 4 * MR;
        for phase in 0..4 {
            let xv = x[i * 4 + phase];
            let col = &panel[base + phase * MR..base + (phase + 1) * MR];
            for (a, &bits) in acc[phase].iter_mut().zip(col) {
                *a += f16_bits_to_f32(bits) * xv;
            }
        }
    }
    let mut sum = [0.0f32; MR];
    for r in 0..MR {
        sum[r] = ((acc[0][r] + acc[1][r]) + acc[2][r]) + acc[3][r];
    }
    for (k, &xv) in x.iter().enumerate().skip(chunks * 4) {
        let col = &panel[k * MR..(k + 1) * MR];
        for r in 0..MR {
            sum[r] += f16_bits_to_f32(col[r]) * xv;
        }
    }
    sum
}

/// [`panel_gemv`]'s accumulation order over an int8-stored panel with
/// per-lane scales: `q as f32` is exact for `|q| <= 127`, the scale
/// multiply is the dequantization's single IEEE rounding, and the
/// accumulation then matches the fp32 kernel on the dequantized panel
/// bit for bit.
fn panel_gemv_i8(panel: &[i8], lane_scales: &[f32; MR], cols: usize, x: &[f32]) -> [f32; MR] {
    let chunks = cols / 4;
    let mut acc = [[0.0f32; MR]; 4];
    for i in 0..chunks {
        let base = i * 4 * MR;
        for phase in 0..4 {
            let xv = x[i * 4 + phase];
            let col = &panel[base + phase * MR..base + (phase + 1) * MR];
            for (lane, (a, &code)) in acc[phase].iter_mut().zip(col).enumerate() {
                *a += (code as f32 * lane_scales[lane]) * xv;
            }
        }
    }
    let mut sum = [0.0f32; MR];
    for r in 0..MR {
        sum[r] = ((acc[0][r] + acc[1][r]) + acc[2][r]) + acc[3][r];
    }
    for (k, &xv) in x.iter().enumerate().skip(chunks * 4) {
        let col = &panel[k * MR..(k + 1) * MR];
        for r in 0..MR {
            sum[r] += (col[r] as f32 * lane_scales[r]) * xv;
        }
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FusedGates;

    fn pseudo_matrix(rows: usize, cols: usize, seed: u32) -> Matrix {
        Matrix::from_fn(rows, cols, |r, c| {
            let h = (r as u32)
                .wrapping_mul(2654435761)
                .wrapping_add((c as u32).wrapping_mul(40503))
                .wrapping_add(seed);
            (h % 2000) as f32 / 700.0 - 1.4
        })
    }

    fn pseudo_vector(len: usize, seed: u32) -> Vector {
        Vector::from_fn(len, |i| {
            let h = (i as u32).wrapping_mul(97_003).wrapping_add(seed);
            (h % 1000) as f32 / 350.0 - 1.3
        })
    }

    fn gate_set(gates: usize, rows: usize, cols: usize, seed: u32) -> Vec<Matrix> {
        (0..gates)
            .map(|g| pseudo_matrix(rows, cols, seed + 31 * g as u32))
            .collect()
    }

    #[test]
    fn f16_round_trip_of_representable_values() {
        for v in [
            0.0f32,
            -0.0,
            1.0,
            -1.0,
            0.5,
            65504.0,
            -65504.0,
            6.1035156e-5, // min normal
            5.9604645e-8, // min subnormal
            1.5,
            0.099975586,
        ] {
            let rt = f16_bits_to_f32(f32_to_f16_bits(v));
            assert_eq!(rt.to_bits(), v.to_bits(), "f16 round trip of {v}");
        }
    }

    #[test]
    fn f16_conversion_is_round_to_nearest_even() {
        // 1.0 + 2^-11 sits exactly between 1.0 and the next half
        // (1.0 + 2^-10): ties to even -> 1.0.
        assert_eq!(f32_to_f16_bits(1.0 + 0.00048828125), 0x3c00);
        // A hair above the tie rounds up.
        assert_eq!(f32_to_f16_bits(1.0 + 0.00048828125 + 1e-7), 0x3c01);
        // The next representable tie (1.0 + 3 * 2^-11) rounds to odd+1.
        assert_eq!(f32_to_f16_bits(1.0 + 3.0 * 0.00048828125), 0x3c02);
    }

    #[test]
    fn f16_overflow_and_underflow() {
        assert_eq!(f32_to_f16_bits(1e6), 0x7c00);
        assert_eq!(f32_to_f16_bits(-1e6), 0xfc00);
        assert_eq!(f32_to_f16_bits(1e-10), 0x0000);
        assert_eq!(f32_to_f16_bits(-1e-10), 0x8000);
        assert!(f16_bits_to_f32(0x7c00).is_infinite());
        assert!(f16_bits_to_f32(0x7e00).is_nan());
    }

    #[test]
    fn int8_per_row_scale_and_codes() {
        let row = [1.0f32, -2.0, 0.5, 2.0];
        let mut q = Vec::new();
        let scale = quantize_row_i8(&row, &mut q);
        assert_eq!(scale, 2.0 / 127.0);
        assert_eq!(q, vec![64, -127, 32, 127]);
        // All-zero row: scale 0, all codes 0, dequant 0.
        let zscale = quantize_row_i8(&[0.0, 0.0], &mut q);
        assert_eq!(zscale, 0.0);
        assert_eq!(q, vec![0, 0]);
    }

    #[test]
    fn precision_apply_fp32_is_identity() {
        let m = pseudo_matrix(9, 7, 3);
        assert_eq!(Precision::Fp32.apply(&m), m);
    }

    #[test]
    fn quantized_gemv_bit_identical_to_fp32_on_dequantized_weights() {
        // The heart of the contract: the dequant-on-load kernels equal
        // FusedGates on Precision::apply'd matrices, bit for bit, for
        // shapes straddling panel and phase-chunk boundaries.
        for precision in [Precision::Fp16, Precision::Int8] {
            for (rows, cols) in [(1, 1), (7, 5), (8, 8), (9, 12), (24, 16), (33, 31)] {
                let mats = gate_set(4, rows, cols, 11);
                let refs: Vec<&Matrix> = mats.iter().collect();
                let quant = QuantizedGates::pack(&refs, precision);
                let shadow: Vec<Matrix> = mats.iter().map(|m| precision.apply(m)).collect();
                let shadow_refs: Vec<&Matrix> = shadow.iter().collect();
                let exact = FusedGates::pack(&shadow_refs);
                let x = pseudo_vector(cols, 7);
                let mut a = vec![0.0f32; 4 * rows];
                let mut b = vec![0.0f32; 4 * rows];
                quant.gemv_into(x.as_slice(), &mut a);
                exact.gemv_into(x.as_slice(), &mut b);
                for (i, (qa, qb)) in a.iter().zip(&b).enumerate() {
                    assert_eq!(
                        qa.to_bits(),
                        qb.to_bits(),
                        "{precision} {rows}x{cols} slab row {i}"
                    );
                }
                let mut one_q = vec![0.0f32; rows];
                let mut one_e = vec![0.0f32; rows];
                for g in 0..4 {
                    quant.gate_gemv_into(g, x.as_slice(), &mut one_q);
                    exact.gate_gemv_into(g, x.as_slice(), &mut one_e);
                    assert_eq!(one_q, one_e, "{precision} {rows}x{cols} gate {g}");
                }
            }
        }
    }

    #[test]
    fn quantized_masked_bit_identical_to_fp32_masked_on_dequantized() {
        for precision in [Precision::Fp16, Precision::Int8] {
            for (rows, cols) in [(5, 3), (16, 16), (33, 20)] {
                let mats = gate_set(4, rows, cols, 3);
                let refs: Vec<&Matrix> = mats.iter().collect();
                let quant = QuantizedGates::pack(&refs, precision);
                let shadow: Vec<Matrix> = mats.iter().map(|m| precision.apply(m)).collect();
                let shadow_refs: Vec<&Matrix> = shadow.iter().collect();
                let exact = FusedGates::pack(&shadow_refs);
                let x = pseudo_vector(cols, 5);
                let mut s1 = GatherScratch::new();
                let mut s2 = GatherScratch::new();
                for skip_mod in [2usize, 3, 5] {
                    let active: Vec<bool> = (0..rows).map(|r| r % skip_mod != 0).collect();
                    let mut a = vec![0.0f32; 3 * rows];
                    let mut b = vec![0.0f32; 3 * rows];
                    quant.gemv_masked_prefix_into(3, &x, &active, 0.0, &mut s1, &mut a);
                    exact.gemv_masked_prefix_into(3, &x, &active, 0.0, &mut s2, &mut b);
                    for (i, (qa, qb)) in a.iter().zip(&b).enumerate() {
                        assert_eq!(
                            qa.to_bits(),
                            qb.to_bits(),
                            "{precision} {rows}x{cols} %{skip_mod} row {i}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn quantized_batch_columns_bit_identical_to_single() {
        for precision in [Precision::Fp16, Precision::Int8] {
            let mats = gate_set(4, 17, 9, 23);
            let refs: Vec<&Matrix> = mats.iter().collect();
            let quant = QuantizedGates::pack(&refs, precision);
            let xs: Vec<Vector> = (0..3).map(|i| pseudo_vector(9, 40 + i)).collect();
            for g in 0..4 {
                let mut outs = vec![vec![0.0f32; 17]; xs.len()];
                quant.gate_gemv_batch_with(g, &xs, |i, row0, vals| {
                    outs[i][row0..row0 + vals.len()].copy_from_slice(vals);
                });
                for (x, got) in xs.iter().zip(&outs) {
                    let mut single = vec![0.0f32; 17];
                    quant.gate_gemv_into(g, x.as_slice(), &mut single);
                    assert_eq!(*got, single);
                }
            }
        }
    }

    #[test]
    fn weight_bytes_shrink_by_tier() {
        let mats = gate_set(4, 32, 32, 1);
        let refs: Vec<&Matrix> = mats.iter().collect();
        let fp32_bytes = 4 * 32 * 32 * 4u64;
        let f16 = QuantizedGates::pack(&refs, Precision::Fp16);
        let i8q = QuantizedGates::pack(&refs, Precision::Int8);
        assert_eq!(f16.weight_bytes(), fp32_bytes / 2);
        // int8 codes are a quarter, plus one f32 scale per row.
        assert_eq!(i8q.weight_bytes(), fp32_bytes / 4 + 4 * 32 * 4);
        assert_eq!(Precision::Fp16.scale_bytes(fp32_bytes), fp32_bytes / 2);
        assert_eq!(Precision::Int8.scale_bytes(fp32_bytes), fp32_bytes / 4);
    }

    #[test]
    fn precision_name_round_trip() {
        for p in Precision::ALL {
            assert_eq!(Precision::parse(p.name()), Some(p));
        }
        assert_eq!(Precision::parse("fp8"), None);
    }

    #[test]
    #[should_panic(expected = "fp32 storage")]
    fn fp32_pack_rejected() {
        let m = Matrix::zeros(4, 4);
        QuantizedGates::pack(&[&m], Precision::Fp32);
    }
}
