//! Reduced-precision weight tiers: the precision knob, its rounding,
//! and the conversions behind a quantized
//! [`FusedGates`](crate::FusedGates) slab.
//!
//! The paper's diagnosis is that mobile-GPU LSTM inference is bound by
//! *weight* traffic against a small L2; fp16 and int8 weight storage are
//! the other big lever on that axis (cf. E-PUR and SHARP, which both run
//! RNN inference at reduced weight precision and convert the byte savings
//! directly into memory-bound speedups). This module provides:
//!
//! * [`Precision`] — the weight-precision knob (`fp32`/`fp16`/`int8`)
//!   threaded through plan compilation and pricing, and the rounding
//!   argument of [`FusedGates::pack`](crate::FusedGates::pack),
//! * hand-rolled `f32`↔`f16` bit conversions (round-to-nearest-even; no
//!   external crate),
//! * per-row symmetric int8 quantization (`scale = max|row| / 127`).
//!
//! The byte savings are a *device* cost: plan pricing scales every
//! gate-weight DRAM read by [`Precision::bytes_per_weight`]. The host
//! slab stores the rounded weights as `f32` and runs the fp32 kernels;
//! dequantizing on load ran int8 at half of fp32's speed (DESIGN §2j).
//!
//! ## Bit-exactness contract
//!
//! A quantized slab holds exactly the values of [`Precision::apply`],
//! through one shared per-row rounding: `f16` converts back exactly, and
//! `int8` dequantization is one IEEE rounding (`q as f32 * scale`). A
//! quantized product is therefore **bit-identical** to the fp32 product
//! on the dequantized weights, which makes determinism automatic and the
//! quantization error a pure weight-perturbation bound, testable per row.

use crate::matrix::Matrix;

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
    /// of this tier's storage. `Fp32` is the identity. A quantized slab
    /// stores exactly these values, so its products are the fp32
    /// products on `apply`'s result.
    pub fn apply(self, m: &Matrix) -> Matrix {
        let (rows, cols) = m.shape();
        let mut out = Matrix::zeros(rows, cols);
        let mut codes = Vec::with_capacity(cols);
        for r in 0..rows {
            self.round_row_into(m.row(r), &mut codes, out.row_mut(r).iter_mut());
        }
        out
    }

    /// Writes `row` rounded to this tier into `slots`, in order: the
    /// value itself at `Fp32`, `f16_bits_to_f32(f32_to_f16_bits(v))` at
    /// `Fp16`, and `code as f32 * scale` from [`quantize_row_i8`] at
    /// `Int8` (`codes` is its scratch). The one rounding behind both
    /// [`apply`](Self::apply) and a packed slab's stored weights.
    pub(crate) fn round_row_into<'a>(
        self,
        row: &[f32],
        codes: &mut Vec<i8>,
        slots: impl Iterator<Item = &'a mut f32>,
    ) {
        match self {
            Precision::Fp32 => {
                for (slot, &v) in slots.zip(row) {
                    *slot = v;
                }
            }
            Precision::Fp16 => {
                for (slot, &v) in slots.zip(row) {
                    *slot = f16_bits_to_f32(f32_to_f16_bits(v));
                }
            }
            Precision::Int8 => {
                let scale = quantize_row_i8(row, codes);
                for (slot, &code) in slots.zip(codes.iter()) {
                    *slot = code as f32 * scale;
                }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FusedGates, Vector};

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
        // The heart of the contract: a slab stored at each tier equals
        // the fp32 slab of the Precision::apply'd matrices, bit for bit,
        // for shapes straddling panel and phase-chunk boundaries.
        for precision in Precision::ALL {
            for (rows, cols) in [(1, 1), (7, 5), (8, 8), (9, 12), (24, 16), (33, 31)] {
                let mats = gate_set(4, rows, cols, 11);
                let refs: Vec<&Matrix> = mats.iter().collect();
                let quant = FusedGates::pack(&refs, precision);
                let shadow: Vec<Matrix> = mats.iter().map(|m| precision.apply(m)).collect();
                let shadow_refs: Vec<&Matrix> = shadow.iter().collect();
                let exact = FusedGates::pack(&shadow_refs, Precision::Fp32);
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
                    quant.gate_gemv_into(g, &[x.as_slice()], &mut one_q);
                    exact.gate_gemv_into(g, &[x.as_slice()], &mut one_e);
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
                let quant = FusedGates::pack(&refs, precision);
                let shadow: Vec<Matrix> = mats.iter().map(|m| precision.apply(m)).collect();
                let shadow_refs: Vec<&Matrix> = shadow.iter().collect();
                let exact = FusedGates::pack(&shadow_refs, Precision::Fp32);
                let x = pseudo_vector(cols, 5);
                for skip_mod in [2usize, 3, 5] {
                    let active: Vec<bool> = (0..rows).map(|r| r % skip_mod != 0).collect();
                    let mut a = vec![0.0f32; 3 * rows];
                    let mut b = vec![0.0f32; 3 * rows];
                    quant.gemv_masked_prefix_into(3, &[&x], &[&active], 0.0, &mut a);
                    exact.gemv_masked_prefix_into(3, &[&x], &[&active], 0.0, &mut b);
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
            let quant = FusedGates::pack(&refs, precision);
            let xs: Vec<Vector> = (0..3).map(|i| pseudo_vector(9, 40 + i)).collect();
            let mut outs = vec![f32::NAN; xs.len() * 4 * 17];
            quant.gemv_batch_into(&xs, &mut outs);
            for (x, got) in xs.iter().zip(outs.chunks(4 * 17)) {
                let mut single = vec![0.0f32; 4 * 17];
                quant.gemv_into(x.as_slice(), &mut single);
                let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<u32>>();
                assert_eq!(bits(got), bits(&single), "{precision}");
            }
        }
    }

    #[test]
    fn weight_bytes_shrink_by_tier() {
        let fp32_bytes = 4 * 32 * 32 * 4u64;
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
}
