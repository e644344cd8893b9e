//! Property-based tests for the quantized weight tier:
//!
//! (a) bitwise determinism — quantize → dequant → GEMV produces the same
//!     bits run after run, a quantized slab stores exactly the fp32 slab
//!     of the dequantized (`Precision::apply`) weights, and its product
//!     is bit-identical to the fp32 fused kernel on those weights, which
//!     is what makes the result independent of worker count (the pooled
//!     runtimes only ever reorder *independent* rows);
//! (b) a max-abs-error bound vs the fp32 fused path over random gate
//!     matrices, derived from the per-element quantization step;
//! (c) int8 round-trip of representable values (exact multiples of a
//!     power-of-two scale survive quantize → dequant bit-for-bit).

use proptest::prelude::*;
use tensor::quant::{f16_bits_to_f32, f32_to_f16_bits, quantize_row_i8};
use tensor::{FusedGates, Matrix, Precision, Vector};

fn finite_f32() -> impl Strategy<Value = f32> {
    (-100i32..=100).prop_map(|x| x as f32 / 10.0)
}

fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(finite_f32(), rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data).expect("sized by construction"))
}

fn vector(len: usize) -> impl Strategy<Value = Vector> {
    proptest::collection::vec(finite_f32(), len).prop_map(Vector::from)
}

fn gates(rows: usize, cols: usize) -> impl Strategy<Value = Vec<Matrix>> {
    proptest::collection::vec(matrix(rows, cols), 4)
}

fn precision() -> impl Strategy<Value = Precision> {
    any::<bool>().prop_map(|half| {
        if half {
            Precision::Fp16
        } else {
            Precision::Int8
        }
    })
}

fn any_tier() -> impl Strategy<Value = Precision> {
    (0usize..Precision::ALL.len()).prop_map(|t| Precision::ALL[t])
}

proptest! {
    /// (a, storage) A slab packed at any tier *is* the fp32 slab of the
    /// `Precision::apply`'d matrices: same panels, same zero padding.
    /// Row counts run on and off the panel height (`rows % MR != 0`
    /// leaves a partial last panel), and one row is all zero, so its
    /// int8 scale is 0.
    #[test]
    fn quantized_pack_stores_the_dequantized_fp32_slab(
        (mats, zero_gate, zero_row) in (1usize..=20)
            .prop_flat_map(|rows| (gates(rows, 6), 0usize..4, 0..rows)),
        p in any_tier(),
    ) {
        let mut mats = mats;
        mats[zero_gate].row_mut(zero_row).fill(0.0);
        let refs: Vec<&Matrix> = mats.iter().collect();
        let shadow: Vec<Matrix> = mats.iter().map(|m| p.apply(m)).collect();
        let shadow_refs: Vec<&Matrix> = shadow.iter().collect();
        prop_assert_eq!(
            FusedGates::pack(&refs, p),
            FusedGates::pack(&shadow_refs, Precision::Fp32),
            "{} slab of {} rows", p, mats[0].rows()
        );
    }

    /// (a) Bitwise determinism: two independent pack + GEMV passes give
    /// the same bits, and both equal the fp32 fused kernel run on the
    /// dequantized weights. The latter identity is the worker-count
    /// argument: every parallel runtime in the workspace is pinned to
    /// the fp32 kernels' bits regardless of `MEMLSTM_THREADS`, so a
    /// quantized run inherits that invariance through this equality.
    #[test]
    fn quantize_dequant_gemv_bitwise_deterministic(
        mats in gates(13, 11),
        x in vector(11),
        p in precision(),
    ) {
        let refs: Vec<&Matrix> = mats.iter().collect();
        let q1 = FusedGates::pack(&refs, p);
        let q2 = FusedGates::pack(&refs, p);
        let mut out1 = vec![0.0f32; q1.total_rows()];
        let mut out2 = vec![0.0f32; q2.total_rows()];
        q1.gemv_into(x.as_slice(), &mut out1);
        q2.gemv_into(x.as_slice(), &mut out2);
        for (a, b) in out1.iter().zip(&out2) {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "re-pack + re-run drifted");
        }
        // Quantized kernel == fp32 kernel on the dequantized weights.
        let shadow: Vec<Matrix> = mats.iter().map(|m| p.apply(m)).collect();
        let shadow_refs: Vec<&Matrix> = shadow.iter().collect();
        let exact = FusedGates::pack(&shadow_refs, Precision::Fp32);
        let mut shadow_out = vec![0.0f32; exact.total_rows()];
        exact.gemv_into(x.as_slice(), &mut shadow_out);
        for (a, b) in out1.iter().zip(&shadow_out) {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "quantized slab != fp32-on-dequantized");
        }
    }

    /// (a, masked path) The masked quantized kernel is bit-identical to
    /// the fp32 masked kernel on the dequantized weights under every
    /// mask.
    #[test]
    fn masked_quantized_gemv_bitwise_matches_dequantized_fp32(
        mats in gates(10, 7),
        x in vector(7),
        mask in proptest::collection::vec(any::<bool>(), 10),
        p in precision(),
    ) {
        let refs: Vec<&Matrix> = mats.iter().collect();
        let quant = FusedGates::pack(&refs, p);
        let shadow: Vec<Matrix> = mats.iter().map(|m| p.apply(m)).collect();
        let shadow_refs: Vec<&Matrix> = shadow.iter().collect();
        let exact = FusedGates::pack(&shadow_refs, Precision::Fp32);
        let mut a = vec![0.0f32; 3 * 10];
        let mut b = vec![0.0f32; 3 * 10];
        quant.gemv_masked_prefix_into(3, &[&x], &[&mask], 0.0, &mut a);
        exact.gemv_masked_prefix_into(3, &[&x], &[&mask], 0.0, &mut b);
        for (qa, qb) in a.iter().zip(&b) {
            prop_assert_eq!(qa.to_bits(), qb.to_bits());
        }
    }

    /// (b) Max-abs-error bound vs the fp32 fused path. Per element the
    /// quantization error is at most half a step — `scale / 2` for
    /// int8, `|w| * 2^-11` for fp16 — so row `r`'s GEMV error is
    /// bounded by `step/2 * Σ|x|` plus accumulation slack.
    #[test]
    fn quantized_gemv_error_bounded_vs_fp32(
        mats in gates(12, 9),
        x in vector(9),
        p in precision(),
    ) {
        let refs: Vec<&Matrix> = mats.iter().collect();
        let quant = FusedGates::pack(&refs, p);
        let exact = FusedGates::pack(&refs, Precision::Fp32);
        let mut got = vec![0.0f32; quant.total_rows()];
        let mut want = vec![0.0f32; exact.total_rows()];
        quant.gemv_into(x.as_slice(), &mut got);
        exact.gemv_into(x.as_slice(), &mut want);
        let l1_x: f32 = x.iter().map(|v| v.abs()).sum();
        for (g, m) in mats.iter().enumerate() {
            for r in 0..m.rows() {
                let row = m.row(r);
                let max_abs = row.iter().fold(0.0f32, |acc, &v| acc.max(v.abs()));
                let half_step = match p {
                    Precision::Int8 => max_abs / 127.0 / 2.0,
                    Precision::Fp16 => max_abs * (1.0 / 2048.0),
                    Precision::Fp32 => 0.0,
                };
                let bound = half_step * l1_x * 1.5 + 1e-4;
                let err = (got[g * 12 + r] - want[g * 12 + r]).abs();
                prop_assert!(
                    err <= bound,
                    "gate {} row {}: err {} > bound {} ({})", g, r, err, bound, p
                );
            }
        }
    }

    /// (c) int8 round-trip of representable values: rows whose entries
    /// are integer multiples `k * s` of a power-of-two scale `s`, with
    /// `max|row| = 127 s`, quantize to exactly `k` and dequantize back
    /// bit-for-bit.
    #[test]
    fn int8_round_trips_representable_values(
        codes in proptest::collection::vec(-127i32..=127, 1..24),
        scale_exp in -6i32..=3,
    ) {
        let s = (scale_exp as f32).exp2();
        // Force the row max to 127*s so the recovered scale is exactly s.
        let mut row: Vec<f32> = codes.iter().map(|&k| k as f32 * s).collect();
        row.push(127.0 * s);
        let mut q = Vec::new();
        let got_scale = quantize_row_i8(&row, &mut q);
        prop_assert_eq!(got_scale.to_bits(), s.to_bits(), "scale must recover exactly");
        for (&code, &v) in q.iter().zip(&row) {
            let rt = code as f32 * got_scale;
            prop_assert_eq!(rt.to_bits(), v.to_bits(), "code {} of {}", code, v);
        }
    }

    /// (c, fp16) every binary16 value survives the f32 round trip.
    #[test]
    fn f16_round_trips_all_finite_bit_patterns(bits in 0u16..0x7c00u16, sign in any::<bool>()) {
        let h = bits | if sign { 0x8000 } else { 0 };
        let rt = f32_to_f16_bits(f16_bits_to_f32(h));
        prop_assert_eq!(rt, h);
    }
}
