//! Property tests pinning the fused-gate kernels to the unfused
//! per-gate references **bitwise**.
//!
//! The whole zero-allocation runtime rests on one claim: packing the
//! gate quartet (LSTM `f, i, c, o`) or triple (GRU `r, z, h`) into one
//! [`FusedGates`](tensor::FusedGates) slab and launching it once changes
//! *which rows ride in one pass*, never any row's accumulation order.
//! These tests rebuild every fused path from the raw public gate
//! matrices with the naive reference kernels (`sgemv`,
//! `sgemv_masked_gather`) and demand `to_bits()` equality — not
//! approximate closeness — across random weights, inputs, and DRS masks.

use lstm::cell::CellWeights;
use lstm::gru::GruWeights;
use proptest::prelude::*;
use tensor::gemm::sgemv;
use tensor::init::seeded_rng;
use tensor::{sgemv_masked_gather, sigmoid, tanh, Precision, Vector};

/// Odd sizes on purpose: rows straddle the MR=8 panel boundary and the
/// 4-column phase chunks, where a layout bug would first show.
const INPUT: usize = 11;
const HIDDEN: usize = 13;

fn vec_strategy(len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-1.5f32..=1.5, len)
}

fn mask_strategy(len: usize) -> impl Strategy<Value = Vec<bool>> {
    proptest::collection::vec(any::<bool>(), len)
}

fn assert_bits_eq(got: &[f32], want: &[f32], what: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.len(), want.len(), "{} length", what);
    for (j, (g, w)) in got.iter().zip(want).enumerate() {
        prop_assert_eq!(g.to_bits(), w.to_bits(), "{}[{}]: {} vs {}", what, j, g, w);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `W_{f,i,c,o}·x` through the fused pack == four naive `sgemv`s.
    #[test]
    fn lstm_fused_wx_matches_per_gate_sgemv(seed in 0u64..500, x in vec_strategy(INPUT)) {
        let cell = CellWeights::random(INPUT, HIDDEN, &mut seeded_rng(seed));
        let x = Vector::from(x);
        let wx = cell.precompute_wx(&x);
        assert_bits_eq(wx.f.as_slice(), sgemv(&cell.w.f, &x).as_slice(), "wx.f")?;
        assert_bits_eq(wx.i.as_slice(), sgemv(&cell.w.i, &x).as_slice(), "wx.i")?;
        assert_bits_eq(wx.c.as_slice(), sgemv(&cell.w.c, &x).as_slice(), "wx.c")?;
        assert_bits_eq(wx.o.as_slice(), sgemv(&cell.w.o, &x).as_slice(), "wx.o")?;
    }

    /// The batched GEMM-shaped `W·x` path == the single-column path,
    /// column by column.
    #[test]
    fn lstm_batched_wx_matches_single_columns(seed in 0u64..500, n in 1usize..5) {
        let cell = CellWeights::random(INPUT, HIDDEN, &mut seeded_rng(seed));
        let mut rng = seeded_rng(seed ^ 0x5a5a);
        use rand::Rng;
        let xs: Vec<Vector> = (0..n)
            .map(|_| Vector::from_fn(INPUT, |_| rng.gen_range(-1.0f32..1.0)))
            .collect();
        let mut batch = Vec::new();
        cell.precompute_wx_batch_into(Precision::Fp32, &xs, &mut batch);
        for (x, got) in xs.iter().zip(&batch) {
            let single = cell.precompute_wx(x);
            assert_bits_eq(got.f.as_slice(), single.f.as_slice(), "batch f")?;
            assert_bits_eq(got.i.as_slice(), single.i.as_slice(), "batch i")?;
            assert_bits_eq(got.c.as_slice(), single.c.as_slice(), "batch c")?;
            assert_bits_eq(got.o.as_slice(), single.o.as_slice(), "batch o")?;
        }
    }

    /// The fused dense step == Eqs. 1–5 rebuilt from naive per-gate
    /// `U·h` products.
    #[test]
    fn lstm_fused_step_matches_per_gate_reference(
        seed in 0u64..500,
        x in vec_strategy(INPUT),
        h0 in vec_strategy(HIDDEN),
        c0 in vec_strategy(HIDDEN),
    ) {
        let cell = CellWeights::random(INPUT, HIDDEN, &mut seeded_rng(seed));
        let (x, h0, c0) = (Vector::from(x), Vector::from(h0), Vector::from(c0));
        let wx = cell.precompute_wx(&x);
        let (h, c) = cell.step(&wx, &h0, &c0);

        let (uf, ui) = (sgemv(&cell.u.f, &h0), sgemv(&cell.u.i, &h0));
        let (uc, uo) = (sgemv(&cell.u.c, &h0), sgemv(&cell.u.o, &h0));
        let sig = cell.gate_activation();
        let mut h_ref = vec![0.0f32; HIDDEN];
        let mut c_ref = vec![0.0f32; HIDDEN];
        for j in 0..HIDDEN {
            let f = sig.apply(wx.f[j] + uf[j] + cell.b.f[j]);
            let i = sig.apply(wx.i[j] + ui[j] + cell.b.i[j]);
            let cand = tanh(wx.c[j] + uc[j] + cell.b.c[j]);
            let o = sig.apply(wx.o[j] + uo[j] + cell.b.o[j]);
            c_ref[j] = f * c0[j] + i * cand;
            h_ref[j] = o * tanh(c_ref[j]);
        }
        assert_bits_eq(h.as_slice(), &h_ref, "h")?;
        assert_bits_eq(c.as_slice(), &c_ref, "c")?;
    }

    /// The fused DRS step (shared `f, i, c` row mask, one gathered
    /// launch) == the naive gather kernel applied per gate.
    #[test]
    fn lstm_masked_step_matches_gather_reference(
        seed in 0u64..500,
        x in vec_strategy(INPUT),
        h0 in vec_strategy(HIDDEN),
        c0 in vec_strategy(HIDDEN),
        active in mask_strategy(HIDDEN),
    ) {
        let cell = CellWeights::random(INPUT, HIDDEN, &mut seeded_rng(seed));
        let (x, h0, c0) = (Vector::from(x), Vector::from(h0), Vector::from(c0));
        let wx = cell.precompute_wx(&x);
        let o = cell.output_gate(&wx.o, &h0);
        let (h, c) = cell.step_masked(&wx, &h0, &c0, &o, &active);

        let uf = sgemv_masked_gather(&cell.u.f, &h0, &active, 0.0);
        let ui = sgemv_masked_gather(&cell.u.i, &h0, &active, 0.0);
        let uc = sgemv_masked_gather(&cell.u.c, &h0, &active, 0.0);
        let o_ref: Vec<f32> = {
            let uo = sgemv(&cell.u.o, &h0);
            (0..HIDDEN)
                .map(|j| cell.gate_activation().apply(wx.o[j] + uo[j] + cell.b.o[j]))
                .collect()
        };
        assert_bits_eq(o.as_slice(), &o_ref, "o")?;
        let sig = cell.gate_activation();
        let mut h_ref = vec![0.0f32; HIDDEN];
        let mut c_ref = vec![0.0f32; HIDDEN];
        for j in 0..HIDDEN {
            if active[j] {
                let f = sig.apply(wx.f[j] + uf[j] + cell.b.f[j]);
                let i = sig.apply(wx.i[j] + ui[j] + cell.b.i[j]);
                let cand = tanh(wx.c[j] + uc[j] + cell.b.c[j]);
                c_ref[j] = f * c0[j] + i * cand;
                h_ref[j] = o[j] * tanh(c_ref[j]);
            }
        }
        assert_bits_eq(h.as_slice(), &h_ref, "h")?;
        assert_bits_eq(c.as_slice(), &c_ref, "c")?;
    }

    /// The fused GRU step == the update rule rebuilt from naive per-gate
    /// `W·x` / `U·h` products.
    #[test]
    fn gru_fused_step_matches_per_gate_reference(
        seed in 0u64..500,
        x in vec_strategy(INPUT),
        h0 in vec_strategy(HIDDEN),
    ) {
        let w = GruWeights::random(INPUT, HIDDEN, &mut seeded_rng(seed));
        let (x, h0) = (Vector::from(x), Vector::from(h0));
        let h = w.step(&x, &h0);

        let (wr, ur) = (sgemv(&w.w_r, &x), sgemv(&w.u_r, &h0));
        let (wz, uz) = (sgemv(&w.w_z, &x), sgemv(&w.u_z, &h0));
        let r: Vec<f32> = (0..HIDDEN).map(|j| sigmoid(wr[j] + ur[j] + w.b_r[j])).collect();
        let z: Vec<f32> = (0..HIDDEN).map(|j| sigmoid(wz[j] + uz[j] + w.b_z[j])).collect();
        let rh = Vector::from_fn(HIDDEN, |j| r[j] * h0[j]);
        let (wh, uh) = (sgemv(&w.w_h, &x), sgemv(&w.u_h, &rh));
        let h_ref: Vec<f32> = (0..HIDDEN)
            .map(|j| {
                let cand = tanh(wh[j] + uh[j] + w.b_h[j]);
                (1.0 - z[j]) * h0[j] + z[j] * cand
            })
            .collect();
        assert_bits_eq(h.as_slice(), &h_ref, "h")?;
    }

    /// The fused masked GRU step == the naive gather kernel per gate,
    /// with inactive units copying their history.
    #[test]
    fn gru_masked_step_matches_gather_reference(
        seed in 0u64..500,
        x in vec_strategy(INPUT),
        h0 in vec_strategy(HIDDEN),
        active in mask_strategy(HIDDEN),
    ) {
        let w = GruWeights::random(INPUT, HIDDEN, &mut seeded_rng(seed));
        let (x, h0) = (Vector::from(x), Vector::from(h0));
        let z = w.update_gate(&x, &h0);
        let h = w.step_masked(&x, &h0, &z, &active);

        let wr = sgemv(&w.w_r, &x);
        let ur = sgemv_masked_gather(&w.u_r, &h0, &active, 0.0);
        let r: Vec<f32> = (0..HIDDEN)
            .map(|j| if active[j] { sigmoid(wr[j] + ur[j] + w.b_r[j]) } else { 0.0 })
            .collect();
        let rh = Vector::from_fn(HIDDEN, |j| r[j] * h0[j]);
        let wh = sgemv(&w.w_h, &x);
        let uh = sgemv_masked_gather(&w.u_h, &rh, &active, 0.0);
        let h_ref: Vec<f32> = (0..HIDDEN)
            .map(|j| {
                if active[j] {
                    let cand = tanh(wh[j] + uh[j] + w.b_h[j]);
                    (1.0 - z[j]) * h0[j] + z[j] * cand
                } else {
                    h0[j]
                }
            })
            .collect();
        assert_bits_eq(h.as_slice(), &h_ref, "h")?;
    }
}
