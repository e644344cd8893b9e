//! Property tests pinning the fused-gate kernels to the unfused
//! per-gate references **bitwise**.
//!
//! The whole zero-allocation runtime rests on one claim: packing the
//! gate quartet (LSTM `f, i, c, o`) or triple (GRU `r, z, h`) into one
//! [`FusedGates`](tensor::FusedGates) slab and launching it once changes
//! *which rows ride in one pass*, never any row's accumulation order.
//! These tests rebuild every fused path from the raw public gate
//! matrices with the naive reference kernels (`sgemv`,
//! `sgemv_masked_reference`) and demand `to_bits()` equality — not
//! approximate closeness — across random weights, inputs, and DRS masks.

use lstm::cell::{CellScratch, CellWeights};
use lstm::gru::GruWeights;
use proptest::prelude::*;
use tensor::gemm::{sgemv, sgemv_masked_reference};
use tensor::init::seeded_rng;
use tensor::{sigmoid, tanh, Precision, Vector};

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

fn wx_of(cell: &CellWeights, x: &Vector) -> Vec<f32> {
    let mut out = Vec::new();
    cell.precompute_wx_batch_into(Precision::Fp32, std::slice::from_ref(x), &mut out);
    out
}

/// Gate `g`'s `HIDDEN` rows of a gate-major slab.
fn gate(slab: &[f32], g: usize) -> &[f32] {
    &slab[g * HIDDEN..(g + 1) * HIDDEN]
}

/// The GRU's gate-major `W_{r,z,h}·x` terms from the naive per-gate
/// products.
fn gru_wx_reference(w: &GruWeights, x: &Vector) -> Vec<f32> {
    [&w.w_r, &w.w_z, &w.w_h]
        .iter()
        .flat_map(|m| sgemv(m, x).as_slice().to_vec())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `W_{f,i,c,o}·x` through the fused pack == four naive `sgemv`s.
    #[test]
    fn lstm_fused_wx_matches_per_gate_sgemv(seed in 0u64..500, x in vec_strategy(INPUT)) {
        let cell = CellWeights::random(INPUT, HIDDEN, &mut seeded_rng(seed));
        let x = Vector::from(x);
        let wx = wx_of(&cell, &x);
        prop_assert_eq!(wx.len(), 4 * HIDDEN);
        assert_bits_eq(gate(&wx, 0), sgemv(&cell.w.f, &x).as_slice(), "wx.f")?;
        assert_bits_eq(gate(&wx, 1), sgemv(&cell.w.i, &x).as_slice(), "wx.i")?;
        assert_bits_eq(gate(&wx, 2), sgemv(&cell.w.c, &x).as_slice(), "wx.c")?;
        assert_bits_eq(gate(&wx, 3), sgemv(&cell.w.o, &x).as_slice(), "wx.o")?;
    }

    /// The batched GEMM-shaped `W·x` path == four naive `sgemv`s per
    /// column on the gate matrices rounded to the storage precision.
    #[test]
    fn lstm_batched_wx_matches_single_columns(
        seed in 0u64..500,
        n in 1usize..5,
        p in (0usize..Precision::ALL.len()).prop_map(|t| Precision::ALL[t]),
    ) {
        let cell = CellWeights::random(INPUT, HIDDEN, &mut seeded_rng(seed));
        let mut rng = seeded_rng(seed ^ 0x5a5a);
        use rand::Rng;
        let xs: Vec<Vector> = (0..n)
            .map(|_| Vector::from_fn(INPUT, |_| rng.gen_range(-1.0f32..1.0)))
            .collect();
        let mut batch = Vec::new();
        cell.precompute_wx_batch_into(p, &xs, &mut batch);
        prop_assert_eq!(batch.len(), n * 4 * HIDDEN);
        let (wf, wi) = (p.apply(&cell.w.f), p.apply(&cell.w.i));
        let (wc, wo) = (p.apply(&cell.w.c), p.apply(&cell.w.o));
        for (x, got) in xs.iter().zip(batch.chunks(4 * HIDDEN)) {
            assert_bits_eq(gate(got, 0), sgemv(&wf, x).as_slice(), "batch f")?;
            assert_bits_eq(gate(got, 1), sgemv(&wi, x).as_slice(), "batch i")?;
            assert_bits_eq(gate(got, 2), sgemv(&wc, x).as_slice(), "batch c")?;
            assert_bits_eq(gate(got, 3), sgemv(&wo, x).as_slice(), "batch o")?;
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
        let wx = wx_of(&cell, &x);
        let (mut h, mut c) = (Vector::zeros(0), Vector::zeros(0));
        let mut scratch = CellScratch::new();
        cell.step_fused_into(Precision::Fp32, &wx, &h0, &c0, &mut scratch, &mut h, &mut c);

        let (uf, ui) = (sgemv(&cell.u.f, &h0), sgemv(&cell.u.i, &h0));
        let (uc, uo) = (sgemv(&cell.u.c, &h0), sgemv(&cell.u.o, &h0));
        let [wf, wi, wc, wo] = [0, 1, 2, 3].map(|g| gate(&wx, g));
        let mut h_ref = vec![0.0f32; HIDDEN];
        let mut c_ref = vec![0.0f32; HIDDEN];
        for j in 0..HIDDEN {
            let f = sigmoid(wf[j] + uf[j] + cell.b.f[j]);
            let i = sigmoid(wi[j] + ui[j] + cell.b.i[j]);
            let cand = tanh(wc[j] + uc[j] + cell.b.c[j]);
            let o = sigmoid(wo[j] + uo[j] + cell.b.o[j]);
            c_ref[j] = f * c0[j] + i * cand;
            h_ref[j] = o * tanh(c_ref[j]);
        }
        assert_bits_eq(h.as_slice(), &h_ref, "h")?;
        assert_bits_eq(c.as_slice(), &c_ref, "c")?;
    }

    /// The fused DRS step (shared `f, i, c` row mask, one in-place
    /// launch) == the reference masked kernel applied per gate.
    #[test]
    fn lstm_masked_step_matches_masked_reference(
        seed in 0u64..500,
        x in vec_strategy(INPUT),
        h0 in vec_strategy(HIDDEN),
        c0 in vec_strategy(HIDDEN),
        active in mask_strategy(HIDDEN),
    ) {
        let cell = CellWeights::random(INPUT, HIDDEN, &mut seeded_rng(seed));
        let (x, h0, c0) = (Vector::from(x), Vector::from(h0), Vector::from(c0));
        let wx = wx_of(&cell, &x);
        let mut scratch = CellScratch::new();
        let mut o = [Vector::zeros(0)];
        cell.output_gate_into(Precision::Fp32, [wx.as_slice()], std::slice::from_ref(&h0), &mut scratch, &mut o);
        let [o] = o;
        let (mut h, mut c) = (Vector::zeros(0), Vector::zeros(0));
        cell.step_masked_into(
            Precision::Fp32, &wx, &h0, &c0, &o, &active, &mut scratch, &mut h, &mut c,
        );

        let [wf, wi, wc, wo] = [0, 1, 2, 3].map(|g| gate(&wx, g));
        let uf = sgemv_masked_reference(&cell.u.f, &h0, &active, 0.0);
        let ui = sgemv_masked_reference(&cell.u.i, &h0, &active, 0.0);
        let uc = sgemv_masked_reference(&cell.u.c, &h0, &active, 0.0);
        let o_ref: Vec<f32> = {
            let uo = sgemv(&cell.u.o, &h0);
            (0..HIDDEN)
                .map(|j| sigmoid(wo[j] + uo[j] + cell.b.o[j]))
                .collect()
        };
        assert_bits_eq(o.as_slice(), &o_ref, "o")?;
        let mut h_ref = vec![0.0f32; HIDDEN];
        let mut c_ref = vec![0.0f32; HIDDEN];
        for j in 0..HIDDEN {
            if active[j] {
                let f = sigmoid(wf[j] + uf[j] + cell.b.f[j]);
                let i = sigmoid(wi[j] + ui[j] + cell.b.i[j]);
                let cand = tanh(wc[j] + uc[j] + cell.b.c[j]);
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
        let mut h = Vector::zeros(0);
        let wx = gru_wx_reference(&w, &x);
        w.step_into(Precision::Fp32, &wx, &h0, &mut CellScratch::new(), &mut h);

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

    /// The fused masked GRU step == the reference masked kernel per
    /// gate, with inactive units copying their history.
    #[test]
    fn gru_masked_step_matches_masked_reference(
        seed in 0u64..500,
        x in vec_strategy(INPUT),
        h0 in vec_strategy(HIDDEN),
        active in mask_strategy(HIDDEN),
    ) {
        let w = GruWeights::random(INPUT, HIDDEN, &mut seeded_rng(seed));
        let (x, h0) = (Vector::from(x), Vector::from(h0));
        let wx = gru_wx_reference(&w, &x);
        let mut scratch = CellScratch::new();
        let mut z = [Vector::zeros(0)];
        w.update_gate_into(Precision::Fp32, [wx.as_slice()], std::slice::from_ref(&h0), &mut scratch, &mut z);
        let [z] = z;
        let mut h = Vector::zeros(0);
        w.step_masked_into(Precision::Fp32, &wx, &h0, &z, &active, &mut scratch, &mut h);

        let wr = sgemv(&w.w_r, &x);
        let ur = sgemv_masked_reference(&w.u_r, &h0, &active, 0.0);
        let r: Vec<f32> = (0..HIDDEN)
            .map(|j| if active[j] { sigmoid(wr[j] + ur[j] + w.b_r[j]) } else { 0.0 })
            .collect();
        let rh = Vector::from_fn(HIDDEN, |j| r[j] * h0[j]);
        let wh = sgemv(&w.w_h, &x);
        let uh = sgemv_masked_reference(&w.u_h, &rh, &active, 0.0);
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
