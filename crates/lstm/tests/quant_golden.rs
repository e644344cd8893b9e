//! Golden bits of the quantized tiers.
//!
//! The contract tests compare a quantized slab with the fp32 slab of the
//! `Precision::apply`'d weights, so they stay green if both sides drift
//! together. These bits were recorded from slabs that stored f16 bits and
//! int8 codes and dequantized them on load; every later build must match.

use gpu_sim::DeviceModel;
use lstm::config::ModelConfig;
use lstm::network::LstmNetwork;
use lstm::plan::{ExecutionPlan, NullSink, PlanRuntime};
use rand::Rng;
use tensor::init::seeded_rng;
use tensor::{FusedGates, Matrix, Precision, Vector};

/// `to_bits()` of the plan logits at fp32, fp16 and int8, re-recorded
/// once when the activations took their libm-independent definition
/// (`tensor::activation`); [`SLAB`] is a product alone and did not move.
const LOGITS: [[u32; 3]; 3] = [
    [0xbd494a3b, 0xbe82e3dc, 0x3b83e360],
    [0xbd47b86f, 0xbe82d935, 0x3b88d840],
    [0xbd4bf74f, 0xbe82748c, 0x3b926b80],
];

/// `to_bits()` of [`slab_output`] at fp32, fp16 and int8.
const SLAB: [[u32; 15]; 3] = [
    [
        0xbf804484, 0xbf5451a2, 0x400d173f, 0x3f5007b7, 0x3f8d5707, 0xbd16e8a8, 0x3ff44fd5,
        0x00000000, 0x3f74e91e, 0x3f5bd736, 0xbf22831e, 0xbfa8c36c, 0x3fd48020, 0x4041ced4,
        0xbebe4d1e,
    ],
    [
        0xbf804c8e, 0xbf545a5f, 0x400d1216, 0x3f4ff7cb, 0x3f8d6286, 0xbd1875e0, 0x3ff4530d,
        0x00000000, 0x3f74f784, 0x3f5bd917, 0xbf228b86, 0xbfa8bc08, 0x3fd4849f, 0x4041d155,
        0xbebe5384,
    ],
    [
        0xbf7be43b, 0xbf52a540, 0x400d49d8, 0x3f51b736, 0x3f8b66ee, 0xbd297b10, 0x3ff598c0,
        0x00000000, 0x3f7824c2, 0x3f5b44e4, 0xbf2128e2, 0xbfa8e062, 0x3fd533a0, 0x404239a4,
        0xbebd9e50,
    ],
];

/// Baseline-plan logits of a small seeded two-layer LSTM at `precision`.
fn plan_logits(precision: Precision) -> Vec<f32> {
    let config = ModelConfig::new("t", 12, 24, 2, 8, 3).unwrap();
    let mut rng = seeded_rng(11);
    let net = LstmNetwork::random(&config, &mut rng);
    let xs = lstm::random_inputs(&config, &mut rng);
    let plan = ExecutionPlan::compile_baseline(&net, xs.len(), &DeviceModel::default_preset())
        .with_precision(precision);
    let out = PlanRuntime::new().run_lstm(&plan, &net, &xs, &mut NullSink);
    out.logits.as_slice().to_vec()
}

/// `gemv_into` of a three-gate slab with five rows (a partial panel,
/// and an odd panel count) and nine columns (two phase chunks and a
/// tail); gate 1's row 2 is all zero.
fn slab_output(precision: Precision) -> Vec<f32> {
    let mut rng = seeded_rng(29);
    let mut mats: Vec<Matrix> = (0..3)
        .map(|_| Matrix::from_fn(5, 9, |_, _| rng.gen_range(-2.0f32..=2.0)))
        .collect();
    mats[1].row_mut(2).fill(0.0);
    let x = Vector::from_fn(9, |_| rng.gen_range(-1.0f32..=1.0));
    let refs: Vec<&Matrix> = mats.iter().collect();
    let fused = FusedGates::pack(&refs, precision);
    let mut out = vec![0.0f32; fused.total_rows()];
    fused.gemv_into(x.as_slice(), &mut out);
    out
}

#[test]
fn quantized_numerics_match_recorded_bits() {
    let bits = |values: Vec<f32>| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    for (t, precision) in Precision::ALL.into_iter().enumerate() {
        let logits = bits(plan_logits(precision));
        assert_eq!(logits, LOGITS[t], "{precision} logits: {logits:#010x?}");
        let slab = bits(slab_output(precision));
        assert_eq!(slab, SLAB[t], "{precision} slab: {slab:#010x?}");
    }
}
