//! Golden fingerprints of the kernel stream.
//!
//! The plan/runtime tests compare streamed pricing with collected
//! pricing, so they stay green if both sides move together. These hashes
//! pin what a sink actually receives: every field of every emitted
//! [`KernelDesc`] (labels, regions, byte counts, `f64` fields by bits),
//! the [`SpanTag`] in force at each emit, and the layer/tail markers,
//! plus the run's numerics (logits, hidden outputs, skip statistics).
//! They were recorded before the per-cell flows were lowered to one-cell
//! tissues; every later build must match. The output hashes alone were
//! re-recorded once, when the activations took their libm-independent
//! definition (`tensor::activation`); no stream hash or kernel count
//! moved.

use gpu_sim::{DeviceModel, KernelDesc, SpanTag};
use lstm::gru_exec::GruNetwork;
use lstm::plan::{ExecutionPlan, KernelSink, NullSink, PlanOutput, PlanRuntime};
use lstm::{LstmNetwork, ModelConfig};
use memlstm::drs::{DrsConfig, DrsMode};
use memlstm::exec::{OptimizedExecutor, OptimizerConfig};
use memlstm::{compile_gru_drs, NetworkPredictors, RelevanceAnalyzer, ZeroPruning};
use rand::Rng;
use tensor::init::seeded_rng;
use tensor::{Precision, Vector};

/// 64-bit FNV-1a: stable across toolchains, unlike `DefaultHasher`.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    fn opt(&mut self, v: Option<u32>) {
        self.u64(v.map_or(u64::MAX, u64::from));
    }
}

/// Hashes the stream a sink sees, in order.
struct StreamHash {
    hash: Fnv,
    tag: SpanTag,
    kernels: usize,
}

impl KernelSink for StreamHash {
    fn begin_layer(&mut self, layer: usize) {
        self.hash.str("begin_layer");
        self.hash.u64(layer as u64);
    }

    fn begin_tail(&mut self) {
        self.hash.str("begin_tail");
    }

    fn tag(&mut self, tag: SpanTag) {
        self.tag = tag;
    }

    fn emit(&mut self, k: &KernelDesc) {
        let h = &mut self.hash;
        let t = self.tag;
        h.str(t.phase.name());
        for v in [t.layer, t.tissue, t.sublayer, t.step, t.batch] {
            h.opt(v);
        }
        h.str(t.device.unwrap_or("-"));
        h.str(&k.label);
        h.str(k.kind.label());
        h.u64(k.flops);
        for accesses in [&k.reads, &k.writes] {
            h.u64(accesses.len() as u64);
            for a in accesses {
                h.u64(a.region.raw());
                h.u64(a.bytes);
            }
        }
        h.u64(k.smem_bytes);
        h.u64(u64::from(k.threads));
        h.u64(u64::from(k.cta_size));
        h.u64(k.divergence.to_bits());
        h.u64(u64::from(k.skipped_threads));
        h.u64(u64::from(k.uses_crm));
        h.u64(k.dram_derate.to_bits());
        h.u64(u64::from(k.fused));
        self.kernels += 1;
    }
}

/// Hashes a run's numerics: logits, every hidden output, skip statistics.
fn output_hash(outs: &[PlanOutput]) -> u64 {
    let mut h = Fnv::new();
    for out in outs {
        for v in out.logits.iter() {
            h.u64(u64::from(v.to_bits()));
        }
        for hs in &out.layer_hs {
            for v in hs.iter().flat_map(|h| h.iter()) {
                h.u64(u64::from(v.to_bits()));
            }
        }
        for s in &out.layer_skips {
            h.u64(s.sum.to_bits());
            h.u64(s.count as u64);
        }
    }
    h.0
}

/// `(stream hash, output hash, kernel count)` of one run.
type Fingerprint = (u64, u64, usize);

fn sink() -> StreamHash {
    StreamHash {
        hash: Fnv::new(),
        tag: SpanTag::default(),
        kernels: 0,
    }
}

fn lstm_fingerprint(plan: &ExecutionPlan, net: &LstmNetwork, seqs: &[Vec<Vector>]) -> Fingerprint {
    let mut s = sink();
    let outs = PlanRuntime::new().run_lstm_batch(plan, net, seqs, &mut s);
    (s.hash.0, output_hash(&outs), s.kernels)
}

/// Every LSTM plan kind at `precision`, each run solo and as a 3-lane
/// batch, then both GRU plans run solo.
fn fingerprints(precision: Precision) -> Vec<(String, Fingerprint)> {
    let config = ModelConfig::new("golden", 10, 20, 2, 9, 3).unwrap();
    let mut rng = seeded_rng(2024);
    let net = LstmNetwork::random(&config, &mut rng);
    let offline: Vec<Vec<Vector>> = (0..4)
        .map(|_| lstm::random_inputs(&config, &mut rng))
        .collect();
    let seqs: Vec<Vec<Vector>> = (0..3)
        .map(|_| lstm::random_inputs(&config, &mut rng))
        .collect();
    let predictors = NetworkPredictors::collect(&net, &offline);
    let device = DeviceModel::default_preset();
    let drs = DrsConfig {
        alpha_intra: 0.1,
        mode: DrsMode::Hardware,
    };
    let inter = OptimizerConfig::builder()
        .alpha_inter(RelevanceAnalyzer::max_relevance() / 6.0)
        .max_tissue_size(3)
        .precision(precision);
    let compile = |cfg: OptimizerConfig| {
        OptimizedExecutor::new(&net, &predictors, cfg)
            .on_device(device.clone())
            .plan_probes(&offline)
    };
    let zp = ZeroPruning::calibrate(&net, 0.37).unwrap();
    let pruned = zp.prune_network(&net);
    let lstm_plans: Vec<(&str, ExecutionPlan, &LstmNetwork)> = vec![
        (
            "baseline",
            ExecutionPlan::compile_baseline(&net, config.seq_len, &device)
                .with_precision(precision),
            &net,
        ),
        (
            "intra",
            compile(
                OptimizerConfig::builder()
                    .drs(drs)
                    .precision(precision)
                    .build(),
            ),
            &net,
        ),
        ("inter", compile(inter.build()), &net),
        ("combined", compile(inter.drs(drs).build()), &net),
        (
            "zero-pruned",
            zp.compile(&net, config.seq_len, &device)
                .unwrap()
                .with_precision(precision),
            &pruned,
        ),
    ];
    let mut out = Vec::new();
    for (name, plan, run_net) in &lstm_plans {
        if *name == "inter" || *name == "combined" {
            assert!(
                plan.layer_stats().iter().any(|s| s.breakpoints > 0),
                "{name}: the golden plan must break links"
            );
        }
        if *name == "intra" || *name == "combined" {
            let run = PlanRuntime::new().run_lstm(plan, run_net, &seqs[0], &mut NullSink);
            assert!(
                run.mean_skip_fraction() > 0.0,
                "{name}: the golden plan must skip rows"
            );
        }
        out.push((
            format!("{name} solo"),
            lstm_fingerprint(plan, run_net, &seqs[..1]),
        ));
        out.push((format!("{name} x3"), lstm_fingerprint(plan, run_net, &seqs)));
    }

    let gru = GruNetwork::random(10, 20, 2, 3, &mut rng);
    let xs: Vec<Vector> = (0..9)
        .map(|_| Vector::from_fn(10, |_| rng.gen_range(-1.0f32..1.0)))
        .collect();
    let gru_plans = [
        (
            "gru baseline",
            ExecutionPlan::compile_gru_baseline(&gru, xs.len(), &device),
        ),
        (
            "gru drs",
            compile_gru_drs(&gru, drs, xs.len(), &device).unwrap(),
        ),
    ];
    for (name, plan) in gru_plans {
        let plan = plan.with_precision(precision);
        let mut s = sink();
        let run = PlanRuntime::new().run_gru(&plan, &gru, &xs, &mut s);
        out.push((name.to_owned(), (s.hash.0, output_hash(&[run]), s.kernels)));
    }
    out
}

/// Recorded `(stream hash, output hash, kernel count)` per plan, fp32.
const FP32: [(&str, Fingerprint); 12] = [
    (
        "baseline solo",
        (0xce143145da4908c6, 0x5c1ab8a72f681ac6, 39),
    ),
    ("baseline x3", (0xbaf7613f8ce5cc4e, 0xa52be50f953eab9b, 39)),
    ("intra solo", (0xed063d90504ee29b, 0x1fcc29e438eec1c5, 93)),
    ("intra x3", (0x7739bda6436ac93a, 0x4c2afade270a6c7f, 93)),
    ("inter solo", (0x48e1fc64ba2a544f, 0x25dd23bbcaf09a18, 19)),
    ("inter x3", (0xddec6c38324929a2, 0x553fc2179393e92e, 19)),
    (
        "combined solo",
        (0xfdd2efcc7bd7aa9e, 0xdd41965b18e7e911, 37),
    ),
    ("combined x3", (0xe53c49f52b945d85, 0xa3f168b93189e344, 37)),
    (
        "zero-pruned solo",
        (0x37054fa32f67928e, 0xed72c6e1ed145eb5, 39),
    ),
    (
        "zero-pruned x3",
        (0xfe706acacd6a7a82, 0x5d49ee64ebf72581, 39),
    ),
    ("gru baseline", (0x398c1909056b5261, 0xdf758ee33da1e7fa, 39)),
    ("gru drs", (0xcab4937f10d90ddc, 0xc1149cdb8d6d1a35, 75)),
];

/// As [`FP32`], int8.
const INT8: [(&str, Fingerprint); 12] = [
    (
        "baseline solo",
        (0xf072085288f36386, 0x847ae8b042d656dd, 39),
    ),
    ("baseline x3", (0x0c37f7cc8764bc16, 0xf6a99d18704ae059, 39)),
    ("intra solo", (0x4ed7223de03ca5da, 0xa46c71fdacfc9c1d, 93)),
    ("intra x3", (0x6d0f011bfa42c8d0, 0xd974a6161ea47b76, 93)),
    ("inter solo", (0xf791c8772b0243df, 0x1369b89bcbebdd89, 19)),
    ("inter x3", (0x41c2b149f1d23ce4, 0xae902d9a61bb3132, 19)),
    (
        "combined solo",
        (0x621ad4d51dd116e5, 0xa1f17c877fc64f5e, 37),
    ),
    ("combined x3", (0x065e81d88a2baa4f, 0xadf9b8d6a989a2f2, 37)),
    (
        "zero-pruned solo",
        (0x90628f5fbc30a3ea, 0x8ccc52d39f0a8516, 39),
    ),
    (
        "zero-pruned x3",
        (0xe4275011dccf5c72, 0xd59bc654cc1793a6, 39),
    ),
    ("gru baseline", (0x980ed5c09b31149e, 0x6b2315c64cb355ce, 39)),
    ("gru drs", (0x1f3e92c6c8b10665, 0xaa045e3b0b32d359, 75)),
];

#[test]
fn kernel_streams_match_recorded_fingerprints() {
    for (precision, golden) in [(Precision::Fp32, &FP32), (Precision::Int8, &INT8)] {
        let got = fingerprints(precision);
        let expected: Vec<(String, Fingerprint)> = golden
            .iter()
            .map(|(name, f)| ((*name).to_owned(), *f))
            .collect();
        assert_eq!(
            got,
            expected,
            "{precision} fingerprints:\n{}",
            got.iter()
                .map(|(n, (s, o, k))| format!("    (\"{n}\", ({s:#018x}, {o:#018x}, {k})),"))
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
