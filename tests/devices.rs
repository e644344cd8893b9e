//! Device-model integration tests: the preset registry, the invariant
//! that numerics are device-independent — plans compiled for different
//! presets produce bit-identical logits while their pricing moves — and
//! the typed [`Error::DeviceMismatch`] from `ServeEngine::new`.

use gpu_sim::{DeviceModel, KernelDesc, PRESET_NAMES};
use lstm::{ExecutionPlan, PlanRuntime};
use memlstm::drs::{DrsConfig, DrsMode};
use memlstm::exec::{profile_plan, OptimizedExecutor, OptimizerConfig};
use memlstm::prediction::NetworkPredictors;
use memlstm::{Error, Request, ServeConfig, ServeEngine};
use workloads::{Benchmark, Workload};

fn workload() -> Workload {
    Workload::generate(Benchmark::Mr, 4, 0x5EED)
}

/// Every preset name resolves to a model carrying that name, in registry
/// order; unknown names resolve to nothing; the default preset is the
/// paper's platform.
#[test]
fn preset_registry_round_trips() {
    let presets = DeviceModel::presets();
    assert_eq!(presets.len(), PRESET_NAMES.len());
    for (name, preset) in PRESET_NAMES.iter().zip(&presets) {
        assert_eq!(&preset.name, name);
        assert_eq!(DeviceModel::preset(name).as_ref(), Some(preset));
    }
    assert!(DeviceModel::preset("snapdragon_9000").is_none());
    assert_eq!(DeviceModel::default_preset(), DeviceModel::tegra_x1());
}

/// A baseline plan compiled per preset produces bit-identical logits on
/// every device — numerics never depend on the pricing model — while the
/// priced time differs between at least two presets.
#[test]
fn baseline_logits_bit_identical_across_presets_while_pricing_moves() {
    let workload = workload();
    let net = workload.network();
    let xs = &workload.eval_set()[0];
    let mut logits_bits: Vec<Vec<u32>> = Vec::new();
    let mut time_bits: Vec<u64> = Vec::new();
    for device in DeviceModel::presets() {
        let plan = ExecutionPlan::compile_baseline(net, xs.len(), &device);
        let mut sink: Vec<KernelDesc> = Vec::new();
        let out = PlanRuntime::new().run_lstm(&plan, net, xs, &mut sink);
        logits_bits.push(out.logits.iter().map(|x| x.to_bits()).collect());
        let (report, _) = profile_plan(&plan, net, xs).expect("valid inputs");
        time_bits.push(report.time_s.to_bits());
    }
    for (i, bits) in logits_bits.iter().enumerate().skip(1) {
        assert_eq!(
            bits, &logits_bits[0],
            "{} logits drifted from {}",
            PRESET_NAMES[i], PRESET_NAMES[0]
        );
    }
    assert!(
        time_bits.iter().any(|&t| t != time_bits[0]),
        "pricing did not move across presets"
    );
}

/// The same invariant through the full optimization pipeline: with a
/// fixed `OptimizerConfig` (device-independent thresholds), the combined
/// inter+intra plan is numerically identical on every preset — the
/// device shapes *pricing* and *threshold selection*, never execution.
#[test]
fn optimized_logits_bit_identical_across_presets() {
    let workload = workload();
    let net = workload.network();
    let predictors = NetworkPredictors::collect(net, workload.dataset().offline());
    let config = OptimizerConfig::builder()
        .alpha_inter(0.7)
        .max_tissue_size(4)
        .drs(DrsConfig {
            alpha_intra: 0.05,
            mode: DrsMode::Hardware,
        })
        .build();
    let xs = &workload.eval_set()[0];
    let mut logits_bits: Vec<Vec<u32>> = Vec::new();
    for device in DeviceModel::presets() {
        let exec = OptimizedExecutor::new(net, &predictors, config).on_device(device.clone());
        let plan = exec.plan_probes(&workload.eval_set()[..1]);
        assert_eq!(plan.device, device, "plan must record its device");
        let mut sink: Vec<KernelDesc> = Vec::new();
        let out = PlanRuntime::new().run_lstm(&plan, net, xs, &mut sink);
        logits_bits.push(out.logits.iter().map(|x| x.to_bits()).collect());
    }
    for (i, bits) in logits_bits.iter().enumerate().skip(1) {
        assert_eq!(
            bits, &logits_bits[0],
            "{} optimized logits drifted from {}",
            PRESET_NAMES[i], PRESET_NAMES[0]
        );
    }
}

/// `profile_plan` prices on the device the plan records, so the only
/// inputs it refuses are ones the plan cannot run — typed errors, not
/// panics inside the runtime.
#[test]
fn profile_plan_rejects_bad_inputs() {
    let workload = workload();
    let net = workload.network();
    let xs = &workload.eval_set()[0];
    let plan = ExecutionPlan::compile_baseline(net, xs.len(), &DeviceModel::tegra_x1());
    let short = profile_plan(&plan, net, &xs[1..]).err();
    let expected = xs.len();
    let actual = expected - 1;
    assert_eq!(short, Some(Error::SeqLenMismatch { expected, actual }));
    assert_eq!(profile_plan(&plan, net, &[]).err(), Some(Error::EmptyInput));
    profile_plan(&plan, net, xs).expect("valid inputs");
}

/// The serving engine refuses a config whose device is not the plan's —
/// a round is one lockstep kernel stream, so every gang member prices on
/// the compilation device.
#[test]
fn serve_engine_rejects_foreign_device() {
    let workload = workload();
    let net = workload.network();
    let seq_len = workload.eval_set()[0].len();
    let plan = ExecutionPlan::compile_baseline(net, seq_len, &DeviceModel::tegra_x1());

    let foreign = ServeConfig::builder(DeviceModel::adreno_5xx())
        .build()
        .unwrap();
    match ServeEngine::new(&plan, net, foreign) {
        Err(Error::DeviceMismatch { plan, device }) => {
            assert_eq!(plan, "tegra_x1");
            assert_eq!(device, "adreno_5xx");
        }
        other => panic!("expected DeviceMismatch, got {:?}", other.map(|_| ())),
    }

    let matching = ServeConfig::builder(DeviceModel::tegra_x1())
        .build()
        .unwrap();
    let mut engine = ServeEngine::new(&plan, net, matching).expect("matching device");
    engine
        .submit(Request {
            id: 1,
            xs: workload.eval_set()[0].clone(),
            arrival_s: 0.0,
            deadline_s: None,
        })
        .expect("submit");
    let completions = engine.drain();
    assert_eq!(completions.len(), 1);
}
