//! Integration checks of the paper's qualitative claims, each tied to the
//! section/figure it reproduces.

use gpu_sim::{DeviceModel, GpuConfig, GpuDevice, KernelDesc, KernelKind};
use lstm::{ExecutionPlan, LstmNetwork, PlanRuntime};
use memlstm::drs::{DrsConfig, DrsMode};
use memlstm::exec::{OptimizedExecutor, OptimizerConfig};
use memlstm::mts::determine_mts;
use memlstm::prediction::NetworkPredictors;
use memlstm::pruning::ZeroPruning;
use tensor::Vector;
use workloads::{Benchmark, Workload};

fn mr_workload() -> Workload {
    Workload::generate(Benchmark::Mr, 2, 0xC1A1)
}

/// Runs `plan` on `xs`, returning the last layer's hidden states and the
/// kernel stream.
fn run_traced(
    plan: &ExecutionPlan,
    net: &LstmNetwork,
    xs: &[Vector],
) -> (Vec<Vector>, Vec<KernelDesc>) {
    let mut trace = Vec::new();
    let mut out = PlanRuntime::new().run_lstm(plan, net, xs, &mut trace);
    (out.layer_hs.pop().expect("layers"), trace)
}

/// The baseline (Algorithm 1) plan for `xs` and its kernel stream.
fn baseline(net: &LstmNetwork, xs: &[Vector]) -> (ExecutionPlan, Vec<KernelDesc>) {
    let plan = ExecutionPlan::compile_baseline(net, xs.len(), &DeviceModel::default_preset());
    let (_, trace) = run_traced(&plan, net, xs);
    (plan, trace)
}

#[test]
fn sec3_sgemv_dominates_execution_time() {
    // Paper Sec. III: "kernel Sgemv dominates the overall LSTM execution
    // time (over 90%)".
    let workload = mr_workload();
    let (_, trace) = baseline(workload.network(), &workload.eval_set()[0]);
    let mut device = GpuDevice::new(GpuConfig::tegra_x1());
    let report = device.run_trace(&trace);
    let share = report.time_share_of(KernelKind::Sgemv);
    // MR is the smallest benchmark (22 cells, one layer), the weakest case
    // for the claim; the larger Table II rows push well past 90%.
    assert!(share > 0.80, "Sgemv share {share}");
}

#[test]
fn sec3_offchip_saturated_onchip_light() {
    // Paper Fig. 6.
    let workload = mr_workload();
    let (_, trace) = baseline(workload.network(), &workload.eval_set()[0]);
    let mut device = GpuDevice::new(GpuConfig::tegra_x1());
    let report = device.run_trace(&trace);
    assert!(report.dram_utilization_of(KernelKind::Sgemv) > 0.6);
    assert!(report.smem_utilization_of(KernelKind::Sgemv) < 0.4);
}

#[test]
fn sec3_weight_matrix_reloads_scale_with_layer_length() {
    // Paper Sec. III-A: every additional cell re-loads the united matrix.
    let workload = mr_workload();
    let net = workload.network();
    let (plan, trace) = baseline(net, &workload.eval_set()[0]);
    let mut device = GpuDevice::new(GpuConfig::tegra_x1());
    let cfg = net.config();
    plan.regions.declare_on(
        &mut device,
        |_| cfg.united_u_bytes(),
        |l| cfg.united_w_bytes(l),
    );
    let _ = device.run_trace(&trace);
    let seq_len = net.config().seq_len as f64;
    let reload = device.max_reload_factor();
    assert!(
        (reload - seq_len).abs() <= 2.0,
        "reload factor {reload} should approximate the layer length {seq_len}"
    );
}

#[test]
fn fig9_mts_is_paper_range_on_tegra() {
    for hidden in [256, 512, 650] {
        let mts = determine_mts(&DeviceModel::tegra_x1(), hidden, 10).mts;
        assert!((4..=7).contains(&mts), "hidden {hidden}: MTS {mts}");
    }
}

#[test]
fn fig14_combined_beats_baseline_with_small_loss() {
    let workload = mr_workload();
    let net = workload.network();
    let predictors = NetworkPredictors::collect(net, workload.dataset().offline());
    let config = OptimizerConfig::builder()
        .alpha_inter(1.0)
        .max_tissue_size(5)
        .drs(DrsConfig {
            alpha_intra: 0.05,
            mode: DrsMode::Hardware,
        })
        .build();
    let exec = OptimizedExecutor::new(net, &predictors, config);
    let mut device = GpuDevice::new(GpuConfig::tegra_x1());
    let mut speedups = Vec::new();
    let mut matches = 0usize;
    let mut total = 0usize;
    for (xs, teacher) in workload.eval_set().iter().zip(workload.teacher_labels()) {
        let (_, base_trace) = baseline(net, xs);
        device.reset();
        let base = device.run_trace(&base_trace);
        let (opt_hs, opt_trace) = run_traced(&exec.plan_probes(std::slice::from_ref(xs)), net, xs);
        device.reset();
        let opt = device.run_trace(&opt_trace);
        speedups.push(base.time_s / opt.time_s);
        let preds = net.step_predictions(&opt_hs);
        total += preds.len();
        matches += preds.iter().zip(teacher).filter(|(a, b)| a == b).count();
    }
    let mean_speedup = speedups.iter().sum::<f64>() / speedups.len() as f64;
    let accuracy = matches as f64 / total as f64;
    assert!(mean_speedup > 1.3, "combined speedup {mean_speedup}");
    assert!(accuracy > 0.95, "accuracy {accuracy}");
}

#[test]
fn fig16_scheme_ordering_holds() {
    // Paper Fig. 16: hardware DRS > software DRS > baseline > zero-pruning
    // in performance.
    let workload = mr_workload();
    let net = workload.network();
    let predictors = NetworkPredictors::collect(net, workload.dataset().offline());
    let xs = &workload.eval_set()[0];
    let mut device = GpuDevice::new(GpuConfig::tegra_x1());
    let base = device.run_trace(&baseline(net, xs).1);

    let mut time_of = |mode: DrsMode| {
        let config = OptimizerConfig::builder()
            .drs(DrsConfig {
                alpha_intra: 0.06,
                mode,
            })
            .build();
        let plan =
            OptimizedExecutor::new(net, &predictors, config).plan_probes(std::slice::from_ref(xs));
        device.reset();
        device.run_trace(&run_traced(&plan, net, xs).1).time_s
    };
    let hw = time_of(DrsMode::Hardware);
    let sw = time_of(DrsMode::Software);

    let zp = ZeroPruning::calibrate(net, 0.37).unwrap();
    let zp_plan = zp
        .compile(net, xs.len(), &DeviceModel::default_preset())
        .unwrap();
    let (_, zp_trace) = run_traced(&zp_plan, &zp.prune_network(net), xs);
    device.reset();
    let zp_time = device.run_trace(&zp_trace).time_s;

    assert!(hw < sw, "hardware DRS ({hw}) must beat software DRS ({sw})");
    // Software DRS hovers around the baseline (the paper measures 1.07x on
    // average; on the smallest benchmark it can dip slightly below 1).
    assert!(
        sw < base.time_s * 1.1,
        "software DRS far slower than baseline"
    );
    assert!(
        zp_time > base.time_s,
        "zero-pruning must be slower than the baseline"
    );
}

#[test]
fn overheads_stay_in_the_few_percent_band() {
    // Paper Sec. VI-F.
    let workload = mr_workload();
    let net = workload.network();
    let predictors = NetworkPredictors::collect(net, workload.dataset().offline());
    let config = OptimizerConfig::builder()
        .alpha_inter(1.0)
        .max_tissue_size(5)
        .drs(DrsConfig {
            alpha_intra: 0.05,
            mode: DrsMode::Hardware,
        })
        .build();
    let xs = &workload.eval_set()[0];
    let plan =
        OptimizedExecutor::new(net, &predictors, config).plan_probes(std::slice::from_ref(xs));
    let (_, trace) = run_traced(&plan, net, xs);
    let gpu = DeviceModel::tegra_x1();
    let inter = memlstm::overhead::inter_overhead(&trace, &gpu);
    let intra = memlstm::overhead::intra_overhead(&trace, &gpu);
    let crm = memlstm::overhead::crm_overhead(&trace, &gpu);
    assert!(inter.perf_frac < 0.10, "inter overhead {:?}", inter);
    assert!(intra.perf_frac < 0.15, "intra overhead {:?}", intra);
    assert!(
        crm.perf_frac < 0.05 && crm.energy_frac < 0.01,
        "crm overhead {:?}",
        crm
    );
}
