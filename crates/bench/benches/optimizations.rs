//! Criterion benchmarks of the optimization machinery itself: relevance
//! analysis (Algorithm 2), tissue scheduling, and one-shot compile + run
//! of each flow on a small model.

use criterion::{criterion_group, criterion_main, Criterion};
use gpu_sim::{DeviceModel, KernelDesc};
use lstm::{ExecutionPlan, LstmNetwork, ModelConfig, PlanRuntime};
use memlstm::breakpoints::find_breakpoints;
use memlstm::division::divide;
use memlstm::drs::{DrsConfig, DrsMode};
use memlstm::exec::{OptimizedExecutor, OptimizerConfig};
use memlstm::prediction::NetworkPredictors;
use memlstm::relevance::RelevanceAnalyzer;
use memlstm::tissue::{schedule_tissues, schedule_tissues_balanced};
use std::hint::black_box;
use tensor::init::seeded_rng;
use tensor::Precision;

fn setup() -> (LstmNetwork, Vec<tensor::Vector>, NetworkPredictors) {
    let config = ModelConfig::new("bench", 128, 128, 2, 32, 4).unwrap();
    let mut rng = seeded_rng(9);
    let net = LstmNetwork::random(&config, &mut rng);
    let xs = lstm::random_inputs(&config, &mut rng);
    let offline: Vec<Vec<tensor::Vector>> = (0..3)
        .map(|_| lstm::random_inputs(&config, &mut rng))
        .collect();
    let predictors = NetworkPredictors::collect(&net, &offline);
    (net, xs, predictors)
}

fn bench_relevance(c: &mut Criterion) {
    let (net, xs, _) = setup();
    let layer = &net.layers()[0];
    let analyzer = RelevanceAnalyzer::new(layer);
    let mut wx = Vec::new();
    layer.precompute_wx_batch_into(Precision::Fp32, &xs, &mut wx);
    c.bench_function("relevance/layer_32cells", |b| {
        b.iter(|| analyzer.layer_relevances(black_box(&wx)))
    });
}

fn bench_scheduling(c: &mut Criterion) {
    let breakpoints: Vec<usize> = (1..200).step_by(7).collect();
    let sublayers = divide(200, &breakpoints);
    let mut group = c.benchmark_group("tissue_scheduling");
    group.bench_function("paper_alignment", |b| {
        b.iter(|| schedule_tissues(black_box(&sublayers), 5))
    });
    group.bench_function("balanced", |b| {
        b.iter(|| schedule_tissues_balanced(black_box(&sublayers), 5))
    });
    group.finish();

    let relevances: Vec<f64> = (0..200)
        .map(|i| {
            if i == 0 {
                f64::INFINITY
            } else {
                (i % 13) as f64
            }
        })
        .collect();
    c.bench_function("breakpoint_search/200cells", |b| {
        b.iter(|| find_breakpoints(black_box(&relevances), 6.0))
    });
}

/// Runs `plan` once on a fresh runtime, collecting its kernel stream.
fn run_traced(plan: &ExecutionPlan, net: &LstmNetwork, xs: &[tensor::Vector]) -> Vec<KernelDesc> {
    let mut trace = Vec::new();
    PlanRuntime::new().run_lstm(plan, net, xs, &mut trace);
    trace
}

fn bench_executors(c: &mut Criterion) {
    let (net, xs, predictors) = setup();
    let probes = std::slice::from_ref(&xs);
    let mut group = c.benchmark_group("executors");
    group.sample_size(10);
    group.bench_function("baseline", |b| {
        let device = DeviceModel::default_preset();
        b.iter(|| {
            let plan = ExecutionPlan::compile_baseline(&net, xs.len(), &device);
            run_traced(&plan, &net, black_box(&xs))
        })
    });
    group.bench_function("inter_only", |b| {
        let exec = OptimizedExecutor::new(
            &net,
            &predictors,
            OptimizerConfig::builder()
                .alpha_inter(1.0)
                .max_tissue_size(5)
                .build(),
        );
        b.iter(|| run_traced(&exec.plan_probes(probes), &net, black_box(&xs)))
    });
    group.bench_function("intra_only", |b| {
        let config = OptimizerConfig::builder()
            .drs(DrsConfig {
                alpha_intra: 0.06,
                mode: DrsMode::Hardware,
            })
            .build();
        let exec = OptimizedExecutor::new(&net, &predictors, config);
        b.iter(|| run_traced(&exec.plan_probes(probes), &net, black_box(&xs)))
    });
    group.bench_function("combined", |b| {
        let config = OptimizerConfig::builder()
            .alpha_inter(1.0)
            .max_tissue_size(5)
            .drs(DrsConfig {
                alpha_intra: 0.06,
                mode: DrsMode::Hardware,
            })
            .build();
        let exec = OptimizedExecutor::new(&net, &predictors, config);
        b.iter(|| run_traced(&exec.plan_probes(probes), &net, black_box(&xs)))
    });
    group.finish();
}

fn bench_simulator(c: &mut Criterion) {
    let (net, xs, _) = setup();
    let plan = ExecutionPlan::compile_baseline(&net, xs.len(), &DeviceModel::default_preset());
    let trace = run_traced(&plan, &net, &xs);
    c.bench_function("gpu_sim/replay_baseline_trace", |b| {
        b.iter(|| {
            let mut device = gpu_sim::GpuDevice::new(gpu_sim::GpuConfig::tegra_x1());
            device.run_trace(black_box(&trace))
        })
    });
}

criterion_group!(
    benches,
    bench_relevance,
    bench_scheduling,
    bench_executors,
    bench_simulator
);
criterion_main!(benches);
