//! Measures what the plan/execution split buys: compiling one
//! `ExecutionPlan` and streaming N sequences through it versus re-running
//! the offline analysis (relevance, breakpoint search, tissue alignment,
//! template construction) before every sequence.
//!
//! Runs a width/length-scaled PTB configuration (Table II's deepest
//! language model) with both optimization levels on. In measurement mode
//! (`cargo bench`) the result is also written to `BENCH_plan_reuse.json`
//! at the repository root.

use criterion::{criterion_group, criterion_main, Criterion};
use lstm::plan::NullSink;
use lstm::{LstmNetwork, ModelConfig, PlanRuntime};
use memlstm::drs::{DrsConfig, DrsMode};
use memlstm::exec::{OptimizedExecutor, OptimizerConfig};
use memlstm::prediction::NetworkPredictors;
use std::hint::black_box;
use tensor::Vector;
use workloads::{Benchmark, Workload};

const EVAL_SEQS: usize = 6;

struct Setup {
    workload: Workload,
    predictors: NetworkPredictors,
    config: OptimizerConfig,
}

fn setup() -> Setup {
    // PTB's layer count and task head at a CPU-friendly width and length.
    let cfg = ModelConfig::new("PTB", 96, 96, 3, 24, 20).unwrap();
    let workload = Workload::generate_scaled(Benchmark::Ptb, &cfg, EVAL_SEQS, 40);
    let predictors = NetworkPredictors::collect(workload.network(), workload.dataset().offline());
    let config = OptimizerConfig::builder()
        .alpha_inter(1.0)
        .max_tissue_size(4)
        .drs(DrsConfig {
            alpha_intra: 0.06,
            mode: DrsMode::Hardware,
        })
        .build();
    Setup {
        workload,
        predictors,
        config,
    }
}

fn run_rebuild_per_run(
    exec: &OptimizedExecutor,
    net: &LstmNetwork,
    probe: &[Vec<Vector>],
    eval: &[Vec<Vector>],
) {
    let mut runtime = PlanRuntime::new();
    for xs in eval {
        let plan = exec.plan_probes(probe);
        black_box(runtime.run_lstm(&plan, net, xs, &mut NullSink));
    }
}

fn run_plan_reuse(
    exec: &OptimizedExecutor,
    net: &LstmNetwork,
    probe: &[Vec<Vector>],
    eval: &[Vec<Vector>],
) {
    let mut runtime = PlanRuntime::new();
    let plan = exec.plan_probes(probe);
    for xs in eval {
        black_box(runtime.run_lstm(&plan, net, xs, &mut NullSink));
    }
}

fn bench_plan_reuse(c: &mut Criterion) {
    let s = setup();
    let net = s.workload.network();
    let exec = OptimizedExecutor::new(net, &s.predictors, s.config);
    let probe = &s.workload.dataset().offline()[..1];
    let eval = &s.workload.eval_set()[..EVAL_SEQS.min(s.workload.eval_set().len())];

    let mut group = c.benchmark_group("plan_reuse");
    group.sample_size(10);
    group.bench_function("rebuild_per_run", |b| {
        b.iter(|| run_rebuild_per_run(&exec, net, probe, eval))
    });
    group.bench_function("reuse", |b| {
        b.iter(|| run_plan_reuse(&exec, net, probe, eval))
    });
    group.finish();

    if c.is_measuring() {
        emit_json(&exec, net, probe, eval);
    }
}

/// Times both flows directly (median of `REPS`) and writes the comparison
/// to `BENCH_plan_reuse.json` for the experiment harness to pick up.
fn emit_json(
    exec: &OptimizedExecutor,
    net: &LstmNetwork,
    probe: &[Vec<Vector>],
    eval: &[Vec<Vector>],
) {
    const REPS: usize = 7;
    let median_s = |f: &dyn Fn()| -> f64 {
        let mut times: Vec<f64> = (0..REPS)
            .map(|_| {
                let start = std::time::Instant::now();
                f();
                start.elapsed().as_secs_f64()
            })
            .collect();
        times.sort_by(f64::total_cmp);
        times[REPS / 2]
    };
    let rebuild_s = median_s(&|| run_rebuild_per_run(exec, net, probe, eval));
    let reuse_s = median_s(&|| run_plan_reuse(exec, net, probe, eval));
    let json = format!(
        "{{\n  \"benchmark\": \"plan_reuse\",\n  \"model\": \"ptb_scaled_h96_s24\",\n  \
         \"eval_seqs\": {},\n  \"rebuild_per_run_s\": {:.6},\n  \"plan_reuse_s\": {:.6},\n  \
         \"speedup\": {:.3}\n}}\n",
        eval.len(),
        rebuild_s,
        reuse_s,
        rebuild_s / reuse_s,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_plan_reuse.json");
    std::fs::write(path, json).expect("write BENCH_plan_reuse.json");
    eprintln!("wrote {path}");
}

criterion_group!(benches, bench_plan_reuse);
criterion_main!(benches);
