//! Quickstart: run one benchmark through the baseline and the combined
//! memory-friendly optimizations on the simulated Tegra X1, and print the
//! headline numbers.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use memlstm::prelude::*;

fn main() {
    // 1. Build a Table II workload: the MR sentiment model with
    //    trained-like weights and synthetic token sequences.
    let workload = Workload::generate(Benchmark::Mr, 8, 42);
    let net = workload.network();
    println!("model: {}", net.config());

    // 2. Offline phase: the maximum tissue size for this GPU (Fig. 9/10)
    //    and the predicted context link (Eq. 6).
    let device = DeviceModel::tegra_x1();
    let mts = determine_mts(&device, net.config().hidden_size, 10).mts;
    let predictors = NetworkPredictors::collect(net, workload.dataset().offline());
    println!("offline: MTS = {mts} on {}", device.config.name);

    // 3. Compile one sequence with the baseline (Algorithm 1) and with
    //    both optimization levels, then execute each plan, pricing its
    //    kernels on the simulated GPU as the runtime launches them.
    let xs = &workload.eval_set()[0];
    let mut gpu = GpuDevice::for_model(&device);
    let mut runtime = PlanRuntime::new();

    let baseline = ExecutionPlan::compile_baseline(net, xs.len(), &device);
    let mut session = gpu.begin_trace();
    let base_out = runtime.run_lstm(&baseline, net, xs, &mut session);
    let base = session.finish();

    let config = OptimizerConfig::builder()
        .alpha_inter(1.0)
        .max_tissue_size(
            // relevance threshold (per-unit)
            mts,
        )
        .drs(DrsConfig {
            alpha_intra: 0.05,
            mode: DrsMode::Hardware,
        })
        .build();
    // A one-shot run: the input itself is the plan's only probe.
    let optimized =
        OptimizedExecutor::new(net, &predictors, config).plan_probes(std::slice::from_ref(xs));
    gpu.reset();
    let mut session = gpu.begin_trace();
    let opt_out = runtime.run_lstm(&optimized, net, xs, &mut session);
    let opt = session.finish();

    println!(
        "baseline : {:7.3} ms, {:6.1} mJ, {:6.1} MiB DRAM traffic",
        base.time_s * 1e3,
        base.energy.total_j() * 1e3,
        base.dram_bytes() as f64 / (1024.0 * 1024.0),
    );
    println!(
        "optimized: {:7.3} ms, {:6.1} mJ, {:6.1} MiB DRAM traffic",
        opt.time_s * 1e3,
        opt.energy.total_j() * 1e3,
        opt.dram_bytes() as f64 / (1024.0 * 1024.0),
    );
    println!(
        "speedup {:.2}x, energy saving {:.1}%",
        base.time_s / opt.time_s,
        (1.0 - opt.energy.total_j() / base.energy.total_j()) * 100.0
    );

    // 4. The approximations are real arithmetic: compare predictions.
    let base_class = base_out.logits.argmax().expect("head has classes");
    let opt_class = opt_out.logits.argmax().expect("head has classes");
    println!(
        "prediction: baseline class {base_class}, optimized class {opt_class} ({})",
        if base_class == opt_class {
            "match"
        } else {
            "differ"
        }
    );
}
