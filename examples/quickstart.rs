//! Quickstart: run one benchmark through the baseline and the combined
//! memory-friendly optimizations on the simulated Tegra X1, and print the
//! headline numbers.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use memlstm::prelude::*;

fn main() -> MemlstmResult<()> {
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

    // 3. Execute one sequence with the baseline (Algorithm 1) and with
    //    both optimization levels, pricing each on the simulated GPU.
    let xs = &workload.eval_set()[0];
    let mut gpu = GpuDevice::for_model(&device);

    let baseline = BaselineExecutor::new(net).run(xs);
    let base = gpu.run_trace(baseline.trace());

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
    let optimized = OptimizedExecutor::new(net, &predictors, config).run(xs)?;
    gpu.reset();
    let opt = gpu.run_trace(optimized.trace());

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
    let same = baseline.predicted_class() == optimized.predicted_class();
    println!(
        "prediction: baseline class {}, optimized class {} ({})",
        baseline.predicted_class(),
        optimized.predicted_class(),
        if same { "match" } else { "differ" }
    );
    Ok(())
}
