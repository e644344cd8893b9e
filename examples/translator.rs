//! A streaming translation pipeline (the paper's MT workload): sentences
//! arrive one after another, and the runtime compares the baseline, the
//! inter-cell level, the intra-cell level, and the combined system on
//! latency, energy and output agreement — the Fig. 14 story for one app.
//!
//! ```text
//! cargo run --release --example translator
//! ```

use memlstm::prelude::*;

fn main() {
    let workload = Workload::generate(Benchmark::Mt, 6, 11);
    let net = workload.network();
    println!("translator model: {}\n", net.config());

    let device_model = DeviceModel::tegra_x1();
    let mts = determine_mts(&device_model, net.config().hidden_size, 10).mts;
    let predictors = NetworkPredictors::collect(net, workload.dataset().offline());

    let alpha_inter = 0.8;
    let alpha_intra = 0.06;
    let drs = DrsConfig {
        alpha_intra,
        mode: DrsMode::Hardware,
    };
    let schemes: Vec<(&str, Option<OptimizerConfig>)> = vec![
        ("baseline", None),
        (
            "inter-cell",
            Some(
                OptimizerConfig::builder()
                    .alpha_inter(alpha_inter)
                    .max_tissue_size(mts)
                    .build(),
            ),
        ),
        (
            "intra-cell",
            Some(OptimizerConfig::builder().drs(drs).build()),
        ),
        (
            "combined",
            Some(
                OptimizerConfig::builder()
                    .alpha_inter(alpha_inter)
                    .max_tissue_size(mts)
                    .drs(drs)
                    .build(),
            ),
        ),
    ];

    let mut device = GpuDevice::for_model(&device_model);
    let mut runtime = PlanRuntime::new();
    let mut baseline_time = 0.0f64;
    let mut baseline_preds: Vec<usize> = Vec::new();
    println!("scheme      latency/sentence  energy/sentence  speedup  agreement");
    for (name, config) in &schemes {
        let mut time = 0.0f64;
        let mut energy = 0.0f64;
        let mut agree = 0usize;
        let mut total = 0usize;
        for (i, xs) in workload.eval_set().iter().enumerate() {
            // Each sentence is compiled with itself as the only probe.
            let plan = match config {
                None => ExecutionPlan::compile_baseline(net, xs.len(), &device_model),
                Some(c) => OptimizedExecutor::new(net, &predictors, *c)
                    .plan_probes(std::slice::from_ref(xs)),
            };
            device.reset();
            let mut session = device.begin_trace();
            let out = runtime.run_lstm(&plan, net, xs, &mut session);
            let report = session.finish();
            time += report.time_s;
            energy += report.energy.total_j();
            let pred = out.logits.argmax().expect("head has classes");
            if config.is_none() {
                baseline_preds.push(pred);
            } else {
                total += 1;
                if pred == baseline_preds[i] {
                    agree += 1;
                }
            }
        }
        let n = workload.eval_set().len() as f64;
        if config.is_none() {
            baseline_time = time;
        }
        println!(
            "{name:<11} {:13.1} ms {:12.1} mJ {:7.2}x  {}",
            time / n * 1e3,
            energy / n * 1e3,
            baseline_time / time,
            if total == 0 {
                "-".to_owned()
            } else {
                format!("{}/{total}", agree)
            }
        );
    }
}
