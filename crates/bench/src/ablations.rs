//! Beyond-paper ablations of the design choices DESIGN.md calls out:
//! tissue alignment on/off, predicted vs. zero link recovery, and the
//! paper's index-order scheduler vs. the longest-first extension.

use crate::session::Session;
use crate::table::TextTable;
use gpu_sim::{DeviceModel, GpuDevice};
use lstm::plan::{NullSink, PlanRuntime};
use memlstm::exec::OptimizerConfig;
use memlstm::thresholds::{select_ao, Level};
use workloads::teacher_match_nested;

/// Runs one configuration over the evaluation set; returns
/// `(speedup vs baseline, accuracy)`.
fn measure(
    session: &mut Session,
    benchmark: workloads::Benchmark,
    config: OptimizerConfig,
) -> (f64, f64) {
    let ev = session.prepare(benchmark);
    let base = ev.baseline_perf();
    let (perf, accuracy, _) = ev.evaluate(config);
    (base.time_s / perf.time_s, accuracy)
}

/// The ablation table: each row knocks out one design choice at the
/// combined AO operating point.
pub fn ablations(session: &mut Session) -> String {
    let mut out =
        String::from("Ablations (beyond paper) — knock out one design choice at the AO point\n");
    for benchmark in session.benchmarks() {
        let ao = *select_ao(&session.sweep(benchmark, Level::Combined));
        let base_config = {
            let set = ao.set;
            session.config_for(benchmark, Level::Combined, &set)
        };
        let mut table = TextTable::new(["variant", "speedup", "accuracy%"]);
        let variants: Vec<(&str, OptimizerConfig)> = vec![
            ("paper (full)", base_config),
            (
                "no tissue alignment",
                OptimizerConfig {
                    align: false,
                    ..base_config
                },
            ),
            (
                "zero-link recovery",
                OptimizerConfig {
                    use_predicted_link: false,
                    ..base_config
                },
            ),
            (
                "balanced scheduler",
                OptimizerConfig {
                    balanced_schedule: true,
                    ..base_config
                },
            ),
        ];
        for (name, config) in variants {
            let (speedup, accuracy) = measure(session, benchmark, config);
            table.row([
                name.to_owned(),
                format!("{speedup:.2}x"),
                format!("{:.1}", accuracy * 100.0),
            ]);
        }
        out.push_str(&format!("\n{}\n{table}", benchmark.name()));
    }
    out
}

/// A small demonstration that the machinery applies to GRUs (paper
/// Sec. II-B's "simple adjustment"): the GRU baseline and Dynamic Row
/// Skip plans run on one GRU layer, measured for skip rate and for the
/// state divergence after 20 steps.
pub fn gru_demo(_session: &mut Session) -> String {
    use lstm::gru_exec::GruNetwork;
    use lstm::plan::ExecutionPlan;
    use memlstm::drs::{DrsConfig, DrsMode};
    use memlstm::gru_drs::compile_gru_drs;
    use rand::Rng;
    use tensor::init::seeded_rng;
    use tensor::Vector;

    const STEPS: usize = 20;
    let net = GruNetwork::random(64, 128, 1, 2, &mut seeded_rng(17));
    let mut data_rng = seeded_rng(18);
    let xs: Vec<Vector> = (0..STEPS)
        .map(|_| Vector::from_fn(64, |_| data_rng.gen_range(-1.0f32..1.0)))
        .collect();
    let device = DeviceModel::tegra_x1();
    let mut runtime = PlanRuntime::new();
    let baseline = ExecutionPlan::compile_gru_baseline(&net, STEPS, &device);
    let exact = runtime.run_gru(&baseline, &net, &xs, &mut NullSink);
    let mut table = TextTable::new(["alpha", "skip%", "max |dh| after 20 steps"]);
    for alpha in [0.01f32, 0.05, 0.1, 0.2] {
        let drs = DrsConfig {
            alpha_intra: alpha,
            mode: DrsMode::Hardware,
        };
        let plan = compile_gru_drs(&net, drs, STEPS, &device).expect("non-empty sequence");
        let out = runtime.run_gru(&plan, &net, &xs, &mut NullSink);
        let dh = exact.layer_hs[0][STEPS - 1].sub(&out.layer_hs[0][STEPS - 1]);
        table.row([
            format!("{alpha}"),
            format!("{:.1}", out.layer_skips[0].sum / STEPS as f64 * 100.0),
            format!("{:.3}", dh.max_abs()),
        ]);
    }
    format!(
        "GRU adaptation (paper Sec. II-B: \"applied to GRUs with simple adjustment\")\n\
         update-gate-driven row skipping: near-closed update gates copy history\n{table}"
    )
}

/// Scalability check on a hypothetical 2x mobile GPU (extension): the MTS
/// shifts with the on-chip/off-chip bandwidth ratio.
pub fn gpu_scaling(_session: &mut Session) -> String {
    use memlstm::mts::determine_mts;
    let mut table = TextTable::new(["GPU", "hidden", "MTS", "peak speedup vs t=1"]);
    for (name, cfg) in [
        ("Tegra X1", DeviceModel::tegra_x1()),
        ("2x Tegra X1", DeviceModel::tegra_x1_2x()),
    ] {
        for hidden in [256usize, 512] {
            let result = determine_mts(&cfg, hidden, 12);
            let perf = result.normalized_performance();
            let at_mts = perf
                .iter()
                .find(|(t, _)| *t == result.mts)
                .map(|(_, p)| *p)
                .unwrap_or(1.0);
            table.row([
                name.to_owned(),
                format!("{hidden}"),
                format!("{}", result.mts),
                format!("{at_mts:.2}x"),
            ]);
        }
    }
    // Touch the device type so the extension compiles stand-alone.
    let _ = GpuDevice::for_model(&DeviceModel::tegra_x1());
    format!("GPU scaling (extension): MTS follows the bandwidth ratio\n{table}")
}

/// Accuracy sanity: zero-pruning vs DRS on output agreement (not part of
/// a paper figure; validates that both compression baselines stay
/// accuracy-neutral at their operating points).
pub fn compression_accuracy(session: &mut Session) -> String {
    let mut table = TextTable::new(["benchmark", "zero-pruning acc%", "DRS(AO) acc%"]);
    for benchmark in session.benchmarks() {
        let intra_ao = *select_ao(&session.sweep(benchmark, Level::Intra));
        let ev = session.prepare(benchmark);
        let workload = ev.workload();
        let net = workload.network();
        let zp =
            memlstm::pruning::ZeroPruning::calibrate(net, 0.37).expect("0.37 is a valid target");
        let pruned = zp.prune_network(net);
        let plan = zp
            .compile(net, workload.eval_set()[0].len(), ev.device())
            .expect("evaluation sequences are non-empty");
        let mut runtime = PlanRuntime::new();
        let preds: Vec<Vec<usize>> = workload
            .eval_set()
            .iter()
            .map(|xs| {
                let out = runtime.run_lstm(&plan, &pruned, xs, &mut NullSink);
                net.step_predictions(out.layer_hs.last().expect("layers"))
            })
            .collect();
        let zp_acc = teacher_match_nested(workload.teacher_labels(), &preds);
        table.row([
            benchmark.name().to_owned(),
            format!("{:.1}", zp_acc * 100.0),
            format!("{:.1}", intra_ao.accuracy * 100.0),
        ]);
    }
    format!("Compression-scheme accuracy check (extension)\n{table}")
}
