//! Headline performance experiments: Fig. 14 (speedup/energy per level),
//! Fig. 15 (per-layer inter-cell gains), Fig. 16 (compression schemes).

use crate::session::{Level, Session};
use crate::table::TextTable;
use gpu_sim::{GpuConfig, GpuDevice};
use lstm::BaselineExecutor;
use memlstm::drs::{DrsConfig, DrsMode};
use memlstm::exec::{OptimizedExecutor, OptimizerConfig};
use memlstm::pruning::ZeroPruning;
use memlstm::thresholds::select_ao;
use workloads::teacher_match_nested;

/// Fig. 14: speedup and energy saving of the inter-cell level, the
/// intra-cell level, and the combined system, each at its
/// accuracy-oriented (≤2% loss) threshold.
pub fn fig14(session: &mut Session) -> String {
    let mut table = TextTable::new([
        "benchmark",
        "inter x",
        "inter e%",
        "intra x",
        "intra e%",
        "overall x",
        "overall e%",
        "overall acc%",
    ]);
    let mut sums = [0.0f64; 6];
    let mut best = (0.0f64, 0.0f64);
    let benchmarks = session.benchmarks();
    for benchmark in &benchmarks {
        let inter_points = session.sweep(*benchmark, Level::Inter);
        let intra_points = session.sweep(*benchmark, Level::Intra);
        let inter = *select_ao(&inter_points);
        let intra = *select_ao(&intra_points);
        // The combined system's thresholds come from the Fig. 10 step-3
        // accuracy-feedback loop, not the diagonal sweep.
        let ev = session.prepare(*benchmark);
        let (_, combined) = memlstm::thresholds::tune_combined_ao(ev, &inter_points, &intra_points);
        table.row([
            benchmark.name().to_owned(),
            format!("{:.2}", inter.speedup),
            format!("{:.1}", inter.energy_saving * 100.0),
            format!("{:.2}", intra.speedup),
            format!("{:.1}", intra.energy_saving * 100.0),
            format!("{:.2}", combined.speedup),
            format!("{:.1}", combined.energy_saving * 100.0),
            format!("{:.1}", combined.accuracy * 100.0),
        ]);
        for (acc, v) in sums.iter_mut().zip([
            inter.speedup,
            inter.energy_saving,
            intra.speedup,
            intra.energy_saving,
            combined.speedup,
            combined.energy_saving,
        ]) {
            *acc += v;
        }
        if combined.speedup > best.0 {
            best = (combined.speedup, combined.energy_saving);
        }
    }
    let n = benchmarks.len() as f64;
    table.row([
        "AVERAGE".to_owned(),
        format!("{:.2}", sums[0] / n),
        format!("{:.1}", sums[1] / n * 100.0),
        format!("{:.2}", sums[2] / n),
        format!("{:.1}", sums[3] / n * 100.0),
        format!("{:.2}", sums[4] / n),
        format!("{:.1}", sums[5] / n * 100.0),
        String::new(),
    ]);
    format!(
        "Fig. 14 — speedup and energy saving at the AO (≤2% loss) thresholds\n\
         paper: inter 2.05x / 35.94%, intra 1.65x / 16.93%, overall 2.54x (up to 3.24x) / 47.23% (up to 58.82%)\n\
         measured overall maximum: {:.2}x / {:.1}%\n{table}",
        best.0,
        best.1 * 100.0
    )
}

/// Fig. 15: per-layer speedup and energy saving of the inter-cell level
/// at its AO threshold. The paper's finding: earlier layers gain more.
pub fn fig15(session: &mut Session) -> String {
    let mut out = String::from(
        "Fig. 15 — per-layer inter-cell gains at the AO threshold\n\
         paper: earlier layers divide better (context links more distinct)\n",
    );
    let benchmarks: Vec<_> = session
        .benchmarks()
        .into_iter()
        .filter(|b| b.spec().num_layers > 1)
        .collect();
    for benchmark in benchmarks {
        let ao = *select_ao(&session.sweep(benchmark, Level::Inter));
        let ev = session.prepare(benchmark);
        let workload = ev.workload();
        let net = workload.network();
        let xs = &workload.eval_set()[0];
        let base_run = BaselineExecutor::new(net).run(xs);
        let config = OptimizerConfig::builder()
            .alpha_inter(ao.set.alpha_inter)
            .max_tissue_size(ev.mts())
            .build();
        let opt_run = OptimizedExecutor::new(net, ev.predictors(), config)
            .run(xs)
            .expect("evaluation sequences are non-empty");
        let mut table = TextTable::new(["layer", "speedup", "energy saving%"]);
        for (l, (base_layer, opt_layer)) in base_run.layers.iter().zip(&opt_run.layers).enumerate()
        {
            let mut device = GpuDevice::new(GpuConfig::tegra_x1());
            let base = device.run_trace(&base_layer.trace);
            device.reset();
            let opt = device.run_trace(&opt_layer.trace);
            table.row([
                format!("layer {}", l + 1),
                format!("{:.2}x", base.time_s / opt.time_s),
                format!(
                    "{:.1}",
                    (1.0 - opt.energy.total_j() / base.energy.total_j()) * 100.0
                ),
            ]);
        }
        out.push_str(&format!("\n{}\n{table}", benchmark.name()));
    }
    out
}

/// Fig. 16: weight-matrix compression schemes compared — zero-pruning
/// \[31\], software DRS, and hardware (CRM) DRS.
pub fn fig16(session: &mut Session) -> String {
    let mut table = TextTable::new([
        "benchmark",
        "scheme",
        "compression%",
        "speedup",
        "energy sav%",
        "power sav%",
        "acc%",
    ]);
    let benchmarks = session.benchmarks();
    let mut sums: std::collections::BTreeMap<&str, (f64, f64, f64, usize)> = Default::default();
    for benchmark in &benchmarks {
        let intra_ao = *select_ao(&session.sweep(*benchmark, Level::Intra));
        let alpha = intra_ao.set.alpha_intra;
        let ev = session.prepare(*benchmark);
        let base = ev.baseline_perf();

        // Zero-pruning at the paper's 37% target, simulated over the same
        // sequences as the evaluator's baseline.
        let workload = ev.workload();
        let net = workload.network();
        let zp = ZeroPruning::calibrate(net, 0.37);
        let mut device = GpuDevice::new(GpuConfig::tegra_x1());
        let mut zp_time = 0.0;
        let mut zp_energy = 0.0;
        let mut zp_preds = Vec::new();
        for (i, xs) in workload.eval_set().iter().enumerate() {
            let run = zp.run(net, xs);
            if i < ev.perf_seqs() {
                device.reset();
                let report = device.run_trace(run.trace());
                zp_time += report.time_s;
                zp_energy += report.energy.total_j();
            }
            zp_preds.push(net.step_predictions(&run.layers.last().expect("layers").hs));
        }
        let zp_acc = teacher_match_nested(workload.teacher_labels(), &zp_preds);
        let zp_speedup = base.time_s / zp_time;
        let zp_energy_saving = 1.0 - zp_energy / base.energy_j;
        let zp_power_saving = 1.0 - (zp_energy / zp_time) / base.power_w();

        table.row([
            benchmark.name().to_owned(),
            "zero-pruning".to_owned(),
            format!("{:.1}", zp.compression_ratio() * 100.0),
            format!("{zp_speedup:.2}x"),
            format!("{:.1}", zp_energy_saving * 100.0),
            format!("{:.1}", zp_power_saving * 100.0),
            format!("{:.1}", zp_acc * 100.0),
        ]);
        let entry = sums.entry("zero-pruning").or_default();
        entry.0 += zp.compression_ratio();
        entry.1 += zp_speedup;
        entry.2 += zp_power_saving;
        entry.3 += 1;

        // Software and hardware DRS at the intra AO threshold.
        for (label, mode) in [
            ("software DRS", DrsMode::Software),
            ("hardware DRS", DrsMode::Hardware),
        ] {
            let config = OptimizerConfig::builder()
                .drs(DrsConfig {
                    alpha_intra: alpha,
                    mode,
                })
                .build();
            let (perf, acc, stats) = ev.evaluate(config);
            let compression = stats.mean_skip_fraction() * 0.75;
            let speedup = base.time_s / perf.time_s;
            let energy_saving = 1.0 - perf.energy_j / base.energy_j;
            let power_saving = 1.0 - perf.power_w() / base.power_w();
            table.row([
                benchmark.name().to_owned(),
                label.to_owned(),
                format!("{:.1}", compression * 100.0),
                format!("{speedup:.2}x"),
                format!("{:.1}", energy_saving * 100.0),
                format!("{:.1}", power_saving * 100.0),
                format!("{:.1}", acc * 100.0),
            ]);
            let entry = sums.entry(label).or_default();
            entry.0 += compression;
            entry.1 += speedup;
            entry.2 += power_saving;
            entry.3 += 1;
        }
    }
    let mut summary = TextTable::new([
        "scheme",
        "avg compression%",
        "avg speedup",
        "avg power sav%",
    ]);
    for (label, (c, s, p, n)) in &sums {
        let n = *n as f64;
        summary.row([
            (*label).to_owned(),
            format!("{:.1}", c / n * 100.0),
            format!("{:.2}x", s / n),
            format!("{:.1}", p / n * 100.0),
        ]);
    }
    format!(
        "Fig. 16 — weight compression schemes\n\
         paper: zero-pruning 37% compression / 0.65x / ~7% power saving;\n\
         software DRS ~1.07x; hardware DRS 50.35% compression, 16.92% saving,\n\
         +57.78% speedup over software DRS\n{table}\nAverages:\n{summary}"
    )
}
