//! Tables I and II and the Sec. VI-F overhead analysis.

use crate::session::{Level, Session};
use crate::table::TextTable;
use gpu_sim::GpuConfig;
use memlstm::exec::OptimizedExecutor;
use memlstm::overhead::{crm_overhead, inter_overhead, intra_overhead};
use memlstm::thresholds::select_ao;

/// Table I: the simulated platform specification.
pub fn table1() -> String {
    let cfg = GpuConfig::tegra_x1();
    let mut table = TextTable::new(["hardware", "specification"]);
    table
        .row(["System", "Tegra X1 SoC (simulated)"])
        .row(["CPU", "Cortex-A57 + Cortex-A53 (static system rail)"])
        .row([
            "Memory",
            &format!("4GB LPDDR4, {:.1} GB/s", cfg.dram_bandwidth_gbps),
        ])
        .row([
            "GPU",
            &format!(
                "Maxwell, {} cores, {:.0} MHz",
                cfg.total_cores(),
                cfg.clock_ghz * 1000.0
            ),
        ])
        .row(["L2 cache", &format!("{} KiB", cfg.l2_bytes / 1024)])
        .row([
            "On-chip BW",
            &format!("{:.0} GB/s effective", cfg.smem_bytes_per_s() / 1e9),
        ]);
    format!("Table I — platform specification (paper Table I, modelled)\n{table}")
}

/// Table II: the benchmark suite.
pub fn table2() -> String {
    let mut table = TextTable::new(["Name", "Abbr.", "Hidden_Size", "Layers", "Length"]);
    for b in workloads::Benchmark::ALL {
        let s = b.spec();
        table.row([
            s.name.to_owned(),
            s.task.abbr().to_owned(),
            format!("{}", s.hidden_size),
            format!("{}", s.num_layers),
            format!("{}", s.seq_len),
        ]);
    }
    format!("Table II — NLP applications (paper Table II)\n{table}")
}

/// Sec. VI-F: overhead analysis of the combined system at AO thresholds.
pub fn overheads(session: &mut Session) -> String {
    let mut table = TextTable::new([
        "benchmark",
        "inter perf%",
        "inter energy%",
        "intra perf%",
        "intra energy%",
        "CRM perf%",
        "CRM power%",
    ]);
    let device = session.device().clone();
    let mut sums = [0.0f64; 6];
    let benchmarks = session.benchmarks();
    for benchmark in &benchmarks {
        let ao = *select_ao(&session.sweep(*benchmark, Level::Combined));
        let config = {
            let set = ao.set;
            session.config_for(*benchmark, Level::Combined, &set)
        };
        let ev = session.prepare(*benchmark);
        let workload = ev.workload();
        let run = OptimizedExecutor::new(workload.network(), ev.predictors(), config)
            .on_device(device.clone())
            .run(&workload.eval_set()[0])
            .expect("evaluation sequences are non-empty");
        let inter = inter_overhead(&run, &device);
        let intra = intra_overhead(&run, &device);
        let crm = crm_overhead(&run, &device);
        let vals = [
            inter.perf_frac,
            inter.energy_frac,
            intra.perf_frac,
            intra.energy_frac,
            crm.perf_frac,
            crm.energy_frac,
        ];
        for (acc, v) in sums.iter_mut().zip(vals) {
            *acc += v;
        }
        table.row(
            std::iter::once(benchmark.name().to_owned())
                .chain(vals.iter().map(|v| format!("{:.2}", v * 100.0)))
                .collect::<Vec<_>>(),
        );
    }
    let n = benchmarks.len() as f64;
    table.row(
        std::iter::once("AVERAGE".to_owned())
            .chain(sums.iter().map(|v| format!("{:.2}", v / n * 100.0)))
            .collect::<Vec<_>>(),
    );
    format!(
        "Sec. VI-F — overhead analysis\n\
         paper: inter 2.23% perf / 1.65% power; intra 3.39% / 3.21%; CRM 1.47% / <1%\n{table}"
    )
}
