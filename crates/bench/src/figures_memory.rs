//! Memory-bottleneck experiments: Fig. 4 (stall breakdown), Fig. 6
//! (bandwidth utilization), Fig. 9 (tissue-size sweep) and the Sec. III-A
//! reload-factor measurement.

use crate::session::Session;
use crate::table::TextTable;
use gpu_sim::{GpuDevice, KernelDesc, KernelKind, StallBreakdown};
use lstm::plan::{ExecutionPlan, PlanRuntime};
use memlstm::mts::determine_mts;

/// Simulates the baseline execution of one evaluation sequence and
/// returns `(sgemv stall breakdown, full report, device)`.
fn baseline_sgemv_profile(
    session: &mut Session,
    benchmark: workloads::Benchmark,
) -> (StallBreakdown, gpu_sim::SimReport, GpuDevice) {
    let device_model = session.device().clone();
    let ev = session.prepare(benchmark);
    let workload = ev.workload();
    let net = workload.network();
    let xs = &workload.eval_set()[0];
    let plan = ExecutionPlan::compile_baseline(net, xs.len(), &device_model);
    let mut trace: Vec<KernelDesc> = Vec::new();
    PlanRuntime::new().run_lstm(&plan, net, xs, &mut trace);
    let mut device = GpuDevice::for_model(&device_model);
    let cfg = net.config();
    plan.regions.declare_on(
        &mut device,
        |_| cfg.united_u_bytes(),
        |l| cfg.united_w_bytes(l),
    );
    let mut sgemv_stall = StallBreakdown::default();
    let mut report = gpu_sim::SimReport::empty(
        device.config().peak_dram_bytes_per_s(),
        device.config().smem_bytes_per_s(),
    );
    for kernel in &trace {
        let k = device.launch(kernel);
        if k.kind == KernelKind::Sgemv {
            sgemv_stall.accumulate(&k.stall);
        }
        report.absorb(&k);
    }
    (sgemv_stall, report, device)
}

/// Fig. 4: contribution of each factor to the pipeline stall cycles while
/// executing the per-cell `Sgemv` kernels. The paper's finding: off-chip
/// memory access dominates.
pub fn fig4(session: &mut Session) -> String {
    let mut table = TextTable::new([
        "benchmark",
        "off-chip%",
        "barrier%",
        "exec-dep%",
        "on-chip%",
        "other%",
    ]);
    for benchmark in session.benchmarks() {
        let (stall, _, _) = baseline_sgemv_profile(session, benchmark);
        let (off, on, barrier, dep, other) = stall.fractions();
        table.row([
            benchmark.name().to_owned(),
            format!("{:.1}", off * 100.0),
            format!("{:.1}", barrier * 100.0),
            format!("{:.1}", dep * 100.0),
            format!("{:.1}", on * 100.0),
            format!("{:.1}", other * 100.0),
        ]);
    }
    format!(
        "Fig. 4 — Sgemv pipeline-stall breakdown (baseline Algorithm 1)\n\
         paper: off-chip memory access is the dominant stall source\n{table}"
    )
}

/// Fig. 6: off-chip vs on-chip bandwidth utilization during `Sgemv`.
/// The paper's finding: off-chip almost fully utilized, on-chip light.
pub fn fig6(session: &mut Session) -> String {
    let mut table = TextTable::new(["benchmark", "off-chip util%", "on-chip util%"]);
    for benchmark in session.benchmarks() {
        let (_, report, _) = baseline_sgemv_profile(session, benchmark);
        table.row([
            benchmark.name().to_owned(),
            format!(
                "{:.1}",
                report.dram_utilization_of(KernelKind::Sgemv) * 100.0
            ),
            format!(
                "{:.1}",
                report.smem_utilization_of(KernelKind::Sgemv) * 100.0
            ),
        ]);
    }
    format!(
        "Fig. 6 — bandwidth utilization during Sgemv (baseline)\n\
         paper: off-chip ~fully utilized, on-chip lightly consumed\n{table}"
    )
}

/// Fig. 9: normalized per-cell performance and on-chip bandwidth
/// utilization as the tissue size grows; the MTS is the peak.
pub fn fig9(session: &mut Session) -> String {
    let mut out = String::from(
        "Fig. 9 — performance and shared-memory utilization vs. tissue size\n\
         paper: performance peaks at MTS 5-6, on-chip utilization ~100% at the peak\n",
    );
    for benchmark in session.benchmarks() {
        let hidden = benchmark.spec().hidden_size;
        let result = determine_mts(session.device(), hidden, 10);
        let mut table = TextTable::new(["tissue size", "norm. perf", "smem util%", "reconfig"]);
        for (sample, (_, perf)) in result.samples.iter().zip(result.normalized_performance()) {
            table.row([
                format!("{}", sample.tissue_size),
                format!("{perf:.2}"),
                format!("{:.1}", sample.smem_utilization * 100.0),
                if sample.reconfigured {
                    "yes".to_owned()
                } else {
                    "no".to_owned()
                },
            ]);
        }
        out.push_str(&format!(
            "\n{} (hidden {hidden}): MTS = {}\n{table}",
            benchmark.name(),
            result.mts
        ));
    }
    out
}

/// Sec. III-A: how many bytes the united weight matrix actually pulls from
/// DRAM relative to its size (the paper reports up to ~100x).
pub fn reload(session: &mut Session) -> String {
    let mut table = TextTable::new(["benchmark", "U size (MiB)", "reload factor", "cells/layer"]);
    for benchmark in session.benchmarks() {
        let (_, _, device) = baseline_sgemv_profile(session, benchmark);
        let spec = benchmark.spec();
        let u_mib = (4 * spec.hidden_size * spec.hidden_size * 4) as f64 / (1024.0 * 1024.0);
        table.row([
            benchmark.name().to_owned(),
            format!("{u_mib:.2}"),
            format!("{:.0}x", device.max_reload_factor()),
            format!("{}", spec.seq_len),
        ]);
    }
    format!(
        "Sec. III-A — redundant weight reloads across sequential cells (baseline)\n\
         paper: actually-loaded data up to ~100x the resident weight size\n{table}"
    )
}
