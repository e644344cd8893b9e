//! Overhead accounting (paper Sec. VI-F).
//!
//! The optimizations add work of their own: the inter-cell level runs the
//! breakpoint search and link prediction; the intra-cell level splits the
//! per-cell Sgemv in two, adds the `DRS` selection kernel and the extra
//! `lstm_ew(o)` pass; the CRM hardware adds its reorganization pipeline
//! latency and standby power. This module measures each contribution by
//! re-simulating the trace with the overhead kernels removed.

use gpu_sim::{DeviceModel, GpuDevice, KernelDesc};

/// Measured overhead of one mechanism.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OverheadReport {
    /// Fraction of execution time attributable to the mechanism.
    pub perf_frac: f64,
    /// Fraction of energy attributable to the mechanism.
    pub energy_frac: f64,
}

/// `true` for kernels the inter-cell level adds (Fig. 10 steps 5–6).
pub fn is_inter_overhead(kernel: &KernelDesc) -> bool {
    kernel.label.starts_with("breakpoint_search") || kernel.label.starts_with("link_prediction")
}

/// `true` for kernels the intra-cell level adds on the software side: the
/// `DRS` selection kernel and the extra output-gate element-wise pass that
/// the split computation flow requires (Algorithm 3 lines 5–6).
pub fn is_intra_overhead(kernel: &KernelDesc) -> bool {
    kernel.label.starts_with("DRS") || kernel.label.starts_with("lstm_ew(o)")
}

fn measure(
    trace: &[KernelDesc],
    device: &DeviceModel,
    is_overhead: impl Fn(&KernelDesc) -> bool,
) -> OverheadReport {
    let mut device = GpuDevice::for_model(device);
    let full = device.run_trace(trace);
    device.reset();
    let reduced = device.run_trace(trace.iter().filter(|k| !is_overhead(k)));
    if full.time_s <= 0.0 {
        return OverheadReport::default();
    }
    OverheadReport {
        perf_frac: ((full.time_s - reduced.time_s) / full.time_s).max(0.0),
        energy_frac: ((full.energy.total_j() - reduced.energy.total_j()) / full.energy.total_j())
            .max(0.0),
    }
}

/// Overhead of the inter-cell level's added computations in a run's
/// kernel stream.
pub fn inter_overhead(trace: &[KernelDesc], device: &DeviceModel) -> OverheadReport {
    measure(trace, device, is_inter_overhead)
}

/// Overhead of the intra-cell level's added software computations in a
/// run's kernel stream.
pub fn intra_overhead(trace: &[KernelDesc], device: &DeviceModel) -> OverheadReport {
    measure(trace, device, is_intra_overhead)
}

/// Overhead of the CRM hardware: reorganization latency over total time,
/// and its standby power fraction (from the gate-level-derived constant).
pub fn crm_overhead(trace: &[KernelDesc], device: &DeviceModel) -> OverheadReport {
    let mut device = GpuDevice::for_model(device);
    let crm_energy_frac = device.crm().energy_overhead_frac();
    let full = device.run_trace(trace);
    if full.time_s <= 0.0 {
        return OverheadReport::default();
    }
    OverheadReport {
        perf_frac: full.crm_s / full.time_s,
        energy_frac: crm_energy_frac,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drs::{DrsConfig, DrsMode};
    use crate::exec::{OptimizedExecutor, OptimizerConfig};
    use crate::prediction::NetworkPredictors;
    use crate::relevance::RelevanceAnalyzer;
    use lstm::{LstmNetwork, ModelConfig, PlanRuntime};
    use tensor::init::seeded_rng;

    fn combined_run() -> Vec<KernelDesc> {
        // Realistic hidden width: on toy widths the fixed launch overhead
        // of the tiny DRS/gate kernels dwarfs the Sgemv work and the
        // percentages lose meaning.
        let config = ModelConfig::new("t", 512, 512, 1, 12, 2).unwrap();
        let mut rng = seeded_rng(3);
        let net = LstmNetwork::random(&config, &mut rng);
        let xs = lstm::random_inputs(&config, &mut rng);
        let offline: Vec<_> = (0..3)
            .map(|_| lstm::random_inputs(&config, &mut rng))
            .collect();
        let preds = NetworkPredictors::collect(&net, &offline);
        let cfg = OptimizerConfig::builder()
            .alpha_inter(RelevanceAnalyzer::max_relevance() / 4.0)
            .max_tissue_size(5)
            .drs(DrsConfig {
                alpha_intra: 0.1,
                mode: DrsMode::Hardware,
            })
            .build();
        let plan = OptimizedExecutor::new(&net, &preds, cfg).plan_probes(std::slice::from_ref(&xs));
        let mut trace: Vec<KernelDesc> = Vec::new();
        PlanRuntime::new().run_lstm(&plan, &net, &xs, &mut trace);
        trace
    }

    #[test]
    fn overheads_are_small_but_nonzero() {
        // Paper Sec. VI-F: inter 2.23% perf / 1.65% power; intra 3.39% /
        // 3.21%; CRM 1.47% / <1%. Ours must land in the "few percent" band.
        let run = combined_run();
        let gpu = DeviceModel::tegra_x1();
        let inter = inter_overhead(&run, &gpu);
        assert!(
            inter.perf_frac > 0.0 && inter.perf_frac < 0.10,
            "inter {inter:?}"
        );
        let intra = intra_overhead(&run, &gpu);
        assert!(
            intra.perf_frac > 0.0 && intra.perf_frac < 0.12,
            "intra {intra:?}"
        );
        let crm = crm_overhead(&run, &gpu);
        assert!(crm.perf_frac >= 0.0 && crm.perf_frac < 0.05, "crm {crm:?}");
        assert!(crm.energy_frac < 0.01, "CRM power overhead must be <1%");
    }

    #[test]
    fn classifiers_recognize_labels() {
        let run = combined_run();
        assert!(run.iter().any(is_inter_overhead));
        assert!(run.iter().any(is_intra_overhead));
        // Main compute kernels are not classified as overhead.
        let main = run
            .iter()
            .find(|k| k.label.starts_with("Sgemm(U_fic"))
            .unwrap();
        assert!(!is_inter_overhead(main));
        assert!(!is_intra_overhead(main));
    }

    #[test]
    fn empty_trace_reports_zero() {
        let run = combined_run();
        let gpu = DeviceModel::tegra_x1();
        // Degenerate filter removing everything still yields a finite report.
        let report = measure(&run, &gpu, |_| true);
        assert!(report.perf_frac <= 1.0);
    }
}
