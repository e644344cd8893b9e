//! The optimized execution flows (paper Fig. 10 and Algorithm 3).
//!
//! [`OptimizedExecutor`] builds plans for a network with the inter-cell
//! optimization (layer division + reorganization into tissues), the
//! intra-cell optimization (Dynamic Row Skip), or both: it holds the
//! network, predictors, configuration and per-layer relevance analyzers,
//! and [`plan_probes`](OptimizedExecutor::plan_probes) compiles the
//! offline analyses into an [`ExecutionPlan`] (see [`crate::compile`]).
//! A [`PlanRuntime`] executes the plan with whatever
//! [`KernelSink`](lstm::plan::KernelSink) the caller needs — a
//! `Vec<KernelDesc>` trace, a `gpu_sim::TraceSession` for streamed
//! pricing, or `NullSink` — and [`OptRunStats::from_plan_run`] reads the
//! run statistics off the plan and the output.
//!
//! Compile once and reuse the plan across inputs (`Evaluator` in the
//! `thresholds` module does); a one-shot run compiles with the input
//! itself as the only probe.

use crate::drs::DrsConfig;
use crate::error::{Error, MemlstmResult};
use crate::prediction::NetworkPredictors;
use crate::relevance::RelevanceAnalyzer;
use gpu_sim::DeviceModel;
use lstm::plan::{ExecutionPlan, PlanOutput, PlanRuntime};
use lstm::LstmNetwork;
use tensor::{Precision, Vector};

/// Full configuration of the optimized execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptimizerConfig {
    /// Enable the inter-cell optimization (layer division/reorganization).
    pub inter: bool,
    /// Relevance threshold `α_inter` (per-unit relevance; links with
    /// `S <= α_inter` break). Only meaningful when `inter` is set.
    pub alpha_inter: f64,
    /// Maximum tissue size from the offline MTS sweep.
    pub mts: usize,
    /// Dynamic Row Skip configuration (intra-cell level); disabled when
    /// `alpha_intra == 0`.
    pub drs: DrsConfig,
    /// Apply tissue alignment (paper default). When `false`, the naive
    /// formation is used unaligned — the Fig. 8b1 ablation.
    pub align: bool,
    /// Use the beyond-paper longest-first scheduler instead of the
    /// paper's index-order alignment.
    pub balanced_schedule: bool,
    /// Recover broken links with the Eq. 6 predicted vector (paper
    /// default). When `false`, zero vectors are injected — the accuracy-
    /// recovery ablation.
    pub use_predicted_link: bool,
    /// Storage precision of the packed gate matrices (`U` and `W`).
    /// [`Precision::Fp32`] (the default) is exact and byte-identical to
    /// the pre-quantization pipeline; `Fp16`/`Int8` round the weights to
    /// the tier and shrink their priced traffic 2x/4x (biases and the
    /// classifier head stay fp32).
    pub precision: Precision,
}

impl OptimizerConfig {
    /// Starts building a configuration from the paper defaults: both
    /// levels disabled, alignment on, predicted-link recovery on.
    ///
    /// ```
    /// use memlstm::drs::{DrsConfig, DrsMode};
    /// use memlstm::exec::OptimizerConfig;
    ///
    /// let combined = OptimizerConfig::builder()
    ///     .alpha_inter(1.0)
    ///     .max_tissue_size(5)
    ///     .drs(DrsConfig { alpha_intra: 0.05, mode: DrsMode::Hardware })
    ///     .build();
    /// assert!(combined.inter && combined.intra_enabled());
    /// ```
    pub fn builder() -> OptimizerConfigBuilder {
        OptimizerConfigBuilder {
            config: Self {
                inter: false,
                alpha_inter: 0.0,
                mts: 1,
                drs: DrsConfig::disabled(),
                align: true,
                balanced_schedule: false,
                use_predicted_link: true,
                precision: Precision::Fp32,
            },
        }
    }

    /// Whether the intra-cell level is active.
    pub fn intra_enabled(&self) -> bool {
        self.drs.is_enabled()
    }
}

/// Builds an [`OptimizerConfig`] field by field from the paper defaults.
///
/// Created by [`OptimizerConfig::builder`]. Setting
/// [`alpha_inter`](Self::alpha_inter) enables the inter-cell level;
/// setting [`drs`](Self::drs) with a non-zero `alpha_intra` enables the
/// intra-cell level; everything else has the paper-default value until
/// overridden.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptimizerConfigBuilder {
    config: OptimizerConfig,
}

impl OptimizerConfigBuilder {
    /// Enables the inter-cell level with relevance threshold `α_inter`
    /// (links with `S <= α_inter` break).
    pub fn alpha_inter(mut self, alpha_inter: f64) -> Self {
        self.config.inter = true;
        self.config.alpha_inter = alpha_inter;
        self
    }

    /// Sets the maximum tissue size from the offline MTS sweep.
    pub fn max_tissue_size(mut self, mts: usize) -> Self {
        self.config.mts = mts;
        self
    }

    /// Sets the Dynamic Row Skip configuration (intra-cell level).
    pub fn drs(mut self, drs: DrsConfig) -> Self {
        self.config.drs = drs;
        self
    }

    /// Toggles tissue alignment (paper default `true`; `false` is the
    /// Fig. 8b1 ablation).
    pub fn align(mut self, align: bool) -> Self {
        self.config.align = align;
        self
    }

    /// Toggles the beyond-paper longest-first scheduler.
    pub fn balanced_schedule(mut self, balanced: bool) -> Self {
        self.config.balanced_schedule = balanced;
        self
    }

    /// Toggles Eq. 6 predicted-link recovery (paper default `true`).
    pub fn use_predicted_link(mut self, use_predicted_link: bool) -> Self {
        self.config.use_predicted_link = use_predicted_link;
        self
    }

    /// Sets the storage precision of the packed gate matrices (fp32
    /// default; [`Precision::Fp16`]/[`Precision::Int8`] opt into the
    /// quantized weight tiers).
    pub fn precision(mut self, precision: Precision) -> Self {
        self.config.precision = precision;
        self
    }

    /// Finishes the configuration.
    pub fn build(self) -> OptimizerConfig {
        self.config
    }
}

/// Per-layer statistics of one optimized run (feeds the analysis figures).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LayerStats {
    /// Breakpoints found.
    pub breakpoints: usize,
    /// Sub-layers after division.
    pub sublayers: usize,
    /// Tissues executed.
    pub tissues: usize,
    /// Mean tissue size.
    pub mean_tissue_size: f64,
    /// Mean per-cell row-skip fraction (0 when DRS disabled).
    pub mean_skip_fraction: f64,
}

/// Aggregate statistics of one optimized run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct OptRunStats {
    /// One entry per layer.
    pub per_layer: Vec<LayerStats>,
}

impl OptRunStats {
    /// Combines a plan's structural statistics with a run's skip
    /// accounting.
    pub fn from_plan_run(plan: &ExecutionPlan, output: &PlanOutput) -> Self {
        let per_layer = plan
            .layer_stats()
            .iter()
            .zip(&output.layer_skips)
            .map(|(s, skip)| LayerStats {
                breakpoints: s.breakpoints,
                sublayers: s.sublayers,
                tissues: s.tissues,
                mean_tissue_size: s.mean_tissue_size,
                mean_skip_fraction: skip.mean(),
            })
            .collect();
        Self { per_layer }
    }

    /// Mean skip fraction across layers (the DRS compression measure
    /// before the 3/4 united-matrix scaling).
    pub fn mean_skip_fraction(&self) -> f64 {
        if self.per_layer.is_empty() {
            return 0.0;
        }
        self.per_layer
            .iter()
            .map(|l| l.mean_skip_fraction)
            .sum::<f64>()
            / self.per_layer.len() as f64
    }

    /// Mean tissue size across layers.
    pub fn mean_tissue_size(&self) -> f64 {
        if self.per_layer.is_empty() {
            return 0.0;
        }
        self.per_layer
            .iter()
            .map(|l| l.mean_tissue_size)
            .sum::<f64>()
            / self.per_layer.len() as f64
    }
}

/// Plans a network with the memory-friendly optimizations enabled.
#[derive(Debug, Clone)]
pub struct OptimizedExecutor<'a> {
    net: &'a LstmNetwork,
    predictors: &'a NetworkPredictors,
    config: OptimizerConfig,
    analyzers: Vec<RelevanceAnalyzer>,
    device: DeviceModel,
}

impl<'a> OptimizedExecutor<'a> {
    /// Creates an executor planning for the default preset
    /// ([`DeviceModel::default_preset`], the paper's Tegra X1); the
    /// per-layer relevance analyzers (Algorithm 2 line 2) are precomputed
    /// here, once per model. Use [`on_device`](Self::on_device) to plan
    /// for a different device.
    pub fn new(
        net: &'a LstmNetwork,
        predictors: &'a NetworkPredictors,
        config: OptimizerConfig,
    ) -> Self {
        let analyzers = if config.inter {
            net.layers().iter().map(RelevanceAnalyzer::new).collect()
        } else {
            Vec::new()
        };
        Self {
            net,
            predictors,
            config,
            analyzers,
            device: DeviceModel::default_preset(),
        }
    }

    /// Plans for `device` instead of the default preset: compiled plans
    /// record it, are priced on it, and serving engines on other devices
    /// refuse them.
    pub fn on_device(mut self, device: DeviceModel) -> Self {
        self.device = device;
        self
    }

    /// Compiles an [`ExecutionPlan`] against a whole offline set: per-link
    /// relevances are averaged across probes, so the plan only breaks
    /// links that are weak on average over the offline distribution. This
    /// is the right entry point for plan-reuse callers — a plan calibrated
    /// on one sequence breaks links other inputs rely on.
    ///
    /// # Panics
    /// Panics if `probes` is empty, or the sequences are empty or differ
    /// in length: the offline set is fixed by the caller, so a malformed
    /// one is a programming error. [`compile`](crate::compile::compile)
    /// returns these conditions as typed errors.
    pub fn plan_probes(&self, probes: &[Vec<Vector>]) -> ExecutionPlan {
        crate::compile::compile(
            self.net,
            self.predictors,
            &self.analyzers,
            &self.config,
            probes,
            &self.device,
        )
        .unwrap_or_else(|e| panic!("OptimizedExecutor::plan_probes: {e}"))
    }
}

/// Executes a compiled plan once on a fresh instance of the device it was
/// compiled for (`plan.device`) with profiling enabled,
/// returning the priced report and the recorded span profile. Spans are
/// stamped with the device name, so traces from several devices stay
/// distinguishable when folded into one timeline.
///
/// Pricing is identical to an unprofiled [`TraceSession`] run — the
/// profiler observes already-priced kernels and never perturbs cache state
/// — so `report.time_s` equals the sum of span times bit-for-bit.
///
/// [`TraceSession`]: gpu_sim::TraceSession
///
/// # Errors
/// [`Error::EmptyInput`] if `xs` is empty, and
/// [`Error::SeqLenMismatch`] if `xs` does not match the plan's compiled
/// length.
pub fn profile_plan(
    plan: &ExecutionPlan,
    net: &LstmNetwork,
    xs: &[Vector],
) -> MemlstmResult<(gpu_sim::SimReport, gpu_sim::Profiler)> {
    if xs.is_empty() {
        return Err(Error::EmptyInput);
    }
    if xs.len() != plan.seq_len {
        return Err(Error::SeqLenMismatch {
            expected: plan.seq_len,
            actual: xs.len(),
        });
    }
    let mut gpu = gpu_sim::GpuDevice::for_model(&plan.device);
    let mut session = gpu.begin_trace();
    session.enable_profiling();
    session.set_device_tag(plan.device.span_name());
    PlanRuntime::new().run_lstm(plan, net, xs, &mut session);
    let profiler = session.take_profiler().expect("profiling was enabled");
    Ok((session.finish(), profiler))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drs::DrsMode;
    use crate::prediction::NetworkPredictors;
    use gpu_sim::{GpuConfig, GpuDevice, KernelDesc, KernelKind};
    use lstm::ModelConfig;
    use tensor::init::seeded_rng;

    fn setup(
        hidden: usize,
        layers: usize,
        seq: usize,
    ) -> (LstmNetwork, Vec<Vector>, NetworkPredictors) {
        let config = ModelConfig::new("t", hidden, hidden, layers, seq, 4).unwrap();
        let mut rng = seeded_rng(7);
        let net = LstmNetwork::random(&config, &mut rng);
        let xs = lstm::random_inputs(&config, &mut rng);
        let offline: Vec<Vec<Vector>> = (0..4)
            .map(|_| lstm::random_inputs(&config, &mut rng))
            .collect();
        let predictors = NetworkPredictors::collect(&net, &offline);
        (net, xs, predictors)
    }

    /// The one-shot path: compile with `xs` itself as the only probe, run
    /// once, and keep the stream and the run statistics.
    fn run_once(
        net: &LstmNetwork,
        preds: &NetworkPredictors,
        cfg: OptimizerConfig,
        xs: &[Vector],
    ) -> (PlanOutput, Vec<KernelDesc>, OptRunStats) {
        let plan = OptimizedExecutor::new(net, preds, cfg).plan_probes(&[xs.to_vec()]);
        let mut trace: Vec<KernelDesc> = Vec::new();
        let out = PlanRuntime::new().run_lstm(&plan, net, xs, &mut trace);
        let stats = OptRunStats::from_plan_run(&plan, &out);
        (out, trace, stats)
    }

    #[test]
    fn zero_thresholds_reproduce_baseline_numerics() {
        let (net, xs, preds) = setup(24, 2, 8);
        let cfg = OptimizerConfig::builder()
            .alpha_inter(0.0)
            .max_tissue_size(4)
            .build();
        let (out, _, _) = run_once(&net, &preds, cfg, &xs);
        let exact = net.forward(&xs);
        assert_eq!(out.logits, exact.logits);
        assert_eq!(out.layer_hs, exact.layer_hs);
    }

    #[test]
    fn intra_only_zero_alpha_matches_baseline() {
        let (net, xs, preds) = setup(16, 1, 6);
        let cfg = OptimizerConfig::builder()
            .drs(DrsConfig {
                alpha_intra: 0.0,
                mode: DrsMode::Hardware,
            })
            .build();
        // alpha 0 -> DRS disabled -> plain baseline flow, lowered by the
        // baseline compiler's own layer builder.
        let plan = OptimizedExecutor::new(&net, &preds, cfg).plan_probes(std::slice::from_ref(&xs));
        let baseline =
            ExecutionPlan::compile_baseline(&net, xs.len(), &DeviceModel::default_preset());
        assert_eq!(plan, baseline);
        let (out, _, _) = run_once(&net, &preds, cfg, &xs);
        assert_eq!(out.logits, net.forward(&xs).logits);
    }

    #[test]
    fn intra_only_small_alpha_stays_close_to_exact() {
        let (net, xs, preds) = setup(32, 2, 8);
        let cfg = OptimizerConfig::builder()
            .drs(DrsConfig {
                alpha_intra: 0.02,
                mode: DrsMode::Hardware,
            })
            .build();
        let (out, _, _) = run_once(&net, &preds, cfg, &xs);
        let exact = net.forward(&xs);
        let diff = out.logits.sub(&exact.logits).max_abs();
        assert!(diff < 0.5, "DRS with tiny alpha diverged: {diff}");
    }

    #[test]
    fn intra_skip_fraction_grows_with_alpha() {
        let (net, xs, preds) = setup(48, 1, 6);
        let frac_at = |alpha: f32| {
            let cfg = OptimizerConfig::builder()
                .drs(DrsConfig {
                    alpha_intra: alpha,
                    mode: DrsMode::Hardware,
                })
                .build();
            run_once(&net, &preds, cfg, &xs).2.mean_skip_fraction()
        };
        let lo = frac_at(0.01);
        let hi = frac_at(0.2);
        assert!(
            hi >= lo,
            "skip fraction must grow with alpha ({lo} -> {hi})"
        );
        assert!(
            hi > 0.1,
            "saturated output gates should produce real skips, got {hi}"
        );
    }

    #[test]
    fn inter_with_huge_threshold_breaks_everything() {
        let (net, xs, preds) = setup(16, 1, 8);
        let cfg = OptimizerConfig::builder()
            .alpha_inter(RelevanceAnalyzer::max_relevance() + 1.0)
            .max_tissue_size(4)
            .build();
        let (out, _, stats) = run_once(&net, &preds, cfg, &xs);
        assert_eq!(stats.per_layer[0].breakpoints, 7);
        assert_eq!(stats.per_layer[0].sublayers, 8);
        assert_eq!(stats.per_layer[0].tissues, 2); // ceil(8 / 4)
        assert_eq!(out.layer_hs[0].len(), 8);
    }

    #[test]
    fn inter_trace_loads_weights_once_per_tissue() {
        let (net, xs, preds) = setup(64, 1, 12);
        let cfg = OptimizerConfig::builder()
            .alpha_inter(RelevanceAnalyzer::max_relevance() + 1.0)
            .max_tissue_size(4)
            .build();
        let (_, trace, stats) = run_once(&net, &preds, cfg, &xs);
        let sgemm_u = trace
            .iter()
            .filter(|k| k.label.starts_with("Sgemm(U,H)"))
            .count();
        assert_eq!(sgemm_u, stats.per_layer[0].tissues);
        assert_eq!(sgemm_u, 3); // 12 cells / MTS 4
    }

    #[test]
    fn combined_runs_and_skips() {
        let (net, xs, preds) = setup(32, 2, 10);
        let cfg = OptimizerConfig::builder()
            .alpha_inter(RelevanceAnalyzer::max_relevance() / 8.0)
            .max_tissue_size(4)
            .drs(DrsConfig {
                alpha_intra: 0.1,
                mode: DrsMode::Hardware,
            })
            .build();
        let (out, trace, stats) = run_once(&net, &preds, cfg, &xs);
        assert_eq!(out.layer_hs.len(), 2);
        assert!(stats.mean_skip_fraction() > 0.05);
        // Combined trace contains DRS kernels and CRM-routed fic kernels.
        assert!(trace.iter().any(|k| k.kind == KernelKind::Drs));
        assert!(trace.iter().any(|k| k.uses_crm));
    }

    #[test]
    fn optimized_is_faster_than_baseline_on_simulator() {
        let (net, xs, preds) = setup(256, 1, 40);
        let base_plan = ExecutionPlan::compile_baseline(&net, xs.len(), &DeviceModel::tegra_x1());
        let mut base_trace: Vec<KernelDesc> = Vec::new();
        PlanRuntime::new().run_lstm(&base_plan, &net, &xs, &mut base_trace);
        let mut dev = GpuDevice::new(GpuConfig::tegra_x1());
        let base = dev.run_trace(&base_trace);

        let cfg = OptimizerConfig::builder()
            .alpha_inter(RelevanceAnalyzer::max_relevance() + 1.0)
            .max_tissue_size(5)
            .drs(DrsConfig {
                alpha_intra: 0.1,
                mode: DrsMode::Hardware,
            })
            .build();
        let (_, opt_trace, _) = run_once(&net, &preds, cfg, &xs);
        dev.reset();
        let opt = dev.run_trace(&opt_trace);

        let speedup = base.time_s / opt.time_s;
        assert!(speedup > 2.0, "combined speedup only {speedup:.2}x");
        assert!(opt.dram_bytes() < base.dram_bytes());
    }

    #[test]
    fn predicted_link_beats_zero_link() {
        // On a run with many breakpoints, recovering with the Eq. 6
        // prediction must match the exact logits at least as well as a
        // zero vector does, on average over inputs.
        let (net, _, preds) = setup(32, 1, 16);
        let config = net.config().clone();
        let mut rng = seeded_rng(99);
        let alpha = RelevanceAnalyzer::max_relevance() / 4.0;
        let mut err_pred = 0.0f64;
        let mut err_zero = 0.0f64;
        for _ in 0..6 {
            let xs = lstm::random_inputs(&config, &mut rng);
            let exact = net.forward(&xs).logits;
            let inter = OptimizerConfig::builder()
                .alpha_inter(alpha)
                .max_tissue_size(5);
            let with_pred = run_once(&net, &preds, inter.use_predicted_link(true).build(), &xs)
                .0
                .logits;
            let with_zero = run_once(&net, &preds, inter.use_predicted_link(false).build(), &xs)
                .0
                .logits;
            err_pred += f64::from(exact.sub(&with_pred).norm());
            err_zero += f64::from(exact.sub(&with_zero).norm());
        }
        // In reset-dominated synthetic nets the broken links mostly sit at
        // segment boundaries where the state dies anyway, so the two
        // recoveries converge; the prediction must simply not lose badly.
        assert!(
            err_pred <= err_zero * 1.25,
            "prediction ({err_pred:.4}) should not lose to zero link ({err_zero:.4})"
        );
    }

    #[test]
    fn every_cell_output_produced_exactly_once() {
        let (net, xs, preds) = setup(16, 1, 9);
        // Use a threshold that produces a nontrivial division.
        let cfg = OptimizerConfig::builder()
            .alpha_inter(RelevanceAnalyzer::max_relevance() / 6.0)
            .max_tissue_size(3)
            .build();
        let (out, _, _) = run_once(&net, &preds, cfg, &xs);
        assert_eq!(out.layer_hs[0].len(), 9);
        for h in &out.layer_hs[0] {
            assert_eq!(h.len(), 16);
        }
    }

    #[test]
    fn plan_reuse_matches_one_shot_execution() {
        // A plan compiled against a probe and executed twice on one
        // runtime must equal a fresh one-shot compile + run bit for bit —
        // numerics, kernel stream and statistics alike: buffer reuse
        // leaks no state between runs.
        let (net, xs, preds) = setup(32, 2, 10);
        let cfg = OptimizerConfig::builder()
            .alpha_inter(RelevanceAnalyzer::max_relevance() / 6.0)
            .max_tissue_size(4)
            .drs(DrsConfig {
                alpha_intra: 0.08,
                mode: DrsMode::Hardware,
            })
            .build();
        let (once, once_trace, once_stats) = run_once(&net, &preds, cfg, &xs);

        let plan = OptimizedExecutor::new(&net, &preds, cfg).plan_probes(std::slice::from_ref(&xs));
        let mut runtime = PlanRuntime::new();
        for _ in 0..2 {
            let mut trace: Vec<KernelDesc> = Vec::new();
            let out = runtime.run_lstm(&plan, &net, &xs, &mut trace);
            assert_eq!(out, once);
            assert_eq!(trace, once_trace);
            assert_eq!(OptRunStats::from_plan_run(&plan, &out), once_stats);
        }
    }

    #[test]
    fn empty_input_is_rejected() {
        let (net, xs, preds) = setup(8, 1, 4);
        let cfg = OptimizerConfig::builder()
            .alpha_inter(1.0)
            .max_tissue_size(2)
            .build();
        let device = DeviceModel::default_preset();
        let analyzers = [RelevanceAnalyzer::new(&net.layers()[0])];
        assert_eq!(
            crate::compile::compile(&net, &preds, &analyzers, &cfg, &[Vec::new()], &device),
            Err(Error::EmptyProbe)
        );
        let plan = OptimizedExecutor::new(&net, &preds, cfg).plan_probes(&[xs]);
        assert_eq!(
            profile_plan(&plan, &net, &[]).map(|_| ()),
            Err(Error::EmptyInput)
        );
    }
}
