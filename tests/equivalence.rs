//! Numerical-equivalence integration tests: the optimized plans must
//! degrade gracefully into the exact computation as thresholds go to zero,
//! and every flow must agree on trace bookkeeping invariants.

use gpu_sim::{DeviceModel, KernelDesc, KernelKind};
use lstm::{ExecutionPlan, LstmNetwork, ModelConfig, PlanOutput, PlanRuntime};
use memlstm::drs::{DrsConfig, DrsMode};
use memlstm::exec::{OptimizedExecutor, OptimizerConfig};
use memlstm::prediction::NetworkPredictors;
use tensor::init::seeded_rng;
use tensor::Vector;

fn setup() -> (LstmNetwork, Vec<Vector>, NetworkPredictors) {
    let config = ModelConfig::new("eq", 32, 48, 2, 12, 3).unwrap();
    let mut rng = seeded_rng(77);
    let net = LstmNetwork::random(&config, &mut rng);
    let xs = lstm::random_inputs(&config, &mut rng);
    let offline: Vec<Vec<Vector>> = (0..4)
        .map(|_| lstm::random_inputs(&config, &mut rng))
        .collect();
    let predictors = NetworkPredictors::collect(&net, &offline);
    (net, xs, predictors)
}

/// Compiles `config` with `xs` as the only probe and runs it once.
fn run_once(
    net: &LstmNetwork,
    predictors: &NetworkPredictors,
    config: OptimizerConfig,
    xs: &[Vector],
) -> (ExecutionPlan, PlanOutput, Vec<KernelDesc>) {
    let plan = OptimizedExecutor::new(net, predictors, config).plan_probes(&[xs.to_vec()]);
    let mut trace: Vec<KernelDesc> = Vec::new();
    let out = PlanRuntime::new().run_lstm(&plan, net, xs, &mut trace);
    (plan, out, trace)
}

#[test]
fn zero_threshold_configs_are_bit_exact() {
    let (net, xs, predictors) = setup();
    let exact = net.forward(&xs);
    for config in [
        OptimizerConfig::builder()
            .alpha_inter(0.0)
            .max_tissue_size(5)
            .build(),
        OptimizerConfig::builder()
            .drs(DrsConfig::disabled())
            .build(),
        OptimizerConfig::builder()
            .alpha_inter(0.0)
            .max_tissue_size(5)
            .drs(DrsConfig::disabled())
            .build(),
    ] {
        let (_, out, _) = run_once(&net, &predictors, config, &xs);
        assert_eq!(out.logits, exact.logits, "config {config:?} diverged");
    }
}

#[test]
fn baseline_executor_is_bit_exact() {
    let (net, xs, _) = setup();
    let plan = ExecutionPlan::compile_baseline(&net, xs.len(), &DeviceModel::default_preset());
    let out = PlanRuntime::new().run_lstm(&plan, &net, &xs, &mut lstm::plan::NullSink);
    assert_eq!(out, net.forward(&xs));
}

#[test]
fn every_trace_reads_weights_from_declared_regions() {
    let (net, xs, predictors) = setup();
    let configs = vec![
        OptimizerConfig::builder()
            .alpha_inter(2.0)
            .max_tissue_size(4)
            .build(),
        OptimizerConfig::builder()
            .drs(DrsConfig {
                alpha_intra: 0.05,
                mode: DrsMode::Hardware,
            })
            .build(),
        OptimizerConfig::builder()
            .alpha_inter(2.0)
            .max_tissue_size(4)
            .drs(DrsConfig {
                alpha_intra: 0.05,
                mode: DrsMode::Software,
            })
            .build(),
    ];
    for config in configs {
        let (plan, _, trace) = run_once(&net, &predictors, config, &xs);
        let weight_regions: std::collections::HashSet<_> = plan
            .regions
            .layers
            .iter()
            .flat_map(|l| [l.u_full, l.u_o, l.u_fic, l.w])
            .collect();
        // Every matrix kernel must read at least one declared weight region.
        for kernel in &trace {
            if matches!(kernel.kind, KernelKind::Sgemv | KernelKind::Sgemm) {
                assert!(
                    kernel
                        .reads
                        .iter()
                        .any(|a| weight_regions.contains(&a.region)),
                    "kernel {} reads no weight region",
                    kernel.label
                );
            }
        }
    }
}

#[test]
fn optimized_outputs_cover_every_timestep_once() {
    let (net, xs, predictors) = setup();
    for alpha in [0.5, 2.0, 8.0, 33.0] {
        let config = OptimizerConfig::builder()
            .alpha_inter(alpha)
            .max_tissue_size(3)
            .build();
        let (_, out, _) = run_once(&net, &predictors, config, &xs);
        for hs in &out.layer_hs {
            assert_eq!(hs.len(), xs.len());
            for h in hs {
                assert_eq!(h.len(), 48);
                assert!(h.max_abs() <= 1.0, "h escaped the LSTM output range");
            }
        }
    }
}

#[test]
fn determinism_across_runs() {
    let (net, xs, predictors) = setup();
    let config = OptimizerConfig::builder()
        .alpha_inter(2.0)
        .max_tissue_size(4)
        .drs(DrsConfig {
            alpha_intra: 0.08,
            mode: DrsMode::Hardware,
        })
        .build();
    let (plan_a, a, trace_a) = run_once(&net, &predictors, config, &xs);
    let (plan_b, b, trace_b) = run_once(&net, &predictors, config, &xs);
    assert_eq!(plan_a, plan_b);
    assert_eq!(a, b);
    assert_eq!(trace_a, trace_b);
}

mod plan_properties {
    //! Property tests for the plan/runtime split: every flow — the
    //! baseline, the inter / intra / combined optimized flows and the
    //! zero-pruning flow — is a compiled plan on one `PlanRuntime`, so
    //! streamed pricing must equal pricing the collected stream, reruns
    //! on a warm runtime must change nothing, and probe-independent plans
    //! must be reusable across inputs; the GRU plans must replay
    //! identically on a reused runtime.

    use super::*;
    use gpu_sim::{GpuConfig, GpuDevice};
    use lstm::GruNetwork;
    use memlstm::compile_gru_drs;
    use memlstm::exec::OptRunStats;
    use memlstm::pruning::ZeroPruning;
    use proptest::prelude::*;

    fn small_setup(seed: u64) -> (LstmNetwork, Vec<Vector>, NetworkPredictors) {
        let config = ModelConfig::new("eqp", 16, 32, 2, 8, 3).unwrap();
        let mut rng = seeded_rng(seed);
        let net = LstmNetwork::random(&config, &mut rng);
        let xs = lstm::random_inputs(&config, &mut rng);
        let offline: Vec<Vec<Vector>> = (0..3)
            .map(|_| lstm::random_inputs(&config, &mut rng))
            .collect();
        let predictors = NetworkPredictors::collect(&net, &offline);
        (net, xs, predictors)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]

        /// For each flow: streaming a second execution on the *same*
        /// runtime into a `TraceSession` must price exactly like
        /// `run_trace` over the first execution's collected stream, and
        /// the two executions must agree on numerics and run statistics
        /// (proving both the sink path and the runtime's statelessness
        /// across runs).
        #[test]
        fn streamed_pricing_equals_collected_pricing_for_every_flow(
            seed in 0u64..16,
            alpha_inter in 0.0f64..40.0,
            alpha_intra in 0.005f32..0.4,
            mts in 1usize..7,
            mode_hw in any::<bool>(),
        ) {
            let (net, xs, predictors) = small_setup(seed);
            let device = DeviceModel::tegra_x1();
            let mode = if mode_hw { DrsMode::Hardware } else { DrsMode::Software };
            let drs = DrsConfig { alpha_intra, mode };
            let zp = ZeroPruning::calibrate(&net, 0.37).unwrap();
            let pruned = zp.prune_network(&net);
            let mut flows = vec![
                ("baseline", ExecutionPlan::compile_baseline(&net, xs.len(), &device), &net),
                ("zero-pruning", zp.compile(&net, xs.len(), &device).unwrap(), &pruned),
            ];
            for (name, config) in [
                ("inter", OptimizerConfig::builder().alpha_inter(alpha_inter).max_tissue_size(mts).build()),
                ("intra", OptimizerConfig::builder().drs(drs).build()),
                ("combined", OptimizerConfig::builder().alpha_inter(alpha_inter).max_tissue_size(mts).drs(drs).build()),
            ] {
                let plan = OptimizedExecutor::new(&net, &predictors, config)
                    .plan_probes(std::slice::from_ref(&xs));
                flows.push((name, plan, &net));
            }
            for (name, plan, exec_net) in &flows {
                let mut runtime = PlanRuntime::new();
                let mut trace: Vec<KernelDesc> = Vec::new();
                let out = runtime.run_lstm(plan, exec_net, &xs, &mut trace);
                let collected = GpuDevice::new(GpuConfig::tegra_x1()).run_trace(&trace);

                let mut stream_dev = GpuDevice::new(GpuConfig::tegra_x1());
                let mut session = stream_dev.begin_trace();
                let out2 = runtime.run_lstm(plan, exec_net, &xs, &mut session);
                prop_assert_eq!(session.finish(), collected, "pricing diverged: {}", name);
                prop_assert_eq!(&out2, &out, "runtime is not stateless: {}", name);
                prop_assert_eq!(
                    OptRunStats::from_plan_run(plan, &out2),
                    OptRunStats::from_plan_run(plan, &out),
                    "stats diverged: {}",
                    name
                );
            }
        }

        /// Probe-independent plans (baseline and intra-only DRS) may be
        /// compiled once and reused across many inputs: each execution on
        /// the shared runtime must match a fresh compile for that input
        /// run on a fresh runtime.
        #[test]
        fn plan_reuse_across_inputs_matches_per_input_compiles(
            seed in 0u64..16,
            alpha_intra in 0.005f32..0.4,
            mode_hw in any::<bool>(),
        ) {
            let (net, xs, predictors) = small_setup(seed);
            let mode = if mode_hw { DrsMode::Hardware } else { DrsMode::Software };
            let config = OptimizerConfig::builder().drs(DrsConfig { alpha_intra, mode }).build();
            let exec = OptimizedExecutor::new(&net, &predictors, config);
            let plan = exec.plan_probes(std::slice::from_ref(&xs));
            let base_plan = ExecutionPlan::compile_baseline(&net, xs.len(), &DeviceModel::tegra_x1());
            let mut runtime = PlanRuntime::new();
            let mut rng = seeded_rng(seed.wrapping_add(1000));
            for _ in 0..3 {
                let input = lstm::random_inputs(net.config(), &mut rng);
                let mut trace: Vec<KernelDesc> = Vec::new();
                let out = runtime.run_lstm(&plan, &net, &input, &mut trace);
                let (_, fresh, fresh_trace) = run_once(&net, &predictors, config, &input);
                prop_assert_eq!(&out.logits, &fresh.logits);
                prop_assert_eq!(trace, fresh_trace);

                let base_out =
                    runtime.run_lstm(&base_plan, &net, &input, &mut lstm::plan::NullSink);
                prop_assert_eq!(base_out.logits, net.forward(&input).logits);
            }
        }

        /// The GRU variants go through the same plan pipeline: the
        /// baseline and the DRS GRU plans replayed back to back on one
        /// runtime must each equal a fresh-runtime execution, skip
        /// statistics and trace included.
        #[test]
        fn gru_plans_on_a_shared_runtime_equal_fresh_runtimes(
            seed in 0u64..16,
            alpha_intra in 0.005f32..0.3,
            mode_hw in any::<bool>(),
        ) {
            let mut rng = seeded_rng(seed);
            let net = GruNetwork::random(12, 40, 2, 3, &mut rng);
            use rand::Rng;
            let xs: Vec<Vector> =
                (0..6).map(|_| Vector::from_fn(12, |_| rng.gen_range(-1.0f32..1.0))).collect();

            let device = DeviceModel::tegra_x1();
            let mode = if mode_hw { DrsMode::Hardware } else { DrsMode::Software };
            let plans = [
                ExecutionPlan::compile_gru_baseline(&net, xs.len(), &device),
                compile_gru_drs(&net, DrsConfig { alpha_intra, mode }, xs.len(), &device).unwrap(),
            ];
            let mut shared = PlanRuntime::new();
            for plan in &plans {
                let mut fresh_trace: Vec<KernelDesc> = Vec::new();
                let fresh = PlanRuntime::new().run_gru(plan, &net, &xs, &mut fresh_trace);
                let mut trace: Vec<KernelDesc> = Vec::new();
                let out = shared.run_gru(plan, &net, &xs, &mut trace);
                prop_assert_eq!(&out, &fresh);
                prop_assert_eq!(trace, fresh_trace);
            }
        }
    }
}

#[test]
fn gru_masked_step_converges_to_exact() {
    // The paper's "applies to GRUs with simple adjustment" claim.
    use lstm::gru::GruWeights;
    let mut rng = seeded_rng(5);
    let w = GruWeights::random(16, 24, &mut rng);
    let mut h_exact = Vector::zeros(24);
    let mut h_masked = Vector::zeros(24);
    use rand::Rng;
    for _ in 0..8 {
        let x = Vector::from_fn(16, |_| rng.gen_range(-1.0f32..1.0));
        let z = w.update_gate(&x, &h_masked);
        let active = memlstm::drs::trivial_row_mask(&z, 0.02);
        h_exact = w.step(&x, &h_exact);
        h_masked = w.step_masked(&x, &h_masked, &z, &active);
    }
    // Skipping only the near-closed update gates keeps trajectories close.
    let diff = h_exact.sub(&h_masked).max_abs();
    assert!(diff < 0.25, "GRU DRS diverged: {diff}");
}
