//! Property tests on the optimized plans: structural invariants that
//! must hold for any threshold configuration.

use gpu_sim::{DeviceModel, KernelDesc};
use lstm::plan::PlanLayerStats;
use lstm::{ExecutionPlan, LstmNetwork, ModelConfig, PlanOutput, PlanRuntime};
use memlstm::drs::{DrsConfig, DrsMode};
use memlstm::exec::{OptimizedExecutor, OptimizerConfig};
use memlstm::prediction::NetworkPredictors;
use proptest::prelude::*;
use tensor::init::seeded_rng;
use tensor::Vector;

fn setup(seed: u64) -> (LstmNetwork, Vec<Vector>, NetworkPredictors) {
    let config = ModelConfig::new("p", 16, 20, 2, 10, 3).unwrap();
    let mut rng = seeded_rng(seed);
    let net = LstmNetwork::random(&config, &mut rng);
    let xs = lstm::random_inputs(&config, &mut rng);
    let offline: Vec<Vec<Vector>> = (0..3)
        .map(|_| lstm::random_inputs(&config, &mut rng))
        .collect();
    let predictors = NetworkPredictors::collect(&net, &offline);
    (net, xs, predictors)
}

/// Compiles `config` with `xs` as the only probe and runs it once,
/// returning the output, the stream and the plan's layer statistics.
fn run_once(
    net: &LstmNetwork,
    predictors: &NetworkPredictors,
    config: OptimizerConfig,
    xs: &[Vector],
) -> (PlanOutput, Vec<KernelDesc>, Vec<PlanLayerStats>) {
    let plan = OptimizedExecutor::new(net, predictors, config).plan_probes(&[xs.to_vec()]);
    let mut trace: Vec<KernelDesc> = Vec::new();
    let out = PlanRuntime::new().run_lstm(&plan, net, xs, &mut trace);
    (out, trace, plan.layer_stats())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn any_threshold_produces_complete_bounded_outputs(
        seed in 0u64..20,
        alpha_inter in 0.0f64..40.0,
        alpha_intra in 0.0f32..0.4,
        mts in 1usize..7,
        mode_hw in any::<bool>(),
    ) {
        let (net, xs, predictors) = setup(seed);
        let mode = if mode_hw { DrsMode::Hardware } else { DrsMode::Software };
        let config = OptimizerConfig::builder().alpha_inter(alpha_inter).max_tissue_size(mts).drs(DrsConfig { alpha_intra, mode }).build();
        let (out, _, stats) = run_once(&net, &predictors, config, &xs);
        prop_assert_eq!(out.layer_hs.len(), 2);
        for hs in &out.layer_hs {
            prop_assert_eq!(hs.len(), xs.len());
            for h in hs {
                prop_assert!(h.max_abs() <= 1.0);
            }
        }
        for (l, skips) in stats.iter().zip(&out.layer_skips) {
            prop_assert!(l.sublayers >= 1);
            prop_assert!(l.tissues >= l.sublayers.min(xs.len()) / xs.len().max(1));
            prop_assert!((0.0..=1.0).contains(&skips.mean()));
        }
        prop_assert_eq!(out.logits.len(), 3);
    }

    #[test]
    fn trace_work_is_conserved(seed in 0u64..20, alpha_inter in 0.0f64..40.0, mts in 1usize..7) {
        // Inter-cell reorganization changes *when* work happens, not how
        // much: the total FLOPs of the U-side kernels must match the
        // baseline's (same matrices, same cells).
        let (net, xs, predictors) = setup(seed);
        let base_plan = ExecutionPlan::compile_baseline(&net, xs.len(), &DeviceModel::default_preset());
        let mut base: Vec<KernelDesc> = Vec::new();
        PlanRuntime::new().run_lstm(&base_plan, &net, &xs, &mut base);
        let (_, opt, _) = run_once(&net, &predictors, OptimizerConfig::builder().alpha_inter(alpha_inter).max_tissue_size(mts).build(), &xs);
        let flops = |trace: &[KernelDesc]| -> u64 {
            trace
                .iter()
                .filter(|k| k.label.contains("(U"))
                .map(|k| k.flops)
                .sum()
        };
        prop_assert_eq!(flops(&base), flops(&opt));
    }

    #[test]
    fn dram_reads_never_increase_with_skipping(seed in 0u64..20, alpha in 0.005f32..0.4) {
        // Intra-cell DRS can only remove weight traffic.
        let (net, xs, predictors) = setup(seed);
        let (_, none, _) = run_once(&net, &predictors, OptimizerConfig::builder().drs(DrsConfig::disabled()).build(), &xs);
        let (_, skip, _) = run_once(
            &net,
            &predictors,
            OptimizerConfig::builder().drs(DrsConfig { alpha_intra: alpha, mode: DrsMode::Hardware }).build(),
            &xs,
        );
        let weight_bytes = |trace: &[KernelDesc]| -> u64 {
            trace
                .iter()
                .filter(|k| k.label.contains("U_fic") || k.label.contains("U_fico"))
                .map(|k| k.read_bytes())
                .sum()
        };
        prop_assert!(weight_bytes(&skip) <= weight_bytes(&none));
    }

    #[test]
    fn higher_alpha_never_reduces_tissue_parallelism(seed in 0u64..10, mts in 2usize..6) {
        // Monotonicity is only guaranteed where the inputs to the relevance
        // analysis are themselves fixed: at layer 0 the probe sequence never
        // changes, so a larger alpha breaks a superset of links, yielding
        // more (never fewer) breakpoints. Deeper layers see the *approximate*
        // hidden states of the reorganized layer below, so their relevances —
        // and hence their breakpoints — can shift non-monotonically with
        // alpha. The longest-first (balanced) scheduler is likewise the
        // monotone one: its tissue count is max(ceil(n / mts), longest
        // sub-layer), which only shrinks as cuts are added; the paper's
        // index-order alignment can produce more tissues from more cuts.
        let (net, xs, predictors) = setup(seed);
        let mut prev_tissues = usize::MAX;
        let mut prev_breakpoints = 0usize;
        for alpha in [0.0, 0.5, 2.0, 8.0, 40.0] {
            let mut config = OptimizerConfig::builder().alpha_inter(alpha).max_tissue_size(mts).build();
            config.balanced_schedule = true;
            let (_, _, stats) = run_once(&net, &predictors, config, &xs);
            let layer0 = &stats[0];
            prop_assert!(
                layer0.breakpoints >= prev_breakpoints,
                "layer-0 breakpoints must not shrink with alpha"
            );
            prop_assert!(
                layer0.tissues <= prev_tissues,
                "layer-0 tissue count must not grow with alpha"
            );
            prev_breakpoints = layer0.breakpoints;
            prev_tissues = layer0.tissues;
        }
    }
}
