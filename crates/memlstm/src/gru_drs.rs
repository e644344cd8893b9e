//! The Dynamic-Row-Skip adaptation for GRUs (paper Sec. II-B: the
//! proposed methods "can also be applied to GRUs with simple adjustment").
//!
//! The adjustment: a GRU's output is gated by the update gate —
//! `h_t = (1 - z_t) ⊙ h_{t-1} + z_t ⊙ h̃_t` — so a near-zero element of
//! `z_t` makes the unit copy its history regardless of the candidate.
//! The reordered flow computes `z_t` first (`Sgemv(U_z, h)`), thresholds
//! it, and skips the corresponding rows of `U_r` and `U_h` (two thirds of
//! the united matrix).
//!
//! [`compile_gru_drs`] lowers the flow into an [`ExecutionPlan`] whose
//! masked `Sgemv(U_rh, h, R)` is a [`MaskedUKernel`] template
//! instantiated at runtime from the actual update-gate values; the plan
//! runs on [`PlanRuntime::run_gru`](lstm::plan::PlanRuntime::run_gru)
//! like every other GRU plan. Quantized weight tiers come from
//! [`ExecutionPlan::with_precision`].

use crate::drs::DrsConfig;
use crate::error::{Error, MemlstmResult};
use gpu_sim::DeviceModel;
use lstm::gru_exec::GruNetwork;
use lstm::plan::{
    ExecutionPlan, GruDrsCellPlan, GruLayerBody, GruLayerPlan, MaskedUKernel, PlanBody,
};
use lstm::regions::{NetworkRegions, RegionAllocator};
use lstm::schedule::{drs_kernel, ew_kernel, gru_wx_sgemm_kernel, head_kernel, u_sgemv_kernel};
use tensor::Precision;

/// Compiles the GRU Dynamic-Row-Skip flow for `net` into an fp32
/// [`ExecutionPlan`] for sequences of length `seq_len` on `device`.
///
/// # Errors
/// [`Error::EmptyInput`] if `seq_len` is zero.
pub fn compile_gru_drs(
    net: &GruNetwork,
    drs: DrsConfig,
    seq_len: usize,
    device: &DeviceModel,
) -> MemlstmResult<ExecutionPlan> {
    if seq_len == 0 {
        return Err(Error::EmptyInput);
    }
    let hidden = net.hidden();
    let num_layers = net.layers().len();
    let mut alloc = RegionAllocator::new();
    let regions = NetworkRegions::allocate(&mut alloc, num_layers);
    let mut layers = Vec::with_capacity(num_layers);
    for (l, layer) in net.layers().iter().enumerate() {
        // The same three-gate W·x as the baseline: DRS changes only the
        // recurrent products.
        let wx = gru_wx_sgemm_kernel(
            l,
            regions.layers[l].w,
            hidden,
            layer.input_dim(),
            seq_len,
            &mut alloc,
        );
        let cells = (0..seq_len)
            .map(|t| GruDrsCellPlan {
                // Step 1: the update gate alone (U_z slice).
                uz: u_sgemv_kernel(
                    format!("Sgemv(U_z,h) l{l} t{t}"),
                    regions.layers[l].u_o,
                    hidden,
                    hidden,
                    &mut alloc,
                ),
                // Step 2: threshold into the skip list.
                select: drs_kernel(format!("DRS l{l} t{t}"), hidden, &mut alloc),
                // Step 3: the masked U_{r,h} GEMV (two gates) — priced
                // at runtime from the actual z_t mask.
                masked: MaskedUKernel::new(
                    format!("Sgemv(U_rh,h,R) l{l} t{t}"),
                    2,
                    hidden,
                    1,
                    regions.layers[l].u_fic,
                    drs.mode,
                    false,
                    &mut alloc,
                ),
                ew: ew_kernel(format!("gru_ew l{l} t{t}"), hidden, 1, &mut alloc),
            })
            .collect();
        layers.push(GruLayerPlan {
            wx,
            body: GruLayerBody::Drs {
                alpha_intra: drs.alpha_intra,
                cells,
            },
        });
    }
    let head = head_kernel(regions.head, net.num_classes(), hidden, &mut alloc);
    Ok(ExecutionPlan {
        regions,
        seq_len,
        body: PlanBody::Gru(layers),
        head,
        device: device.clone(),
        precision: Precision::Fp32,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drs::DrsMode;
    use gpu_sim::{GpuConfig, GpuDevice, KernelDesc};
    use lstm::plan::{PlanOutput, PlanRuntime};
    use rand::Rng;
    use tensor::init::seeded_rng;
    use tensor::Vector;

    fn setup() -> (GruNetwork, Vec<Vector>) {
        let mut rng = seeded_rng(8);
        // Hidden width large enough that the united matrix does not fit in
        // the L2 (the realistic regime where DRS traffic savings show).
        let net = GruNetwork::random(24, 256, 1, 3, &mut rng);
        let xs: Vec<Vector> = (0..8)
            .map(|_| Vector::from_fn(24, |_| rng.gen_range(-1.0f32..1.0)))
            .collect();
        (net, xs)
    }

    fn plan_at(net: &GruNetwork, alpha_intra: f32, seq_len: usize) -> ExecutionPlan {
        let drs = DrsConfig {
            alpha_intra,
            mode: DrsMode::Hardware,
        };
        compile_gru_drs(net, drs, seq_len, &DeviceModel::default_preset()).unwrap()
    }

    fn run_at(net: &GruNetwork, alpha_intra: f32, xs: &[Vector]) -> (PlanOutput, Vec<KernelDesc>) {
        let plan = plan_at(net, alpha_intra, xs.len());
        let mut trace = Vec::new();
        let out = PlanRuntime::new().run_gru(&plan, net, xs, &mut trace);
        (out, trace)
    }

    #[test]
    fn zero_alpha_matches_exact() {
        let (net, xs) = setup();
        let (out, _) = run_at(&net, 0.0, &xs);
        let logits = net.forward(&xs).logits;
        assert_eq!(out.mean_skip_fraction(), 0.0);
        for (a, b) in out.logits.iter().zip(logits.iter()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn skipping_reduces_simulated_time() {
        let (net, xs) = setup();
        let mut device = GpuDevice::new(GpuConfig::tegra_x1());
        let base_plan =
            ExecutionPlan::compile_gru_baseline(&net, xs.len(), &DeviceModel::default_preset());
        let mut base_trace: Vec<KernelDesc> = Vec::new();
        PlanRuntime::new().run_gru(&base_plan, &net, &xs, &mut base_trace);
        let base = device.run_trace(base_trace.iter());
        let (out, trace) = run_at(&net, 0.08, &xs);
        device.reset();
        let opt = device.run_trace(trace.iter());
        let skip = out.mean_skip_fraction();
        assert!(skip > 0.1, "no rows skipped: {skip}");
        assert!(opt.dram_read_bytes < base.dram_read_bytes);
    }

    #[test]
    fn skipped_units_copy_history() {
        let (net, xs) = setup();
        let (out, _) = run_at(&net, 0.05, &xs);
        let exact = net.forward(&xs);
        // Bounded divergence from the exact trajectory.
        let last_exact = exact.layer_hs.last().unwrap().last().unwrap();
        let last_opt = out.layer_hs.last().unwrap().last().unwrap();
        assert!(last_exact.sub(last_opt).max_abs() < 0.4);
    }

    #[test]
    fn skip_fraction_grows_with_alpha() {
        let (net, xs) = setup();
        let skip_at = |alpha: f32| run_at(&net, alpha, &xs).0.mean_skip_fraction();
        assert!(skip_at(0.15) >= skip_at(0.03));
    }

    #[test]
    fn plan_reuse_matches_one_shot_execution() {
        // One plan replayed on a reused runtime must equal a fresh
        // compile-and-run bit for bit — numerics, skips and kernel stream.
        let (net, xs) = setup();
        let (one_shot, one_shot_trace) = run_at(&net, 0.08, &xs);

        let plan = plan_at(&net, 0.08, xs.len());
        let mut runtime = PlanRuntime::new();
        for _ in 0..2 {
            let mut trace: Vec<KernelDesc> = Vec::new();
            let out = runtime.run_gru(&plan, &net, &xs, &mut trace);
            assert_eq!(out, one_shot);
            assert_eq!(trace, one_shot_trace);
        }
    }

    #[test]
    fn wx_kernels_match_the_baseline() {
        // DRS reorders only the recurrent products, so every layer's W·x
        // is priced exactly as the baseline prices it.
        let (net, xs) = setup();
        let wx_of = |plan: ExecutionPlan| match plan.body {
            PlanBody::Gru(layers) => layers.into_iter().map(|l| l.wx).collect::<Vec<_>>(),
            PlanBody::Lstm(_) => panic!("not a GRU plan"),
        };
        let base =
            ExecutionPlan::compile_gru_baseline(&net, xs.len(), &DeviceModel::default_preset());
        assert_eq!(wx_of(plan_at(&net, 0.08, xs.len())), wx_of(base));
    }

    #[test]
    fn zero_length_is_rejected() {
        let (net, _) = setup();
        let plan = compile_gru_drs(&net, DrsConfig::disabled(), 0, &DeviceModel::tegra_x1());
        assert_eq!(plan, Err(Error::EmptyInput));
    }
}
