//! Kernel-cost helpers: the [`KernelDesc`] builders of Algorithm 1 and
//! its optimized variants.
//!
//! Every plan compiler — the baselines in [`crate::plan`], the
//! inter-/intra-cell optimized flows and the zero-pruning flow in the
//! `memlstm` crate — builds its kernel templates from these helpers, so
//! all flows price their traffic consistently. The
//! [`PlanRuntime`](crate::plan::PlanRuntime) performs the real arithmetic
//! and streams the planned kernels to a sink.

use crate::regions::RegionAllocator;
use gpu_sim::{KernelDesc, KernelKind, RegionId};

/// Bytes per `f32`.
pub const F32: u64 = 4;

/// Approximate FLOPs per element of the `lstm_ew` kernel (three sigmoids,
/// two tanhs, and the Eq. 3/5 multiply-adds).
pub const EW_FLOPS_PER_ELEM: u64 = 60;

/// Effective column-reuse factor of a GEMM's weight traffic through
/// on-chip memory.
///
/// Narrow GEMMs (the per-tissue `Sgemm(U, H_t)` with a handful of columns)
/// dispatch to GEMV-like kernels without register tiling in the column
/// dimension: every weight element crosses on-chip storage once per
/// column. Wide GEMMs (the per-layer `Sgemm(W, x)` over the whole
/// sequence) use 8-wide register tiles. The interpolation keeps the model
/// continuous in between.
pub fn gemm_weight_reuse(cols: usize) -> f64 {
    const NARROW: f64 = 16.0;
    const WIDE: f64 = 32.0;
    const TILE: f64 = 8.0;
    let c = cols as f64;
    if c <= NARROW {
        1.0
    } else if c >= WIDE {
        TILE
    } else {
        1.0 + (c - NARROW) / (WIDE - NARROW) * (TILE - 1.0)
    }
}

/// On-chip traffic of a GEMM whose weight matrix is `weight_bytes` and
/// whose activation operand is `act_bytes`, over `cols` columns.
pub fn gemm_smem_bytes(weight_bytes: u64, act_bytes: u64, cols: usize) -> u64 {
    (weight_bytes as f64 * cols as f64 / gemm_weight_reuse(cols)) as u64 + act_bytes
}

/// Builds the per-layer `Sgemm(W_{f,i,c,o}, x)` kernel (Algorithm 1
/// line 2).
pub fn wx_sgemm_kernel(
    layer: usize,
    w_region: RegionId,
    hidden: usize,
    input: usize,
    seq_len: usize,
    alloc: &mut RegionAllocator,
) -> KernelDesc {
    let (h, e, n) = (hidden as u64, input as u64, seq_len as u64);
    let w_bytes = 4 * h * e * F32;
    let x_bytes = n * e * F32;
    let out_bytes = n * 4 * h * F32;
    KernelDesc::builder(format!("Sgemm(W,x) layer{layer}"), KernelKind::Sgemm)
        .flops(2 * 4 * h * e * n)
        .read(w_region, w_bytes)
        .read(alloc.fresh(), x_bytes)
        .write(alloc.fresh(), out_bytes)
        .smem(gemm_smem_bytes(w_bytes, x_bytes, seq_len))
        .threads(4 * h * n, 256)
        .fused(4)
        .build()
}

/// Builds the per-layer GRU `Sgemm(W_{r,z,h}, x)` kernel: the four-gate
/// [`wx_sgemm_kernel`] with its flops, on-chip traffic and weight read
/// scaled to three gates.
pub fn gru_wx_sgemm_kernel(
    layer: usize,
    w_region: RegionId,
    hidden: usize,
    input: usize,
    seq_len: usize,
    alloc: &mut RegionAllocator,
) -> KernelDesc {
    let mut wx = wx_sgemm_kernel(layer, w_region, hidden, input, seq_len, alloc);
    wx.label = format!("Sgemm(W_rzh,x) layer{layer}");
    wx.flops = wx.flops * 3 / 4;
    wx.smem_bytes = wx.smem_bytes * 3 / 4;
    wx.fused = 3;
    wx.reads[0].bytes = wx.reads[0].bytes * 3 / 4;
    wx
}

/// Builds a per-cell `Sgemv(U, h_{t-1})` kernel over `rows` output rows
/// (4·hidden for the united matrix, 3·hidden for `U_{f,i,c}`, hidden for
/// `U_o`).
pub fn u_sgemv_kernel(
    label: impl Into<String>,
    u_region: RegionId,
    rows: usize,
    hidden: usize,
    alloc: &mut RegionAllocator,
) -> KernelDesc {
    let (r, h) = (rows as u64, hidden as u64);
    let u_bytes = r * h * F32;
    KernelDesc::builder(label, KernelKind::Sgemv)
        .flops(2 * r * h)
        .read(u_region, u_bytes)
        .read(alloc.fresh(), h * F32)
        .write(alloc.fresh(), r * F32)
        .smem(u_bytes + h * F32)
        .threads(r, 256)
        // One launch covers rows/hidden stacked gate matrices (4 for
        // U_fico, 3 for U_rzh, 1 for a single hoisted gate).
        .fused(u32::try_from(r.checked_div(h).unwrap_or(1)).unwrap_or(1))
        .build()
}

/// Builds the per-tissue `Sgemm(U, H_t)` kernel of the reorganized layer
/// (paper Fig. 10 step 9): the united matrix is loaded once and reused by
/// all `tissue_size` cells.
pub fn tissue_sgemm_kernel(
    label: impl Into<String>,
    u_region: RegionId,
    hidden: usize,
    tissue_size: usize,
    alloc: &mut RegionAllocator,
) -> KernelDesc {
    let (h, t) = (hidden as u64, tissue_size as u64);
    let u_bytes = 4 * h * h * F32;
    let h_bytes = t * h * F32;
    KernelDesc::builder(label, KernelKind::Sgemm)
        .flops(2 * 4 * h * h * t)
        .read(u_region, u_bytes)
        .read(alloc.fresh(), h_bytes)
        .write(alloc.fresh(), t * 4 * h * F32)
        .smem(gemm_smem_bytes(u_bytes, h_bytes, tissue_size))
        .threads(4 * h * t, 256)
        .fused(4)
        .build()
}

/// Builds the element-wise cell-update kernel (`lstm_ew`) for `batch`
/// cells at once (1 in the baseline, the tissue size after
/// reorganization).
pub fn ew_kernel(
    label: impl Into<String>,
    hidden: usize,
    batch: usize,
    alloc: &mut RegionAllocator,
) -> KernelDesc {
    let (h, b) = (hidden as u64, batch as u64);
    // Reads: Wx preacts (4h) + Uh preacts (4h) + biases (4h) + c_prev (h).
    let read_bytes = b * (4 * h + 4 * h + h) * F32 + 4 * h * F32;
    let write_bytes = b * 2 * h * F32;
    KernelDesc::builder(label, KernelKind::ElementWise)
        .flops(EW_FLOPS_PER_ELEM * h * b)
        .read(alloc.fresh(), read_bytes)
        .write(alloc.fresh(), write_bytes)
        .smem(read_bytes + write_bytes)
        .threads(h * b, 128)
        .build()
}

/// Builds the activation-only element-wise kernel computing a single
/// gate for `batch` cells (Algorithm 3 line 5): one sigmoid per element.
pub fn gate_ew_kernel(
    label: impl Into<String>,
    hidden: usize,
    batch: usize,
    alloc: &mut RegionAllocator,
) -> KernelDesc {
    let (h, b) = (hidden as u64, batch as u64);
    let bytes = b * 2 * h * F32 + h * F32;
    KernelDesc::builder(label, KernelKind::ElementWise)
        .flops(12 * h * b)
        .read(alloc.fresh(), bytes)
        .write(alloc.fresh(), b * h * F32)
        .smem(bytes)
        .threads(h * b, 128)
        .build()
}

/// Builds the `DRS(o_t, α_intra, R)` trivial-row selection kernel
/// (Algorithm 3 line 6).
pub fn drs_kernel(
    label: impl Into<String>,
    hidden: usize,
    alloc: &mut RegionAllocator,
) -> KernelDesc {
    let h = hidden as u64;
    KernelDesc::builder(label, KernelKind::Drs)
        .flops(2 * h)
        .read(alloc.fresh(), h * F32)
        .write(alloc.fresh(), h * F32)
        .smem(2 * h * F32)
        .threads(h, 128)
        .build()
}

/// Builds the classifier-head GEMV kernel.
pub fn head_kernel(
    head_region: RegionId,
    classes: usize,
    hidden: usize,
    alloc: &mut RegionAllocator,
) -> KernelDesc {
    let (k, h) = (classes as u64, hidden as u64);
    KernelDesc::builder("head", KernelKind::Other)
        .flops(2 * k * h)
        .read(head_region, k * h * F32)
        .read(alloc.fresh(), h * F32)
        .write(alloc.fresh(), k * F32)
        .smem(k * h * F32)
        .threads(k.max(32), 32)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use crate::network::LstmNetwork;
    use crate::plan::{ExecutionPlan, PlanRuntime};
    use gpu_sim::{DeviceModel, GpuConfig, GpuDevice};
    use tensor::init::seeded_rng;
    use tensor::Vector;

    /// Compiles the baseline plan for `xs` and returns its kernel stream.
    fn baseline_trace(net: &LstmNetwork, xs: &[Vector]) -> (ExecutionPlan, Vec<KernelDesc>) {
        let plan = ExecutionPlan::compile_baseline(net, xs.len(), &DeviceModel::default_preset());
        let mut trace: Vec<KernelDesc> = Vec::new();
        PlanRuntime::new().run_lstm(&plan, net, xs, &mut trace);
        (plan, trace)
    }

    #[test]
    fn baseline_trace_follows_algorithm_1() {
        let config = ModelConfig::new("test", 16, 32, 2, 10, 4).unwrap();
        let mut rng = seeded_rng(42);
        let net = LstmNetwork::random(&config, &mut rng);
        let xs = crate::random_inputs(&config, &mut rng);
        let (_, trace) = baseline_trace(&net, &xs);
        // Per layer: 1 Sgemm + seq_len x (Sgemv + lstm_ew); then the head.
        let per_layer = 1 + 2 * xs.len();
        assert_eq!(trace.len(), 2 * per_layer + 1);
        for layer in trace.chunks(per_layer).take(2) {
            assert_eq!(layer[0].kind, KernelKind::Sgemm);
            assert_eq!(layer[1].kind, KernelKind::Sgemv);
            assert_eq!(layer[2].kind, KernelKind::ElementWise);
        }
        assert_eq!(trace[2 * per_layer].label, "head");
    }

    #[test]
    fn baseline_sgemv_dominates_on_simulator() {
        // The paper's premise: Sgemv is >90% of execution time on realistic
        // sizes. Use a realistically-sized single layer.
        let config = ModelConfig::new("imdb-1l", 512, 512, 1, 80, 2).unwrap();
        let mut rng = seeded_rng(0);
        let net = LstmNetwork::random(&config, &mut rng);
        let xs = crate::random_inputs(&config, &mut rng);
        let (plan, trace) = baseline_trace(&net, &xs);
        let mut dev = GpuDevice::new(GpuConfig::tegra_x1());
        plan.regions.declare_on(
            &mut dev,
            |_| config.united_u_bytes(),
            |l| config.united_w_bytes(l),
        );
        let report = dev.run_trace(&trace);
        let share = report.time_share_of(KernelKind::Sgemv);
        assert!(share > 0.85, "Sgemv share = {share}");
        // Every cell reloads the united matrix: reload factor ~ seq_len.
        assert!(
            dev.max_reload_factor() > 70.0,
            "reload {}",
            dev.max_reload_factor()
        );
    }

    #[test]
    fn gemm_weight_reuse_regimes() {
        assert_eq!(gemm_weight_reuse(1), 1.0);
        assert_eq!(gemm_weight_reuse(5), 1.0);
        assert_eq!(gemm_weight_reuse(16), 1.0);
        assert_eq!(gemm_weight_reuse(32), 8.0);
        assert_eq!(gemm_weight_reuse(200), 8.0);
        let mid = gemm_weight_reuse(24);
        assert!(mid > 1.0 && mid < 8.0);
    }

    #[test]
    fn tissue_kernel_loads_weights_once() {
        let mut alloc = RegionAllocator::new();
        let u = alloc.fresh();
        let k1 = tissue_sgemm_kernel("t1", u, 64, 1, &mut alloc);
        let k5 = tissue_sgemm_kernel("t5", u, 64, 5, &mut alloc);
        // Same weight traffic from DRAM regardless of tissue size...
        assert_eq!(k1.reads[0].bytes, k5.reads[0].bytes);
        // ...but 5x the compute and ~5x the on-chip traffic.
        assert_eq!(k5.flops, 5 * k1.flops);
        assert!(k5.smem_bytes > 4 * k1.smem_bytes);
    }

    #[test]
    fn ew_kernel_scales_with_batch() {
        let mut alloc = RegionAllocator::new();
        let k1 = ew_kernel("ew", 128, 1, &mut alloc);
        let k4 = ew_kernel("ew", 128, 4, &mut alloc);
        assert_eq!(k4.flops, 4 * k1.flops);
        assert!(k4.read_bytes() > 3 * k1.read_bytes());
    }
}
