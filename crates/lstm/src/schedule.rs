//! Kernel-cost helpers and the baseline (Algorithm 1) executor.
//!
//! Every executor in this repository — the baseline here, and the
//! inter-/intra-cell optimized flows in the `memlstm` crate — performs the
//! real arithmetic *and* emits [`KernelDesc`]s describing what the GPU
//! would have executed. The helpers in this module centralize the traffic
//! accounting so all executors price kernels consistently.

use crate::network::LstmNetwork;
use crate::plan::{ExecutionPlan, PlanRuntime, TraceCollector};
use crate::regions::{NetworkRegions, RegionAllocator};
use gpu_sim::{DeviceModel, GpuDevice, KernelDesc, KernelKind, RegionId};
use tensor::Vector;

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

/// The numbers and trace produced by executing one layer.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerRun {
    /// Hidden outputs per timestep.
    pub hs: Vec<Vector>,
    /// Kernels this layer launched, in order.
    pub trace: Vec<KernelDesc>,
}

/// The numbers and trace produced by executing a whole network.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkRun {
    /// Per-layer results.
    pub layers: Vec<LayerRun>,
    /// Task-head logits.
    pub logits: Vector,
    /// Head/auxiliary kernels launched after the layers.
    pub tail_trace: Vec<KernelDesc>,
    /// The persistent weight regions used by the trace.
    pub regions: NetworkRegions,
}

impl NetworkRun {
    /// Iterates over the full kernel trace in execution order.
    pub fn trace(&self) -> impl Iterator<Item = &KernelDesc> {
        self.layers
            .iter()
            .flat_map(|l| l.trace.iter())
            .chain(self.tail_trace.iter())
    }

    /// The argmax class of the logits.
    ///
    /// # Panics
    /// Panics if the logits are empty.
    pub fn predicted_class(&self) -> usize {
        self.logits
            .argmax()
            .expect("head produces at least one logit")
    }

    /// Declares the run's weight regions on a device (reload tracking),
    /// using the network the run came from.
    pub fn declare_regions(&self, device: &mut GpuDevice, net: &LstmNetwork) {
        let cfg = net.config();
        self.regions
            .declare_on(device, |_| cfg.united_u_bytes(), |l| cfg.united_w_bytes(l));
    }
}

/// The state-of-the-art baseline: Algorithm 1 with cuDNN-style kernels —
/// one `Sgemm(W, x)` per layer, then a strictly sequential per-cell loop of
/// `Sgemv(U_{f,i,c,o}, h_{t-1})` + `lstm_ew`.
///
/// This is a facade over the plan pipeline: `run` compiles a baseline
/// [`ExecutionPlan`] for the input's length and executes it immediately.
/// Callers that run many sequences should compile the plan once with
/// [`ExecutionPlan::compile_baseline`] and reuse a
/// [`PlanRuntime`] instead.
#[derive(Debug, Clone, Copy)]
pub struct BaselineExecutor<'a> {
    net: &'a LstmNetwork,
    device: Option<&'a DeviceModel>,
}

impl<'a> BaselineExecutor<'a> {
    /// Creates a baseline executor over `net`, planning for the default
    /// preset ([`DeviceModel::default_preset`], the paper's Tegra X1).
    pub fn new(net: &'a LstmNetwork) -> Self {
        Self { net, device: None }
    }

    /// Plans for `device` instead of the default preset. The numerics are
    /// device-independent; the device only stamps the compiled plan.
    pub fn on_device(mut self, device: &'a DeviceModel) -> Self {
        self.device = Some(device);
        self
    }

    /// Runs the network on `xs`, producing exact numbers and the kernel
    /// trace.
    ///
    /// # Panics
    /// Panics if `xs` is empty.
    pub fn run(&self, xs: &[Vector]) -> NetworkRun {
        assert!(!xs.is_empty(), "BaselineExecutor::run: empty input");
        let device = self
            .device
            .cloned()
            .unwrap_or_else(DeviceModel::default_preset);
        let plan = ExecutionPlan::compile_baseline(self.net, xs.len(), &device);
        let mut collector = TraceCollector::default();
        let output = PlanRuntime::new().run_lstm(&plan, self.net, xs, &mut collector);
        collector.into_network_run(plan.regions, output)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use gpu_sim::GpuConfig;
    use tensor::init::seeded_rng;

    fn setup() -> (LstmNetwork, Vec<Vector>) {
        let config = ModelConfig::new("test", 16, 32, 2, 10, 4).unwrap();
        let mut rng = seeded_rng(42);
        let net = LstmNetwork::random(&config, &mut rng);
        let xs = crate::random_inputs(&config, &mut rng);
        (net, xs)
    }

    #[test]
    fn baseline_matches_exact_forward() {
        let (net, xs) = setup();
        let run = BaselineExecutor::new(&net).run(&xs);
        let exact = net.forward(&xs);
        assert_eq!(run.logits, exact.logits);
        for (lr, hs) in run.layers.iter().zip(&exact.layer_outputs) {
            assert_eq!(&lr.hs, hs);
        }
    }

    #[test]
    fn baseline_trace_follows_algorithm_1() {
        let (net, xs) = setup();
        let run = BaselineExecutor::new(&net).run(&xs);
        // Per layer: 1 Sgemm + seq_len x (Sgemv + lstm_ew).
        for lr in &run.layers {
            assert_eq!(lr.trace.len(), 1 + 2 * xs.len());
            assert_eq!(lr.trace[0].kind, KernelKind::Sgemm);
            assert_eq!(lr.trace[1].kind, KernelKind::Sgemv);
            assert_eq!(lr.trace[2].kind, KernelKind::ElementWise);
        }
        assert_eq!(run.trace().count(), 2 * (1 + 2 * xs.len()) + 1);
    }

    #[test]
    fn baseline_sgemv_dominates_on_simulator() {
        // The paper's premise: Sgemv is >90% of execution time on realistic
        // sizes. Use a realistically-sized single layer.
        let config = ModelConfig::new("imdb-1l", 512, 512, 1, 80, 2).unwrap();
        let mut rng = seeded_rng(0);
        let net = LstmNetwork::random(&config, &mut rng);
        let xs = crate::random_inputs(&config, &mut rng);
        let run = BaselineExecutor::new(&net).run(&xs);
        let mut dev = GpuDevice::new(GpuConfig::tegra_x1());
        run.declare_regions(&mut dev, &net);
        let report = dev.run_trace(run.trace());
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
