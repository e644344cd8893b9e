//! GRU network execution with kernel traces — the substrate for the
//! paper's Sec. II-B claim that the optimizations "can also be applied to
//! GRUs with simple adjustment".
//!
//! The cuDNN-style GRU schedule mirrors Algorithm 1: one per-layer
//! `Sgemm(W_{r,z,h}, x)` for the input-side terms, then a sequential
//! per-cell `Sgemv(U_{r,z,h}, h_{t-1})` + element-wise update. The united
//! recurrent matrix is `3·hidden x hidden` (three gates instead of four).

use crate::gru::{GruLayer, GruWeights};
use gpu_sim::KernelDesc;
use rand::Rng;
use tensor::gemm::{sgemv_bias, sgemv_bias_into};
use tensor::init::{gaussian_matrix, gaussian_vector};
use tensor::{Matrix, Vector};

/// A stack of GRU layers plus a linear task head.
#[derive(Debug, Clone, PartialEq)]
pub struct GruNetwork {
    layers: Vec<GruLayer>,
    head_w: Matrix,
    head_b: Vector,
    hidden: usize,
    input_dim: usize,
    num_classes: usize,
}

impl GruNetwork {
    /// Samples a GRU stack with trained-like statistics.
    ///
    /// # Panics
    /// Panics if any dimension is zero.
    pub fn random(
        input_dim: usize,
        hidden: usize,
        num_layers: usize,
        num_classes: usize,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(
            input_dim > 0 && hidden > 0 && num_layers > 0 && num_classes > 0,
            "GruNetwork::random: zero dimension"
        );
        let layers = (0..num_layers)
            .map(|l| {
                let dim = if l == 0 { input_dim } else { hidden };
                GruLayer::new(GruWeights::random(dim, hidden, rng))
            })
            .collect();
        Self {
            layers,
            head_w: gaussian_matrix(rng, num_classes, hidden, 0.4),
            head_b: gaussian_vector(rng, num_classes, 0.0, 0.1),
            hidden,
            input_dim,
            num_classes,
        }
    }

    /// The layer stack.
    pub fn layers(&self) -> &[GruLayer] {
        &self.layers
    }

    /// Hidden width.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Input width of the first layer.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Number of task-head classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Applies the task head.
    pub fn apply_head(&self, h: &Vector) -> Vector {
        sgemv_bias(&self.head_w, h, &self.head_b)
    }

    /// [`apply_head`](Self::apply_head) into a recycled vector —
    /// bit-identical, zero allocations once warm.
    pub fn apply_head_into(&self, h: &Vector, out: &mut Vector) {
        sgemv_bias_into(&self.head_w, h, &self.head_b, out);
    }

    /// Exact forward pass; returns per-layer hidden sequences and logits.
    ///
    /// # Panics
    /// Panics if `xs` is empty.
    pub fn forward(&self, xs: &[Vector]) -> (Vec<Vec<Vector>>, Vector) {
        assert!(!xs.is_empty(), "GruNetwork::forward: empty input");
        let mut outputs = Vec::with_capacity(self.layers.len());
        let mut current = xs.to_vec();
        for layer in &self.layers {
            let hs = layer.forward(&current, &Vector::zeros(self.hidden));
            current = hs.clone();
            outputs.push(hs);
        }
        let logits = self.apply_head(current.last().expect("non-empty"));
        (outputs, logits)
    }
}

/// Scales the first (weight) read of a kernel by `num/den` — used to turn
/// four-gate traffic into three-gate traffic.
pub(crate) fn scale_weight_reads(kernel: &mut KernelDesc, num: u64, den: u64) {
    if let Some(access) = kernel.reads.first_mut() {
        access.bytes = access.bytes * num / den;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{ExecutionPlan, PlanRuntime, TraceCollector};
    use crate::schedule::NetworkRun;
    use gpu_sim::{DeviceModel, GpuConfig, GpuDevice, KernelKind};
    use tensor::init::seeded_rng;

    fn setup() -> (GruNetwork, Vec<Vector>) {
        let mut rng = seeded_rng(3);
        let net = GruNetwork::random(12, 16, 2, 4, &mut rng);
        let xs: Vec<Vector> = (0..6)
            .map(|_| Vector::from_fn(12, |_| rng.gen_range(-1.0f32..1.0)))
            .collect();
        (net, xs)
    }

    /// The baseline schedule compiled for `xs` and run once, with the
    /// per-layer trace kept.
    fn run(net: &GruNetwork, xs: &[Vector]) -> NetworkRun {
        let plan =
            ExecutionPlan::compile_gru_baseline(net, xs.len(), &DeviceModel::default_preset());
        let mut collector = TraceCollector::default();
        let output = PlanRuntime::new().run_gru(&plan, net, xs, &mut collector);
        collector.into_network_run(plan.regions, output)
    }

    #[test]
    fn executor_matches_exact_forward() {
        let (net, xs) = setup();
        let run = run(&net, &xs);
        let (outputs, logits) = net.forward(&xs);
        assert_eq!(run.logits, logits);
        for (lr, hs) in run.layers.iter().zip(&outputs) {
            assert_eq!(&lr.hs, hs);
        }
    }

    #[test]
    fn trace_structure_mirrors_algorithm_1() {
        let (net, xs) = setup();
        let run = run(&net, &xs);
        for lr in &run.layers {
            assert_eq!(lr.trace.len(), 1 + 2 * xs.len());
            assert_eq!(lr.trace[0].kind, KernelKind::Sgemm);
            assert!(lr.trace[0].label.contains("W_rzh"));
        }
    }

    #[test]
    fn gru_moves_three_quarters_of_lstm_weight_traffic() {
        let (net, xs) = setup();
        let run = run(&net, &xs);
        let u_bytes: u64 = run
            .trace()
            .filter(|k| k.label.contains("U_rzh"))
            .map(|k| k.reads[0].bytes)
            .sum();
        let expected = xs.len() as u64 * 2 * (3 * 16 * 16 * 4);
        assert_eq!(u_bytes, expected);
    }

    #[test]
    fn gru_trace_simulates() {
        let (net, xs) = setup();
        let run = run(&net, &xs);
        let mut device = GpuDevice::new(GpuConfig::tegra_x1());
        let report = device.run_trace(run.trace());
        assert!(report.time_s > 0.0);
        assert!(report.energy.total_j() > 0.0);
    }

    #[test]
    #[should_panic(expected = "zero dimension")]
    fn zero_dimension_rejected() {
        GruNetwork::random(0, 4, 1, 2, &mut seeded_rng(0));
    }
}
