//! GRU networks and their exact forward pass — the substrate for the
//! paper's Sec. II-B claim that the optimizations "can also be applied to
//! GRUs with simple adjustment".
//!
//! The cuDNN-style GRU schedule mirrors Algorithm 1: one per-layer
//! `Sgemm(W_{r,z,h}, x)` for the input-side terms, then a sequential
//! per-cell `Sgemv(U_{r,z,h}, h_{t-1})` + element-wise update. The united
//! recurrent matrix is `3·hidden x hidden` (three gates instead of four).
//! Its plans compile in [`crate::plan`] and `memlstm::gru_drs` to the
//! same one-cell [`LayerPlan`](crate::plan::LayerPlan) tissue lists as an
//! LSTM's per-cell flows, and [`PlanRuntime::run_gru`](crate::PlanRuntime::run_gru)
//! runs them on the one lane-generic tissue walk ([`crate::batch`]);
//! [`GruNetwork::forward`] is the independent reference they are tested
//! against.

use crate::cell::CellScratch;
use crate::gru::GruWeights;
use crate::plan::{PlanOutput, SkipStats};
use rand::Rng;
use tensor::gemm::{sgemv_bias, sgemv_bias_into};
use tensor::init::{gaussian_matrix, gaussian_vector};
use tensor::{Matrix, Precision, Vector};

/// A stack of GRU layers (each one cell's weights, unrolled over time)
/// plus a linear task head.
#[derive(Debug, Clone, PartialEq)]
pub struct GruNetwork {
    layers: Vec<GruWeights>,
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
                GruWeights::random(dim, hidden, rng)
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

    /// The layer stack: one cell's weights per layer.
    pub fn layers(&self) -> &[GruWeights] {
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

    /// Exact forward pass: per layer, the hoisted `Sgemm(W_{r,z,h}, x)`,
    /// then the sequential per-cell loop from the zero state. Returns what a non-DRS plan run returns: every
    /// layer's hidden outputs, the head's logits, and one empty
    /// [`SkipStats`] per layer.
    ///
    /// # Panics
    /// Panics if `xs` is empty.
    pub fn forward(&self, xs: &[Vector]) -> PlanOutput {
        assert!(!xs.is_empty(), "GruNetwork::forward: empty input");
        let mut scratch = CellScratch::new();
        let mut wx = Vec::new();
        let mut layer_hs: Vec<Vec<Vector>> = Vec::with_capacity(self.layers.len());
        for cell in &self.layers {
            let current = layer_hs.last().map_or(xs, Vec::as_slice);
            cell.precompute_wx_batch_into(Precision::Fp32, current, &mut wx);
            let mut h = Vector::zeros(self.hidden);
            let mut h_next = Vector::zeros(self.hidden);
            let mut hs = Vec::with_capacity(current.len());
            for pre in wx.chunks_exact(3 * self.hidden) {
                cell.step_into(Precision::Fp32, pre, &h, &mut scratch, &mut h_next);
                std::mem::swap(&mut h, &mut h_next);
                hs.push(h.clone());
            }
            layer_hs.push(hs);
        }
        let h_final = layer_hs.last().and_then(|hs| hs.last());
        let logits = self.apply_head(h_final.expect("non-empty"));
        PlanOutput {
            layer_hs,
            logits,
            layer_skips: vec![SkipStats::default(); self.layers.len()],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{ExecutionPlan, PlanOutput, PlanRuntime};
    use gpu_sim::{DeviceModel, GpuConfig, GpuDevice, KernelDesc, KernelKind};
    use tensor::init::seeded_rng;

    fn setup() -> (GruNetwork, Vec<Vector>) {
        let mut rng = seeded_rng(3);
        let net = GruNetwork::random(12, 16, 2, 4, &mut rng);
        let xs: Vec<Vector> = (0..6)
            .map(|_| Vector::from_fn(12, |_| rng.gen_range(-1.0f32..1.0)))
            .collect();
        (net, xs)
    }

    /// The baseline schedule compiled for `xs` and run once, with its
    /// kernel stream.
    fn run(net: &GruNetwork, xs: &[Vector]) -> (PlanOutput, Vec<KernelDesc>) {
        let plan =
            ExecutionPlan::compile_gru_baseline(net, xs.len(), &DeviceModel::default_preset());
        let mut trace: Vec<KernelDesc> = Vec::new();
        let output = PlanRuntime::new().run_gru(&plan, net, xs, &mut trace);
        (output, trace)
    }

    #[test]
    fn executor_matches_exact_forward() {
        let (net, xs) = setup();
        let (out, _) = run(&net, &xs);
        assert_eq!(out, net.forward(&xs));
    }

    #[test]
    fn trace_structure_mirrors_algorithm_1() {
        let (net, xs) = setup();
        let (_, trace) = run(&net, &xs);
        // Per layer: 1 Sgemm + seq_len x (Sgemv + gru_ew); then the head.
        let per_layer = 1 + 2 * xs.len();
        assert_eq!(trace.len(), 2 * per_layer + 1);
        for layer in trace.chunks(per_layer).take(2) {
            assert_eq!(layer[0].kind, KernelKind::Sgemm);
            assert!(layer[0].label.contains("W_rzh"));
        }
    }

    #[test]
    fn gru_moves_three_quarters_of_lstm_weight_traffic() {
        let (net, xs) = setup();
        let (_, trace) = run(&net, &xs);
        let u_bytes: u64 = trace
            .iter()
            .filter(|k| k.label.contains("U_rzh"))
            .map(|k| k.reads[0].bytes)
            .sum();
        let expected = xs.len() as u64 * 2 * (3 * 16 * 16 * 4);
        assert_eq!(u_bytes, expected);
    }

    #[test]
    fn gru_trace_simulates() {
        let (net, xs) = setup();
        let (_, trace) = run(&net, &xs);
        let mut device = GpuDevice::new(GpuConfig::tegra_x1());
        let report = device.run_trace(&trace);
        assert!(report.time_s > 0.0);
        assert!(report.energy.total_j() > 0.0);
    }

    #[test]
    #[should_panic(expected = "zero dimension")]
    fn zero_dimension_rejected() {
        GruNetwork::random(0, 4, 1, 2, &mut seeded_rng(0));
    }
}
