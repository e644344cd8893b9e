//! Multi-layer LSTM networks with a task head, and their exact forward
//! pass — the reference every plan run is checked against.

use crate::cell::{CellInit, CellScratch, CellWeights};
use crate::config::ModelConfig;
use crate::plan::{PlanOutput, SkipStats};
use rand::Rng;
use tensor::gemm::{sgemv_bias, sgemv_bias_into};
use tensor::init::{gaussian_matrix, gaussian_vector};
use tensor::{Matrix, Precision, Vector};

/// A stack of LSTM layers (each one cell's weights, unrolled over time)
/// plus a linear classifier head.
///
/// On mobile GPUs the layers execute strictly sequentially (paper
/// Sec. II-C: layer-level pipelining needs on-chip storage the Tegra class
/// does not have), so the forward pass here processes layer `j` completely
/// before layer `j+1` starts — exactly the execution order every executor
/// in this repository prices.
#[derive(Debug, Clone, PartialEq)]
pub struct LstmNetwork {
    config: ModelConfig,
    layers: Vec<CellWeights>,
    head_w: Matrix,
    head_b: Vector,
}

impl LstmNetwork {
    /// Builds a network from explicit parts.
    ///
    /// # Panics
    /// Panics if the layer stack is inconsistent with `config`.
    pub fn from_parts(
        config: ModelConfig,
        layers: Vec<CellWeights>,
        head_w: Matrix,
        head_b: Vector,
    ) -> Self {
        assert_eq!(layers.len(), config.num_layers, "layer count mismatch");
        for (l, layer) in layers.iter().enumerate() {
            assert_eq!(
                layer.hidden(),
                config.hidden_size,
                "hidden mismatch at layer {l}"
            );
            assert_eq!(
                layer.input_dim(),
                config.layer_input_dim(l),
                "input mismatch at layer {l}"
            );
        }
        assert_eq!(
            head_w.shape(),
            (config.num_classes, config.hidden_size),
            "head shape"
        );
        assert_eq!(head_b.len(), config.num_classes, "head bias length");
        Self {
            config,
            layers,
            head_w,
            head_b,
        }
    }

    /// Samples a network with trained-like weights (see
    /// [`CellWeights::random`]).
    pub fn random(config: &ModelConfig, rng: &mut impl Rng) -> Self {
        Self::random_with(config, &CellInit::default(), rng)
    }

    /// Samples a network with explicit initialization parameters.
    pub fn random_with(config: &ModelConfig, init: &CellInit, rng: &mut impl Rng) -> Self {
        let hidden = config.hidden_size;
        // Recurrent row L1 norms grow sublinearly with width in trained
        // nets; normalizing the element std by the width keeps the
        // Algorithm-2 `D` bounds comparable across Table II model sizes
        // (the init's base_std is referenced to width 256).
        let width_scale = 256.0 / hidden as f32;
        let layers = (0..config.num_layers)
            .map(|l| {
                let layer_init = if l == 0 {
                    CellInit {
                        boundary_channel: init.boundary_channel,
                        recurrent: tensor::init::RowScaledInit {
                            base_std: init.recurrent.base_std * width_scale,
                            ..init.recurrent
                        },
                        ..*init
                    }
                } else {
                    // Deeper layers read hidden states: no token boundary
                    // channel, but a content keep-alive forget structure
                    // that resets on the near-zero boundary states the
                    // layer below emits.
                    CellInit {
                        boundary_channel: false,
                        recurrent: tensor::init::RowScaledInit {
                            base_std: init.recurrent.base_std * width_scale * 0.85,
                            light_row_frac: 0.8,
                            ..init.recurrent
                        },
                        forget_bias_mean: -2.4,
                        forget_input_shift: 75.0 / hidden as f32,
                        cand_bias_mean: 0.12,
                        ..*init
                    }
                };
                CellWeights::random_with(
                    config.layer_input_dim(l),
                    config.hidden_size,
                    &layer_init,
                    rng,
                )
            })
            .collect();
        let head_w = gaussian_matrix(rng, config.num_classes, config.hidden_size, 0.4);
        let head_b = gaussian_vector(rng, config.num_classes, 0.0, 0.1);
        Self::from_parts(config.clone(), layers, head_w, head_b)
    }

    /// The model configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// The layer stack: one cell's weights per layer.
    pub fn layers(&self) -> &[CellWeights] {
        &self.layers
    }

    /// The classifier head weights `(W, b)`.
    pub fn head(&self) -> (&Matrix, &Vector) {
        (&self.head_w, &self.head_b)
    }

    /// Applies the task head to a final hidden state.
    pub fn apply_head(&self, h_final: &Vector) -> Vector {
        sgemv_bias(&self.head_w, h_final, &self.head_b)
    }

    /// [`apply_head`](Self::apply_head) into a recycled vector —
    /// bit-identical, zero allocations once warm.
    pub fn apply_head_into(&self, h_final: &Vector, out: &mut Vector) {
        sgemv_bias_into(&self.head_w, h_final, &self.head_b, out);
    }

    /// Exact (baseline-numerics) forward pass: per layer, the hoisted
    /// `Sgemm(W, x)` of Algorithm 1 line 2, then the sequential per-cell
    /// loop of lines 3–6 from the zero state. Returns what a non-DRS plan
    /// run returns: every layer's hidden outputs, the head's logits, and
    /// one empty [`SkipStats`] per layer.
    ///
    /// # Panics
    /// Panics if `xs` is empty or input widths mismatch.
    pub fn forward(&self, xs: &[Vector]) -> PlanOutput {
        assert!(!xs.is_empty(), "forward: empty input sequence");
        let n = self.config.hidden_size;
        let mut scratch = CellScratch::new();
        let mut wx = Vec::new();
        let mut layer_hs: Vec<Vec<Vector>> = Vec::with_capacity(self.layers.len());
        for cell in &self.layers {
            let current = layer_hs.last().map_or(xs, Vec::as_slice);
            cell.precompute_wx_batch_into(Precision::Fp32, current, &mut wx);
            let (mut h, mut c) = (Vector::zeros(n), Vector::zeros(n));
            let (mut h_next, mut c_next) = (Vector::zeros(n), Vector::zeros(n));
            let mut hs = Vec::with_capacity(wx.len());
            for pre in &wx {
                cell.step_fused_into(
                    Precision::Fp32,
                    pre,
                    &h,
                    &c,
                    &mut scratch,
                    &mut h_next,
                    &mut c_next,
                );
                std::mem::swap(&mut h, &mut h_next);
                std::mem::swap(&mut c, &mut c_next);
                hs.push(h.clone());
            }
            layer_hs.push(hs);
        }
        let h_final = layer_hs.last().and_then(|hs| hs.last());
        let logits = self.apply_head(h_final.expect("non-empty sequence"));
        PlanOutput {
            layer_hs,
            logits,
            layer_skips: vec![SkipStats::default(); self.layers.len()],
        }
    }

    /// Applies the task head to every timestep's hidden state of the last
    /// layer, returning the per-step argmax predictions.
    ///
    /// Scoring every prefix (rather than only the final state) is how the
    /// teacher-match accuracy evaluation extracts `seq_len` samples per
    /// forward pass; it also matches the streaming behaviour of an IPA
    /// that surfaces partial results.
    pub fn step_predictions(&self, last_layer_hs: &[Vector]) -> Vec<usize> {
        last_layer_hs
            .iter()
            .map(|h| {
                self.apply_head(h)
                    .argmax()
                    .expect("head produces at least one logit")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensor::init::seeded_rng;

    fn config() -> ModelConfig {
        ModelConfig::new("test", 5, 7, 2, 6, 3).unwrap()
    }

    fn network(seed: u64) -> LstmNetwork {
        LstmNetwork::random(&config(), &mut seeded_rng(seed))
    }

    fn inputs(seed: u64) -> Vec<Vector> {
        crate::random_inputs(&config(), &mut seeded_rng(seed))
    }

    #[test]
    fn forward_shapes() {
        let net = network(1);
        let out = net.forward(&inputs(2));
        assert_eq!(out.layer_hs.len(), 2);
        assert_eq!(out.layer_hs[0].len(), 6);
        assert_eq!(out.layer_hs[1][0].len(), 7);
        assert_eq!(out.layer_skips, vec![SkipStats::default(); 2]);
        assert_eq!(out.logits.len(), 3);
        assert!(out.predicted_class() < 3);
    }

    #[test]
    fn deterministic_forward() {
        let net = network(3);
        let xs = inputs(4);
        assert_eq!(net.forward(&xs), net.forward(&xs));
    }

    #[test]
    fn different_inputs_give_different_logits() {
        let net = network(5);
        let a = net.forward(&inputs(6));
        let b = net.forward(&inputs(7));
        assert!(a.logits.sub(&b.logits).max_abs() > 1e-5);
    }

    #[test]
    fn context_link_propagates_information() {
        // Changing x_0 must change every layer's h_2: the context link
        // carries history along each layer.
        let net = network(12);
        let mut xs = inputs(13);
        let a = net.forward(&xs);
        xs[0] = xs[0].map(|v| -v);
        let b = net.forward(&xs);
        for (ha, hb) in a.layer_hs.iter().zip(&b.layer_hs) {
            assert!(
                ha[2].sub(&hb[2]).max_abs() > 1e-5,
                "context link carried no information"
            );
        }
    }

    #[test]
    #[should_panic(expected = "empty input sequence")]
    fn empty_sequence_panics() {
        network(10).forward(&[]);
    }

    #[test]
    #[should_panic(expected = "layer count mismatch")]
    fn from_parts_validates_layer_count() {
        let cfg = config();
        let net = network(11);
        LstmNetwork::from_parts(
            cfg,
            net.layers()[..1].to_vec(),
            net.head().0.clone(),
            net.head().1.clone(),
        );
    }
}
