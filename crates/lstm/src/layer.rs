//! One unrolled LSTM layer.

use crate::cell::{CellWeights, GatePreacts};
use tensor::{Precision, Vector};

/// Initial state of a layer (`h_0`, `c_0`).
#[derive(Debug, Clone, PartialEq)]
pub struct LayerState {
    /// Hidden state.
    pub h: Vector,
    /// Cell state.
    pub c: Vector,
}

impl LayerState {
    /// The zero state of width `hidden` (the layer's cold start).
    pub fn zeros(hidden: usize) -> Self {
        Self {
            h: Vector::zeros(hidden),
            c: Vector::zeros(hidden),
        }
    }
}

/// An LSTM layer: shared weights plus the sequential unrolled execution
/// over a sequence (paper Fig. 1, right).
#[derive(Debug, Clone, PartialEq)]
pub struct LstmLayer {
    weights: CellWeights,
}

impl LstmLayer {
    /// Wraps weights into a layer.
    pub fn new(weights: CellWeights) -> Self {
        Self { weights }
    }

    /// The layer weights.
    pub fn weights(&self) -> &CellWeights {
        &self.weights
    }

    /// Hidden width.
    pub fn hidden(&self) -> usize {
        self.weights.hidden()
    }

    /// Input width.
    pub fn input_dim(&self) -> usize {
        self.weights.input_dim()
    }

    /// The per-layer `Sgemm(W_{f,i,c,o}, x)` of Algorithm 1 line 2: all
    /// cells' `W·x` terms computed up front, since the whole layer's
    /// inputs are ready when the layer starts (paper Sec. II-C). The
    /// packed `W` weights are read at `precision`; [`Precision::Fp32`] is
    /// the exact path.
    pub fn precompute_wx(&self, precision: Precision, xs: &[Vector]) -> Vec<GatePreacts> {
        let mut out = Vec::new();
        self.weights
            .precompute_wx_batch_into(precision, xs, &mut out);
        out
    }

    /// Executes the layer exactly (baseline numerics): the sequential
    /// per-cell loop of Algorithm 1 lines 3–6. Returns the hidden outputs
    /// `h_1..h_n` and final state.
    pub fn forward(&self, xs: &[Vector], initial: &LayerState) -> (Vec<Vector>, LayerState) {
        let wx = self.precompute_wx(Precision::Fp32, xs);
        self.forward_precomputed(&wx, initial)
    }

    /// Executes the per-cell loop from precomputed `W·x` terms.
    pub fn forward_precomputed(
        &self,
        wx: &[GatePreacts],
        initial: &LayerState,
    ) -> (Vec<Vector>, LayerState) {
        let mut h = initial.h.clone();
        let mut c = initial.c.clone();
        let mut hs = Vec::with_capacity(wx.len());
        for pre in wx {
            let (h_next, c_next) = self.weights.step(pre, &h, &c);
            h = h_next;
            c = c_next;
            hs.push(h.clone());
        }
        (hs, LayerState { h, c })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use tensor::init::seeded_rng;

    fn layer(seed: u64) -> LstmLayer {
        LstmLayer::new(CellWeights::random(4, 6, &mut seeded_rng(seed)))
    }

    fn inputs(n: usize, dim: usize, seed: u64) -> Vec<Vector> {
        let mut rng = seeded_rng(seed);
        (0..n)
            .map(|_| Vector::from_fn(dim, |_| rng.gen_range(-1.0f32..1.0)))
            .collect()
    }

    #[test]
    fn forward_produces_one_h_per_cell() {
        let l = layer(1);
        let xs = inputs(5, 4, 2);
        let (hs, state) = l.forward(&xs, &LayerState::zeros(6));
        assert_eq!(hs.len(), 5);
        assert_eq!(state.h, hs[4]);
        for h in &hs {
            assert_eq!(h.len(), 6);
            assert!(h.max_abs() <= 1.0);
        }
    }

    #[test]
    fn forward_matches_precomputed_path() {
        let l = layer(3);
        let xs = inputs(4, 4, 4);
        let init = LayerState::zeros(6);
        let (a, _) = l.forward(&xs, &init);
        let wx = l.precompute_wx(Precision::Fp32, &xs);
        let (b, _) = l.forward_precomputed(&wx, &init);
        assert_eq!(a, b);
    }

    #[test]
    fn context_link_propagates_information() {
        // Changing x_0 must change h_2: the context link carries history.
        let l = layer(5);
        let mut xs = inputs(3, 4, 6);
        let (hs1, _) = l.forward(&xs, &LayerState::zeros(6));
        xs[0] = xs[0].map(|v| -v);
        let (hs2, _) = l.forward(&xs, &LayerState::zeros(6));
        let diff: f32 = hs1[2].sub(&hs2[2]).max_abs();
        assert!(diff > 1e-5, "context link carried no information");
    }

    #[test]
    fn initial_state_matters() {
        let l = layer(7);
        let xs = inputs(2, 4, 8);
        let (a, _) = l.forward(&xs, &LayerState::zeros(6));
        let warm = LayerState {
            h: Vector::filled(6, 0.9),
            c: Vector::filled(6, 1.5),
        };
        let (b, _) = l.forward(&xs, &warm);
        assert!(a[0].sub(&b[0]).max_abs() > 1e-4);
    }

    #[test]
    fn empty_sequence_returns_initial_state() {
        let l = layer(9);
        let init = LayerState::zeros(6);
        let (hs, state) = l.forward(&[], &init);
        assert!(hs.is_empty());
        assert_eq!(state, init);
    }
}
