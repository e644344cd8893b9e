//! Accuracy recovery: the predicted context link (paper Sec. IV-B, Eq. 6).
//!
//! Breaking a weak link removes the `(h_{t-1}, c_{t-1})` inputs of the
//! first cell of a sub-layer. The paper substitutes a single
//! pre-determined vector — the per-element expectation of the context-link
//! distribution, collected offline over a training set — at *every*
//! breakpoint. Weak links are insensitive to small prediction error, so
//! one shared expectation vector suffices.
//!
//! The paper's context link is the red line of Fig. 1 carrying the cell's
//! recurrent state; we predict both of its components (`h` and `c`), since
//! both feed the next cell.

use lstm::LstmNetwork;
use tensor::{Precision, RunningStats, Vector};

/// The predicted context link for one layer.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkPredictor {
    h_mean: Vector,
    c_mean: Vector,
    samples: u64,
}

impl LinkPredictor {
    /// Builds a predictor from accumulated statistics.
    pub fn from_stats(h_stats: &RunningStats, c_stats: &RunningStats) -> Self {
        Self {
            h_mean: h_stats.mean(),
            c_mean: c_stats.mean(),
            samples: h_stats.count(),
        }
    }

    /// A zero predictor (the ablation baseline: recover with a zero link).
    pub fn zero(hidden: usize) -> Self {
        Self {
            h_mean: Vector::zeros(hidden),
            c_mean: Vector::zeros(hidden),
            samples: 0,
        }
    }

    /// The predicted hidden vector (Eq. 6's `h̄`).
    pub fn h_mean(&self) -> &Vector {
        &self.h_mean
    }

    /// The predicted cell-state vector.
    pub fn c_mean(&self) -> &Vector {
        &self.c_mean
    }

    /// Number of offline observations behind the prediction.
    pub fn samples(&self) -> u64 {
        self.samples
    }
}

/// Predicted context links for every layer of a network.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkPredictors {
    layers: Vec<LinkPredictor>,
}

impl NetworkPredictors {
    /// Runs the exact network over the offline dataset and collects the
    /// per-layer context-link distributions (the offline phase of
    /// Fig. 10, step 4).
    ///
    /// # Panics
    /// Panics if `offline` is empty.
    pub fn collect(net: &LstmNetwork, offline: &[Vec<Vector>]) -> Self {
        assert!(
            !offline.is_empty(),
            "NetworkPredictors::collect: empty offline set"
        );
        let hidden = net.config().hidden_size;
        let mut h_stats: Vec<RunningStats> = (0..net.layers().len())
            .map(|_| RunningStats::new(hidden))
            .collect();
        let mut c_stats: Vec<RunningStats> = (0..net.layers().len())
            .map(|_| RunningStats::new(hidden))
            .collect();
        let mut wx = Vec::new();
        for xs in offline {
            let mut current: Vec<Vector> = xs.clone();
            for (l, layer) in net.layers().iter().enumerate() {
                // Track (h, c) across the unrolled cells.
                layer.precompute_wx_batch_into(Precision::Fp32, &current, &mut wx);
                let mut h = Vector::zeros(hidden);
                let mut c = Vector::zeros(hidden);
                let mut hs = Vec::with_capacity(wx.len());
                for pre in &wx {
                    let (h2, c2) = layer.step(pre, &h, &c);
                    h = h2;
                    c = c2;
                    h_stats[l].push(&h);
                    c_stats[l].push(&c);
                    hs.push(h.clone());
                }
                current = hs;
            }
        }
        Self {
            layers: h_stats
                .iter()
                .zip(&c_stats)
                .map(|(h, c)| LinkPredictor::from_stats(h, c))
                .collect(),
        }
    }

    /// Zero predictors for every layer (ablation).
    pub fn zeros(net: &LstmNetwork) -> Self {
        let hidden = net.config().hidden_size;
        Self {
            layers: net
                .layers()
                .iter()
                .map(|_| LinkPredictor::zero(hidden))
                .collect(),
        }
    }

    /// The predictor of layer `l`.
    ///
    /// # Panics
    /// Panics if `l` is out of range.
    pub fn layer(&self, l: usize) -> &LinkPredictor {
        &self.layers[l]
    }

    /// Number of layers covered.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lstm::ModelConfig;
    use tensor::init::seeded_rng;

    fn setup() -> (LstmNetwork, Vec<Vec<Vector>>) {
        let config = ModelConfig::new("t", 6, 10, 2, 8, 2).unwrap();
        let mut rng = seeded_rng(3);
        let net = LstmNetwork::random(&config, &mut rng);
        let offline: Vec<Vec<Vector>> = (0..5)
            .map(|_| lstm::random_inputs(&config, &mut rng))
            .collect();
        (net, offline)
    }

    #[test]
    fn collect_produces_per_layer_predictors() {
        let (net, offline) = setup();
        let preds = NetworkPredictors::collect(&net, &offline);
        assert_eq!(preds.num_layers(), 2);
        // 5 sequences x 8 cells = 40 observations per layer.
        assert_eq!(preds.layer(0).samples(), 40);
        assert_eq!(preds.layer(1).samples(), 40);
    }

    #[test]
    fn predicted_h_is_within_reach_of_real_states() {
        let (net, offline) = setup();
        let preds = NetworkPredictors::collect(&net, &offline);
        // h is bounded in [-1, 1]; its mean must be too.
        assert!(preds.layer(0).h_mean().max_abs() <= 1.0);
        // The mean must actually reflect data (not all zeros) for a
        // non-degenerate network.
        assert!(preds.layer(0).h_mean().max_abs() > 1e-4);
    }

    #[test]
    fn prediction_beats_zero_link_on_average() {
        // Mean-squared distance from real context links to the predicted
        // vector must not exceed the distance to the zero vector — the
        // expectation minimizes it by construction.
        let (net, offline) = setup();
        let preds = NetworkPredictors::collect(&net, &offline);
        let pred = preds.layer(0).h_mean().clone();
        let mut d_pred = 0.0f64;
        let mut d_zero = 0.0f64;
        for xs in &offline {
            for h in &net.forward(xs).layer_hs[0] {
                d_pred += f64::from(h.sub(&pred).norm()).powi(2);
                d_zero += f64::from(h.norm()).powi(2);
            }
        }
        assert!(d_pred <= d_zero + 1e-6, "pred {d_pred} vs zero {d_zero}");
    }

    #[test]
    fn zero_predictor_is_zero() {
        let (net, _) = setup();
        let preds = NetworkPredictors::zeros(&net);
        assert_eq!(preds.layer(1).h_mean(), &Vector::zeros(10));
        assert_eq!(preds.layer(1).c_mean(), &Vector::zeros(10));
        assert_eq!(preds.layer(0).samples(), 0);
    }

    #[test]
    #[should_panic(expected = "empty offline set")]
    fn empty_offline_panics() {
        let (net, _) = setup();
        NetworkPredictors::collect(&net, &[]);
    }
}
