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

use crate::offline::{gangs, ExactWalk};
use lstm::LstmNetwork;
use tensor::{RunningStats, Vector};

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
    /// The sequences run as gangs: runs of consecutive equal-length
    /// sequences, each gang in lockstep on the offline lane walk
    /// (`PlanRuntime::layer_numerics` over baseline layer plans), so the
    /// sequences may differ in length. Every lane is bit-identical to
    /// the exact forward, and each layer's statistics take its states in
    /// sequence order, step by step, so the sums are those of a
    /// sequence-at-a-time loop.
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
        let mut walk = ExactWalk::default();
        for gang in gangs(offline) {
            walk.run(net, &offline[gang], |l, _, hs, cs| {
                for (h, c) in hs.iter().zip(cs) {
                    h_stats[l].push(h);
                    c_stats[l].push(c);
                }
            });
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
    use lstm::cell::CellScratch;
    use lstm::ModelConfig;
    use tensor::init::seeded_rng;
    use tensor::Precision;

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
    fn collect_matches_owned_step_loop_bitwise() {
        // The oracle: a step loop with fresh buffers per step, as
        // `collect` ran before it recycled its buffers.
        let (net, offline) = setup();
        let hidden = net.config().hidden_size;
        let mut h_stats = [RunningStats::new(hidden), RunningStats::new(hidden)];
        let mut c_stats = [RunningStats::new(hidden), RunningStats::new(hidden)];
        let mut wx = Vec::new();
        for xs in &offline {
            let mut current: Vec<Vector> = xs.clone();
            for (l, layer) in net.layers().iter().enumerate() {
                layer.precompute_wx_batch_into(Precision::Fp32, &current, &mut wx);
                let mut h = Vector::zeros(hidden);
                let mut c = Vector::zeros(hidden);
                let mut hs = Vec::with_capacity(current.len());
                for pre in wx.chunks_exact(4 * hidden) {
                    let (mut h_next, mut c_next) = (Vector::zeros(0), Vector::zeros(0));
                    let mut scratch = CellScratch::new();
                    layer.step_fused_into(
                        Precision::Fp32,
                        pre,
                        &h,
                        &c,
                        &mut scratch,
                        &mut h_next,
                        &mut c_next,
                    );
                    (h, c) = (h_next, c_next);
                    h_stats[l].push(&h);
                    c_stats[l].push(&c);
                    hs.push(h.clone());
                }
                current = hs;
            }
        }
        let bits = |v: &Vector| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        let preds = NetworkPredictors::collect(&net, &offline);
        assert_eq!(preds.num_layers(), 2);
        for l in 0..2 {
            let want = LinkPredictor::from_stats(&h_stats[l], &c_stats[l]);
            let got = preds.layer(l);
            assert_eq!(bits(got.h_mean()), bits(want.h_mean()), "layer {l} h_mean");
            assert_eq!(bits(got.c_mean()), bits(want.c_mean()), "layer {l} c_mean");
            assert_eq!(got.samples(), want.samples());
        }
    }

    /// The owned step loop of `collect_matches_owned_step_loop_bitwise`
    /// over any offline set: fresh buffers per step, one sequence after
    /// another.
    fn owned_step_loop(net: &LstmNetwork, offline: &[Vec<Vector>]) -> Vec<LinkPredictor> {
        let hidden = net.config().hidden_size;
        let layers = net.layers().len();
        let mut h_stats = vec![RunningStats::new(hidden); layers];
        let mut c_stats = vec![RunningStats::new(hidden); layers];
        for xs in offline {
            let mut current: Vec<Vector> = xs.clone();
            for (l, layer) in net.layers().iter().enumerate() {
                let mut wx = Vec::new();
                layer.precompute_wx_batch_into(Precision::Fp32, &current, &mut wx);
                let (mut h, mut c) = (Vector::zeros(hidden), Vector::zeros(hidden));
                let mut hs = Vec::new();
                for pre in wx.chunks_exact(4 * hidden) {
                    let (mut h_next, mut c_next) = (Vector::zeros(0), Vector::zeros(0));
                    let scratch = &mut CellScratch::new();
                    layer.step_fused_into(
                        Precision::Fp32,
                        pre,
                        &h,
                        &c,
                        scratch,
                        &mut h_next,
                        &mut c_next,
                    );
                    (h, c) = (h_next, c_next);
                    h_stats[l].push(&h);
                    c_stats[l].push(&c);
                    hs.push(h.clone());
                }
                current = hs;
            }
        }
        h_stats
            .iter()
            .zip(&c_stats)
            .map(|(h, c)| LinkPredictor::from_stats(h, c))
            .collect()
    }

    #[test]
    fn collect_matches_owned_step_loop_on_ragged_and_multi_gang_sets() {
        // 13 sequences are a full gang and a partial one; a mixed-length
        // set splits into gangs at every change of length, so gangs of
        // one, of several and a full one follow each other.
        let config = ModelConfig::new("t", 6, 10, 2, 8, 2).unwrap();
        let mut rng = seeded_rng(5);
        let net = LstmNetwork::random(&config, &mut rng);
        let mut draw = |len: usize| -> Vec<Vector> {
            let xs = lstm::random_inputs(&config, &mut rng);
            (0..len)
                .map(|t| {
                    let mut x = xs[t % xs.len()].clone();
                    x.scale(1.0 + t as f32 / 16.0);
                    x
                })
                .collect()
        };
        let thirteen: Vec<Vec<Vector>> = (0..13).map(|_| draw(8)).collect();
        let mixed: Vec<Vec<Vector>> = [5, 5, 9, 3, 3, 3, 3, 3, 3, 3, 3, 3, 9, 1]
            .into_iter()
            .map(&mut draw)
            .collect();
        let bits = |v: &Vector| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        for (name, offline) in [("13 sequences", thirteen), ("mixed lengths", mixed)] {
            let preds = NetworkPredictors::collect(&net, &offline);
            let want = owned_step_loop(&net, &offline);
            assert_eq!(preds.num_layers(), want.len());
            for (l, want) in want.iter().enumerate() {
                let got = preds.layer(l);
                assert_eq!(
                    bits(got.h_mean()),
                    bits(want.h_mean()),
                    "{name}: layer {l} h_mean"
                );
                assert_eq!(
                    bits(got.c_mean()),
                    bits(want.c_mean()),
                    "{name}: layer {l} c_mean"
                );
                let steps: usize = offline.iter().map(Vec::len).sum();
                assert_eq!(got.samples(), steps as u64, "{name}: layer {l}");
            }
        }
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
