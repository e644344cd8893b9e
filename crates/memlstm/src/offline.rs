//! The offline phase's gangs (paper Fig. 10, steps 1–4): its sequences
//! run through the network in lockstep, [`GANG`] at a time, on the lane
//! walk serving uses (`PlanRuntime::layer_numerics`).
//!
//! The offline phase averages over a set of sequences: the predicted
//! context link is an expectation over it (Sec. IV-B), and a link's
//! relevance is its mean over the probes. Each sequence is independent,
//! so running several as the lanes of one walk changes no value — every
//! lane is bit-identical to its solo run — while each weight panel loaded
//! serves up to four of them (Appleyard et al.'s batching of independent
//! sequences). A gang is bounded because it holds every lane's `W·x`
//! terms and lends every lane's `h` and `c` sequences at once: past a few
//! lanes the column-blocked kernels gain nothing more, and the buffers
//! only raise the peak resident set.

use gpu_sim::DeviceModel;
use lstm::plan::{ExecutionPlan, PlanBody, PlanRuntime};
use lstm::LstmNetwork;
use std::ops::Range;
use tensor::{Precision, Vector};

/// The most sequences one gang runs in lockstep.
pub(crate) const GANG: usize = 8;

/// Splits `seqs` into gangs: runs of at most [`GANG`] consecutive
/// sequences of one length, in order.
pub(crate) fn gangs(seqs: &[Vec<Vector>]) -> Vec<Range<usize>> {
    let mut gangs: Vec<Range<usize>> = Vec::new();
    for (i, xs) in seqs.iter().enumerate() {
        match gangs.last_mut() {
            Some(g) if g.len() < GANG && seqs[g.start].len() == xs.len() => g.end = i + 1,
            _ => gangs.push(i..i + 1),
        }
    }
    gangs
}

/// The exact network's lane walk: a gang runs through the baseline plan
/// of its sequence length, layer by layer, at fp32, on one recycled
/// runtime. Every lane is bit-identical to `LstmNetwork::forward` on its
/// sequence.
#[derive(Debug, Default)]
pub(crate) struct ExactWalk {
    runtime: PlanRuntime,
    /// The baseline plan of the last gang's sequence length.
    plan: Option<ExecutionPlan>,
    /// Each lane's `W·x` terms of the layer being run.
    wx: Vec<Vec<f32>>,
}

impl ExactWalk {
    /// Runs `gang` (sequences of one length) through `net`, calling
    /// `visit(l, wx, hs, cs)` for every layer `l` and lane, in lane
    /// order: the lane's gate-major `W·x` terms of layer `l` and its
    /// hidden and cell-state sequences there.
    ///
    /// # Panics
    /// Panics if the sequences differ in length.
    pub(crate) fn run(
        &mut self,
        net: &LstmNetwork,
        gang: &[Vec<Vector>],
        mut visit: impl FnMut(usize, &[f32], &[Vector], &[Vector]),
    ) {
        let Some(seq_len) = gang.first().map(Vec::len).filter(|&n| n > 0) else {
            return;
        };
        if self.plan.as_ref().is_none_or(|p| p.seq_len != seq_len) {
            let device = DeviceModel::default_preset();
            self.plan = Some(ExecutionPlan::compile_baseline(net, seq_len, &device));
        }
        let Self { runtime, plan, wx } = self;
        let Some(PlanBody::Lstm(plans)) = plan.as_ref().map(|p| &p.body) else {
            unreachable!("an LSTM network compiles to LSTM layer plans")
        };
        if wx.len() < gang.len() {
            wx.resize_with(gang.len(), Vec::new);
        }
        let wx = &mut wx[..gang.len()];
        let layers = net.layers();
        for (wx, xs) in wx.iter_mut().zip(gang) {
            layers[0].precompute_wx_batch_into(Precision::Fp32, xs, wx);
        }
        for (l, (lp, layer)) in plans.iter().zip(layers).enumerate() {
            let lanes = runtime.layer_numerics(Precision::Fp32, lp, layer, wx);
            for (wx, (hs, cs)) in wx.iter_mut().zip(lanes) {
                visit(l, wx, hs, cs);
                if let Some(next) = layers.get(l + 1) {
                    next.precompute_wx_batch_into(Precision::Fp32, hs, wx);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seqs(lens: &[usize]) -> Vec<Vec<Vector>> {
        lens.iter().map(|&n| vec![Vector::zeros(1); n]).collect()
    }

    #[test]
    fn gangs_are_runs_of_equal_length_up_to_the_gang_size() {
        assert_eq!(gangs(&seqs(&[])), Vec::<Range<usize>>::new());
        assert_eq!(gangs(&seqs(&[4; 13])), [0..8, 8..13]);
        assert_eq!(
            gangs(&seqs(&[4, 4, 6, 6, 6, 4, 0, 0])),
            [0..2, 2..5, 5..6, 6..8]
        );
    }
}
