//! The zero-pruning comparison baseline (paper Fig. 16, scheme \[31\]).
//!
//! Deep-compression-style magnitude pruning erases near-zero *elements* of
//! the weight matrices offline. It reduces the stored weight volume, but
//! on a GPU the surviving elements must be addressed through a sparse
//! (CSR-like) format: per-element column indices inflate the traffic, the
//! gathers break coalescing, and the per-thread nonzero imbalance causes
//! branch divergence — the paper measures a 35% *slowdown* despite the 37%
//! compression.

use lstm::cell::CellWeights;
use lstm::LstmNetwork;
use tensor::{Matrix, Precision};

/// Offline element-granular magnitude pruning of the recurrent matrices.
#[derive(Debug, Clone, PartialEq)]
pub struct ZeroPruning {
    threshold: f32,
    compression: f64,
}

/// Bytes of the column index stored per surviving element (16-bit).
pub const INDEX_BYTES_PER_ELEMENT: f64 = 2.0;

/// Warp-divergence multiplier of the CSR gather kernels.
pub const CSR_DIVERGENCE: f64 = 1.9;

/// Effective-DRAM-bandwidth derate of the CSR gather kernels.
pub const CSR_DRAM_DERATE: f64 = 0.48;

impl ZeroPruning {
    /// Calibrates the pruning threshold on a network so that `target`
    /// (e.g. 0.37 for the paper's 37%) of the united recurrent weights are
    /// erased; the threshold is the corresponding magnitude quantile.
    ///
    /// # Panics
    /// Panics if `target` is not within `(0, 1)`.
    pub fn calibrate(net: &LstmNetwork, target: f64) -> Self {
        assert!(
            target > 0.0 && target < 1.0,
            "pruning target must be in (0,1)"
        );
        let mut magnitudes: Vec<f32> = Vec::new();
        for layer in net.layers() {
            let w = layer.weights();
            for m in [&w.u.f, &w.u.i, &w.u.c, &w.u.o] {
                magnitudes.extend(m.as_slice().iter().map(|x| x.abs()));
            }
        }
        magnitudes.sort_by(f32::total_cmp);
        let idx = ((magnitudes.len() as f64 * target) as usize).min(magnitudes.len() - 1);
        let threshold = magnitudes[idx];
        let pruned = magnitudes.iter().filter(|&&m| m <= threshold).count();
        Self {
            threshold,
            compression: pruned as f64 / magnitudes.len() as f64,
        }
    }

    /// The magnitude threshold.
    pub fn threshold(&self) -> f32 {
        self.threshold
    }

    /// Fraction of recurrent weights erased (Fig. 16a's compression
    /// ratio).
    pub fn compression_ratio(&self) -> f64 {
        self.compression
    }

    /// Returns a copy of `m` with pruned elements set to zero.
    pub fn prune_matrix(&self, m: &Matrix) -> Matrix {
        Matrix::from_fn(m.rows(), m.cols(), |r, c| {
            let v = m[(r, c)];
            if v.abs() <= self.threshold {
                0.0
            } else {
                v
            }
        })
    }

    /// Returns pruned cell weights (recurrent matrices only, as in the
    /// paper's weight-matrix compression comparison).
    pub fn prune_cell(&self, w: &CellWeights) -> CellWeights {
        let mut pruned = w.clone();
        pruned.u.f = self.prune_matrix(&w.u.f);
        pruned.u.i = self.prune_matrix(&w.u.i);
        pruned.u.c = self.prune_matrix(&w.u.c);
        pruned.u.o = self.prune_matrix(&w.u.o);
        pruned
    }

    /// Returns a network with every layer's recurrent matrices pruned.
    pub fn prune_network(&self, net: &LstmNetwork) -> LstmNetwork {
        let layers = net
            .layers()
            .iter()
            .map(|l| lstm::LstmLayer::new(self.prune_cell(l.weights())))
            .collect();
        let (head_w, head_b) = net.head();
        LstmNetwork::from_parts(net.config().clone(), layers, head_w.clone(), head_b.clone())
    }

    /// DRAM bytes the CSR representation of a dense matrix of
    /// `dense_bytes` bytes actually moves: surviving values plus their
    /// indices plus row pointers (negligible).
    pub fn csr_bytes(&self, dense_bytes: u64) -> u64 {
        let survive = 1.0 - self.compression;
        let values = dense_bytes as f64 * survive;
        let indices = (dense_bytes as f64 / 4.0) * survive * INDEX_BYTES_PER_ELEMENT;
        (values + indices) as u64
    }

    /// Executes the network with zero-pruned recurrent matrices,
    /// producing the numbers and the CSR-kernel trace.
    ///
    /// The schedule is Algorithm 1 with the per-cell `Sgemv` replaced by a
    /// sparse (CSR) GEMV: less data, but gathered irregularly (DRAM
    /// derate) by divergent warps (per-thread nonzero imbalance) — the
    /// cost structure behind Fig. 16's 35% slowdown.
    ///
    /// # Panics
    /// Panics if `xs` is empty.
    pub fn run(&self, net: &LstmNetwork, xs: &[tensor::Vector]) -> lstm::schedule::NetworkRun {
        use gpu_sim::KernelKind;
        use lstm::regions::{NetworkRegions, RegionAllocator};
        use lstm::schedule::{ew_kernel, head_kernel, wx_sgemm_kernel, LayerRun, NetworkRun, F32};

        assert!(!xs.is_empty(), "ZeroPruning::run: empty input");
        let pruned = self.prune_network(net);
        let cfg = net.config();
        let mut alloc = RegionAllocator::new();
        let regions = NetworkRegions::allocate(&mut alloc, cfg.num_layers);
        let mut layers = Vec::with_capacity(cfg.num_layers);
        let mut current: Vec<tensor::Vector> = xs.to_vec();
        for (l, layer) in pruned.layers().iter().enumerate() {
            let hidden = layer.hidden();
            let mut trace = Vec::new();
            trace.push(wx_sgemm_kernel(
                l,
                regions.layers[l].w,
                hidden,
                layer.input_dim(),
                current.len(),
                &mut alloc,
            ));
            let wx = layer.precompute_wx(Precision::Fp32, &current);
            let mut h = tensor::Vector::zeros(hidden);
            let mut c = tensor::Vector::zeros(hidden);
            let mut hs = Vec::with_capacity(wx.len());
            let dense = 4 * hidden as u64 * hidden as u64 * F32;
            let csr = self.csr_bytes(dense);
            for (t, pre) in wx.iter().enumerate() {
                trace.push(
                    gpu_sim::KernelDesc::builder(
                        format!("SpMV(U_csr,h) l{l} t{t}"),
                        KernelKind::Sgemv,
                    )
                    .flops(
                        (2.0 * 4.0 * (hidden as f64) * (hidden as f64) * (1.0 - self.compression))
                            as u64,
                    )
                    .read(regions.layers[l].u_full, csr)
                    .read(alloc.fresh(), hidden as u64 * F32)
                    .write(alloc.fresh(), 4 * hidden as u64 * F32)
                    .smem(csr + hidden as u64 * F32)
                    .threads(4 * hidden as u64, 256)
                    .divergence(CSR_DIVERGENCE)
                    .dram_derate(CSR_DRAM_DERATE)
                    .build(),
                );
                let (h2, c2) = layer.weights().step(pre, &h, &c);
                h = h2;
                c = c2;
                hs.push(h.clone());
                trace.push(ew_kernel(
                    format!("lstm_ew l{l} t{t}"),
                    hidden,
                    1,
                    &mut alloc,
                ));
            }
            current = hs.clone();
            layers.push(LayerRun { hs, trace });
        }
        let logits = pruned.apply_head(current.last().expect("non-empty"));
        let tail_trace = vec![head_kernel(
            regions.head,
            cfg.num_classes,
            cfg.hidden_size,
            &mut alloc,
        )];
        NetworkRun {
            layers,
            logits,
            tail_trace,
            regions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lstm::ModelConfig;
    use tensor::init::seeded_rng;

    fn net() -> LstmNetwork {
        let cfg = ModelConfig::new("t", 16, 32, 2, 4, 2).unwrap();
        LstmNetwork::random(&cfg, &mut seeded_rng(1))
    }

    #[test]
    fn calibration_hits_target_ratio() {
        let net = net();
        let zp = ZeroPruning::calibrate(&net, 0.37);
        assert!(
            (zp.compression_ratio() - 0.37).abs() < 0.01,
            "{}",
            zp.compression_ratio()
        );
        assert!(zp.threshold() > 0.0);
    }

    #[test]
    fn pruned_matrix_zeroes_small_elements() {
        let net = net();
        let zp = ZeroPruning::calibrate(&net, 0.4);
        let u = &net.layers()[0].weights().u.f;
        let pruned = zp.prune_matrix(u);
        for (orig, new) in u.as_slice().iter().zip(pruned.as_slice()) {
            if orig.abs() <= zp.threshold() {
                assert_eq!(*new, 0.0);
            } else {
                assert_eq!(new, orig);
            }
        }
    }

    #[test]
    fn pruned_network_output_is_close_to_exact() {
        // Magnitude pruning of near-zero weights barely moves the outputs:
        // the paper's zero-pruning scheme is accuracy-neutral by design.
        let net = net();
        let zp = ZeroPruning::calibrate(&net, 0.37);
        let pruned = zp.prune_network(&net);
        let mut rng = seeded_rng(2);
        let xs = lstm::random_inputs(net.config(), &mut rng);
        let exact = net.forward(&xs).logits;
        let approx = pruned.forward(&xs).logits;
        assert!(
            exact.sub(&approx).max_abs() < 0.35,
            "{}",
            exact.sub(&approx).max_abs()
        );
    }

    #[test]
    fn csr_traffic_includes_index_overhead() {
        let net = net();
        let zp = ZeroPruning::calibrate(&net, 0.37);
        let dense = 1_000_000u64;
        let csr = zp.csr_bytes(dense);
        // 63% of values (4B) + 63% of indices (2B per element = dense/2):
        // ~0.63 + 0.315 = ~0.945 of dense.
        let frac = csr as f64 / dense as f64;
        assert!(frac > 0.85 && frac < 1.0, "csr fraction {frac}");
    }

    #[test]
    #[should_panic(expected = "must be in (0,1)")]
    fn bad_target_panics() {
        ZeroPruning::calibrate(&net(), 1.5);
    }

    #[test]
    fn pruned_execution_is_slower_than_baseline_on_gpu() {
        // Fig. 16's headline: zero-pruning moves less data but *degrades*
        // performance on the GPU (divergence + scatter), while accuracy
        // stays near-exact.
        use gpu_sim::{GpuConfig, GpuDevice};
        use lstm::BaselineExecutor;
        // Hidden width large enough that the united matrix thrashes the
        // L2 in both schemes (the realistic regime of Table II).
        let cfg = ModelConfig::new("t", 256, 256, 1, 10, 2).unwrap();
        let net = LstmNetwork::random(&cfg, &mut seeded_rng(5));
        let xs = lstm::random_inputs(&cfg, &mut seeded_rng(6));
        let zp = ZeroPruning::calibrate(&net, 0.37);
        let base_run = BaselineExecutor::new(&net).run(&xs);
        let zp_run = zp.run(&net, &xs);
        let mut dev = GpuDevice::new(GpuConfig::tegra_x1());
        let base = dev.run_trace(base_run.trace());
        dev.reset();
        let pruned = dev.run_trace(zp_run.trace());
        assert!(
            pruned.time_s > base.time_s,
            "CSR execution should be slower"
        );
        assert!(
            pruned.dram_bytes() < base.dram_bytes(),
            "but move less data"
        );
    }
}
