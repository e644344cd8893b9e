//! The zero-pruning comparison baseline (paper Fig. 16, scheme \[31\]).
//!
//! Deep-compression-style magnitude pruning erases near-zero *elements* of
//! the weight matrices offline. It reduces the stored weight volume, but
//! on a GPU the surviving elements must be addressed through a sparse
//! (CSR-like) format: per-element column indices inflate the traffic, the
//! gathers break coalescing, and the per-thread nonzero imbalance causes
//! branch divergence — the paper measures a 35% *slowdown* despite the 37%
//! compression.

use crate::error::{Error, MemlstmResult};
use gpu_sim::{DeviceModel, KernelDesc, KernelKind};
use lstm::cell::CellWeights;
use lstm::plan::{ExecutionPlan, PlanBody, TissueKernels};
use lstm::schedule::F32;
use lstm::LstmNetwork;
use tensor::Matrix;

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
    /// # Errors
    /// [`Error::InvalidPruningTarget`] if `target` is not within `(0, 1)`
    /// (NaN included).
    pub fn calibrate(net: &LstmNetwork, target: f64) -> MemlstmResult<Self> {
        if !(target > 0.0 && target < 1.0) {
            return Err(Error::InvalidPruningTarget { target });
        }
        let mut magnitudes: Vec<f32> = Vec::new();
        for w in net.layers() {
            for m in [&w.u.f, &w.u.i, &w.u.c, &w.u.o] {
                magnitudes.extend(m.as_slice().iter().map(|x| x.abs()));
            }
        }
        magnitudes.sort_by(f32::total_cmp);
        let idx = ((magnitudes.len() as f64 * target) as usize).min(magnitudes.len() - 1);
        let threshold = magnitudes[idx];
        let pruned = magnitudes.iter().filter(|&&m| m <= threshold).count();
        Ok(Self {
            threshold,
            compression: pruned as f64 / magnitudes.len() as f64,
        })
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
        let layers = net.layers().iter().map(|l| self.prune_cell(l)).collect();
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

    /// Compiles the zero-pruned flow: Algorithm 1's baseline plan with
    /// every one-cell tissue's `Sgemv(U, h)` replaced by a sparse (CSR)
    /// GEMV — less data, but gathered irregularly (DRAM derate) by
    /// divergent warps (per-thread nonzero imbalance), the cost structure
    /// behind Fig. 16's 35% slowdown. Each CSR kernel keeps the region ids of the kernel it
    /// replaces.
    ///
    /// The plan prices the sparse kernels; execute it on
    /// [`prune_network`](Self::prune_network)`(net)` for the numbers.
    ///
    /// # Errors
    /// [`Error::EmptyInput`] if `seq_len` is zero.
    pub fn compile(
        &self,
        net: &LstmNetwork,
        seq_len: usize,
        device: &DeviceModel,
    ) -> MemlstmResult<ExecutionPlan> {
        if seq_len == 0 {
            return Err(Error::EmptyInput);
        }
        let mut plan = ExecutionPlan::compile_baseline(net, seq_len, device);
        let PlanBody::Lstm(layers) = &mut plan.body else {
            unreachable!("compile_baseline plans an LSTM body");
        };
        for (l, (lp, layer)) in layers.iter_mut().zip(net.layers()).enumerate() {
            let h = layer.hidden() as u64;
            let csr = self.csr_bytes(4 * h * h * F32);
            let flops = (2.0 * 4.0 * h as f64 * h as f64 * (1.0 - self.compression)) as u64;
            for (t, tp) in lp.tissues.iter_mut().enumerate() {
                let TissueKernels::Plain { sgemm, .. } = &mut tp.kernels else {
                    unreachable!("compile_baseline plans plain one-cell tissues");
                };
                *sgemm = KernelDesc::builder(format!("SpMV(U_csr,h) l{l} t{t}"), KernelKind::Sgemv)
                    .flops(flops)
                    .read(sgemm.reads[0].region, csr)
                    .read(sgemm.reads[1].region, h * F32)
                    .write(sgemm.writes[0].region, 4 * h * F32)
                    .smem(csr + h * F32)
                    .threads(4 * h, 256)
                    .divergence(CSR_DIVERGENCE)
                    .dram_derate(CSR_DRAM_DERATE)
                    .build();
            }
        }
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lstm::plan::PlanRuntime;
    use lstm::ModelConfig;
    use tensor::init::seeded_rng;

    fn net() -> LstmNetwork {
        let cfg = ModelConfig::new("t", 16, 32, 2, 4, 2).unwrap();
        LstmNetwork::random(&cfg, &mut seeded_rng(1))
    }

    #[test]
    fn calibration_hits_target_ratio() {
        let net = net();
        let zp = ZeroPruning::calibrate(&net, 0.37).unwrap();
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
        let zp = ZeroPruning::calibrate(&net, 0.4).unwrap();
        let u = &net.layers()[0].u.f;
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
        let zp = ZeroPruning::calibrate(&net, 0.37).unwrap();
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
        let zp = ZeroPruning::calibrate(&net, 0.37).unwrap();
        let dense = 1_000_000u64;
        let csr = zp.csr_bytes(dense);
        // 63% of values (4B) + 63% of indices (2B per element = dense/2):
        // ~0.63 + 0.315 = ~0.945 of dense.
        let frac = csr as f64 / dense as f64;
        assert!(frac > 0.85 && frac < 1.0, "csr fraction {frac}");
    }

    #[test]
    fn bad_target_is_rejected() {
        for target in [0.0, 1.0, 1.5, -0.2, f64::NAN] {
            assert!(
                matches!(
                    ZeroPruning::calibrate(&net(), target),
                    Err(Error::InvalidPruningTarget { .. })
                ),
                "target {target} accepted"
            );
        }
    }

    #[test]
    fn empty_sequence_is_rejected() {
        let net = net();
        let zp = ZeroPruning::calibrate(&net, 0.37).unwrap();
        assert_eq!(
            zp.compile(&net, 0, &DeviceModel::default_preset()),
            Err(Error::EmptyInput)
        );
    }

    #[test]
    fn plan_runs_the_pruned_network_with_csr_kernels() {
        // The numbers are the pruned network's exact forward pass; the
        // stream is the baseline's with each per-cell `U` kernel swapped
        // for its CSR form at the same regions.
        let device = DeviceModel::default_preset();
        for (e, h, layers, seq) in [(8, 16, 1, 5), (16, 32, 2, 4), (24, 40, 3, 9)] {
            let cfg = ModelConfig::new("t", e, h, layers, seq, 3).unwrap();
            let net = LstmNetwork::random(&cfg, &mut seeded_rng(h as u64));
            let zp = ZeroPruning::calibrate(&net, 0.37).unwrap();
            let pruned = zp.prune_network(&net);
            let plan = zp.compile(&net, seq, &device).unwrap();
            let base = ExecutionPlan::compile_baseline(&net, seq, &device);
            let mut runtime = PlanRuntime::new();
            for seed in 0..3 {
                let xs = lstm::random_inputs(&cfg, &mut seeded_rng(seed));
                let mut trace: Vec<KernelDesc> = Vec::new();
                let out = runtime.run_lstm(&plan, &pruned, &xs, &mut trace);
                let exact = pruned.forward(&xs);
                assert_eq!(out.logits, exact.logits);
                assert_eq!(out.layer_hs, exact.layer_hs);

                let mut base_trace: Vec<KernelDesc> = Vec::new();
                runtime.run_lstm(&base, &net, &xs, &mut base_trace);
                assert_eq!(trace.len(), base_trace.len());
                let regions = |k: &KernelDesc| -> Vec<_> {
                    k.reads.iter().chain(&k.writes).map(|a| a.region).collect()
                };
                let mut swapped = 0;
                for (k, b) in trace.iter().zip(&base_trace) {
                    assert_eq!(regions(k), regions(b));
                    if let Some(cell) = b.label.strip_prefix("Sgemv(U_fico,h)") {
                        assert_eq!(k.label, format!("SpMV(U_csr,h){cell}"));
                        assert!(k.read_bytes() < b.read_bytes());
                        swapped += 1;
                    } else {
                        assert_eq!(k, b);
                    }
                }
                assert_eq!(swapped, layers * seq);
            }
        }
    }

    #[test]
    fn pruned_execution_is_slower_than_baseline_on_gpu() {
        // Fig. 16's headline: zero-pruning moves less data but *degrades*
        // performance on the GPU (divergence + scatter), while accuracy
        // stays near-exact.
        use gpu_sim::{GpuConfig, GpuDevice};
        // Hidden width large enough that the united matrix thrashes the
        // L2 in both schemes (the realistic regime of Table II).
        let cfg = ModelConfig::new("t", 256, 256, 1, 10, 2).unwrap();
        let net = LstmNetwork::random(&cfg, &mut seeded_rng(5));
        let xs = lstm::random_inputs(&cfg, &mut seeded_rng(6));
        let zp = ZeroPruning::calibrate(&net, 0.37).unwrap();
        let device = DeviceModel::default_preset();
        let mut runtime = PlanRuntime::new();
        let mut base_trace: Vec<KernelDesc> = Vec::new();
        let base_plan = ExecutionPlan::compile_baseline(&net, xs.len(), &device);
        runtime.run_lstm(&base_plan, &net, &xs, &mut base_trace);
        let mut zp_trace: Vec<KernelDesc> = Vec::new();
        let zp_plan = zp.compile(&net, xs.len(), &device).unwrap();
        runtime.run_lstm(&zp_plan, &zp.prune_network(&net), &xs, &mut zp_trace);
        let mut dev = GpuDevice::new(GpuConfig::tegra_x1());
        let base = dev.run_trace(&base_trace);
        dev.reset();
        let pruned = dev.run_trace(&zp_trace);
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
