//! Kernel descriptors — the unit of the simulation trace.
//!
//! The LSTM executors (baseline Algorithm 1 and the optimized flows of
//! Figs. 10/Algorithm 3) describe each kernel they would launch on the GPU
//! as a [`KernelDesc`]. The descriptor carries everything the timing,
//! cache, and energy models need; the numerical work itself happens in the
//! `lstm`/`memlstm` crates on the CPU.

use crate::cache::RegionId;

/// The kind of kernel, following the paper's decomposition (Fig. 3,
/// Algorithms 1 and 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelKind {
    /// Matrix-matrix multiplication (`Sgemm(W, x)` per layer, or the
    /// per-tissue `Sgemm(U, H_t)` after layer reorganization).
    Sgemm,
    /// Matrix-vector multiplication (`Sgemv(U, h_{t-1})` per cell).
    Sgemv,
    /// The element-wise remainder of the cell (`lstm_ew`): gate
    /// activations, state update, output (Fig. 3, part 3).
    ElementWise,
    /// The trivial-row selection kernel `DRS(o_t, alpha_intra, R)` of
    /// Algorithm 3, line 6.
    Drs,
    /// Anything else (e.g. the classifier head or breakpoint search).
    Other,
}

impl KernelKind {
    /// Short display label.
    pub fn label(self) -> &'static str {
        match self {
            KernelKind::Sgemm => "Sgemm",
            KernelKind::Sgemv => "Sgemv",
            KernelKind::ElementWise => "lstm_ew",
            KernelKind::Drs => "DRS",
            KernelKind::Other => "other",
        }
    }
}

/// One streaming access to a named global-memory region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccess {
    /// Which region (weight matrix, activation buffer, ...) is touched.
    pub region: RegionId,
    /// How many bytes of it this kernel streams through.
    pub bytes: u64,
}

/// Full description of one kernel launch.
///
/// Construct with [`KernelDesc::builder`].
#[derive(Debug, Clone, PartialEq)]
pub struct KernelDesc {
    /// Display name (e.g. `"Sgemv(U_fico, h)"`).
    pub label: String,
    /// Kernel kind for aggregation.
    pub kind: KernelKind,
    /// Floating-point operations actually executed.
    pub flops: u64,
    /// Global-memory reads (streamed through the L2).
    pub reads: Vec<MemAccess>,
    /// Global-memory writes (write-back to DRAM; not cached for reuse).
    pub writes: Vec<MemAccess>,
    /// On-chip shared-memory traffic in bytes (loads + stores).
    pub smem_bytes: u64,
    /// Total software threads launched.
    pub threads: u32,
    /// Threads per CTA.
    pub cta_size: u32,
    /// Warp-divergence multiplier on compute time: `1.0` means fully
    /// converged warps, `2.0` means both sides of a branch are serialized
    /// on average. Software Dynamic Row Skip pays this (Sec. V-B); the CRM
    /// hardware restores it to ~1.
    pub divergence: f64,
    /// Threads disabled by a trivial-row skip list `R` (Algorithm 3). When
    /// non-zero and `uses_crm` is set, the CRM compaction pipeline runs.
    pub skipped_threads: u32,
    /// Whether the kernel carries the extra skip-list argument and is
    /// routed through the CTA-reorganization module (Fig. 12).
    pub uses_crm: bool,
    /// Multiplier on the *effective* DRAM bandwidth this kernel achieves,
    /// in `(0, 1]`. Irregular access patterns — the scattered surviving
    /// rows of software Dynamic Row Skip, or the CSR gathers of the
    /// zero-pruning baseline \[31\] — break coalescing and row-buffer
    /// locality and achieve only a fraction of streaming bandwidth.
    pub dram_derate: f64,
    /// How many logical gate launches this single launch fuses (Appleyard
    /// et al.'s concatenated-gate GEMM): `4` for an LSTM `U_fico`/`W` slab,
    /// `3` for a GRU `U_rzh` slab or a masked `U_fic` launch, `1` for an
    /// ordinary kernel. Purely descriptive — the cost model already prices
    /// the fused shape — but traces and kernel-count audits report it.
    pub fused: u32,
}

impl KernelDesc {
    /// Starts building a kernel descriptor.
    pub fn builder(label: impl Into<String>, kind: KernelKind) -> KernelBuilder {
        KernelBuilder {
            desc: KernelDesc {
                label: label.into(),
                kind,
                flops: 0,
                reads: Vec::new(),
                writes: Vec::new(),
                smem_bytes: 0,
                threads: 0,
                cta_size: 128,
                divergence: 1.0,
                skipped_threads: 0,
                uses_crm: false,
                dram_derate: 1.0,
                fused: 1,
            },
        }
    }

    /// Field-wise `clone_from`: overwrites `self` with `src` while reusing
    /// the label and access-list heap buffers — the zero-allocation way
    /// for steady-state loops to refresh a scratch descriptor.
    pub fn copy_from(&mut self, src: &KernelDesc) {
        self.label.clone_from(&src.label);
        self.kind = src.kind;
        self.flops = src.flops;
        self.reads.clone_from(&src.reads);
        self.writes.clone_from(&src.writes);
        self.smem_bytes = src.smem_bytes;
        self.threads = src.threads;
        self.cta_size = src.cta_size;
        self.divergence = src.divergence;
        self.skipped_threads = src.skipped_threads;
        self.uses_crm = src.uses_crm;
        self.dram_derate = src.dram_derate;
        self.fused = src.fused;
    }

    /// Total bytes requested from global memory (before the cache).
    pub fn read_bytes(&self) -> u64 {
        self.reads.iter().map(|a| a.bytes).sum()
    }

    /// Total bytes written to global memory.
    pub fn write_bytes(&self) -> u64 {
        self.writes.iter().map(|a| a.bytes).sum()
    }

    /// Number of CTAs in the grid.
    pub fn num_ctas(&self) -> u32 {
        if self.cta_size == 0 {
            0
        } else {
            self.threads.div_ceil(self.cta_size)
        }
    }
}

/// Builder for [`KernelDesc`] (non-consuming terminal, cheap clone).
#[derive(Debug, Clone)]
pub struct KernelBuilder {
    desc: KernelDesc,
}

impl KernelBuilder {
    /// Sets the FLOP count.
    pub fn flops(mut self, flops: u64) -> Self {
        self.desc.flops = flops;
        self
    }

    /// Adds a global read of `bytes` from `region`.
    pub fn read(mut self, region: RegionId, bytes: u64) -> Self {
        if bytes > 0 {
            self.desc.reads.push(MemAccess { region, bytes });
        }
        self
    }

    /// Adds a global write of `bytes` to `region`.
    pub fn write(mut self, region: RegionId, bytes: u64) -> Self {
        if bytes > 0 {
            self.desc.writes.push(MemAccess { region, bytes });
        }
        self
    }

    /// Sets on-chip traffic in bytes.
    pub fn smem(mut self, bytes: u64) -> Self {
        self.desc.smem_bytes = bytes;
        self
    }

    /// Sets thread count and CTA size.
    pub fn threads(mut self, threads: u64, cta_size: u32) -> Self {
        self.desc.threads = u32::try_from(threads).unwrap_or(u32::MAX);
        self.desc.cta_size = cta_size.max(1);
        self
    }

    /// Sets the warp-divergence multiplier (`>= 1`).
    pub fn divergence(mut self, factor: f64) -> Self {
        self.desc.divergence = factor.max(1.0);
        self
    }

    /// Marks `skipped` threads as disabled by a skip list; `crm` selects
    /// whether the hardware compaction path handles them.
    pub fn skips(mut self, skipped: u64, crm: bool) -> Self {
        self.desc.skipped_threads = u32::try_from(skipped).unwrap_or(u32::MAX);
        self.desc.uses_crm = crm;
        self
    }

    /// Sets the effective-DRAM-bandwidth derate for irregular access
    /// patterns (clamped to `(0, 1]`).
    pub fn dram_derate(mut self, derate: f64) -> Self {
        self.desc.dram_derate = derate.clamp(1e-3, 1.0);
        self
    }

    /// Declares this launch as the fusion of `gates` logical gate
    /// launches (clamped to `>= 1`).
    pub fn fused(mut self, gates: u32) -> Self {
        self.desc.fused = gates.max(1);
        self
    }

    /// Finishes the descriptor.
    pub fn build(self) -> KernelDesc {
        self.desc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_round_trip() {
        let r = RegionId::new(7);
        let k = KernelDesc::builder("Sgemv(U,h)", KernelKind::Sgemv)
            .flops(1000)
            .read(r, 4096)
            .write(RegionId::new(8), 64)
            .smem(2048)
            .threads(512, 128)
            .divergence(1.5)
            .skips(100, true)
            .build();
        assert_eq!(k.kind, KernelKind::Sgemv);
        assert_eq!(k.flops, 1000);
        assert_eq!(k.read_bytes(), 4096);
        assert_eq!(k.write_bytes(), 64);
        assert_eq!(k.smem_bytes, 2048);
        assert_eq!(k.num_ctas(), 4);
        assert_eq!(k.divergence, 1.5);
        assert!(k.uses_crm);
        assert_eq!(k.skipped_threads, 100);
    }

    #[test]
    fn zero_byte_accesses_are_dropped() {
        let k = KernelDesc::builder("ew", KernelKind::ElementWise)
            .read(RegionId::new(1), 0)
            .write(RegionId::new(2), 0)
            .build();
        assert!(k.reads.is_empty());
        assert!(k.writes.is_empty());
    }

    #[test]
    fn divergence_clamped_to_one() {
        let k = KernelDesc::builder("x", KernelKind::Other)
            .divergence(0.25)
            .build();
        assert_eq!(k.divergence, 1.0);
    }

    #[test]
    fn cta_count_rounds_up() {
        let k = KernelDesc::builder("x", KernelKind::Other)
            .threads(130, 128)
            .build();
        assert_eq!(k.num_ctas(), 2);
    }

    #[test]
    fn dram_derate_is_clamped() {
        let k = KernelDesc::builder("x", KernelKind::Other)
            .dram_derate(2.0)
            .build();
        assert_eq!(k.dram_derate, 1.0);
        let k = KernelDesc::builder("x", KernelKind::Other)
            .dram_derate(0.5)
            .build();
        assert_eq!(k.dram_derate, 0.5);
        let k = KernelDesc::builder("x", KernelKind::Other).build();
        assert_eq!(k.dram_derate, 1.0);
    }

    #[test]
    fn fused_defaults_to_one_and_clamps() {
        let k = KernelDesc::builder("x", KernelKind::Sgemv).build();
        assert_eq!(k.fused, 1);
        let k = KernelDesc::builder("x", KernelKind::Sgemv).fused(4).build();
        assert_eq!(k.fused, 4);
        let k = KernelDesc::builder("x", KernelKind::Sgemv).fused(0).build();
        assert_eq!(k.fused, 1);
    }

    #[test]
    fn copy_from_is_value_equal_to_clone() {
        let src = KernelDesc::builder("Sgemv(U_fico,h)", KernelKind::Sgemv)
            .flops(1234)
            .read(RegionId::new(3), 512)
            .write(RegionId::new(4), 64)
            .smem(100)
            .threads(96, 32)
            .divergence(1.25)
            .skips(7, true)
            .dram_derate(0.4)
            .fused(4)
            .build();
        let mut dst = KernelDesc::builder("other", KernelKind::Other)
            .read(RegionId::new(9), 1)
            .build();
        dst.copy_from(&src);
        assert_eq!(dst, src);
    }

    #[test]
    fn kind_labels() {
        assert_eq!(KernelKind::Sgemv.label(), "Sgemv");
        assert_eq!(KernelKind::ElementWise.label(), "lstm_ew");
        assert_eq!(KernelKind::Drs.label(), "DRS");
    }
}
