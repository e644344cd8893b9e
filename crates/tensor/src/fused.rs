//! Fused multi-gate packed kernels: all of a cell's gate matrices in
//! one weight slab, applied with one pass over the input.
//!
//! An LSTM step multiplies the *same* vector by four equally-shaped
//! matrices (W_f/W_i/W_c/W_o against `x_t`, then U_f/U_i/U_c/U_o
//! against `h_{t-1}`); a GRU does the same with three. Keeping the four
//! as separate [`PackedMatrix`](crate::PackedMatrix) packs re-streams
//! `x` once per gate and launches four kernels where one suffices —
//! exactly the waste Appleyard et al. eliminate by concatenating the
//! gate matrices into one tall GEMM operand. [`FusedGates`] is that
//! concatenation for the packed row-panel layout.
//!
//! ## Layout: gate-major, panel-aligned
//!
//! The slab is **gate-major**: gate `g`'s own `ceil(rows / MR)` packed
//! panels are stored consecutively, followed by gate `g+1`'s. This is
//! deliberately *not* a tall `4H x K` vertical stack: when `rows` is not
//! a multiple of [`MR`], a vertical stack would let rows of gate `g+1`
//! share a panel with the tail rows of gate `g`, changing which rows sit
//! in which SIMD lane. Gate-major keeps every gate's panel decomposition
//! — and therefore every per-row accumulation — **byte-identical** to
//! packing that gate alone, which is what makes the bit-exactness
//! argument below a one-liner.
//!
//! ## Bit-exactness
//!
//! Every kernel here reuses `panel_gemv`, the same micro-kernel behind
//! `PackedMatrix::gemv`, and each output row is an independent SIMD lane
//! with its own accumulators. Fusing changes only *which rows ride in
//! one pass over `x`* — a regrouping of rows, never of any row's sum —
//! so gate `g`'s section of a fused product is bit-identical to
//! `PackedMatrix::pack(&mats[g]).gemv(&x)`. The property tests pin this
//! for dense, batched, and masked paths.

use crate::matrix::Matrix;
use crate::packed::{panel_gemv, GatherScratch, MR};
use crate::vector::Vector;

/// Several equally-shaped gate matrices packed into one gate-major slab
/// of [`MR`]-row column-interleaved panels.
///
/// See the module docs for the layout and the bit-exactness contract.
#[derive(Debug, Clone, PartialEq)]
pub struct FusedGates {
    gates: usize,
    rows: usize,
    cols: usize,
    /// `gates * ceil(rows / MR)` panels of `MR * cols` values; gate `g`
    /// occupies panels `[g * ppg, (g + 1) * ppg)`. Lanes past each
    /// gate's last row are zero padding.
    data: Vec<f32>,
}

impl FusedGates {
    /// Packs the gate matrices into one fused slab. One pass over each.
    ///
    /// # Panics
    /// Panics if `mats` is empty or the shapes differ.
    pub fn pack(mats: &[&Matrix]) -> Self {
        assert!(!mats.is_empty(), "FusedGates::pack: no gate matrices");
        let (rows, cols) = mats[0].shape();
        for (g, m) in mats.iter().enumerate() {
            assert_eq!(
                m.shape(),
                (rows, cols),
                "FusedGates::pack: gate {g} shape mismatch"
            );
        }
        let ppg = rows.div_ceil(MR);
        let mut data = vec![0.0f32; mats.len() * ppg * MR * cols];
        for (g, m) in mats.iter().enumerate() {
            let gate_base = g * ppg * MR * cols;
            for p in 0..ppg {
                let base = gate_base + p * MR * cols;
                for lane in 0..MR.min(rows - p * MR) {
                    let row = m.row(p * MR + lane);
                    for (k, &v) in row.iter().enumerate() {
                        data[base + k * MR + lane] = v;
                    }
                }
            }
        }
        Self {
            gates: mats.len(),
            rows,
            cols,
            data,
        }
    }

    /// Number of fused gate matrices.
    pub fn gates(&self) -> usize {
        self.gates
    }

    /// Rows of each gate matrix (the hidden size `H`).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns of each gate matrix.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total output rows of the fused product (`gates * rows`).
    pub fn total_rows(&self) -> usize {
        self.gates * self.rows
    }

    /// Panels per gate.
    fn ppg(&self) -> usize {
        self.rows.div_ceil(MR)
    }

    /// Borrows global panel `q` (`0 .. gates * ppg`).
    fn panel(&self, q: usize) -> &[f32] {
        &self.data[q * MR * self.cols..(q + 1) * MR * self.cols]
    }

    /// Writes global panel `q`'s live lanes into the fused output slab.
    fn scatter(&self, q: usize, sum: &[f32; MR], out: &mut [f32]) {
        let ppg = self.ppg();
        let (g, p) = (q / ppg, q % ppg);
        let live = MR.min(self.rows - p * MR);
        let start = g * self.rows + p * MR;
        out[start..start + live].copy_from_slice(&sum[..live]);
    }

    /// The fused matrix-vector product: one pass over the slab computes
    /// every gate's pre-activations into `out`, laid out gate-major
    /// (`out[g * rows .. (g + 1) * rows]` is gate `g`).
    ///
    /// Section `g` is bit-identical to `PackedMatrix::gemv` on gate `g`
    /// alone. Internally panels are processed two at a time so each
    /// broadcast of `x[k]` feeds twice the accumulators ([`MR`] rows per
    /// panel) — more ILP per pass, same per-row association.
    ///
    /// # Panics
    /// Panics if `x.len() != cols` or `out.len() != gates * rows`.
    pub fn gemv_into(&self, x: &[f32], out: &mut [f32]) {
        assert_eq!(x.len(), self.cols, "FusedGates::gemv_into: x length");
        assert_eq!(
            out.len(),
            self.total_rows(),
            "FusedGates::gemv_into: out length"
        );
        let total = self.gates * self.ppg();
        let pair = panel_pair_kernel();
        let mut q = 0;
        while q + 1 < total {
            let (s0, s1) = pair(self.panel(q), self.panel(q + 1), self.cols, x);
            self.scatter(q, &s0, out);
            self.scatter(q + 1, &s1, out);
            q += 2;
        }
        if q < total {
            let sum = panel_gemv(self.panel(q), self.cols, x);
            self.scatter(q, &sum, out);
        }
    }

    /// Matrix-vector product of a single gate's matrix, writing its
    /// `rows` outputs into `out`. Bit-identical to `PackedMatrix::gemv`
    /// on that gate.
    ///
    /// # Panics
    /// Panics if `g >= gates`, `x.len() != cols`, or `out.len() != rows`.
    pub fn gate_gemv_into(&self, g: usize, x: &[f32], out: &mut [f32]) {
        assert!(g < self.gates, "FusedGates::gate_gemv_into: gate {g}");
        assert_eq!(x.len(), self.cols, "FusedGates::gate_gemv_into: x length");
        assert_eq!(
            out.len(),
            self.rows,
            "FusedGates::gate_gemv_into: out length"
        );
        let ppg = self.ppg();
        for p in 0..ppg {
            let sum = panel_gemv(self.panel(g * ppg + p), self.cols, x);
            let live = MR.min(self.rows - p * MR);
            out[p * MR..p * MR + live].copy_from_slice(&sum[..live]);
        }
    }

    /// Batched single-gate product with the *panel* loop outermost (each
    /// weight panel loaded once, reused across all columns), streaming
    /// results through `write(column, row_start, values)` so callers can
    /// scatter into recycled per-sequence buffers without this layer
    /// allocating anything.
    ///
    /// The values passed for column `i` are bit-identical to
    /// `self.gate_gemv_into(g, &xs[i], ..)`.
    ///
    /// # Panics
    /// Panics if `g >= gates` or any `xs[i].len() != cols`.
    pub fn gate_gemv_batch_with(
        &self,
        g: usize,
        xs: &[Vector],
        mut write: impl FnMut(usize, usize, &[f32]),
    ) {
        assert!(g < self.gates, "FusedGates::gate_gemv_batch_with: gate {g}");
        for (i, x) in xs.iter().enumerate() {
            assert_eq!(
                x.len(),
                self.cols,
                "FusedGates::gate_gemv_batch_with: column {i} length"
            );
        }
        let ppg = self.ppg();
        for p in 0..ppg {
            let panel = self.panel(g * ppg + p);
            let live = MR.min(self.rows - p * MR);
            for (i, x) in xs.iter().enumerate() {
                let sum = panel_gemv(panel, self.cols, x.as_slice());
                write(i, p * MR, &sum[..live]);
            }
        }
    }

    /// Row-masked product of the first `ngates` gates under one shared
    /// DRS row mask — the fused form of the combined-scheme `U_fic`
    /// launch, where the f/i/c gates skip the same hidden rows. The
    /// skipped rows of every gate produce `skipped_value`; `out` is the
    /// gate-major slab of the `ngates` masked sections.
    ///
    /// Active rows are gathered per gate in increasing row order, [`MR`]
    /// at a time — the same grouping as
    /// [`sgemv_masked_gather`](crate::sgemv_masked_gather) on that gate's
    /// raw matrix, so each section is bit-identical to the unfused
    /// masked kernel.
    ///
    /// # Panics
    /// Panics if `ngates > gates`, `x.len() != cols`,
    /// `active.len() != rows`, or `out.len() != ngates * rows`.
    pub fn gemv_masked_prefix_into(
        &self,
        ngates: usize,
        x: &Vector,
        active: &[bool],
        skipped_value: f32,
        scratch: &mut GatherScratch,
        out: &mut [f32],
    ) {
        assert!(
            ngates <= self.gates,
            "FusedGates::gemv_masked_prefix_into: {ngates} > {} gates",
            self.gates
        );
        assert_eq!(
            out.len(),
            ngates * self.rows,
            "FusedGates::gemv_masked_prefix_into: out length"
        );
        for g in 0..ngates {
            let section = &mut out[g * self.rows..(g + 1) * self.rows];
            self.gate_gemv_masked_into(g, x, active, skipped_value, scratch, section);
        }
    }

    /// Row-masked product of one gate's matrix: the packed twin of
    /// [`sgemv_masked_gather_into`](crate::sgemv_masked_gather_into),
    /// gathering active rows out of the interleaved panels instead of a
    /// row-major matrix. Bit-identical to the raw-matrix gather kernel
    /// (same rows, same grouping, same micro-kernel).
    ///
    /// # Panics
    /// Panics if `g >= gates`, `x.len() != cols`,
    /// `active.len() != rows`, or `out.len() != rows`.
    pub fn gate_gemv_masked_into(
        &self,
        g: usize,
        x: &Vector,
        active: &[bool],
        skipped_value: f32,
        scratch: &mut GatherScratch,
        out: &mut [f32],
    ) {
        assert!(
            g < self.gates,
            "FusedGates::gate_gemv_masked_into: gate {g}"
        );
        assert_eq!(
            x.len(),
            self.cols,
            "FusedGates::gate_gemv_masked_into: x length"
        );
        assert_eq!(
            active.len(),
            self.rows,
            "FusedGates::gate_gemv_masked_into: mask length"
        );
        assert_eq!(
            out.len(),
            self.rows,
            "FusedGates::gate_gemv_masked_into: out length"
        );
        let cols = self.cols;
        let ppg = self.ppg();
        let gate_base = g * ppg * MR * cols;
        out.fill(skipped_value);
        let panel = &mut scratch.panel;
        panel.clear();
        panel.resize(MR * cols, 0.0);
        let mut gathered: [usize; MR] = [0; MR];
        let mut lanes = 0usize;
        let data = &self.data;
        let mut flush = |panel: &mut [f32], gathered: &[usize; MR], lanes: &mut usize| {
            if *lanes == 0 {
                return;
            }
            // Gather the active rows out of their source panels with the
            // column index outermost: stores are sequential in the
            // scratch panel, reads are `lanes` strided streams (stride
            // MR within each source panel).
            for (k, chunk) in panel.chunks_exact_mut(MR).enumerate() {
                for (slot, &r) in chunk.iter_mut().zip(gathered.iter().take(*lanes)) {
                    let src = gate_base + (r / MR) * MR * cols + k * MR + (r % MR);
                    *slot = data[src];
                }
                // Pad dead lanes so the micro-kernel's discarded extra
                // work is well-defined (at most the final flush).
                chunk[*lanes..].fill(0.0);
            }
            let sum = panel_gemv(panel, cols, x.as_slice());
            for (lane, &r) in gathered.iter().enumerate().take(*lanes) {
                out[r] = sum[lane];
            }
            *lanes = 0;
        };
        for (r, &is_active) in active.iter().enumerate() {
            if !is_active {
                continue;
            }
            gathered[lanes] = r;
            lanes += 1;
            if lanes == MR {
                flush(panel, &gathered, &mut lanes);
            }
        }
        flush(panel, &gathered, &mut lanes);
    }
}

/// Signature of a two-panel micro-kernel: `(panel0, panel1, cols, x)`
/// to both panels' row sums.
type PanelPairFn = fn(&[f32], &[f32], usize, &[f32]) -> ([f32; MR], [f32; MR]);

/// Selects the pair micro-kernel: the AVX build when the CPU has it
/// (`is_x86_feature_detected!` caches the CPUID probe), the portable
/// scalar build otherwise. Both produce bit-identical results — the AVX
/// path uses only per-lane `mul`/`add` (never FMA), so every float op
/// rounds exactly as its scalar twin.
#[allow(unsafe_code)]
fn panel_pair_kernel() -> PanelPairFn {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx") {
        // SAFETY: only reachable when the CPU reports AVX.
        return |p0, p1, cols, x| unsafe { panel_pair_gemv_avx(p0, p1, cols, x) };
    }
    panel_pair_gemv
}

/// Two panels' micro-kernel in one pass over `x`: each broadcast `x[k]`
/// feeds `2 * MR` independent per-row accumulators. Each row's sum uses
/// exactly [`panel_gemv`]'s association order — the pairing adds ILP,
/// never a reassociation.
fn panel_pair_gemv(p0: &[f32], p1: &[f32], cols: usize, x: &[f32]) -> ([f32; MR], [f32; MR]) {
    let chunks = cols / 4;
    let mut acc0 = [[0.0f32; MR]; 4];
    let mut acc1 = [[0.0f32; MR]; 4];
    for i in 0..chunks {
        let base = i * 4 * MR;
        for phase in 0..4 {
            let xv = x[i * 4 + phase];
            let col0 = &p0[base + phase * MR..base + (phase + 1) * MR];
            let col1 = &p1[base + phase * MR..base + (phase + 1) * MR];
            for ((a, b), (&c0, &c1)) in acc0[phase]
                .iter_mut()
                .zip(acc1[phase].iter_mut())
                .zip(col0.iter().zip(col1))
            {
                *a += c0 * xv;
                *b += c1 * xv;
            }
        }
    }
    let mut s0 = [0.0f32; MR];
    let mut s1 = [0.0f32; MR];
    for r in 0..MR {
        s0[r] = ((acc0[0][r] + acc0[1][r]) + acc0[2][r]) + acc0[3][r];
        s1[r] = ((acc1[0][r] + acc1[1][r]) + acc1[2][r]) + acc1[3][r];
    }
    for (k, &xv) in x.iter().enumerate().skip(chunks * 4) {
        let col0 = &p0[k * MR..(k + 1) * MR];
        let col1 = &p1[k * MR..(k + 1) * MR];
        for r in 0..MR {
            s0[r] += col0[r] * xv;
            s1[r] += col1[r] * xv;
        }
    }
    (s0, s1)
}

/// [`panel_pair_gemv`] built for AVX: one 8-lane register per phase
/// accumulator (8 live accumulators — within the 16-register budget the
/// baseline build can't assume), explicit `vmulps`/`vaddps` only.
///
/// Bit-exactness: lane `r` of `acc[phase]` performs exactly the scalar
/// kernel's `acc[phase][r] += col[r] * xv` — one IEEE rounding for the
/// multiply, one for the add, in the same chunk order — and the final
/// per-lane reduction is the same `((a0 + a1) + a2) + a3`. FMA is
/// deliberately never emitted: a fused multiply-add rounds once, not
/// twice, and would break the bitwise contract with [`panel_gemv`].
///
/// # Safety
/// Caller must ensure the CPU supports AVX.
#[allow(unsafe_code)]
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn panel_pair_gemv_avx(
    p0: &[f32],
    p1: &[f32],
    cols: usize,
    x: &[f32],
) -> ([f32; MR], [f32; MR]) {
    use core::arch::x86_64::*;
    debug_assert_eq!(
        MR, 8,
        "AVX kernel assumes one YMM register per panel column"
    );
    let chunks = cols / 4;
    let mut acc0 = [_mm256_setzero_ps(); 4];
    let mut acc1 = [_mm256_setzero_ps(); 4];
    for i in 0..chunks {
        let base = i * 4 * MR;
        for phase in 0..4 {
            let xv = _mm256_broadcast_ss(&x[i * 4 + phase]);
            let col0 = _mm256_loadu_ps(p0.as_ptr().add(base + phase * MR));
            let col1 = _mm256_loadu_ps(p1.as_ptr().add(base + phase * MR));
            acc0[phase] = _mm256_add_ps(acc0[phase], _mm256_mul_ps(col0, xv));
            acc1[phase] = _mm256_add_ps(acc1[phase], _mm256_mul_ps(col1, xv));
        }
    }
    let r0 = _mm256_add_ps(
        _mm256_add_ps(_mm256_add_ps(acc0[0], acc0[1]), acc0[2]),
        acc0[3],
    );
    let r1 = _mm256_add_ps(
        _mm256_add_ps(_mm256_add_ps(acc1[0], acc1[1]), acc1[2]),
        acc1[3],
    );
    let mut s0 = [0.0f32; MR];
    let mut s1 = [0.0f32; MR];
    _mm256_storeu_ps(s0.as_mut_ptr(), r0);
    _mm256_storeu_ps(s1.as_mut_ptr(), r1);
    for (k, &xv) in x.iter().enumerate().skip(chunks * 4) {
        let col0 = &p0[k * MR..(k + 1) * MR];
        let col1 = &p1[k * MR..(k + 1) * MR];
        for r in 0..MR {
            s0[r] += col0[r] * xv;
            s1[r] += col1[r] * xv;
        }
    }
    (s0, s1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packed::{sgemv_masked_gather, PackedMatrix};

    fn pseudo_matrix(rows: usize, cols: usize, seed: u32) -> Matrix {
        Matrix::from_fn(rows, cols, |r, c| {
            let h = (r as u32)
                .wrapping_mul(2654435761)
                .wrapping_add((c as u32).wrapping_mul(40503))
                .wrapping_add(seed);
            (h % 2000) as f32 / 700.0 - 1.4
        })
    }

    fn pseudo_vector(len: usize, seed: u32) -> Vector {
        Vector::from_fn(len, |i| {
            let h = (i as u32).wrapping_mul(97_003).wrapping_add(seed);
            (h % 1000) as f32 / 350.0 - 1.3
        })
    }

    fn gate_set(gates: usize, rows: usize, cols: usize, seed: u32) -> Vec<Matrix> {
        (0..gates)
            .map(|g| pseudo_matrix(rows, cols, seed + 31 * g as u32))
            .collect()
    }

    #[test]
    fn fused_gemv_sections_bit_identical_to_per_gate_packed() {
        // Shapes straddling panel (MR=8) and phase-chunk boundaries,
        // and both LSTM (4) and GRU (3) gate counts.
        for gates in [3usize, 4] {
            for (rows, cols) in [(1, 1), (7, 5), (8, 8), (9, 12), (24, 16), (33, 31)] {
                let mats = gate_set(gates, rows, cols, 11);
                let refs: Vec<&Matrix> = mats.iter().collect();
                let fused = FusedGates::pack(&refs);
                assert_eq!(fused.gates(), gates);
                assert_eq!(fused.total_rows(), gates * rows);
                let x = pseudo_vector(cols, 7);
                let mut slab = vec![0.0f32; gates * rows];
                fused.gemv_into(x.as_slice(), &mut slab);
                for (g, m) in mats.iter().enumerate() {
                    let single = PackedMatrix::pack(m).gemv(&x);
                    for (r, (f, s)) in slab[g * rows..(g + 1) * rows]
                        .iter()
                        .zip(single.iter())
                        .enumerate()
                    {
                        assert_eq!(
                            f.to_bits(),
                            s.to_bits(),
                            "{gates}g {rows}x{cols} gate {g} row {r}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn gate_gemv_matches_fused_section() {
        let mats = gate_set(4, 19, 13, 5);
        let refs: Vec<&Matrix> = mats.iter().collect();
        let fused = FusedGates::pack(&refs);
        let x = pseudo_vector(13, 3);
        let mut slab = vec![0.0f32; fused.total_rows()];
        fused.gemv_into(x.as_slice(), &mut slab);
        let mut one = vec![0.0f32; 19];
        for g in 0..4 {
            fused.gate_gemv_into(g, x.as_slice(), &mut one);
            assert_eq!(&slab[g * 19..(g + 1) * 19], one.as_slice());
        }
    }

    #[test]
    fn gate_batch_columns_bit_identical_to_single() {
        let mats = gate_set(4, 17, 9, 23);
        let refs: Vec<&Matrix> = mats.iter().collect();
        let fused = FusedGates::pack(&refs);
        let xs: Vec<Vector> = (0..3).map(|i| pseudo_vector(9, 40 + i)).collect();
        for g in 0..4 {
            let mut outs = vec![vec![0.0f32; 17]; xs.len()];
            fused.gate_gemv_batch_with(g, &xs, |i, row0, vals| {
                outs[i][row0..row0 + vals.len()].copy_from_slice(vals);
            });
            for (x, got) in xs.iter().zip(&outs) {
                let mut single = vec![0.0f32; 17];
                fused.gate_gemv_into(g, x.as_slice(), &mut single);
                assert_eq!(*got, single);
            }
        }
    }

    #[test]
    fn masked_sections_bit_identical_to_raw_gather_kernel() {
        for (rows, cols) in [(5, 3), (16, 16), (33, 20)] {
            let mats = gate_set(4, rows, cols, 3);
            let refs: Vec<&Matrix> = mats.iter().collect();
            let fused = FusedGates::pack(&refs);
            let x = pseudo_vector(cols, 5);
            let mut scratch = GatherScratch::new();
            for skip_mod in [2usize, 3, 5] {
                let active: Vec<bool> = (0..rows).map(|r| r % skip_mod != 0).collect();
                let mut slab = vec![0.0f32; 3 * rows];
                fused.gemv_masked_prefix_into(3, &x, &active, 0.0, &mut scratch, &mut slab);
                for (g, m) in mats.iter().take(3).enumerate() {
                    let reference = sgemv_masked_gather(m, &x, &active, 0.0);
                    for (f, r) in slab[g * rows..(g + 1) * rows].iter().zip(reference.iter()) {
                        assert_eq!(f.to_bits(), r.to_bits(), "{rows}x{cols} gate {g}");
                    }
                }
            }
        }
    }

    #[test]
    fn masked_full_mask_equals_dense_section() {
        let mats = gate_set(3, 21, 14, 9);
        let refs: Vec<&Matrix> = mats.iter().collect();
        let fused = FusedGates::pack(&refs);
        let x = pseudo_vector(14, 2);
        let full = vec![true; 21];
        let mut scratch = GatherScratch::new();
        let mut masked = vec![0.0f32; 21];
        let mut dense = vec![0.0f32; 21];
        for g in 0..3 {
            fused.gate_gemv_masked_into(g, &x, &full, 0.0, &mut scratch, &mut masked);
            fused.gate_gemv_into(g, x.as_slice(), &mut dense);
            for (m, d) in masked.iter().zip(&dense) {
                assert_eq!(m.to_bits(), d.to_bits());
            }
        }
    }

    #[test]
    fn masked_empty_mask_is_all_skipped() {
        let mats = gate_set(2, 9, 4, 8);
        let refs: Vec<&Matrix> = mats.iter().collect();
        let fused = FusedGates::pack(&refs);
        let x = pseudo_vector(4, 9);
        let none = vec![false; 9];
        let mut scratch = GatherScratch::new();
        let mut out = vec![0.0f32; 9];
        fused.gate_gemv_masked_into(0, &x, &none, 42.0, &mut scratch, &mut out);
        assert!(out.iter().all(|&v| v == 42.0));
    }

    /// The AVX pair kernel must agree with the portable scalar kernel to
    /// the last bit, including the non-multiple-of-4 column tail (runs
    /// only where the CPU has AVX; elsewhere the dispatch never picks it).
    #[cfg(target_arch = "x86_64")]
    #[allow(unsafe_code)]
    #[test]
    fn avx_pair_kernel_bit_identical_to_scalar() {
        if !std::arch::is_x86_feature_detected!("avx") {
            return;
        }
        for cols in [1usize, 4, 7, 16, 31, 64] {
            let m0 = pseudo_matrix(MR, cols, 77);
            let m1 = pseudo_matrix(MR, cols, 177);
            let fused = FusedGates::pack(&[&m0, &m1]);
            let x = pseudo_vector(cols, 55);
            let scalar = panel_pair_gemv(fused.panel(0), fused.panel(1), cols, x.as_slice());
            // SAFETY: AVX support checked above.
            let avx =
                unsafe { panel_pair_gemv_avx(fused.panel(0), fused.panel(1), cols, x.as_slice()) };
            for r in 0..MR {
                assert_eq!(
                    avx.0[r].to_bits(),
                    scalar.0[r].to_bits(),
                    "{cols} cols p0[{r}]"
                );
                assert_eq!(
                    avx.1[r].to_bits(),
                    scalar.1[r].to_bits(),
                    "{cols} cols p1[{r}]"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn mismatched_gate_shapes_panic() {
        let a = Matrix::zeros(4, 3);
        let b = Matrix::zeros(4, 2);
        FusedGates::pack(&[&a, &b]);
    }

    #[test]
    #[should_panic(expected = "out length")]
    fn wrong_slab_length_panics() {
        let a = Matrix::zeros(4, 3);
        let fused = FusedGates::pack(&[&a, &a]);
        let mut slab = vec![0.0f32; 7];
        fused.gemv_into(&[0.0; 3], &mut slab);
    }
}
