//! The packed gate slab: all of a cell's gate matrices in one weight
//! slab, at any storage precision, applied with one pass over the input.
//!
//! An LSTM step multiplies the *same* vector by four equally-shaped
//! matrices (W_f/W_i/W_c/W_o against `x_t`, then U_f/U_i/U_c/U_o
//! against `h_{t-1}`); a GRU does the same with three. Packing the four
//! separately re-streams `x` once per gate and launches four kernels
//! where one suffices — exactly the waste Appleyard et al. eliminate by
//! concatenating the gate matrices into one tall GEMM operand.
//! [`FusedGates`] is that concatenation for the row-panel layout of
//! [`crate::packed`], and the crate's only packed weight type: a
//! one-gate slab is a single packed matrix.
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
//! ## Row order
//!
//! Every gate's rows may be stored in one shared order other than their
//! natural one ([`FusedGates::pack_sorted`]): slot `s` of each gate —
//! lane `s % MR` of its panel `s / MR` — holds row `order[s]`. Every
//! product writes each lane back through the order, and the masked
//! products test each lane's mask bit through it, so callers read and
//! write natural row order throughout. A natural slab is the identity
//! order; there is no second walk. This is the host's software form of
//! the paper's CTA reorganization (Sec. V): the DRS skip list follows
//! the output-gate bias, so a slab sorted by that bias groups the rows
//! that skip together into whole panels, and a panel whose every lane is
//! inactive costs nothing.
//!
//! ## Storage precision
//!
//! The panels always hold `f32` weights: [`FusedGates::pack`] rounds each
//! weight to its [`Precision`] through [`Precision::apply`]'s per-row
//! routine, so every tier runs the same kernels. Each has a portable and
//! an AVX build from one body (see [`crate::packed`]); the tiers' byte
//! savings are priced on the simulated device ([`crate::quant`]).
//!
//! ## One dense walk, one output layout
//!
//! Every unmasked product — the whole slab against one column
//! ([`FusedGates::gemv_into`]), one gate's panels against a batch of
//! columns ([`FusedGates::gate_gemv_into`]) and the whole slab against a
//! batch of columns ([`FusedGates::gemv_batch_into`]) — is one private walk
//! over a range of panels. It runs panels in pairs; within a pair each
//! panel runs against four columns at once (`panel_quad_gemv`), then
//! three or two (`panel_triple_gemv`, `panel_double_gemv`), so one weight
//! load feeds that many columns' accumulators, and a lone column runs
//! the pair through `panel_pair_gemv`, where each broadcast of `x[k]`
//! feeds both panels' rows. An odd last panel runs alone through
//! `panel_gemv`. The walk writes through one scatter into gate-major
//! column blocks: column `i`'s gate `g` is `out[(i * gates + g) * rows ..]`,
//! in natural row order. A caller's `W·x` buffer and its `U·h` slab are
//! both that layout, so no caller maps gates to fields.
//!
//! Every masked product ([`FusedGates::gemv_masked_prefix_into`] over a
//! batch of columns, each under its own row mask, and
//! [`FusedGates::gate_gemv_masked_into`] for one gate and one column) is
//! a second private walk in the same layout. Panel by panel, it runs
//! only the columns whose mask has an active lane there, through the
//! same four-, three- and two-column kernels and `panel_gemv` for a lone
//! column, and each column writes back only its own active lanes.
//!
//! ## Bit-exactness
//!
//! Each output row is an independent SIMD lane with its own
//! accumulators, and every kernel accumulates in the association order
//! of [`crate::gemm::sgemv`]. Fusing changes only *which rows ride in
//! one pass over `x`* — a regrouping of rows, never of any row's sum —
//! so gate `g`'s section of any product is bit-identical to `sgemv` on
//! gate `g`'s matrix, rounded by [`Precision::apply`] for the quantized
//! tiers, in any row order. Blocking columns regroups which columns
//! share a weight load, never a row's sum, so every column of a batched
//! product is bit-identical too. The masked products run the same
//! kernels in place on the stored panels that hold an active row, skip
//! the others, and write back only the active lanes. The property tests
//! pin this for the dense, batched and masked paths at every tier and in
//! identity, reversed, random and bias-sorted orders, the batched paths
//! at every column count up to ten and nine.

use crate::matrix::Matrix;
use crate::packed::{panel_gemv, simd_kernel, MR};
use crate::quant::Precision;
use crate::vector::Vector;
use std::ops::Range;
use std::slice;

/// Several equally-shaped gate matrices, rounded to one [`Precision`],
/// packed into one gate-major slab of [`MR`]-row column-interleaved
/// `f32` panels, their rows in one shared order.
///
/// See the module docs for the layout and the bit-exactness contract.
#[derive(Debug, Clone, PartialEq)]
pub struct FusedGates {
    gates: usize,
    rows: usize,
    cols: usize,
    /// The row order shared by every gate: lane `s % MR` of each gate's
    /// panel `s / MR` computes that gate's row `order[s]`. A permutation
    /// of `0..rows`; the identity for [`pack`](Self::pack).
    order: Vec<usize>,
    /// `gates * ceil(rows / MR)` panels of `MR * cols` elements; gate `g`
    /// occupies panels `[g * ppg, (g + 1) * ppg)`. Lanes past each
    /// gate's last row are zero padding.
    panels: Vec<f32>,
}

impl FusedGates {
    /// Packs the gate matrices into one slab in natural row order, each
    /// weight rounded to `precision` as [`Precision::apply`] rounds it.
    ///
    /// # Panics
    /// Panics if `mats` is empty or the shapes differ.
    pub fn pack(mats: &[&Matrix], precision: Precision) -> Self {
        let rows = mats.first().map_or(0, |m| m.rows());
        Self::pack_in_order(mats, precision, (0..rows).collect())
    }

    /// Packs the gate matrices like [`pack`](Self::pack), with every
    /// gate's rows stored in ascending order of `key[row]` (ties by row
    /// index, `f32::total_cmp` order). Products still read and write
    /// natural row order, with the same bits; only which rows share a
    /// panel changes, so rows with similar keys skip together under a
    /// mask that follows the key.
    ///
    /// # Panics
    /// Panics if `mats` is empty, the shapes differ, or
    /// `key.len() != rows`.
    pub fn pack_sorted(mats: &[&Matrix], precision: Precision, key: &[f32]) -> Self {
        let rows = mats.first().map_or(0, |m| m.rows());
        assert_eq!(key.len(), rows, "FusedGates::pack_sorted: key length");
        let mut order: Vec<usize> = (0..rows).collect();
        order.sort_by(|&a, &b| key[a].total_cmp(&key[b]));
        Self::pack_in_order(mats, precision, order)
    }

    /// Packs with row `order[s]` of every gate in slot `s`, one panel at
    /// a time: its rows are rounded into a row-major staging block, then
    /// written out one panel column (`MR` contiguous lanes) at a time.
    fn pack_in_order(mats: &[&Matrix], precision: Precision, order: Vec<usize>) -> Self {
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
        let mut panels = vec![0.0; mats.len() * ppg * MR * cols];
        let mut codes = Vec::new();
        let mut staged = vec![0.0f32; MR * cols];
        // An empty gate has no panels, so no chunk of it is ever read.
        let gate_len = (ppg * MR * cols).max(1);
        for (m, gate_panels) in mats.iter().zip(panels.chunks_mut(gate_len)) {
            for (slots, panel) in order.chunks(MR).zip(gate_panels.chunks_mut(MR * cols)) {
                for (&r, lane) in slots.iter().zip(staged.chunks_mut(cols)) {
                    precision.round_row_into(m.row(r), &mut codes, lane.iter_mut());
                }
                for (k, column) in panel.chunks_exact_mut(MR).enumerate() {
                    for (lane, slot) in column[..slots.len()].iter_mut().enumerate() {
                        *slot = staged[lane * cols + k];
                    }
                }
            }
        }
        Self {
            gates: mats.len(),
            rows,
            cols,
            order,
            panels,
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

    /// The row order shared by every gate: slot `s` (lane `s % MR` of
    /// panel `s / MR`) holds row `row_order()[s]`.
    pub fn row_order(&self) -> &[usize] {
        &self.order
    }

    /// Total output rows of the fused product (`gates * rows`).
    pub fn total_rows(&self) -> usize {
        self.gates * self.rows
    }

    /// Panels per gate.
    fn ppg(&self) -> usize {
        self.rows.div_ceil(MR)
    }

    /// Global panel `q` (`0 .. gates * ppg`): `MR * cols` interleaved
    /// weights.
    fn panel(&self, q: usize) -> &[f32] {
        &self.panels[q * MR * self.cols..(q + 1) * MR * self.cols]
    }

    /// Global panel `q`'s gate and the gate rows its live lanes compute,
    /// lane by lane.
    fn panel_rows(&self, q: usize) -> (usize, &[usize]) {
        let ppg = self.ppg();
        let (g, p) = (q / ppg, q % ppg);
        (g, &self.order[p * MR..self.rows.min((p + 1) * MR)])
    }

    /// The fused matrix-vector product: one pass over the slab computes
    /// every gate's pre-activations into `out`, laid out gate-major
    /// (`out[g * rows .. (g + 1) * rows]` is gate `g`). The one-column
    /// dense walk, so section `g` is bit-identical to
    /// [`gate_gemv_into`](Self::gate_gemv_into) on gate `g`.
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
        self.walk(0..self.gates, slice::from_ref(&x), out);
    }

    /// Matrix-vector products of a single gate's matrix against every
    /// column of `xs`: the dense walk over gate `g`'s panels, which loads
    /// each panel once for up to four columns. Column `i`'s `rows`
    /// outputs land in `out[i * rows ..]`, each bit-identical to
    /// [`crate::gemm::sgemv`] on the gate's
    /// ([`Precision::apply`]-rounded) matrix.
    ///
    /// # Panics
    /// Panics if `g >= gates`, any `xs[i].len() != cols`, or
    /// `out.len() != xs.len() * rows`.
    pub fn gate_gemv_into<X: AsRef<[f32]>>(&self, g: usize, xs: &[X], out: &mut [f32]) {
        assert!(g < self.gates, "FusedGates::gate_gemv_into: gate {g}");
        self.check_columns("gate_gemv_into", xs);
        assert_eq!(
            out.len(),
            xs.len() * self.rows,
            "FusedGates::gate_gemv_into: out length"
        );
        self.walk(g..g + 1, xs, out);
    }

    /// The batched product of the whole slab: column `i`'s gate-major
    /// `gates * rows` products land in the block
    /// `out[i * gates * rows ..]`, each bit-identical to
    /// [`gemv_into`](Self::gemv_into) on `xs[i]`. The dense walk loads
    /// each weight panel once for up to four columns.
    ///
    /// # Panics
    /// Panics if any `xs[i].len() != cols` or
    /// `out.len() != xs.len() * gates * rows`.
    pub fn gemv_batch_into(&self, xs: &[Vector], out: &mut [f32]) {
        self.check_columns("gemv_batch_into", xs);
        assert_eq!(
            out.len(),
            xs.len() * self.total_rows(),
            "FusedGates::gemv_batch_into: out length"
        );
        self.walk(0..self.gates, xs, out);
    }

    /// The one dense walk behind every unmasked product (see the module
    /// docs): the panels of `gates` against every column of `xs`, panel
    /// pairs outermost so each pair is loaded once for every column. Its
    /// one scatter writes column `i`'s gate `g` to the block
    /// `out[(i * gates.len() + g - gates.start) * rows ..]`, each lane at
    /// its natural row. A pair may straddle two gates and a kernel may
    /// carry several columns; both regroup rows and columns, never a
    /// row's sum.
    fn walk<X: AsRef<[f32]>>(&self, gates: Range<usize>, xs: &[X], out: &mut [f32]) {
        let (cols, rows, ppg) = (self.cols, self.rows, self.ppg());
        // One panel's sums for the columns from `first` on, the panel's
        // gate and rows looked up once by the caller.
        let scatter = |out: &mut [f32], (g, lanes): (usize, &[usize]), first, sums: &[_]| {
            for (i, sum) in (first..).zip(sums) {
                let block = (i * gates.len() + g - gates.start) * rows;
                scatter_lanes(lanes, sum, &mut out[block..block + rows]);
            }
        };
        let (quads, rest) = xs.as_chunks::<4>();
        let rest_at = 4 * quads.len();
        let end = gates.end * ppg;
        let mut q = gates.start * ppg;
        while q < end {
            let width = if q + 1 < end { 2 } else { 1 };
            for p in q..q + width {
                let (panel, lanes) = (self.panel(p), self.panel_rows(p));
                for (j, x) in quads.iter().enumerate() {
                    let sums = panel_quad_gemv(panel, cols, x.each_ref().map(AsRef::as_ref));
                    scatter(out, lanes, 4 * j, &sums);
                }
                match rest {
                    [a, b, c] => {
                        let sums = panel_triple_gemv(panel, cols, [a, b, c].map(AsRef::as_ref));
                        scatter(out, lanes, rest_at, &sums);
                    }
                    [a, b] => {
                        let sums = panel_double_gemv(panel, cols, [a, b].map(AsRef::as_ref));
                        scatter(out, lanes, rest_at, &sums);
                    }
                    _ => {}
                }
            }
            if let [x] = rest {
                let x = x.as_ref();
                if width == 2 {
                    let (s0, s1) = panel_pair_gemv(self.panel(q), self.panel(q + 1), cols, x);
                    scatter(out, self.panel_rows(q), rest_at, &[s0]);
                    scatter(out, self.panel_rows(q + 1), rest_at, &[s1]);
                } else {
                    let sum = panel_gemv(self.panel(q), cols, x);
                    scatter(out, self.panel_rows(q), rest_at, &[sum]);
                }
            }
            q += width;
        }
    }

    /// Row-masked products of the first `ngates` gates against every
    /// column of `xs`, column `i` under its own DRS row mask `masks[i]`
    /// shared by its gates — the fused form of the combined-scheme
    /// `U_fic` launch, where the f/i/c gates skip the same hidden rows.
    /// Column `i`'s gate-major `ngates * rows` outputs land in
    /// `out[i * ngates * rows ..]`; its skipped rows produce
    /// `skipped_value`.
    ///
    /// The masked walk loads each panel once for every column with an
    /// active row in it, four columns at a time, so each active row is
    /// bit-identical to the unfused masked kernel and to
    /// [`sgemv_masked_reference`](crate::gemm::sgemv_masked_reference) on
    /// the gate's raw matrix rounded to the slab's tier.
    ///
    /// # Panics
    /// Panics if `ngates > gates`, `masks.len() != xs.len()`, any
    /// `xs[i].len() != cols` or `masks[i].len() != rows`, or
    /// `out.len() != xs.len() * ngates * rows`.
    pub fn gemv_masked_prefix_into<X: AsRef<[f32]>, M: AsRef<[bool]>>(
        &self,
        ngates: usize,
        xs: &[X],
        masks: &[M],
        skipped_value: f32,
        out: &mut [f32],
    ) {
        assert!(
            ngates <= self.gates,
            "FusedGates::gemv_masked_prefix_into: {ngates} > {} gates",
            self.gates
        );
        self.check_masked("gemv_masked_prefix_into", xs, masks);
        assert_eq!(
            out.len(),
            xs.len() * ngates * self.rows,
            "FusedGates::gemv_masked_prefix_into: out length"
        );
        self.masked_walk(0..ngates, xs, masks, skipped_value, out);
    }

    /// Row-masked product of one gate's matrix against one column, in
    /// place on the packed panels: the masked walk over gate `g`'s
    /// panels. Each panel with at least one active row runs through its
    /// micro-kernel as stored and only its active rows are written back;
    /// panels with no active row are skipped and every skipped row gets
    /// `skipped_value`. Each active row is bit-identical to
    /// [`gate_gemv_into`](Self::gate_gemv_into) and to
    /// [`sgemv_masked_reference`](crate::gemm::sgemv_masked_reference) on
    /// the gate's raw matrix rounded to the slab's tier (same per-row sum).
    ///
    /// # Panics
    /// Panics if `g >= gates`, `x.len() != cols`,
    /// `active.len() != rows`, or `out.len() != rows`.
    pub fn gate_gemv_masked_into(
        &self,
        g: usize,
        x: &[f32],
        active: &[bool],
        skipped_value: f32,
        out: &mut [f32],
    ) {
        assert!(
            g < self.gates,
            "FusedGates::gate_gemv_masked_into: gate {g}"
        );
        let (xs, masks) = (slice::from_ref(&x), slice::from_ref(&active));
        self.check_masked("gate_gemv_masked_into", xs, masks);
        assert_eq!(
            out.len(),
            self.rows,
            "FusedGates::gate_gemv_masked_into: out length"
        );
        self.masked_walk(g..g + 1, xs, masks, skipped_value, out);
    }

    /// Asserts every column of a product is `cols` long.
    fn check_columns<X: AsRef<[f32]>>(&self, product: &str, xs: &[X]) {
        for (i, x) in xs.iter().enumerate() {
            assert_eq!(
                x.as_ref().len(),
                self.cols,
                "FusedGates::{product}: column {i} length is not the slab's x length"
            );
        }
    }

    /// Asserts a masked product's columns are `cols` long and each has
    /// one `rows`-long mask.
    fn check_masked<X: AsRef<[f32]>, M: AsRef<[bool]>>(
        &self,
        product: &str,
        xs: &[X],
        masks: &[M],
    ) {
        self.check_columns(product, xs);
        assert_eq!(
            masks.len(),
            xs.len(),
            "FusedGates::{product}: one mask per column"
        );
        for (i, mask) in masks.iter().enumerate() {
            assert_eq!(
                mask.as_ref().len(),
                self.rows,
                "FusedGates::{product}: mask {i} length"
            );
        }
    }

    /// The masked walk behind every masked product: `out` (column `i`'s
    /// gate-major block of `gates` at `out[i * gates.len() * rows ..]`)
    /// is filled with `skipped_value`, then each panel of `gates` runs
    /// against the columns whose mask has an active lane in it — four at
    /// a time, then three, two or one (`panel_gemv`) — and each column
    /// writes back only its own active lanes, tested and placed through
    /// the slab's row order. A panel no column needs costs nothing. A
    /// lone column runs the same kernel without the bookkeeping.
    ///
    /// Each row is its own SIMD lane with its own accumulators, and each
    /// column keeps its own sums, so neither the rows nor the columns
    /// sharing a pass change any value: every active row is
    /// bit-identical to the dense kernel's value for it.
    fn masked_walk<X: AsRef<[f32]>, M: AsRef<[bool]>>(
        &self,
        gates: Range<usize>,
        xs: &[X],
        masks: &[M],
        skipped_value: f32,
        out: &mut [f32],
    ) {
        let (cols, rows, ppg) = (self.cols, self.rows, self.ppg());
        let block = gates.len() * rows;
        out.fill(skipped_value);
        if let ([x], [active]) = (xs, masks) {
            // A lone column skips the column bookkeeping: each live panel
            // runs through `panel_gemv`, gate by gate.
            let (x, active) = (x.as_ref(), active.as_ref());
            for g in gates.clone() {
                let out = &mut out[(g - gates.start) * rows..][..rows];
                for (p, lanes) in self.order.chunks(MR).enumerate() {
                    if lanes.iter().any(|&r| active[r]) {
                        let sum = panel_gemv(self.panel(g * ppg + p), cols, x);
                        for (&r, &s) in lanes.iter().zip(&sum) {
                            if active[r] {
                                out[r] = s;
                            }
                        }
                    }
                }
            }
            return;
        }
        for g in gates.clone() {
            let section = (g - gates.start) * rows;
            for (p, lanes) in self.order.chunks(MR).enumerate() {
                let panel = self.panel(g * ppg + p);
                // Column `i`'s sums to its own active lanes.
                let write_back = |out: &mut [f32], i: usize, sum: &[f32; MR]| {
                    let mask = masks[i].as_ref();
                    let out = &mut out[i * block + section..][..rows];
                    for (&r, &s) in lanes.iter().zip(sum) {
                        if mask[r] {
                            out[r] = s;
                        }
                    }
                };
                let mut live = [0usize; 4];
                let mut n = 0;
                for (i, mask) in masks.iter().enumerate() {
                    let mask = mask.as_ref();
                    if !lanes.iter().any(|&r| mask[r]) {
                        continue;
                    }
                    live[n] = i;
                    n += 1;
                    if n == 4 {
                        let sums = panel_quad_gemv(panel, cols, live.map(|i| xs[i].as_ref()));
                        for (&i, sum) in live.iter().zip(&sums) {
                            write_back(out, i, sum);
                        }
                        n = 0;
                    }
                }
                match live[..n] {
                    [a, b, c] => {
                        let sums =
                            panel_triple_gemv(panel, cols, [a, b, c].map(|i| xs[i].as_ref()));
                        for (i, sum) in [a, b, c].into_iter().zip(&sums) {
                            write_back(out, i, sum);
                        }
                    }
                    [a, b] => {
                        let sums = panel_double_gemv(panel, cols, [a, b].map(|i| xs[i].as_ref()));
                        for (i, sum) in [a, b].into_iter().zip(&sums) {
                            write_back(out, i, sum);
                        }
                    }
                    [a] => write_back(out, a, &panel_gemv(panel, cols, xs[a].as_ref())),
                    _ => {}
                }
            }
        }
    }
}

/// Writes a panel's live lanes to their rows of one gate's output:
/// lane `l` to `out[rows[l]]`.
fn scatter_lanes(rows: &[usize], sum: &[f32; MR], out: &mut [f32]) {
    for (&r, &s) in rows.iter().zip(sum) {
        out[r] = s;
    }
}

simd_kernel! {
    /// Two panels' micro-kernel in one pass over `x`: each broadcast
    /// `x[k]` feeds `2 * MR` independent per-row accumulators. Each row's
    /// sum uses exactly [`panel_gemv`]'s association order — the pairing
    /// adds ILP, never a reassociation. Its AVX build holds the eight
    /// phase accumulators in eight YMM registers; the portable build's
    /// 16 XMM registers cannot hold them without spilling.
    fn panel_pair_gemv = panel_pair_gemv_body(
        p0: &[f32],
        p1: &[f32],
        cols: usize,
        x: &[f32],
    ) -> ([f32; MR], [f32; MR]);
}

#[inline(always)]
fn panel_pair_gemv_body(p0: &[f32], p1: &[f32], cols: usize, x: &[f32]) -> ([f32; MR], [f32; MR]) {
    let (chunks0, tail0) = p0[..MR * cols].as_chunks::<{ 4 * MR }>();
    let (chunks1, tail1) = p1[..MR * cols].as_chunks::<{ 4 * MR }>();
    let (x_chunks, x_tail) = x[..cols].as_chunks::<4>();
    let mut acc0 = [[0.0f32; MR]; 4];
    let mut acc1 = [[0.0f32; MR]; 4];
    for ((chunk0, chunk1), xs) in chunks0.iter().zip(chunks1).zip(x_chunks) {
        for phase in 0..4 {
            let xv = xs[phase];
            let col0 = &chunk0[phase * MR..(phase + 1) * MR];
            let col1 = &chunk1[phase * MR..(phase + 1) * MR];
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
    let (tail0, tail1) = (tail0.as_chunks::<MR>().0, tail1.as_chunks::<MR>().0);
    for ((col0, col1), &xv) in tail0.iter().zip(tail1).zip(x_tail) {
        for r in 0..MR {
            s0[r] += col0[r] * xv;
            s1[r] += col1[r] * xv;
        }
    }
    (s0, s1)
}

simd_kernel! {
    /// One panel against four columns: each weight load feeds four
    /// columns' `MR`-row accumulators, so a batched walk streams each
    /// panel once per four columns. Every column's rows use exactly
    /// [`panel_gemv`]'s association order.
    fn panel_quad_gemv = panel_columns_gemv_body::<4>(
        panel: &[f32],
        cols: usize,
        xs: [&[f32]; 4],
    ) -> [[f32; MR]; 4];
}

simd_kernel! {
    /// [`panel_quad_gemv`] for a batch's last three columns.
    fn panel_triple_gemv = panel_columns_gemv_body::<3>(
        panel: &[f32],
        cols: usize,
        xs: [&[f32]; 3],
    ) -> [[f32; MR]; 3];
}

simd_kernel! {
    /// [`panel_quad_gemv`] for a batch's last two columns.
    fn panel_double_gemv = panel_columns_gemv_body::<2>(
        panel: &[f32],
        cols: usize,
        xs: [&[f32]; 2],
    ) -> [[f32; MR]; 2];
}

/// One panel against `N` columns: [`panel_gemv`]'s body with a column
/// loop inside each phase, so every column keeps its own four phase
/// accumulators per row, summed and then given the tail columns in the
/// reference order.
#[inline(always)]
fn panel_columns_gemv_body<const N: usize>(
    panel: &[f32],
    cols: usize,
    xs: [&[f32]; N],
) -> [[f32; MR]; N] {
    let n_chunks = cols / 4;
    let (chunks, tail) = panel[..MR * cols].as_chunks::<{ 4 * MR }>();
    let chunks = &chunks[..n_chunks];
    let x_chunks = xs.map(|x| &x[..cols].as_chunks::<4>().0[..n_chunks]);
    let mut acc = [[[0.0f32; MR]; 4]; N];
    // Each phase accumulator sums its own columns in chunk order, apart
    // from the others, so the phases may run in separate passes. Three
    // or four columns take two passes of two phases: in one pass their
    // twelve or sixteen accumulators plus the four hoisted weight loads
    // overflow the sixteen YMM registers and spill every chunk, and the
    // second pass reads the panel from L1. Two columns' eight
    // accumulators fit in one pass.
    let span = if N > 2 { 2 } else { 4 };
    for first in (0..4).step_by(span) {
        for (c, chunk) in chunks.iter().enumerate() {
            for phase in first..first + span {
                let col = &chunk[phase * MR..(phase + 1) * MR];
                for (acc, xc) in acc.iter_mut().zip(&x_chunks) {
                    let xv = xc[c][phase];
                    for (a, &w) in acc[phase].iter_mut().zip(col) {
                        *a += w * xv;
                    }
                }
            }
        }
    }
    let mut sums = [[0.0f32; MR]; N];
    for (sum, acc) in sums.iter_mut().zip(&acc) {
        for (r, s) in sum.iter_mut().enumerate() {
            *s = ((acc[0][r] + acc[1][r]) + acc[2][r]) + acc[3][r];
        }
    }
    for (k, col) in tail.as_chunks::<MR>().0.iter().enumerate() {
        for (sum, x) in sums.iter_mut().zip(&xs) {
            let xv = x[4 * n_chunks + k];
            for (s, &w) in sum.iter_mut().zip(col) {
                *s += w * xv;
            }
        }
    }
    sums
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::sgemv_masked_reference;

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

    fn pack(mats: &[Matrix], precision: Precision) -> FusedGates {
        let refs: Vec<&Matrix> = mats.iter().collect();
        FusedGates::pack(&refs, precision)
    }

    #[test]
    fn fused_gemv_sections_bit_identical_to_per_gate_packed() {
        // Shapes straddling panel (MR=8) and phase-chunk boundaries,
        // both LSTM (4) and GRU (3) gate counts, and every tier: each
        // section equals the one-gate slab of that gate at the same tier.
        for precision in Precision::ALL {
            for gates in [3usize, 4] {
                for (rows, cols) in [(1, 1), (7, 5), (8, 8), (9, 12), (24, 16), (33, 31)] {
                    let mats = gate_set(gates, rows, cols, 11);
                    let fused = pack(&mats, precision);
                    assert_eq!(fused.gates(), gates);
                    assert_eq!(fused.total_rows(), gates * rows);
                    let x = pseudo_vector(cols, 7);
                    let mut slab = vec![0.0f32; gates * rows];
                    fused.gemv_into(x.as_slice(), &mut slab);
                    for (g, m) in mats.iter().enumerate() {
                        let mut single = vec![0.0f32; rows];
                        pack(std::slice::from_ref(m), precision)
                            .gemv_into(x.as_slice(), &mut single);
                        for (r, (f, s)) in slab[g * rows..(g + 1) * rows]
                            .iter()
                            .zip(&single)
                            .enumerate()
                        {
                            assert_eq!(
                                f.to_bits(),
                                s.to_bits(),
                                "{precision} {gates}g {rows}x{cols} gate {g} row {r}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn gate_gemv_matches_fused_section() {
        let mats = gate_set(4, 19, 13, 5);
        let x = pseudo_vector(13, 3);
        for precision in Precision::ALL {
            let fused = pack(&mats, precision);
            let mut slab = vec![0.0f32; fused.total_rows()];
            fused.gemv_into(x.as_slice(), &mut slab);
            let mut one = vec![0.0f32; 19];
            for g in 0..4 {
                fused.gate_gemv_into(g, &[x.as_slice()], &mut one);
                assert_eq!(&slab[g * 19..(g + 1) * 19], one.as_slice(), "{precision}");
            }
        }
    }

    /// Runs the batched walk and splits its column blocks, one gate-major
    /// slab per column.
    fn batch(fused: &FusedGates, xs: &[Vector]) -> Vec<Vec<f32>> {
        let total = fused.total_rows();
        let mut out = vec![f32::NAN; xs.len() * total];
        fused.gemv_batch_into(xs, &mut out);
        out.chunks(total).map(<[f32]>::to_vec).collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|f| f.to_bits()).collect()
    }

    #[test]
    fn gate_batch_columns_bit_identical_to_single() {
        let mats = gate_set(4, 17, 9, 23);
        let xs: Vec<Vector> = (0..3).map(|i| pseudo_vector(9, 40 + i)).collect();
        for precision in Precision::ALL {
            let fused = pack(&mats, precision);
            for (x, got) in xs.iter().zip(batch(&fused, &xs)) {
                let mut single = vec![0.0f32; fused.total_rows()];
                fused.gemv_into(x.as_slice(), &mut single);
                assert_eq!(bits(&got), bits(&single), "{precision}");
            }
        }
    }

    #[test]
    fn batch_walk_bit_identical_to_sgemv_on_rounded_gates() {
        // 17 rows are three panels per gate, so with four gates the pair
        // (2, 3) joins gate 0's last panel to gate 1's first; three gates
        // make nine panels, so the single-panel tail runs. Columns not a
        // multiple of the four-wide phase chunk exercise the kernels' tail.
        for precision in Precision::ALL {
            for (gates, rows, cols) in [(4, 17, 9), (3, 17, 13), (4, 8, 31), (1, 5, 6)] {
                let mats = gate_set(gates, rows, cols, 19);
                let fused = pack(&mats, precision);
                let rounded: Vec<Matrix> = mats.iter().map(|m| precision.apply(m)).collect();
                for n in [0usize, 1, 7] {
                    let xs: Vec<Vector> =
                        (0..n).map(|i| pseudo_vector(cols, 60 + i as u32)).collect();
                    let outs = batch(&fused, &xs);
                    assert_eq!(outs.len(), n);
                    for (i, (x, got)) in xs.iter().zip(&outs).enumerate() {
                        for (g, m) in rounded.iter().enumerate() {
                            assert_eq!(
                                bits(&got[g * rows..(g + 1) * rows]),
                                bits(crate::gemm::sgemv(m, x).as_slice()),
                                "{precision} {gates}g {rows}x{cols} n{n} column {i} gate {g}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn masked_sections_bit_identical_to_reference() {
        // Every tier against the reference masked kernel on the
        // dequantized matrices.
        for precision in Precision::ALL {
            for (rows, cols) in [(5, 3), (16, 16), (33, 20)] {
                let mats = gate_set(4, rows, cols, 3);
                let fused = pack(&mats, precision);
                let x = pseudo_vector(cols, 5);
                for skip_mod in [2usize, 3, 5] {
                    let active: Vec<bool> = (0..rows).map(|r| r % skip_mod != 0).collect();
                    let mut slab = vec![0.0f32; 3 * rows];
                    fused.gemv_masked_prefix_into(3, &[x.as_slice()], &[&active], 0.0, &mut slab);
                    for (g, m) in mats.iter().take(3).enumerate() {
                        let reference =
                            sgemv_masked_reference(&precision.apply(m), &x, &active, 0.0);
                        for (f, r) in slab[g * rows..(g + 1) * rows].iter().zip(reference.iter()) {
                            assert_eq!(
                                f.to_bits(),
                                r.to_bits(),
                                "{precision} {rows}x{cols} %{skip_mod} gate {g}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn masked_full_mask_equals_dense_section() {
        let mats = gate_set(3, 21, 14, 9);
        let x = pseudo_vector(14, 2);
        let full = vec![true; 21];
        for precision in Precision::ALL {
            let fused = pack(&mats, precision);
            let mut masked = vec![0.0f32; 21];
            let mut dense = vec![0.0f32; 21];
            for g in 0..3 {
                fused.gate_gemv_masked_into(g, x.as_slice(), &full, 0.0, &mut masked);
                fused.gate_gemv_into(g, &[x.as_slice()], &mut dense);
                for (m, d) in masked.iter().zip(&dense) {
                    assert_eq!(m.to_bits(), d.to_bits(), "{precision} gate {g}");
                }
            }
        }
    }

    #[test]
    fn masked_empty_mask_is_all_skipped() {
        let mats = gate_set(2, 9, 4, 8);
        let x = pseudo_vector(4, 9);
        let none = vec![false; 9];
        for precision in Precision::ALL {
            let mut out = vec![0.0f32; 9];
            pack(&mats, precision).gate_gemv_masked_into(0, x.as_slice(), &none, 42.0, &mut out);
            assert!(out.iter().all(|&v| v == 42.0), "{precision}");
        }
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn mismatched_gate_shapes_panic() {
        let a = Matrix::zeros(4, 3);
        let b = Matrix::zeros(4, 2);
        FusedGates::pack(&[&a, &b], Precision::Int8);
    }

    #[test]
    #[should_panic(expected = "out length")]
    fn wrong_slab_length_panics() {
        let a = Matrix::zeros(4, 3);
        let fused = FusedGates::pack(&[&a, &a], Precision::Fp32);
        let mut slab = vec![0.0f32; 7];
        fused.gemv_into(&[0.0; 3], &mut slab);
    }
}
