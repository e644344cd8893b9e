//! Packed row-panel kernels: the cache- and SIMD-friendly layout behind
//! the fast `Sgemv` paths.
//!
//! A packed matrix stores its rows in panels of [`MR`] rows with the
//! columns *interleaved*: panel `p` holds, for each column `k`, the `MR`
//! values `a[p*MR + 0..MR][k]` contiguously. A matrix-vector product then
//! walks each panel once, broadcasting one `x[k]` across `MR` independent
//! per-row accumulators — a loop the compiler vectorizes across rows
//! *without reassociating any float sum*, because every lane is a
//! separate output element. [`crate::FusedGates`] stores its gate
//! matrices in this layout, rounded to any [`Precision`](crate::Precision)
//! but always as `f32`; a one-gate slab is a single packed matrix.
//!
//! Bit-exactness contract: every kernel here accumulates each output row
//! in exactly the association order of [`crate::gemm::sgemv`]'s
//! row-at-a-time reference (four phase accumulators over the columns,
//! summed left-to-right, then a sequential tail). A packed fp32 product
//! is therefore **bit-identical** to the reference kernel — the packed
//! layout buys throughput, never different numerics. The property tests
//! in `tests/properties.rs` pin this down.
//!
//! Every panel micro-kernel in the crate (this module's `panel_gemv`,
//! and the fused slab's pair kernel and its four-, three- and two-column
//! kernels, which the slab's one dense walk runs) is written once and
//! compiled twice by the `simd_kernel!`
//! macro defined here: a portable build and an AVX build (never FMA, so
//! both round identically), picked per call by one
//! `is_x86_feature_detected!` check. The masked products of the packed gate slab
//! ([`crate::FusedGates`]) run those kernels in place on the stored
//! panels through the slab's masked walk, which reads each lane's mask
//! bit and writes its output through the slab's row order and runs a
//! panel only for the columns with an active row in it; no kernel
//! copies rows.
//!
//! Packing costs one pass over the matrix, so it pays off when the same
//! matrix is applied many times — exactly the LSTM shape, where the
//! recurrent `U` matrices are applied at every timestep of every
//! sequence. `lstm::CellWeights` packs its weights once per precision
//! tier (lazily) and reuses the panels for every plan execution.

/// Rows per packed panel (the register-blocking height of the kernels).
pub const MR: usize = 8;

/// Defines a runtime-dispatched panel micro-kernel `$name` over the
/// `#[inline(always)]` body `$body` (optionally one instance
/// `$body::<N>` of a const-generic body), compiling the body twice: once
/// inside a `#[target_feature(enable = "avx")]` function (the AVX build)
/// and once inline in `$name` itself (the portable build). Each call
/// takes the AVX build when [`avx_enabled`] says the CPU has it.
///
/// `fma` is deliberately never enabled, and rustc never contracts
/// `acc += w * x` into a fused multiply-add on its own, so the AVX build
/// performs each lane's multiply and add with the same two IEEE
/// roundings, in the same order, as the portable build: the two builds
/// are bit-identical by construction, and only the vector width differs
/// (one 8-lane YMM register per `MR`-lane accumulator instead of two SSE
/// halves).
macro_rules! simd_kernel {
    (
        $(#[$attr:meta])*
        $vis:vis fn $name:ident = $body:ident $(::<$n:tt>)? ($($arg:ident: $ty:ty),* $(,)?) $(-> $ret:ty)?;
    ) => {
        $(#[$attr])*
        #[allow(unsafe_code)]
        #[inline]
        $vis fn $name($($arg: $ty),*) $(-> $ret)? {
            #[cfg(target_arch = "x86_64")]
            if $crate::packed::avx_enabled() {
                #[target_feature(enable = "avx")]
                fn avx_build($($arg: $ty),*) $(-> $ret)? {
                    $body $(::<$n>)? ($($arg),*)
                }
                // SAFETY: `avx_enabled` is true only on a CPU that
                // reports AVX, the one feature `avx_build` requires.
                return unsafe { avx_build($($arg),*) };
            }
            $body $(::<$n>)? ($($arg),*)
        }
    };
}
pub(crate) use simd_kernel;

#[cfg(test)]
thread_local! {
    /// Test-only switch forcing this thread's dispatched kernels onto
    /// their portable build, so one test can run every entry point
    /// through both builds and compare them bit for bit.
    static FORCE_PORTABLE: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Runs `f` with this thread's dispatched kernels on their portable
/// build.
#[cfg(test)]
pub(crate) fn portable<T>(f: impl FnOnce() -> T) -> T {
    FORCE_PORTABLE.with(|force| force.set(true));
    let out = f();
    FORCE_PORTABLE.with(|force| force.set(false));
    out
}

/// Whether the dispatched micro-kernels run their AVX build. The
/// `is_x86_feature_detected!` probe caches CPUID, so each call is one
/// relaxed atomic load.
#[cfg(target_arch = "x86_64")]
#[inline]
pub(crate) fn avx_enabled() -> bool {
    #[cfg(test)]
    if FORCE_PORTABLE.with(std::cell::Cell::get) {
        return false;
    }
    std::arch::is_x86_feature_detected!("avx")
}

simd_kernel! {
    /// One panel's matrix-vector micro-kernel: `MR` rows at once, four
    /// phase accumulators per row in the reference association order.
    pub(crate) fn panel_gemv = panel_gemv_body(panel: &[f32], cols: usize, x: &[f32]) -> [f32; MR];
}

#[inline(always)]
fn panel_gemv_body(panel: &[f32], cols: usize, x: &[f32]) -> [f32; MR] {
    // Four-column chunks as fixed-size arrays (no bounds checks in the
    // hot loop), then the `cols % 4` tail columns.
    let (chunks, tail) = panel[..MR * cols].as_chunks::<{ 4 * MR }>();
    let (x_chunks, x_tail) = x[..cols].as_chunks::<4>();
    let mut acc = [[0.0f32; MR]; 4];
    for (chunk, xs) in chunks.iter().zip(x_chunks) {
        for (phase, accp) in acc.iter_mut().enumerate() {
            let col = &chunk[phase * MR..(phase + 1) * MR];
            for (a, &c) in accp.iter_mut().zip(col) {
                *a += c * xs[phase];
            }
        }
    }
    let mut sum = [0.0f32; MR];
    for (r, s) in sum.iter_mut().enumerate() {
        *s = ((acc[0][r] + acc[1][r]) + acc[2][r]) + acc[3][r];
    }
    for (col, &xv) in tail.as_chunks::<MR>().0.iter().zip(x_tail) {
        for (s, &c) in sum.iter_mut().zip(col) {
            *s += c * xv;
        }
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::sgemv;
    use crate::{FusedGates, Matrix, Precision, Vector};

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

    /// `a` alone as a one-gate slab at `precision`.
    fn one_gate(a: &Matrix, precision: Precision) -> FusedGates {
        FusedGates::pack(&[a], precision)
    }

    /// The one-gate slab's product `a * x`.
    fn packed_gemv(a: &Matrix, precision: Precision, x: &Vector) -> Vec<f32> {
        let mut y = vec![0.0f32; a.rows()];
        one_gate(a, precision).gate_gemv_into(0, &[x.as_slice()], &mut y);
        y
    }

    #[test]
    fn packed_gemv_bit_identical_to_reference() {
        // Sizes straddling panel and chunk boundaries, at every tier
        // against the reference kernel on the dequantized matrix.
        for precision in Precision::ALL {
            for (rows, cols) in [
                (1, 1),
                (7, 5),
                (8, 8),
                (9, 12),
                (24, 16),
                (33, 31),
                (96, 96),
            ] {
                let a = pseudo_matrix(rows, cols, 11);
                let x = pseudo_vector(cols, 7);
                let packed = one_gate(&a, precision);
                assert_eq!((packed.rows(), packed.cols()), (rows, cols));
                let fast = packed_gemv(&a, precision, &x);
                let reference = sgemv(&precision.apply(&a), &x);
                for (f, r) in fast.iter().zip(reference.iter()) {
                    assert_eq!(
                        f.to_bits(),
                        r.to_bits(),
                        "{precision} {rows}x{cols} diverged"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "x length")]
    fn packed_gemv_shape_mismatch_panics() {
        packed_gemv(&Matrix::zeros(4, 3), Precision::Fp32, &Vector::zeros(2));
    }

    #[test]
    fn batched_gemv_columns_bit_identical_to_single() {
        for precision in Precision::ALL {
            for (rows, cols) in [(1, 1), (7, 5), (9, 12), (33, 31), (96, 96)] {
                let a = pseudo_matrix(rows, cols, 21);
                let packed = one_gate(&a, precision);
                for batch in [1usize, 2, 3, 8] {
                    let xs: Vec<Vector> = (0..batch)
                        .map(|i| pseudo_vector(cols, 100 + i as u32))
                        .collect();
                    let mut ys = vec![f32::NAN; batch * rows];
                    packed.gemv_batch_into(&xs, &mut ys);
                    for (x, y) in xs.iter().zip(ys.chunks(rows)) {
                        let single = packed_gemv(&a, precision, x);
                        for (b, s) in y.iter().zip(&single) {
                            assert_eq!(
                                b.to_bits(),
                                s.to_bits(),
                                "{precision} {rows}x{cols} b{batch}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn batched_gemv_empty_batch_is_empty() {
        one_gate(&Matrix::zeros(4, 3), Precision::Fp32).gemv_batch_into(&[], &mut []);
    }

    #[test]
    #[should_panic(expected = "column 1 length")]
    fn batched_gemv_shape_mismatch_panics() {
        let packed = one_gate(&Matrix::zeros(4, 3), Precision::Fp32);
        packed.gemv_batch_into(&[Vector::zeros(3), Vector::zeros(2)], &mut [0.0; 8]);
    }

    #[test]
    #[should_panic(expected = "out length")]
    fn batched_gemv_block_mismatch_panics() {
        let packed = one_gate(&Matrix::zeros(4, 3), Precision::Fp32);
        packed.gemv_batch_into(&[Vector::zeros(3), Vector::zeros(3)], &mut [0.0; 4]);
    }

    /// A product of the dispatch table.
    #[derive(Clone, Copy, Debug)]
    enum Product {
        /// Each gate's `gate_gemv_into`: the dense walk over that gate's
        /// panels alone, so a pair never straddles two gates.
        Single,
        /// The whole slab's `gemv_into`: the pair kernel and its tail.
        Dense,
        /// The whole slab's masked product, in place.
        Masked,
        /// The whole slab's batched product over this many columns, each
        /// panel run through the four-column kernel, then the three- or
        /// two-column one, with a lone last column through the pair
        /// kernel.
        Batch(usize),
        /// Each gate's `gate_gemv_into` over this many columns: the
        /// batched hoisted-gate product.
        GateBatch(usize),
        /// The whole slab's masked product over this many columns, each
        /// under its own mask: the masked walk's four-, three-, two- and
        /// one-column kernels over each panel's live columns.
        MaskedBatch(usize),
    }

    /// The `n` columns' masks of a batched masked product: `mask`
    /// rotated by `i` rows for column `i`, so the columns' live panels
    /// differ.
    fn column_masks(mask: &[bool], n: usize) -> Vec<Vec<bool>> {
        let rows = mask.len();
        (0..n)
            .map(|i| (0..rows).map(|r| mask[(r + i) % rows]).collect())
            .collect()
    }

    /// The `n` columns of a batched product: `x` first, then `x` rotated
    /// and rescaled, so every column differs.
    fn columns(x: &Vector, n: usize) -> Vec<Vector> {
        let len = x.len();
        (0..n)
            .map(|i| Vector::from_fn(len, |k| x[(k + i) % len] * (1.0 + i as f32 / 8.0)))
            .collect()
    }

    /// `product` on `mats` packed at `precision` with rows in ascending
    /// `key` order.
    fn run(
        product: Product,
        precision: Precision,
        mats: &[Matrix],
        key: &[f32],
        x: &Vector,
        mask: &[bool],
    ) -> Vec<f32> {
        let refs: Vec<&Matrix> = mats.iter().collect();
        let fused = FusedGates::pack_sorted(&refs, precision, key);
        let (total, rows) = (fused.total_rows(), fused.rows());
        let mut out = vec![f32::NAN; total];
        match product {
            Product::Single => {
                for (g, section) in out.chunks_mut(rows).enumerate() {
                    fused.gate_gemv_into(g, &[x.as_slice()], section);
                }
            }
            Product::Dense => fused.gemv_into(x.as_slice(), &mut out),
            Product::Masked => {
                fused.gemv_masked_prefix_into(mats.len(), &[x], &[mask], -3.0, &mut out)
            }
            Product::Batch(n) => {
                out = vec![f32::NAN; n * total];
                fused.gemv_batch_into(&columns(x, n), &mut out);
            }
            Product::GateBatch(n) => {
                out = vec![f32::NAN; n * total];
                let mut gate = vec![f32::NAN; n * rows];
                for g in 0..mats.len() {
                    fused.gate_gemv_into(g, &columns(x, n), &mut gate);
                    for (i, column) in gate.chunks(rows).enumerate() {
                        let block = (i * mats.len() + g) * rows;
                        out[block..block + rows].copy_from_slice(column);
                    }
                }
            }
            Product::MaskedBatch(n) => {
                out = vec![f32::NAN; n * total];
                let masks = column_masks(mask, n);
                fused.gemv_masked_prefix_into(mats.len(), &columns(x, n), &masks, -3.0, &mut out);
            }
        }
        out
    }

    /// What [`run`] must return: the row-at-a-time reference kernels on
    /// the rounded matrices, gate after gate.
    fn oracle(
        product: Product,
        precision: Precision,
        mats: &[Matrix],
        x: &Vector,
        mask: &[bool],
    ) -> Vec<f32> {
        let n = match product {
            Product::Batch(n) | Product::GateBatch(n) | Product::MaskedBatch(n) => n,
            Product::Single | Product::Dense | Product::Masked => 1,
        };
        let masks = column_masks(mask, n);
        columns(x, n)
            .iter()
            .zip(&masks)
            .flat_map(|(x, mask)| {
                mats.iter().flat_map(move |m| {
                    let m = precision.apply(m);
                    match product {
                        Product::Masked | Product::MaskedBatch(_) => {
                            crate::gemm::sgemv_masked_reference(&m, x, mask, -3.0)
                        }
                        Product::Single
                        | Product::Dense
                        | Product::Batch(_)
                        | Product::GateBatch(_) => sgemv(&m, x),
                    }
                    .as_slice()
                    .to_vec()
                })
            })
            .collect()
    }

    /// The elementwise passes on `n` rows of pseudo-random
    /// pre-activations spanning both saturations, under a mask keeping
    /// about five rows in eight, as `(pass, output bits)`.
    fn elementwise(n: usize) -> Vec<(&'static str, Vec<u32>)> {
        use crate::activation::{
            gru_blend_into, gru_reset_into, lstm_state_into, sigmoid_gate_into, GateRows,
        };
        let v = |seed: u32, spread: f32| -> Vec<f32> {
            (0..n as u32)
                .map(|j| {
                    let h = j
                        .wrapping_mul(2654435761)
                        .wrapping_add(seed.wrapping_mul(40503));
                    ((h >> 8) % 20001) as f32 / 10000.0 * spread - spread
                })
                .collect()
        };
        let gates = |seed: u32, spread: f32| -> Vec<Vec<f32>> {
            (0..4).map(|g| v(seed + g, spread)).collect()
        };
        let (wx, uh, b) = (gates(0, 12.0), gates(10, 3.0), gates(20, 1.5));
        let rows = |g: usize| GateRows {
            wx: [wx[g].as_slice()],
            uh: [uh[g].as_slice()],
            b: [b[g].as_slice()],
        };
        let fic = GateRows {
            wx: [wx[0].as_slice(), wx[1].as_slice(), wx[2].as_slice()],
            uh: [uh[0].as_slice(), uh[1].as_slice(), uh[2].as_slice()],
            b: [b[0].as_slice(), b[1].as_slice(), b[2].as_slice()],
        };
        let (c_prev, h_prev, z) = (v(30, 4.0), v(31, 1.0), v(32, 0.5));
        let mask: Vec<bool> = (0..n as u32)
            .map(|j| j.wrapping_mul(2654435761) >> 29 < 5)
            .collect();
        let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        let mut out = Vec::new();
        let mut o = vec![0.0f32; n];
        sigmoid_gate_into(rows(3), &mut o);
        out.push(("output gate", bits(&o)));
        for (name, active) in [("dense LSTM", None), ("masked LSTM", Some(mask.as_slice()))] {
            let (mut c, mut h) = (vec![0.0f32; n], o.clone());
            lstm_state_into(fic, &c_prev, active, &mut c, &mut h);
            out.push((name, [bits(&c), bits(&h)].concat()));
        }
        for (name, active) in [
            ("GRU gates", None),
            ("masked GRU gates", Some(mask.as_slice())),
        ] {
            let (mut rh, mut h) = (vec![0.0f32; n], vec![0.0f32; n]);
            gru_reset_into(rows(0), &h_prev, active, &mut rh);
            gru_blend_into(rows(2), &z, &h_prev, active, &mut h);
            out.push((name, [bits(&rh), bits(&h)].concat()));
        }
        // The oracle: each row alone through the scalar activations.
        let pre = |g: usize, j: usize| (wx[g][j] + uh[g][j]) + b[g][j];
        let lstm = |j: usize| {
            let f = crate::sigmoid(pre(0, j));
            let i = crate::sigmoid(pre(1, j));
            let c = f * c_prev[j] + i * crate::tanh(pre(2, j));
            (c, o[j] * crate::tanh(c))
        };
        let (c, h): (Vec<f32>, Vec<f32>) = (0..n).map(lstm).unzip();
        let gru_rh = |j: usize| crate::sigmoid(pre(0, j)) * h_prev[j];
        let gru_h = |j: usize| (1.0 - z[j]) * h_prev[j] + z[j] * crate::tanh(pre(2, j));
        let oracle = [
            bits(&(0..n).map(|j| crate::sigmoid(pre(3, j))).collect::<Vec<_>>()),
            [bits(&c), bits(&h)].concat(),
            [
                bits(&(0..n).map(|j| if mask[j] { c[j] } else { 0.0 }).collect::<Vec<_>>()),
                bits(&(0..n).map(|j| if mask[j] { h[j] } else { 0.0 }).collect::<Vec<_>>()),
            ]
            .concat(),
            bits(&[
                (0..n).map(gru_rh).collect::<Vec<_>>(),
                (0..n).map(gru_h).collect(),
            ]
            .concat()),
            bits(&[
                (0..n)
                    .map(|j| if mask[j] { crate::sigmoid(pre(0, j)) } else { 0.0 } * h_prev[j])
                    .collect::<Vec<_>>(),
                (0..n)
                    .map(|j| if mask[j] { gru_h(j) } else { h_prev[j] })
                    .collect(),
            ]
            .concat()),
        ];
        for ((name, got), want) in out.iter().zip(&oracle) {
            assert_eq!(got, want, "{name} at n = {n}: kernel vs scalar rows");
        }
        out
    }

    /// Every dispatched kernel's AVX build agrees with its portable
    /// build and with the reference kernels to the last bit: column
    /// counts around the four-wide phase chunks and the 256-column slabs, a partial last panel
    /// (`rows % MR != 0`), slabs in identity, reversed, scrambled and
    /// bias-sorted row order (the last with ties), and empty, full,
    /// random and last-row-only DRS masks (the last puts the only active
    /// row in the last panel). Three gates give `gemv_into` an odd panel
    /// count, so both the pair kernel and its single-panel tail run. The
    /// batched products run 2 to 7 columns: the two-, three- and
    /// four-column kernels alone, and the four-column one followed by a
    /// lone column (through the pair kernel and its single-panel tail),
    /// by the two-column one or by the three-column one; the batched
    /// hoisted-gate product runs each gate's panels over 1 to 5 columns
    /// and the batched masked product 2 to 9 columns, each under its own
    /// rotation of the mask. The f16 and int8 slabs run the same fp32
    /// kernels over panels rounded to their tier. The elementwise passes of the LSTM and GRU cells run at row
    /// counts around the vector widths, each also against the scalar
    /// activations row by row.
    #[test]
    fn every_avx_kernel_bit_identical_to_portable() {
        #[cfg(target_arch = "x86_64")]
        let has_avx = avx_enabled();
        #[cfg(not(target_arch = "x86_64"))]
        let has_avx = false;
        if !has_avx {
            eprintln!("skipped: no AVX on this CPU, so only the portable build ever runs");
            return;
        }
        for n in [1, 7, 8, 9, 256, 257] {
            assert_eq!(
                elementwise(n),
                portable(|| elementwise(n)),
                "elementwise passes, AVX vs portable, n = {n}"
            );
        }
        let entries = [
            (Product::Single, Precision::Fp32),
            (Product::Dense, Precision::Fp32),
            (Product::Dense, Precision::Fp16),
            (Product::Dense, Precision::Int8),
            (Product::Masked, Precision::Fp32),
            (Product::Masked, Precision::Fp16),
            (Product::Masked, Precision::Int8),
            (Product::Batch(2), Precision::Fp32),
            (Product::Batch(3), Precision::Fp32),
            (Product::Batch(4), Precision::Fp32),
            (Product::Batch(5), Precision::Fp32),
            (Product::Batch(6), Precision::Fp16),
            (Product::Batch(7), Precision::Int8),
            (Product::GateBatch(1), Precision::Fp32),
            (Product::GateBatch(3), Precision::Fp32),
            (Product::GateBatch(5), Precision::Int8),
            (Product::MaskedBatch(2), Precision::Fp32),
            (Product::MaskedBatch(3), Precision::Fp32),
            (Product::MaskedBatch(4), Precision::Fp16),
            (Product::MaskedBatch(9), Precision::Int8),
        ];
        for rows in [MR, 2 * MR + 5] {
            let hash = |r: usize| (r as u32).wrapping_mul(2654435761) >> 20;
            let keys: [(&str, Vec<f32>); 4] = [
                ("identity", vec![0.0; rows]),
                ("reversed", (0..rows).map(|r| -(r as f32)).collect()),
                ("scrambled", (0..rows).map(|r| hash(r) as f32).collect()),
                (
                    "bias-sorted",
                    (0..rows)
                        .map(|r| {
                            if hash(r) % 3 == 0 {
                                -6.0
                            } else {
                                hash(r) as f32 / 4096.0
                            }
                        })
                        .collect(),
                ),
            ];
            for cols in [1usize, 3, 4, 5, 8, 255, 256, 257] {
                let mats: Vec<Matrix> = (0..3)
                    .map(|g| pseudo_matrix(rows, cols, 17 + 31 * g))
                    .collect();
                let x = pseudo_vector(cols, cols as u32);
                let masks = [
                    ("empty", vec![false; rows]),
                    ("full", vec![true; rows]),
                    (
                        "random",
                        (0..rows)
                            .map(|r| (r as u32).wrapping_mul(2654435761) >> 29 < 5)
                            .collect(),
                    ),
                    (
                        "last live row only",
                        (0..rows).map(|r| r == rows - 1).collect(),
                    ),
                ];
                for (product, precision) in entries {
                    for (order, key) in &keys {
                        for (mask_name, mask) in &masks {
                            let avx = run(product, precision, &mats, key, &x, mask);
                            let scalar = portable(|| run(product, precision, &mats, key, &x, mask));
                            let want = oracle(product, precision, &mats, &x, mask);
                            let bits =
                                |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                            let at = format!(
                                "{product:?} {precision}: {rows}x{cols}, {order} order, \
                                 {mask_name} mask"
                            );
                            assert_eq!(bits(&avx), bits(&scalar), "AVX vs portable, {at}");
                            assert_eq!(bits(&avx), bits(&want), "AVX vs reference, {at}");
                        }
                    }
                }
            }
        }
    }
}
