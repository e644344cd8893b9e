//! Bitwise pins for the products of the packed gate slab (`FusedGates`)
//! at every storage precision and in every row order.
//!
//! The masked products run the panel kernels on the stored panels and
//! write back only the active rows, so the panel walk is what can go
//! wrong: a panel skipped that holds an active row, a lane written back
//! that is inactive or to the wrong row, a partial last panel read past
//! its live rows. A slab may store its rows in any order
//! (`FusedGates::pack_sorted`), and every product scatters its lanes back
//! through that order. A seeded table covers every combination of
//! precision tier, row order, shape and mask pattern below (the vendored
//! `proptest` stub cannot draw shapes, so the shapes are enumerated), and
//! compares each gate section with `gemm::sgemv` /
//! `gemm::sgemv_masked_reference` on the `Precision::apply` matrices via
//! `to_bits()`, skipped rows included. The batched product runs 0 to 10
//! columns per slab, every remainder of its four-column blocking, as do
//! the batched single-gate products. The batched masked product runs 1
//! to 9 columns, each under its own mask: identical, disjoint, empty,
//! full and independent random masks, so a panel runs through every mix
//! of the four-, three-, two- and one-column kernels, and a lane written
//! to another column's block or written back while inactive shows.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tensor::gemm::{sgemv, sgemv_masked_reference};
use tensor::packed::MR;
use tensor::{FusedGates, Matrix, Precision, Vector};

const ROWS: [usize; 5] = [1, 7, MR, 2 * MR + 5, 33];
const COLS: [usize; 3] = [1, 5, 257];
const GATES: usize = 4;

/// The named mask patterns for `rows` rows, plus seeded random masks at
/// three densities.
fn masks(rows: usize, rng: &mut StdRng) -> Vec<(String, Vec<bool>)> {
    let mut out = vec![
        ("empty".to_string(), vec![false; rows]),
        ("full".to_string(), vec![true; rows]),
        (
            // Lane `p % MR` of panel `p`: every panel runs, one lane kept.
            "one row per panel".to_string(),
            (0..rows).map(|r| r % MR == (r / MR) % MR).collect(),
        ),
        (
            // The last live row of the last (possibly partial) panel.
            "last live row only".to_string(),
            (0..rows).map(|r| r == rows - 1).collect(),
        ),
        (
            "every other panel off".to_string(),
            (0..rows).map(|r| (r / MR).is_multiple_of(2)).collect(),
        ),
        (
            "every other panel on".to_string(),
            (0..rows).map(|r| !(r / MR).is_multiple_of(2)).collect(),
        ),
    ];
    for density in [0.1f32, 0.5, 0.9] {
        for i in 0..2 {
            let mask = (0..rows).map(|_| rng.gen::<f32>() < density).collect();
            out.push((format!("random {density} #{i}"), mask));
        }
    }
    out
}

fn random_matrix(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-1.5f32..1.5))
}

/// The row orders a slab is packed in, as sort keys for
/// `FusedGates::pack_sorted` (`None` is `FusedGates::pack`, the identity
/// order): reversed, random, and sorted by a bias-like key whose
/// saturated rows share one value, so ties break by index.
fn orders(rows: usize, rng: &mut StdRng) -> Vec<(&'static str, Option<Vec<f32>>)> {
    let bias = (0..rows)
        .map(|_| {
            if rng.gen::<f32>() < 0.4 {
                -6.0
            } else {
                rng.gen_range(-2.0f32..2.0)
            }
        })
        .collect();
    vec![
        ("identity", None),
        ("reversed", Some((0..rows).map(|r| -(r as f32)).collect())),
        (
            "random",
            Some((0..rows).map(|_| rng.gen::<f32>()).collect()),
        ),
        ("bias-sorted", Some(bias)),
    ]
}

/// Packs `mats` at `precision` in the order `key` gives, and checks the
/// slab's row order is that order: a permutation ascending in `key`,
/// ties by index.
fn pack(mats: &[Matrix], precision: Precision, key: &Option<Vec<f32>>) -> FusedGates {
    let refs: Vec<&Matrix> = mats.iter().collect();
    let slab = match key {
        None => FusedGates::pack(&refs, precision),
        Some(key) => FusedGates::pack_sorted(&refs, precision, key),
    };
    let order = slab.row_order();
    let mut seen = vec![false; slab.rows()];
    for &r in order {
        assert!(
            !std::mem::replace(&mut seen[r], true),
            "row {r} stored twice"
        );
    }
    assert!(seen.iter().all(|&s| s), "a row is missing from the order");
    let rank = |r: usize| (key.as_ref().map_or(0.0, |k| k[r]), r);
    for pair in order.windows(2) {
        let ((ka, a), (kb, b)) = (rank(pair[0]), rank(pair[1]));
        assert!(
            ka.total_cmp(&kb).then(a.cmp(&b)).is_lt(),
            "order not ascending"
        );
    }
    slab
}

fn assert_bits(got: &[f32], want: &[f32], what: impl Fn(usize) -> String) {
    assert_eq!(got.len(), want.len());
    for (r, (a, b)) in got.iter().zip(want).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{}", what(r));
    }
}

#[test]
fn ordered_dense_products_bit_identical_to_reference() {
    let mut rng = StdRng::seed_from_u64(26);
    for precision in Precision::ALL {
        for rows in ROWS {
            for cols in COLS {
                let mats: Vec<Matrix> = (0..GATES)
                    .map(|_| random_matrix(rows, cols, &mut rng))
                    .collect();
                let x = Vector::from_fn(cols, |_| rng.gen_range(-1.0f32..1.0));
                let want: Vec<Vector> = mats
                    .iter()
                    .map(|m| sgemv(&precision.apply(m), &x))
                    .collect();
                for (order, key) in orders(rows, &mut rng) {
                    let slab = pack(&mats, precision, &key);
                    let what = |product: &'static str, g: usize| {
                        move |r: usize| {
                            format!("{precision} {order} {rows}x{cols} {product}: gate {g} row {r}")
                        }
                    };
                    let mut dense = vec![f32::NAN; GATES * rows];
                    slab.gemv_into(x.as_slice(), &mut dense);
                    let mut batch = vec![f32::NAN; GATES * rows];
                    slab.gemv_batch_into(std::slice::from_ref(&x), &mut batch);
                    let mut single = vec![f32::NAN; rows];
                    for (g, want) in want.iter().enumerate() {
                        let section = g * rows..(g + 1) * rows;
                        assert_bits(&dense[section.clone()], want.as_slice(), what("dense", g));
                        assert_bits(&batch[section], want.as_slice(), what("batched", g));
                        slab.gate_gemv_into(g, &[&x], &mut single);
                        assert_bits(&single, want.as_slice(), what("single-gate", g));
                    }
                    column_blocked_batch_bit_identical(&slab, &mats, precision, order, &mut rng);
                }
            }
        }
    }
}

/// The batched product over 0 to 10 columns, so the column-blocked
/// walk reaches every mix of its four-, three-, two- and lone-column
/// kernels: each column's gate sections equal `sgemv` on the rounded
/// matrices, bitwise.
fn column_blocked_batch_bit_identical(
    slab: &FusedGates,
    mats: &[Matrix],
    precision: Precision,
    order: &str,
    rng: &mut StdRng,
) {
    let (rows, cols) = (slab.rows(), slab.cols());
    let rounded: Vec<Matrix> = mats.iter().map(|m| precision.apply(m)).collect();
    for n in 0..=10 {
        let xs: Vec<Vector> = (0..n)
            .map(|_| Vector::from_fn(cols, |_| rng.gen_range(-1.0f32..1.0)))
            .collect();
        let mut got = vec![f32::NAN; n * GATES * rows];
        slab.gemv_batch_into(&xs, &mut got);
        let mut gate = vec![f32::NAN; n * rows];
        for (g, m) in rounded.iter().enumerate() {
            slab.gate_gemv_into(g, &xs, &mut gate);
            for (i, (x, got)) in xs.iter().zip(got.chunks(GATES * rows)).enumerate() {
                let what = |product: &'static str| {
                    move |r: usize| {
                        format!("{precision} {order} {rows}x{cols} {product} of {n}: column {i} gate {g} row {r}")
                    }
                };
                let want = sgemv(m, x);
                assert_bits(
                    &got[g * rows..(g + 1) * rows],
                    want.as_slice(),
                    what("batch"),
                );
                assert_bits(
                    &gate[i * rows..(i + 1) * rows],
                    want.as_slice(),
                    what("gate batch"),
                );
            }
        }
    }
}

#[test]
fn in_place_masked_products_bit_identical_to_reference() {
    let mut rng = StdRng::seed_from_u64(15);
    let mut checked = 0usize;
    for precision in Precision::ALL {
        for rows in ROWS {
            for cols in COLS {
                let mats: Vec<Matrix> = (0..GATES)
                    .map(|_| random_matrix(rows, cols, &mut rng))
                    .collect();
                let shadow: Vec<Matrix> = mats.iter().map(|m| precision.apply(m)).collect();
                let x = Vector::from_fn(cols, |_| rng.gen_range(-1.0f32..1.0));
                let masks = masks(rows, &mut rng);
                for (order, key) in orders(rows, &mut rng) {
                    let slab = pack(&mats, precision, &key);
                    for (mask_name, mask) in &masks {
                        for skipped in [-3.0f32, f32::NAN] {
                            for ngates in 1..=GATES {
                                // Stale contents must not leak into any
                                // row, skipped or not.
                                let mut got = vec![1234.5f32; ngates * rows];
                                slab.gemv_masked_prefix_into(
                                    ngates,
                                    &[&x],
                                    &[mask],
                                    skipped,
                                    &mut got,
                                );
                                for (g, m) in shadow.iter().take(ngates).enumerate() {
                                    let want = sgemv_masked_reference(m, &x, mask, skipped);
                                    assert_bits(
                                        &got[g * rows..(g + 1) * rows],
                                        want.as_slice(),
                                        |r| {
                                            format!(
                                            "{precision} {order} {rows}x{cols}, {mask_name} mask, \
                                             skipped {skipped}, {ngates} gates: gate {g} row {r}"
                                        )
                                        },
                                    );
                                }
                                checked += 1;
                            }
                        }
                    }
                }
            }
        }
    }
    assert_eq!(checked, 3 * ROWS.len() * COLS.len() * 4 * 12 * 2 * GATES);
}

/// Per-column masks for `n` columns of `rows` rows: one shared random
/// mask, rows dealt out to the columns in turn (so the masks are
/// disjoint and a panel's live columns are all of them up to `MR`), all
/// empty, all full, and independent random masks of rising density.
fn column_masks(rows: usize, n: usize, rng: &mut StdRng) -> Vec<(&'static str, Vec<Vec<bool>>)> {
    let shared: Vec<bool> = (0..rows).map(|_| rng.gen::<f32>() < 0.5).collect();
    let random = (0..n)
        .map(|i| {
            let density = (i + 1) as f32 / (n + 1) as f32;
            (0..rows).map(|_| rng.gen::<f32>() < density).collect()
        })
        .collect();
    vec![
        ("identical", vec![shared; n]),
        (
            "disjoint",
            (0..n)
                .map(|i| (0..rows).map(|r| r % n == i).collect())
                .collect(),
        ),
        ("empty", vec![vec![false; rows]; n]),
        ("full", vec![vec![true; rows]; n]),
        ("random", random),
    ]
}

#[test]
fn column_blocked_masked_products_bit_identical_to_reference() {
    const NGATES: usize = 3;
    let mut rng = StdRng::seed_from_u64(31);
    let mut checked = 0usize;
    for precision in Precision::ALL {
        for rows in ROWS {
            for cols in COLS {
                let mats: Vec<Matrix> = (0..GATES)
                    .map(|_| random_matrix(rows, cols, &mut rng))
                    .collect();
                let shadow: Vec<Matrix> = mats.iter().map(|m| precision.apply(m)).collect();
                for (order, key) in orders(rows, &mut rng) {
                    if !matches!(order, "identity" | "bias-sorted") {
                        continue;
                    }
                    let slab = pack(&mats, precision, &key);
                    for n in 1..=9 {
                        let xs: Vec<Vector> = (0..n)
                            .map(|_| Vector::from_fn(cols, |_| rng.gen_range(-1.0f32..1.0)))
                            .collect();
                        for (mask_name, masks) in column_masks(rows, n, &mut rng) {
                            for skipped in [-3.0f32, f32::NAN] {
                                // Stale contents must not leak into any
                                // row, skipped or not.
                                let mut got = vec![1234.5f32; n * NGATES * rows];
                                slab.gemv_masked_prefix_into(
                                    NGATES, &xs, &masks, skipped, &mut got,
                                );
                                let blocks = got.chunks(NGATES * rows);
                                for (i, ((x, mask), got)) in
                                    xs.iter().zip(&masks).zip(blocks).enumerate()
                                {
                                    for (g, m) in shadow.iter().take(NGATES).enumerate() {
                                        let want = sgemv_masked_reference(m, x, mask, skipped);
                                        assert_bits(
                                            &got[g * rows..(g + 1) * rows],
                                            want.as_slice(),
                                            |r| {
                                                format!(
                                                    "{precision} {order} {rows}x{cols}, {n} columns, \
                                                     {mask_name} masks, skipped {skipped}: \
                                                     column {i} gate {g} row {r}"
                                                )
                                            },
                                        );
                                    }
                                }
                                checked += 1;
                            }
                        }
                    }
                }
            }
        }
    }
    assert_eq!(checked, 3 * ROWS.len() * COLS.len() * 2 * 9 * 5 * 2);
}
