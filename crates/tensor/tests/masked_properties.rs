//! Bitwise pins for the in-place masked products of the packed gate
//! slab (`FusedGates`) at every storage precision.
//!
//! The masked products run the panel kernels on the stored panels and
//! write back only the active rows, so the panel walk is what can go
//! wrong: a panel skipped that holds an active row, a lane written back
//! that is inactive, a partial last panel read past its live rows. A
//! seeded table covers every combination of precision tier, shape and
//! mask pattern below (the vendored `proptest` stub cannot draw shapes,
//! so the shapes are enumerated), and compares each gate section with
//! `gemm::sgemv_masked_reference` on the `Precision::apply` matrices via
//! `to_bits()`, skipped rows included.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tensor::gemm::sgemv_masked_reference;
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
                let refs: Vec<&Matrix> = mats.iter().collect();
                let slab = FusedGates::pack(&refs, precision);
                let x = Vector::from_fn(cols, |_| rng.gen_range(-1.0f32..1.0));
                for (mask_name, mask) in masks(rows, &mut rng) {
                    for skipped in [-3.0f32, f32::NAN] {
                        for ngates in 1..=GATES {
                            // Stale contents must not leak into any row,
                            // skipped or not.
                            let mut got = vec![1234.5f32; ngates * rows];
                            slab.gemv_masked_prefix_into(
                                ngates,
                                x.as_slice(),
                                &mask,
                                skipped,
                                &mut got,
                            );
                            for (g, m) in shadow.iter().take(ngates).enumerate() {
                                let want = sgemv_masked_reference(m, &x, &mask, skipped);
                                let section = &got[g * rows..(g + 1) * rows];
                                for (r, (a, b)) in section.iter().zip(want.iter()).enumerate() {
                                    assert_eq!(
                                        a.to_bits(),
                                        b.to_bits(),
                                        "{precision} {rows}x{cols}, {mask_name} mask, \
                                         skipped {skipped}, {ngates} gates: gate {g} row {r}"
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
    assert_eq!(checked, 3 * ROWS.len() * COLS.len() * 12 * 2 * GATES);
}
