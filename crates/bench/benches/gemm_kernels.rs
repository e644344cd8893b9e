//! Kernel-level comparison of the GEMM/GEMV paths:
//!
//! * dense SGEMV — the naive rowwise reference (`tensor::gemm::sgemv`)
//!   versus the packed row-panel kernel (a one-gate `FusedGates` slab's
//!   `gate_gemv_into` into a fresh vector, as `sgemv` returns one), with
//!   the pack done once outside the timing loop exactly as plans cache it;
//! * fused gates — one 4-gate `FusedGates` launch versus four one-gate
//!   launches;
//! * fused masked — the kernel the DRS runtime runs: the in-place masked
//!   `f, i, c` product of a 4-gate `FusedGates` slab
//!   (`gemv_masked_prefix_into(3, ..)`) at paper-realistic skip ratios,
//!   next to the dense four-gate `gemv_into` on the same slab.
//!
//! Shapes follow the LSTM gate matrices: `H x H` recurrent blocks and the
//! `4H x H` stacked input projections of Table I's hidden sizes. In
//! measurement mode (`cargo bench`) the medians are also written to
//! `BENCH_gemm.json` at the repository root.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use tensor::gemm::sgemv;
use tensor::{FusedGates, Matrix, Precision, Vector};

/// `(rows, cols)` of the dense comparisons: recurrent `H x H` blocks at
/// the paper's hidden sizes plus the stacked `4H x H` gate projection.
const DENSE_SHAPES: [(usize, usize); 4] = [(128, 128), (256, 256), (512, 256), (1024, 256)];

/// Hidden sizes of the fused 4-gate comparison (`U_{f,i,c,o}` at `H x H`
/// each, applied to one `h_{t-1}`).
const FUSED_HIDDEN: [usize; 3] = [128, 256, 512];

/// Fraction of rows the skip list removes (Fig. 14's AO band and beyond).
const SKIP_RATIOS: [f64; 3] = [0.25, 0.50, 0.75];

/// Hidden size of the fused masked comparison (the `U_{f,i,c,o}` slab).
const MASKED_FUSED_HIDDEN: usize = 256;

/// Gates the masked DRS launch covers: the `f, i, c` prefix.
const MASKED_FUSED_GATES: usize = 3;

fn test_matrix(rows: usize, cols: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |r, c| {
        ((r * 31 + c * 7) % 13) as f32 * 0.083 - 0.5
    })
}

fn test_vector(len: usize) -> Vector {
    Vector::from_fn(len, |i| ((i * 17) % 11) as f32 * 0.091 - 0.45)
}

/// `a` alone as a one-gate fp32 slab: the packed form of one matrix.
fn pack_one(a: &Matrix) -> FusedGates {
    FusedGates::pack(&[a], Precision::Fp32)
}

/// The packed product `a * x` into a fresh vector, like `sgemv`.
fn packed_gemv(packed: &FusedGates, x: &Vector) -> Vector {
    let mut y = Vector::zeros(packed.rows());
    packed.gate_gemv_into(0, x.as_slice(), y.as_mut_slice());
    y
}

/// A deterministic skip list keeping roughly `1 - skip_ratio` of rows.
fn skip_mask(rows: usize, skip_ratio: f64) -> Vec<bool> {
    let period = 20usize;
    let skipped = (skip_ratio * period as f64).round() as usize;
    (0..rows).map(|r| (r * 7 + 3) % period >= skipped).collect()
}

fn bench_dense(c: &mut Criterion) {
    let mut group = c.benchmark_group("sgemv_dense");
    group.sample_size(20);
    for &(rows, cols) in &DENSE_SHAPES {
        let a = test_matrix(rows, cols);
        let x = test_vector(cols);
        let packed = pack_one(&a);
        // The two paths must agree bitwise before we time them.
        assert_eq!(sgemv(&a, &x), packed_gemv(&packed, &x));
        group.bench_with_input(
            BenchmarkId::new("naive", format!("{rows}x{cols}")),
            &(),
            |b, _| b.iter(|| black_box(sgemv(&a, &x))),
        );
        group.bench_with_input(
            BenchmarkId::new("packed", format!("{rows}x{cols}")),
            &(),
            |b, _| b.iter(|| black_box(packed_gemv(&packed, &x))),
        );
    }
    group.finish();
}

/// The four `H x H` gate matrices of one fused comparison, plus their
/// individually packed one-gate slabs and the fused slab. Both sides use
/// the same packed panel micro-kernel and write into caller-owned
/// buffers: the fused win is one pass over `h` and panel-pair ILP, not
/// allocation.
fn fused_setup(h: usize) -> (FusedGates, Vec<FusedGates>, Vector) {
    let mats: Vec<Matrix> = (0..4)
        .map(|g| {
            Matrix::from_fn(h, h, |r, c| {
                ((r * 31 + c * 7 + g * 5) % 13) as f32 * 0.083 - 0.5
            })
        })
        .collect();
    let refs: Vec<&Matrix> = mats.iter().collect();
    let fused = FusedGates::pack(&refs, Precision::Fp32);
    let singles: Vec<FusedGates> = mats.iter().map(pack_one).collect();
    (fused, singles, test_vector(h))
}

fn bench_fused(c: &mut Criterion) {
    let mut group = c.benchmark_group("sgemv_fused_gates");
    group.sample_size(20);
    for &h in &FUSED_HIDDEN {
        let (fused, singles, x) = fused_setup(h);
        let mut slab = vec![0.0f32; 4 * h];
        let mut unfused = vec![0.0f32; 4 * h];
        // The fused slab's sections must agree bitwise with the per-gate
        // launches before we time either side.
        fused.gemv_into(x.as_slice(), &mut slab);
        for (g, p) in singles.iter().enumerate() {
            p.gate_gemv_into(0, x.as_slice(), &mut unfused[g * h..(g + 1) * h]);
        }
        assert_eq!(slab, unfused);
        group.bench_with_input(
            BenchmarkId::new("per_gate", format!("H{h}")),
            &(),
            |b, _| {
                b.iter(|| {
                    for (g, p) in singles.iter().enumerate() {
                        p.gate_gemv_into(0, x.as_slice(), &mut unfused[g * h..(g + 1) * h]);
                    }
                    black_box(&mut unfused);
                })
            },
        );
        group.bench_with_input(BenchmarkId::new("fused", format!("H{h}")), &(), |b, _| {
            b.iter(|| {
                fused.gemv_into(x.as_slice(), &mut slab);
                black_box(&mut slab);
            })
        });
    }
    group.finish();
}

fn bench_masked_fused(c: &mut Criterion) {
    let h = MASKED_FUSED_HIDDEN;
    let (fused, _, x) = fused_setup(h);
    let mut group = c.benchmark_group("sgemv_masked_fused");
    group.sample_size(20);
    let mut dense = vec![0.0f32; 4 * h];
    group.bench_with_input(BenchmarkId::new("dense", format!("H{h}")), &(), |b, _| {
        b.iter(|| {
            fused.gemv_into(x.as_slice(), &mut dense);
            black_box(&mut dense);
        })
    });
    fused.gemv_into(x.as_slice(), &mut dense);
    let mut masked = vec![0.0f32; MASKED_FUSED_GATES * h];
    for &ratio in &SKIP_RATIOS {
        let mask = skip_mask(h, ratio);
        // Every active row must equal the dense product's before we time.
        fused.gemv_masked_prefix_into(MASKED_FUSED_GATES, x.as_slice(), &mask, 0.0, &mut masked);
        for (i, (m, d)) in masked.iter().zip(&dense).enumerate() {
            if mask[i % h] {
                assert_eq!(m.to_bits(), d.to_bits(), "masked row {i}");
            }
        }
        group.bench_with_input(
            BenchmarkId::new("masked_fic", format!("skip{:.0}%", ratio * 100.0)),
            &(),
            |b, _| {
                b.iter(|| {
                    fused.gemv_masked_prefix_into(
                        MASKED_FUSED_GATES,
                        x.as_slice(),
                        &mask,
                        0.0,
                        &mut masked,
                    );
                    black_box(&mut masked);
                })
            },
        );
    }
    group.finish();
}

fn bench_gemm_kernels(c: &mut Criterion) {
    bench_dense(c);
    bench_fused(c);
    bench_masked_fused(c);
    if c.is_measuring() {
        emit_json();
    }
}

/// Median seconds over `reps` timings of `iters` calls of `f`, so
/// microsecond kernels get a stable reading.
fn median_s(reps: usize, iters: usize, f: &dyn Fn()) -> f64 {
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let start = std::time::Instant::now();
            for _ in 0..iters {
                f();
            }
            start.elapsed().as_secs_f64() / iters as f64
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[reps / 2]
}

/// Re-times every comparison directly and writes `BENCH_gemm.json`.
fn emit_json() {
    const REPS: usize = 7;
    const ITERS: usize = 200;
    let mut dense = Vec::new();
    for &(rows, cols) in &DENSE_SHAPES {
        let a = test_matrix(rows, cols);
        let x = test_vector(cols);
        let packed = pack_one(&a);
        let naive_s = median_s(REPS, ITERS, &|| {
            black_box(sgemv(&a, &x));
        });
        let packed_s = median_s(REPS, ITERS, &|| {
            black_box(packed_gemv(&packed, &x));
        });
        dense.push(format!(
            "    {{\"rows\": {rows}, \"cols\": {cols}, \"naive_s\": {naive_s:.9}, \
             \"packed_s\": {packed_s:.9}, \"speedup\": {:.3}}}",
            naive_s / packed_s
        ));
    }
    let mut fused_rows = Vec::new();
    for &h in &FUSED_HIDDEN {
        let (fused, singles, x) = fused_setup(h);
        // `median_s` takes `Fn`, so the output slabs live in cells.
        let slab = std::cell::RefCell::new(vec![0.0f32; 4 * h]);
        let per_gate_s = median_s(REPS, ITERS, &|| {
            let mut slab = slab.borrow_mut();
            for (g, p) in singles.iter().enumerate() {
                p.gate_gemv_into(0, x.as_slice(), &mut slab[g * h..(g + 1) * h]);
            }
            black_box(&mut *slab);
        });
        let fused_s = median_s(REPS, ITERS, &|| {
            let mut slab = slab.borrow_mut();
            fused.gemv_into(x.as_slice(), &mut slab);
            black_box(&mut *slab);
        });
        fused_rows.push(format!(
            "    {{\"hidden\": {h}, \"gates\": 4, \"per_gate_s\": {per_gate_s:.9}, \
             \"fused_s\": {fused_s:.9}, \"speedup\": {:.3}}}",
            per_gate_s / fused_s
        ));
    }
    let h = MASKED_FUSED_HIDDEN;
    let (fused, _, x) = fused_setup(h);
    let slab = std::cell::RefCell::new(vec![0.0f32; 4 * h]);
    let dense_s = median_s(REPS, ITERS, &|| {
        let mut slab = slab.borrow_mut();
        fused.gemv_into(x.as_slice(), &mut slab);
        black_box(&mut *slab);
    });
    let mut masked_fused = Vec::new();
    for &ratio in &SKIP_RATIOS {
        let mask = skip_mask(h, ratio);
        let masked_s = median_s(REPS, ITERS, &|| {
            let mut slab = slab.borrow_mut();
            fused.gemv_masked_prefix_into(
                MASKED_FUSED_GATES,
                x.as_slice(),
                &mask,
                0.0,
                &mut slab[..MASKED_FUSED_GATES * h],
            );
            black_box(&mut *slab);
        });
        masked_fused.push(format!(
            "    {{\"hidden\": {h}, \"gates\": 4, \"masked_gates\": {MASKED_FUSED_GATES}, \
             \"skip_ratio\": {ratio:.2}, \"dense_s\": {dense_s:.9}, \
             \"masked_s\": {masked_s:.9}, \"masked_over_dense\": {:.3}}}",
            masked_s / dense_s
        ));
    }
    let json = format!(
        "{{\n  \"benchmark\": \"gemm_kernels\",\n  \"dense_sgemv\": [\n{}\n  ],\n  \
         \"fused_gates\": [\n{}\n  ],\n  \"masked_fused\": [\n{}\n  ]\n}}\n",
        dense.join(",\n"),
        fused_rows.join(",\n"),
        masked_fused.join(",\n"),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_gemm.json");
    std::fs::write(path, json).expect("write BENCH_gemm.json");
    eprintln!("wrote {path}");
}

criterion_group!(benches, bench_gemm_kernels);
criterion_main!(benches);
