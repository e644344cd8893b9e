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
//!   next to the dense four-gate `gemv_into` on the same slab;
//! * traced masked — the same masked `f, i, c` product replayed over a
//!   recorded DRS mask trace: every cell of BABI's harness model (seed
//!   `0xBEEF`) under the exact forward, masked at `α_intra` 0.05, on the
//!   layer's `U` slab in natural row order and in the ascending-`b_o`
//!   order `lstm::CellWeights` stores. The uniform masks above spread
//!   trivial rows over every panel, which no row order can help; the
//!   trace's trivial rows follow `b_o`, so ordered panels skip whole;
//! * pack — packing a 4-gate 256x256 slab at fp32 and int8;
//! * batched `W·x` — the layer's hoisted input product on BABI's shape
//!   (a 4-gate 256x256 slab, 86 columns): the column-blocked slab walk
//!   `gemv_batch_into` the runtime runs, versus one `gemv_into` per
//!   column into the same column blocks, both per column;
//! * lockstep lanes — a gang's fused H=256 `U·h` at 1, 2, 3, 4 and 8
//!   lanes on a slab in bias-sorted row order, as `lstm::CellWeights`
//!   stores it: one `gemv_into` per lane, as a lane-by-lane tissue step
//!   runs it, versus the one lockstep walk of a dense tissue step, both
//!   per lane;
//! * batched masked — the traced masked `f, i, c` product on every layer's
//!   `b_o`-ordered slab, the traced cells taken `n` at a time as the
//!   columns of a DRS tissue or gang: the column-blocked masked walk
//!   (`gemv_masked_prefix_into` over `n` columns, each under its own
//!   mask) versus one single-column call per column, both per column, at
//!   1, 2, 4 and 8 columns, with the share of panels the union of each
//!   batch's masks still skips;
//! * elementwise — the cell's elementwise pass after its products (Eqs.
//!   1–5 from the gate pre-activations' addends): the output gate and the
//!   state pass of a dense LSTM step (`tensor::activation`'s
//!   `sigmoid_gate_into` and `lstm_state_into`, as
//!   `lstm::CellWeights` runs them) at H = 128, 256 and 512, and the
//!   masked state pass of a DRS step at H = 256 with half the rows
//!   skipped.
//!
//! Shapes follow the LSTM gate matrices: `H x H` recurrent blocks and the
//! `4H x H` stacked input projections of Table I's hidden sizes. In
//! measurement mode (`cargo bench`) every timing is also written to
//! `BENCH_gemm.json` at the repository root as its spread over the reps
//! (min, quartiles, median and rep count), so a reader can tell a kernel
//! change from host noise.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lstm::drs::trivial_row_mask_into;
use lstm::CellScratch;
use std::hint::black_box;
use std::slice;
use tensor::activation::{lstm_state_into, sigmoid_gate_into, GateRows};
use tensor::gemm::sgemv;
use tensor::packed::MR;
use tensor::{FusedGates, Matrix, Precision, Vector};
use workloads::{Benchmark, Workload};

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

/// The traced masked rows' model seed (the e2e harness's `solo_drs`
/// model), DRS threshold, and the eval sequences replayed.
const TRACE_MODEL_SEED: u64 = 0xBEEF;
const TRACE_ALPHA_INTRA: f32 = 0.05;
const TRACE_SEQUENCES: usize = 4;

/// Hidden size and tiers of the pack rows.
const PACK_HIDDEN: usize = 256;
const PACK_PRECISIONS: [Precision; 2] = [Precision::Fp32, Precision::Int8];

/// BABI's layer shape for the batched `W·x` comparison: hidden (and
/// input) width and the columns of one sequence.
const WX_HIDDEN: usize = 256;
const WX_COLUMNS: usize = 86;

/// Hidden size and gang sizes of the lockstep lane comparison.
const LANES_HIDDEN: usize = 256;
const LANES: [usize; 5] = [1, 2, 3, 4, 8];

/// Column counts of the batched masked comparison.
const MASKED_BATCH_COLUMNS: [usize; 4] = [1, 2, 4, 8];

/// Hidden sizes of the dense elementwise rows, and the hidden size and
/// skip ratio of the masked one.
const ELEMENTWISE_HIDDEN: [usize; 3] = [128, 256, 512];
const ELEMENTWISE_MASKED: (usize, f64) = (256, 0.5);

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
    packed.gate_gemv_into(0, &[x], y.as_mut_slice());
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
    let mats = fused_gate_matrices(h);
    let refs: Vec<&Matrix> = mats.iter().collect();
    let fused = FusedGates::pack(&refs, Precision::Fp32);
    let singles: Vec<FusedGates> = mats.iter().map(pack_one).collect();
    (fused, singles, test_vector(h))
}

/// Four deterministic `h x h` gate matrices.
fn fused_gate_matrices(h: usize) -> Vec<Matrix> {
    (0..4)
        .map(|g| {
            Matrix::from_fn(h, h, |r, c| {
                ((r * 31 + c * 7 + g * 5) % 13) as f32 * 0.083 - 0.5
            })
        })
        .collect()
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
            p.gate_gemv_into(0, &[&x], &mut unfused[g * h..(g + 1) * h]);
        }
        assert_eq!(slab, unfused);
        group.bench_with_input(
            BenchmarkId::new("per_gate", format!("H{h}")),
            &(),
            |b, _| {
                b.iter(|| {
                    for (g, p) in singles.iter().enumerate() {
                        p.gate_gemv_into(0, &[&x], &mut unfused[g * h..(g + 1) * h]);
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
        fused.gemv_masked_prefix_into(MASKED_FUSED_GATES, &[&x], &[&mask], 0.0, &mut masked);
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
                        &[&x],
                        &[&mask],
                        0.0,
                        &mut masked,
                    );
                    black_box(&mut masked);
                })
            },
        );
    }
    for (l, trace) in MaskTrace::record().iter().enumerate() {
        trace.assert_orders_agree();
        let mut out = vec![0.0f32; MASKED_FUSED_GATES * trace.natural.rows()];
        for (name, u) in [("natural", &trace.natural), ("ordered", &trace.ordered)] {
            group.bench_with_input(
                BenchmarkId::new(format!("trace_{name}"), format!("layer{l}")),
                &(),
                |b, _| b.iter(|| trace.replay(u, black_box(&mut out))),
            );
        }
    }
    group.finish();
}

fn bench_pack(c: &mut Criterion) {
    let mats = fused_gate_matrices(PACK_HIDDEN);
    let refs: Vec<&Matrix> = mats.iter().collect();
    let mut group = c.benchmark_group("pack");
    group.sample_size(20);
    for precision in PACK_PRECISIONS {
        group.bench_with_input(
            BenchmarkId::new(precision.name(), format!("4x{PACK_HIDDEN}x{PACK_HIDDEN}")),
            &(),
            |b, _| b.iter(|| black_box(FusedGates::pack(&refs, precision))),
        );
    }
    group.finish();
}

/// One layer's recorded DRS trace: every cell's `h_{t-1}` and active
/// mask under the exact forward, and the layer's `U_{f,i,c,o}` slab in
/// natural and in ascending-`b_o` row order.
struct MaskTrace {
    natural: FusedGates,
    ordered: FusedGates,
    cells: Vec<(Vector, Vec<bool>)>,
}

impl MaskTrace {
    /// Records one trace per layer of BABI's harness model.
    fn record() -> Vec<MaskTrace> {
        let workload = Workload::generate(Benchmark::Babi, TRACE_SEQUENCES, TRACE_MODEL_SEED);
        let net = workload.network();
        let seqs = workload.eval_set();
        let forwards: Vec<_> = seqs.iter().map(|xs| net.forward(xs)).collect();
        let (mut scratch, mut wx, mut o) = (CellScratch::new(), Vec::new(), Vector::zeros(0));
        net.layers()
            .iter()
            .enumerate()
            .map(|(l, cell)| {
                let mut cells = Vec::new();
                for (xs, fwd) in seqs.iter().zip(&forwards) {
                    let inputs = if l == 0 { xs } else { &fwd.layer_hs[l - 1] };
                    cell.precompute_wx_batch_into(Precision::Fp32, inputs, &mut wx);
                    let mut h_prev = Vector::zeros(cell.hidden());
                    let columns = wx.chunks_exact(4 * cell.hidden());
                    for (pre, h) in columns.zip(&fwd.layer_hs[l]) {
                        cell.output_gate_into(
                            Precision::Fp32,
                            [pre],
                            slice::from_ref(&h_prev),
                            &mut scratch,
                            slice::from_mut(&mut o),
                        );
                        let mut mask = Vec::new();
                        trivial_row_mask_into(&o, TRACE_ALPHA_INTRA, &mut mask);
                        cells.push((std::mem::replace(&mut h_prev, h.clone()), mask));
                    }
                }
                let u = [&cell.u.f, &cell.u.i, &cell.u.c, &cell.u.o];
                MaskTrace {
                    natural: FusedGates::pack(&u, Precision::Fp32),
                    ordered: FusedGates::pack_sorted(&u, Precision::Fp32, cell.b.o.as_slice()),
                    cells,
                }
            })
            .collect()
    }

    /// The masked `f, i, c` product of every traced cell on `slab`.
    fn replay(&self, slab: &FusedGates, out: &mut [f32]) {
        for (h, mask) in &self.cells {
            slab.gemv_masked_prefix_into(MASKED_FUSED_GATES, &[h], &[mask], 0.0, out);
        }
    }

    /// Share of skipped rows over the trace.
    fn skip_fraction(&self) -> f64 {
        let skipped: usize = self
            .cells
            .iter()
            .map(|(_, m)| m.iter().filter(|&&a| !a).count())
            .sum();
        skipped as f64 / (self.cells.len() * self.natural.rows()) as f64
    }

    /// Share of `slab`'s per-gate panels the masked walk skips over the
    /// trace: those whose every row is inactive.
    fn skippable_panels(&self, slab: &FusedGates) -> f64 {
        let panels = slab.row_order().chunks(MR);
        let skipped: usize = self
            .cells
            .iter()
            .map(|(_, m)| {
                panels
                    .clone()
                    .filter(|rows| rows.iter().all(|&r| !m[r]))
                    .count()
            })
            .sum();
        skipped as f64 / (self.cells.len() * panels.len()) as f64
    }

    /// Both slabs' traced products agree bitwise, row for row.
    fn assert_orders_agree(&self) {
        let rows = MASKED_FUSED_GATES * self.natural.rows();
        let (mut a, mut b) = (vec![0.0f32; rows], vec![0.0f32; rows]);
        for (h, mask) in &self.cells {
            self.natural
                .gemv_masked_prefix_into(MASKED_FUSED_GATES, &[h], &[mask], 0.0, &mut a);
            self.ordered
                .gemv_masked_prefix_into(MASKED_FUSED_GATES, &[h], &[mask], 0.0, &mut b);
            assert_eq!(a, b, "natural and ordered slabs diverged");
        }
    }
}

/// One layer's traced cells on its `b_o`-ordered slab, split into the
/// columns and masks a batched masked product takes.
struct BatchTrace {
    slab: FusedGates,
    hs: Vec<Vector>,
    masks: Vec<Vec<bool>>,
}

impl BatchTrace {
    /// Every layer's trace of BABI's harness model.
    fn record() -> Vec<BatchTrace> {
        MaskTrace::record()
            .into_iter()
            .map(|trace| {
                let (hs, masks) = trace.cells.into_iter().unzip();
                BatchTrace {
                    slab: trace.ordered,
                    hs,
                    masks,
                }
            })
            .collect()
    }

    /// The traced cells `n` at a time, as columns and their masks.
    fn batches(&self, n: usize) -> impl Iterator<Item = (&[Vector], &[Vec<bool>])> {
        self.hs.chunks(n).zip(self.masks.chunks(n))
    }

    /// One batch's masked `f, i, c` product into its column blocks of
    /// `out`: one column-blocked walk (`walk`), or one single-column call
    /// per column.
    fn product(&self, hs: &[Vector], masks: &[Vec<bool>], walk: bool, out: &mut [f32]) {
        let block = MASKED_FUSED_GATES * self.slab.rows();
        let out = &mut out[..hs.len() * block];
        if walk {
            self.slab
                .gemv_masked_prefix_into(MASKED_FUSED_GATES, hs, masks, 0.0, out);
        } else {
            for ((h, mask), out) in hs.iter().zip(masks).zip(out.chunks_mut(block)) {
                self.slab
                    .gemv_masked_prefix_into(MASKED_FUSED_GATES, &[h], &[mask], 0.0, out);
            }
        }
    }

    /// Every batch of `n` traced cells through [`product`](Self::product).
    fn replay(&self, n: usize, walk: bool, out: &mut [f32]) {
        for (hs, masks) in self.batches(n) {
            self.product(hs, masks, walk, out);
        }
    }

    /// Both forms of every batch agree bitwise.
    fn assert_walk_agrees(&self, n: usize) {
        let len = n * MASKED_FUSED_GATES * self.slab.rows();
        let (mut a, mut b) = (vec![0.0f32; len], vec![0.0f32; len]);
        for (k, (hs, masks)) in self.batches(n).enumerate() {
            self.product(hs, masks, true, &mut a);
            self.product(hs, masks, false, &mut b);
            assert_eq!(a, b, "masked walk diverged at {n} columns, batch {k}");
        }
    }

    /// Panels per gate, and how many of them the union of each `n`-cell
    /// batch's masks leaves without an active row, summed over batches.
    fn union_skippable(&self, n: usize) -> (usize, usize) {
        let panels = self.slab.row_order().chunks(MR);
        let skipped = self
            .batches(n)
            .map(|(_, masks)| {
                panels
                    .clone()
                    .filter(|rows| rows.iter().all(|&r| masks.iter().all(|m| !m[r])))
                    .count()
            })
            .sum();
        (self.masks.chunks(n).len() * panels.len(), skipped)
    }
}

/// Replays every layer's trace, `n` cells per call.
fn replay_layers(traces: &[BatchTrace], n: usize, walk: bool, out: &mut [f32]) {
    for trace in traces {
        trace.replay(n, walk, out);
    }
}

fn bench_masked_batch(c: &mut Criterion) {
    let traces = BatchTrace::record();
    let hidden = traces[0].slab.rows();
    let mut out = vec![0.0f32; 8 * MASKED_FUSED_GATES * hidden];
    let mut group = c.benchmark_group("masked_batch");
    group.sample_size(20);
    for n in MASKED_BATCH_COLUMNS {
        for trace in &traces {
            trace.assert_walk_agrees(n);
        }
        for (name, walk) in [("per_column", false), ("walk", true)] {
            group.bench_with_input(
                BenchmarkId::new(name, format!("H{hidden}xB{n}")),
                &(),
                |b, _| b.iter(|| replay_layers(&traces, n, walk, black_box(&mut out))),
            );
        }
    }
    group.finish();
}

/// The BABI-shaped `W_{f,i,c,o}` slab and one sequence's input columns.
fn wx_setup() -> (FusedGates, Vec<Vector>) {
    let (fused, _, _) = fused_setup(WX_HIDDEN);
    let xs = (0..WX_COLUMNS)
        .map(|i| Vector::from_fn(WX_HIDDEN, |k| ((k * 17 + i * 5) % 11) as f32 * 0.091 - 0.45))
        .collect();
    (fused, xs)
}

/// One dense `gemv_into` per column, into the column blocks
/// `gemv_batch_into` writes.
fn wx_per_column(fused: &FusedGates, xs: &[Vector], out: &mut [f32]) {
    for (x, block) in xs.iter().zip(out.chunks_mut(fused.total_rows())) {
        fused.gemv_into(x.as_slice(), block);
    }
}

fn bench_wx_batch(c: &mut Criterion) {
    let (fused, xs) = wx_setup();
    let mut walk = vec![0.0f32; xs.len() * fused.total_rows()];
    let mut single = walk.clone();
    // Both paths must agree bitwise before we time them.
    fused.gemv_batch_into(&xs, &mut walk);
    wx_per_column(&fused, &xs, &mut single);
    assert_eq!(walk, single);
    let mut group = c.benchmark_group("wx_batch");
    group.sample_size(20);
    let shape = format!("H{WX_HIDDEN}x{WX_COLUMNS}");
    group.bench_with_input(BenchmarkId::new("per_column", &shape), &(), |b, _| {
        b.iter(|| {
            wx_per_column(&fused, &xs, &mut single);
            black_box(&mut single);
        })
    });
    group.bench_with_input(BenchmarkId::new("walk", &shape), &(), |b, _| {
        b.iter(|| {
            fused.gemv_batch_into(&xs, &mut walk);
            black_box(&mut walk);
        })
    });
    group.finish();
}

/// The H=256 `U_{f,i,c,o}` slab in bias-sorted row order, and `lanes`
/// hidden states, one per lane.
fn lanes_setup(lanes: usize) -> (FusedGates, Vec<Vector>) {
    let h = LANES_HIDDEN;
    let mats = fused_gate_matrices(h);
    let refs: Vec<&Matrix> = mats.iter().collect();
    let bias: Vec<f32> = (0..h).map(|r| ((r * 37) % 29) as f32 - 14.0).collect();
    let fused = FusedGates::pack_sorted(&refs, Precision::Fp32, &bias);
    let hs = (0..lanes)
        .map(|i| Vector::from_fn(h, |k| ((k * 13 + i * 7) % 17) as f32 * 0.11 - 0.9))
        .collect();
    (fused, hs)
}

fn bench_lanes_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("lanes_batch");
    group.sample_size(20);
    for lanes in LANES {
        let (fused, hs) = lanes_setup(lanes);
        let mut walk = vec![0.0f32; lanes * fused.total_rows()];
        let mut single = walk.clone();
        // Every lane's lockstep product must equal its own before we time.
        fused.gemv_batch_into(&hs, &mut walk);
        wx_per_column(&fused, &hs, &mut single);
        assert_eq!(walk, single, "lockstep walk diverged at {lanes} lanes");
        let shape = format!("H{LANES_HIDDEN}xB{lanes}");
        group.bench_with_input(BenchmarkId::new("per_lane", &shape), &(), |b, _| {
            b.iter(|| {
                wx_per_column(&fused, &hs, &mut single);
                black_box(&mut single);
            })
        });
        group.bench_with_input(BenchmarkId::new("lockstep", &shape), &(), |b, _| {
            b.iter(|| {
                fused.gemv_batch_into(&hs, &mut walk);
                black_box(&mut walk);
            })
        });
    }
    group.finish();
}

/// One cell's elementwise inputs at hidden size `h`: the four gates'
/// `W·x`, `U·h` and bias rows (spanning both saturations), and
/// `c_{t-1}`.
struct Elementwise {
    gates: [[Vec<f32>; 3]; 4],
    c_prev: Vec<f32>,
}

impl Elementwise {
    fn new(h: usize) -> Self {
        let row = |seed: usize, spread: f32| -> Vec<f32> {
            (0..h)
                .map(|j| ((j * 37 + seed * 11) % 97) as f32 / 48.0 * spread - spread)
                .collect()
        };
        Self {
            gates: std::array::from_fn(|g| [row(g, 4.0), row(4 + g, 2.0), row(8 + g, 1.0)]),
            c_prev: row(12, 2.0),
        }
    }

    /// Gate `g`'s pre-activation addends.
    fn rows(&self, g: usize) -> GateRows<'_, 1> {
        let [wx, uh, b] = &self.gates[g];
        GateRows {
            wx: [wx],
            uh: [uh],
            b: [b],
        }
    }

    /// The `f, i, c` gates' addends.
    fn fic(&self) -> GateRows<'_, 3> {
        let part = |k: usize| std::array::from_fn(|g| self.gates[g][k].as_slice());
        GateRows {
            wx: part(0),
            uh: part(1),
            b: part(2),
        }
    }

    /// A dense step's pass: the output gate into `h`, then the state.
    fn dense(&self, c: &mut [f32], h: &mut [f32]) {
        sigmoid_gate_into(self.rows(3), h);
        lstm_state_into(self.fic(), &self.c_prev, None, c, h);
    }

    /// A DRS step's pass on the hoisted output gate `o` and its mask.
    fn masked(&self, o: &[f32], active: &[bool], c: &mut [f32], h: &mut [f32]) {
        h.copy_from_slice(o);
        lstm_state_into(self.fic(), &self.c_prev, Some(active), c, h);
    }
}

fn bench_elementwise(c: &mut Criterion) {
    let mut group = c.benchmark_group("elementwise");
    group.sample_size(20);
    for h in ELEMENTWISE_HIDDEN {
        let cell = Elementwise::new(h);
        let (mut c_out, mut h_out) = (vec![0.0f32; h], vec![0.0f32; h]);
        group.bench_with_input(BenchmarkId::new("dense", format!("H{h}")), &(), |b, _| {
            b.iter(|| {
                cell.dense(&mut c_out, &mut h_out);
                black_box(&mut h_out);
            })
        });
    }
    let (h, ratio) = ELEMENTWISE_MASKED;
    let cell = Elementwise::new(h);
    let mask = skip_mask(h, ratio);
    let (mut c_out, mut o) = (vec![0.0f32; h], vec![0.0f32; h]);
    sigmoid_gate_into(cell.rows(3), &mut o);
    let mut h_out = vec![0.0f32; h];
    // Every active row must equal the dense pass's before we time.
    let (mut c_dense, mut h_dense) = (vec![0.0f32; h], vec![0.0f32; h]);
    cell.dense(&mut c_dense, &mut h_dense);
    cell.masked(&o, &mask, &mut c_out, &mut h_out);
    for j in (0..h).filter(|&j| mask[j]) {
        assert_eq!(h_out[j].to_bits(), h_dense[j].to_bits(), "masked row {j}");
    }
    group.bench_with_input(
        BenchmarkId::new("masked", format!("H{h} skip{:.0}%", ratio * 100.0)),
        &(),
        |b, _| {
            b.iter(|| {
                cell.masked(&o, &mask, &mut c_out, &mut h_out);
                black_box(&mut h_out);
            })
        },
    );
    group.finish();
}

fn bench_gemm_kernels(c: &mut Criterion) {
    bench_dense(c);
    bench_fused(c);
    bench_masked_fused(c);
    bench_pack(c);
    bench_wx_batch(c);
    bench_lanes_batch(c);
    bench_masked_batch(c);
    bench_elementwise(c);
    if c.is_measuring() {
        emit_json();
    }
}

/// The spread of `reps` timings, each the mean seconds per call over
/// `iters` calls.
#[derive(Clone, Copy)]
struct Spread {
    min: f64,
    q1: f64,
    median: f64,
    q3: f64,
    reps: usize,
}

impl Spread {
    /// Times `reps` runs of `iters` calls of `f`.
    fn measure(reps: usize, iters: usize, f: &dyn Fn()) -> Self {
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
        Self {
            min: times[0],
            q1: times[reps / 4],
            median: times[reps / 2],
            q3: times[3 * reps / 4],
            reps,
        }
    }

    /// Every statistic divided by `n` (a per-column reading of a batch).
    fn per(self, n: usize) -> Self {
        let n = n as f64;
        Self {
            min: self.min / n,
            q1: self.q1 / n,
            median: self.median / n,
            q3: self.q3 / n,
            reps: self.reps,
        }
    }

    fn json(&self) -> String {
        format!(
            "{{\"min\": {:.9}, \"q1\": {:.9}, \"median\": {:.9}, \"q3\": {:.9}, \"reps\": {}}}",
            self.min, self.q1, self.median, self.q3, self.reps
        )
    }
}

/// Re-times every comparison directly and writes `BENCH_gemm.json`;
/// each ratio is of the two medians.
fn emit_json() {
    const REPS: usize = 15;
    const ITERS: usize = 200;
    // Packing is set-up work, read as a min over more single-call reps.
    const PACK_REPS: usize = 31;
    let time = |f: &dyn Fn()| Spread::measure(REPS, ITERS, f);
    let mut dense = Vec::new();
    for &(rows, cols) in &DENSE_SHAPES {
        let a = test_matrix(rows, cols);
        let x = test_vector(cols);
        let packed = pack_one(&a);
        let naive = time(&|| {
            black_box(sgemv(&a, &x));
        });
        let packed = time(&|| {
            black_box(packed_gemv(&packed, &x));
        });
        dense.push(format!(
            "    {{\"rows\": {rows}, \"cols\": {cols}, \"naive_s\": {}, \
             \"packed_s\": {}, \"speedup\": {:.3}}}",
            naive.json(),
            packed.json(),
            naive.median / packed.median
        ));
    }
    let mut fused_rows = Vec::new();
    for &h in &FUSED_HIDDEN {
        let (fused, singles, x) = fused_setup(h);
        // `Spread::measure` takes `Fn`, so the output slabs live in cells.
        let slab = std::cell::RefCell::new(vec![0.0f32; 4 * h]);
        let per_gate = time(&|| {
            let mut slab = slab.borrow_mut();
            for (g, p) in singles.iter().enumerate() {
                p.gate_gemv_into(0, &[&x], &mut slab[g * h..(g + 1) * h]);
            }
            black_box(&mut *slab);
        });
        let fused = time(&|| {
            let mut slab = slab.borrow_mut();
            fused.gemv_into(x.as_slice(), &mut slab);
            black_box(&mut *slab);
        });
        fused_rows.push(format!(
            "    {{\"hidden\": {h}, \"gates\": 4, \"per_gate_s\": {}, \
             \"fused_s\": {}, \"speedup\": {:.3}}}",
            per_gate.json(),
            fused.json(),
            per_gate.median / fused.median
        ));
    }
    let h = MASKED_FUSED_HIDDEN;
    let (fused, _, x) = fused_setup(h);
    let slab = std::cell::RefCell::new(vec![0.0f32; 4 * h]);
    let dense_fused = time(&|| {
        let mut slab = slab.borrow_mut();
        fused.gemv_into(x.as_slice(), &mut slab);
        black_box(&mut *slab);
    });
    let mut masked_fused = Vec::new();
    for &ratio in &SKIP_RATIOS {
        let mask = skip_mask(h, ratio);
        let masked = time(&|| {
            let mut slab = slab.borrow_mut();
            fused.gemv_masked_prefix_into(
                MASKED_FUSED_GATES,
                &[&x],
                &[&mask],
                0.0,
                &mut slab[..MASKED_FUSED_GATES * h],
            );
            black_box(&mut *slab);
        });
        masked_fused.push(format!(
            "    {{\"hidden\": {h}, \"gates\": 4, \"masked_gates\": {MASKED_FUSED_GATES}, \
             \"skip_ratio\": {ratio:.2}, \"dense_s\": {}, \
             \"masked_s\": {}, \"masked_over_dense\": {:.3}}}",
            dense_fused.json(),
            masked.json(),
            masked.median / dense_fused.median
        ));
    }
    let mut masked_trace = Vec::new();
    for (l, trace) in MaskTrace::record().iter().enumerate() {
        trace.assert_orders_agree();
        let (n, hidden) = (trace.cells.len(), trace.natural.rows());
        let out = std::cell::RefCell::new(vec![0.0f32; MASKED_FUSED_GATES * hidden]);
        // One rep replays the whole trace once; read per cell.
        let replay = |u: &FusedGates| {
            Spread::measure(REPS, 1, &|| {
                let mut out = out.borrow_mut();
                trace.replay(u, &mut out);
                black_box(&mut *out);
            })
            .per(n)
        };
        let (natural, ordered) = (replay(&trace.natural), replay(&trace.ordered));
        masked_trace.push(format!(
            "    {{\"layer\": {l}, \"hidden\": {hidden}, \"masked_gates\": {MASKED_FUSED_GATES}, \
             \"cells\": {n}, \"skip_fraction\": {:.3}, \"skippable_panels_natural\": {:.3}, \
             \"skippable_panels_ordered\": {:.3}, \"natural_s\": {}, \"ordered_s\": {}, \
             \"ordered_over_natural\": {:.3}}}",
            trace.skip_fraction(),
            trace.skippable_panels(&trace.natural),
            trace.skippable_panels(&trace.ordered),
            natural.json(),
            ordered.json(),
            ordered.median / natural.median
        ));
    }
    let mats = fused_gate_matrices(PACK_HIDDEN);
    let refs: Vec<&Matrix> = mats.iter().collect();
    let pack_rows: Vec<String> = PACK_PRECISIONS
        .iter()
        .map(|&precision| {
            let packed = Spread::measure(PACK_REPS, 1, &|| {
                black_box(FusedGates::pack(&refs, precision));
            });
            format!(
                "    {{\"hidden\": {PACK_HIDDEN}, \"gates\": 4, \"precision\": \"{precision}\", \
                 \"pack_s\": {}}}",
                packed.json()
            )
        })
        .collect();
    // One batch is `WX_COLUMNS` products, so fewer calls per rep.
    let (fused, xs) = wx_setup();
    let outs = std::cell::RefCell::new(vec![0.0f32; xs.len() * fused.total_rows()]);
    let batch_iters = ITERS / 10;
    let per_column = Spread::measure(REPS, batch_iters, &|| {
        let mut outs = outs.borrow_mut();
        wx_per_column(&fused, &xs, &mut outs);
        black_box(&mut *outs);
    })
    .per(WX_COLUMNS);
    let walk = Spread::measure(REPS, batch_iters, &|| {
        let mut outs = outs.borrow_mut();
        fused.gemv_batch_into(&xs, &mut outs);
        black_box(&mut *outs);
    })
    .per(WX_COLUMNS);
    let wx_batch = format!(
        "    {{\"hidden\": {WX_HIDDEN}, \"cols\": {WX_HIDDEN}, \"gates\": 4, \
         \"columns\": {WX_COLUMNS}, \"per_column_s\": {}, \"walk_s\": {}, \
         \"speedup\": {:.3}}}",
        per_column.json(),
        walk.json(),
        per_column.median / walk.median
    );
    let lanes_batch: Vec<String> = LANES
        .iter()
        .map(|&lanes| {
            let (fused, hs) = lanes_setup(lanes);
            let outs = std::cell::RefCell::new(vec![0.0f32; lanes * fused.total_rows()]);
            let per_lane = Spread::measure(REPS, ITERS, &|| {
                let mut outs = outs.borrow_mut();
                wx_per_column(&fused, &hs, &mut outs);
                black_box(&mut *outs);
            })
            .per(lanes);
            let lockstep = Spread::measure(REPS, ITERS, &|| {
                let mut outs = outs.borrow_mut();
                fused.gemv_batch_into(&hs, &mut outs);
                black_box(&mut *outs);
            })
            .per(lanes);
            format!(
                "    {{\"hidden\": {LANES_HIDDEN}, \"gates\": 4, \"lanes\": {lanes}, \
                 \"per_lane_s\": {}, \"lockstep_s\": {}, \"speedup\": {:.3}}}",
                per_lane.json(),
                lockstep.json(),
                per_lane.median / lockstep.median
            )
        })
        .collect();
    let traces = BatchTrace::record();
    let (hidden, cells) = (
        traces[0].slab.rows(),
        traces.iter().map(|t| t.hs.len()).sum(),
    );
    let out = std::cell::RefCell::new(vec![0.0f32; 8 * MASKED_FUSED_GATES * hidden]);
    let skip_fraction = {
        let skipped: usize = traces
            .iter()
            .flat_map(|t| &t.masks)
            .map(|m| m.iter().filter(|&&a| !a).count())
            .sum();
        skipped as f64 / (cells * hidden) as f64
    };
    let masked_batch: Vec<String> = MASKED_BATCH_COLUMNS
        .iter()
        .map(|&n| {
            for trace in &traces {
                trace.assert_walk_agrees(n);
            }
            let (panels, skipped) = traces
                .iter()
                .map(|t| t.union_skippable(n))
                .fold((0, 0), |(p, s), (tp, ts)| (p + tp, s + ts));
            // One rep replays every layer's trace once; read per column.
            let replay = |walk: bool| {
                Spread::measure(REPS, 1, &|| {
                    let mut out = out.borrow_mut();
                    replay_layers(&traces, n, walk, &mut out);
                    black_box(&mut *out);
                })
                .per(cells)
            };
            let (per_column, walk) = (replay(false), replay(true));
            format!(
                "    {{\"hidden\": {hidden}, \"masked_gates\": {MASKED_FUSED_GATES}, \
                 \"columns\": {n}, \"cells\": {cells}, \"skip_fraction\": {skip_fraction:.3}, \
                 \"skippable_panels_union\": {:.3}, \"per_column_s\": {}, \"walk_s\": {}, \
                 \"speedup\": {:.3}}}",
                skipped as f64 / panels as f64,
                per_column.json(),
                walk.json(),
                per_column.median / walk.median
            )
        })
        .collect();
    // A pass is a few microseconds: read as a min over more reps.
    let mut elementwise: Vec<String> = ELEMENTWISE_HIDDEN
        .iter()
        .map(|&h| {
            let cell = Elementwise::new(h);
            let outs = std::cell::RefCell::new((vec![0.0f32; h], vec![0.0f32; h]));
            let dense = Spread::measure(PACK_REPS, ITERS, &|| {
                let (c, h) = &mut *outs.borrow_mut();
                cell.dense(c, h);
                black_box(h);
            });
            format!(
                "    {{\"hidden\": {h}, \"pass\": \"dense\", \"skip_ratio\": 0.00, \"pass_s\": {}}}",
                dense.json()
            )
        })
        .collect();
    let (h, ratio) = ELEMENTWISE_MASKED;
    let cell = Elementwise::new(h);
    let mask = skip_mask(h, ratio);
    let mut o = vec![0.0f32; h];
    sigmoid_gate_into(cell.rows(3), &mut o);
    let outs = std::cell::RefCell::new((vec![0.0f32; h], vec![0.0f32; h]));
    let masked = Spread::measure(PACK_REPS, ITERS, &|| {
        let (c, h) = &mut *outs.borrow_mut();
        cell.masked(&o, &mask, c, h);
        black_box(h);
    });
    elementwise.push(format!(
        "    {{\"hidden\": {h}, \"pass\": \"masked\", \"skip_ratio\": {ratio:.2}, \"pass_s\": {}}}",
        masked.json()
    ));
    let json = format!(
        "{{\n  \"benchmark\": \"gemm_kernels\",\n  \"dense_sgemv\": [\n{}\n  ],\n  \
         \"fused_gates\": [\n{}\n  ],\n  \"masked_fused\": [\n{}\n  ],\n  \
         \"masked_fused_trace\": [\n{}\n  ],\n  \"pack\": [\n{}\n  ],\n  \
         \"wx_batch\": [\n{}\n  ],\n  \"lanes_batch\": [\n{}\n  ],\n  \
         \"masked_batch\": [\n{}\n  ],\n  \"elementwise\": [\n{}\n  ]\n}}\n",
        dense.join(",\n"),
        fused_rows.join(",\n"),
        masked_fused.join(",\n"),
        masked_trace.join(",\n"),
        pack_rows.join(",\n"),
        wx_batch,
        lanes_batch.join(",\n"),
        masked_batch.join(",\n"),
        elementwise.join(",\n"),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_gemm.json");
    std::fs::write(path, json).expect("write BENCH_gemm.json");
    eprintln!("wrote {path}");
}

criterion_group!(benches, bench_gemm_kernels);
criterion_main!(benches);
