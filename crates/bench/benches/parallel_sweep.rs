//! Measures what the parallel sweep engine buys: one full 11-point
//! threshold sweep of the MR benchmark run on pools of 1, 2, 4, and 8
//! workers. The sweep is deterministic by construction — every worker
//! count produces bit-identical tradeoff points, which this bench asserts
//! before reporting any timing.
//!
//! In measurement mode (`cargo bench`) the per-worker wall-clock and
//! speedups versus the single-worker pool are written to
//! `BENCH_parallel_sweep.json`, along with `host_cores` so readers can
//! judge the numbers: the speedup ceiling is the host's core count, and
//! pools with more workers than cores only add thread overhead. Each
//! `par_map` starts `min(workers, items)` threads that claim items from
//! one shared cursor.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gpu_sim::DeviceModel;
use memlstm::thresholds::{Evaluator, Level, TradeoffPoint};
use pool::Pool;
use std::hint::black_box;
use workloads::{Benchmark, Workload};

/// Points per sweep (paper: 11).
const NUM_SETS: usize = 11;

/// Worker counts the sweep is timed at.
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Evaluation budget: enough sequences for the per-sequence fan-out to
/// matter while keeping single-core smoke runs fast.
const ACCURACY_SEQS: usize = 8;
const PERF_SEQS: usize = 2;

fn build_evaluator() -> Evaluator {
    let workload = Workload::generate(Benchmark::Mr, ACCURACY_SEQS, 0xBEEF);
    Evaluator::new(workload, DeviceModel::tegra_x1()).with_budget(PERF_SEQS, ACCURACY_SEQS)
}

/// Two sweeps are interchangeable only if every float is bit-identical.
fn assert_bit_identical(a: &[TradeoffPoint], b: &[TradeoffPoint], workers: usize) {
    assert_eq!(a.len(), b.len());
    for (pa, pb) in a.iter().zip(b) {
        let fields = [
            (pa.speedup, pb.speedup),
            (pa.accuracy, pb.accuracy),
            (pa.energy_saving, pb.energy_saving),
            (pa.power_saving, pb.power_saving),
        ];
        for (va, vb) in fields {
            assert_eq!(
                va.to_bits(),
                vb.to_bits(),
                "sweep diverged at {workers} workers"
            );
        }
    }
}

fn bench_parallel_sweep(c: &mut Criterion) {
    let mut ev = build_evaluator();
    let baseline = ev.sweep(Level::Combined, NUM_SETS);

    let mut group = c.benchmark_group("parallel_sweep");
    group.sample_size(10);
    for &workers in &WORKER_COUNTS {
        ev = ev.with_pool(Pool::with_workers(workers));
        assert_bit_identical(&baseline, &ev.sweep(Level::Combined, NUM_SETS), workers);
        group.bench_with_input(
            BenchmarkId::new("mr_sweep", format!("{workers}w")),
            &(),
            |b, _| b.iter(|| black_box(ev.sweep(Level::Combined, NUM_SETS))),
        );
    }
    group.finish();

    if c.is_measuring() {
        emit_json(ev);
    }
}

/// Times the sweep at each worker count (median of `REPS`) and writes the
/// scaling table to `BENCH_parallel_sweep.json`.
fn emit_json(mut ev: Evaluator) {
    const REPS: usize = 5;
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut times = Vec::new();
    for &workers in &WORKER_COUNTS {
        ev = ev.with_pool(Pool::with_workers(workers));
        let mut samples: Vec<f64> = (0..REPS)
            .map(|_| {
                let start = std::time::Instant::now();
                black_box(ev.sweep(Level::Combined, NUM_SETS));
                start.elapsed().as_secs_f64()
            })
            .collect();
        samples.sort_by(f64::total_cmp);
        times.push((workers, samples[REPS / 2]));
    }
    let base = times[0].1;
    let runs = times
        .iter()
        .map(|&(workers, t)| {
            format!(
                "    {{\"workers\": {workers}, \"time_s\": {t:.6}, \"speedup_vs_1\": {:.3}}}",
                base / t
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        "{{\n  \"benchmark\": \"parallel_sweep\",\n  \"workload\": \"mr_sweep\",\n  \
         \"sweep_sets\": {NUM_SETS},\n  \"accuracy_seqs\": {ACCURACY_SEQS},\n  \
         \"perf_seqs\": {PERF_SEQS},\n  \"host_cores\": {host_cores},\n  \
         \"note\": \"speedup is bounded by host_cores; results are bit-identical at every worker count\",\n  \
         \"runs\": [\n{runs}\n  ]\n}}\n",
    );
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_parallel_sweep.json"
    );
    std::fs::write(path, json).expect("write BENCH_parallel_sweep.json");
    eprintln!("wrote {path}");
}

criterion_group!(benches, bench_parallel_sweep);
criterion_main!(benches);
