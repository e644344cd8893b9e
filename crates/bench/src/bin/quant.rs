//! Sweeps the quantized weight tiers (fp32 / fp16 / int8) across
//! benchmarks and execution schemes and reports what each tier buys and
//! costs: teacher-match accuracy delta vs fp32, DRAM weight-traffic
//! reduction, simulated speedup, the measured max-abs logit error against
//! the fp32 path, and every device preset's weight-residency fraction at
//! each tier.
//!
//! ```text
//! cargo run -p mf-bench --release --bin quant [-- --fast] [-- --check]
//! ```
//!
//! The paper's cost model is weight-traffic bound, so storage precision
//! is a first-order knob: int8 cuts the united-matrix DRAM stream 4x on
//! exactly the kernels Sec. III-A shows reloading redundantly, and the
//! shrunken working set moves every residency-derived quantity (the
//! fleet Affinity quotes, [`DeviceModel::weight_residency_fraction`],
//! the analytic service time). Quantization is strictly opt-in — the
//! default fp32 pipeline is byte-identical with or without this code.
//!
//! Results go to `BENCH_quant.json` at the repo root. `--fast` restricts
//! to the two cheapest benchmarks with smoke budgets and writes to
//! `target/bench/` instead, leaving the committed file alone; `--check`
//! re-reads the written file and fails unless the quantization evidence
//! is present (per-tier fields, at least one device cell whose residency
//! fraction moved, every measured error within its pinned bound). The
//! primary simulated device comes from `MEMLSTM_DEVICE` (unset: Tegra
//! X1). Everything is simulated time; reruns are bit-identical.

use bench_harness::cli::{output_path, reread_with_fields, Cli};
use bench_harness::experiments::{budget_for, fast_budget};
use gpu_sim::DeviceModel;
use lstm::plan::{ExecutionPlan, NullSink, PlanRuntime};
use memlstm::thresholds::{select_bpa, Evaluator, Level, PerfSummary};
use tensor::Precision;
use workloads::{Benchmark, Workload};

/// Threshold sets for the fp32 combined-scheme sweep that fixes the BPA
/// operating point the quantized tiers are compared at.
const FULL_SETS: usize = 7;
/// Set count under `--fast`.
const FAST_SETS: usize = 5;

/// Every weight tier, fp32 first (the comparison base).
const TIERS: [Precision; 3] = [Precision::Fp32, Precision::Fp16, Precision::Int8];

/// Pinned ceiling on the measured max-abs logit error of a tier's
/// baseline-scheme run against the exact fp32 logits. Loose enough for
/// every Table II shape, tight enough that a broken dequant path (wrong
/// scale, truncation instead of round-to-nearest) trips it immediately.
fn error_bound(precision: Precision) -> f64 {
    match precision {
        Precision::Fp32 => 0.0,
        Precision::Fp16 => 0.05,
        Precision::Int8 => 2.0,
    }
}

/// One (scheme, precision) cell on one benchmark.
struct Cell {
    scheme: &'static str,
    precision: Precision,
    perf: PerfSummary,
    accuracy: f64,
}

/// One benchmark's full sweep.
struct BenchResult {
    benchmark: Benchmark,
    hidden: usize,
    mts: usize,
    /// Max-abs logit error of each tier's baseline plan vs exact fp32,
    /// indexed like [`TIERS`].
    max_abs_err: [f64; 3],
    cells: Vec<Cell>,
}

/// Measures the max-abs logit error of the quantized baseline plan
/// against the exact fp32 baseline over a few evaluation sequences.
fn logit_error(workload: &Workload, device: &DeviceModel, precision: Precision) -> f64 {
    let net = workload.network();
    let seq_len = workload.eval_set()[0].len();
    let exact = ExecutionPlan::compile_baseline(net, seq_len, device);
    let quant = ExecutionPlan::compile_baseline(net, seq_len, device).with_precision(precision);
    let mut runtime = PlanRuntime::new();
    let mut worst = 0.0f64;
    for xs in workload.eval_set().iter().take(3) {
        let a = runtime.run_lstm(&exact, net, xs, &mut NullSink);
        let b = runtime.run_lstm(&quant, net, xs, &mut NullSink);
        for (x, y) in a.logits.iter().zip(b.logits.iter()) {
            worst = worst.max(f64::from((x - y).abs()));
        }
    }
    worst
}

/// Runs one benchmark: fp32 combined sweep to fix the BPA set, then the
/// (scheme x tier) grid at that operating point.
fn run_benchmark(
    benchmark: Benchmark,
    fast: bool,
    device: &DeviceModel,
    sets: usize,
) -> BenchResult {
    eprintln!("[quant] {benchmark}: offline phase...");
    let budget = if fast {
        fast_budget()
    } else {
        budget_for(benchmark)
    };
    let workload = Workload::generate(benchmark, budget.accuracy_seqs, 0xBEEF);
    let ev = Evaluator::new(workload.clone(), device.clone())
        .with_budget(budget.perf_seqs, budget.accuracy_seqs);
    let points = ev.sweep(Level::Combined, sets);
    let bpa_set = select_bpa(&points).set;
    let mut cells = Vec::new();
    for precision in TIERS {
        for (scheme, config) in [
            (
                "baseline",
                memlstm::exec::OptimizerConfig::builder()
                    .precision(precision)
                    .build(),
            ),
            ("combined", {
                let base = Level::Combined.config(&bpa_set, ev.mts());
                memlstm::exec::OptimizerConfig { precision, ..base }
            }),
        ] {
            eprintln!("[quant] {benchmark}: {scheme} @ {}...", precision.name());
            let (perf, accuracy, _) = ev.evaluate(config);
            cells.push(Cell {
                scheme,
                precision,
                perf,
                accuracy,
            });
        }
    }
    let max_abs_err = [
        0.0,
        logit_error(&workload, device, Precision::Fp16),
        logit_error(&workload, device, Precision::Int8),
    ];
    BenchResult {
        benchmark,
        hidden: workload.network().config().hidden_size,
        mts: ev.mts(),
        max_abs_err,
        cells,
    }
}

/// The fp32 cell of a scheme (the comparison base).
fn fp32_of<'c>(cells: &'c [Cell], scheme: &str) -> &'c Cell {
    cells
        .iter()
        .find(|c| c.scheme == scheme && c.precision == Precision::Fp32)
        .expect("fp32 base present")
}

fn bench_json(r: &BenchResult, workloads: &[(Benchmark, Workload)]) -> String {
    let workload = &workloads
        .iter()
        .find(|(b, _)| *b == r.benchmark)
        .expect("workload generated")
        .1;
    let cell_lines = r
        .cells
        .iter()
        .map(|c| {
            let base = fp32_of(&r.cells, c.scheme);
            let tier_idx = c.precision as usize;
            let err = r.max_abs_err[tier_idx];
            format!(
                "        {{\"scheme\": \"{}\", \"precision\": \"{}\", \
                 \"time_s\": {:.6}, \"speedup_vs_fp32\": {:.3}, \
                 \"accuracy\": {:.4}, \"accuracy_delta_vs_fp32\": {:.4}, \
                 \"dram_bytes\": {}, \"weight_traffic_reduction\": {:.4}, \
                 \"max_abs_logit_error\": {:.6}, \"error_bound\": {:.3}, \
                 \"within_bound\": {}}}",
                c.scheme,
                c.precision.name(),
                c.perf.time_s,
                base.perf.time_s / c.perf.time_s,
                c.accuracy,
                c.accuracy - base.accuracy,
                c.perf.dram_bytes,
                1.0 - c.perf.dram_bytes as f64 / base.perf.dram_bytes as f64,
                err,
                error_bound(c.precision),
                err <= error_bound(c.precision)
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let device_lines = DeviceModel::presets()
        .iter()
        .map(|d| {
            let frac = |p: Precision| {
                d.weight_residency_fraction(workload.network().config().total_weight_bytes_at(p))
            };
            let service = |p: Precision| {
                d.weight_service_s(workload.network().config().total_weight_bytes_at(p))
            };
            format!(
                "        {{\"device\": \"{}\", \
                 \"weight_bytes\": [{}, {}, {}], \
                 \"residency_fraction\": [{:.4}, {:.4}, {:.4}], \
                 \"weight_service_s\": [{:.9}, {:.9}, {:.9}], \
                 \"residency_changed\": {}}}",
                d.name,
                workload.network().config().total_weight_bytes(),
                workload
                    .network()
                    .config()
                    .total_weight_bytes_at(Precision::Fp16),
                workload
                    .network()
                    .config()
                    .total_weight_bytes_at(Precision::Int8),
                frac(Precision::Fp32),
                frac(Precision::Fp16),
                frac(Precision::Int8),
                service(Precision::Fp32),
                service(Precision::Fp16),
                service(Precision::Int8),
                (frac(Precision::Int8) - frac(Precision::Fp32)).abs() > 1e-12
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    format!(
        "    {{\n      \"name\": \"{}\", \"hidden\": {}, \"mts\": {},\n      \
         \"cells\": [\n{cell_lines}\n      ],\n      \
         \"devices\": [\n{device_lines}\n      ]\n    }}",
        r.benchmark, r.hidden, r.mts
    )
}

/// Fields `--check` requires in the written JSON; CI uses this to prove
/// the quantization evidence made it into the artifact.
const REQUIRED_FIELDS: [&str; 8] = [
    "\"precision\": \"int8\"",
    "\"precision\": \"fp16\"",
    "\"weight_traffic_reduction\"",
    "\"accuracy_delta_vs_fp32\"",
    "\"speedup_vs_fp32\"",
    "\"max_abs_logit_error\"",
    "\"residency_fraction\"",
    "\"residency_changed_cells\"",
];

const CLI: Cli = Cli::switches("usage: quant [--fast] [--check]", &["--fast", "--check"]);

fn main() {
    let args = CLI.parse_env();
    let fast = args.flag("--fast");
    let check = args.flag("--check");
    let (benchmarks, sets) = if fast {
        (vec![Benchmark::Mr, Benchmark::Babi], FAST_SETS)
    } else {
        (Benchmark::ALL.to_vec(), FULL_SETS)
    };
    let device = DeviceModel::from_env();
    eprintln!(
        "[quant] sweeping {} tiers x {} benchmarks x 2 schemes on {}",
        TIERS.len(),
        benchmarks.len(),
        device.name
    );
    let workloads: Vec<(Benchmark, Workload)> = benchmarks
        .iter()
        .map(|&b| {
            let budget = if fast { fast_budget() } else { budget_for(b) };
            (b, Workload::generate(b, budget.accuracy_seqs, 0xBEEF))
        })
        .collect();
    let results: Vec<BenchResult> = benchmarks
        .iter()
        .map(|&b| run_benchmark(b, fast, &device, sets))
        .collect();

    for r in &results {
        for c in r.cells.iter().filter(|c| c.scheme == "baseline") {
            let base = fp32_of(&r.cells, "baseline");
            eprintln!(
                "[quant] {} baseline @ {}: {:.2}x vs fp32, traffic -{:.0}%, acc {:.1}% ({}{:.2} pts), err {:.4}",
                r.benchmark,
                c.precision.name(),
                base.perf.time_s / c.perf.time_s,
                100.0 * (1.0 - c.perf.dram_bytes as f64 / base.perf.dram_bytes as f64),
                c.accuracy * 100.0,
                if c.accuracy >= base.accuracy { "+" } else { "" },
                (c.accuracy - base.accuracy) * 100.0,
                r.max_abs_err[c.precision as usize]
            );
        }
    }

    // How many (device, benchmark) cells saw their residency fraction
    // move under int8 — the routing-relevant evidence.
    let residency_changed_cells: usize = results
        .iter()
        .map(|r| {
            let workload = &workloads
                .iter()
                .find(|(b, _)| *b == r.benchmark)
                .expect("workload generated")
                .1;
            DeviceModel::presets()
                .iter()
                .filter(|d| {
                    let cfg = workload.network().config();
                    let f32_frac = d.weight_residency_fraction(cfg.total_weight_bytes());
                    let i8_frac =
                        d.weight_residency_fraction(cfg.total_weight_bytes_at(Precision::Int8));
                    (i8_frac - f32_frac).abs() > 1e-12
                })
                .count()
        })
        .sum();

    let bench_entries = results
        .iter()
        .map(|r| bench_json(r, &workloads))
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        "{{\n  \"benchmark\": \"quant\",\n  \"mode\": \"{}\",\n  \
         \"note\": \"weight-precision tiers (fp32/fp16/int8) per scheme; \
         gate weights rounded to the tier, biases and head stay fp32; \
         simulated time, bit-identical reruns\",\n  \
         \"device\": \"{}\",\n  \"threshold_sets\": {sets},\n  \
         \"residency_changed_cells\": {residency_changed_cells},\n  \
         \"benchmarks\": [\n{bench_entries}\n  ]\n}}\n",
        if fast { "fast" } else { "full" },
        device.name
    );
    let path = output_path("BENCH_quant.json", fast);
    std::fs::write(&path, &json).expect("write BENCH_quant.json");
    eprintln!("wrote {}", path.display());

    if check {
        let written = reread_with_fields(&path, &REQUIRED_FIELDS);
        assert!(
            !written.contains("\"residency_changed_cells\": 0"),
            "[quant] --check failed: no device/benchmark cell changed residency under int8"
        );
        assert!(
            !written.contains("\"within_bound\": false"),
            "[quant] --check failed: a tier's measured logit error exceeded its pinned bound"
        );
        eprintln!("[quant] --check passed: quantization evidence present and within bounds");
    }
}
