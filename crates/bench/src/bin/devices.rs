//! Cross-device sweep: replays the paper's offline phase and scheme
//! comparison on every [`DeviceModel`] preset and reports, per device and
//! benchmark, the MTS, the AO-point speedup/energy of each scheme, and a
//! crossover table showing where the winning scheme or the MTS moves away
//! from the Tegra X1 baseline.
//!
//! ```text
//! cargo run -p mf-bench --release --bin devices [-- --fast] [-- --check]
//! ```
//!
//! The paper's central quantities are device-shaped: the MTS is capped by
//! the on-chip/off-chip bandwidth ratio (Fig. 9), and the DRS win depends
//! on the DRAM-traffic/divergence trade (Fig. 16). Sweeping the presets
//! makes both effects visible — a TX2-class part (2.3x the DRAM
//! bandwidth) saturates at a smaller MTS, while an Adreno-class part
//! (~60% of the bandwidth, 128 KiB L2) pushes it higher.
//!
//! Results go to `BENCH_devices.json` at the repo root. Workloads are
//! generated once per benchmark and shared across presets, so the
//! numerics are identical everywhere and only the pricing moves. `--fast`
//! restricts to the two cheapest benchmarks for CI smoke runs and writes
//! to `target/bench/` instead, leaving the committed file alone; `--check`
//! re-reads the written file and fails unless every per-device,
//! per-scheme and crossover field landed in it. Everything is simulated
//! time; reruns are bit-identical.

use bench_harness::cli::{output_path, reread_with_fields, Cli};
use gpu_sim::DeviceModel;
use memlstm::thresholds::{select_ao, select_bpa, Evaluator, Level, TradeoffPoint, ALL_LEVELS};
use workloads::{Benchmark, Workload};

/// Threshold sets per sweep: enough to separate the schemes without
/// paying for the full 11-point resolution on every (device, benchmark).
const FULL_SETS: usize = 7;
/// Set count under `--fast`.
const FAST_SETS: usize = 5;

/// One scheme's operating points on one (device, benchmark).
struct SchemeResult {
    level: Level,
    /// Accuracy-oriented point (best speedup with loss <= 2%).
    ao: TradeoffPoint,
    /// Best-performance-accuracy point (max speedup x accuracy).
    bpa: TradeoffPoint,
}

/// One benchmark's results on one device.
struct BenchResult {
    benchmark: Benchmark,
    hidden: usize,
    mts: usize,
    baseline_time_s: f64,
    baseline_energy_j: f64,
    schemes: Vec<SchemeResult>,
}

impl BenchResult {
    /// The scheme winning on the BPA objective (speedup x accuracy) —
    /// robust at reduced sweep resolution, where the AO filter can send
    /// every scheme back to set 0.
    fn winner(&self) -> Level {
        self.schemes
            .iter()
            .max_by(|a, b| a.bpa.bpa_score().total_cmp(&b.bpa.bpa_score()))
            .expect("schemes non-empty")
            .level
    }
}

fn level_name(level: Level) -> &'static str {
    match level {
        Level::Inter => "inter",
        Level::Intra => "intra",
        Level::Combined => "combined",
    }
}

/// Runs the offline phase and every scheme sweep for one benchmark on one
/// device, reusing the pre-generated workload.
fn run_benchmark(workload: &Workload, device: &DeviceModel, sets: usize) -> BenchResult {
    let benchmark = workload.benchmark();
    eprintln!("[devices] {}: {benchmark}...", device.name);
    let ev = Evaluator::new(workload.clone(), device.clone()).with_budget(1, 2);
    let base = ev.baseline_perf();
    let schemes = ALL_LEVELS
        .iter()
        .map(|&level| {
            let points = ev.sweep(level, sets);
            SchemeResult {
                level,
                ao: *select_ao(&points),
                bpa: *select_bpa(&points),
            }
        })
        .collect();
    BenchResult {
        benchmark,
        hidden: workload.network().config().hidden_size,
        mts: ev.mts(),
        baseline_time_s: base.time_s,
        baseline_energy_j: base.energy_j,
        schemes,
    }
}

fn device_json(device: &DeviceModel, results: &[BenchResult]) -> String {
    let bench_lines = results
        .iter()
        .map(|r| {
            let scheme_lines = r
                .schemes
                .iter()
                .map(|s| {
                    format!(
                        "          {{\"scheme\": \"{}\", \"ao_speedup\": {:.3}, \
                         \"ao_accuracy\": {:.4}, \"ao_energy_saving\": {:.4}, \
                         \"bpa_speedup\": {:.3}, \"bpa_accuracy\": {:.4}, \
                         \"bpa_energy_saving\": {:.4}}}",
                        level_name(s.level),
                        s.ao.speedup,
                        s.ao.accuracy,
                        s.ao.energy_saving,
                        s.bpa.speedup,
                        s.bpa.accuracy,
                        s.bpa.energy_saving
                    )
                })
                .collect::<Vec<_>>()
                .join(",\n");
            format!(
                "      {{\n        \"name\": \"{}\", \"hidden\": {}, \"mts\": {}, \
                 \"baseline_time_s\": {:.6}, \"baseline_energy_j\": {:.6}, \
                 \"winner\": \"{}\",\n        \"schemes\": [\n{scheme_lines}\n        ]\n      }}",
                r.benchmark,
                r.hidden,
                r.mts,
                r.baseline_time_s,
                r.baseline_energy_j,
                level_name(r.winner())
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    format!(
        "    {{\n      \"name\": \"{}\", \"description\": \"{}\",\n      \
         \"onchip_offchip_ratio\": {:.3}, \"ridge_flops_per_byte\": {:.3}, \
         \"mts_ceiling\": {}, \"l2_weight_budget_bytes\": {},\n      \
         \"benchmarks\": [\n{bench_lines}\n      ]\n    }}",
        device.name,
        device.config.name,
        device.onchip_offchip_ratio(),
        device.ridge_flops_per_byte(),
        device.mts_ceiling(),
        device.l2_weight_budget_bytes()
    )
}

/// The crossover table: per benchmark, each preset's MTS and winning
/// scheme next to the Tegra X1's, flagging where either moves.
fn crossover_json(devices: &[DeviceModel], all: &[Vec<BenchResult>]) -> String {
    let baseline_idx = devices
        .iter()
        .position(|d| d.name == "tegra_x1")
        .expect("tegra_x1 preset present");
    let n_bench = all[baseline_idx].len();
    (0..n_bench)
        .map(|bi| {
            let base = &all[baseline_idx][bi];
            let per_device = devices
                .iter()
                .zip(all)
                .map(|(d, results)| {
                    let r = &results[bi];
                    format!(
                        "        {{\"device\": \"{}\", \"mts\": {}, \"winner\": \"{}\", \
                         \"differs_from_tegra_x1\": {}}}",
                        d.name,
                        r.mts,
                        level_name(r.winner()),
                        r.mts != base.mts || r.winner() != base.winner()
                    )
                })
                .collect::<Vec<_>>()
                .join(",\n");
            format!(
                "    {{\n      \"benchmark\": \"{}\",\n      \"devices\": [\n{per_device}\n      ]\n    }}",
                base.benchmark
            )
        })
        .collect::<Vec<_>>()
        .join(",\n")
}

/// Fields `--check` requires in the written JSON.
const REQUIRED_FIELDS: [&str; 6] = [
    "\"mts\"",
    "\"winner\"",
    "\"ao_speedup\"",
    "\"bpa_speedup\"",
    "\"crossover\"",
    "\"differs_from_tegra_x1\"",
];

const CLI: Cli = Cli::switches("usage: devices [--fast] [--check]", &["--fast", "--check"]);

fn main() {
    let args = CLI.parse_env();
    let fast = args.flag("--fast");
    let check = args.flag("--check");
    let (benchmarks, sets) = if fast {
        (vec![Benchmark::Mr, Benchmark::Babi], FAST_SETS)
    } else {
        (Benchmark::ALL.to_vec(), FULL_SETS)
    };
    let devices = DeviceModel::presets();
    eprintln!(
        "[devices] sweeping {} presets x {} benchmarks x {} schemes ({} sets each)",
        devices.len(),
        benchmarks.len(),
        ALL_LEVELS.len(),
        sets
    );

    // One workload per benchmark, shared across every preset: numerics are
    // device-independent, so only the pricing differs between devices.
    let workloads: Vec<Workload> = benchmarks
        .iter()
        .map(|&b| {
            eprintln!("[devices] generating {b}...");
            Workload::generate(b, 2, 0xBEEF)
        })
        .collect();

    let all: Vec<Vec<BenchResult>> = devices
        .iter()
        .map(|device| {
            workloads
                .iter()
                .map(|w| run_benchmark(w, device, sets))
                .collect()
        })
        .collect();

    for (device, results) in devices.iter().zip(&all) {
        for r in results {
            let best = r
                .schemes
                .iter()
                .max_by(|a, b| a.bpa.bpa_score().total_cmp(&b.bpa.bpa_score()))
                .expect("schemes");
            eprintln!(
                "[devices] {} / {}: MTS {} | winner {} ({:.2}x BPA at {:.1}% acc)",
                device.name,
                r.benchmark,
                r.mts,
                level_name(best.level),
                best.bpa.speedup,
                best.bpa.accuracy * 100.0
            );
        }
    }

    let device_entries = devices
        .iter()
        .zip(&all)
        .map(|(d, results)| device_json(d, results))
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        "{{\n  \"benchmark\": \"devices\",\n  \"mode\": \"{}\",\n  \
         \"note\": \"AO operating points per scheme on every device preset; \
         simulated time, bit-identical reruns; workloads shared across presets\",\n  \
         \"threshold_sets\": {sets},\n  \"devices\": [\n{device_entries}\n  ],\n  \
         \"crossover\": [\n{}\n  ]\n}}\n",
        if fast { "fast" } else { "full" },
        crossover_json(&devices, &all)
    );
    let path = output_path("BENCH_devices.json", fast);
    std::fs::write(&path, &json).expect("write BENCH_devices.json");
    eprintln!("wrote {}", path.display());

    if check {
        reread_with_fields(&path, &REQUIRED_FIELDS);
        eprintln!("[devices] --check passed: every device, scheme and crossover field present");
    }
}
