//! Replays a synthetic open-loop arrival trace against the batched serve
//! engine and reports throughput, latency percentiles, and QoS outcomes
//! per batch cap.
//!
//! For each benchmark a seeded exponential arrival process is generated
//! (open loop: arrivals don't wait for service), then the identical trace
//! is served with `max_batch` in {1, 2, 4, 8}. `max_batch = 1` is the
//! serial baseline — one weight reload per request per timestep — so the
//! batch-8 throughput ratio over it is exactly the amortization the paper's
//! DRAM-bound analysis predicts for overlapping requests.
//!
//! The replay exercises the full QoS machinery: requests carry per-class
//! deadlines (calibrated to the serial round time), expired requests are
//! shed, a seeded `FaultPlan` raises transient faults that retry with
//! backoff, and an intra-DRS fallback plan absorbs overload through the
//! degradation watermarks. Everything is simulated time; reruns are
//! bit-identical.
//!
//! Results go to `BENCH_serve.json` at the repo root. `--fast` restricts
//! to the two cheapest benchmarks with a smaller trace for CI smoke runs
//! and writes to `target/bench/` instead, leaving the committed file
//! alone; `--check` re-reads the written file and fails unless the QoS
//! fields (`slo`, shed/retry/degrade counts) are present. The simulated
//! device comes from `MEMLSTM_DEVICE` (unset: Tegra X1).

use bench_harness::cli::{output_path, reread_with_fields, Cli};
use bench_harness::session::serve_fallback_plan;
use bench_harness::stats::percentile;
use gpu_sim::DeviceModel;
use lstm::plan::ExecutionPlan;
use memlstm::serve::{FaultPlan, Request, ServeConfig, ServeEngine, ServeMetrics, SheddingPolicy};
use rand::Rng;
use tensor::init::seeded_rng;
use workloads::{Benchmark, Workload};

/// Batch caps the trace is replayed at; 1 is the serial baseline.
const BATCH_CAPS: [usize; 4] = [1, 2, 4, 8];

/// One replay's aggregate numbers.
struct RunStats {
    max_batch: usize,
    sim_time_s: f64,
    throughput_rps: f64,
    p50_s: f64,
    p95_s: f64,
    p99_s: f64,
    mean_batch: f64,
    metrics: ServeMetrics,
}

/// Per-request relative deadline for the replay, by id class: every
/// fourth request is deadline-free, the rest are calibrated to the serial
/// round time (tight ≈ 1.5 rounds through loose ≈ 12), so some classes
/// genuinely miss or shed under narrow batch caps.
fn deadline_for(id: u64, arrival_s: f64, round_s: f64) -> Option<f64> {
    match id % 4 {
        0 => None,
        1 => Some(arrival_s + round_s * 1.5),
        2 => Some(arrival_s + round_s * 4.0),
        _ => Some(arrival_s + round_s * 12.0),
    }
}

/// Serves `arrivals` (id, arrival_s) over the benchmark's eval sequences
/// with one batch cap and summarizes the outcomes. `round_s` calibrates
/// deadlines and retry backoff; `fallback` absorbs overload.
fn replay(
    plan: &ExecutionPlan,
    workload: &Workload,
    arrivals: &[(u64, f64)],
    max_batch: usize,
    round_s: f64,
    fallback: Option<&ExecutionPlan>,
) -> RunStats {
    // The calibration probe passes a non-finite `round_s` (the serial
    // round time isn't known yet); it runs fault-free with no backoff so
    // the measured round time is the clean one.
    let (backoff_s, faults) = if round_s.is_finite() {
        (
            round_s * 0.05,
            FaultPlan::seeded(
                0xFA017 ^ max_batch as u64,
                0.05,
                4 * arrivals.len() as u64 + 16,
            ),
        )
    } else {
        (0.0, FaultPlan::none())
    };
    let mut builder = ServeConfig::builder(plan.device.clone())
        .with_max_batch(max_batch)
        .with_queue_capacity(arrivals.len().max(1))
        .with_shedding(SheddingPolicy::expired())
        .with_retry_backoff(backoff_s)
        .with_max_retries(2)
        .with_faults(faults);
    if fallback.is_some() {
        builder = builder.with_degrade_watermarks(8, 2);
    }
    let config = builder.build().expect("replay config is valid");
    let mut engine =
        ServeEngine::new(plan, workload.network(), config).expect("plan matches network");
    if let Some(fb) = fallback {
        engine = engine.with_fallback(fb).expect("fallback matches primary");
    }
    let seqs = workload.eval_set();
    for &(id, arrival_s) in arrivals {
        engine
            .submit(Request {
                id,
                xs: seqs[id as usize % seqs.len()].clone(),
                arrival_s,
                deadline_s: deadline_for(id, arrival_s, round_s),
            })
            .expect("queue sized for the whole trace");
    }
    let outcomes = engine.drain();
    let mut latencies: Vec<f64> = outcomes
        .iter()
        .filter_map(|o| o.completion().map(|c| c.latency_s))
        .collect();
    latencies.sort_by(f64::total_cmp);
    let metrics = engine.metrics();
    let served = latencies.len();
    // Empty traces (or all-shed replays) execute zero rounds and leave
    // the clock at zero; guard the ratios instead of emitting NaN.
    let mean_batch = if metrics.rounds == 0 {
        0.0
    } else {
        served as f64 / metrics.rounds as f64
    };
    let throughput_rps = if engine.clock_s() > 0.0 {
        served as f64 / engine.clock_s()
    } else {
        0.0
    };
    RunStats {
        max_batch,
        sim_time_s: engine.clock_s(),
        throughput_rps,
        p50_s: percentile(&latencies, 50.0),
        p95_s: percentile(&latencies, 95.0),
        p99_s: percentile(&latencies, 99.0),
        mean_batch,
        metrics,
    }
}

/// One benchmark's full sweep: trace generation plus a replay per cap.
fn serve_benchmark(benchmark: Benchmark, num_requests: usize, device: &DeviceModel) -> String {
    eprintln!("[serve] {benchmark}: generating workload...");
    let workload = Workload::generate(benchmark, 8, 0xBEEF);
    let seq_len = workload.eval_set()[0].len();
    let plan = ExecutionPlan::compile_baseline(workload.network(), seq_len, device);
    let fallback = serve_fallback_plan(&workload, 0.05, device);

    // Calibrate the offered load to one serial round: mean interarrival of
    // round/8 keeps even the widest gang busy, so every cap is measured
    // under the same (saturating) open-loop trace.
    let probe = replay(&plan, &workload, &[(0, 0.0)], 1, f64::INFINITY, None);
    let round_s = probe.sim_time_s;
    let mean_gap_s = round_s / 8.0;
    let mut rng = seeded_rng(0xD1CE ^ benchmark as u64);
    let mut clock = 0.0;
    let arrivals: Vec<(u64, f64)> = (0..num_requests as u64)
        .map(|id| {
            clock += -f64::ln(1.0 - rng.gen::<f64>()) * mean_gap_s;
            (id, clock)
        })
        .collect();

    let runs: Vec<RunStats> = BATCH_CAPS
        .iter()
        .map(|&cap| {
            eprintln!("[serve] {benchmark}: replaying trace at max_batch={cap}...");
            replay(&plan, &workload, &arrivals, cap, round_s, Some(&fallback))
        })
        .collect();
    let serial = runs[0].throughput_rps;
    let speedup_b8 = if serial > 0.0 {
        runs.last().expect("caps non-empty").throughput_rps / serial
    } else {
        0.0
    };
    eprintln!("[serve] {benchmark}: batch-8 throughput {speedup_b8:.2}x serial");

    let run_lines = runs
        .iter()
        .map(|r| {
            let m = &r.metrics;
            let classes = m
                .slo
                .iter()
                .map(|c| {
                    format!(
                        "{{\"class\": \"{}\", \"total\": {}, \"met\": {}}}",
                        c.class, c.total, c.met
                    )
                })
                .collect::<Vec<_>>()
                .join(", ");
            format!(
                "        {{\"max_batch\": {}, \"rounds\": {}, \"mean_batch\": {:.3}, \
                 \"sim_time_s\": {:.6}, \"throughput_rps\": {:.3}, \
                 \"p50_s\": {:.6}, \"p95_s\": {:.6}, \"p99_s\": {:.6}, \
                 \"throughput_vs_serial\": {:.3}, \
                 \"completed\": {}, \"deadline_miss\": {}, \"shed\": {}, \"failed\": {}, \
                 \"faults\": {}, \"retries\": {}, \
                 \"degrade_switches\": {}, \"degraded_rounds\": {}, \
                 \"mean_utilization\": {:.3}, \
                 \"slo\": {{\"attainment\": {:.3}, \"classes\": [{}]}}}}",
                r.max_batch,
                m.rounds,
                r.mean_batch,
                r.sim_time_s,
                r.throughput_rps,
                r.p50_s,
                r.p95_s,
                r.p99_s,
                if serial > 0.0 {
                    r.throughput_rps / serial
                } else {
                    0.0
                },
                m.completed,
                m.deadline_miss,
                m.shed,
                m.failed,
                m.faults,
                m.retries,
                m.degrade_switches,
                m.degraded_rounds,
                m.mean_utilization,
                m.slo_attainment(),
                classes,
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    format!(
        "    {{\n      \"name\": \"{benchmark}\", \"seq_len\": {seq_len}, \
         \"requests\": {num_requests}, \"mean_interarrival_s\": {mean_gap_s:.6}, \
         \"speedup_b8_vs_serial\": {speedup_b8:.3},\n      \"runs\": [\n{run_lines}\n      ]\n    }}"
    )
}

/// Fields `--check` requires in the written JSON; CI uses this to prove
/// the QoS rollup actually landed in `BENCH_serve.json`.
const REQUIRED_FIELDS: [&str; 8] = [
    "\"slo\"",
    "\"attainment\"",
    "\"shed\"",
    "\"failed\"",
    "\"retries\"",
    "\"faults\"",
    "\"degrade_switches\"",
    "\"deadline_miss\"",
];

const CLI: Cli = Cli::switches("usage: serve [--fast] [--check]", &["--fast", "--check"]);

fn main() {
    let args = CLI.parse_env();
    let fast = args.flag("--fast");
    let check = args.flag("--check");
    let device = DeviceModel::from_env();
    eprintln!("[serve] device: {}", device.name);
    let (benchmarks, num_requests) = if fast {
        (vec![Benchmark::Mr, Benchmark::Babi], 16)
    } else {
        (Benchmark::ALL.to_vec(), 32)
    };
    let entries = benchmarks
        .iter()
        .map(|&b| serve_benchmark(b, num_requests, &device))
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        "{{\n  \"benchmark\": \"serve\",\n  \"mode\": \"{}\",\n  \
         \"batch_caps\": [1, 2, 4, 8],\n  \
         \"note\": \"open-loop exponential arrivals, simulated time; max_batch=1 is the serial baseline; \
         deadlines per id class, seeded fault injection with retry, intra-DRS degradation fallback\",\n  \
         \"benchmarks\": [\n{entries}\n  ]\n}}\n",
        if fast { "fast" } else { "full" }
    );
    let path = output_path("BENCH_serve.json", fast);
    std::fs::write(&path, json).expect("write BENCH_serve.json");
    eprintln!("wrote {}", path.display());
    if check {
        reread_with_fields(&path, &REQUIRED_FIELDS);
        eprintln!("[serve] --check passed: all QoS fields present");
    }
}
