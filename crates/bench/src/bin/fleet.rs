//! Replays a seeded open-loop arrival trace against the multi-device
//! fleet tier and compares routing policies per heterogeneous device mix.
//!
//! For each mix (e.g. 2x Tegra X1 + Adreno 5xx) the identical trace is
//! routed through each policy — `round_robin`, `least_queue_depth`, and
//! `affinity` (weight-residency-aware estimated completion) — over
//! per-device baseline plans of the same network. Baseline plan numerics
//! are device-independent, so a request's logits never depend on the
//! routing decision; only the simulated clocks move. Each mix also runs
//! a fault-storm scenario: one device fails every round, is quarantined,
//! and its backlog re-routes to the survivors (typed outcomes, nothing
//! silently lost — the replay asserts fleet-wide id conservation).
//!
//! Results go to `BENCH_fleet.json` at the repo root, and the affinity
//! run of the first mix exports per-device Chrome-trace counter tracks
//! to `FLEET_trace.json`. `--fast` shrinks the trace for CI smoke runs
//! and writes both files to `target/bench/` instead, leaving the
//! committed ones alone; `--check` re-reads the JSON and fails unless the
//! QoS fields are present and affinity beat round-robin (p99 or SLO
//! attainment) on at least one mix.

use bench_harness::cli::{output_path, reread_with_fields, Cli};
use bench_harness::stats::percentile;
use gpu_sim::profile::ChromeTrace;
use gpu_sim::DeviceModel;
use lstm::plan::ExecutionPlan;
use memlstm::fleet::{
    Affinity, FleetEngine, FleetMetrics, LeastQueueDepth, RoundRobin, RoutePolicy,
};
use memlstm::serve::{FaultPlan, Request, ServeConfig, SheddingPolicy};
use rand::Rng;
use tensor::init::seeded_rng;
use workloads::{Benchmark, Workload};

/// The three routing policies under comparison, by stable name.
const POLICIES: [&str; 3] = ["round_robin", "least_queue_depth", "affinity"];

fn policy(name: &str) -> Box<dyn RoutePolicy> {
    match name {
        "round_robin" => Box::new(RoundRobin::default()),
        "least_queue_depth" => Box::new(LeastQueueDepth),
        "affinity" => Box::new(Affinity),
        other => panic!("unknown policy {other}"),
    }
}

/// The heterogeneous device mixes the trace is replayed on.
fn mixes() -> Vec<(&'static str, Vec<DeviceModel>)> {
    vec![
        (
            "2x_tegra_x1+adreno_5xx",
            vec![
                DeviceModel::tegra_x1(),
                DeviceModel::tegra_x1(),
                DeviceModel::adreno_5xx(),
            ],
        ),
        (
            "tegra_x2+tegra_x1+adreno_5xx",
            vec![
                DeviceModel::tegra_x2(),
                DeviceModel::tegra_x1(),
                DeviceModel::adreno_5xx(),
            ],
        ),
    ]
}

/// Per-request relative deadline by id class, calibrated to the solo
/// round time (mirrors the single-device serve bench): every fourth
/// request is deadline-free, the rest range tight to loose.
fn deadline_for(id: u64, arrival_s: f64, round_s: f64) -> Option<f64> {
    match id % 4 {
        0 => None,
        1 => Some(arrival_s + round_s * 1.5),
        2 => Some(arrival_s + round_s * 4.0),
        _ => Some(arrival_s + round_s * 12.0),
    }
}

/// One policy replay's aggregate numbers.
struct RunStats {
    policy: &'static str,
    throughput_rps: f64,
    p50_s: f64,
    p99_s: f64,
    metrics: FleetMetrics,
}

/// Routes and serves the trace on `plans` (one per device) under one
/// policy. `storm` marks one device as failing every round (quarantine +
/// re-route path). Returns the stats plus, when `trace` is set, the
/// per-device Chrome-trace counter tracks.
fn replay(
    workload: &Workload,
    plans: &[ExecutionPlan],
    policy_name: &'static str,
    arrivals: &[(u64, f64)],
    round_s: f64,
    storm: Option<usize>,
    trace: bool,
) -> (RunStats, Option<String>) {
    let members = plans
        .iter()
        .enumerate()
        .map(|(i, plan)| {
            let mut builder = ServeConfig::builder(plan.device.clone())
                .with_max_batch(4)
                .with_queue_capacity(arrivals.len().max(1))
                .with_shedding(SheddingPolicy::expired());
            if storm == Some(i) {
                builder = builder
                    .with_faults(FaultPlan::seeded(0xF1EE7 ^ i as u64, 1.0, 1 << 20))
                    .with_max_retries(0);
            }
            (plan, builder.build().expect("replay config is valid"))
        })
        .collect();
    let mut fleet = FleetEngine::new(workload.network(), members, policy(policy_name))
        .expect("plans match the network")
        .with_quarantine_after(2);
    let seqs = workload.eval_set();
    for &(id, arrival_s) in arrivals {
        fleet
            .submit(Request {
                id,
                xs: seqs[id as usize % seqs.len()].clone(),
                arrival_s,
                deadline_s: deadline_for(id, arrival_s, round_s),
            })
            .expect("queues sized for the whole trace");
    }
    let outcomes = fleet.drain();
    // Fleet-wide conservation: every submitted id resolves exactly once.
    let mut ids: Vec<u64> = outcomes.iter().map(|o| o.outcome.id()).collect();
    ids.sort_unstable();
    let submitted: Vec<u64> = arrivals.iter().map(|&(id, _)| id).collect();
    assert_eq!(
        ids, submitted,
        "{policy_name}: outcome conservation violated"
    );

    let mut latencies: Vec<f64> = outcomes
        .iter()
        .filter_map(|o| o.outcome.completion().map(|c| c.latency_s))
        .collect();
    latencies.sort_by(f64::total_cmp);
    let metrics = fleet.metrics();
    let served = latencies.len();
    let throughput_rps = if fleet.clock_s() > 0.0 {
        served as f64 / fleet.clock_s()
    } else {
        0.0
    };
    let trace_json = trace.then(|| {
        let mut t = ChromeTrace::new();
        fleet.add_counter_tracks(&mut t);
        t.to_json()
    });
    (
        RunStats {
            policy: policy_name,
            throughput_rps,
            p50_s: percentile(&latencies, 50.0),
            p99_s: percentile(&latencies, 99.0),
            metrics,
        },
        trace_json,
    )
}

fn run_json(r: &RunStats, storm: bool) -> String {
    let m = &r.metrics;
    let per_device = m
        .per_device
        .iter()
        .map(|d| {
            format!(
                "{{\"index\": {}, \"name\": \"{}\", \"routed\": {}, \"rounds\": {}, \
                 \"quarantined\": {}}}",
                d.index, d.name, d.routed, d.serve.rounds, d.quarantined
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "        {{\"policy\": \"{}\", \"fault_storm\": {storm}, \
         \"throughput_rps\": {:.3}, \"p50_s\": {:.6}, \"p99_s\": {:.6}, \
         \"makespan_s\": {:.6}, \"slo_attainment\": {:.3}, \
         \"completed\": {}, \"deadline_miss\": {}, \"shed\": {}, \"failed\": {}, \
         \"rerouted\": {}, \"overflow_shed\": {}, \"quarantined_devices\": {}, \
         \"utilization_imbalance\": {:.3}, \"per_device\": [{}]}}",
        r.policy,
        r.throughput_rps,
        r.p50_s,
        r.p99_s,
        m.makespan_s,
        m.slo_attainment,
        m.completed,
        m.deadline_miss,
        m.shed,
        m.failed,
        m.rerouted,
        m.overflow_shed,
        m.quarantined_devices,
        m.utilization_imbalance,
        per_device,
    )
}

/// One mix's full sweep: per-policy replays plus a fault-storm replay.
/// Returns the JSON entry, whether affinity beat round-robin, and (first
/// mix only) the affinity run's Chrome trace.
fn serve_mix(
    workload: &Workload,
    mix_name: &str,
    devices: &[DeviceModel],
    num_requests: usize,
    want_trace: bool,
) -> (String, bool, Option<String>) {
    eprintln!("[fleet] {mix_name}: compiling per-device plans...");
    let seq_len = workload.eval_set()[0].len();
    let plans: Vec<ExecutionPlan> = devices
        .iter()
        .map(|d| ExecutionPlan::compile_baseline(workload.network(), seq_len, d))
        .collect();

    // Calibrate the offered load to the lead device's solo round time:
    // mean interarrival of round / (2 * devices) keeps the whole fleet
    // busy, so policies are compared under the same saturating trace.
    let (probe, _) = replay(
        workload,
        &plans[..1],
        "round_robin",
        &[(0, 0.0)],
        f64::INFINITY,
        None,
        false,
    );
    let round_s = probe.metrics.makespan_s;
    let mean_gap_s = round_s / (2.0 * devices.len() as f64);
    let mut rng = seeded_rng(0xF1EE7);
    let mut clock = 0.0;
    let arrivals: Vec<(u64, f64)> = (0..num_requests as u64)
        .map(|id| {
            clock += -f64::ln(1.0 - rng.gen::<f64>()) * mean_gap_s;
            (id, clock)
        })
        .collect();

    let mut runs = Vec::new();
    let mut trace_json = None;
    for name in POLICIES {
        eprintln!("[fleet] {mix_name}: replaying under {name}...");
        let capture = want_trace && name == "affinity";
        let (stats, trace) = replay(workload, &plans, name, &arrivals, round_s, None, capture);
        if capture {
            trace_json = trace;
        }
        runs.push(stats);
    }
    let rr = &runs[0];
    let affinity = &runs[2];
    let affinity_beats_rr =
        affinity.p99_s < rr.p99_s || affinity.metrics.slo_attainment > rr.metrics.slo_attainment;
    eprintln!(
        "[fleet] {mix_name}: affinity p99 {:.4}s vs round-robin {:.4}s (slo {:.3} vs {:.3})",
        affinity.p99_s, rr.p99_s, affinity.metrics.slo_attainment, rr.metrics.slo_attainment
    );

    eprintln!("[fleet] {mix_name}: replaying fault storm on device 0...");
    let (storm, _) = replay(
        workload,
        &plans,
        "affinity",
        &arrivals,
        round_s,
        Some(0),
        false,
    );
    assert!(
        storm.metrics.quarantined_devices >= 1,
        "the storming device must quarantine"
    );

    let mut run_lines: Vec<String> = runs.iter().map(|r| run_json(r, false)).collect();
    run_lines.push(run_json(&storm, true));
    let devices_json = devices
        .iter()
        .map(|d| format!("\"{}\"", d.name))
        .collect::<Vec<_>>()
        .join(", ");
    let entry = format!(
        "    {{\n      \"mix\": \"{mix_name}\", \"devices\": [{devices_json}], \
         \"requests\": {num_requests}, \"seq_len\": {seq_len}, \
         \"mean_interarrival_s\": {mean_gap_s:.6}, \
         \"affinity_beats_round_robin\": {affinity_beats_rr},\n      \"runs\": [\n{}\n      ]\n    }}",
        run_lines.join(",\n")
    );
    (entry, affinity_beats_rr, trace_json)
}

/// Fields `--check` requires in the written JSON; CI uses this to prove
/// the fleet QoS rollup actually landed in `BENCH_fleet.json`.
const REQUIRED_FIELDS: [&str; 8] = [
    "\"slo_attainment\"",
    "\"p99_s\"",
    "\"shed\"",
    "\"failed\"",
    "\"rerouted\"",
    "\"overflow_shed\"",
    "\"utilization_imbalance\"",
    "\"affinity_beats_round_robin\"",
];

const CLI: Cli = Cli::switches("usage: fleet [--fast] [--check]", &["--fast", "--check"]);

fn main() {
    let args = CLI.parse_env();
    let fast = args.flag("--fast");
    let check = args.flag("--check");
    let (benchmark, num_requests) = if fast {
        (Benchmark::Mr, 18)
    } else {
        (Benchmark::Mr, 36)
    };
    eprintln!("[fleet] generating {benchmark} workload...");
    let workload = Workload::generate(benchmark, 8, 0xBEEF);

    let mut entries = Vec::new();
    let mut any_affinity_win = false;
    let mut trace_json = None;
    for (i, (mix_name, devices)) in mixes().into_iter().enumerate() {
        let (entry, win, trace) = serve_mix(&workload, mix_name, &devices, num_requests, i == 0);
        entries.push(entry);
        any_affinity_win |= win;
        if trace.is_some() {
            trace_json = trace;
        }
    }
    let json = format!(
        "{{\n  \"benchmark\": \"fleet\",\n  \"mode\": \"{}\",\n  \"workload\": \"{benchmark}\",\n  \
         \"policies\": [\"round_robin\", \"least_queue_depth\", \"affinity\"],\n  \
         \"note\": \"open-loop exponential arrivals routed across heterogeneous device fleets; \
         baseline plans share numerics so logits are routing-invariant; fault-storm runs \
         quarantine device 0 and re-route its backlog\",\n  \
         \"mixes\": [\n{}\n  ]\n}}\n",
        if fast { "fast" } else { "full" },
        entries.join(",\n")
    );
    let path = output_path("BENCH_fleet.json", fast);
    std::fs::write(&path, json).expect("write BENCH_fleet.json");
    eprintln!("wrote {}", path.display());
    let trace_path = output_path("FLEET_trace.json", fast);
    std::fs::write(&trace_path, trace_json.expect("first mix captures a trace"))
        .expect("write FLEET_trace.json");
    eprintln!("wrote {}", trace_path.display());
    if check {
        reread_with_fields(&path, &REQUIRED_FIELDS);
        assert!(
            any_affinity_win,
            "affinity beat round-robin on no mix (p99 or SLO attainment)"
        );
        eprintln!("[fleet] --check passed: QoS fields present, affinity beats round-robin");
    }
}
