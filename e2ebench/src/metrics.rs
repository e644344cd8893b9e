//! The metric table `BENCHMARK.json` mirrors, and the measured values.

use std::collections::BTreeMap;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric's identity.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end metrics only: the share of a baseline median by which
    /// the metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// Printed by a plain run (`--trace 0`).
pub const END_TO_END: [MetricDef; 10] = [
    e2e("host_rps", "req/s", Higher, 0.25),
    e2e("host_call_p50_ms", "ms", Lower, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("host_peak_rss_mb", "MiB", Lower, 0.10),
    e2e("sim_p50_ms", "ms", Lower, 0.10),
    e2e("sim_p99_ms", "ms", Lower, 0.20),
    e2e("sim_rps", "req/s", Higher, 0.10),
    e2e("sim_slo_attainment", "share", Higher, 0.15),
    e2e("sim_energy_mj_per_req", "mJ", Lower, 0.10),
    e2e("teacher_match", "share", Higher, 0.10),
];

/// Printed by a traced run (`--trace 1`).
pub const PER_LAYER: [MetricDef; 35] = [
    layer("workloads.generate_s", "s", Lower),
    layer("compile.plan_s", "s", Lower),
    layer("lstm.host_share", "share", Lower),
    layer("lstm.us_per_cell", "us", Lower),
    layer("lstm.host_gflops", "GFLOP/s", Higher),
    layer("lstm.skip_fraction", "share", Higher),
    layer("lstm.wasted_seq_share", "share", Lower),
    layer("gpusim.host_share", "share", Lower),
    layer("gpusim.ns_per_kernel", "ns", Lower),
    layer("gpusim.device_setup_us", "us", Lower),
    layer("gpusim.kernels_per_req", "count", Lower),
    layer("gpusim.l2_hit_share", "share", Higher),
    layer("gpusim.dram_mb_per_req", "MB", Lower),
    layer("serve.host_share", "share", Lower),
    layer("serve.self_us_per_round", "us", Lower),
    layer("serve.submit_us", "us", Lower),
    layer("serve.queue_depth_mean", "count", Lower),
    layer("serve.queue_depth_max", "count", Lower),
    layer("serve.mean_batch", "count", Higher),
    layer("serve.degraded_round_share", "share", Lower),
    layer("serve.useful_attempt_share", "share", Higher),
    layer("serve.service_p50_ms", "ms", Lower),
    layer("serve.queue_wait_p50_ms", "ms", Lower),
    layer("serve.queue_wait_p99_ms", "ms", Lower),
    layer("serve.shed_share", "share", Lower),
    layer("serve.deadline_miss_share", "share", Lower),
    layer("fleet.host_share", "share", Lower),
    layer("fleet.submit_us", "us", Lower),
    layer("fleet.rerouted", "count", Lower),
    layer("fleet.overflow_shed", "count", Lower),
    layer("fleet.utilization_imbalance", "share", Lower),
    layer("bench.resubmitted", "count", Lower),
    layer("bench.trace_overhead_share", "share", Lower),
    layer("bench.host_rps_spread", "share", Lower),
    layer("bench.generator_share", "share", Lower),
];

/// A measured value and the number of samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Value {
    pub value: f64,
    pub samples: u64,
}

/// Measured values by metric name.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<&'static str, Value>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64, samples: u64) {
        debug_assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|d| d.name == name),
            "unknown metric {name}"
        );
        self.0.insert(name, Value { value, samples });
    }

    pub fn get(&self, name: &str) -> Option<Value> {
        self.0.get(name).copied()
    }
}

/// Formats a number for JSON with every digit Rust's shortest round-trip
/// representation keeps; non-finite values (never expected) become null.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_owned()
    }
}
