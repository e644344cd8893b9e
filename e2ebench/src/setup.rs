//! The four workloads: what each sets up, the inputs a seed draws, and the
//! reference outputs the correctness gate compares against.

use bench_harness::session::serve_fallback_plan;
use gpu_sim::{DeviceModel, GpuDevice};
use lstm::plan::{ExecutionPlan, LayerBody, NullSink, PlanBody, PlanRuntime};
use lstm::ModelConfig;
use memlstm::drs::{DrsConfig, DrsMode};
use memlstm::exec::{OptimizedExecutor, OptimizerConfig};
use memlstm::mts::determine_mts;
use memlstm::prediction::NetworkPredictors;
use rand::Rng;
use std::time::Instant;
use tensor::init::seeded_rng;
use tensor::{Precision, Vector};
use workloads::dataset::sample_sequence;
use workloads::{Benchmark, Workload};

/// Models and their eval sets come from this seed; `--seed` never changes
/// them.
pub const MODEL_SEED: u64 = 0xBEEF;
/// Eval-set size of the generated model; half as many offline sequences
/// calibrate the `solo_drs` plan.
const EVAL_N: usize = 64;
/// Request-pool size of the open-loop workloads: every request's input is
/// one of these sequences.
pub const POOL: usize = 64;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    SoloDrs,
    ServeMr,
    Backlog,
    FleetInt8,
}

impl Kind {
    pub const ALL: [Kind; 4] = [Kind::SoloDrs, Kind::ServeMr, Kind::Backlog, Kind::FleetInt8];

    pub fn name(self) -> &'static str {
        match self {
            Kind::SoloDrs => "solo_drs",
            Kind::ServeMr => "serve_mr",
            Kind::Backlog => "backlog",
            Kind::FleetInt8 => "fleet_int8",
        }
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Why the workload is in the benchmark (mirrored in `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Kind::SoloDrs => {
                "paper setting: one client, BABI combined tissues + DRS; host time is masked numerics and per-kernel pricing, never serve or fleet"
            }
            Kind::ServeMr => {
                "typical serving mix: MR batches of up to 8 with deadlines, faults, retries and a DRS fallback; host time is batched fp32 numerics"
            }
            Kind::Backlog => {
                "tiny model just past batch-8 capacity: numerics are cheap and the queue grows to thousands, so the serve layer's per-round work dominates"
            }
            Kind::FleetInt8 => {
                "int8 MR on three devices with affinity routing; one device faults, is quarantined and its backlog re-routed"
            }
        }
    }

    /// Simulated devices, one per plan the workload serves from (the
    /// serve workloads' fallback shares the primary's device).
    pub fn devices(self) -> Vec<DeviceModel> {
        match self {
            Kind::FleetInt8 => vec![
                DeviceModel::tegra_x1(),
                DeviceModel::tegra_x1(),
                DeviceModel::adreno_5xx(),
            ],
            _ => vec![DeviceModel::tegra_x1()],
        }
    }
}

/// Everything a workload builds before its first request: the model with
/// its eval pool, and the compiled plans.
pub struct Setup {
    pub workload: Workload,
    /// `solo_drs`: the combined plan. `serve_mr`: primary baseline, then
    /// the DRS fallback. `backlog`: the baseline. `fleet_int8`: one int8
    /// plan per device.
    pub plans: Vec<ExecutionPlan>,
    pub generate_s: f64,
    pub compile_s: f64,
}

impl Setup {
    pub fn new(kind: Kind) -> Setup {
        let t = Instant::now();
        let workload = match kind {
            Kind::SoloDrs => Workload::generate(Benchmark::Babi, EVAL_N, MODEL_SEED),
            Kind::ServeMr | Kind::FleetInt8 => {
                Workload::generate(Benchmark::Mr, EVAL_N, MODEL_SEED)
            }
            Kind::Backlog => {
                // H=8, one layer, 8 steps: numerics cheap enough that the
                // serve layer's per-round work dominates the host clock.
                let config = ModelConfig::new("MR-tiny", 8, 8, 1, 8, 2)
                    .expect("the tiny backlog model is a valid config");
                Workload::generate_scaled(Benchmark::Mr, &config, EVAL_N, MODEL_SEED)
            }
        };
        let generate_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let plans = compile(kind, &workload);
        let compile_s = t.elapsed().as_secs_f64();
        Setup {
            workload,
            plans,
            generate_s,
            compile_s,
        }
    }

    /// Whether two setups built the same model, data and plans.
    pub fn same_as(&self, other: &Setup) -> bool {
        self.workload.network() == other.workload.network()
            && self.workload.dataset() == other.workload.dataset()
            && self.plans == other.plans
    }
}

fn compile(kind: Kind, workload: &Workload) -> Vec<ExecutionPlan> {
    let net = workload.network();
    let seq_len = net.config().seq_len;
    let devices = kind.devices();
    let device = &devices[0];
    match kind {
        Kind::SoloDrs => {
            let mts = determine_mts(device, net.config().hidden_size, 10).mts;
            let offline = workload.dataset().offline();
            let predictors = NetworkPredictors::collect(net, offline);
            let config = OptimizerConfig::builder()
                .alpha_inter(1.0)
                .max_tissue_size(mts)
                .drs(DrsConfig {
                    alpha_intra: 0.05,
                    mode: DrsMode::Hardware,
                })
                .build();
            vec![OptimizedExecutor::new(net, &predictors, config)
                .on_device(device.clone())
                .plan_probes(offline)]
        }
        Kind::ServeMr => vec![
            ExecutionPlan::compile_baseline(net, seq_len, device),
            serve_fallback_plan(workload, 0.05, device),
        ],
        Kind::Backlog => vec![ExecutionPlan::compile_baseline(net, seq_len, device)],
        Kind::FleetInt8 => devices
            .iter()
            .map(|d| {
                ExecutionPlan::compile_baseline(net, seq_len, d).with_precision(Precision::Int8)
            })
            .collect(),
    }
}

/// Whether the plan's kernel stream depends only on the gang size, not on
/// the inputs: true for baseline bodies, false once DRS masks or tissues
/// shape the kernels. Such rounds may be priced once per gang size.
pub fn input_independent(plan: &ExecutionPlan) -> bool {
    match &plan.body {
        PlanBody::Lstm(layers) => layers
            .iter()
            .all(|l| matches!(l.body, LayerBody::Baseline { .. })),
        PlanBody::Gru(_) => false,
    }
}

/// The simulated time of one B=1 round of `plan` on a cold device: the
/// serial service time arrival rates and deadlines are calibrated to.
pub fn serial_round_s(setup: &Setup, plan: usize) -> f64 {
    let plan = &setup.plans[plan];
    let mut device = GpuDevice::for_model(&plan.device);
    let mut session = device.begin_trace();
    let xs = &setup.workload.eval_set()[0];
    PlanRuntime::new().run_lstm(plan, setup.workload.network(), xs, &mut session);
    session.finish().time_s
}

/// Per-(plan, pool input) reference logits and the exact model's argmax
/// per pool input, computed on first use.
pub struct References {
    logits: Vec<Vec<Option<Vector>>>,
    teacher: Vec<Option<usize>>,
    runtime: PlanRuntime,
}

impl References {
    pub fn new(setup: &Setup, inputs: &Inputs) -> Self {
        Self {
            logits: vec![vec![None; inputs.pool.len()]; setup.plans.len()],
            teacher: vec![None; inputs.pool.len()],
            runtime: PlanRuntime::new(),
        }
    }

    /// Reference logits of `plan` on pool input `pool`: the exact
    /// `LstmNetwork::forward` for fp32 baseline plans, a solo
    /// `PlanRuntime` run into a `NullSink` for DRS and quantized plans.
    pub fn logits(&mut self, setup: &Setup, inputs: &Inputs, plan: usize, pool: usize) -> &Vector {
        if self.logits[plan][pool].is_none() {
            let p = &setup.plans[plan];
            let net = setup.workload.network();
            let xs = &inputs.pool[pool];
            let logits = if input_independent(p) && p.precision == Precision::Fp32 {
                net.forward(xs).logits
            } else {
                self.runtime.run_lstm(p, net, xs, &mut NullSink).logits
            };
            self.logits[plan][pool] = Some(logits);
        }
        self.logits[plan][pool].as_ref().expect("filled above")
    }

    /// The exact fp32 model's predicted class on pool input `pool`.
    pub fn teacher(&mut self, setup: &Setup, inputs: &Inputs, pool: usize) -> usize {
        *self.teacher[pool].get_or_insert_with(|| {
            setup
                .workload
                .network()
                .forward(&inputs.pool[pool])
                .predicted_class()
        })
    }

    /// Replaces a cached reference (tests corrupt one to prove the gate
    /// notices).
    #[cfg(test)]
    pub fn set_logits(&mut self, plan: usize, pool: usize, logits: Vector) {
        self.logits[plan][pool] = Some(logits);
    }
}

/// One open-loop request of a trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    pub id: u64,
    pub pool: usize,
    pub arrival_s: f64,
    pub deadline_s: Option<f64>,
}

/// Relative deadline by id class, as in the `serve` bench: every fourth
/// request is deadline-free, the rest are 1.5, 4 and 12 serial rounds.
pub fn deadline_for(id: u64, arrival_s: f64, round_s: f64) -> Option<f64> {
    match id % 4 {
        0 => None,
        1 => Some(arrival_s + round_s * 1.5),
        2 => Some(arrival_s + round_s * 4.0),
        _ => Some(arrival_s + round_s * 12.0),
    }
}

/// What the client sends: a pool of input sequences and, for the open-loop
/// workloads, the arrival trace drawing from it. Everything here comes
/// from `--seed`; the model and plans never do.
pub struct Inputs {
    pub pool: Vec<Vec<Vector>>,
    pub trace: Vec<Arrival>,
}

impl Inputs {
    /// `pool` fresh sequences shaped for the workload's model.
    pub fn closed_loop(setup: &Setup, seed: u64, pool: usize) -> Self {
        let config = setup.workload.network().config();
        let mut rng = seeded_rng(seed ^ 0x1D7A_5EED);
        Self {
            pool: (0..pool)
                .map(|_| sample_sequence(config.seq_len, config.input_dim, &mut rng))
                .collect(),
            trace: Vec::new(),
        }
    }

    /// A pool of [`POOL`] sequences plus `n` exponential arrivals at `rate`
    /// times the serial service rate, each drawing its input from the pool.
    pub fn open_loop(setup: &Setup, seed: u64, n: usize, rate: f64, round_s: f64) -> Self {
        let mut inputs = Self::closed_loop(setup, seed, POOL);
        let mut rng = seeded_rng(seed ^ 0xA771_7A15);
        let mean_gap_s = round_s / rate;
        let mut clock = 0.0;
        inputs.trace = (0..n as u64)
            .map(|id| {
                clock += -f64::ln(1.0 - rng.gen::<f64>()) * mean_gap_s;
                Arrival {
                    id,
                    pool: rng.gen_range(0..POOL),
                    arrival_s: clock,
                    deadline_s: deadline_for(id, clock, round_s),
                }
            })
            .collect();
        inputs
    }
}
