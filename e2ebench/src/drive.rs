//! The measured passes, the untimed re-pricing post-pass, the correctness
//! gate, and the fold from both clocks into metric values.
//!
//! A run sets the workload up several times (every rebuild must equal the
//! first), then replays the seed's trace in passes until `--seconds` have
//! elapsed. Each pass builds a fresh engine and runtime. Only calls into
//! the library are timed; building requests and checking outputs are not.

use crate::metrics::Values;
use crate::setup::{input_independent, serial_round_s, Inputs, Kind, References, Setup};
use bench_harness::stats::percentile;
use gpu_sim::profile::{ArgValue, ChromeTrace, Profiler};
use gpu_sim::{validate_chrome_trace, GpuDevice, KernelDesc, SimReport, SpanTag, TraceSession};
use lstm::batch::BatchRuntime;
use lstm::plan::{KernelSink, PlanOutput, PlanRuntime};
use memlstm::fleet::{Affinity, FleetEngine};
use memlstm::serve::{
    FaultPlan, Request, RoundReport, ServeConfig, ServeEngine, ServeOutcome, SheddingPolicy,
};
use std::collections::HashMap;
use std::fmt::Display;
use std::time::{Duration, Instant};
use tensor::Vector;

/// Closed-loop inferences per `solo_drs` pass, each on a distinct input.
const SOLO_INFERENCES: usize = 128;
/// Setup runs at least this often per run; `setup_s` is the median.
const MIN_SETUPS: usize = 3;
/// Before each pass, setup is rebuilt for up to `SETUP_SLICE_S` while the
/// run's setups total less than `SETUP_BUDGET_S`. Spreading the rebuilds
/// over the run keeps a burst of load from other processes, which can slow
/// a shared machine by half for a second or two, from setting the median.
const SETUP_SLICE_S: f64 = 0.25;
const SETUP_BUDGET_S: f64 = 3.0;
/// A request whose round exhausts its retry budget is resubmitted by the
/// client (same arrival and deadline) at most this often.
const MAX_RESUBMITS: u64 = 3;
/// Rounds whose simulated kernel spans go into the Chrome trace.
const PROFILED_ROUNDS: usize = 3;
/// Host spans kept for the Chrome trace; with the simulated spans the file
/// stays near 100k events.
const HOST_SPAN_CAP: usize = 90_000;

/// An open-loop serve workload's shape.
pub struct ServeSpec {
    /// Requests per pass.
    pub requests: usize,
    /// Arrival rate as a multiple of the serial (B=1) service rate.
    pub rate: f64,
    pub max_batch: usize,
    /// Transient faults on every `FAULT_PERIOD`-th attempt, 2 retries, 5%
    /// backoff.
    pub faults: bool,
    /// Intra-DRS fallback plan with degradation watermarks 8/2.
    pub fallback: bool,
}

const FAULT_PERIOD: u64 = 20;
/// Post-fault backoff, as a share of the serial round time.
const BACKOFF_SHARE: f64 = 0.05;

pub const SERVE_MR: ServeSpec = ServeSpec {
    requests: 3000,
    rate: 2.0,
    max_batch: 8,
    faults: true,
    fallback: true,
};

/// Just past the batch-8 capacity (about 1.13x): deadline-bearing requests
/// (EDF first) mostly meet their deadlines while deadline-free ones pile
/// up behind them, so the queue holds thousands without the EDF collapse
/// that drives SLO attainment to zero at higher rates.
pub const BACKLOG: ServeSpec = ServeSpec {
    requests: 65_536,
    rate: 7.3,
    max_batch: 8,
    faults: false,
    fallback: false,
};

pub const FLEET: ServeSpec = ServeSpec {
    requests: 2500,
    rate: 4.0,
    max_batch: 4,
    faults: false,
    fallback: false,
};

fn spec(kind: Kind) -> &'static ServeSpec {
    match kind {
        Kind::ServeMr => &SERVE_MR,
        Kind::Backlog => &BACKLOG,
        _ => &FLEET,
    }
}

/// Device 0 of the fleet faults on this attempt and the next (no retries),
/// so two consecutive rounds fail and it is quarantined about a third of
/// the way into its rounds.
const FLEET_FAULT_ATTEMPT: u64 = 80;

/// Thread lanes of the host process (pid 1) in the Chrome trace.
const TID_CALLS: u32 = 1;
const TID_WORKLOADS: u32 = 2;
const TID_COMPILE: u32 = 3;
const TID_LSTM: u32 = 4;
const TID_GPUSIM: u32 = 5;
const TID_SERVE: u32 = 6;
const TID_FLEET: u32 = 7;

/// Named correctness failures. Any failure makes the run incorrect.
#[derive(Debug, Default)]
pub struct Gate {
    pub failures: Vec<String>,
    pub count: u64,
}

impl Gate {
    pub fn fail(&mut self, check: &str, detail: impl Display) {
        self.count += 1;
        if self.failures.len() < 32 {
            self.failures.push(format!("{check}: {detail}"));
        }
    }

    pub fn is_clean(&self) -> bool {
        self.count == 0
    }
}

fn bit_equal(a: &Vector, b: &Vector) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b.iter())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Checks one served request's logits against the reference of the plan
/// that served it. Returns whether they matched, and whether the argmax
/// equals the exact model's.
#[allow(clippy::too_many_arguments)]
fn check_served(
    setup: &Setup,
    inputs: &Inputs,
    refs: &mut References,
    gate: &mut Gate,
    plan: usize,
    pool: usize,
    id: u64,
    logits: &Vector,
) -> (bool, bool) {
    let matched = bit_equal(refs.logits(setup, inputs, plan, pool), logits);
    if !matched {
        gate.fail(
            "logits",
            format_args!("request {id} (plan {plan}, input {pool}) differs from its reference"),
        );
    }
    let teacher = logits.argmax() == Some(refs.teacher(setup, inputs, pool));
    (matched, teacher)
}

/// Forwards every call to the wrapped sink and times the pricing calls.
pub struct TimedSink<S> {
    pub inner: S,
    pub emit: Duration,
    pub kernels: u64,
}

impl<S> TimedSink<S> {
    fn new(inner: S) -> Self {
        Self {
            inner,
            emit: Duration::ZERO,
            kernels: 0,
        }
    }
}

impl<S: KernelSink> KernelSink for TimedSink<S> {
    fn begin_layer(&mut self, layer: usize) {
        self.inner.begin_layer(layer);
    }

    fn begin_tail(&mut self) {
        self.inner.begin_tail();
    }

    fn tag(&mut self, tag: SpanTag) {
        self.inner.tag(tag);
    }

    fn emit(&mut self, kernel: &KernelDesc) {
        let t = Instant::now();
        self.inner.emit(kernel);
        self.emit += t.elapsed();
        self.kernels += 1;
    }
}

/// Host time a traced pass attributes to the `lstm` and `gpusim` layers.
#[derive(Debug, Default, Clone, Copy)]
pub struct Attribution {
    /// Numerics: call time minus pricing.
    pub numerics: Duration,
    /// Pricing: `emit` time plus device setup.
    pub pricing: Duration,
    pub emit: Duration,
    /// `for_model`/`reset` + `begin_trace` + `finish`.
    pub device_setup: Duration,
    pub attempts: u64,
    pub kernels: u64,
    pub flops: u64,
    /// Sequence x layer x timestep cells executed.
    pub cells: u64,
}

impl Attribution {
    fn add_scaled(&mut self, other: &Attribution, times: u32) {
        self.numerics += other.numerics * times;
        self.pricing += other.pricing * times;
        self.emit += other.emit * times;
        self.device_setup += other.device_setup * times;
        self.attempts += other.attempts * u64::from(times);
        self.kernels += other.kernels * u64::from(times);
        self.flops += other.flops * u64::from(times);
        self.cells += other.cells * u64::from(times);
    }
}

/// Host measurements of one pass.
#[derive(Debug, Default)]
pub struct HostPass {
    pub traced: bool,
    /// Requests of the trace (resubmissions not counted).
    pub requests: u64,
    /// Summed host time of the timed calls: `submit` and `step`, or one
    /// inference.
    pub timed: Duration,
    /// Each top-level call that resolved requests: an inference, or a
    /// `step` that ran a round or shed.
    pub calls: Vec<Call>,
    pub submit: Duration,
    pub submits: u64,
    /// Submit time not yet charged to a call.
    pending_submit: Duration,
    /// Bench-side request building (input clones), untimed.
    pub generator: Duration,
    /// Traced passes: the re-executed numerics and pricing.
    pub attribution: Attribution,
}

impl HostPass {
    fn rps(&self) -> f64 {
        self.requests as f64 / self.timed.as_secs_f64()
    }

    /// Records a call that resolved `requests` requests, charging it the
    /// submits since the previous call.
    fn call(&mut self, dur: Duration, requests: usize) {
        let submits = std::mem::take(&mut self.pending_submit);
        self.calls.push(Call {
            dur,
            submits,
            requests,
        });
    }
}

/// One top-level call: its host time, the submits before it, and the
/// requests it resolved (served, shed or failed; one for an inference).
#[derive(Debug, Clone, Copy)]
pub struct Call {
    pub dur: Duration,
    pub submits: Duration,
    pub requests: usize,
}

/// Consecutive calls per throughput block: `host_rps` is the median
/// block rate, so a burst of interference from other processes spoils a
/// few blocks rather than the whole figure.
const BLOCK_CALLS: usize = 16;

/// Outcome facts of one pass, all on the simulated clock. Passes of one
/// run must agree exactly.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Facts {
    pub submitted: u64,
    /// Served requests (completed or late), from arrival; sorted.
    pub latencies_s: Vec<f64>,
    /// Served requests' round time, retries included; sorted.
    pub service_s: Vec<f64>,
    /// Served requests' wait from arrival to round start; sorted.
    pub wait_s: Vec<f64>,
    pub shed: u64,
    pub deadline_miss: u64,
    pub slo_met: u64,
    pub slo_total: u64,
    pub teacher_hits: u64,
    pub makespan_s: f64,
    pub rounds: u64,
    pub batch_sum: u64,
    pub attempts: u64,
    /// Attempts that faulted: retried, or the last of a failed round.
    pub faulted_attempts: u64,
    pub degraded_rounds: u64,
    pub queue_depth_sum: u64,
    pub queue_depth_max: u64,
    /// Sequences executed over all attempts, and those in faulted ones.
    pub executed_seqs: u64,
    pub wasted_seqs: u64,
    pub resubmitted: u64,
    pub rerouted: u64,
    pub overflow_shed: u64,
    pub imbalance: f64,
    /// Requests that ended `Failed`, were refused at submit, or whose
    /// logits differed from their reference.
    pub failed: u64,
}

/// Simulated cost of one pass, from re-pricing every attempt.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Priced {
    pub energy_j: f64,
    pub kernels: u64,
    pub flops: u64,
    pub l2_hit_bytes: u64,
    pub dram_read_bytes: u64,
    pub dram_bytes: u64,
    pub skip_sum: f64,
    pub skip_n: u64,
}

impl Priced {
    fn add(&mut self, report: &SimReport, times: u64) {
        self.energy_j += report.energy.total_j() * times as f64;
        self.kernels += report.launches * times;
        self.flops += report.flops * times;
        self.l2_hit_bytes += report.l2_hit_bytes * times;
        self.dram_read_bytes += report.dram_read_bytes * times;
        self.dram_bytes += report.dram_bytes() * times;
    }
}

/// Host spans of a traced run, kept in memory and written at the end.
pub struct HostTrace {
    origin: Instant,
    spans: Vec<(u32, &'static str, f64, f64)>,
}

impl HostTrace {
    fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Records a span; returns its index unless the cap was reached.
    fn record(
        &mut self,
        tid: u32,
        name: &'static str,
        start: Instant,
        dur: Duration,
    ) -> Option<usize> {
        if self.spans.len() >= HOST_SPAN_CAP {
            return None;
        }
        let start_us = start.duration_since(self.origin).as_secs_f64() * 1e6;
        self.spans
            .push((tid, name, start_us, dur.as_secs_f64() * 1e6));
        Some(self.spans.len() - 1)
    }

    /// Lays attributed layer spans back to back from the start of call
    /// span `call`: the split is measured, the placement is not.
    fn attribute(&mut self, call: usize, parts: &[(u32, &'static str, Duration)]) {
        let mut at = self.spans[call].2;
        for &(tid, name, dur) in parts {
            if self.spans.len() >= HOST_SPAN_CAP {
                return;
            }
            let dur_us = dur.as_secs_f64() * 1e6;
            self.spans.push((tid, name, at, dur_us));
            at += dur_us;
        }
    }
}

/// A traced serve or fleet pass. Right after each `step`, untimed, the
/// round is re-executed through a bench-owned `BatchRuntime` behind the
/// timing sink, so the step and its re-execution see the same load on the
/// machine; the engine's own time is the step time minus the
/// re-execution.
pub struct Tracer<'t> {
    kind: Kind,
    spans: &'t mut HostTrace,
    runtime: BatchRuntime,
    outs: Vec<PlanOutput>,
    /// Each round's re-priced attempt and its gang's summed skip fraction.
    rounds: Vec<(SimReport, f64)>,
    attribution: Attribution,
}

impl<'t> Tracer<'t> {
    fn new(kind: Kind, spans: &'t mut HostTrace) -> Self {
        Self {
            kind,
            spans,
            runtime: BatchRuntime::new(),
            outs: Vec::new(),
            rounds: Vec::new(),
            attribution: Attribution::default(),
        }
    }

    fn round(
        &mut self,
        setup: &Setup,
        inputs: &Inputs,
        device: usize,
        r: &RoundReport,
        start: Instant,
        step: Duration,
    ) {
        let plan = plan_of(self.kind, device, r.degraded);
        let seqs = gang(inputs, r);
        let (report, a) =
            execute_round(setup, plan, &seqs, &mut self.runtime, &mut self.outs, true);
        let attempts = r.retries + 1;
        self.attribution.add_scaled(&a, attempts);
        let skip: f64 = self.outs.iter().map(PlanOutput::mean_skip_fraction).sum();
        self.rounds.push((report, skip));
        let (name, self_tid) = if self.kind == Kind::FleetInt8 {
            ("FleetEngine::step", TID_FLEET)
        } else {
            ("ServeEngine::step", TID_SERVE)
        };
        if let Some(call) = self.spans.record(TID_CALLS, name, start, step) {
            let (numerics, pricing) = (a.numerics * attempts, a.pricing * attempts);
            self.spans.attribute(
                call,
                &[
                    (TID_LSTM, "numerics (re-executed)", numerics),
                    (TID_GPUSIM, "pricing (re-executed)", pricing),
                    (
                        self_tid,
                        "scheduling (residue)",
                        step.saturating_sub(numerics + pricing),
                    ),
                ],
            );
        }
    }
}

/// The input sequences of a round's gang, in admission order.
fn gang(inputs: &Inputs, r: &RoundReport) -> Vec<Vec<Vector>> {
    let n = inputs.trace.len() as u64;
    r.ids
        .iter()
        .map(|&id| inputs.pool[inputs.trace[(id % n) as usize].pool].clone())
        .collect()
}

/// One engine replay: everything the engine reported, for the post-pass.
#[derive(Default)]
pub struct EngineRun {
    /// Resolved outcomes with the device that resolved them (`None` for a
    /// fleet-level overflow shed).
    pub outcomes: Vec<(Option<usize>, ServeOutcome)>,
    /// Rounds with the device that ran them.
    pub rounds: Vec<(usize, RoundReport)>,
    /// Ids the engine accepted.
    submitted: Vec<u64>,
    resubmitted: u64,
    submit_errors: u64,
    clock_s: f64,
    rerouted: u64,
    overflow_shed: u64,
    imbalance: f64,
}

/// Request ids: the k-th resubmission of trace request `i` is `i + k * n`.
pub fn request(inputs: &Inputs, id: u64) -> Request {
    let a = &inputs.trace[(id % inputs.trace.len() as u64) as usize];
    Request {
        id,
        xs: inputs.pool[a.pool].clone(),
        arrival_s: a.arrival_s,
        deadline_s: a.deadline_s,
    }
}

/// The ids of a failed round's gang that the client will try again.
pub fn resubmissions(report: &RoundReport, n: u64) -> impl Iterator<Item = u64> + '_ {
    report
        .ids
        .iter()
        .filter(move |&&id| id / n < MAX_RESUBMITS)
        .map(move |&id| id + n)
}

/// Times one library call into `host`.
fn timed<T>(host: &mut HostPass, f: impl FnOnce() -> T) -> (T, Duration, Instant) {
    let start = Instant::now();
    let out = f();
    let dur = start.elapsed();
    host.timed += dur;
    (out, dur, start)
}

fn submit_timed<E: Display>(
    host: &mut HostPass,
    run: &mut EngineRun,
    gate: &mut Gate,
    id: u64,
    f: impl FnOnce() -> Result<(), E>,
) {
    let (result, dur, _) = timed(host, f);
    host.submit += dur;
    host.pending_submit += dur;
    host.submits += 1;
    match result {
        Ok(()) => run.submitted.push(id),
        Err(e) => {
            run.submit_errors += 1;
            gate.fail("submit", format_args!("request {id}: {e}"));
        }
    }
}

/// The serve config of `spec` for a trace of `n` requests.
pub fn serve_config(
    setup: &Setup,
    spec: &ServeSpec,
    n: usize,
    round_s: f64,
    fault_seed: u64,
) -> ServeConfig {
    let mut builder = ServeConfig::builder(setup.plans[0].device.clone())
        .with_max_batch(spec.max_batch)
        .with_queue_capacity(n.max(1))
        .with_shedding(SheddingPolicy::expired());
    if spec.faults {
        // Every 20th attempt faults (5%), at a phase the seed picks. Evenly
        // spread faults keep chance clusters of faults from deciding the
        // latency tail, which made sim_p99_ms swing 13% between seeds.
        let phase = fault_seed % FAULT_PERIOD;
        let faults = (0..4 * n as u64 + 16).filter(|a| a % FAULT_PERIOD == phase);
        builder = builder
            .with_faults(FaultPlan::at_attempts(faults))
            .with_max_retries(2)
            .with_retry_backoff(round_s * BACKOFF_SHARE);
    }
    if spec.fallback {
        builder = builder.with_degrade_watermarks(8, 2);
    }
    builder
        .build()
        .expect("the workload's serve config is valid")
}

/// Open-loop replay on one `ServeEngine`. Every arrival due by the
/// engine's clock is submitted before each `step`; an idle engine gets
/// the next arrival, and its clock jumps to it. This gives the outcomes of
/// submitting the whole trace up front while the queue holds only the
/// real backlog.
#[allow(clippy::too_many_arguments)]
pub fn serve_pass(
    setup: &Setup,
    spec: &ServeSpec,
    inputs: &Inputs,
    round_s: f64,
    fault_seed: u64,
    host: &mut HostPass,
    mut tracer: Option<&mut Tracer>,
    gate: &mut Gate,
) -> EngineRun {
    let trace = &inputs.trace;
    let n = trace.len() as u64;
    let config = serve_config(setup, spec, trace.len(), round_s, fault_seed);
    let net = setup.workload.network();
    let mut engine = ServeEngine::new(&setup.plans[0], net, config).expect("plan matches network");
    if spec.fallback {
        engine = engine
            .with_fallback(&setup.plans[1])
            .expect("fallback matches primary");
    }
    let mut run = EngineRun::default();
    let mut next = 0u64;
    let mut retry: Vec<u64> = Vec::new();
    loop {
        while next < n
            && (trace[next as usize].arrival_s <= engine.clock_s() || engine.pending() == 0)
            || !retry.is_empty()
        {
            let id = retry.pop().unwrap_or_else(|| {
                next += 1;
                next - 1
            });
            let t = Instant::now();
            let req = request(inputs, id);
            host.generator += t.elapsed();
            submit_timed(host, &mut run, gate, id, || engine.submit(req));
        }
        let queued = engine.pending();
        let (step, dur, start) = timed(host, || engine.step());
        // A step can resolve requests (shed them) without running a round.
        let resolved = queued - engine.pending();
        if resolved > 0 {
            host.call(dur, resolved);
        }
        match step {
            Some(report) => {
                if let Some(t) = tracer.as_deref_mut() {
                    t.round(setup, inputs, 0, &report, start, dur);
                }
                if report.failed {
                    retry.extend(resubmissions(&report, n));
                }
                run.rounds.push((0, report));
            }
            None if next == n && retry.is_empty() => break,
            None => {}
        }
    }
    run.resubmitted = run.submitted.iter().filter(|&&id| id >= n).count() as u64;
    run.clock_s = engine.clock_s();
    run.outcomes = engine.drain().into_iter().map(|o| (Some(0), o)).collect();
    run
}

/// The fleet replay. `FleetEngine` routes at submit time and exposes no
/// per-member clock, so the trace is submitted up front, as the `fleet`
/// bench does.
fn fleet_pass(
    setup: &Setup,
    inputs: &Inputs,
    host: &mut HostPass,
    mut tracer: Option<&mut Tracer>,
    gate: &mut Gate,
) -> EngineRun {
    let trace = &inputs.trace;
    let n = trace.len() as u64;
    let members = setup
        .plans
        .iter()
        .enumerate()
        .map(|(i, plan)| {
            let mut builder = ServeConfig::builder(plan.device.clone())
                .with_max_batch(FLEET.max_batch)
                .with_queue_capacity(trace.len().max(1))
                .with_shedding(SheddingPolicy::expired());
            if i == 0 {
                builder = builder
                    .with_faults(FaultPlan::at_attempts([
                        FLEET_FAULT_ATTEMPT,
                        FLEET_FAULT_ATTEMPT + 1,
                    ]))
                    .with_max_retries(0);
            }
            (
                plan,
                builder.build().expect("the fleet's serve config is valid"),
            )
        })
        .collect();
    let mut fleet = FleetEngine::new(setup.workload.network(), members, Box::new(Affinity))
        .expect("plans match the network")
        .with_quarantine_after(2);
    let mut run = EngineRun::default();
    for id in 0..n {
        let t = Instant::now();
        let req = request(inputs, id);
        host.generator += t.elapsed();
        submit_timed(host, &mut run, gate, id, || fleet.submit(req).map(drop));
    }
    loop {
        let queued = fleet.pending();
        let (step, dur, start) = timed(host, || fleet.step());
        let Some((device, report)) = step else { break };
        host.call(dur, queued.saturating_sub(fleet.pending()));
        if let Some(t) = tracer.as_deref_mut() {
            t.round(setup, inputs, device, &report, start, dur);
        }
        if report.failed {
            for id in resubmissions(&report, n).collect::<Vec<_>>() {
                let t = Instant::now();
                let req = request(inputs, id);
                host.generator += t.elapsed();
                submit_timed(host, &mut run, gate, id, || fleet.submit(req).map(drop));
            }
        }
        run.rounds.push((device, report));
    }
    run.resubmitted = run.submitted.iter().filter(|&&id| id >= n).count() as u64;
    run.clock_s = fleet.clock_s();
    let metrics = fleet.metrics();
    run.rerouted = metrics.rerouted;
    run.overflow_shed = metrics.overflow_shed;
    run.imbalance = metrics.utilization_imbalance;
    run.outcomes = fleet
        .drain()
        .into_iter()
        .map(|o| (o.device, o.outcome))
        .collect();
    run
}

/// Which plan ran a round (or served a request): the serve workloads'
/// fallback when degraded, a fleet member's own plan otherwise.
fn plan_of(kind: Kind, device: usize, degraded: bool) -> usize {
    match kind {
        Kind::FleetInt8 => device,
        _ => usize::from(degraded),
    }
}

/// Folds an engine replay into outcome facts, checking that every
/// submitted id resolves exactly once and every served request's logits
/// equal its reference.
pub fn engine_facts(
    kind: Kind,
    setup: &Setup,
    run: &EngineRun,
    inputs: &Inputs,
    refs: &mut References,
    gate: &mut Gate,
) -> Facts {
    let trace = &inputs.trace;
    let n = trace.len() as u64;
    let mut resolved: Vec<u64> = run.outcomes.iter().map(|(_, o)| o.id()).collect();
    resolved.sort_unstable();
    let mut submitted = run.submitted.clone();
    submitted.sort_unstable();
    if resolved != submitted {
        gate.fail(
            "conservation",
            format_args!(
                "{} ids submitted, {} outcomes",
                submitted.len(),
                resolved.len()
            ),
        );
    }

    let mut f = Facts {
        submitted: n,
        makespan_s: run.clock_s,
        resubmitted: run.resubmitted,
        rerouted: run.rerouted,
        overflow_shed: run.overflow_shed,
        imbalance: run.imbalance,
        failed: run.submit_errors,
        ..Facts::default()
    };
    let mut round_of: HashMap<u64, (f64, f64)> = HashMap::new();
    for (_, r) in &run.rounds {
        let attempts = u64::from(r.retries) + 1;
        f.rounds += 1;
        f.batch_sum += r.batch as u64;
        f.attempts += attempts;
        f.degraded_rounds += u64::from(r.degraded);
        f.queue_depth_sum += r.queue_depth as u64;
        f.queue_depth_max = f.queue_depth_max.max(r.queue_depth as u64);
        f.executed_seqs += r.batch as u64 * attempts;
        let faulted = u64::from(r.retries) + u64::from(r.failed);
        f.faulted_attempts += faulted;
        f.wasted_seqs += r.batch as u64 * faulted;
        if !r.failed {
            for &id in &r.ids {
                round_of.insert(id, (r.start_s, r.time_s));
            }
        }
    }

    // A request's final outcome is that of its last resubmission.
    let mut last: Vec<Option<(u64, usize)>> = vec![None; trace.len()];
    for (i, (_, o)) in run.outcomes.iter().enumerate() {
        let slot = &mut last[(o.id() % n) as usize];
        if slot.is_none_or(|(k, _)| o.id() / n > k) {
            *slot = Some((o.id() / n, i));
        }
    }
    for (a, slot) in trace.iter().zip(&last) {
        let Some((_, i)) = *slot else {
            continue; // a refused submit, already counted
        };
        let (device, outcome) = &run.outcomes[i];
        if a.deadline_s.is_some() {
            f.slo_total += 1;
        }
        match outcome {
            ServeOutcome::Completed(c) | ServeOutcome::DeadlineMiss(c) => {
                let plan = plan_of(kind, device.unwrap_or(0), c.degraded);
                let (matched, teacher) =
                    check_served(setup, inputs, refs, gate, plan, a.pool, c.id, &c.logits);
                f.failed += u64::from(!matched);
                f.teacher_hits += u64::from(teacher);
                f.latencies_s.push(c.latency_s);
                match round_of.get(&c.id) {
                    Some(&(start_s, time_s)) => {
                        f.service_s.push(time_s);
                        f.wait_s.push(start_s - a.arrival_s);
                    }
                    None => gate.fail(
                        "rounds",
                        format_args!("request {} served in no round", c.id),
                    ),
                }
                if outcome.is_success() {
                    f.slo_met += u64::from(a.deadline_s.is_some());
                } else {
                    f.deadline_miss += 1;
                }
            }
            ServeOutcome::Shed(_) => f.shed += 1,
            ServeOutcome::Failed(_) => {
                f.failed += 1;
                gate.fail(
                    "failed",
                    format_args!("request {} failed after resubmissions", a.id),
                );
            }
        }
    }
    for v in [&mut f.latencies_s, &mut f.service_s, &mut f.wait_s] {
        v.sort_by(f64::total_cmp);
    }
    f
}

/// Runs one gang through a fresh `BatchRuntime` on a cold device,
/// optionally timing numerics and pricing apart.
fn execute_round(
    setup: &Setup,
    plan: usize,
    seqs: &[Vec<Vector>],
    runtime: &mut BatchRuntime,
    outs: &mut Vec<PlanOutput>,
    time: bool,
) -> (SimReport, Attribution) {
    let plan = &setup.plans[plan];
    let net = setup.workload.network();
    let mut a = Attribution {
        attempts: 1,
        cells: (seqs.len() * net.layers().len() * plan.seq_len) as u64,
        ..Attribution::default()
    };
    if !time {
        let mut device = GpuDevice::for_model(&plan.device);
        let mut session = device.begin_trace();
        runtime.run_lstm_batch_into(plan, net, seqs, &mut session, outs);
        return (session.finish(), a);
    }
    let start = Instant::now();
    let mut device = GpuDevice::for_model(&plan.device);
    let (report, timing) = timed_session(&mut device, start, |sink| {
        runtime.run_lstm_batch_into(plan, net, seqs, sink, outs);
    });
    a.add_scaled(&timing, 1);
    (report, a)
}

/// Streams `run`'s kernels into a fresh session on `device` through the
/// timing sink and splits the host time since `start` (which includes the
/// device's creation or reset) into pricing (device setup plus `emit`)
/// and numerics (the rest).
fn timed_session(
    device: &mut GpuDevice,
    start: Instant,
    run: impl FnOnce(&mut TimedSink<TraceSession<'_>>),
) -> (SimReport, Attribution) {
    let mut sink = TimedSink::new(device.begin_trace());
    let t1 = Instant::now();
    run(&mut sink);
    let t2 = Instant::now();
    let (emit, kernels) = (sink.emit, sink.kernels);
    let report = sink.inner.finish();
    let device_setup = (t1 - start) + t2.elapsed();
    let a = Attribution {
        numerics: (t2 - t1).saturating_sub(emit),
        pricing: emit + device_setup,
        emit,
        device_setup,
        kernels,
        flops: report.flops,
        ..Attribution::default()
    };
    (report, a)
}

/// The post-pass: re-prices every round's gang on a cold device (energy,
/// traffic) and checks each round's simulated time against the re-priced
/// attempt time. A traced pass already re-executed every round; otherwise
/// rounds of input-independent plans are priced once per (plan, gang size).
fn price_rounds(
    kind: Kind,
    setup: &Setup,
    run: &EngineRun,
    inputs: &Inputs,
    backoff_s: &[f64],
    traced: Option<&[(SimReport, f64)]>,
    gate: &mut Gate,
) -> Priced {
    let mut memo: HashMap<(usize, usize), SimReport> = HashMap::new();
    let mut runtime = BatchRuntime::new();
    let mut outs = Vec::new();
    let mut priced = Priced::default();
    for (i, (device, r)) in run.rounds.iter().enumerate() {
        let plan = plan_of(kind, *device, r.degraded);
        let memoizable = input_independent(&setup.plans[plan]);
        let (report, skip) = match (traced, memo.get(&(plan, r.batch))) {
            (Some(rounds), _) => rounds[i].clone(),
            (None, Some(report)) if memoizable => (report.clone(), 0.0),
            (None, _) => {
                let (report, _) = execute_round(
                    setup,
                    plan,
                    &gang(inputs, r),
                    &mut runtime,
                    &mut outs,
                    false,
                );
                if memoizable {
                    memo.insert((plan, r.batch), report.clone());
                }
                (
                    report,
                    outs.iter().map(PlanOutput::mean_skip_fraction).sum(),
                )
            }
        };
        let attempts = u64::from(r.retries) + 1;
        priced.add(&report, attempts);
        priced.skip_sum += skip * attempts as f64;
        priced.skip_n += r.batch as u64 * attempts;
        // Replay the engine's clock arithmetic: each faulted attempt adds
        // its time plus the backoff, the successful one its time.
        let backoff = backoff_s[*device];
        let mut clock = r.start_s;
        for _ in 0..r.retries + u32::from(r.failed) {
            clock += report.time_s + backoff;
        }
        if !r.failed {
            clock += report.time_s;
        }
        if (clock - r.start_s).to_bits() != r.time_s.to_bits() {
            gate.fail(
                "round_time",
                format_args!(
                    "round {} on device {device}: reported {} s, re-priced {} s",
                    r.round,
                    r.time_s,
                    clock - r.start_s
                ),
            );
        }
    }
    priced
}

/// One closed-loop pass: each inference resets the device, streams one
/// `PlanRuntime::run_lstm_into` into a `TraceSession` and finishes it.
fn solo_pass(
    setup: &Setup,
    inputs: &Inputs,
    refs: &mut References,
    gate: &mut Gate,
    host: &mut HostPass,
    mut spans: Option<&mut HostTrace>,
) -> (Facts, Priced) {
    let plan = &setup.plans[0];
    let net = setup.workload.network();
    let cells = (net.layers().len() * plan.seq_len) as u64;
    let mut runtime = PlanRuntime::new();
    let mut out = PlanOutput::new();
    let mut device = GpuDevice::for_model(&plan.device);
    let mut f = Facts {
        submitted: inputs.pool.len() as u64,
        ..Facts::default()
    };
    let mut priced = Priced::default();
    host.requests = inputs.pool.len() as u64;
    for (i, xs) in inputs.pool.iter().enumerate() {
        let start = Instant::now();
        let report = if host.traced {
            device.reset();
            let (report, mut a) = timed_session(&mut device, start, |sink| {
                runtime.run_lstm_into(plan, net, xs, sink, &mut out);
            });
            a.attempts = 1;
            a.cells = cells;
            host.attribution.add_scaled(&a, 1);
            if let Some(s) = spans.as_deref_mut() {
                if let Some(call) = s.record(TID_CALLS, "inference", start, start.elapsed()) {
                    s.attribute(
                        call,
                        &[
                            (TID_LSTM, "numerics", a.numerics),
                            (TID_GPUSIM, "pricing", a.pricing),
                        ],
                    );
                }
            }
            report
        } else {
            device.reset();
            let mut session = device.begin_trace();
            runtime.run_lstm_into(plan, net, xs, &mut session, &mut out);
            session.finish()
        };
        let dur = start.elapsed();
        host.timed += dur;
        host.call(dur, 1);

        let (matched, teacher) =
            check_served(setup, inputs, refs, gate, 0, i, i as u64, &out.logits);
        f.failed += u64::from(!matched);
        f.teacher_hits += u64::from(teacher);
        f.latencies_s.push(report.time_s);
        f.service_s.push(report.time_s);
        f.wait_s.push(0.0);
        f.makespan_s += report.time_s;
        f.rounds += 1;
        f.batch_sum += 1;
        f.attempts += 1;
        f.executed_seqs += 1;
        priced.add(&report, 1);
        priced.skip_sum += out.mean_skip_fraction();
        priced.skip_n += 1;
    }
    for v in [&mut f.latencies_s, &mut f.service_s] {
        v.sort_by(f64::total_cmp);
    }
    (f, priced)
}

/// Simulated kernel spans of one gang, for the Chrome trace.
fn profile_round(setup: &Setup, plan: usize, seqs: &[Vec<Vector>]) -> Profiler {
    let p = &setup.plans[plan];
    let net = setup.workload.network();
    let mut device = GpuDevice::for_model(&p.device);
    let mut session = device.begin_trace();
    session.enable_profiling();
    session.set_device_tag(p.device.span_name());
    if seqs.len() == 1 {
        PlanRuntime::new().run_lstm(p, net, &seqs[0], &mut session);
    } else {
        BatchRuntime::new().run_lstm_batch(p, net, seqs, &mut session);
    }
    session.take_profiler().expect("profiling was enabled")
}

/// Rebuilds the setup for one slice, checking each rebuild equals `setup`
/// and recording its (generate, compile) times.
fn repeat_setup(kind: Kind, setup: &Setup, setups: &mut Vec<(f64, f64)>, gate: &mut Gate) {
    let slice = Instant::now();
    loop {
        let total: f64 = setups.iter().map(|(g, c)| g + c).sum();
        if setups.len() >= MIN_SETUPS && total >= SETUP_BUDGET_S {
            return;
        }
        let again = Setup::new(kind);
        if !again.same_as(setup) {
            gate.fail(
                "setup_determinism",
                "a rebuilt setup differs from the first",
            );
        }
        setups.push((again.generate_s, again.compile_s));
        if slice.elapsed().as_secs_f64() >= SETUP_SLICE_S {
            return;
        }
    }
}

/// The result of one run.
pub struct RunReport {
    pub values: Values,
    pub attempted: u64,
    pub failed: u64,
    pub gate: Gate,
    /// Traced runs: the validated Chrome trace.
    pub chrome: Option<String>,
    pub passes: usize,
    pub setups: usize,
}

/// Sets `kind` up, replays the seed's trace for `seconds`, and folds both
/// clocks into metric values. A traced run alternates plain and traced
/// passes, so the tracing overhead is measured in the same process.
pub fn run(kind: Kind, seed: u64, seconds: f64, traced: bool) -> RunReport {
    let mut gate = Gate::default();
    let mut spans = traced.then(HostTrace::new);

    let t = Instant::now();
    let setup = Setup::new(kind);
    if let Some(s) = spans.as_mut() {
        let gen = Duration::from_secs_f64(setup.generate_s);
        s.record(TID_WORKLOADS, "generate", t, gen);
        s.record(
            TID_COMPILE,
            "compile",
            t + gen,
            Duration::from_secs_f64(setup.compile_s),
        );
    }
    let mut setups = vec![(setup.generate_s, setup.compile_s)];

    let (inputs, round_s) = if kind == Kind::SoloDrs {
        (Inputs::closed_loop(&setup, seed, SOLO_INFERENCES), 0.0)
    } else {
        let round_s = serial_round_s(&setup, 0);
        let spec = spec(kind);
        (
            Inputs::open_loop(&setup, seed, spec.requests, spec.rate, round_s),
            round_s,
        )
    };
    let mut refs = References::new(&setup, &inputs);
    // Post-fault backoff per device; the fleet's faults retry nothing.
    let backoff = if spec(kind).faults {
        round_s * BACKOFF_SHARE
    } else {
        0.0
    };
    let backoff_s = vec![backoff; setup.plans.len()];
    let fault_seed = seed ^ 0xFA017;

    let mut measured = Duration::ZERO;
    let mut passes: Vec<HostPass> = Vec::new();
    let mut first: Option<(Facts, Priced)> = None;
    let mut profiled: Vec<(usize, Vec<Vec<Vector>>)> = Vec::new();
    let min_passes = if traced { 2 } else { 1 };
    while passes.len() < min_passes || measured.as_secs_f64() < seconds {
        repeat_setup(kind, &setup, &mut setups, &mut gate);
        let pass_start = Instant::now();
        let i = passes.len();
        let mut host = HostPass {
            traced: traced && i % 2 == 1,
            ..HostPass::default()
        };
        let (facts, priced) = match kind {
            Kind::SoloDrs => {
                let spans = spans.as_mut().filter(|_| host.traced);
                let (f, p) = solo_pass(&setup, &inputs, &mut refs, &mut gate, &mut host, spans);
                (f, Some(p))
            }
            _ => {
                host.requests = inputs.trace.len() as u64;
                let mut tracer = spans
                    .as_mut()
                    .filter(|_| host.traced)
                    .map(|s| Tracer::new(kind, s));
                let run = if kind == Kind::FleetInt8 {
                    fleet_pass(&setup, &inputs, &mut host, tracer.as_mut(), &mut gate)
                } else {
                    let spec = spec(kind);
                    let t = tracer.as_mut();
                    serve_pass(
                        &setup, spec, &inputs, round_s, fault_seed, &mut host, t, &mut gate,
                    )
                };
                let facts = engine_facts(kind, &setup, &run, &inputs, &mut refs, &mut gate);
                if i == 0 {
                    profiled = run
                        .rounds
                        .iter()
                        .take(PROFILED_ROUNDS)
                        .map(|(d, r)| (plan_of(kind, *d, r.degraded), gang(&inputs, r)))
                        .collect();
                }
                if let Some(t) = &tracer {
                    host.attribution = t.attribution;
                }
                let traced_rounds = tracer.as_ref().map(|t| t.rounds.as_slice());
                let priced = (i == 0 || host.traced).then(|| {
                    price_rounds(
                        kind,
                        &setup,
                        &run,
                        &inputs,
                        &backoff_s,
                        traced_rounds,
                        &mut gate,
                    )
                });
                (facts, priced)
            }
        };
        match &first {
            None => first = Some((facts, priced.expect("the first pass is priced"))),
            Some((f0, p0)) => {
                if facts != *f0 {
                    gate.fail(
                        "sim_determinism",
                        format_args!("pass {i} outcomes differ from pass 0"),
                    );
                }
                if priced.is_some_and(|p| p != *p0) {
                    gate.fail(
                        "sim_determinism",
                        format_args!("pass {i} pricing differs from pass 0"),
                    );
                }
            }
        }
        passes.push(host);
        measured += pass_start.elapsed();
    }
    while setups.len() < MIN_SETUPS {
        repeat_setup(kind, &setup, &mut setups, &mut gate);
    }
    let (facts, priced) = first.expect("at least one pass ran");
    if kind == Kind::SoloDrs {
        profiled = inputs.pool[..PROFILED_ROUNDS]
            .iter()
            .map(|xs| (0, vec![xs.clone()]))
            .collect();
    }

    let values = fold(kind, &setups, &passes, &facts, &priced, &mut gate);
    let chrome = spans.map(|s| chrome_trace(&s, &setup, &profiled, &mut gate));
    RunReport {
        values,
        attempted: passes.iter().map(|p| p.requests).sum(),
        failed: facts.failed * passes.len() as u64,
        gate,
        chrome,
        passes: passes.len(),
        setups: setups.len(),
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Peak resident set of this process, in MiB (`VmHWM`).
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Folds setups, passes, outcome facts and pricing into metric values.
fn fold(
    kind: Kind,
    setups: &[(f64, f64)],
    passes: &[HostPass],
    f: &Facts,
    p: &Priced,
    gate: &mut Gate,
) -> Values {
    let mut v = Values::default();
    let served = f.latencies_s.len() as u64;
    let served_f = served.max(1) as f64;
    let reps = setups.len() as u64;
    let ms = |s: f64| s * 1e3;

    // End to end: host clock from the plain passes.
    let plain: Vec<&HostPass> = passes.iter().filter(|h| !h.traced).collect();
    let blocks: Vec<f64> = plain
        .iter()
        .flat_map(|h| h.calls.chunks(BLOCK_CALLS))
        .map(|block| {
            let requests: usize = block.iter().map(|c| c.requests).sum();
            let time: Duration = block.iter().map(|c| c.dur + c.submits).sum();
            requests as f64 / time.as_secs_f64()
        })
        .collect();
    v.set("host_rps", median(blocks.clone()), blocks.len() as u64);
    let calls: Vec<f64> = plain
        .iter()
        .flat_map(|h| h.calls.iter().map(|c| c.dur.as_secs_f64()))
        .collect();
    v.set(
        "host_call_p50_ms",
        ms(median(calls.clone())),
        calls.len() as u64,
    );
    v.set(
        "setup_s",
        median(setups.iter().map(|(g, c)| g + c).collect()),
        reps,
    );
    match peak_rss_mib() {
        Some(mib) => v.set("host_peak_rss_mb", mib, 1),
        None => gate.fail("rss", "/proc/self/status has no VmHWM line"),
    }

    // End to end: simulated clock.
    v.set("sim_p50_ms", ms(percentile(&f.latencies_s, 50.0)), served);
    v.set("sim_p99_ms", ms(percentile(&f.latencies_s, 99.0)), served);
    v.set("sim_rps", share(served as f64, f.makespan_s), served);
    let slo = if f.slo_total == 0 {
        1.0
    } else {
        f.slo_met as f64 / f.slo_total as f64
    };
    v.set("sim_slo_attainment", slo, f.slo_total);
    v.set("sim_energy_mj_per_req", p.energy_j * 1e3 / served_f, served);
    v.set("teacher_match", f.teacher_hits as f64 / served_f, served);

    // Per layer: host attribution from the traced passes.
    let traced: Vec<&HostPass> = passes.iter().filter(|h| h.traced).collect();
    let mut a = Attribution::default();
    for h in &traced {
        a.add_scaled(&h.attribution, 1);
    }
    let timed: f64 = traced.iter().map(|h| h.timed.as_secs_f64()).sum();
    let steps: f64 = traced
        .iter()
        .map(|h| h.calls.iter().map(|c| c.dur.as_secs_f64()).sum::<f64>())
        .sum();
    let submit: f64 = traced.iter().map(|h| h.submit.as_secs_f64()).sum();
    let submits: u64 = traced.iter().map(|h| h.submits).sum();
    let rounds: u64 = traced.iter().map(|h| h.calls.len() as u64).sum();
    let (numerics, pricing) = (a.numerics.as_secs_f64(), a.pricing.as_secs_f64());
    let n_traced = traced.len() as u64;

    let gen = median(setups.iter().map(|s| s.0).collect());
    v.set("workloads.generate_s", gen, reps);
    v.set(
        "compile.plan_s",
        median(setups.iter().map(|s| s.1).collect()),
        reps,
    );
    v.set("lstm.host_share", share(numerics, timed), n_traced);
    v.set(
        "lstm.us_per_cell",
        share(numerics * 1e6, a.cells as f64),
        a.cells,
    );
    v.set(
        "lstm.host_gflops",
        share(a.flops as f64 / 1e9, numerics),
        a.attempts,
    );
    v.set(
        "lstm.skip_fraction",
        share(p.skip_sum, p.skip_n as f64),
        p.skip_n,
    );
    v.set(
        "lstm.wasted_seq_share",
        share(f.wasted_seqs as f64, f.executed_seqs as f64),
        f.executed_seqs,
    );
    v.set("gpusim.host_share", share(pricing, timed), n_traced);
    v.set(
        "gpusim.ns_per_kernel",
        share(a.emit.as_secs_f64() * 1e9, a.kernels as f64),
        a.kernels,
    );
    v.set(
        "gpusim.device_setup_us",
        share(a.device_setup.as_secs_f64() * 1e6, a.attempts as f64),
        a.attempts,
    );
    v.set(
        "gpusim.kernels_per_req",
        p.kernels as f64 / served_f,
        served,
    );
    v.set(
        "gpusim.l2_hit_share",
        share(
            p.l2_hit_bytes as f64,
            (p.l2_hit_bytes + p.dram_read_bytes) as f64,
        ),
        p.kernels,
    );
    v.set(
        "gpusim.dram_mb_per_req",
        p.dram_bytes as f64 / 1e6 / served_f,
        served,
    );

    let is_serve = matches!(kind, Kind::ServeMr | Kind::Backlog);
    let is_fleet = kind == Kind::FleetInt8;
    let sched = timed - numerics - pricing;
    let on = |yes: bool, x: f64| if yes { x } else { 0.0 };
    v.set(
        "serve.host_share",
        on(is_serve, share(sched, timed)),
        n_traced,
    );
    v.set(
        "serve.self_us_per_round",
        on(
            is_serve,
            share((steps - numerics - pricing) * 1e6, rounds as f64),
        ),
        rounds,
    );
    v.set(
        "serve.submit_us",
        on(is_serve, share(submit * 1e6, submits as f64)),
        submits,
    );
    let queued = kind != Kind::SoloDrs;
    let r = f.rounds.max(1) as f64;
    v.set(
        "serve.queue_depth_mean",
        on(queued, f.queue_depth_sum as f64 / r),
        f.rounds,
    );
    v.set(
        "serve.queue_depth_max",
        on(queued, f.queue_depth_max as f64),
        f.rounds,
    );
    v.set(
        "serve.mean_batch",
        on(queued, f.batch_sum as f64 / r),
        f.rounds,
    );
    v.set(
        "serve.degraded_round_share",
        on(queued, f.degraded_rounds as f64 / r),
        f.rounds,
    );
    v.set(
        "serve.useful_attempt_share",
        on(
            queued,
            share((f.attempts - f.faulted_attempts) as f64, f.attempts as f64),
        ),
        f.attempts,
    );
    v.set(
        "serve.service_p50_ms",
        on(queued, ms(percentile(&f.service_s, 50.0))),
        served,
    );
    v.set(
        "serve.queue_wait_p50_ms",
        on(queued, ms(percentile(&f.wait_s, 50.0))),
        served,
    );
    v.set(
        "serve.queue_wait_p99_ms",
        on(queued, ms(percentile(&f.wait_s, 99.0))),
        served,
    );
    let sub = f.submitted.max(1) as f64;
    v.set("serve.shed_share", f.shed as f64 / sub, f.submitted);
    v.set(
        "serve.deadline_miss_share",
        f.deadline_miss as f64 / sub,
        f.submitted,
    );
    v.set(
        "fleet.host_share",
        on(is_fleet, share(sched, timed)),
        n_traced,
    );
    v.set(
        "fleet.submit_us",
        on(is_fleet, share(submit * 1e6, submits as f64)),
        submits,
    );
    v.set("fleet.rerouted", f.rerouted as f64, 1);
    v.set("fleet.overflow_shed", f.overflow_shed as f64, 1);
    v.set("fleet.utilization_imbalance", f.imbalance, 1);
    v.set("bench.resubmitted", f.resubmitted as f64, 1);

    let per_req = |hs: &[&HostPass]| {
        median(
            hs.iter()
                .map(|h| h.timed.as_secs_f64() / h.requests.max(1) as f64)
                .collect(),
        )
    };
    let overhead = if plain.is_empty() || traced.is_empty() {
        0.0
    } else {
        per_req(&traced) / per_req(&plain) - 1.0
    };
    v.set("bench.trace_overhead_share", overhead, passes.len() as u64);
    let rps: Vec<f64> = plain.iter().map(|h| h.rps()).collect();
    let spread = match (
        rps.iter().copied().reduce(f64::max),
        rps.iter().copied().reduce(f64::min),
    ) {
        (Some(max), Some(min)) => share(max - min, median(rps.clone())),
        _ => 0.0,
    };
    v.set("bench.host_rps_spread", spread, rps.len() as u64);
    let generator: f64 = passes.iter().map(|h| h.generator.as_secs_f64()).sum();
    let all_timed: f64 = passes.iter().map(|h| h.timed.as_secs_f64()).sum();
    v.set(
        "bench.generator_share",
        share(generator, generator + all_timed),
        passes.len() as u64,
    );
    v
}

/// Host spans on pid 1 (one lane per layer) and the first rounds' simulated
/// kernel spans on pids 2.., validated before they are returned.
fn chrome_trace(
    spans: &HostTrace,
    setup: &Setup,
    profiled: &[(usize, Vec<Vec<Vector>>)],
    gate: &mut Gate,
) -> String {
    let mut trace = ChromeTrace::new();
    trace.add_process_name(1, "host (wall clock)");
    for (tid, name) in [
        (TID_CALLS, "calls"),
        (TID_WORKLOADS, "workloads"),
        (TID_COMPILE, "compile"),
        (TID_LSTM, "lstm"),
        (TID_GPUSIM, "gpusim"),
        (TID_SERVE, "serve"),
        (TID_FLEET, "fleet"),
    ] {
        trace.add_thread_name(1, tid, name);
    }
    let no_args: [(&str, ArgValue); 0] = [];
    for &(tid, name, start_us, dur_us) in &spans.spans {
        trace.add_span(1, tid, name, "host", start_us, dur_us, &no_args);
    }
    for (i, (plan, seqs)) in profiled.iter().enumerate() {
        let name = format!(
            "gpu-sim round {i}, plan {plan}, B={} (simulated time)",
            seqs.len()
        );
        profile_round(setup, *plan, seqs).add_to_chrome(&mut trace, 2 + i as u32, &name);
    }
    let json = trace.to_json();
    if let Err(e) = validate_in_batches(&json) {
        gate.fail("chrome_trace", e);
    }
    json
}

/// Runs `validate_chrome_trace` over the trace's events in batches of 64.
/// The validator re-checks the UTF-8 of the rest of its input at every
/// string character, so on a whole multi-megabyte trace it runs for
/// minutes; on small batches its cost is linear in the trace.
fn validate_in_batches(json: &str) -> Result<(), String> {
    let events = json
        .strip_prefix("{\"traceEvents\":[\n")
        .and_then(|rest| rest.strip_suffix("\n],\"displayTimeUnit\":\"ms\"}\n"))
        .ok_or("unexpected trace envelope")?;
    // Event objects never contain a raw newline: strings are escaped.
    let events: Vec<&str> = events.split(",\n").collect();
    for batch in events.chunks(64) {
        validate_chrome_trace(&format!("{{\"traceEvents\":[{}]}}", batch.join(",")))?;
    }
    Ok(())
}
