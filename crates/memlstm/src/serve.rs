//! Batched multi-request inference serving for one compiled plan, with
//! QoS outcomes, fault injection, and overload degradation.
//!
//! A mobile assistant rarely runs one query at a time: speech, translation,
//! and keyboard prediction requests overlap. Each request alone re-streams
//! every `U` matrix from DRAM per timestep — the exact bottleneck the paper
//! measures (Fig. 4/6). [`ServeEngine`] exploits the overlap: requests that
//! have arrived by the current simulated clock are ganged into one batch
//! and executed in lockstep by the engine's [`PlanRuntime`], so every
//! weight load is amortized across the whole gang (see `lstm::batch`).
//! Requests with unusable times (a non-finite or negative arrival, a
//! non-finite deadline or one before the arrival) are refused at
//! [`submit`](ServeEngine::submit) with [`Error::InvalidRequest`].
//!
//! The engine is *round based*: all requests share the plan's compiled
//! sequence length, so a gang starts together and finishes together, and
//! new arrivals join at the next round boundary. Admission each round is
//! deadline-aware: eligible requests are ordered earliest-deadline-first
//! (no deadline sorts last), ties broken FIFO by submission order, and the
//! first `max_batch` are taken. Time is fully simulated — the clock
//! advances by each round's simulated time — so serving runs are
//! deterministic and reproducible.
//!
//! # QoS outcomes
//!
//! Every submitted request resolves to exactly one [`ServeOutcome`]:
//!
//! * [`Completed`](ServeOutcome::Completed) — served, deadline met (or no
//!   deadline);
//! * [`DeadlineMiss`](ServeOutcome::DeadlineMiss) — served, but after its
//!   deadline. The logits are still delivered; the miss is *flagged*, never
//!   silently counted as a success;
//! * [`Shed`](ServeOutcome::Shed) — dropped before admission under the
//!   configured [`SheddingPolicy`] (deadline already expired, evicted by a
//!   tighter-deadline arrival, or discarded by [`reset`](ServeEngine::reset));
//! * [`Failed`](ServeOutcome::Failed) — a transient device fault recurred
//!   past the retry budget.
//!
//! # Faults and retries
//!
//! A [`FaultPlan`] deterministically marks *execution attempts* (every
//! round run, including retries, increments one global attempt counter)
//! as raising a transient device fault. A faulted attempt's results are
//! discarded — its simulated time plus a configurable backoff still
//! elapse — and the round retries up to
//! [`max_retries`](ServeConfig::max_retries) times. Because every attempt
//! runs on a fresh simulated device, a retry replays the identical kernel
//! stream on the identical inputs: retried gangs produce **bit-identical**
//! logits to fault-free runs (see DESIGN.md Sec. 2h).
//!
//! # Overload degradation
//!
//! With a caller-supplied fallback plan
//! ([`with_fallback`](ServeEngine::with_fallback) — e.g. a cheaper DRS
//! scheme compiled for the same network/device/length), the engine watches
//! the *backlog* (arrived-but-unserved requests) at each admission. When it
//! reaches the high watermark the engine switches rounds onto the fallback
//! plan; when it drains back to the low watermark it switches back. Every
//! switch is recorded as a [`DegradeEvent`], and completions served on the
//! fallback carry `degraded: true`.
//!
//! Per-sequence outputs on the *primary* plan remain **bit-identical** to
//! running each request alone (a batch of one on the same runtime);
//! batching, faults and retries change only the clock, never the
//! numbers. Degraded rounds are bit-identical to solo runs of the
//! *fallback* plan.

use crate::error::{Error, MemlstmResult};
use gpu_sim::profile::ChromeTrace;
use gpu_sim::{DeviceModel, GpuDevice};
use lstm::network::LstmNetwork;
use lstm::plan::{ExecutionPlan, PlanBody, PlanOutput, PlanRuntime};
use std::collections::{BTreeMap, BTreeSet};
use std::mem;
use tensor::Vector;

/// What to do with requests that cannot be served on time.
///
/// The default policy sheds nothing: every admitted request is eventually
/// served (late service resolves as
/// [`DeadlineMiss`](ServeOutcome::DeadlineMiss), never as a silent
/// success).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SheddingPolicy {
    /// Drop an arrived request whose deadline is at or before the clock
    /// when admission runs: it cannot finish in time, so serving it would
    /// only waste gang slots. Resolves as [`ShedReason::Expired`].
    pub shed_expired: bool,
    /// When [`submit`](ServeEngine::submit) finds the queue at capacity,
    /// evict the queued request with the *latest* deadline (no deadline
    /// sorts last, FIFO tiebreak) if the newcomer's deadline is strictly
    /// earlier — EDF order extends to the drop decision. The victim
    /// resolves as [`ShedReason::Evicted`]; if the newcomer would itself
    /// be the EDF-last entry, `submit` returns
    /// [`Error::QueueFull`] unchanged.
    pub evict_on_full: bool,
}

impl SheddingPolicy {
    /// Shed nothing (the default).
    pub fn none() -> Self {
        Self::default()
    }

    /// Shed expired requests at admission.
    pub fn expired() -> Self {
        Self {
            shed_expired: true,
            evict_on_full: false,
        }
    }

    /// Shed expired requests and evict latest-deadline entries for
    /// tighter-deadline arrivals at capacity.
    pub fn expired_and_evict() -> Self {
        Self {
            shed_expired: true,
            evict_on_full: true,
        }
    }
}

/// Deterministic transient-fault schedule, at execution-attempt
/// granularity.
///
/// The engine counts every round execution — including retries — on one
/// global attempt counter ([`reset`](ServeEngine::reset) rewinds it, so an
/// epoch replays its faults identically). An attempt listed here raises a
/// transient device fault: its outputs are discarded and the round
/// retries.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faulty: BTreeSet<u64>,
}

impl FaultPlan {
    /// No faults (the default).
    pub fn none() -> Self {
        Self::default()
    }

    /// Faults at exactly the given attempt indices.
    pub fn at_attempts(attempts: impl IntoIterator<Item = u64>) -> Self {
        Self {
            faulty: attempts.into_iter().collect(),
        }
    }

    /// Seeded pseudo-random faults: each attempt in `0..horizon` faults
    /// independently with probability `rate`. The draw is a SplitMix64
    /// hash of `(seed, attempt)`, so the schedule is a pure function of
    /// its arguments — reruns and replays see the same faults.
    pub fn seeded(seed: u64, rate: f64, horizon: u64) -> Self {
        let rate = rate.clamp(0.0, 1.0);
        let faulty = (0..horizon)
            .filter(|&attempt| {
                let mut z = seed
                    .wrapping_add(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(attempt.wrapping_mul(0x2545_F491_4F6C_DD1D));
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^= z >> 31;
                (z >> 11) as f64 / (1u64 << 53) as f64 <= rate
            })
            .collect();
        Self { faulty }
    }

    /// Whether `attempt` raises a transient fault.
    pub fn is_faulty(&self, attempt: u64) -> bool {
        self.faulty.contains(&attempt)
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.faulty.len()
    }

    /// Whether the plan schedules no faults.
    pub fn is_empty(&self) -> bool {
        self.faulty.is_empty()
    }
}

/// Tunables for the serve engine.
///
/// There is deliberately no `Default`: the device a round is priced on
/// changes every latency and batching decision, so callers must name it
/// ([`ServeConfig::builder`]) rather than inherit a silent Tegra X1.
/// The builder's [`build`](ServeConfigBuilder::build) validates the
/// numeric fields and returns [`Error::InvalidServeConfig`] for
/// out-of-range values (zero `max_batch`/`queue_capacity`, inverted
/// watermarks, ...). The fields are public, so [`ServeEngine::new`]
/// validates the config again before serving with it.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Maximum requests ganged into one round (the batch size cap).
    /// Must be nonzero.
    pub max_batch: usize,
    /// Maximum pending requests; [`ServeEngine::submit`] returns
    /// [`Error::QueueFull`] beyond this (or evicts, under
    /// [`SheddingPolicy::evict_on_full`]). Must be nonzero.
    pub queue_capacity: usize,
    /// The simulated device each round is priced on. Must match the
    /// device the plan was compiled for ([`ServeEngine::new`] checks).
    pub device: DeviceModel,
    /// What to do with requests that cannot be served on time.
    pub shedding: SheddingPolicy,
    /// Transient-fault schedule (default: no faults).
    pub faults: FaultPlan,
    /// Maximum retries per round after a fault; once exhausted the gang
    /// resolves as [`ServeOutcome::Failed`].
    pub max_retries: u32,
    /// Simulated delay added after each faulted attempt before the retry
    /// runs. Must be finite and non-negative.
    pub retry_backoff_s: f64,
    /// Backlog (arrived-but-unserved requests at admission) at or above
    /// which rounds switch to the fallback plan. `None` disables
    /// degradation even when a fallback is installed.
    pub degrade_high_watermark: Option<usize>,
    /// Backlog at or below which a degraded engine switches back to the
    /// primary plan. Must not exceed the high watermark.
    pub degrade_low_watermark: usize,
}

impl ServeConfig {
    /// Starts building a configuration for `device` from the stock
    /// limits (`max_batch` 8, `queue_capacity` 64, no shedding, no
    /// faults, 2 retries with zero backoff, degradation disabled).
    /// Mirrors [`OptimizerConfig::builder`](crate::exec::OptimizerConfig::builder):
    /// chain `with_*` setters, then call
    /// [`build`](ServeConfigBuilder::build), which validates once and
    /// returns every out-of-range field as a typed
    /// [`Error::InvalidServeConfig`].
    ///
    /// ```
    /// use gpu_sim::DeviceModel;
    /// use memlstm::serve::ServeConfig;
    ///
    /// let config = ServeConfig::builder(DeviceModel::default_preset())
    ///     .with_max_batch(4)
    ///     .with_queue_capacity(32)
    ///     .build()
    ///     .unwrap();
    /// assert_eq!(config.max_batch, 4);
    /// assert!(ServeConfig::builder(DeviceModel::default_preset())
    ///     .with_max_batch(0)
    ///     .build()
    ///     .is_err());
    /// ```
    pub fn builder(device: DeviceModel) -> ServeConfigBuilder {
        ServeConfigBuilder {
            config: Self {
                max_batch: 8,
                queue_capacity: 64,
                device,
                shedding: SheddingPolicy::none(),
                faults: FaultPlan::none(),
                max_retries: 2,
                retry_backoff_s: 0.0,
                degrade_high_watermark: None,
                degrade_low_watermark: 1,
            },
        }
    }

    /// Checks the numeric fields. [`ServeConfigBuilder::build`] and
    /// [`ServeEngine::new`] both call it, so a config whose public fields
    /// were edited after `build` is still rejected before serving.
    pub fn validate(&self) -> MemlstmResult<()> {
        let invalid = |field, reason| Err(Error::InvalidServeConfig { field, reason });
        if self.max_batch == 0 {
            // A zero cap admits an empty gang every round: the clock never
            // advances and `drain()` spins forever.
            return invalid("max_batch", "must be nonzero");
        }
        if self.queue_capacity == 0 {
            return invalid("queue_capacity", "must be nonzero");
        }
        if !self.retry_backoff_s.is_finite() || self.retry_backoff_s < 0.0 {
            return invalid("retry_backoff_s", "must be finite and non-negative");
        }
        if let Some(high) = self.degrade_high_watermark {
            if high == 0 {
                return invalid("degrade_high_watermark", "must be nonzero");
            }
            if self.degrade_low_watermark > high {
                return invalid(
                    "degrade_low_watermark",
                    "must not exceed the high watermark",
                );
            }
        }
        Ok(())
    }
}

/// Builds a [`ServeConfig`] field by field from the stock limits.
///
/// Created by [`ServeConfig::builder`]. Validation happens exactly once,
/// in [`build`](Self::build) — the setters are infallible so they chain
/// freely, and a misconfiguration surfaces as one typed
/// [`Error::InvalidServeConfig`] instead of a panic or a spin
/// mid-serve.
#[derive(Debug, Clone)]
pub struct ServeConfigBuilder {
    config: ServeConfig,
}

impl ServeConfigBuilder {
    /// Replaces the per-round batch-size cap.
    pub fn with_max_batch(mut self, max_batch: usize) -> Self {
        self.config.max_batch = max_batch;
        self
    }

    /// Replaces the pending-queue capacity.
    pub fn with_queue_capacity(mut self, queue_capacity: usize) -> Self {
        self.config.queue_capacity = queue_capacity;
        self
    }

    /// Replaces the shedding policy.
    pub fn with_shedding(mut self, shedding: SheddingPolicy) -> Self {
        self.config.shedding = shedding;
        self
    }

    /// Installs a transient-fault schedule.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.config.faults = faults;
        self
    }

    /// Replaces the per-round retry budget.
    pub fn with_max_retries(mut self, max_retries: u32) -> Self {
        self.config.max_retries = max_retries;
        self
    }

    /// Replaces the post-fault backoff delay.
    pub fn with_retry_backoff(mut self, retry_backoff_s: f64) -> Self {
        self.config.retry_backoff_s = retry_backoff_s;
        self
    }

    /// Sets the degradation watermarks: switch to the fallback plan when
    /// the backlog reaches `high`, back to the primary when it drains to
    /// `low`. Takes effect once a fallback plan is installed with
    /// [`ServeEngine::with_fallback`].
    pub fn with_degrade_watermarks(mut self, high: usize, low: usize) -> Self {
        self.config.degrade_high_watermark = Some(high);
        self.config.degrade_low_watermark = low;
        self
    }

    /// Validates every numeric field and finishes the configuration.
    ///
    /// # Errors
    /// [`Error::InvalidServeConfig`] for a zero `max_batch` or
    /// `queue_capacity`, a negative or non-finite retry backoff, or
    /// inverted/zero degradation watermarks.
    pub fn build(self) -> MemlstmResult<ServeConfig> {
        self.config.validate()?;
        Ok(self.config)
    }
}

/// One inference request in the open-loop arrival model.
#[derive(Debug, Clone)]
pub struct Request {
    /// Caller-chosen identifier, echoed in the request's [`ServeOutcome`].
    pub id: u64,
    /// The input sequence; must match the plan's compiled length.
    pub xs: Vec<Vector>,
    /// Simulated arrival time. A request is only eligible for admission
    /// once the clock has reached it.
    pub arrival_s: f64,
    /// Optional deadline; earlier deadlines are admitted first, and a
    /// served request that finishes past it resolves as
    /// [`ServeOutcome::DeadlineMiss`].
    pub deadline_s: Option<f64>,
}

impl Request {
    /// Checks the request's times before it is queued: a NaN arrival is
    /// never eligible for admission, so accepting one would stall
    /// [`ServeEngine::step`].
    ///
    /// # Errors
    /// [`Error::InvalidRequest`] for a non-finite or negative
    /// `arrival_s`, or a `deadline_s` that is non-finite or earlier than
    /// `arrival_s`.
    pub(crate) fn check_times(&self) -> MemlstmResult<()> {
        let invalid = |reason| {
            Err(Error::InvalidRequest {
                id: self.id,
                reason,
            })
        };
        if !self.arrival_s.is_finite() || self.arrival_s < 0.0 {
            return invalid("arrival_s must be finite and non-negative");
        }
        match self.deadline_s {
            Some(d) if !d.is_finite() || d < self.arrival_s => {
                invalid("deadline_s must be finite and not before arrival_s")
            }
            _ => Ok(()),
        }
    }
}

/// A served request's result (the payload of
/// [`ServeOutcome::Completed`] and [`ServeOutcome::DeadlineMiss`]).
#[derive(Debug, Clone)]
pub struct Completion {
    /// The request's id.
    pub id: u64,
    /// Head logits, bit-identical to a batch-of-one run of the plan the
    /// round executed (primary, or the fallback when `degraded`).
    pub logits: Vector,
    /// The request's arrival time (echoed).
    pub arrival_s: f64,
    /// The request's deadline (echoed).
    pub deadline_s: Option<f64>,
    /// Simulated time the request's round finished.
    pub finish_s: f64,
    /// `finish_s - arrival_s`: queueing delay plus round execution
    /// (including any faulted attempts and retry backoff).
    pub latency_s: f64,
    /// Size of the gang the request was served in.
    pub batch: usize,
    /// Transient-fault retries the round absorbed before succeeding.
    pub retries: u32,
    /// Whether the round ran on the degradation fallback plan.
    pub degraded: bool,
}

/// A request dropped before admission.
#[derive(Debug, Clone, PartialEq)]
pub struct Shed {
    /// The request's id.
    pub id: u64,
    /// Simulated time the request was dropped.
    pub at_s: f64,
    /// The request's deadline (echoed).
    pub deadline_s: Option<f64>,
    /// Why it was dropped.
    pub reason: ShedReason,
}

/// Why a request was shed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// Its deadline had already passed at admission time
    /// ([`SheddingPolicy::shed_expired`]).
    Expired,
    /// Evicted at capacity by a tighter-deadline arrival
    /// ([`SheddingPolicy::evict_on_full`]).
    Evicted,
    /// Discarded still-pending by [`ServeEngine::reset`].
    Reset,
    /// Re-routed off a quarantined fleet device, but no surviving device
    /// had queue capacity left
    /// (see [`FleetEngine`](crate::fleet::FleetEngine)).
    Overflow,
}

impl ShedReason {
    /// Every reason, in canonical order. [`name`](Self::name) indexes
    /// [`NAMES`](Self::NAMES) through this order, so the enum, the name
    /// table, and any rollup keyed on it cannot drift apart — the
    /// exhaustiveness test pins the correspondence.
    pub const ALL: [ShedReason; 4] = [
        ShedReason::Expired,
        ShedReason::Evicted,
        ShedReason::Reset,
        ShedReason::Overflow,
    ];

    /// Short lowercase name per reason, in [`ALL`](Self::ALL) order
    /// (used in metrics, logs, and bench JSON).
    pub const NAMES: [&'static str; 4] = ["expired", "evicted", "reset", "overflow"];

    /// This reason's position in [`ALL`](Self::ALL). The match is
    /// exhaustive on purpose: adding a variant fails to compile until it
    /// takes a slot in the canonical tables.
    pub fn index(self) -> usize {
        match self {
            ShedReason::Expired => 0,
            ShedReason::Evicted => 1,
            ShedReason::Reset => 2,
            ShedReason::Overflow => 3,
        }
    }

    /// Short lowercase name (used in metrics and logs), from the
    /// canonical [`NAMES`](Self::NAMES) table.
    pub fn name(self) -> &'static str {
        Self::NAMES[self.index()]
    }
}

/// A request whose round exhausted its retry budget.
#[derive(Debug, Clone, PartialEq)]
pub struct Failure {
    /// The request's id.
    pub id: u64,
    /// Simulated time the final attempt faulted.
    pub at_s: f64,
    /// Retries spent before giving up (`== max_retries`).
    pub retries: u32,
}

/// The one terminal state of a submitted request.
///
/// Exactly one outcome is produced per successfully submitted request —
/// `tests/serve_qos.rs` proves the conservation property.
#[derive(Debug, Clone)]
pub enum ServeOutcome {
    /// Served, deadline met (or none set).
    Completed(Completion),
    /// Served, but after its deadline — delivered *and* flagged.
    DeadlineMiss(Completion),
    /// Dropped before admission.
    Shed(Shed),
    /// Transient faults exhausted the retry budget.
    Failed(Failure),
}

impl ServeOutcome {
    /// The request's id.
    pub fn id(&self) -> u64 {
        match self {
            ServeOutcome::Completed(c) | ServeOutcome::DeadlineMiss(c) => c.id,
            ServeOutcome::Shed(s) => s.id,
            ServeOutcome::Failed(f) => f.id,
        }
    }

    /// The served payload, when the request produced logits
    /// (completed or deadline-missed).
    pub fn completion(&self) -> Option<&Completion> {
        match self {
            ServeOutcome::Completed(c) | ServeOutcome::DeadlineMiss(c) => Some(c),
            _ => None,
        }
    }

    /// Whether the request completed within its deadline.
    pub fn is_success(&self) -> bool {
        matches!(self, ServeOutcome::Completed(_))
    }

    /// Short lowercase name per outcome kind, in
    /// [`kind_index`](Self::kind_index) order. [`kind`](Self::kind) and
    /// every metrics rollup derive from this one table, so a new variant
    /// cannot ship with an ad-hoc string or silently miss a counter —
    /// the exhaustiveness test pins the correspondence.
    pub const KINDS: [&'static str; 4] = ["completed", "deadline_miss", "shed", "failed"];

    /// This outcome's position in [`KINDS`](Self::KINDS). The match is
    /// exhaustive on purpose: adding a variant fails to compile until it
    /// takes a slot in the canonical table.
    pub fn kind_index(&self) -> usize {
        match self {
            ServeOutcome::Completed(_) => 0,
            ServeOutcome::DeadlineMiss(_) => 1,
            ServeOutcome::Shed(_) => 2,
            ServeOutcome::Failed(_) => 3,
        }
    }

    /// Short lowercase name of the outcome kind, from the canonical
    /// [`KINDS`](Self::KINDS) table.
    pub fn kind(&self) -> &'static str {
        Self::KINDS[self.kind_index()]
    }
}

/// Summary of one executed round.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundReport {
    /// Round index within the current epoch, starting at 0.
    pub round: usize,
    /// Requests ganged this round.
    pub batch: usize,
    /// Simulated clock when the round started.
    pub start_s: f64,
    /// End-to-end simulated time of the round: the batched kernel stream
    /// plus any faulted attempts and retry backoff.
    pub time_s: f64,
    /// Ids served (or failed), in admission order.
    pub ids: Vec<u64>,
    /// Backlog (arrived-but-unserved requests, gang included) when
    /// admission ran.
    pub queue_depth: usize,
    /// Transient-fault retries the round absorbed.
    pub retries: u32,
    /// Whether the round ran on the degradation fallback plan.
    pub degraded: bool,
    /// Whether the round exhausted its retry budget (its gang resolved as
    /// [`ServeOutcome::Failed`]).
    pub failed: bool,
}

/// One degradation switch.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradeEvent {
    /// Round index (within the epoch) the switch took effect.
    pub round: usize,
    /// Simulated clock at the switch.
    pub at_s: f64,
    /// `true`: primary → fallback; `false`: fallback → primary.
    pub to_fallback: bool,
    /// Backlog that triggered the switch.
    pub queue_depth: usize,
}

/// SLO attainment for one deadline class.
///
/// Requests are classed by their *relative* deadline
/// (`deadline_s - arrival_s`) on fixed decade buckets, plus a `"none"`
/// class for deadline-free requests. A request is *met* when it resolves
/// as [`ServeOutcome::Completed`]; shed, failed, and deadline-missed
/// requests all count against attainment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SloClass {
    /// Class label (`"none"`, `"<1ms"`, `"1-10ms"`, `"10-100ms"`,
    /// `"100ms-1s"`, `">=1s"`).
    pub class: &'static str,
    /// Requests of this class that resolved (any outcome).
    pub total: u64,
    /// Requests of this class that resolved as `Completed`.
    pub met: u64,
}

fn deadline_class(arrival_s: f64, deadline_s: Option<f64>) -> &'static str {
    match deadline_s {
        None => "none",
        Some(d) => {
            let rel = d - arrival_s;
            if rel < 1e-3 {
                "<1ms"
            } else if rel < 1e-2 {
                "1-10ms"
            } else if rel < 1e-1 {
                "10-100ms"
            } else if rel < 1.0 {
                "100ms-1s"
            } else {
                ">=1s"
            }
        }
    }
}

/// Rollup of one serving epoch: outcome counts, SLO attainment per
/// deadline class, fault/retry/degradation activity, and the queue-depth
/// timeline. Built by [`ServeEngine::metrics`] from counters that survive
/// [`drain`](ServeEngine::drain) (only [`reset`](ServeEngine::reset)
/// clears them).
#[derive(Debug, Clone, PartialEq)]
pub struct ServeMetrics {
    /// Requests accepted by [`submit`](ServeEngine::submit) this epoch.
    pub submitted: u64,
    /// Requests served within their deadline (or deadline-free).
    pub completed: u64,
    /// Requests served late.
    pub deadline_miss: u64,
    /// Requests dropped before admission.
    pub shed: u64,
    /// Requests lost to exhausted retry budgets.
    pub failed: u64,
    /// Transient faults raised.
    pub faults: u64,
    /// Retries executed (faults that were absorbed).
    pub retries: u64,
    /// Primary → fallback switches.
    pub degrade_switches: u64,
    /// Rounds executed on the fallback plan.
    pub degraded_rounds: u64,
    /// Rounds executed.
    pub rounds: u64,
    /// Mean gang size over rounds, as a fraction of `max_batch`.
    pub mean_utilization: f64,
    /// Per-deadline-class SLO attainment, ordered by class label.
    pub slo: Vec<SloClass>,
    /// `(round start clock, backlog at admission)` per round.
    pub queue_depth_timeline: Vec<(f64, usize)>,
}

impl ServeMetrics {
    /// The four outcome counters in [`ServeOutcome::KINDS`] order —
    /// rollups (fleet aggregation, bench JSON) iterate this instead of
    /// naming fields, so a new outcome kind extends every consumer in
    /// one place.
    pub fn outcome_counts(&self) -> [u64; 4] {
        [self.completed, self.deadline_miss, self.shed, self.failed]
    }

    /// Overall SLO attainment: `met / total` over deadline-bearing
    /// classes (1.0 when no request carried a deadline).
    pub fn slo_attainment(&self) -> f64 {
        let (met, total) = self
            .slo
            .iter()
            .filter(|c| c.class != "none")
            .fold((0u64, 0u64), |(m, t), c| (m + c.met, t + c.total));
        if total == 0 {
            1.0
        } else {
            met as f64 / total as f64
        }
    }
}

#[derive(Debug)]
struct Pending {
    request: Request,
    /// FIFO tiebreak: position in submission order.
    seq: u64,
}

impl Pending {
    fn deadline(&self) -> f64 {
        self.request.deadline_s.unwrap_or(f64::INFINITY)
    }
}

/// Round-based batched serving of one compiled [`ExecutionPlan`].
///
/// Submit requests with [`submit`](Self::submit), run rounds with
/// [`step`](Self::step) or serve everything with [`drain`](Self::drain),
/// then read the epoch rollup with [`metrics`](Self::metrics).
/// [`reset`](Self::reset) starts a fresh epoch that replays a trace
/// bit-identically to a fresh engine.
#[derive(Debug)]
pub struct ServeEngine<'a> {
    plan: &'a ExecutionPlan,
    fallback: Option<&'a ExecutionPlan>,
    net: &'a LstmNetwork,
    config: ServeConfig,
    queue: Vec<Pending>,
    rounds: Vec<RoundReport>,
    outcomes: Vec<ServeOutcome>,
    events: Vec<DegradeEvent>,
    runtime: PlanRuntime,
    /// The simulated device every attempt is priced on, reset before
    /// each one (a reset device holds exactly what a fresh one does).
    device: GpuDevice,
    /// Gang input slots, recycled across rounds (requests' sequences are
    /// moved in rather than cloned).
    seqs: Vec<Vec<Vector>>,
    /// Per-sequence outputs, recycled across rounds by
    /// [`PlanRuntime::run_lstm_batch_into`].
    outs: Vec<PlanOutput>,
    clock_s: f64,
    submitted: u64,
    /// Global execution-attempt counter ([`FaultPlan`] granularity).
    attempts: u64,
    degraded: bool,
    epoch: usize,
    // Epoch counters that survive `drain()` taking the outcomes.
    completed: u64,
    deadline_miss: u64,
    shed: u64,
    failed: u64,
    faults: u64,
    retries: u64,
    slo: BTreeMap<&'static str, (u64, u64)>,
}

impl<'a> ServeEngine<'a> {
    /// Creates an engine for `plan` over `net`.
    ///
    /// Every gang member runs on the plan's device — a round is one
    /// lockstep kernel stream, so requests cannot be priced on different
    /// hardware. The config therefore has to name the same device the
    /// plan was compiled for.
    ///
    /// # Errors
    /// [`Error::InvalidServeConfig`] if [`ServeConfig::validate`] rejects
    /// the config (its fields are public, so `build` is not enough),
    /// [`Error::GruPlan`] if the plan was compiled for a GRU network,
    /// [`Error::LayerCountMismatch`] if the plan and network disagree,
    /// or [`Error::DeviceMismatch`] if the config's device is not the
    /// plan's.
    pub fn new(
        plan: &'a ExecutionPlan,
        net: &'a LstmNetwork,
        config: ServeConfig,
    ) -> MemlstmResult<Self> {
        config.validate()?;
        Self::check_plan(plan, net, &config)?;
        let device = GpuDevice::for_model(&config.device);
        Ok(Self {
            plan,
            fallback: None,
            net,
            config,
            queue: Vec::new(),
            rounds: Vec::new(),
            outcomes: Vec::new(),
            events: Vec::new(),
            runtime: PlanRuntime::new(),
            device,
            seqs: Vec::new(),
            outs: Vec::new(),
            clock_s: 0.0,
            submitted: 0,
            attempts: 0,
            degraded: false,
            epoch: 0,
            completed: 0,
            deadline_miss: 0,
            shed: 0,
            failed: 0,
            faults: 0,
            retries: 0,
            slo: BTreeMap::new(),
        })
    }

    fn check_plan(
        plan: &ExecutionPlan,
        net: &LstmNetwork,
        config: &ServeConfig,
    ) -> MemlstmResult<()> {
        let PlanBody::Lstm(layer_plans) = &plan.body else {
            return Err(Error::GruPlan);
        };
        if layer_plans.len() != net.layers().len() {
            return Err(Error::LayerCountMismatch {
                plan: layer_plans.len(),
                network: net.layers().len(),
            });
        }
        if plan.device != config.device {
            return Err(Error::DeviceMismatch {
                plan: plan.device.name.clone(),
                device: config.device.name.clone(),
            });
        }
        Ok(())
    }

    /// Installs the overload-degradation fallback plan (e.g. a cheaper
    /// DRS scheme compiled for the same network, device, and sequence
    /// length). Rounds switch to it when the backlog reaches the config's
    /// high watermark and back at the low watermark.
    ///
    /// # Errors
    /// The same structural checks as [`new`](Self::new), plus
    /// [`Error::SeqLenMismatch`] if the fallback was compiled for a
    /// different sequence length than the primary plan.
    pub fn with_fallback(mut self, fallback: &'a ExecutionPlan) -> MemlstmResult<Self> {
        Self::check_plan(fallback, self.net, &self.config)?;
        if fallback.seq_len != self.plan.seq_len {
            return Err(Error::SeqLenMismatch {
                expected: self.plan.seq_len,
                actual: fallback.seq_len,
            });
        }
        self.fallback = Some(fallback);
        Ok(self)
    }

    /// Enqueues a request.
    ///
    /// # Errors
    /// [`Error::InvalidRequest`] for unusable times (a non-finite or
    /// negative arrival, a non-finite deadline or one before the
    /// arrival), [`Error::EmptyInput`] for an empty sequence,
    /// [`Error::SeqLenMismatch`] if the sequence does not match the
    /// plan's compiled length, and [`Error::QueueFull`] at capacity —
    /// unless [`SheddingPolicy::evict_on_full`] finds a latest-deadline
    /// victim to shed for a strictly tighter-deadline newcomer.
    pub fn submit(&mut self, request: Request) -> MemlstmResult<()> {
        request.check_times()?;
        if request.xs.is_empty() {
            return Err(Error::EmptyInput);
        }
        if request.xs.len() != self.plan.seq_len {
            return Err(Error::SeqLenMismatch {
                expected: self.plan.seq_len,
                actual: request.xs.len(),
            });
        }
        if self.queue.len() >= self.config.queue_capacity {
            if !self.config.shedding.evict_on_full {
                return Err(Error::QueueFull {
                    capacity: self.config.queue_capacity,
                });
            }
            // EDF eviction: the victim is the entry served last under
            // EDF order (latest deadline, then latest submission).
            let victim = self
                .queue
                .iter()
                .enumerate()
                .max_by(|(_, a), (_, b)| {
                    a.deadline()
                        .total_cmp(&b.deadline())
                        .then(a.seq.cmp(&b.seq))
                })
                .map(|(i, _)| i)
                .expect("capacity is nonzero, so a full queue is non-empty");
            let newcomer = request.deadline_s.unwrap_or(f64::INFINITY);
            if newcomer >= self.queue[victim].deadline() {
                return Err(Error::QueueFull {
                    capacity: self.config.queue_capacity,
                });
            }
            let evicted = self.queue.remove(victim);
            self.resolve_shed(evicted, ShedReason::Evicted);
        }
        let seq = self.submitted;
        self.submitted += 1;
        self.queue.push(Pending { request, seq });
        Ok(())
    }

    /// Pending requests not yet resolved (arrived or not).
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// The current simulated clock.
    pub fn clock_s(&self) -> f64 {
        self.clock_s
    }

    /// The current epoch (bumped by [`reset`](Self::reset)).
    pub fn epoch(&self) -> usize {
        self.epoch
    }

    /// Reports for the rounds executed this epoch.
    pub fn rounds(&self) -> &[RoundReport] {
        &self.rounds
    }

    /// Degradation switches recorded this epoch.
    pub fn degrade_events(&self) -> &[DegradeEvent] {
        &self.events
    }

    /// Outcomes resolved so far and not yet taken by
    /// [`drain`](Self::drain), in resolution order.
    pub fn outcomes(&self) -> &[ServeOutcome] {
        &self.outcomes
    }

    /// Records `request`'s one outcome: bumps the outcome kind's counter
    /// and the SLO tally of the request's deadline class (from its
    /// `(arrival_s, deadline_s)`), then queues the outcome for
    /// [`drain`](Self::drain).
    fn resolve(&mut self, request: &Request, outcome: ServeOutcome) {
        match &outcome {
            ServeOutcome::Completed(_) => self.completed += 1,
            ServeOutcome::DeadlineMiss(_) => self.deadline_miss += 1,
            ServeOutcome::Shed(_) => self.shed += 1,
            ServeOutcome::Failed(_) => self.failed += 1,
        }
        let class = deadline_class(request.arrival_s, request.deadline_s);
        let entry = self.slo.entry(class).or_insert((0, 0));
        entry.0 += 1;
        if outcome.is_success() {
            entry.1 += 1;
        }
        self.outcomes.push(outcome);
    }

    /// [`resolve`](Self::resolve)s `pending` as shed now, for `reason`.
    fn resolve_shed(&mut self, pending: Pending, reason: ShedReason) {
        let shed = ServeOutcome::Shed(Shed {
            id: pending.request.id,
            at_s: self.clock_s,
            deadline_s: pending.request.deadline_s,
            reason,
        });
        self.resolve(&pending.request, shed);
    }

    /// Runs one round: sheds expired requests (per the policy), admits up
    /// to `max_batch` eligible requests (earliest-deadline-first, FIFO
    /// tiebreak), checks the degradation watermarks, executes the gang in
    /// lockstep on a fresh simulated device (retrying transient faults up
    /// to the budget), and advances the clock by the round's end-to-end
    /// simulated time.
    ///
    /// Returns `None` if the queue is empty (a call that only sheds —
    /// every arrived request had expired — still returns the next round,
    /// or `None` once nothing is left). If no queued request has arrived
    /// yet the clock first jumps to the earliest arrival (the device
    /// would otherwise sit idle).
    pub fn step(&mut self) -> Option<RoundReport> {
        let (mut gang, queue_depth) = loop {
            if self.queue.is_empty() {
                return None;
            }
            let earliest = self
                .queue
                .iter()
                .map(|p| p.request.arrival_s)
                .fold(f64::INFINITY, f64::min);
            if earliest > self.clock_s {
                self.clock_s = earliest;
            }
            if self.config.shedding.shed_expired {
                // An arrived request whose deadline is at or before the
                // clock cannot finish in time (rounds take positive
                // simulated time): shed instead of wasting a gang slot.
                let mut i = 0;
                while i < self.queue.len() {
                    let r = &self.queue[i].request;
                    if r.arrival_s <= self.clock_s
                        && r.deadline_s.is_some_and(|d| d <= self.clock_s)
                    {
                        let expired = self.queue.remove(i);
                        self.resolve_shed(expired, ShedReason::Expired);
                    } else {
                        i += 1;
                    }
                }
            }
            let mut eligible: Vec<usize> = (0..self.queue.len())
                .filter(|&i| self.queue[i].request.arrival_s <= self.clock_s)
                .collect();
            if eligible.is_empty() {
                // Everything arrived was shed; jump to the next arrival
                // (the queue shrank, so this terminates).
                continue;
            }
            let backlog = eligible.len();
            eligible.sort_by(|&a, &b| {
                let (pa, pb) = (&self.queue[a], &self.queue[b]);
                pa.deadline()
                    .total_cmp(&pb.deadline())
                    .then(pa.seq.cmp(&pb.seq))
            });
            eligible.truncate(self.config.max_batch);

            // Remove admitted entries back-to-front so indices stay
            // valid, then restore admission order.
            let mut removal = eligible.clone();
            removal.sort_unstable_by(|a, b| b.cmp(a));
            let mut gang: Vec<Pending> = removal
                .into_iter()
                .map(|i| self.queue.swap_remove(i))
                .collect();
            gang.sort_by(|a, b| {
                a.deadline()
                    .total_cmp(&b.deadline())
                    .then(a.seq.cmp(&b.seq))
            });
            break (gang, backlog);
        };

        // Degradation watermarks are evaluated against the backlog at
        // admission; a switch takes effect for this round.
        let round_index = self.rounds.len();
        if let (Some(_), Some(high)) = (self.fallback, self.config.degrade_high_watermark) {
            let flipped = if !self.degraded && queue_depth >= high {
                self.degraded = true;
                true
            } else if self.degraded && queue_depth <= self.config.degrade_low_watermark {
                self.degraded = false;
                true
            } else {
                false
            };
            if flipped {
                self.events.push(DegradeEvent {
                    round: round_index,
                    at_s: self.clock_s,
                    to_fallback: self.degraded,
                    queue_depth,
                });
            }
        }
        let plan = if self.degraded {
            self.fallback
                .expect("degraded only with a fallback installed")
        } else {
            self.plan
        };

        // The gang is consumed this round, so its sequences move into the
        // recycled input slots instead of being cloned.
        self.seqs.clear();
        self.seqs
            .extend(gang.iter_mut().map(|p| mem::take(&mut p.request.xs)));

        let start_s = self.clock_s;
        let mut round_retries = 0u32;
        let report = loop {
            // Every round (and every retry) starts from a reset device:
            // each attempt is priced from a cold cache, so attempt times
            // are order-independent and a retry replays the identical
            // kernel stream on the identical inputs — which is why
            // retried logits are bit-identical to fault-free runs.
            let attempt = self.attempts;
            self.attempts += 1;
            self.device.reset();
            let mut session = self.device.begin_trace();
            self.runtime.run_lstm_batch_into(
                plan,
                self.net,
                &self.seqs,
                &mut session,
                &mut self.outs,
            );
            let report = session.finish();
            if self.config.faults.is_faulty(attempt) {
                // The attempt's work ran and was lost: its simulated time
                // (plus the backoff) elapses, its outputs are discarded.
                self.faults += 1;
                self.clock_s += report.time_s + self.config.retry_backoff_s;
                if round_retries >= self.config.max_retries {
                    for pending in &gang {
                        let failure = ServeOutcome::Failed(Failure {
                            id: pending.request.id,
                            at_s: self.clock_s,
                            retries: round_retries,
                        });
                        self.resolve(&pending.request, failure);
                    }
                    let round = RoundReport {
                        round: round_index,
                        batch: gang.len(),
                        start_s,
                        time_s: self.clock_s - start_s,
                        ids: gang.iter().map(|p| p.request.id).collect(),
                        queue_depth,
                        retries: round_retries,
                        degraded: self.degraded,
                        failed: true,
                    };
                    self.rounds.push(round.clone());
                    return Some(round);
                }
                round_retries += 1;
                self.retries += 1;
                continue;
            }
            break report;
        };

        self.clock_s += report.time_s;
        let finish_s = self.clock_s;
        let batch = gang.len();
        // Move the recycled output slots out so resolving (which borrows
        // `self` mutably) can run inside the loop, then hand them back.
        let outs = mem::take(&mut self.outs);
        for (pending, output) in gang.iter().zip(&outs) {
            let completion = Completion {
                id: pending.request.id,
                logits: output.logits.clone(),
                arrival_s: pending.request.arrival_s,
                deadline_s: pending.request.deadline_s,
                finish_s,
                latency_s: finish_s - pending.request.arrival_s,
                batch,
                retries: round_retries,
                degraded: self.degraded,
            };
            let outcome = match pending.request.deadline_s {
                Some(d) if finish_s > d => ServeOutcome::DeadlineMiss(completion),
                _ => ServeOutcome::Completed(completion),
            };
            self.resolve(&pending.request, outcome);
        }
        self.outs = outs;
        let round = RoundReport {
            round: round_index,
            batch,
            start_s,
            time_s: finish_s - start_s,
            ids: gang.iter().map(|p| p.request.id).collect(),
            queue_depth,
            retries: round_retries,
            degraded: self.degraded,
            failed: false,
        };
        self.rounds.push(round.clone());
        Some(round)
    }

    /// Runs rounds until the queue is empty and returns every outcome
    /// resolved so far (including from earlier [`step`](Self::step)
    /// calls), in resolution order. Round reports, degradation events,
    /// and [`metrics`](Self::metrics) counters keep accumulating across
    /// `drain` calls; [`reset`](Self::reset) starts a fresh epoch.
    pub fn drain(&mut self) -> Vec<ServeOutcome> {
        while self.step().is_some() {}
        mem::take(&mut self.outcomes)
    }

    /// Removes every still-pending request *without* resolving it, in
    /// submission order, and returns the original [`Request`]s.
    ///
    /// This deliberately breaks the engine-local outcome-conservation
    /// invariant — the caller takes over responsibility for the
    /// requests. [`FleetEngine`](crate::fleet::FleetEngine) uses it to
    /// drain a quarantined device's backlog and re-route it to
    /// survivors, where each request resolves exactly once fleet-wide.
    pub fn take_pending(&mut self) -> Vec<Request> {
        let mut pending = mem::take(&mut self.queue);
        pending.sort_by_key(|p| p.seq);
        pending.into_iter().map(|p| p.request).collect()
    }

    /// Ends the current epoch: still-pending requests are shed
    /// ([`ShedReason::Reset`]) and returned together with any
    /// not-yet-drained outcomes, then the clock, round reports,
    /// degradation state, attempt counter, and metrics are cleared and
    /// the epoch index bumps. Replaying a trace after `reset` is
    /// bit-identical to a fresh engine (the [`FaultPlan`] replays too,
    /// since the attempt counter rewinds).
    pub fn reset(&mut self) -> Vec<ServeOutcome> {
        let pending = mem::take(&mut self.queue);
        for p in pending {
            self.resolve_shed(p, ShedReason::Reset);
        }
        let leftovers = mem::take(&mut self.outcomes);
        self.rounds.clear();
        self.events.clear();
        self.clock_s = 0.0;
        self.submitted = 0;
        self.attempts = 0;
        self.degraded = false;
        self.completed = 0;
        self.deadline_miss = 0;
        self.shed = 0;
        self.failed = 0;
        self.faults = 0;
        self.retries = 0;
        self.slo.clear();
        self.epoch += 1;
        leftovers
    }

    /// The epoch's QoS rollup. Counters survive [`drain`](Self::drain);
    /// only [`reset`](Self::reset) clears them.
    pub fn metrics(&self) -> ServeMetrics {
        let rounds = self.rounds.len() as u64;
        let mean_utilization = if self.rounds.is_empty() {
            0.0
        } else {
            let total: usize = self.rounds.iter().map(|r| r.batch).sum();
            total as f64 / (self.rounds.len() * self.config.max_batch) as f64
        };
        ServeMetrics {
            submitted: self.submitted,
            completed: self.completed,
            deadline_miss: self.deadline_miss,
            shed: self.shed,
            failed: self.failed,
            faults: self.faults,
            retries: self.retries,
            degrade_switches: self.events.iter().filter(|e| e.to_fallback).count() as u64,
            degraded_rounds: self.rounds.iter().filter(|r| r.degraded).count() as u64,
            rounds,
            mean_utilization,
            slo: self
                .slo
                .iter()
                .map(|(&class, &(total, met))| SloClass { class, total, met })
                .collect(),
            queue_depth_timeline: self
                .rounds
                .iter()
                .map(|r| (r.start_s, r.queue_depth))
                .collect(),
        }
    }

    /// Folds the epoch's QoS counters into a Chrome trace as process
    /// `pid`: per-round counter tracks for the backlog, gang size,
    /// degradation state, and retries, on the simulated timeline
    /// (microseconds). Loads in `chrome://tracing` / Perfetto alongside
    /// the kernel spans the profiler exports.
    pub fn add_counter_tracks(&self, trace: &mut ChromeTrace, pid: u32, process_name: &str) {
        trace.add_process_name(pid, process_name);
        for r in &self.rounds {
            let ts = r.start_s * 1e6;
            trace.add_counter(pid, "queue_depth", ts, &[("backlog", r.queue_depth as f64)]);
            trace.add_counter(pid, "gang", ts, &[("batch", r.batch as f64)]);
            trace.add_counter(
                pid,
                "degraded",
                ts,
                &[("on_fallback", f64::from(u8::from(r.degraded)))],
            );
            trace.add_counter(pid, "retries", ts, &[("in_round", f64::from(r.retries))]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lstm::plan::PlanRuntime;
    use lstm::{LstmNetwork, ModelConfig};

    fn config() -> ServeConfigBuilder {
        ServeConfig::builder(DeviceModel::default_preset())
    }
    use tensor::init::seeded_rng;

    fn setup(seed: u64) -> (LstmNetwork, ExecutionPlan, Vec<Vec<Vector>>) {
        let config = ModelConfig::new("serve-test", 10, 20, 2, 6, 3).unwrap();
        let mut rng = seeded_rng(seed);
        let net = LstmNetwork::random(&config, &mut rng);
        let seqs: Vec<Vec<Vector>> = (0..6)
            .map(|_| lstm::random_inputs(&config, &mut rng))
            .collect();
        let plan =
            ExecutionPlan::compile_baseline(&net, seqs[0].len(), &DeviceModel::default_preset());
        (net, plan, seqs)
    }

    fn request(id: u64, xs: &[Vector], arrival_s: f64) -> Request {
        Request {
            id,
            xs: xs.to_vec(),
            arrival_s,
            deadline_s: None,
        }
    }

    fn completions(outcomes: &[ServeOutcome]) -> Vec<&Completion> {
        outcomes.iter().filter_map(|o| o.completion()).collect()
    }

    #[test]
    fn served_logits_are_bit_identical_to_solo_runs() {
        let (net, plan, seqs) = setup(1);
        let mut engine = ServeEngine::new(&plan, &net, config().build().unwrap()).unwrap();
        for (i, xs) in seqs.iter().enumerate() {
            engine.submit(request(i as u64, xs, 0.0)).unwrap();
        }
        let outcomes = engine.drain();
        assert_eq!(outcomes.len(), seqs.len());
        assert!(outcomes.iter().all(ServeOutcome::is_success));
        for c in completions(&outcomes) {
            let solo = PlanRuntime::new().run_lstm(
                &plan,
                &net,
                &seqs[c.id as usize],
                &mut lstm::plan::NullSink,
            );
            assert_eq!(c.logits, solo.logits, "request {} drifted", c.id);
        }
    }

    #[test]
    fn batching_beats_serial_service_time() {
        let (net, plan, seqs) = setup(2);
        let mut serial =
            ServeEngine::new(&plan, &net, config().with_max_batch(1).build().unwrap()).unwrap();
        let mut batched = ServeEngine::new(&plan, &net, config().build().unwrap()).unwrap();
        for (i, xs) in seqs.iter().enumerate() {
            serial.submit(request(i as u64, xs, 0.0)).unwrap();
            batched.submit(request(i as u64, xs, 0.0)).unwrap();
        }
        serial.drain();
        batched.drain();
        assert!(
            batched.clock_s() < serial.clock_s() / 2.0,
            "batched {} vs serial {}",
            batched.clock_s(),
            serial.clock_s()
        );
    }

    #[test]
    fn admission_is_deadline_first_then_fifo() {
        let (net, plan, seqs) = setup(3);
        let mut engine =
            ServeEngine::new(&plan, &net, config().with_max_batch(2).build().unwrap()).unwrap();
        // Submission order 0..3; 2 has the tightest deadline, 3 the next.
        let deadlines = [None, None, Some(0.5), Some(0.9)];
        for (i, d) in deadlines.iter().enumerate() {
            engine
                .submit(Request {
                    deadline_s: *d,
                    ..request(i as u64, &seqs[i], 0.0)
                })
                .unwrap();
        }
        let first = engine.step().unwrap();
        assert_eq!(first.ids, vec![2, 3], "deadline holders go first");
        let second = engine.step().unwrap();
        assert_eq!(second.ids, vec![0, 1], "then FIFO among the rest");
    }

    #[test]
    fn late_arrivals_join_later_rounds() {
        let (net, plan, seqs) = setup(4);
        let mut engine = ServeEngine::new(&plan, &net, config().build().unwrap()).unwrap();
        engine.submit(request(0, &seqs[0], 0.0)).unwrap();
        // Arrives long after round 0 finishes.
        engine.submit(request(1, &seqs[1], 1e9)).unwrap();
        let r0 = engine.step().unwrap();
        assert_eq!(r0.ids, vec![0]);
        let r1 = engine.step().unwrap();
        assert_eq!(r1.ids, vec![1]);
        assert!(r1.start_s >= 1e9, "clock jumps to the arrival");
        let outcomes = engine.drain();
        assert_eq!(outcomes.len(), 2);
        let late = completions(&outcomes)[1];
        assert!(late.latency_s < late.finish_s);
    }

    #[test]
    fn queue_capacity_backpressure() {
        let (net, plan, seqs) = setup(5);
        let mut engine = ServeEngine::new(
            &plan,
            &net,
            config().with_queue_capacity(2).build().unwrap(),
        )
        .unwrap();
        engine.submit(request(0, &seqs[0], 0.0)).unwrap();
        engine.submit(request(1, &seqs[1], 0.0)).unwrap();
        let err = engine.submit(request(2, &seqs[2], 0.0)).unwrap_err();
        assert_eq!(err, Error::QueueFull { capacity: 2 });
        // A round frees capacity.
        engine.step().unwrap();
        engine.submit(request(2, &seqs[2], 0.0)).unwrap();
    }

    #[test]
    fn submit_validates_sequences() {
        let (net, plan, seqs) = setup(6);
        let mut engine = ServeEngine::new(&plan, &net, config().build().unwrap()).unwrap();
        assert_eq!(
            engine.submit(request(0, &[], 0.0)).unwrap_err(),
            Error::EmptyInput
        );
        let short = &seqs[0][..seqs[0].len() - 1];
        assert_eq!(
            engine.submit(request(1, short, 0.0)).unwrap_err(),
            Error::SeqLenMismatch {
                expected: plan.seq_len,
                actual: plan.seq_len - 1
            }
        );
    }

    #[test]
    fn gru_plan_is_rejected() {
        let (net, _, seqs) = setup(7);
        let mut rng = seeded_rng(8);
        let gru = lstm::gru_exec::GruNetwork::random(10, 20, 2, 3, &mut rng);
        let plan = ExecutionPlan::compile_gru_baseline(
            &gru,
            seqs[0].len(),
            &DeviceModel::default_preset(),
        );
        assert_eq!(
            ServeEngine::new(&plan, &net, config().build().unwrap()).unwrap_err(),
            Error::GruPlan
        );
    }

    #[test]
    fn rounds_report_batch_sizes_and_clock_advances() {
        let (net, plan, seqs) = setup(9);
        let mut engine =
            ServeEngine::new(&plan, &net, config().with_max_batch(4).build().unwrap()).unwrap();
        for (i, xs) in seqs.iter().enumerate() {
            engine.submit(request(i as u64, xs, 0.0)).unwrap();
        }
        engine.drain();
        let batches: Vec<usize> = engine.rounds().iter().map(|r| r.batch).collect();
        assert_eq!(batches, vec![4, 2]);
        assert!(engine.rounds()[1].start_s > engine.rounds()[0].start_s);
        assert_eq!(engine.rounds()[0].queue_depth, 6);
        assert_eq!(engine.rounds()[1].queue_depth, 2);
        assert!(engine.step().is_none(), "drained engine has no work");
    }

    #[test]
    fn zero_max_batch_and_zero_capacity_are_rejected_by_build() {
        assert_eq!(
            config().with_max_batch(0).build().unwrap_err(),
            Error::InvalidServeConfig {
                field: "max_batch",
                reason: "must be nonzero"
            }
        );
        assert_eq!(
            config().with_queue_capacity(0).build().unwrap_err(),
            Error::InvalidServeConfig {
                field: "queue_capacity",
                reason: "must be nonzero"
            }
        );
        assert_eq!(
            config().with_retry_backoff(-1.0).build().unwrap_err(),
            Error::InvalidServeConfig {
                field: "retry_backoff_s",
                reason: "must be finite and non-negative"
            }
        );
        assert_eq!(
            config().with_degrade_watermarks(2, 5).build().unwrap_err(),
            Error::InvalidServeConfig {
                field: "degrade_low_watermark",
                reason: "must not exceed the high watermark"
            }
        );
        assert_eq!(
            config().with_degrade_watermarks(0, 0).build().unwrap_err(),
            Error::InvalidServeConfig {
                field: "degrade_high_watermark",
                reason: "must be nonzero"
            }
        );
        // The fields are public: `ServeEngine::new` catches a built config
        // edited afterwards, which would panic in `step` or `submit`.
        let (net, plan, _) = setup(3);
        let mut zero_batch = config().build().unwrap();
        zero_batch.max_batch = 0;
        let mut zero_capacity = config()
            .with_shedding(SheddingPolicy::expired_and_evict())
            .build()
            .unwrap();
        zero_capacity.queue_capacity = 0;
        for (edited, field) in [(zero_batch, "max_batch"), (zero_capacity, "queue_capacity")] {
            assert_eq!(
                ServeEngine::new(&plan, &net, edited).unwrap_err(),
                Error::InvalidServeConfig {
                    field,
                    reason: "must be nonzero"
                }
            );
        }
    }

    #[test]
    fn canonical_kind_and_reason_tables_are_exhaustive() {
        // One instance of every outcome kind; `kind_index`'s match is
        // exhaustive, so a new variant cannot compile without taking a
        // table slot, and this test pins that the slots stay distinct
        // and the metrics rollup counts by the same order.
        let completion = Completion {
            id: 0,
            logits: Vector::from(vec![0.0]),
            arrival_s: 0.0,
            deadline_s: None,
            finish_s: 1.0,
            latency_s: 1.0,
            batch: 1,
            retries: 0,
            degraded: false,
        };
        let outcomes = [
            ServeOutcome::Completed(completion.clone()),
            ServeOutcome::DeadlineMiss(completion),
            ServeOutcome::Shed(Shed {
                id: 0,
                at_s: 0.0,
                deadline_s: None,
                reason: ShedReason::Expired,
            }),
            ServeOutcome::Failed(Failure {
                id: 0,
                at_s: 0.0,
                retries: 1,
            }),
        ];
        assert_eq!(outcomes.len(), ServeOutcome::KINDS.len());
        for (i, o) in outcomes.iter().enumerate() {
            assert_eq!(o.kind_index(), i, "table order drifted for {}", o.kind());
            assert_eq!(o.kind(), ServeOutcome::KINDS[i]);
        }
        let mut kinds = ServeOutcome::KINDS.to_vec();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds.len(), ServeOutcome::KINDS.len(), "duplicate kind");

        assert_eq!(ShedReason::ALL.len(), ShedReason::NAMES.len());
        for (i, r) in ShedReason::ALL.iter().enumerate() {
            assert_eq!(r.index(), i, "ALL order drifted for {}", r.name());
            assert_eq!(r.name(), ShedReason::NAMES[i]);
        }
        let mut names = ShedReason::NAMES.to_vec();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ShedReason::NAMES.len(), "duplicate name");
    }

    #[test]
    fn metrics_count_outcomes_in_canonical_kind_order() {
        // Serve a mix that produces one of each engine-resolvable kind
        // and check `outcome_counts` lines up with `KINDS`.
        let (net, plan, seqs) = setup(40);
        let mut engine = ServeEngine::new(
            &plan,
            &net,
            config()
                .with_max_batch(1)
                .with_shedding(SheddingPolicy::expired())
                .build()
                .unwrap(),
        )
        .unwrap();
        engine.submit(request(0, &seqs[0], 0.0)).unwrap(); // completed
        engine
            .submit(Request {
                deadline_s: Some(1e-12),
                ..request(1, &seqs[1], 0.0)
            })
            .unwrap(); // deadline miss (round 2 finishes after it)
        engine
            .submit(Request {
                deadline_s: Some(1e-9),
                ..request(2, &seqs[2], 1e-10)
            })
            .unwrap(); // expires while round 1 runs -> shed
        let outcomes = engine.drain();
        let m = engine.metrics();
        let counts = m.outcome_counts();
        let mut expected = [0u64; 4];
        for o in &outcomes {
            expected[o.kind_index()] += 1;
        }
        assert_eq!(counts, expected);
        assert_eq!(counts.iter().sum::<u64>(), outcomes.len() as u64);
        assert!(counts[2] >= 1, "expected at least one shed: {counts:?}");
    }

    #[test]
    fn late_service_is_flagged_as_deadline_miss_not_success() {
        let (net, plan, seqs) = setup(11);
        let mut engine = ServeEngine::new(&plan, &net, config().build().unwrap()).unwrap();
        // An impossible deadline: the round takes positive simulated time.
        engine
            .submit(Request {
                deadline_s: Some(1e-12),
                ..request(0, &seqs[0], 0.0)
            })
            .unwrap();
        let outcomes = engine.drain();
        assert_eq!(outcomes.len(), 1);
        match &outcomes[0] {
            ServeOutcome::DeadlineMiss(c) => {
                assert_eq!(c.id, 0);
                assert!(c.finish_s > c.deadline_s.unwrap());
            }
            other => panic!("expected DeadlineMiss, got {}", other.kind()),
        }
        let m = engine.metrics();
        assert_eq!((m.completed, m.deadline_miss), (0, 1));
        assert_eq!(m.slo_attainment(), 0.0);
    }

    #[test]
    fn expired_requests_are_shed_under_the_policy() {
        let (net, plan, seqs) = setup(12);
        let mut engine = ServeEngine::new(
            &plan,
            &net,
            config()
                .with_max_batch(1)
                .with_shedding(SheddingPolicy::expired())
                .build()
                .unwrap(),
        )
        .unwrap();
        // Request 1 arrives just after round 0 starts and its deadline
        // expires while that round runs — by admission time it is dead.
        engine.submit(request(0, &seqs[0], 0.0)).unwrap();
        engine
            .submit(Request {
                deadline_s: Some(1e-8),
                ..request(1, &seqs[1], 1e-9)
            })
            .unwrap();
        let outcomes = engine.drain();
        assert_eq!(outcomes.len(), 2);
        let shed: Vec<_> = outcomes
            .iter()
            .filter_map(|o| match o {
                ServeOutcome::Shed(s) => Some(s),
                _ => None,
            })
            .collect();
        assert_eq!(shed.len(), 1);
        assert_eq!(shed[0].id, 1);
        assert_eq!(shed[0].reason, ShedReason::Expired);
        assert_eq!(engine.metrics().shed, 1);
    }

    #[test]
    fn eviction_sheds_the_latest_deadline_entry_for_a_tighter_one() {
        let (net, plan, seqs) = setup(13);
        let mut engine = ServeEngine::new(
            &plan,
            &net,
            config()
                .with_queue_capacity(2)
                .with_shedding(SheddingPolicy::expired_and_evict())
                .build()
                .unwrap(),
        )
        .unwrap();
        engine
            .submit(Request {
                deadline_s: Some(0.5),
                ..request(0, &seqs[0], 0.0)
            })
            .unwrap();
        engine
            .submit(Request {
                deadline_s: Some(0.9),
                ..request(1, &seqs[1], 0.0)
            })
            .unwrap();
        // No deadline sorts last: rejected even with eviction enabled.
        assert_eq!(
            engine.submit(request(2, &seqs[2], 0.0)).unwrap_err(),
            Error::QueueFull { capacity: 2 }
        );
        // A tighter deadline evicts the EDF-last entry (id 1).
        engine
            .submit(Request {
                deadline_s: Some(0.1),
                ..request(3, &seqs[3], 0.0)
            })
            .unwrap();
        let outcomes = engine.drain();
        let shed: Vec<u64> = outcomes
            .iter()
            .filter(|o| matches!(o, ServeOutcome::Shed(_)))
            .map(ServeOutcome::id)
            .collect();
        assert_eq!(shed, vec![1]);
        match &outcomes[0] {
            ServeOutcome::Shed(s) => assert_eq!(s.reason, ShedReason::Evicted),
            other => panic!("expected Shed first, got {}", other.kind()),
        }
    }

    #[test]
    fn faulted_rounds_retry_and_produce_bit_identical_logits() {
        let (net, plan, seqs) = setup(14);
        let submit_all = |engine: &mut ServeEngine| {
            for (i, xs) in seqs.iter().enumerate() {
                engine.submit(request(i as u64, xs, 0.0)).unwrap();
            }
        };
        let mut clean =
            ServeEngine::new(&plan, &net, config().with_max_batch(2).build().unwrap()).unwrap();
        submit_all(&mut clean);
        let clean_outcomes = clean.drain();

        let mut faulty = ServeEngine::new(
            &plan,
            &net,
            config()
                .with_max_batch(2)
                .with_faults(FaultPlan::at_attempts([0, 3]))
                .with_retry_backoff(0.25)
                .build()
                .unwrap(),
        )
        .unwrap();
        submit_all(&mut faulty);
        let faulty_outcomes = faulty.drain();

        assert_eq!(clean_outcomes.len(), faulty_outcomes.len());
        for (a, b) in clean_outcomes.iter().zip(&faulty_outcomes) {
            let (ca, cb) = (a.completion().unwrap(), b.completion().unwrap());
            assert_eq!(ca.id, cb.id);
            assert_eq!(ca.logits, cb.logits, "retry drifted request {}", ca.id);
        }
        let m = faulty.metrics();
        assert_eq!((m.faults, m.retries, m.failed), (2, 2, 0));
        assert!(
            faulty.clock_s() > clean.clock_s(),
            "faults cost simulated time"
        );
        // The retried rounds flag their retries.
        let retried: Vec<u32> = faulty.rounds().iter().map(|r| r.retries).collect();
        assert_eq!(retried.iter().sum::<u32>(), 2);
    }

    #[test]
    fn exhausted_retries_fail_the_gang() {
        let (net, plan, seqs) = setup(15);
        let mut engine = ServeEngine::new(
            &plan,
            &net,
            config()
                .with_max_batch(2)
                .with_faults(FaultPlan::at_attempts([0, 1, 2]))
                .with_max_retries(2)
                .build()
                .unwrap(),
        )
        .unwrap();
        engine.submit(request(0, &seqs[0], 0.0)).unwrap();
        engine.submit(request(1, &seqs[1], 0.0)).unwrap();
        let outcomes = engine.drain();
        assert_eq!(outcomes.len(), 2);
        for o in &outcomes {
            match o {
                ServeOutcome::Failed(f) => assert_eq!(f.retries, 2),
                other => panic!("expected Failed, got {}", other.kind()),
            }
        }
        let m = engine.metrics();
        assert_eq!((m.failed, m.faults, m.retries), (2, 3, 2));
        assert!(engine.rounds()[0].failed);
    }

    #[test]
    fn reset_replays_a_trace_bit_identically_to_a_fresh_engine() {
        let (net, plan, seqs) = setup(16);
        let cfg = || {
            config()
                .with_max_batch(2)
                .with_faults(FaultPlan::at_attempts([1]))
                .build()
                .unwrap()
        };
        let run = |engine: &mut ServeEngine| {
            for (i, xs) in seqs.iter().enumerate() {
                engine
                    .submit(request(i as u64, xs, 1e-5 * i as f64))
                    .unwrap();
            }
            engine.drain()
        };
        let mut fresh = ServeEngine::new(&plan, &net, cfg()).unwrap();
        let first = run(&mut fresh);

        let mut reused = ServeEngine::new(&plan, &net, cfg()).unwrap();
        run(&mut reused);
        assert_eq!(reused.epoch(), 0);
        let leftovers = reused.reset();
        assert!(leftovers.is_empty(), "drain already took the outcomes");
        assert_eq!(reused.epoch(), 1);
        assert_eq!(reused.rounds().len(), 0, "reset clears the round log");
        assert_eq!(reused.clock_s(), 0.0);
        assert_eq!(reused.metrics().submitted, 0);

        let second = run(&mut reused);
        assert_eq!(first.len(), second.len());
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.kind(), b.kind());
            let (ca, cb) = (a.completion().unwrap(), b.completion().unwrap());
            assert_eq!(ca.id, cb.id);
            assert_eq!(ca.logits, cb.logits);
            assert_eq!(ca.finish_s.to_bits(), cb.finish_s.to_bits());
            assert_eq!(ca.retries, cb.retries);
        }
        assert_eq!(reused.rounds(), fresh.rounds());
        assert_eq!(reused.clock_s().to_bits(), fresh.clock_s().to_bits());
        assert_eq!(reused.metrics(), fresh.metrics());
    }

    #[test]
    fn reset_sheds_still_pending_requests() {
        let (net, plan, seqs) = setup(17);
        let mut engine =
            ServeEngine::new(&plan, &net, config().with_max_batch(1).build().unwrap()).unwrap();
        engine.submit(request(0, &seqs[0], 0.0)).unwrap();
        engine.submit(request(1, &seqs[1], 0.0)).unwrap();
        engine.step().unwrap();
        let leftovers = engine.reset();
        assert_eq!(leftovers.len(), 2, "one completion + one reset shed");
        assert!(leftovers[0].is_success());
        match &leftovers[1] {
            ServeOutcome::Shed(s) => {
                assert_eq!(s.id, 1);
                assert_eq!(s.reason, ShedReason::Reset);
            }
            other => panic!("expected Shed(Reset), got {}", other.kind()),
        }
        assert_eq!(engine.pending(), 0);
    }

    #[test]
    fn degradation_switches_to_fallback_and_back() {
        let (net, plan, seqs) = setup(18);
        // A second baseline plan stands in for the cheaper scheme: the
        // switch mechanics are identical, and logits stay comparable.
        let fallback =
            ExecutionPlan::compile_baseline(&net, seqs[0].len(), &DeviceModel::default_preset());
        let mut engine = ServeEngine::new(
            &plan,
            &net,
            config()
                .with_max_batch(1)
                .with_degrade_watermarks(4, 1)
                .build()
                .unwrap(),
        )
        .unwrap()
        .with_fallback(&fallback)
        .unwrap();
        for (i, xs) in seqs.iter().enumerate() {
            engine.submit(request(i as u64, xs, 0.0)).unwrap();
        }
        let outcomes = engine.drain();
        let events = engine.degrade_events();
        assert_eq!(events.len(), 2, "one switch out, one switch back");
        assert!(events[0].to_fallback && events[0].queue_depth >= 4);
        assert!(!events[1].to_fallback && events[1].queue_depth <= 1);
        let degraded: Vec<bool> = engine.rounds().iter().map(|r| r.degraded).collect();
        assert_eq!(degraded, vec![true, true, true, true, true, false]);
        for c in completions(&outcomes) {
            let expect_degraded = c.id != 5;
            assert_eq!(c.degraded, expect_degraded, "request {}", c.id);
        }
        let m = engine.metrics();
        assert_eq!((m.degrade_switches, m.degraded_rounds), (1, 5));
    }

    #[test]
    fn fallback_is_validated_like_the_primary_plan() {
        let (net, plan, seqs) = setup(19);
        let short = ExecutionPlan::compile_baseline(
            &net,
            seqs[0].len() - 1,
            &DeviceModel::default_preset(),
        );
        let err = ServeEngine::new(&plan, &net, config().build().unwrap())
            .unwrap()
            .with_fallback(&short)
            .unwrap_err();
        assert_eq!(
            err,
            Error::SeqLenMismatch {
                expected: plan.seq_len,
                actual: plan.seq_len - 1
            }
        );
    }

    #[test]
    fn metrics_and_counter_tracks_roll_up_the_epoch() {
        let (net, plan, seqs) = setup(20);
        let mut engine =
            ServeEngine::new(&plan, &net, config().with_max_batch(4).build().unwrap()).unwrap();
        for (i, xs) in seqs.iter().enumerate() {
            engine
                .submit(Request {
                    deadline_s: Some(1e6),
                    ..request(i as u64, xs, 0.0)
                })
                .unwrap();
        }
        engine.drain();
        let m = engine.metrics();
        assert_eq!(m.submitted, 6);
        assert_eq!(m.completed, 6);
        assert_eq!(m.rounds, 2);
        assert_eq!(m.mean_utilization, 6.0 / 8.0);
        assert_eq!(m.queue_depth_timeline.len(), 2);
        assert_eq!(m.queue_depth_timeline[0].1, 6);
        assert_eq!(m.slo.len(), 1);
        assert_eq!(
            m.slo[0],
            SloClass {
                class: ">=1s",
                total: 6,
                met: 6
            }
        );
        assert_eq!(m.slo_attainment(), 1.0);

        let mut trace = ChromeTrace::new();
        engine.add_counter_tracks(&mut trace, 7, "serve");
        let json = trace.to_json();
        assert_eq!(
            gpu_sim::profile::validate_chrome_trace(&json),
            Ok(1 + 2 * 4),
            "process name + 4 counters per round: {json}"
        );
        assert!(json.contains("\"queue_depth\""), "{json}");
        assert!(json.contains("\"ph\":\"C\""), "{json}");
    }

    #[test]
    fn seeded_fault_plans_are_deterministic() {
        let a = FaultPlan::seeded(42, 0.3, 100);
        let b = FaultPlan::seeded(42, 0.3, 100);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        assert!(a.len() < 100);
        assert!(FaultPlan::seeded(42, 0.0, 100).is_empty());
        assert_eq!(FaultPlan::seeded(42, 1.0, 100).len(), 100);
        assert_ne!(FaultPlan::seeded(43, 0.3, 100), a, "seed moves the plan");
    }
}
