//! Heterogeneous multi-device fleet serving with pluggable routing.
//!
//! The paper's central cost model says weight reloads dominate mobile-GPU
//! LSTM inference (Sec. III-A: reload factors up to ~100x), which makes
//! *where* a request runs a first-order scheduling decision: a device
//! whose L2 weight budget covers the plan's weights streams them from
//! on-chip memory, while an undersized device re-streams the overflow
//! from DRAM every timestep. [`FleetEngine`] scales the single-device
//! [`ServeEngine`] to a sharded fleet of heterogeneous [`DeviceModel`]s
//! — one engine and one compiled plan per device — and routes each
//! [`Request`] through a pluggable
//! [`RoutePolicy`]:
//!
//! * [`RoundRobin`] — cycle through healthy devices, blind to load and
//!   hardware;
//! * [`LeastQueueDepth`] — pick the healthy device with the shortest
//!   backlog;
//! * [`Affinity`] — pick the device with the earliest *estimated
//!   completion*, pricing each backlog slot at the device's analytic
//!   weight-service time ([`DeviceModel::weight_service_s`]): the
//!   on-chip streaming cost of the resident fraction plus the DRAM
//!   reload cost of whatever spills the L2 weight budget. A device past
//!   the residency cliff (e.g. `adreno_5xx` under a plan that fits
//!   `tegra_x1`) quotes a much slower slot, so affinity sends it less
//!   work instead of splitting evenly.
//!
//! # One clock, many devices
//!
//! Each member engine keeps its own simulated clock; the fleet advances
//! the engine whose clock is furthest behind first
//! ([`step`](FleetEngine::step) picks the minimum-clock member with
//! pending work), which interleaves rounds across devices the way one
//! global clock would. [`clock_s`](FleetEngine::clock_s) (the makespan)
//! is the maximum member clock.
//!
//! # Fault storms and re-routing
//!
//! A device whose rounds keep failing (retry budget exhausted,
//! [`RoundReport::failed`]) is **quarantined** after a configurable run
//! of consecutive failed rounds: its backlog is pulled with
//! [`ServeEngine::take_pending`](crate::serve::ServeEngine::take_pending)
//! and re-routed to the surviving devices through the same policy.
//! Requests no survivor can accept resolve as
//! [`ShedReason::Overflow`] at the fleet level — every submitted id
//! still resolves to **exactly one** [`ServeOutcome`] fleet-wide
//! (`tests/fleet.rs` pins this as a property test).
//!
//! # Bit-identity
//!
//! Routing moves only *pricing* (which simulated clock pays for the
//! round), never numerics: when every member plan carries the same
//! numerics — true for baseline plans, whose outputs are
//! device-independent (pinned in `tests/devices.rs`) — a request's
//! logits are byte-identical regardless of which device or policy served
//! it, and identical to a solo (batch-of-one)
//! [`PlanRuntime`](lstm::plan::PlanRuntime) run.
//!
//! Requests are validated before routing: unusable times surface as
//! [`Error::InvalidRequest`] and the policy never sees them.

use crate::error::{Error, MemlstmResult};
use crate::serve::{
    Request, RoundReport, ServeConfig, ServeEngine, ServeMetrics, ServeOutcome, Shed, ShedReason,
};
use gpu_sim::profile::ChromeTrace;
use gpu_sim::DeviceModel;
use lstm::network::LstmNetwork;
use lstm::plan::ExecutionPlan;

/// A healthy fleet member's state, as shown to a [`RoutePolicy`].
///
/// Policies receive one snapshot per *healthy* (non-quarantined) device;
/// `index` is the device's fleet-wide index, which is what
/// [`RoutePolicy::route`] must return.
#[derive(Debug)]
pub struct DeviceStatus<'a> {
    /// Fleet-wide device index (stable across quarantines).
    pub index: usize,
    /// The member's hardware model.
    pub device: &'a DeviceModel,
    /// Requests queued on the member, not yet resolved.
    pub pending: usize,
    /// The member's simulated clock.
    pub clock_s: f64,
    /// Requests routed to this member so far (including re-routes).
    pub routed: u64,
    /// Total weight bytes of the network the member's plan serves.
    pub weight_bytes: u64,
    /// The member plan's compiled sequence length.
    pub seq_len: usize,
}

impl DeviceStatus<'_> {
    /// The member's estimated completion time for one more request:
    /// the later of its clock and the request's arrival, plus one
    /// weight-service pass per timestep for every queued request and the
    /// newcomer. This is the [`Affinity`] score — an analytic stand-in
    /// for cache residency that needs no simulated cache state.
    pub fn estimated_completion_s(&self, arrival_s: f64) -> f64 {
        let slot_s = self.seq_len as f64 * self.device.weight_service_s(self.weight_bytes);
        self.clock_s.max(arrival_s) + (self.pending + 1) as f64 * slot_s
    }
}

/// Picks a device for each incoming request.
///
/// `route` sees only *healthy* members and must return the
/// [`DeviceStatus::index`] of one of them; anything else is a policy bug
/// and surfaces as [`Error::FleetRouteIndex`]. Policies may keep state
/// (round-robin cursors, learned estimates) — the fleet owns the policy
/// and calls it for both fresh submissions and quarantine re-routes.
pub trait RoutePolicy {
    /// The policy's stable name, used in benchmark and metrics output.
    fn name(&self) -> &'static str;
    /// Chooses the fleet-wide index of a healthy device for `request`.
    fn route(&mut self, request: &Request, healthy: &[DeviceStatus<'_>]) -> usize;
}

/// Cycle through healthy devices in index order, blind to load.
#[derive(Debug, Default)]
pub struct RoundRobin {
    next: u64,
}

impl RoutePolicy for RoundRobin {
    fn name(&self) -> &'static str {
        "round_robin"
    }

    fn route(&mut self, _request: &Request, healthy: &[DeviceStatus<'_>]) -> usize {
        let pick = (self.next as usize) % healthy.len();
        self.next += 1;
        healthy[pick].index
    }
}

/// Send each request to the healthy device with the shortest backlog
/// (ties broken by lowest index). Load-aware but hardware-blind: a slow
/// device with a short queue still wins.
#[derive(Debug, Default)]
pub struct LeastQueueDepth;

impl RoutePolicy for LeastQueueDepth {
    fn name(&self) -> &'static str {
        "least_queue_depth"
    }

    fn route(&mut self, _request: &Request, healthy: &[DeviceStatus<'_>]) -> usize {
        healthy
            .iter()
            .min_by_key(|s| (s.pending, s.index))
            .expect("route is only called with a non-empty healthy set")
            .index
    }
}

/// Send each request to the device with the earliest estimated
/// completion ([`DeviceStatus::estimated_completion_s`]), which prices
/// each backlog slot at the device's weight-residency-aware service
/// time. Devices whose L2 weight budget covers the plan quote on-chip
/// streaming; devices past the residency cliff quote the DRAM reload
/// penalty and naturally receive less work.
#[derive(Debug, Default)]
pub struct Affinity;

impl RoutePolicy for Affinity {
    fn name(&self) -> &'static str {
        "affinity"
    }

    fn route(&mut self, request: &Request, healthy: &[DeviceStatus<'_>]) -> usize {
        healthy
            .iter()
            .min_by(|a, b| {
                a.estimated_completion_s(request.arrival_s)
                    .total_cmp(&b.estimated_completion_s(request.arrival_s))
                    .then(a.index.cmp(&b.index))
            })
            .expect("route is only called with a non-empty healthy set")
            .index
    }
}

/// One fleet member: a per-device serve engine plus routing bookkeeping.
struct Member<'a> {
    engine: ServeEngine<'a>,
    device: DeviceModel,
    seq_len: usize,
    weight_bytes: u64,
    routed: u64,
    quarantined: bool,
    consecutive_failed: u32,
}

/// A resolved outcome tagged with the device that resolved it.
///
/// `device` is `None` for fleet-level overflow sheds — requests pulled
/// off a quarantined device that no survivor could accept.
#[derive(Debug, Clone)]
pub struct FleetOutcome {
    /// Index of the resolving device, or `None` for an overflow shed.
    pub device: Option<usize>,
    /// The underlying per-request outcome.
    pub outcome: ServeOutcome,
}

/// One device's slice of the fleet rollup.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceMetrics {
    /// Fleet-wide device index.
    pub index: usize,
    /// Device preset name.
    pub name: String,
    /// Requests routed to this device (including re-routes onto it).
    pub routed: u64,
    /// Whether the device ended the epoch quarantined.
    pub quarantined: bool,
    /// The member engine's own QoS rollup.
    pub serve: ServeMetrics,
}

/// Fleet-wide QoS rollup: per-device metrics plus cross-device
/// aggregates.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetMetrics {
    /// One entry per member, in fleet index order.
    pub per_device: Vec<DeviceMetrics>,
    /// Requests the fleet accepted (routed into some member queue).
    pub submitted: u64,
    /// Completions within deadline, fleet-wide.
    pub completed: u64,
    /// Served-but-late requests, fleet-wide.
    pub deadline_miss: u64,
    /// Shed requests fleet-wide, *including* overflow sheds.
    pub shed: u64,
    /// Requests that exhausted their retry budget, fleet-wide.
    pub failed: u64,
    /// Requests pulled off quarantined devices and re-accepted by a
    /// survivor.
    pub rerouted: u64,
    /// Requests pulled off quarantined devices that no survivor could
    /// accept ([`ShedReason::Overflow`]).
    pub overflow_shed: u64,
    /// Devices quarantined during the epoch.
    pub quarantined_devices: u64,
    /// Fleet-wide SLO attainment: outcomes that met their deadline class
    /// over all classified outcomes (overflow sheds count as misses).
    pub slo_attainment: f64,
    /// Routing imbalance: the spread between the largest and smallest
    /// per-device share of routed requests (0 = perfectly even,
    /// approaches 1 as one device takes everything). Quarantined devices
    /// are excluded — a drained device is imbalance by design.
    pub utilization_imbalance: f64,
    /// The makespan: the maximum member clock.
    pub makespan_s: f64,
}

/// A multi-device serving tier: N per-device [`ServeEngine`]s behind one
/// [`RoutePolicy`]. See the [module docs](self) for the full model.
pub struct FleetEngine<'a> {
    members: Vec<Member<'a>>,
    policy: Box<dyn RoutePolicy + 'a>,
    /// Consecutive failed rounds on one device before it is quarantined.
    quarantine_after: u32,
    /// Fleet-level overflow sheds (no member resolved these).
    overflow: Vec<ServeOutcome>,
    rerouted: u64,
    overflow_shed: u64,
}

impl<'a> FleetEngine<'a> {
    /// Builds a fleet over `net` from `(plan, config)` pairs — one
    /// member per pair, each plan compiled for its config's device
    /// (plans are device-bound; [`ServeEngine::new`] enforces the
    /// match). All plans must share one compiled sequence length so a
    /// quarantined member's backlog can re-route anywhere.
    ///
    /// # Errors
    /// [`Error::FleetEmpty`] with no members, [`Error::SeqLenMismatch`]
    /// if the plans disagree on sequence length, plus everything
    /// [`ServeEngine::new`] rejects per member.
    pub fn new(
        net: &'a LstmNetwork,
        members: Vec<(&'a ExecutionPlan, ServeConfig)>,
        policy: Box<dyn RoutePolicy + 'a>,
    ) -> MemlstmResult<Self> {
        if members.is_empty() {
            return Err(Error::FleetEmpty);
        }
        let seq_len = members[0].0.seq_len;
        let mut built = Vec::with_capacity(members.len());
        for (plan, config) in members {
            if plan.seq_len != seq_len {
                return Err(Error::SeqLenMismatch {
                    expected: seq_len,
                    actual: plan.seq_len,
                });
            }
            // Residency facts follow each member's own plan: a member
            // serving a quantized plan budgets the shrunken weight
            // working set, which moves its Affinity quotes.
            let weight_bytes = net.config().total_weight_bytes_at(plan.precision);
            let device = config.device.clone();
            built.push(Member {
                engine: ServeEngine::new(plan, net, config)?,
                device,
                seq_len,
                weight_bytes,
                routed: 0,
                quarantined: false,
                consecutive_failed: 0,
            });
        }
        Ok(Self {
            members: built,
            policy,
            quarantine_after: 2,
            overflow: Vec::new(),
            rerouted: 0,
            overflow_shed: 0,
        })
    }

    /// Sets how many *consecutive* failed rounds quarantine a device
    /// (default 2). A single absorbed fault never quarantines — only
    /// rounds whose retry budget was exhausted count, and any successful
    /// round resets the run.
    pub fn with_quarantine_after(mut self, rounds: u32) -> Self {
        self.quarantine_after = rounds.max(1);
        self
    }

    /// Snapshots of the healthy members, in fleet index order. A free
    /// function over the member slice so callers can keep `self.policy`
    /// mutably borrowed alongside the snapshots.
    fn healthy_of<'m>(members: &'m [Member<'_>]) -> Vec<DeviceStatus<'m>> {
        members
            .iter()
            .enumerate()
            .filter(|(_, m)| !m.quarantined)
            .map(|(index, m)| DeviceStatus {
                index,
                device: &m.device,
                pending: m.engine.pending(),
                clock_s: m.engine.clock_s(),
                routed: m.routed,
                weight_bytes: m.weight_bytes,
                seq_len: m.seq_len,
            })
            .collect()
    }

    /// Routes `request` through the policy and enqueues it on the chosen
    /// device. Returns the device index that accepted it.
    ///
    /// # Errors
    /// [`Error::InvalidRequest`] for unusable times (checked before the
    /// policy sees the request), [`Error::FleetAllQuarantined`] if no
    /// healthy device remains, [`Error::FleetRouteIndex`] if the policy
    /// picked an out-of-range or quarantined device, plus the chosen
    /// engine's own [`submit`](ServeEngine::submit) errors
    /// ([`Error::QueueFull`], [`Error::SeqLenMismatch`], ...), which leave
    /// the fleet unchanged.
    pub fn submit(&mut self, request: Request) -> MemlstmResult<usize> {
        request.check_times()?;
        let healthy = Self::healthy_of(&self.members);
        if healthy.is_empty() {
            return Err(Error::FleetAllQuarantined);
        }
        let index = self.policy.route(&request, &healthy);
        let valid = healthy.iter().any(|s| s.index == index);
        if !valid {
            return Err(Error::FleetRouteIndex {
                index,
                devices: self.members.len(),
            });
        }
        self.members[index].engine.submit(request)?;
        self.members[index].routed += 1;
        Ok(index)
    }

    /// Runs one round on the healthy member whose clock is furthest
    /// behind (ties broken by lowest index), returning the device index
    /// and its round report. Returns `None` when no healthy member has
    /// pending work.
    ///
    /// If the round pushes the member past the quarantine threshold, the
    /// member is quarantined and its backlog re-routed before `step`
    /// returns; the report still describes the failed round.
    pub fn step(&mut self) -> Option<(usize, RoundReport)> {
        loop {
            let index = self
                .members
                .iter()
                .enumerate()
                .filter(|(_, m)| !m.quarantined && m.engine.pending() > 0)
                .min_by(|(ai, a), (bi, b)| {
                    a.engine
                        .clock_s()
                        .total_cmp(&b.engine.clock_s())
                        .then(ai.cmp(bi))
                })
                .map(|(i, _)| i)?;
            let Some(report) = self.members[index].engine.step() else {
                // Every pending request had expired: the engine shed them
                // all and ran no round. That resolved work — pick again.
                continue;
            };
            if report.failed {
                self.members[index].consecutive_failed += 1;
                if self.members[index].consecutive_failed >= self.quarantine_after {
                    self.quarantine(index);
                }
            } else {
                self.members[index].consecutive_failed = 0;
            }
            return Some((index, report));
        }
    }

    /// Quarantines member `index`: pulls its backlog and re-routes each
    /// request through the policy among the survivors. Requests nobody
    /// accepts resolve as fleet-level [`ShedReason::Overflow`] sheds, so
    /// nothing is silently lost.
    fn quarantine(&mut self, index: usize) {
        self.members[index].quarantined = true;
        let backlog = self.members[index].engine.take_pending();
        for request in backlog {
            let healthy = Self::healthy_of(&self.members);
            let shed_at = self.members[index].engine.clock_s();
            if healthy.is_empty() {
                self.shed_overflow(request, shed_at);
                continue;
            }
            // The policy's pick first, then the remaining survivors in
            // index order — a full queue on one device must not lose the
            // request if another still has room. A rejected submit
            // (QueueFull; structural mismatches were ruled out at
            // construction) never enqueues, so trying the next survivor
            // with a clone is safe.
            let pick = self.policy.route(&request, &healthy);
            let mut order: Vec<usize> = Vec::with_capacity(healthy.len());
            if healthy.iter().any(|s| s.index == pick) {
                order.push(pick);
            }
            order.extend(healthy.iter().map(|s| s.index).filter(|&i| i != pick));
            let mut placed = false;
            for target in order {
                if self.members[target].engine.submit(request.clone()).is_ok() {
                    self.members[target].routed += 1;
                    self.rerouted += 1;
                    placed = true;
                    break;
                }
            }
            if !placed {
                self.shed_overflow(request, shed_at);
            }
        }
    }

    fn shed_overflow(&mut self, request: Request, at_s: f64) {
        self.overflow_shed += 1;
        self.overflow.push(ServeOutcome::Shed(Shed {
            id: request.id,
            at_s,
            deadline_s: request.deadline_s,
            reason: ShedReason::Overflow,
        }));
    }

    /// Runs rounds across the fleet until no healthy member has pending
    /// work, then returns every outcome resolved so far — per-member
    /// outcomes tagged with their device index, followed by fleet-level
    /// overflow sheds (`device: None`).
    pub fn drain(&mut self) -> Vec<FleetOutcome> {
        while self.step().is_some() {}
        let mut all = Vec::new();
        for (index, member) in self.members.iter_mut().enumerate() {
            all.extend(
                member
                    .engine
                    .drain()
                    .into_iter()
                    .map(|outcome| FleetOutcome {
                        device: Some(index),
                        outcome,
                    }),
            );
        }
        all.extend(self.overflow.drain(..).map(|outcome| FleetOutcome {
            device: None,
            outcome,
        }));
        all
    }

    /// Total pending requests across healthy members.
    pub fn pending(&self) -> usize {
        self.members
            .iter()
            .filter(|m| !m.quarantined)
            .map(|m| m.engine.pending())
            .sum()
    }

    /// The makespan so far: the maximum member clock.
    pub fn clock_s(&self) -> f64 {
        self.members
            .iter()
            .map(|m| m.engine.clock_s())
            .fold(0.0, f64::max)
    }

    /// Number of member devices (healthy or not).
    pub fn devices(&self) -> usize {
        self.members.len()
    }

    /// Whether member `index` is quarantined.
    pub fn is_quarantined(&self, index: usize) -> bool {
        self.members[index].quarantined
    }

    /// The fleet-wide QoS rollup. See [`FleetMetrics`] for the exact
    /// aggregate definitions.
    pub fn metrics(&self) -> FleetMetrics {
        let per_device: Vec<DeviceMetrics> = self
            .members
            .iter()
            .enumerate()
            .map(|(index, m)| DeviceMetrics {
                index,
                name: m.device.name.clone(),
                routed: m.routed,
                quarantined: m.quarantined,
                serve: m.engine.metrics(),
            })
            .collect();
        let sum = |f: fn(&ServeMetrics) -> u64| per_device.iter().map(|d| f(&d.serve)).sum::<u64>();
        let submitted = sum(|s| s.submitted);
        let (mut slo_total, mut slo_met) = (0u64, 0u64);
        for d in &per_device {
            for class in &d.serve.slo {
                slo_total += class.total;
                slo_met += class.met;
            }
        }
        // Overflow sheds were never classified by any member; they are
        // fleet-level misses.
        slo_total += self.overflow_shed;
        let healthy_routed: Vec<u64> = per_device
            .iter()
            .filter(|d| !d.quarantined)
            .map(|d| d.routed)
            .collect();
        let routed_total: u64 = healthy_routed.iter().sum();
        let utilization_imbalance = if healthy_routed.len() < 2 || routed_total == 0 {
            0.0
        } else {
            let max = *healthy_routed.iter().max().expect("non-empty") as f64;
            let min = *healthy_routed.iter().min().expect("non-empty") as f64;
            (max - min) / routed_total as f64
        };
        FleetMetrics {
            submitted,
            completed: sum(|s| s.completed),
            deadline_miss: sum(|s| s.deadline_miss),
            shed: sum(|s| s.shed) + self.overflow_shed,
            failed: sum(|s| s.failed),
            rerouted: self.rerouted,
            overflow_shed: self.overflow_shed,
            quarantined_devices: per_device.iter().filter(|d| d.quarantined).count() as u64,
            slo_attainment: if slo_total == 0 {
                1.0
            } else {
                slo_met as f64 / slo_total as f64
            },
            utilization_imbalance,
            makespan_s: self.clock_s(),
            per_device,
        }
    }

    /// Folds every member's per-round counter tracks into one Chrome
    /// trace, one process per device (`pid` = fleet index), named
    /// `fleet/<preset> #<index>`. Loads in `chrome://tracing` /
    /// Perfetto with one lane per device.
    pub fn add_counter_tracks(&self, trace: &mut ChromeTrace) {
        for (index, m) in self.members.iter().enumerate() {
            let name = format!("fleet/{} #{index}", m.device.name);
            m.engine.add_counter_tracks(trace, index as u32, &name);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::FaultPlan;
    use lstm::{LstmNetwork, ModelConfig};
    use tensor::init::seeded_rng;
    use tensor::Vector;

    fn setup(n: usize) -> (LstmNetwork, Vec<Vec<Vector>>) {
        let config = ModelConfig::new("fleet-test", 10, 20, 2, 6, 3).unwrap();
        let mut rng = seeded_rng(42);
        let net = LstmNetwork::random(&config, &mut rng);
        let seqs = (0..n)
            .map(|_| lstm::random_inputs(&config, &mut rng))
            .collect();
        (net, seqs)
    }

    fn request(id: u64, xs: &[Vector], arrival_s: f64) -> Request {
        Request {
            id,
            xs: xs.to_vec(),
            arrival_s,
            deadline_s: None,
        }
    }

    fn plans_for(net: &LstmNetwork, seq_len: usize, devices: &[DeviceModel]) -> Vec<ExecutionPlan> {
        devices
            .iter()
            .map(|d| ExecutionPlan::compile_baseline(net, seq_len, d))
            .collect()
    }

    fn fleet<'a>(
        net: &'a LstmNetwork,
        plans: &'a [ExecutionPlan],
        policy: Box<dyn RoutePolicy + 'a>,
    ) -> FleetEngine<'a> {
        let members = plans
            .iter()
            .map(|p| {
                let config = ServeConfig::builder(p.device.clone()).build().unwrap();
                (p, config)
            })
            .collect();
        FleetEngine::new(net, members, policy).unwrap()
    }

    #[test]
    fn empty_fleet_is_rejected() {
        let (net, _) = setup(0);
        let err = FleetEngine::new(&net, Vec::new(), Box::new(RoundRobin::default()))
            .err()
            .unwrap();
        assert_eq!(err, Error::FleetEmpty);
    }

    #[test]
    fn mismatched_sequence_lengths_are_rejected() {
        let (net, seqs) = setup(1);
        let x1 = DeviceModel::tegra_x1();
        let long = ExecutionPlan::compile_baseline(&net, seqs[0].len(), &x1);
        let short = ExecutionPlan::compile_baseline(&net, seqs[0].len() - 1, &x1);
        let members = vec![
            (&long, ServeConfig::builder(x1.clone()).build().unwrap()),
            (&short, ServeConfig::builder(x1).build().unwrap()),
        ];
        let err = FleetEngine::new(&net, members, Box::new(RoundRobin::default()))
            .err()
            .unwrap();
        assert_eq!(
            err,
            Error::SeqLenMismatch {
                expected: seqs[0].len(),
                actual: seqs[0].len() - 1
            }
        );
    }

    #[test]
    fn round_robin_cycles_devices_in_order() {
        let (net, seqs) = setup(6);
        let devices = [DeviceModel::tegra_x1(), DeviceModel::tegra_x2()];
        let plans = plans_for(&net, seqs[0].len(), &devices);
        let mut fleet = fleet(&net, &plans, Box::new(RoundRobin::default()));
        let mut routes = Vec::new();
        for (i, xs) in seqs.iter().enumerate() {
            routes.push(fleet.submit(request(i as u64, xs, 0.0)).unwrap());
        }
        assert_eq!(routes, vec![0, 1, 0, 1, 0, 1]);
        let outcomes = fleet.drain();
        assert_eq!(outcomes.len(), seqs.len());
        assert!(outcomes.iter().all(|o| o.outcome.is_success()));
    }

    #[test]
    fn least_queue_depth_prefers_the_emptier_device() {
        let (net, seqs) = setup(3);
        let devices = [DeviceModel::tegra_x1(), DeviceModel::tegra_x1_2x()];
        let plans = plans_for(&net, seqs[0].len(), &devices);
        let mut fleet = fleet(&net, &plans, Box::new(LeastQueueDepth));
        // Ties go to the lowest index, then the queue depths alternate.
        assert_eq!(fleet.submit(request(0, &seqs[0], 0.0)).unwrap(), 0);
        assert_eq!(fleet.submit(request(1, &seqs[1], 0.0)).unwrap(), 1);
        assert_eq!(fleet.submit(request(2, &seqs[2], 0.0)).unwrap(), 0);
    }

    #[test]
    fn affinity_avoids_the_residency_cliff_device() {
        // A network sized so its weights exceed adreno_5xx's L2 budget
        // but fit tegra_x1's (asserted below so the scenario stays
        // honest): affinity should route the bulk to the x1.
        let config = ModelConfig::new("fleet-affinity", 10, 64, 2, 6, 3).unwrap();
        let mut rng = seeded_rng(42);
        let net = LstmNetwork::random(&config, &mut rng);
        let seqs: Vec<Vec<Vector>> = (0..8)
            .map(|_| lstm::random_inputs(&config, &mut rng))
            .collect();
        let x1 = DeviceModel::tegra_x1();
        let adreno = DeviceModel::adreno_5xx();
        let weight_bytes = net.config().total_weight_bytes();
        assert!(
            (x1.weight_residency_fraction(weight_bytes) - 1.0).abs() < 1e-12,
            "weights must fit the x1 budget"
        );
        assert!(
            adreno.weight_residency_fraction(weight_bytes) < 1.0,
            "weights must spill the adreno budget"
        );
        let plans = plans_for(&net, seqs[0].len(), &[x1, adreno]);
        let mut fleet = fleet(&net, &plans, Box::new(Affinity));
        let mut routes = Vec::new();
        for (i, xs) in seqs.iter().enumerate() {
            routes.push(fleet.submit(request(i as u64, xs, 0.0)).unwrap());
        }
        let to_x1 = routes.iter().filter(|&&r| r == 0).count();
        let to_adreno = routes.len() - to_x1;
        assert!(
            to_x1 > to_adreno,
            "affinity sent {to_x1} to the resident device vs {to_adreno} past the cliff"
        );
        let outcomes = fleet.drain();
        assert_eq!(outcomes.len(), seqs.len());
    }

    #[test]
    fn quantizing_the_cliff_device_wins_back_affinity_traffic() {
        // Same fleet as `affinity_avoids_the_residency_cliff_device`, but
        // the adreno member serves an int8 plan: its weight working set
        // shrinks 4x, fits the L2 budget again, and affinity resumes
        // sending it a fair share. Quantization changes *routing*, not
        // just kernel pricing.
        use tensor::Precision;
        let config = ModelConfig::new("fleet-quant", 10, 64, 2, 6, 3).unwrap();
        let mut rng = seeded_rng(42);
        let net = LstmNetwork::random(&config, &mut rng);
        let seqs: Vec<Vec<Vector>> = (0..8)
            .map(|_| lstm::random_inputs(&config, &mut rng))
            .collect();
        let x1 = DeviceModel::tegra_x1();
        let adreno = DeviceModel::adreno_5xx();
        let fp32_bytes = net.config().total_weight_bytes();
        let int8_bytes = net.config().total_weight_bytes_at(Precision::Int8);
        assert!(
            adreno.weight_residency_fraction(fp32_bytes) < 1.0,
            "fp32 weights must spill the adreno budget"
        );
        assert!(
            (adreno.weight_residency_fraction(int8_bytes) - 1.0).abs() < 1e-12,
            "int8 weights must fit the adreno budget"
        );
        let adreno_share = |adreno_plan: ExecutionPlan| {
            let x1_plan = ExecutionPlan::compile_baseline(&net, seqs[0].len(), &x1);
            let plans = [x1_plan, adreno_plan];
            let mut fleet = fleet(&net, &plans, Box::new(Affinity));
            let mut to_adreno = 0usize;
            for (i, xs) in seqs.iter().enumerate() {
                if fleet.submit(request(i as u64, xs, 0.0)).unwrap() == 1 {
                    to_adreno += 1;
                }
            }
            assert_eq!(fleet.drain().len(), seqs.len());
            to_adreno
        };
        let fp32_share = adreno_share(ExecutionPlan::compile_baseline(
            &net,
            seqs[0].len(),
            &adreno,
        ));
        let int8_share = adreno_share(
            ExecutionPlan::compile_baseline(&net, seqs[0].len(), &adreno)
                .with_precision(Precision::Int8),
        );
        assert!(
            int8_share > fp32_share,
            "int8 residency must win back traffic: {int8_share} vs {fp32_share} of {}",
            seqs.len()
        );
    }

    #[test]
    fn buggy_policy_index_is_rejected() {
        struct Buggy;
        impl RoutePolicy for Buggy {
            fn name(&self) -> &'static str {
                "buggy"
            }
            fn route(&mut self, _: &Request, _: &[DeviceStatus<'_>]) -> usize {
                9
            }
        }
        let (net, seqs) = setup(1);
        let plans = plans_for(&net, seqs[0].len(), &[DeviceModel::tegra_x1()]);
        let mut fleet = fleet(&net, &plans, Box::new(Buggy));
        let err = fleet.submit(request(0, &seqs[0], 0.0)).unwrap_err();
        assert_eq!(
            err,
            Error::FleetRouteIndex {
                index: 9,
                devices: 1
            }
        );
    }

    #[test]
    fn fault_storm_quarantines_and_reroutes_the_backlog() {
        let (net, seqs) = setup(8);
        let devices = [DeviceModel::tegra_x1(), DeviceModel::tegra_x2()];
        let plans = plans_for(&net, seqs[0].len(), &devices);
        // Device 0 fails every attempt with no retries: two failed
        // rounds quarantine it and its backlog moves to device 1.
        let storm = ServeConfig::builder(devices[0].clone())
            .with_max_batch(1)
            .with_faults(FaultPlan::seeded(7, 1.0, 1 << 20))
            .with_max_retries(0)
            .build()
            .unwrap();
        let healthy = ServeConfig::builder(devices[1].clone()).build().unwrap();
        let members = vec![(&plans[0], storm), (&plans[1], healthy)];
        let mut fleet = FleetEngine::new(&net, members, Box::new(RoundRobin::default()))
            .unwrap()
            .with_quarantine_after(2);
        for (i, xs) in seqs.iter().enumerate() {
            fleet.submit(request(i as u64, xs, 0.0)).unwrap();
        }
        let outcomes = fleet.drain();
        assert!(fleet.is_quarantined(0));
        assert!(!fleet.is_quarantined(1));
        // Conservation: every id resolves exactly once fleet-wide.
        let mut ids: Vec<u64> = outcomes.iter().map(|o| o.outcome.id()).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..seqs.len() as u64).collect::<Vec<_>>());
        let m = fleet.metrics();
        assert_eq!(m.quarantined_devices, 1);
        assert_eq!(m.failed, 2, "exactly the two quarantining rounds fail");
        assert!(m.rerouted >= 1, "the backlog moved to the survivor");
        assert_eq!(m.overflow_shed, 0, "the survivor had room for everything");
        assert_eq!(
            m.completed + m.deadline_miss + m.shed + m.failed,
            outcomes.len() as u64
        );
    }

    #[test]
    fn overflow_sheds_when_no_survivor_has_room() {
        let (net, seqs) = setup(6);
        let devices = [DeviceModel::tegra_x1(), DeviceModel::tegra_x2()];
        let plans = plans_for(&net, seqs[0].len(), &devices);
        // Both tiny queues; device 0 storms. Give the survivor capacity
        // 1 so most of the re-routed backlog overflows. Arrivals far in
        // the future keep every queue full while the storm plays out.
        let storm = ServeConfig::builder(devices[0].clone())
            .with_max_batch(1)
            .with_queue_capacity(4)
            .with_faults(FaultPlan::seeded(7, 1.0, 1 << 20))
            .with_max_retries(0)
            .build()
            .unwrap();
        let survivor = ServeConfig::builder(devices[1].clone())
            .with_queue_capacity(1)
            .build()
            .unwrap();
        let members = vec![(&plans[0], storm), (&plans[1], survivor)];
        struct AlwaysZeroThenOne;
        impl RoutePolicy for AlwaysZeroThenOne {
            fn name(&self) -> &'static str {
                "pin"
            }
            fn route(&mut self, _: &Request, healthy: &[DeviceStatus<'_>]) -> usize {
                healthy[0].index
            }
        }
        let mut fleet = FleetEngine::new(&net, members, Box::new(AlwaysZeroThenOne))
            .unwrap()
            .with_quarantine_after(2);
        for (i, xs) in seqs.iter().take(4).enumerate() {
            assert_eq!(fleet.submit(request(i as u64, xs, 0.0)).unwrap(), 0);
        }
        let outcomes = fleet.drain();
        let m = fleet.metrics();
        assert!(fleet.is_quarantined(0));
        assert!(
            m.overflow_shed >= 1,
            "survivor capacity 1 cannot hold the backlog"
        );
        let overflow: Vec<&FleetOutcome> = outcomes.iter().filter(|o| o.device.is_none()).collect();
        assert_eq!(overflow.len() as u64, m.overflow_shed);
        for o in &overflow {
            match &o.outcome {
                ServeOutcome::Shed(s) => assert_eq!(s.reason, ShedReason::Overflow),
                other => panic!("overflow outcome must be a shed, got {}", other.kind()),
            }
        }
        // Conservation holds even through the overflow path.
        let mut ids: Vec<u64> = outcomes.iter().map(|o| o.outcome.id()).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn all_quarantined_rejects_new_submissions() {
        let (net, seqs) = setup(4);
        let x1 = DeviceModel::tegra_x1();
        let plans = plans_for(&net, seqs[0].len(), std::slice::from_ref(&x1));
        let storm = ServeConfig::builder(x1)
            .with_max_batch(1)
            .with_faults(FaultPlan::seeded(3, 1.0, 1 << 20))
            .with_max_retries(0)
            .build()
            .unwrap();
        let mut fleet = FleetEngine::new(&net, vec![(&plans[0], storm)], Box::new(Affinity))
            .unwrap()
            .with_quarantine_after(1);
        for (i, xs) in seqs.iter().take(3).enumerate() {
            fleet.submit(request(i as u64, xs, 0.0)).unwrap();
        }
        let outcomes = fleet.drain();
        assert!(fleet.is_quarantined(0));
        let err = fleet.submit(request(9, &seqs[3], 0.0)).unwrap_err();
        assert_eq!(err, Error::FleetAllQuarantined);
        // The sole member failed one round and overflow-shed the rest.
        let mut ids: Vec<u64> = outcomes.iter().map(|o| o.outcome.id()).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2]);
        let m = fleet.metrics();
        assert_eq!(m.failed, 1);
        assert_eq!(m.overflow_shed, 2);
    }

    #[test]
    fn metrics_roll_up_per_device_and_fleet_wide() {
        let (net, seqs) = setup(6);
        let devices = [DeviceModel::tegra_x1(), DeviceModel::adreno_5xx()];
        let plans = plans_for(&net, seqs[0].len(), &devices);
        let mut fleet = fleet(&net, &plans, Box::new(RoundRobin::default()));
        for (i, xs) in seqs.iter().enumerate() {
            fleet
                .submit(Request {
                    deadline_s: Some(1e6),
                    ..request(i as u64, xs, 0.0)
                })
                .unwrap();
        }
        let outcomes = fleet.drain();
        let m = fleet.metrics();
        assert_eq!(m.per_device.len(), 2);
        assert_eq!(m.per_device[0].name, "tegra_x1");
        assert_eq!(m.per_device[1].name, "adreno_5xx");
        assert_eq!(m.submitted, 6);
        assert_eq!(m.completed, 6);
        assert_eq!(m.per_device[0].routed + m.per_device[1].routed, 6);
        assert_eq!(m.utilization_imbalance, 0.0, "round-robin splits 3/3");
        assert!((m.slo_attainment - 1.0).abs() < 1e-12);
        assert!(m.makespan_s > 0.0);
        assert_eq!(outcomes.len(), 6);
        // Trace export produces one process per device.
        let mut trace = ChromeTrace::new();
        fleet.add_counter_tracks(&mut trace);
        let json = trace.to_json();
        assert!(json.contains("fleet/tegra_x1 #0"));
        assert!(json.contains("fleet/adreno_5xx #1"));
    }
}
