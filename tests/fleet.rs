//! Fleet-level integration properties (ISSUE 9): routing is pricing-only
//! (a request's logits are byte-identical no matter which device or
//! policy served it), and outcome conservation extends fleet-wide (every
//! submitted id resolves to exactly one outcome, even through fault
//! storms, quarantines, and backlog re-routing). ISSUE 10 adds the
//! `RoutePolicy` contract: every shipped policy returns a healthy
//! in-range index, deterministically for a fixed fleet state. Requests
//! with unusable times are rejected before any policy sees them.

use gpu_sim::DeviceModel;
use lstm::plan::{ExecutionPlan, NullSink, PlanRuntime};
use memlstm::prelude::*;
use proptest::prelude::*;
use rand::Rng;

/// A small network plus `n` input sequences, shared by every scenario.
fn setup(seed: u64, n: usize) -> (LstmNetwork, Vec<Vec<Vector>>) {
    let config = ModelConfig::new("fleet-int", 10, 20, 2, 6, 3).unwrap();
    let mut rng = seeded_rng(seed);
    let net = LstmNetwork::random(&config, &mut rng);
    let seqs = (0..n)
        .map(|_| lstm::random_inputs(&config, &mut rng))
        .collect();
    (net, seqs)
}

/// The heterogeneous mixes the bit-identity pin sweeps.
fn mixes() -> Vec<Vec<DeviceModel>> {
    vec![
        vec![
            DeviceModel::tegra_x1(),
            DeviceModel::tegra_x1(),
            DeviceModel::adreno_5xx(),
        ],
        vec![
            DeviceModel::tegra_x2(),
            DeviceModel::tegra_x1(),
            DeviceModel::adreno_5xx(),
        ],
    ]
}

fn policies() -> Vec<Box<dyn RoutePolicy>> {
    vec![
        Box::new(RoundRobin::default()),
        Box::new(LeastQueueDepth),
        Box::new(Affinity),
    ]
}

/// Request times picked from NaN, ±inf, negative, deadline-before-arrival,
/// and ordinary values (`base` is an ordinary arrival).
fn adversarial_times(arrival_kind: usize, deadline_kind: usize, base: f64) -> (f64, Option<f64>) {
    let arrival_s = match arrival_kind {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => -1e-3,
        _ => base,
    };
    let deadline_s = match deadline_kind {
        0 => None,
        1 => Some(f64::NAN),
        2 => Some(f64::INFINITY),
        3 => Some(f64::NEG_INFINITY),
        4 => Some(arrival_s - 1e-4),
        5 => Some(arrival_s + 1e-6),
        _ => Some(arrival_s + 10.0),
    };
    (arrival_s, deadline_s)
}

/// Whether the fleet may accept these times: a finite, non-negative
/// arrival and no deadline or a finite one not before the arrival.
fn times_are_usable(arrival_s: f64, deadline_s: Option<f64>) -> bool {
    arrival_s.is_finite()
        && arrival_s >= 0.0
        && deadline_s.is_none_or(|d| d.is_finite() && d >= arrival_s)
}

/// Counts `route` calls, delegating to round-robin.
#[derive(Default)]
struct CountingRoute {
    inner: RoundRobin,
    calls: std::rc::Rc<std::cell::Cell<usize>>,
}

impl RoutePolicy for CountingRoute {
    fn name(&self) -> &'static str {
        "counting"
    }

    fn route(&mut self, request: &Request, healthy: &[DeviceStatus<'_>]) -> usize {
        self.calls.set(self.calls.get() + 1);
        self.inner.route(request, healthy)
    }
}

fn assert_bits_eq(a: &Vector, b: &Vector, what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (x, y) in a.iter().zip(b.iter()) {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: value drifted");
    }
}

/// Routing moves only pricing: for every mix and every policy, each
/// served request's logits are bit-identical to a solo `PlanRuntime`
/// run of the reference plan — so they are identical to each other
/// regardless of which device or policy served them.
#[test]
fn logits_are_bit_identical_across_devices_and_policies() {
    let (net, seqs) = setup(0xF1EE7, 6);
    let seq_len = seqs[0].len();
    let reference = ExecutionPlan::compile_baseline(&net, seq_len, &DeviceModel::tegra_x1());
    let mut runtime = PlanRuntime::new();
    let solo: Vec<Vector> = seqs
        .iter()
        .map(|xs| runtime.run_lstm(&reference, &net, xs, &mut NullSink).logits)
        .collect();
    for devices in mixes() {
        let plans: Vec<ExecutionPlan> = devices
            .iter()
            .map(|d| ExecutionPlan::compile_baseline(&net, seq_len, d))
            .collect();
        for policy in policies() {
            let name = policy.name();
            let members = plans
                .iter()
                .map(|p| (p, ServeConfig::builder(p.device.clone()).build().unwrap()))
                .collect();
            let mut fleet = FleetEngine::new(&net, members, policy).unwrap();
            for (i, xs) in seqs.iter().enumerate() {
                fleet
                    .submit(Request {
                        id: i as u64,
                        xs: xs.clone(),
                        arrival_s: 1e-5 * i as f64,
                        deadline_s: None,
                    })
                    .unwrap();
            }
            let outcomes = fleet.drain();
            assert_eq!(outcomes.len(), seqs.len(), "{name}: every request served");
            for o in &outcomes {
                let c = o
                    .outcome
                    .completion()
                    .expect("no deadlines or faults: everything completes");
                assert_bits_eq(
                    &c.logits,
                    &solo[c.id as usize],
                    &format!("{name}: request {} on device {:?}", c.id, o.device),
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// RoutePolicy contract, for all three shipped policies: `route`
    /// always returns the fleet-wide `index` of a member of the healthy
    /// set it was shown (never out of range, never a quarantined
    /// member), and a fresh policy replayed over the identical call
    /// sequence picks the identical members — routing is a pure function
    /// of (policy state, fleet state), with no hidden randomness.
    #[test]
    fn route_policies_return_healthy_indices_deterministically(
        seed in 0u64..1000,
        n_members in 1usize..6,
        healthy_mask in 0u32..64,
        calls in 1usize..10,
    ) {
        let presets = DeviceModel::presets();
        let mut rng = seeded_rng(seed);
        // Fleet-wide member state: (device, pending, clock_s, routed,
        // weight_bytes, seq_len). `index` stays fleet-wide even when
        // quarantine hides members from the healthy set.
        let members: Vec<(DeviceModel, usize, f64, u64, u64, usize)> = (0..n_members)
            .map(|i| {
                (
                    presets[i % presets.len()].clone(),
                    (rng.gen::<f64>() * 16.0) as usize,
                    rng.gen::<f64>() * 1e-2,
                    (rng.gen::<f64>() * 8.0) as u64,
                    1024 + (rng.gen::<f64>() * 4e6) as u64,
                    1 + (rng.gen::<f64>() * 32.0) as usize,
                )
            })
            .collect();
        // Non-empty healthy subset: the mask picks members, with one
        // index forced in so the set is never empty.
        let forced = healthy_mask as usize % n_members;
        let healthy_indices: Vec<usize> = (0..n_members)
            .filter(|&i| healthy_mask & (1 << i) != 0 || i == forced)
            .collect();
        let healthy: Vec<DeviceStatus<'_>> = healthy_indices
            .iter()
            .map(|&i| {
                let m = &members[i];
                DeviceStatus {
                    index: i,
                    device: &m.0,
                    pending: m.1,
                    clock_s: m.2,
                    routed: m.3,
                    weight_bytes: m.4,
                    seq_len: m.5,
                }
            })
            .collect();
        // `route` only reads the request's arrival (and id via policy
        // state, if any), so the contract probe needs no payload.
        let requests: Vec<Request> = (0..calls)
            .map(|i| Request {
                id: i as u64,
                xs: Vec::new(),
                arrival_s: rng.gen::<f64>() * 1e-3,
                deadline_s: None,
            })
            .collect();
        let factories: [fn() -> Box<dyn RoutePolicy>; 3] = [
            || Box::new(RoundRobin::default()),
            || Box::new(LeastQueueDepth),
            || Box::new(Affinity),
        ];
        for factory in factories {
            let mut live = factory();
            let mut replay = factory();
            for request in &requests {
                let pick = live.route(request, &healthy);
                prop_assert!(
                    healthy_indices.contains(&pick),
                    "{}: routed to {pick}, healthy = {healthy_indices:?}",
                    live.name()
                );
                prop_assert!(pick < n_members, "{}: index out of range", live.name());
                prop_assert_eq!(
                    pick,
                    replay.route(request, &healthy),
                    "{} is not deterministic for a fixed fleet state",
                    live.name()
                );
            }
        }
    }

    /// Fleet-wide conservation: under arbitrary arrivals, deadlines,
    /// queue caps, per-device fault storms, quarantines, and backlog
    /// re-routing, every request the fleet accepted resolves to exactly
    /// one outcome — across all devices plus the overflow path.
    #[test]
    fn every_accepted_request_resolves_exactly_once_fleet_wide(
        seed in 0u64..8,
        n in 1usize..12,
        capacity in 1usize..8,
        storm_device in 0usize..3,
        fault_rate in 0.5f64..1.0,
        max_retries in 0u32..2,
        quarantine_after in 1u32..3,
        policy_index in 0usize..3,
    ) {
        let (net, seqs) = setup(seed, n);
        let seq_len = seqs[0].len();
        let devices = [
            DeviceModel::tegra_x1(),
            DeviceModel::tegra_x2(),
            DeviceModel::adreno_5xx(),
        ];
        let plans: Vec<ExecutionPlan> = devices
            .iter()
            .map(|d| ExecutionPlan::compile_baseline(&net, seq_len, d))
            .collect();
        let members = plans
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let mut builder = ServeConfig::builder(p.device.clone())
                    .with_max_batch(2)
                    .with_queue_capacity(capacity)
                    .with_shedding(SheddingPolicy::expired());
                if i == storm_device {
                    builder = builder
                        .with_faults(FaultPlan::seeded(seed ^ 0xFA, fault_rate, 1 << 16))
                        .with_max_retries(max_retries);
                }
                (p, builder.build().unwrap())
            })
            .collect();
        let mut fleet = FleetEngine::new(&net, members, policies().swap_remove(policy_index))
            .unwrap()
            .with_quarantine_after(quarantine_after);
        let mut arrival_rng = seeded_rng(seed ^ 0xA881);
        let mut accepted = Vec::new();
        for (i, xs) in seqs.iter().enumerate() {
            let arrival_s = arrival_rng.gen::<f64>() * 1e-3;
            let deadline_s = match i % 3 {
                0 => None,
                1 => Some(arrival_s + 1e-6),  // tight: expires/misses
                _ => Some(arrival_s + 10.0),  // loose: comfortably met
            };
            let request = Request { id: i as u64, xs: xs.clone(), arrival_s, deadline_s };
            if fleet.submit(request).is_ok() {
                accepted.push(i as u64);
            }
        }
        let outcomes = fleet.drain();
        let mut resolved: Vec<u64> = outcomes.iter().map(|o| o.outcome.id()).collect();
        resolved.sort_unstable();
        prop_assert_eq!(resolved, accepted, "outcome/accepted id mismatch");
        let m = fleet.metrics();
        prop_assert_eq!(
            m.completed + m.deadline_miss + m.shed + m.failed,
            outcomes.len() as u64,
            "fleet metrics disagree with the outcome stream"
        );
        // Overflow sheds are exactly the device-less outcomes.
        let overflow = outcomes.iter().filter(|o| o.device.is_none()).count() as u64;
        prop_assert_eq!(m.overflow_shed, overflow);
    }

    /// Adversarial requests — NaN, ±inf and negative arrivals, NaN/±inf
    /// deadlines, deadlines before arrival, duplicate ids — are either
    /// rejected with `InvalidRequest` before the route policy runs, or
    /// resolve to exactly one outcome each fleet-wide; draining
    /// terminates.
    #[test]
    fn adversarial_requests_are_rejected_or_resolve_exactly_once_fleet_wide(
        seed in 0u64..8,
        requests in proptest::collection::vec((0usize..6, 0usize..8, 0u64..4), 1..12),
        capacity in 1usize..6,
    ) {
        let (net, seqs) = setup(seed, 1);
        let seq_len = seqs[0].len();
        let devices = [DeviceModel::tegra_x1(), DeviceModel::adreno_5xx()];
        let plans: Vec<ExecutionPlan> = devices
            .iter()
            .map(|d| ExecutionPlan::compile_baseline(&net, seq_len, d))
            .collect();
        let members = plans
            .iter()
            .map(|p| {
                let config = ServeConfig::builder(p.device.clone())
                    .with_max_batch(2)
                    .with_queue_capacity(capacity)
                    .with_shedding(SheddingPolicy::expired())
                    .build()
                    .unwrap();
                (p, config)
            })
            .collect();
        let policy = CountingRoute::default();
        let calls = policy.calls.clone();
        let mut fleet = FleetEngine::new(&net, members, Box::new(policy)).unwrap();
        let mut arrival_rng = seeded_rng(seed ^ 0xBAD);
        let mut accepted = Vec::new();
        for &(arrival_kind, deadline_kind, id) in &requests {
            let base = arrival_rng.gen::<f64>() * 1e-3;
            let (arrival_s, deadline_s) = adversarial_times(arrival_kind, deadline_kind, base);
            let routed_before = calls.get();
            let request = Request { id, xs: seqs[0].clone(), arrival_s, deadline_s };
            match fleet.submit(request) {
                Ok(_) => {
                    prop_assert!(times_are_usable(arrival_s, deadline_s));
                    accepted.push(id);
                }
                Err(Error::InvalidRequest { id: rejected, .. }) => {
                    prop_assert_eq!(rejected, id);
                    prop_assert!(!times_are_usable(arrival_s, deadline_s));
                    prop_assert_eq!(calls.get(), routed_before, "policy saw an invalid request");
                }
                Err(e) => prop_assert!(
                    matches!(e, Error::QueueFull { .. }) && times_are_usable(arrival_s, deadline_s),
                    "unexpected rejection {e:?}"
                ),
            }
        }
        let outcomes = fleet.drain();
        let mut resolved: Vec<u64> = outcomes.iter().map(|o| o.outcome.id()).collect();
        resolved.sort_unstable();
        accepted.sort_unstable();
        prop_assert_eq!(resolved, accepted, "outcome/accepted id multiset mismatch");
    }
}
