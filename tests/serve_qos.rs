//! Property tests for the serve engine's QoS machinery (ISSUE 8): outcome
//! conservation (every accepted request resolves exactly once), fault +
//! retry bit-identity, EDF-ordered shedding, degradation switch/restore
//! round-trips, and rejection of requests with unusable times.

use gpu_sim::DeviceModel;
use lstm::plan::{ExecutionPlan, NullSink, PlanRuntime};
use lstm::{LstmNetwork, ModelConfig};
use memlstm::drs::{DrsConfig, DrsMode};
use memlstm::error::Error;
use memlstm::exec::{OptimizedExecutor, OptimizerConfig};
use memlstm::prediction::NetworkPredictors;
use memlstm::serve::{FaultPlan, Request, ServeConfig, ServeEngine, ServeOutcome, SheddingPolicy};
use proptest::prelude::*;
use rand::Rng;
use tensor::init::seeded_rng;
use tensor::Vector;

/// A small network plus a baseline plan and `n` input sequences — cheap
/// enough to serve under a property-test case budget.
fn setup(seed: u64, n: usize) -> (LstmNetwork, ExecutionPlan, Vec<Vec<Vector>>) {
    let config = ModelConfig::new("serve-qos", 10, 20, 2, 6, 3).unwrap();
    let mut rng = seeded_rng(seed);
    let net = LstmNetwork::random(&config, &mut rng);
    let seqs: Vec<Vec<Vector>> = (0..n)
        .map(|_| lstm::random_inputs(&config, &mut rng))
        .collect();
    let plan = ExecutionPlan::compile_baseline(&net, seqs[0].len(), &DeviceModel::default_preset());
    (net, plan, seqs)
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

/// Whether the engine may accept these times: a finite, non-negative
/// arrival and no deadline or a finite one not before the arrival.
fn times_are_usable(arrival_s: f64, deadline_s: Option<f64>) -> bool {
    arrival_s.is_finite()
        && arrival_s >= 0.0
        && deadline_s.is_none_or(|d| d.is_finite() && d >= arrival_s)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Conservation: under arbitrary arrivals, deadlines, shedding,
    /// faults, and batch caps, every request `submit` accepted resolves
    /// to exactly one outcome — no request is lost and none is reported
    /// twice.
    #[test]
    fn every_accepted_request_resolves_to_exactly_one_outcome(
        seed in 0u64..8,
        n in 1usize..10,
        max_batch in 1usize..4,
        capacity in 1usize..6,
        shed_expired in any::<bool>(),
        evict_on_full in any::<bool>(),
        fault_rate in 0.0f64..0.5,
        max_retries in 0u32..3,
    ) {
        let (net, plan, seqs) = setup(seed, n);
        let config = ServeConfig::builder(DeviceModel::default_preset())
            .with_max_batch(max_batch)
            .with_queue_capacity(capacity)
            .with_shedding(SheddingPolicy { shed_expired, evict_on_full })
            .with_faults(FaultPlan::seeded(seed ^ 0xFA, fault_rate, 64))
            .with_max_retries(max_retries)
            .build()
            .unwrap();
        let mut engine = ServeEngine::new(&plan, &net, config).unwrap();
        let mut arrival_rng = seeded_rng(seed ^ 0xA881);
        let mut accepted = Vec::new();
        for (i, xs) in seqs.iter().enumerate() {
            let arrival_s = arrival_rng.gen::<f64>() * 1e-3;
            let deadline_s = match i % 3 {
                0 => None,
                1 => Some(arrival_s + 1e-6),   // tight: expires/misses
                _ => Some(arrival_s + 10.0),   // loose: comfortably met
            };
            let request = Request { id: i as u64, xs: xs.clone(), arrival_s, deadline_s };
            if engine.submit(request).is_ok() {
                accepted.push(i as u64);
            }
        }
        let outcomes = engine.drain();
        // Eviction sheds an *already accepted* request, so the outcome
        // set must equal the accepted set — id-for-id, exactly once.
        let mut resolved: Vec<u64> = outcomes.iter().map(ServeOutcome::id).collect();
        resolved.sort_unstable();
        prop_assert_eq!(resolved, accepted, "outcome/accepted id mismatch");
        let m = engine.metrics();
        prop_assert_eq!(
            m.completed + m.deadline_miss + m.shed + m.failed,
            outcomes.len() as u64,
            "metrics counters disagree with the outcome stream"
        );
    }

    /// Fault + retry bit-identity: a fault-injected engine (deadlines and
    /// shedding off, so admission is identical) delivers the same ids
    /// with bitwise-equal logits as a fault-free run — retries replay the
    /// identical kernel stream on a fresh device, changing only the clock.
    #[test]
    fn faulted_retries_are_bitwise_equal_to_fault_free_runs(
        seed in 0u64..8,
        n in 2usize..8,
        max_batch in 1usize..4,
        fault_rate in 0.05f64..0.6,
    ) {
        let (net, plan, seqs) = setup(seed, n);
        let base = || ServeConfig::builder(DeviceModel::default_preset()).with_max_batch(max_batch);
        let submit_all = |engine: &mut ServeEngine| {
            for (i, xs) in seqs.iter().enumerate() {
                engine.submit(Request {
                    id: i as u64,
                    xs: xs.clone(),
                    arrival_s: 1e-5 * i as f64,
                    deadline_s: None,
                }).unwrap();
            }
        };
        let mut clean = ServeEngine::new(&plan, &net, base().build().unwrap()).unwrap();
        submit_all(&mut clean);
        let clean_outcomes = clean.drain();

        // A retry budget above the fault horizon: every round eventually
        // succeeds no matter how the seeded faults land.
        let mut faulty = ServeEngine::new(
            &plan,
            &net,
            base()
                .with_faults(FaultPlan::seeded(seed ^ 0xF17, fault_rate, 128))
                .with_max_retries(256)
                .with_retry_backoff(1e-4)
                .build()
                .unwrap(),
        ).unwrap();
        submit_all(&mut faulty);
        let faulty_outcomes = faulty.drain();

        prop_assert_eq!(clean_outcomes.len(), faulty_outcomes.len());
        for (a, b) in clean_outcomes.iter().zip(&faulty_outcomes) {
            let ca = a.completion().expect("no deadlines: everything served");
            let cb = b.completion().expect("retry budget covers the horizon");
            prop_assert_eq!(ca.id, cb.id, "service order drifted");
            prop_assert_eq!(&ca.logits, &cb.logits, "retry changed request {}", ca.id);
        }
        let m = faulty.metrics();
        prop_assert_eq!(m.failed, 0, "budget covers every fault");
        prop_assert_eq!(m.retries, m.faults, "every fault was absorbed");
    }

    /// Shedding respects EDF order: with eviction enabled, distinct
    /// deadlines, and everything arriving at once, every evicted
    /// request's deadline is later than every served request's — the
    /// queue keeps the earliest-deadline subset.
    #[test]
    fn eviction_sheds_strictly_later_deadlines_than_it_serves(
        seed in 0u64..8,
        n in 3usize..10,
        capacity in 1usize..4,
        order_seed in 0u64..16,
    ) {
        let (net, plan, seqs) = setup(seed, n);
        let config = ServeConfig::builder(DeviceModel::default_preset())
            .with_queue_capacity(capacity)
            .with_shedding(SheddingPolicy { shed_expired: false, evict_on_full: true })
            .build()
            .unwrap();
        let mut engine = ServeEngine::new(&plan, &net, config).unwrap();
        // Distinct deadlines 1s, 2s, ... submitted in a shuffled order.
        let mut ids: Vec<u64> = (0..n as u64).collect();
        let mut rng = seeded_rng(order_seed);
        for i in (1..ids.len()).rev() {
            let j = (rng.gen::<f64>() * (i + 1) as f64) as usize;
            ids.swap(i, j.min(i));
        }
        let mut accepted = 0u64;
        for &id in &ids {
            let ok = engine.submit(Request {
                id,
                xs: seqs[id as usize].clone(),
                arrival_s: 0.0,
                deadline_s: Some((id + 1) as f64),
            }).is_ok();
            if ok { accepted += 1; }
        }
        let outcomes = engine.drain();
        prop_assert_eq!(outcomes.len() as u64, accepted);
        let served: Vec<f64> = outcomes.iter()
            .filter_map(|o| o.completion().and_then(|c| c.deadline_s))
            .collect();
        let shed: Vec<f64> = outcomes.iter()
            .filter_map(|o| match o {
                ServeOutcome::Shed(s) => s.deadline_s,
                _ => None,
            })
            .collect();
        prop_assert_eq!(served.len(), capacity.min(n), "queue keeps `capacity` requests");
        let worst_served = served.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for d in &shed {
            prop_assert!(
                *d > worst_served,
                "evicted deadline {d} not later than served {worst_served}"
            );
        }
    }

    /// Degradation round-trips: under a backlog spike the engine switches
    /// to the fallback plan and back on drain, events alternate
    /// out/in, and every completion's logits match a solo run of
    /// whichever plan its round actually used — a *different* (DRS)
    /// fallback, so a missed switch would change the numbers.
    #[test]
    fn degradation_switches_to_fallback_and_restores_on_drain(
        seed in 0u64..6,
        n in 6usize..10,
        high in 3usize..6,
    ) {
        let (net, plan, seqs) = setup(seed, n);
        // A genuinely different fallback: hardware DRS skips U rows, so
        // its logits differ from baseline whenever any row is skipped.
        let offline: Vec<Vec<Vector>> = seqs.iter().take(2).cloned().collect();
        let predictors = NetworkPredictors::collect(&net, &offline);
        let drs_config = OptimizerConfig::builder()
            .drs(DrsConfig { alpha_intra: 0.1, mode: DrsMode::Hardware })
            .build();
        let fallback = OptimizedExecutor::new(&net, &predictors, drs_config)
            .plan_probes(&offline);

        let config = ServeConfig::builder(DeviceModel::default_preset())
            .with_max_batch(1)
            .with_degrade_watermarks(high, 1)
            .build()
            .unwrap();
        let mut engine = ServeEngine::new(&plan, &net, config)
            .unwrap()
            .with_fallback(&fallback)
            .unwrap();
        for (i, xs) in seqs.iter().enumerate() {
            engine.submit(Request {
                id: i as u64,
                xs: xs.clone(),
                arrival_s: 0.0,
                deadline_s: None,
            }).unwrap();
        }
        let outcomes = engine.drain();
        let events = engine.degrade_events();
        // Everything arrives at once with max_batch 1, so the backlog
        // starts at n >= high and drains by one per round: exactly one
        // switch out and one back.
        prop_assert_eq!(events.len(), 2, "expected out+back, got {:?}", events);
        prop_assert!(events[0].to_fallback && !events[1].to_fallback);
        prop_assert!(events[0].queue_depth >= high);
        prop_assert!(events[1].queue_depth <= 1);
        let mut runtime = PlanRuntime::new();
        for o in &outcomes {
            let c = o.completion().expect("no deadlines: everything served");
            let expected_plan = if c.degraded { &fallback } else { &plan };
            let solo = runtime.run_lstm(expected_plan, &net, &seqs[c.id as usize], &mut NullSink);
            prop_assert_eq!(
                &c.logits,
                &solo.logits,
                "request {} (degraded={}) does not match its round's plan",
                c.id,
                c.degraded
            );
        }
        let m = engine.metrics();
        prop_assert_eq!(m.degrade_switches, 1);
        prop_assert!(m.degraded_rounds >= 1 && m.degraded_rounds < m.rounds);
    }

    /// Adversarial requests — NaN, ±inf and negative arrivals, NaN/±inf
    /// deadlines, deadlines before arrival, duplicate ids — are either
    /// rejected with `InvalidRequest` or resolve to exactly one outcome
    /// each, and draining terminates.
    #[test]
    fn adversarial_requests_are_rejected_or_resolve_exactly_once(
        seed in 0u64..8,
        requests in proptest::collection::vec((0usize..6, 0usize..8, 0u64..4), 1..12),
        capacity in 1usize..6,
        shed_expired in any::<bool>(),
        evict_on_full in any::<bool>(),
    ) {
        let (net, plan, seqs) = setup(seed, 1);
        let config = ServeConfig::builder(DeviceModel::default_preset())
            .with_max_batch(2)
            .with_queue_capacity(capacity)
            .with_shedding(SheddingPolicy { shed_expired, evict_on_full })
            .build()
            .unwrap();
        let mut engine = ServeEngine::new(&plan, &net, config).unwrap();
        let mut arrival_rng = seeded_rng(seed ^ 0xBAD);
        let mut accepted = Vec::new();
        for &(arrival_kind, deadline_kind, id) in &requests {
            let base = arrival_rng.gen::<f64>() * 1e-3;
            let (arrival_s, deadline_s) = adversarial_times(arrival_kind, deadline_kind, base);
            let request = Request { id, xs: seqs[0].clone(), arrival_s, deadline_s };
            match engine.submit(request) {
                Ok(()) => {
                    prop_assert!(times_are_usable(arrival_s, deadline_s));
                    accepted.push(id);
                }
                Err(Error::InvalidRequest { id: rejected, .. }) => {
                    prop_assert_eq!(rejected, id);
                    prop_assert!(!times_are_usable(arrival_s, deadline_s));
                }
                Err(e) => prop_assert!(
                    matches!(e, Error::QueueFull { .. }) && times_are_usable(arrival_s, deadline_s),
                    "unexpected rejection {e:?}"
                ),
            }
        }
        let outcomes = engine.drain();
        let mut resolved: Vec<u64> = outcomes.iter().map(ServeOutcome::id).collect();
        resolved.sort_unstable();
        accepted.sort_unstable();
        prop_assert_eq!(resolved, accepted, "outcome/accepted id multiset mismatch");
        prop_assert_eq!(engine.pending(), 0);
    }
}
