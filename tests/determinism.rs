//! Parallelism-determinism integration tests: every parallel fan-out in
//! the evaluation pipeline must be *bit-identical* to its serial
//! counterpart, for any worker count. The pool's ordered `par_map` plus
//! strictly in-order merging of per-task results is the mechanism; these
//! tests pin the end-to-end guarantee at the `Evaluator` level, where
//! gpu-sim pricing, accuracy pooling, and the offline threshold search
//! all meet.

use gpu_sim::DeviceModel;
use memlstm::thresholds::{
    select_ao, select_bpa, threshold_sets, upper_alpha_inter_pooled, Evaluator, Level,
};
use pool::Pool;
use workloads::{Benchmark, Workload};

const WORKER_COUNTS: [usize; 3] = [2, 4, 8];

fn evaluator() -> Evaluator {
    let workload = Workload::generate(Benchmark::Mr, 4, 0x5EED);
    Evaluator::new(workload, DeviceModel::tegra_x1()).with_budget(2, 4)
}

/// `evaluate` fans eval sequences out across workers; timings, energies,
/// DRAM traffic, accuracies, and per-layer skip statistics must not
/// depend on the worker count.
#[test]
fn evaluate_is_bit_identical_across_worker_counts() {
    let mut ev = evaluator().with_pool(Pool::with_workers(1));
    let sets = threshold_sets(ev.upper_alpha_inter(), ev.upper_alpha_intra(), 5);
    let serial: Vec<_> = sets
        .iter()
        .map(|set| ev.evaluate(Level::Combined.config(set, ev.mts())))
        .collect();
    for workers in WORKER_COUNTS {
        ev = ev.with_pool(Pool::with_workers(workers));
        for (set, expected) in sets.iter().zip(&serial) {
            let (perf, accuracy, stats) = ev.evaluate(Level::Combined.config(set, ev.mts()));
            let (eperf, eacc, estats) = expected;
            assert_eq!(perf.time_s.to_bits(), eperf.time_s.to_bits());
            assert_eq!(perf.energy_j.to_bits(), eperf.energy_j.to_bits());
            assert_eq!(perf.dram_bytes, eperf.dram_bytes);
            assert_eq!(accuracy.to_bits(), eacc.to_bits());
            assert_eq!(&stats, estats, "stats diverged at {workers} workers");
        }
    }
}

/// The full tradeoff sweep (threshold sets in parallel, sequences in
/// parallel inside each — the inner fan-out degrades to serial on worker
/// threads) returns the same points in the same order, and therefore the
/// same AO / BPA operating-point selections.
#[test]
fn sweep_is_bit_identical_across_worker_counts() {
    let mut ev = evaluator().with_pool(Pool::with_workers(1));
    let serial = ev.sweep(Level::Combined, 5);
    for workers in WORKER_COUNTS {
        ev = ev.with_pool(Pool::with_workers(workers));
        let parallel = ev.sweep(Level::Combined, 5);
        assert_eq!(parallel.len(), serial.len());
        for (p, s) in parallel.iter().zip(&serial) {
            assert_eq!(p.set, s.set);
            assert_eq!(p.speedup.to_bits(), s.speedup.to_bits());
            assert_eq!(p.accuracy.to_bits(), s.accuracy.to_bits());
            assert_eq!(p.energy_saving.to_bits(), s.energy_saving.to_bits());
            assert_eq!(p.power_saving.to_bits(), s.power_saving.to_bits());
        }
        assert_eq!(select_ao(&parallel).set, select_ao(&serial).set);
        assert_eq!(select_bpa(&parallel).set, select_bpa(&serial).set);
    }
}

/// Asserts two hidden/logit vectors are equal to the last mantissa bit.
fn assert_bits_eq(a: &tensor::Vector, b: &tensor::Vector, what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (x, y) in a.iter().zip(b.iter()) {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: value drifted");
    }
}

/// Lockstep batching reorders the timestep/sequence loops and rewrites
/// the kernel stream, but every per-sequence number must survive
/// untouched: each batched output is compared bit-for-bit against a solo
/// `PlanRuntime` run, for baseline, DRS-only, and combined tissue+DRS
/// plans at batch sizes 1, 2, and 8.
#[test]
fn batched_execution_is_bit_identical_per_sequence_across_plans() {
    use lstm::plan::{ExecutionPlan, NullSink, PlanRuntime};
    use memlstm::drs::{DrsConfig, DrsMode};
    use memlstm::exec::{OptimizedExecutor, OptimizerConfig};
    use memlstm::prediction::NetworkPredictors;

    let workload = Workload::generate(Benchmark::Mr, 8, 0x5EED);
    let net = workload.network();
    let seqs = workload.eval_set();
    let offline = workload.dataset().offline().to_vec();
    let predictors = NetworkPredictors::collect(net, &offline);
    let drs = DrsConfig {
        alpha_intra: 0.05,
        mode: DrsMode::Hardware,
    };
    let intra = OptimizerConfig::builder().drs(drs).build();
    let combined = OptimizerConfig::builder()
        .alpha_inter(1.0)
        .max_tissue_size(4)
        .drs(drs)
        .build();
    let plans: Vec<(&str, ExecutionPlan)> = vec![
        (
            "baseline",
            ExecutionPlan::compile_baseline(net, seqs[0].len(), &DeviceModel::tegra_x1()),
        ),
        (
            "drs",
            OptimizedExecutor::new(net, &predictors, intra).plan_probes(&seqs[..1]),
        ),
        (
            "tissue+drs",
            OptimizedExecutor::new(net, &predictors, combined).plan_probes(&seqs[..1]),
        ),
    ];
    for (name, plan) in &plans {
        for batch in [1usize, 2, 8] {
            let gang: Vec<Vec<tensor::Vector>> =
                (0..batch).map(|i| seqs[i % seqs.len()].clone()).collect();
            let outs = PlanRuntime::new().run_lstm_batch(plan, net, &gang, &mut NullSink);
            for (i, (xs, out)) in gang.iter().zip(&outs).enumerate() {
                let solo = PlanRuntime::new().run_lstm(plan, net, xs, &mut NullSink);
                assert_bits_eq(
                    &out.logits,
                    &solo.logits,
                    &format!("{name} batch {batch} seq {i} logits"),
                );
                for (l, (bh, sh)) in out.layer_hs.iter().zip(&solo.layer_hs).enumerate() {
                    for (t, (b, s)) in bh.iter().zip(sh.iter()).enumerate() {
                        assert_bits_eq(b, s, &format!("{name} batch {batch} seq {i} h[{l}][{t}]"));
                    }
                }
                assert_eq!(
                    out.layer_skips, solo.layer_skips,
                    "{name} batch {batch} seq {i} skip stats"
                );
            }
        }
    }
}

/// Recycling the runtime's shared scratch must be pure reuse: one runtime
/// instance carried *dirty* across plans of different shapes (baseline ↔
/// DRS ↔ tissues) and gangs of different sizes (8 → 1 → 2) must produce
/// the same bits as a fresh runtime per run. This is the regression test
/// for the zero-allocation shared scratch — stale masks, oversized slabs,
/// or leftover tissue columns from a previous (larger) run would surface
/// here.
#[test]
fn dirty_runtime_reuse_is_bit_identical_to_fresh_runtimes() {
    use lstm::plan::{ExecutionPlan, NullSink, PlanRuntime};
    use memlstm::drs::{DrsConfig, DrsMode};
    use memlstm::exec::{OptimizedExecutor, OptimizerConfig};
    use memlstm::prediction::NetworkPredictors;

    let workload = Workload::generate(Benchmark::Mr, 8, 0xD1E7);
    let net = workload.network();
    let seqs = workload.eval_set();
    let predictors = NetworkPredictors::collect(net, workload.dataset().offline());
    let drs = DrsConfig {
        alpha_intra: 0.05,
        mode: DrsMode::Hardware,
    };
    let combined = OptimizerConfig::builder()
        .alpha_inter(1.0)
        .max_tissue_size(4)
        .drs(drs)
        .build();
    let plans = [
        ExecutionPlan::compile_baseline(net, seqs[0].len(), &DeviceModel::tegra_x1()),
        OptimizedExecutor::new(
            net,
            &predictors,
            OptimizerConfig::builder().drs(drs).build(),
        )
        .plan_probes(&seqs[..1]),
        OptimizedExecutor::new(net, &predictors, combined).plan_probes(&seqs[..1]),
    ];

    // One shared solo runtime, interleaved across all plan shapes twice.
    let mut shared = PlanRuntime::new();
    for pass in 0..2 {
        for (p, plan) in plans.iter().enumerate() {
            for (i, xs) in seqs.iter().enumerate() {
                let reused = shared.run_lstm(plan, net, xs, &mut NullSink);
                let fresh = PlanRuntime::new().run_lstm(plan, net, xs, &mut NullSink);
                assert_bits_eq(
                    &reused.logits,
                    &fresh.logits,
                    &format!("pass {pass} plan {p} seq {i} logits"),
                );
                assert_eq!(
                    reused.layer_hs, fresh.layer_hs,
                    "pass {pass} plan {p} seq {i} hidden states"
                );
            }
        }
    }

    // One shared batch runtime, shrinking and regrowing the gang so the
    // per-sequence workspaces and shared mask scratch go stale between
    // runs.
    let mut batch_rt = PlanRuntime::new();
    for (p, plan) in plans.iter().enumerate() {
        for batch in [8usize, 1, 2] {
            let gang: Vec<Vec<tensor::Vector>> =
                (0..batch).map(|i| seqs[i % seqs.len()].clone()).collect();
            let outs = batch_rt.run_lstm_batch(plan, net, &gang, &mut NullSink);
            for (i, (xs, out)) in gang.iter().zip(&outs).enumerate() {
                let solo = PlanRuntime::new().run_lstm(plan, net, xs, &mut NullSink);
                assert_bits_eq(
                    &out.logits,
                    &solo.logits,
                    &format!("plan {p} gang {batch} seq {i} logits"),
                );
                assert_eq!(
                    out.layer_hs, solo.layer_hs,
                    "plan {p} gang {batch} seq {i} hidden states"
                );
            }
        }
    }
}

/// The serve engine gangs whatever has arrived, so consecutive rounds see
/// different batch sizes as requests join and leave. No composition may
/// perturb a request's numbers: every completion must match a solo run.
#[test]
fn serving_with_join_leave_churn_is_bit_identical() {
    use lstm::plan::{ExecutionPlan, NullSink, PlanRuntime};
    use memlstm::serve::{Request, ServeConfig, ServeEngine};

    let workload = Workload::generate(Benchmark::Mr, 8, 0xC0DE);
    let net = workload.network();
    let seqs = workload.eval_set();
    let plan = ExecutionPlan::compile_baseline(net, seqs[0].len(), &DeviceModel::tegra_x1());
    let mut engine = ServeEngine::new(
        &plan,
        net,
        ServeConfig::builder(DeviceModel::tegra_x1())
            .with_max_batch(3)
            .build()
            .unwrap(),
    )
    .unwrap();
    // Arrival spread forces gangs of 3, 3, 2, then stragglers alone:
    // requests join mid-service and leave at different rounds.
    let arrivals = [0.0, 0.0, 0.0, 0.0, 0.0, 1e-4, 2e-4, 10.0];
    for (i, arrival_s) in arrivals.iter().enumerate() {
        engine
            .submit(Request {
                id: i as u64,
                xs: seqs[i % seqs.len()].clone(),
                arrival_s: *arrival_s,
                deadline_s: if i % 3 == 0 {
                    Some(*arrival_s + 0.5)
                } else {
                    None
                },
            })
            .unwrap();
    }
    let outcomes = engine.drain();
    assert_eq!(outcomes.len(), arrivals.len());
    let batches: Vec<usize> = engine.rounds().iter().map(|r| r.batch).collect();
    assert!(
        batches.iter().any(|&b| b > 1) && batches.contains(&1),
        "churn should produce mixed gang sizes, got {batches:?}"
    );
    // The default policy sheds nothing, so every outcome carries logits
    // (late requests resolve as DeadlineMiss, still served).
    for o in &outcomes {
        let c = o.completion().expect("default policy serves everything");
        let solo = PlanRuntime::new().run_lstm(
            &plan,
            net,
            &seqs[c.id as usize % seqs.len()],
            &mut NullSink,
        );
        assert_bits_eq(
            &c.logits,
            &solo.logits,
            &format!("request {} (batch {})", c.id, c.batch),
        );
    }
}

/// Admission is deadline-aware and the queue applies backpressure:
/// tighter deadlines preempt FIFO order, and submits beyond capacity
/// return `QueueFull` instead of growing without bound.
#[test]
fn serve_admission_orders_by_deadline_and_applies_backpressure() {
    use lstm::plan::ExecutionPlan;
    use memlstm::serve::{Request, ServeConfig, ServeEngine};
    use memlstm::Error;

    let workload = Workload::generate(Benchmark::Mr, 4, 0xACED);
    let net = workload.network();
    let seqs = workload.eval_set();
    let plan = ExecutionPlan::compile_baseline(net, seqs[0].len(), &DeviceModel::tegra_x1());
    let mut engine = ServeEngine::new(
        &plan,
        net,
        ServeConfig::builder(DeviceModel::tegra_x1())
            .with_max_batch(2)
            .with_queue_capacity(4)
            .build()
            .unwrap(),
    )
    .unwrap();
    let request = |id: u64, deadline_s: Option<f64>| Request {
        id,
        xs: seqs[id as usize % seqs.len()].clone(),
        arrival_s: 0.0,
        deadline_s,
    };
    for (id, deadline) in [(0, None), (1, Some(0.9)), (2, Some(0.2)), (3, None)] {
        engine.submit(request(id, deadline)).unwrap();
    }
    assert_eq!(
        engine.submit(request(4, None)).unwrap_err(),
        Error::QueueFull { capacity: 4 }
    );
    let first = engine.step().unwrap();
    assert_eq!(first.ids, vec![2, 1], "earliest deadline first");
    engine.submit(request(4, None)).unwrap();
    let second = engine.step().unwrap();
    assert_eq!(second.ids, vec![0, 3], "then FIFO among deadline-free");
    let third = engine.step().unwrap();
    assert_eq!(third.ids, vec![4]);
}

/// The offline upper-threshold search fans relevance probes out across
/// workers; the resulting α upper limit seeds every sweep, so it must be
/// worker-count-independent too.
#[test]
fn offline_upper_limit_is_bit_identical_across_worker_counts() {
    let workload = Workload::generate(Benchmark::Mr, 4, 0x5EED);
    let mts = 4;
    let serial = upper_alpha_inter_pooled(&workload, mts, Pool::with_workers(1));
    for workers in WORKER_COUNTS {
        let parallel = upper_alpha_inter_pooled(&workload, mts, Pool::with_workers(workers));
        assert_eq!(
            parallel.to_bits(),
            serial.to_bits(),
            "upper alpha diverged at {workers} workers"
        );
    }
}
