//! A reproduction session: caches per-benchmark evaluators and threshold
//! sweeps so the experiments that share them (Figs. 14, 18, 19, ...) pay
//! for them once.

use crate::experiments::{budget_for, fast_budget};
use gpu_sim::DeviceModel;
use lstm::plan::ExecutionPlan;
use memlstm::drs::{DrsConfig, DrsMode};
use memlstm::exec::{OptimizedExecutor, OptimizerConfig};
use memlstm::prediction::NetworkPredictors;
use memlstm::thresholds::{
    threshold_sets, Evaluator, Level, ThresholdSet, TradeoffPoint, ALL_LEVELS,
};
use pool::Pool;
use std::collections::BTreeMap;
use workloads::{Benchmark, Workload};

/// Number of threshold sets in every sweep (paper: 11).
pub const NUM_SETS: usize = 11;

/// Cached state for one `repro` invocation.
///
/// Caches are keyed by `(benchmark, fast, device)` so toggling the budget
/// with [`Session::set_fast`] or the device with
/// [`Session::set_device`] mid-session cannot silently serve results
/// computed under another configuration — each budget's and each device's
/// offline phase and sweeps are cached independently.
pub struct Session {
    fast: bool,
    device: DeviceModel,
    evaluators: BTreeMap<(Benchmark, bool, String), Evaluator>,
    sweeps: BTreeMap<(Benchmark, bool, String, Level), Vec<TradeoffPoint>>,
}

impl Session {
    /// Creates a session; `fast` shrinks evaluation budgets for smoke runs.
    ///
    /// The device comes from the `MEMLSTM_DEVICE` environment variable
    /// ([`DeviceModel::from_env`]); unset means the default preset, the
    /// paper's Tegra X1 — which keeps `repro` output byte-stable.
    pub fn new(fast: bool) -> Self {
        Self::on_device(fast, DeviceModel::from_env())
    }

    /// Creates a session pinned to `device`, ignoring the environment.
    pub fn on_device(fast: bool, device: DeviceModel) -> Self {
        Self {
            fast,
            device,
            evaluators: BTreeMap::new(),
            sweeps: BTreeMap::new(),
        }
    }

    /// Whether this is a fast (smoke) session.
    pub fn is_fast(&self) -> bool {
        self.fast
    }

    /// Switches the evaluation budget; previously cached results for
    /// either budget remain valid and cached under their own key.
    pub fn set_fast(&mut self, fast: bool) {
        self.fast = fast;
    }

    /// The device every evaluator in this session prices on.
    pub fn device(&self) -> &DeviceModel {
        &self.device
    }

    /// Switches the target device; results cached for other devices stay
    /// valid under their own key (a cross-device sweep can reuse one
    /// session and flip presets).
    pub fn set_device(&mut self, device: DeviceModel) {
        self.device = device;
    }

    fn key(&self, benchmark: Benchmark) -> (Benchmark, bool, String) {
        (benchmark, self.fast, self.device.name.clone())
    }

    fn build_evaluator(benchmark: Benchmark, fast: bool, device: &DeviceModel) -> Evaluator {
        eprintln!("[session] preparing {benchmark} (offline phase)...");
        let budget = if fast {
            fast_budget()
        } else {
            budget_for(benchmark)
        };
        let workload = Workload::generate(benchmark, budget.accuracy_seqs, 0xBEEF);
        Evaluator::new(workload, device.clone()).with_budget(budget.perf_seqs, budget.accuracy_seqs)
    }

    /// Ensures a benchmark's evaluator exists (the offline phase runs on
    /// first use) and returns it. This is the only entry point that
    /// mutates the cache; once it has run, [`evaluator`](Self::evaluator)
    /// and [`try_evaluator`](Self::try_evaluator) look the evaluator up
    /// through `&self`.
    pub fn prepare(&mut self, benchmark: Benchmark) -> &Evaluator {
        let fast = self.fast;
        let device = self.device.clone();
        self.evaluators
            .entry(self.key(benchmark))
            .or_insert_with(|| Self::build_evaluator(benchmark, fast, &device))
    }

    /// A benchmark's cached evaluator, by shared reference.
    ///
    /// # Panics
    /// Panics if the evaluator was never built — call
    /// [`prepare`](Self::prepare) or [`prewarm`](Self::prewarm) first.
    pub fn evaluator(&self, benchmark: Benchmark) -> &Evaluator {
        self.try_evaluator(benchmark).unwrap_or_else(|| {
            panic!("Session::evaluator: {benchmark} not prepared; call prepare()/prewarm() first")
        })
    }

    /// A benchmark's cached evaluator, or `None` if it was never built.
    pub fn try_evaluator(&self, benchmark: Benchmark) -> Option<&Evaluator> {
        self.evaluators.get(&self.key(benchmark))
    }

    /// The threshold sets for a benchmark (from its offline upper limits).
    pub fn sets(&mut self, benchmark: Benchmark) -> Vec<ThresholdSet> {
        let ev = self.prepare(benchmark);
        threshold_sets(ev.upper_alpha_inter(), ev.upper_alpha_intra(), NUM_SETS)
    }

    /// The configuration a threshold set maps to at a given level.
    pub fn config_for(
        &mut self,
        benchmark: Benchmark,
        level: Level,
        set: &ThresholdSet,
    ) -> OptimizerConfig {
        level.config(set, self.prepare(benchmark).mts())
    }

    /// The 11-point sweep of a benchmark at a level, cached.
    pub fn sweep(&mut self, benchmark: Benchmark, level: Level) -> Vec<TradeoffPoint> {
        let (b, fast, dev) = self.key(benchmark);
        if let Some(points) = self.sweeps.get(&(b, fast, dev.clone(), level)) {
            return points.clone();
        }
        let points = compute_sweep(self.prepare(benchmark), level);
        self.sweeps.insert((b, fast, dev, level), points.clone());
        points
    }

    /// Builds every benchmark's evaluator, then every per-level sweep, in
    /// parallel across benchmarks/levels (each sweep's own fan-out then
    /// runs serial inside its task). The cached results are bit-identical
    /// to on-demand serial construction; prewarming only changes when the
    /// wall-clock cost is paid.
    pub fn prewarm(&mut self) {
        let pool = Pool::new();
        let fast = self.fast;
        let device = self.device.clone();
        let missing: Vec<Benchmark> = self
            .benchmarks()
            .into_iter()
            .filter(|b| !self.evaluators.contains_key(&self.key(*b)))
            .collect();
        let built = pool.par_map(missing, |benchmark| {
            (benchmark, Self::build_evaluator(benchmark, fast, &device))
        });
        for (benchmark, ev) in built {
            let key = self.key(benchmark);
            self.evaluators.insert(key, ev);
        }
        let jobs: Vec<(Benchmark, Level)> = self
            .benchmarks()
            .into_iter()
            .flat_map(|b| ALL_LEVELS.map(|level| (b, level)))
            .filter(|(b, level)| {
                !self
                    .sweeps
                    .contains_key(&(*b, fast, self.device.name.clone(), *level))
            })
            .collect();
        let evaluators = &self.evaluators;
        let dev_name = self.device.name.clone();
        let swept = pool.par_map(jobs, |(benchmark, level)| {
            let ev = &evaluators[&(benchmark, fast, dev_name.clone())];
            (benchmark, level, compute_sweep(ev, level))
        });
        for (benchmark, level, points) in swept {
            self.sweeps
                .insert((benchmark, fast, self.device.name.clone(), level), points);
        }
    }

    /// The benchmarks a session iterates over (`--fast` restricts to the
    /// two cheapest so smoke runs finish quickly).
    pub fn benchmarks(&self) -> Vec<Benchmark> {
        if self.fast {
            vec![Benchmark::Mr, Benchmark::Babi]
        } else {
            Benchmark::ALL.to_vec()
        }
    }
}

/// Compiles the cheaper plan the serve engine degrades to under overload:
/// the same network, device, and sequence length as a baseline plan for
/// `workload`, but with hardware-mode Dynamic Row Skip at `alpha_intra`
/// (intra-cell only — no tissue reshaping, so the plan is sound for any
/// input). Calibrated on the workload's offline set, like every other
/// plan in the bench stack, so reruns are bit-identical.
pub fn serve_fallback_plan(
    workload: &Workload,
    alpha_intra: f32,
    device: &DeviceModel,
) -> ExecutionPlan {
    let predictors = NetworkPredictors::collect(workload.network(), workload.dataset().offline());
    let config = OptimizerConfig::builder()
        .drs(DrsConfig {
            alpha_intra,
            mode: DrsMode::Hardware,
        })
        .build();
    OptimizedExecutor::new(workload.network(), &predictors, config)
        .on_device(device.clone())
        .plan_probes(workload.dataset().offline())
}

/// Computes a level's 11-point sweep, fanning the sets out on the
/// evaluator's pool (points return in set order, bit-identical for any
/// worker count).
fn compute_sweep(ev: &Evaluator, level: Level) -> Vec<TradeoffPoint> {
    eprintln!(
        "[session] sweeping {} ({level:?})...",
        ev.workload().benchmark()
    );
    ev.sweep(level, NUM_SETS)
}
