//! Threshold machinery: the performance–accuracy trade-off space
//! (paper Sec. VI-C, Fig. 19) and the AO / BPA operating points.
//!
//! Both optimization levels carry a threshold — `α_inter` (relevance) and
//! `α_intra` (near-zero) — whose upper limits come from the offline phase
//! (Fig. 10 steps 1–2): `α_inter`'s limit is the smallest value that
//! already yields the minimal tissue count `N_min = ceil(N / MTS)`
//! (pushing further breaks links without gaining performance). Eleven sets
//! interpolate from 0 (exact baseline) to the limits (most aggressive), and
//! a [`Level`] maps each set to the configuration of one optimization
//! level.

use crate::compile::mean_relevances;
use crate::drs::{DrsConfig, DrsMode};
use crate::exec::{OptimizedExecutor, OptimizerConfig};
use crate::mts::determine_mts;
use crate::offline::{gangs, ExactWalk};
use crate::prediction::NetworkPredictors;
use crate::relevance::RelevanceAnalyzer;
use crate::tissue::schedule_tissues;
use gpu_sim::{DeviceModel, GpuDevice, Profiler, SimReport};
use lstm::plan::{NullSink, SkipStats};
use lstm::{ExecutionPlan, PlanRuntime};
use pool::Pool;
use workloads::{teacher_match_nested, Workload};

/// One point in the 11-set threshold space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThresholdSet {
    /// Set index (0 = baseline, 10 = most aggressive).
    pub index: usize,
    /// Relevance threshold `α_inter`.
    pub alpha_inter: f64,
    /// Near-zero threshold `α_intra`.
    pub alpha_intra: f32,
}

/// Which optimization level a sweep exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Inter-cell only (`α_intra = 0`).
    Inter,
    /// Intra-cell only (`α_inter = 0`).
    Intra,
    /// Both levels.
    Combined,
}

/// Every level, in sweep order.
pub const ALL_LEVELS: [Level; 3] = [Level::Inter, Level::Intra, Level::Combined];

impl Level {
    /// Maps a threshold set to this level's optimizer configuration:
    /// the inter-cell level breaks links at `set.alpha_inter` and packs
    /// tissues of at most `mts` cells; the intra-cell level runs
    /// hardware Dynamic Row Skip at `set.alpha_intra`.
    pub fn config(self, set: &ThresholdSet, mts: usize) -> OptimizerConfig {
        let inter = OptimizerConfig::builder()
            .alpha_inter(set.alpha_inter)
            .max_tissue_size(mts);
        let drs = DrsConfig {
            alpha_intra: set.alpha_intra,
            mode: DrsMode::Hardware,
        };
        match self {
            Level::Inter => inter.build(),
            Level::Intra => OptimizerConfig::builder().drs(drs).build(),
            Level::Combined => inter.drs(drs).build(),
        }
    }
}

/// Exponent of the threshold-set spacing: values below 1 from a linear
/// ramp would waste most sets in the regime where nothing changes, so the
/// spacing is super-linear (finer resolution at the accuracy-critical low
/// end, coarser toward the aggressive end).
pub const SET_SPACING_EXP: f64 = 1.8;

/// Builds `count` threshold sets from zero to the given upper limits
/// (paper: 11 sets, set 0 = baseline), spaced by [`SET_SPACING_EXP`].
///
/// # Panics
/// Panics if `count < 2`.
pub fn threshold_sets(upper_inter: f64, upper_intra: f32, count: usize) -> Vec<ThresholdSet> {
    assert!(count >= 2, "threshold_sets: need at least two sets");
    (0..count)
        .map(|i| {
            let frac = (i as f64 / (count - 1) as f64).powf(SET_SPACING_EXP);
            ThresholdSet {
                index: i,
                alpha_inter: upper_inter * frac,
                alpha_intra: upper_intra * frac as f32,
            }
        })
        .collect()
}

/// Measured outcome of one threshold set on one benchmark.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TradeoffPoint {
    /// The thresholds evaluated.
    pub set: ThresholdSet,
    /// Speedup over the baseline execution (x).
    pub speedup: f64,
    /// Teacher-match accuracy, in `[0, 1]`.
    pub accuracy: f64,
    /// Whole-system energy saving vs. baseline, in `[0, 1]`.
    pub energy_saving: f64,
    /// Average power saving vs. baseline (energy/time), can be negative.
    pub power_saving: f64,
}

impl TradeoffPoint {
    /// The point of `set` whose configuration measured `perf` and
    /// `accuracy`, against the baseline's `base`.
    pub fn new(set: ThresholdSet, base: &PerfSummary, perf: &PerfSummary, accuracy: f64) -> Self {
        Self {
            set,
            speedup: base.time_s / perf.time_s,
            accuracy,
            energy_saving: 1.0 - perf.energy_j / base.energy_j,
            power_saving: 1.0 - perf.power_w() / base.power_w(),
        }
    }

    /// Accuracy loss.
    pub fn loss(&self) -> f64 {
        1.0 - self.accuracy
    }

    /// The BPA objective (paper: `Speedup x Accuracy`).
    pub fn bpa_score(&self) -> f64 {
        self.speedup * self.accuracy
    }
}

/// AO: the accuracy-oriented set — the best speedup whose loss stays
/// user-imperceptible (≤ 2%); falls back to set 0 when none qualifies.
pub fn select_ao(points: &[TradeoffPoint]) -> &TradeoffPoint {
    points
        .iter()
        .filter(|p| p.loss() <= 0.02 + 1e-9)
        .max_by(|a, b| a.speedup.total_cmp(&b.speedup))
        .unwrap_or(&points[0])
}

/// BPA: the best-performance-accuracy set — maximal `speedup x accuracy`.
pub fn select_bpa(points: &[TradeoffPoint]) -> &TradeoffPoint {
    points
        .iter()
        .max_by(|a, b| a.bpa_score().total_cmp(&b.bpa_score()))
        .expect("non-empty sweep")
}

/// Summary of a simulated execution (performance side of a trade-off).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerfSummary {
    /// Simulated time, seconds.
    pub time_s: f64,
    /// Simulated whole-system energy, joules.
    pub energy_j: f64,
    /// DRAM traffic, bytes.
    pub dram_bytes: u64,
}

impl PerfSummary {
    /// Builds a summary from a simulation report.
    pub fn from_report(report: &SimReport) -> Self {
        Self {
            time_s: report.time_s,
            energy_j: report.energy.total_j(),
            dram_bytes: report.dram_bytes(),
        }
    }

    /// Average power in watts.
    pub fn power_w(&self) -> f64 {
        self.energy_j / self.time_s
    }
}

/// Evaluates threshold configurations for one workload on one GPU.
///
/// Owns everything the offline phase produces: the MTS (Fig. 10 step 1),
/// the `α_inter` upper limit (step 2), and the predicted context links
/// (step 4).
#[derive(Debug, Clone)]
pub struct Evaluator {
    workload: Workload,
    device: DeviceModel,
    predictors: NetworkPredictors,
    mts: usize,
    upper_inter: f64,
    upper_intra: f32,
    perf_seqs: usize,
    accuracy_seqs: usize,
    pool: Pool,
}

impl Evaluator {
    /// Runs the offline phase for `workload` on `device`.
    ///
    /// The MTS sweep, every pricing pass, and the profiles all run on this
    /// device; the numerics are device-independent, so only performance,
    /// energy, and the offline MTS move between presets.
    ///
    /// Parallel sections (the offline probe fan-outs here, and later
    /// [`Evaluator::sweep`] / [`Evaluator::evaluate`]) use a
    /// [`Pool`] sized from `MEMLSTM_THREADS` / the machine; override it
    /// with [`Evaluator::with_pool`]. Results are bit-identical for any
    /// worker count — parallelism only changes wall-clock time.
    pub fn new(workload: Workload, device: DeviceModel) -> Self {
        let pool = Pool::new();
        let mts = determine_mts(&device, workload.network().config().hidden_size, 10).mts;
        let predictors =
            NetworkPredictors::collect(workload.network(), workload.dataset().offline());
        let upper_inter = upper_alpha_inter_pooled(&workload, mts, pool);
        Self {
            workload,
            device,
            predictors,
            mts,
            upper_inter,
            upper_intra: 0.30,
            perf_seqs: 2,
            accuracy_seqs: usize::MAX,
            pool,
        }
    }

    /// Replaces the thread pool used by parallel sections.
    pub fn with_pool(mut self, pool: Pool) -> Self {
        self.pool = pool;
        self
    }

    /// Restricts how many evaluation sequences feed the accuracy and
    /// performance measurements (useful to bound run time on the largest
    /// benchmarks).
    pub fn with_budget(mut self, perf_seqs: usize, accuracy_seqs: usize) -> Self {
        self.perf_seqs = perf_seqs.max(1);
        self.accuracy_seqs = accuracy_seqs.max(1);
        self
    }

    /// The device every pricing pass runs on.
    pub fn device(&self) -> &DeviceModel {
        &self.device
    }

    /// The offline-determined maximum tissue size.
    pub fn mts(&self) -> usize {
        self.mts
    }

    /// The `α_inter` upper limit (Fig. 10 step 2).
    pub fn upper_alpha_inter(&self) -> f64 {
        self.upper_inter
    }

    /// The `α_intra` upper limit.
    pub fn upper_alpha_intra(&self) -> f32 {
        self.upper_intra
    }

    /// How many sequences performance simulations cover: the perf
    /// budget, capped by the accuracy budget (only sequences that run
    /// are priced) and by the evaluation set.
    pub fn perf_seqs(&self) -> usize {
        self.perf_seqs
            .min(self.accuracy_seqs)
            .min(self.workload.eval_set().len())
    }

    /// The workload under evaluation.
    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    /// The collected link predictors.
    pub fn predictors(&self) -> &NetworkPredictors {
        &self.predictors
    }

    /// Simulates the baseline (Algorithm 1) execution.
    ///
    /// The plan is compiled once and reused across the perf budget: only
    /// the cache-state-dependent pricing runs per sequence.
    pub fn baseline_perf(&self) -> PerfSummary {
        let net = self.workload.network();
        let seq_len = self.workload.eval_set()[0].len();
        let plan = ExecutionPlan::compile_baseline(net, seq_len, &self.device);
        let mut runtime = PlanRuntime::new();
        let mut total = PerfSummary {
            time_s: 0.0,
            energy_j: 0.0,
            dram_bytes: 0,
        };
        let mut device = GpuDevice::for_model(&self.device);
        for xs in self.workload.eval_set().iter().take(self.perf_seqs()) {
            device.reset();
            let mut session = device.begin_trace();
            runtime.run_lstm(&plan, net, xs, &mut session);
            let report = session.finish();
            total.time_s += report.time_s;
            total.energy_j += report.energy.total_j();
            total.dram_bytes += report.dram_bytes();
        }
        total
    }

    /// Simulates an optimized configuration's performance (summed over
    /// the [`perf_seqs`](Self::perf_seqs) budget, like
    /// [`baseline_perf`](Self::baseline_perf)) and measures its accuracy
    /// (over the accuracy budget). The returned per-layer skip statistics
    /// are the last priced sequence's `layer_skips`.
    ///
    /// This is the plan-once-evaluate-N flow the offline phase exists for:
    /// the breakpoint search, sub-layer division, tissue alignment and
    /// template construction all happen exactly once — against the whole
    /// offline set (per-link relevances combined across probes, the same
    /// set that calibrated [`Self::upper_alpha_inter`]) — and every evaluation
    /// sequence then streams through the shared [`PlanRuntime`]. Sequences
    /// inside the perf budget are priced incrementally on a fresh device;
    /// the rest run through a null sink and contribute numbers only.
    pub fn evaluate(&self, config: OptimizerConfig) -> (PerfSummary, f64, Vec<SkipStats>) {
        let net = self.workload.network();
        let exec =
            OptimizedExecutor::new(net, &self.predictors, config).on_device(self.device.clone());
        let plan = exec.plan_probes(self.workload.dataset().offline());
        let n_acc = self.workload.eval_set().len().min(self.accuracy_seqs);
        let n_perf = self.perf_seqs();
        // Each sequence streams through its own `PlanRuntime`; sequences
        // inside the perf budget get a fresh device (a trace session always
        // starts from reset cache state, so a fresh device per sequence is
        // exactly the serial reset-per-sequence flow). The per-sequence
        // results are merged below strictly in input order, so the pricing
        // sums are bit-identical to the serial loop for any worker count.
        let per_seq = self.pool.par_map((0..n_acc).collect::<Vec<usize>>(), |i| {
            let xs = &self.workload.eval_set()[i];
            let mut runtime = PlanRuntime::new();
            if i < n_perf {
                let mut device = GpuDevice::for_model(&self.device);
                let mut session = device.begin_trace();
                let output = runtime.run_lstm(&plan, net, xs, &mut session);
                let report = session.finish();
                let perf = PerfSummary::from_report(&report);
                let preds = net.step_predictions(output.layer_hs.last().expect("layers"));
                (Some((perf, output.layer_skips)), preds)
            } else {
                let output = runtime.run_lstm(&plan, net, xs, &mut NullSink);
                let preds = net.step_predictions(output.layer_hs.last().expect("layers"));
                (None, preds)
            }
        });
        let mut perf = PerfSummary {
            time_s: 0.0,
            energy_j: 0.0,
            dram_bytes: 0,
        };
        let mut skips = Vec::new();
        let mut approx_preds: Vec<Vec<usize>> = Vec::with_capacity(n_acc);
        for (priced, preds) in per_seq {
            if let Some((seq_perf, seq_skips)) = priced {
                perf.time_s += seq_perf.time_s;
                perf.energy_j += seq_perf.energy_j;
                perf.dram_bytes += seq_perf.dram_bytes;
                skips = seq_skips;
            }
            approx_preds.push(preds);
        }
        let teacher = &self.workload.teacher_labels()[..n_acc];
        let accuracy = teacher_match_nested(teacher, &approx_preds);
        (perf, accuracy, skips)
    }

    /// Profiles one optimized run under `config`: compiles the same plan
    /// [`evaluate`](Self::evaluate) would use (probe-averaged over the
    /// offline set), executes the first evaluation sequence once on a
    /// fresh device with span recording enabled, and returns the priced
    /// report plus the profile. Pricing is identical to the unprofiled
    /// path, so `report.time_s` equals the span-time sum bit-for-bit.
    pub fn profile(&self, config: OptimizerConfig) -> (SimReport, Profiler) {
        let net = self.workload.network();
        let exec =
            OptimizedExecutor::new(net, &self.predictors, config).on_device(self.device.clone());
        let plan = exec.plan_probes(self.workload.dataset().offline());
        let xs = &self.workload.eval_set()[0];
        crate::exec::profile_plan(&plan, net, xs).expect("plan compiled for the evaluation length")
    }

    /// Profiles the baseline (Algorithm 1) execution of the first
    /// evaluation sequence.
    pub fn profile_baseline(&self) -> (SimReport, Profiler) {
        let net = self.workload.network();
        let xs = &self.workload.eval_set()[0];
        let plan = ExecutionPlan::compile_baseline(net, xs.len(), &self.device);
        crate::exec::profile_plan(&plan, net, xs).expect("plan compiled for the evaluation length")
    }

    /// Fig. 19-style sweep of `level` over `count` threshold sets.
    ///
    /// Sets are evaluated in parallel on the evaluator's pool (each set
    /// compiles and prices independently; within a set the per-sequence
    /// fan-out then runs serial, since nesting degrades to inline
    /// execution). The returned points are in set order and bit-identical
    /// for any worker count.
    pub fn sweep(&self, level: Level, count: usize) -> Vec<TradeoffPoint> {
        let sets = threshold_sets(self.upper_inter, self.upper_intra, count);
        let base = self.baseline_perf();
        self.pool.par_map(sets, |set| {
            let (perf, accuracy, _) = self.evaluate(level.config(&set, self.mts));
            TradeoffPoint::new(set, &base, &perf, accuracy)
        })
    }
}

/// The accuracy-feedback tuning loop of Fig. 10 step 3, applied to the
/// combined system: start from the two levels' individual AO thresholds
/// and walk them down until the measured loss is user-imperceptible.
///
/// The diagonal 11-set sweep (Fig. 19) couples the two thresholds, which
/// under-reports the combined system: its accuracy budget is shared, so
/// the diagonal AO sits below both individual AOs. The paper instead
/// adjusts the thresholds "per each execution of the application given the
/// accuracy difference between the user preferred accuracy and the
/// application output accuracy" — this function is that loop.
pub fn tune_combined_ao(
    ev: &Evaluator,
    inter_points: &[TradeoffPoint],
    intra_points: &[TradeoffPoint],
) -> (OptimizerConfig, TradeoffPoint) {
    let sets = threshold_sets(
        ev.upper_alpha_inter(),
        ev.upper_alpha_intra(),
        inter_points.len(),
    );
    let base = ev.baseline_perf();
    let mut i = select_ao(inter_points).set.index;
    let mut j = select_ao(intra_points).set.index;
    loop {
        let set = ThresholdSet {
            index: i.max(j),
            alpha_inter: sets[i].alpha_inter,
            alpha_intra: sets[j].alpha_intra,
        };
        let config = Level::Combined.config(&set, ev.mts());
        let (perf, accuracy, _) = ev.evaluate(config);
        let point = TradeoffPoint::new(set, &base, &perf, accuracy);
        if accuracy >= 0.98 - 1e-9 || (i == 0 && j == 0) {
            return (config, point);
        }
        // Back off the level whose individual sweep shows the larger loss
        // at its current index (the likely culprit).
        let inter_acc = inter_points[i].accuracy;
        let intra_acc = intra_points[j].accuracy;
        if (intra_acc <= inter_acc && j > 0) || i == 0 {
            j -= 1;
        } else {
            i -= 1;
        }
    }
}

/// The `α_inter` upper limit (Fig. 10 step 2): the smallest relevance
/// threshold at which every layer's division already yields the minimal
/// tissue count `N_min = ceil(N / MTS)` on the offline set. Larger
/// thresholds cannot improve performance further.
///
/// Per-link relevances are combined across the offline sequences by the
/// plan compiler's own averaging, so the limit is consistent with what
/// `Evaluator::evaluate` compiles at threshold set 10. The offline
/// sequences run through the exact network as gangs on the offline lane
/// walk, which also feeds `NetworkPredictors::collect`: layer `l` is
/// analyzed on the exact hidden outputs of layer `l - 1`. The gangs fan
/// out on `pool`, with results merged in probe order (bit-identical to
/// serial).
pub fn upper_alpha_inter_pooled(workload: &Workload, mts: usize, pool: Pool) -> f64 {
    let net = workload.network();
    let probes = workload.dataset().offline();
    let n = probes[0].len();
    let n_min = n.div_ceil(mts);
    let mut upper = 0.0f64;
    let analyzers: Vec<RelevanceAnalyzer> =
        net.layers().iter().map(RelevanceAnalyzer::new).collect();
    // Each gang's per-layer, per-lane relevances.
    let per_gang = pool.par_map(gangs(probes), |gang| {
        let mut relevances = vec![Vec::new(); analyzers.len()];
        ExactWalk::default().run(net, &probes[gang], |l, wx, _, _| {
            relevances[l].push(analyzers[l].layer_relevances(wx));
        });
        relevances
    });
    for l in 0..net.layers().len() {
        let relevances = mean_relevances(per_gang.iter().flat_map(|gang| &gang[l]));
        let mut candidates = crate::breakpoints::candidate_thresholds(&relevances);
        candidates.push(RelevanceAnalyzer::max_relevance());
        // Smallest candidate achieving N_min tissues for this layer.
        let layer_upper = candidates
            .iter()
            .copied()
            .find(|&alpha| {
                let bps = crate::breakpoints::find_breakpoints(&relevances, alpha);
                let subs = crate::division::divide(n, &bps);
                schedule_tissues(&subs, mts).len() <= n_min
            })
            .unwrap_or(RelevanceAnalyzer::max_relevance());
        upper = upper.max(layer_upper);
    }
    upper
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::Benchmark;

    fn small_evaluator() -> Evaluator {
        // A scaled-down BABI so tests stay fast on one core.
        let cfg = Benchmark::Babi
            .model_config()
            .with_hidden_size(48)
            .with_seq_len(16);
        let wl = Workload::generate_scaled(Benchmark::Babi, &cfg, 4, 5);
        Evaluator::new(wl, DeviceModel::tegra_x1()).with_budget(1, 3)
    }

    #[test]
    fn threshold_sets_interpolate() {
        let sets = threshold_sets(10.0, 0.3, 11);
        assert_eq!(sets.len(), 11);
        assert_eq!(sets[0].alpha_inter, 0.0);
        assert_eq!(sets[0].alpha_intra, 0.0);
        assert!((sets[10].alpha_inter - 10.0).abs() < 1e-12);
        assert!((sets[10].alpha_intra - 0.3).abs() < 1e-6);
        assert!(sets[5].alpha_inter > sets[4].alpha_inter);
    }

    #[test]
    #[should_panic(expected = "at least two sets")]
    fn single_set_panics() {
        threshold_sets(1.0, 0.1, 1);
    }

    #[test]
    fn ao_and_bpa_selection() {
        let mk = |i: usize, speedup: f64, accuracy: f64| TradeoffPoint {
            set: ThresholdSet {
                index: i,
                alpha_inter: 0.0,
                alpha_intra: 0.0,
            },
            speedup,
            accuracy,
            energy_saving: 0.0,
            power_saving: 0.0,
        };
        let points = vec![
            mk(0, 1.0, 1.0),
            mk(1, 1.8, 0.995),
            mk(2, 2.4, 0.985),
            mk(3, 2.9, 0.93),
            mk(4, 3.1, 0.70),
        ];
        let ao = select_ao(&points);
        assert_eq!(ao.set.index, 2, "AO = best speedup with loss <= 2%");
        let bpa = select_bpa(&points);
        assert_eq!(bpa.set.index, 3, "BPA = max speedup x accuracy");
    }

    #[test]
    fn ao_falls_back_to_baseline_when_nothing_qualifies() {
        let mk = |i: usize, speedup: f64, accuracy: f64| TradeoffPoint {
            set: ThresholdSet {
                index: i,
                alpha_inter: 0.0,
                alpha_intra: 0.0,
            },
            speedup,
            accuracy,
            energy_saving: 0.0,
            power_saving: 0.0,
        };
        let points = vec![mk(0, 1.0, 0.9), mk(1, 2.0, 0.8)];
        assert_eq!(select_ao(&points).set.index, 0);
    }

    #[test]
    fn evaluator_offline_phase_is_sane() {
        let ev = small_evaluator();
        assert!(ev.mts() >= 2, "MTS = {}", ev.mts());
        assert!(ev.upper_alpha_inter() > 0.0);
        assert!(ev.upper_alpha_inter() <= RelevanceAnalyzer::max_relevance());
    }

    #[test]
    fn set_zero_is_exact_and_faster_sets_lose_accuracy_monotonically_ish() {
        let ev = small_evaluator();
        let points = ev.sweep(Level::Combined, 5);
        assert_eq!(points.len(), 5);
        // Set 0 = thresholds zero = exact numerics.
        assert!(
            (points[0].accuracy - 1.0).abs() < 1e-12,
            "set 0 acc {}",
            points[0].accuracy
        );
        assert!(
            (points[0].speedup - 1.0).abs() < 0.25,
            "set 0 speedup {}",
            points[0].speedup
        );
        // The most aggressive set is the fastest (or ties).
        let max_speedup = points.iter().map(|p| p.speedup).fold(0.0, f64::max);
        assert!(points[4].speedup >= max_speedup * 0.9);
        // Accuracy at the aggressive end does not exceed the exact end.
        assert!(points[4].accuracy <= points[0].accuracy + 1e-9);
    }

    #[test]
    fn levels_enable_exactly_their_optimizations() {
        let set = ThresholdSet {
            index: 3,
            alpha_inter: 1.5,
            alpha_intra: 0.05,
        };
        let hw = DrsConfig {
            alpha_intra: 0.05,
            mode: DrsMode::Hardware,
        };
        let paper = OptimizerConfig::builder().build();
        assert_eq!(
            Level::Inter.config(&set, 7),
            OptimizerConfig {
                inter: true,
                alpha_inter: 1.5,
                mts: 7,
                ..paper
            }
        );
        assert_eq!(
            Level::Intra.config(&set, 7),
            OptimizerConfig { drs: hw, ..paper }
        );
        assert_eq!(
            Level::Combined.config(&set, 7),
            OptimizerConfig {
                inter: true,
                alpha_inter: 1.5,
                mts: 7,
                drs: hw,
                ..paper
            }
        );
    }

    #[test]
    fn perf_budget_is_capped_by_the_accuracy_budget() {
        // Pricing the baseline on more sequences than each configuration
        // would show a phantom speedup: the default configuration compiles
        // to the baseline plan, so it must price exactly the same.
        let ev = small_evaluator().with_budget(3, 1);
        assert_eq!(ev.perf_seqs(), 1);
        let (perf, _, _) = ev.evaluate(OptimizerConfig::builder().build());
        assert_eq!(perf, ev.baseline_perf());
    }

    #[test]
    fn baseline_perf_is_positive() {
        let ev = small_evaluator();
        let base = ev.baseline_perf();
        assert!(base.time_s > 0.0);
        assert!(base.energy_j > 0.0);
        assert!(base.power_w() > 1.0);
    }
}
