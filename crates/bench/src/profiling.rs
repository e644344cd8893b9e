//! Bench-side profiling: runs one (benchmark, scheme, threshold-set)
//! combination under the `gpu-sim` [`Profiler`] with pool utilization
//! capture, and folds both into a single Chrome trace.
//!
//! The trace has two processes on deliberately separate timelines:
//!
//! * **pid 0 — simulated GPU time.** One span per kernel launch, placed on
//!   the analytic device clock ([`Profiler`] spans). Span durations sum to
//!   the [`SimReport`] total bit-for-bit.
//! * **pid 1 — host wall-clock time.** One span per pool task, one thread
//!   lane per worker ([`pool::PoolProfile`]). These measure the harness,
//!   not the simulated device, so they must not share a lane with pid 0.
//!
//! Profiling is observation-only: the priced report is bit-identical with
//! profiling enabled or disabled.

use gpu_sim::{ChromeTrace, Profiler, SimReport};
use memlstm::thresholds::{Level, ThresholdSet};
use pool::PoolProfile;
use std::fmt;
use workloads::Benchmark;

use crate::session::Session;

/// Which execution scheme to profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// Unoptimized Algorithm-1 execution.
    Baseline,
    /// Inter-cell optimization only.
    Inter,
    /// Intra-cell (DRS) optimization only.
    Intra,
    /// Both optimization levels.
    Combined,
}

impl Scheme {
    /// All schemes, in presentation order.
    pub const ALL: [Scheme; 4] = [
        Scheme::Baseline,
        Scheme::Inter,
        Scheme::Intra,
        Scheme::Combined,
    ];

    /// Parses a scheme name (case-insensitive).
    pub fn parse(s: &str) -> Option<Scheme> {
        match s.to_ascii_lowercase().as_str() {
            "baseline" => Some(Scheme::Baseline),
            "inter" => Some(Scheme::Inter),
            "intra" => Some(Scheme::Intra),
            "combined" => Some(Scheme::Combined),
            _ => None,
        }
    }

    /// The optimization level behind this scheme (`None` for baseline).
    pub fn level(self) -> Option<Level> {
        match self {
            Scheme::Baseline => None,
            Scheme::Inter => Some(Level::Inter),
            Scheme::Intra => Some(Level::Intra),
            Scheme::Combined => Some(Level::Combined),
        }
    }
}

impl fmt::Display for Scheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Scheme::Baseline => "baseline",
            Scheme::Inter => "inter",
            Scheme::Intra => "intra",
            Scheme::Combined => "combined",
        };
        f.write_str(s)
    }
}

/// Parses a benchmark name as printed by its `Display` impl
/// (case-insensitive: `imdb mr babi snli ptb mt`).
pub fn parse_benchmark(s: &str) -> Option<Benchmark> {
    Benchmark::ALL
        .into_iter()
        .find(|b| b.name().eq_ignore_ascii_case(s))
}

/// One profiled execution and everything captured while running it.
pub struct ProfileRun {
    /// The profiled benchmark.
    pub benchmark: Benchmark,
    /// The profiled scheme.
    pub scheme: Scheme,
    /// Threshold set used (`None` for baseline).
    pub set: Option<ThresholdSet>,
    /// Index of the threshold set within the sweep.
    pub set_index: usize,
    /// Name of the device the run was priced on (stamped into every
    /// chrome-trace span as a `device` arg).
    pub device: String,
    /// The priced report — bit-identical to an unprofiled run.
    pub report: SimReport,
    /// Per-kernel spans on the simulated device clock.
    pub profiler: Profiler,
    /// Host pool utilization captured over the whole run (wall-clock).
    pub pool: PoolProfile,
}

/// Profiles `benchmark` under `scheme`, using the sweep's threshold set
/// `set_index` (ignored for baseline). Captures pool utilization around
/// the whole run, including the offline phase if the session has not
/// built this evaluator yet.
///
/// # Panics
/// Panics if `set_index` is out of range for the session's sweep size.
pub fn profile_run(
    session: &mut Session,
    benchmark: Benchmark,
    scheme: Scheme,
    set_index: usize,
) -> ProfileRun {
    pool::start_capture();
    let (report, profiler, set) = match scheme.level() {
        None => {
            let (report, profiler) = session.prepare(benchmark).profile_baseline();
            (report, profiler, None)
        }
        Some(level) => {
            let sets = session.sets(benchmark);
            let set = *sets.get(set_index).unwrap_or_else(|| {
                panic!(
                    "set index {set_index} out of range (sweep has {} sets)",
                    sets.len()
                )
            });
            let config = session.config_for(benchmark, level, &set);
            let (report, profiler) = session.prepare(benchmark).profile(config);
            (report, profiler, Some(set))
        }
    };
    let pool = pool::stop_capture();
    ProfileRun {
        benchmark,
        scheme,
        set,
        set_index,
        device: session.device().name.clone(),
        report,
        profiler,
        pool,
    }
}

/// Folds a pool profile into `trace` as process `pid`: one thread lane
/// per worker, one span per task, on the wall-clock timeline.
pub fn add_pool_to_chrome(trace: &mut ChromeTrace, pid: u32, prof: &PoolProfile) {
    trace.add_process_name(pid, "host pool (wall-clock time)");
    for w in 0..prof.workers {
        trace.add_thread_name(
            pid,
            w as u32,
            &format!("worker {w} ({:.0}% busy)", prof.utilization(w) * 100.0),
        );
    }
    for (i, t) in prof.tasks.iter().enumerate() {
        trace.add_span(
            pid,
            t.worker as u32,
            "pool task",
            "pool",
            t.start_s * 1e6,
            t.dur_s * 1e6,
            &[("index", gpu_sim::profile::ArgValue::Int(i as i64))],
        );
    }
}

impl ProfileRun {
    /// Builds the combined Chrome trace: GPU kernel spans as pid 0 on the
    /// simulated clock, pool workers as pid 1 on the wall clock.
    pub fn chrome_trace(&self) -> ChromeTrace {
        let mut trace = ChromeTrace::new();
        self.profiler.add_to_chrome(
            &mut trace,
            0,
            &format!(
                "{} {} on {} (simulated GPU time)",
                self.benchmark, self.scheme, self.device
            ),
        );
        add_pool_to_chrome(&mut trace, 1, &self.pool);
        trace
    }

    /// Human-readable summary: run header, flame summary, pool
    /// utilization, and the span-sum/report cross-check.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let set_desc = match &self.set {
            Some(set) => format!(
                "set {} (a_inter={:.4}, a_intra={:.4})",
                self.set_index, set.alpha_inter, set.alpha_intra
            ),
            None => "no thresholds".to_owned(),
        };
        let _ = writeln!(
            out,
            "=== profile: {} / {} / {set_desc} on {} ===",
            self.benchmark, self.scheme, self.device
        );
        let _ = writeln!(
            out,
            "report: time {:.3} ms | energy {:.3} mJ | launches {}",
            self.report.time_s * 1e3,
            self.report.energy.total_j() * 1e3,
            self.report.launches
        );
        let span_sum = self.profiler.total_s();
        let exact = if span_sum.to_bits() == self.report.time_s.to_bits() {
            "bit-exact"
        } else {
            "MISMATCH"
        };
        let _ = writeln!(
            out,
            "span sum: {:.6} ms over {} spans ({exact} vs report)",
            span_sum * 1e3,
            self.profiler.spans().len()
        );
        out.push_str(&self.profiler.flame_summary());
        if self.pool.workers > 0 {
            let _ = writeln!(
                out,
                "host pool: {} workers over {:.2}s wall",
                self.pool.workers, self.pool.wall_s
            );
            for w in 0..self.pool.workers {
                let _ = writeln!(
                    out,
                    "  worker {w}: busy {:.2}s ({:.0}%)",
                    self.pool.busy_s(w),
                    self.pool.utilization(w) * 100.0
                );
            }
        }
        out
    }
}
