//! Std-only deterministic, ordered `par_map`.
//!
//! The host-side pipeline of the memlstm reproduction (threshold sweeps,
//! per-sequence evaluation, probe averaging) is embarrassingly parallel
//! across coarse tasks, but the project's numbers must be **bit-identical
//! regardless of worker count**. This crate provides exactly that
//! contract: [`Pool::par_map`] runs `f` over the items on the pool's
//! workers and returns the results **in input order** — every result
//! lands in the slot of the item that produced it, so scheduling order is
//! invisible to the caller. As long as `f` itself is a pure function of
//! its item, the output is byte-for-byte the same for 1 worker or 64.
//!
//! Scheduling is one shared cursor behind a mutex: `min(workers, items)`
//! scoped threads each claim the next `(index, item)` pair until none is
//! left. Items are coarse (whole eval sequences, whole threshold
//! configs), so a claim costs nothing next to running its item.
//!
//! Worker count comes from the `MEMLSTM_THREADS` environment variable
//! when set (a positive integer), else [`std::thread::available_parallelism`].
//! A pool of one worker — and any nested use from inside a pool task —
//! degrades to inline serial execution on the calling thread, so the
//! serial path is always exercised by `MEMLSTM_THREADS=1` and nesting
//! can never oversubscribe the machine.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

thread_local! {
    /// Set on every pool worker thread; nested pool use detects this and
    /// runs serially.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };

    /// The worker's index within its `par_map` call, for utilization
    /// capture. `None` on non-worker threads (inline/serial execution).
    static WORKER_ID: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Fast-path gate for utilization capture: a single relaxed load per task
/// when capture is off, so profiling costs nothing unless enabled.
static CAPTURE_ON: AtomicBool = AtomicBool::new(false);

static CAPTURE: Mutex<Option<CaptureState>> = Mutex::new(None);

struct CaptureState {
    epoch: Instant,
    tasks: Vec<TaskSpan>,
}

/// One executed task as seen by utilization capture: which worker ran it
/// and when (wall-clock seconds relative to [`start_capture`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskSpan {
    /// Worker index within its `par_map` (0 for inline/serial execution).
    pub worker: usize,
    /// Start time in seconds since `start_capture()`.
    pub start_s: f64,
    /// Task duration in seconds.
    pub dur_s: f64,
}

/// Per-worker utilization profile collected between [`start_capture`] and
/// [`stop_capture`]. All times are wall-clock (host) seconds — unrelated
/// to the simulated-GPU clock, so consumers should present the two on
/// separate timelines.
#[derive(Debug, Clone, Default)]
pub struct PoolProfile {
    /// Distinct workers observed (max worker index + 1; 0 if no tasks ran).
    pub workers: usize,
    /// Wall-clock seconds between `start_capture()` and `stop_capture()`.
    pub wall_s: f64,
    /// Every task executed during the capture window, in completion order.
    pub tasks: Vec<TaskSpan>,
}

impl PoolProfile {
    /// Total seconds `worker` spent executing tasks.
    pub fn busy_s(&self, worker: usize) -> f64 {
        self.tasks
            .iter()
            .filter(|t| t.worker == worker)
            .map(|t| t.dur_s)
            .sum()
    }

    /// Fraction of the capture window `worker` spent executing tasks.
    pub fn utilization(&self, worker: usize) -> f64 {
        if self.wall_s > 0.0 {
            self.busy_s(worker) / self.wall_s
        } else {
            0.0
        }
    }
}

/// Begins recording per-worker task spans. Any pool work on any thread is
/// captured until [`stop_capture`] is called. Restarting discards any
/// capture already in progress.
pub fn start_capture() {
    *CAPTURE.lock().unwrap() = Some(CaptureState {
        epoch: Instant::now(),
        tasks: Vec::new(),
    });
    CAPTURE_ON.store(true, Ordering::SeqCst);
}

/// Ends recording and returns the captured profile. Returns an empty
/// profile if no capture was in progress.
pub fn stop_capture() -> PoolProfile {
    CAPTURE_ON.store(false, Ordering::SeqCst);
    match CAPTURE.lock().unwrap().take() {
        Some(st) => {
            let wall_s = st.epoch.elapsed().as_secs_f64();
            let workers = st.tasks.iter().map(|t| t.worker + 1).max().unwrap_or(0);
            PoolProfile {
                workers,
                wall_s,
                tasks: st.tasks,
            }
        }
        None => PoolProfile::default(),
    }
}

/// Runs `task` and returns its value, recording a [`TaskSpan`] when
/// capture is enabled. Observation-only: a panicking task simply goes
/// unrecorded (the panic still propagates).
fn run_task<R>(task: impl FnOnce() -> R) -> R {
    if !CAPTURE_ON.load(Ordering::Relaxed) {
        return task();
    }
    let start = Instant::now();
    let out = task();
    let dur_s = start.elapsed().as_secs_f64();
    let worker = WORKER_ID.with(|w| w.get()).unwrap_or(0);
    if let Some(st) = CAPTURE.lock().unwrap().as_mut() {
        let start_s = start.duration_since(st.epoch).as_secs_f64();
        st.tasks.push(TaskSpan {
            worker,
            start_s,
            dur_s,
        });
    }
    out
}

const UNPOISONED: &str = "par_map: no lock is held while a task runs";

/// `true` when called from inside a pool task (nested parallelism would
/// oversubscribe, so nested maps run serial).
fn in_worker() -> bool {
    IN_WORKER.with(|w| w.get())
}

/// A handle describing how many workers parallel sections may use.
///
/// `Pool` is a cheap value type (it holds only the worker count); the
/// worker threads themselves are scoped to each [`Pool::par_map`] call,
/// so a `Pool` can be stored in long-lived structs without keeping idle
/// threads alive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool {
    workers: usize,
}

impl Default for Pool {
    fn default() -> Self {
        Self::new()
    }
}

impl Pool {
    /// A pool sized from `MEMLSTM_THREADS` (positive integer) when set,
    /// else the machine's available parallelism.
    pub fn new() -> Self {
        let workers = std::env::var("MEMLSTM_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            });
        Self { workers }
    }

    /// A pool with an explicit worker count (clamped to at least 1).
    pub fn with_workers(workers: usize) -> Self {
        Self {
            workers: workers.max(1),
        }
    }

    /// The number of workers parallel sections will use.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Applies `f` to every item on the pool's workers, returning the
    /// results **in input order**. Bit-deterministic for any worker count
    /// as long as `f` is a pure function of its item.
    ///
    /// Runs inline serial for a single-worker pool, a 0/1-item input, or
    /// when called from inside a pool task (nesting stays bounded).
    ///
    /// # Panics
    /// Propagates a panic raised by `f`, once every worker has stopped.
    pub fn par_map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        let n = items.len();
        if self.workers <= 1 || in_worker() || n <= 1 {
            return items.into_iter().map(|item| run_task(|| f(item))).collect();
        }
        let cursor = Mutex::new(items.into_iter().enumerate());
        let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|s| {
            for id in 0..self.workers.min(n) {
                let (cursor, slots, f) = (&cursor, &slots, &f);
                s.spawn(move || {
                    IN_WORKER.with(|w| w.set(true));
                    WORKER_ID.with(|w| w.set(Some(id)));
                    loop {
                        // The claim is its own statement, so the cursor is
                        // unlocked before `f` runs.
                        let next = cursor.lock().expect(UNPOISONED).next();
                        let Some((i, item)) = next else { break };
                        let out = run_task(|| f(item));
                        *slots[i].lock().expect(UNPOISONED) = Some(out);
                    }
                });
            }
        });
        slots
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .expect(UNPOISONED)
                    .expect("par_map: every claimed item writes its slot")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::Ordering;
    use std::time::Duration;

    #[test]
    fn par_map_preserves_order_under_adversarial_durations() {
        // Early items sleep longest, so with eager scheduling they finish
        // *last* — the output must still be in input order.
        let pool = Pool::with_workers(4);
        let items: Vec<usize> = (0..32).collect();
        let out = pool.par_map(items, |i| {
            std::thread::sleep(Duration::from_millis(((37 - i) % 9) as u64));
            i * 10
        });
        assert_eq!(out, (0..32).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_identical_across_worker_counts() {
        let items: Vec<u64> = (0..40).collect();
        let f = |i: u64| i.wrapping_mul(0x9E3779B97F4A7C15).rotate_left(17);
        let serial = Pool::with_workers(1).par_map(items.clone(), f);
        for workers in [2, 3, 8] {
            let parallel = Pool::with_workers(workers).par_map(items.clone(), f);
            assert_eq!(serial, parallel, "{workers} workers diverged");
        }
    }

    #[test]
    fn par_map_handles_empty_and_single() {
        let pool = Pool::with_workers(4);
        assert_eq!(pool.par_map(Vec::<i32>::new(), |x| x), Vec::<i32>::new());
        assert_eq!(pool.par_map(vec![7], |x| x + 1), vec![8]);
    }

    #[test]
    fn nested_par_map_is_serial_and_correct() {
        let pool = Pool::with_workers(4);
        let out = pool.par_map((0..8).collect::<Vec<i32>>(), |i| {
            assert!(in_worker());
            // The inner pool must degrade to inline serial execution.
            let inner = Pool::with_workers(16).par_map((0..4).collect::<Vec<i32>>(), |j| i + j);
            inner.iter().sum::<i32>()
        });
        assert_eq!(out, (0..8).map(|i| 4 * i + 6).collect::<Vec<_>>());
    }

    #[test]
    fn task_panic_propagates() {
        let pool = Pool::with_workers(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.par_map((0..8).collect::<Vec<i32>>(), |i| {
                assert!(i != 5, "boom");
                i
            })
        }));
        assert!(result.is_err());
    }

    #[test]
    fn env_override_controls_worker_count() {
        std::env::set_var("MEMLSTM_THREADS", "3");
        assert_eq!(Pool::new().workers(), 3);
        std::env::set_var("MEMLSTM_THREADS", "not-a-number");
        assert!(Pool::new().workers() >= 1);
        std::env::remove_var("MEMLSTM_THREADS");
        assert!(Pool::new().workers() >= 1);
    }

    #[test]
    fn with_workers_clamps_to_one() {
        assert_eq!(Pool::with_workers(0).workers(), 1);
    }

    #[test]
    fn stop_capture_without_start_is_empty() {
        // Other tests may race a real capture window, so only exercise
        // the no-capture path when nothing is in flight.
        if !CAPTURE_ON.load(Ordering::SeqCst) && CAPTURE.lock().unwrap().is_none() {
            let prof = stop_capture();
            assert_eq!(prof.workers, 0);
            assert!(prof.tasks.is_empty());
        }
    }

    #[test]
    fn capture_records_parallel_and_serial_tasks() {
        start_capture();
        let pool = Pool::with_workers(3);
        let out = pool.par_map((0..12).collect::<Vec<u32>>(), |i| {
            std::thread::sleep(Duration::from_millis(2));
            i * 3
        });
        assert_eq!(out, (0..12).map(|i| i * 3).collect::<Vec<_>>());
        // Serial path records too, attributed to worker 0.
        Pool::with_workers(1).par_map(vec![1, 2], |x| x);
        let prof = stop_capture();
        // `>=` everywhere: concurrent tests may add spans of their own.
        assert!(prof.tasks.len() >= 12, "only {} spans", prof.tasks.len());
        assert!(prof.workers >= 1 && prof.workers <= 64);
        assert!(prof.wall_s > 0.0);
        let busy: f64 = (0..prof.workers).map(|w| prof.busy_s(w)).sum();
        let total: f64 = prof.tasks.iter().map(|t| t.dur_s).sum();
        assert!(total > 0.0 && (busy - total).abs() < 1e-12);
        for t in &prof.tasks {
            assert!(t.start_s >= 0.0 && t.dur_s >= 0.0);
            assert!(t.worker < prof.workers);
        }
        assert!(prof.utilization(0) >= 0.0);
    }

    #[test]
    fn capture_off_changes_nothing() {
        // With capture disabled, the pool behaves exactly as before.
        let pool = Pool::with_workers(2);
        let out = pool.par_map((0..16).collect::<Vec<u64>>(), |i| i * i);
        assert_eq!(out, (0..16).map(|i| i * i).collect::<Vec<_>>());
    }
}
