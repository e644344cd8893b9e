//! Audits heap allocations on the steady-state inference paths.
//!
//! The plan runtime advertises a zero-allocation steady state: once its
//! workspaces are warm, re-running the same plan must not touch the heap
//! (the fused gate slabs, hidden-state double buffers and mask scratch
//! are all recycled). This binary *proves* it with a counting global
//! allocator: each audited path is warmed up, then run repeatedly while
//! the allocation counter is watched.
//!
//! Audited paths:
//! * `baseline` — the cuDNN-style LSTM plan through [`PlanRuntime`] as a
//!   batch of one;
//! * `combined_drs` — tissues + Dynamic Row Skip (the paper's combined
//!   scheme), exercising the masked-kernel and tissue-slot scratch;
//! * `gru_baseline` — the three-gate GRU plan;
//! * `batch8_serve` — eight sequences in lockstep through the same
//!   runtime, the serve engine's gang path.
//!
//! Results go to `BENCH_alloc.json` at the repo root. With `--check` the
//! process instead exits non-zero if any steady-state run allocates —
//! the CI regression guard for the zero-allocation contract.
//!
//! Built behind the `alloc_audit` feature so the counting allocator never
//! rides along in ordinary benchmark builds.

use bench_harness::cli::Cli;
use lstm::plan::{ExecutionPlan, NullSink, PlanOutput, PlanRuntime};
use lstm::{gru_exec::GruNetwork, LstmNetwork, ModelConfig};
use memlstm::drs::{DrsConfig, DrsMode};
use memlstm::exec::{OptimizedExecutor, OptimizerConfig};
use memlstm::prediction::NetworkPredictors;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use tensor::init::seeded_rng;
use tensor::Vector;

/// [`System`] with an allocation counter. Only `alloc`/`realloc` count:
/// the contract under audit is "no new heap memory per steady-state
/// step", and frees of warmup buffers would only mask violations.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers entirely to `System`; the counter is a relaxed atomic.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Steady-state runs counted after warmup.
const STEADY_RUNS: u64 = 5;
/// Warmup runs sizing every recycled buffer before counting starts.
const WARMUP_RUNS: usize = 2;

/// One audited path's numbers.
struct Audit {
    path: &'static str,
    timesteps_per_run: usize,
    steady_allocs: u64,
    allocs_per_step: f64,
}

fn count_allocs(mut run: impl FnMut()) -> u64 {
    for _ in 0..WARMUP_RUNS {
        run();
    }
    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..STEADY_RUNS {
        run();
    }
    ALLOCS.load(Ordering::Relaxed) - before
}

fn audit(path: &'static str, seq_len: usize, run: impl FnMut()) -> Audit {
    let steady_allocs = count_allocs(run);
    let audit = Audit {
        path,
        timesteps_per_run: seq_len,
        steady_allocs,
        allocs_per_step: steady_allocs as f64 / (STEADY_RUNS as f64 * seq_len as f64),
    };
    println!(
        "{:>14}: {} allocs over {} steady runs x {} steps ({:.4}/step)",
        audit.path,
        audit.steady_allocs,
        STEADY_RUNS,
        audit.timesteps_per_run,
        audit.allocs_per_step
    );
    audit
}

const CLI: Cli = Cli::switches("usage: alloc_audit [--check]", &["--check"]);

fn main() {
    let check = CLI.parse_env().flag("--check");
    let device = gpu_sim::DeviceModel::default_preset();
    let config = ModelConfig::new("alloc-audit", 24, 48, 2, 12, 5).unwrap();
    let mut rng = seeded_rng(17);
    let net = LstmNetwork::random(&config, &mut rng);
    let xs = lstm::random_inputs(&config, &mut rng);
    let seqs: Vec<Vec<Vector>> = (0..8)
        .map(|_| lstm::random_inputs(&config, &mut rng))
        .collect();
    let mut audits = Vec::new();

    {
        let plan = ExecutionPlan::compile_baseline(&net, xs.len(), &device);
        let mut runtime = PlanRuntime::new();
        let mut out = PlanOutput::new();
        audits.push(audit("baseline", xs.len(), || {
            runtime.run_lstm_into(&plan, &net, &xs, &mut NullSink, &mut out);
        }));
    }

    {
        let offline: Vec<Vec<Vector>> = (0..4)
            .map(|_| lstm::random_inputs(&config, &mut rng))
            .collect();
        let predictors = NetworkPredictors::collect(&net, &offline);
        let combined = OptimizerConfig::builder()
            .alpha_inter(1.0)
            .max_tissue_size(4)
            .drs(DrsConfig {
                alpha_intra: 0.06,
                mode: DrsMode::Hardware,
            })
            .build();
        let exec = OptimizedExecutor::new(&net, &predictors, combined);
        let plan = exec.plan_probes(std::slice::from_ref(&xs));
        let mut runtime = PlanRuntime::new();
        let mut out = PlanOutput::new();
        audits.push(audit("combined_drs", xs.len(), || {
            runtime.run_lstm_into(&plan, &net, &xs, &mut NullSink, &mut out);
        }));
    }

    {
        let gru = GruNetwork::random(24, 48, 2, 5, &mut rng);
        let plan = ExecutionPlan::compile_gru_baseline(&gru, xs.len(), &device);
        let mut runtime = PlanRuntime::new();
        let mut out = PlanOutput::new();
        audits.push(audit("gru_baseline", xs.len(), || {
            runtime.run_gru_into(&plan, &gru, &xs, &mut NullSink, &mut out);
        }));
    }

    {
        let plan = ExecutionPlan::compile_baseline(&net, xs.len(), &device);
        let mut runtime = PlanRuntime::new();
        let mut outs = Vec::new();
        audits.push(audit("batch8_serve", xs.len(), || {
            runtime.run_lstm_batch_into(&plan, &net, &seqs, &mut NullSink, &mut outs);
        }));
    }

    let rows: Vec<String> = audits
        .iter()
        .map(|a| {
            format!(
                "    {{\"path\": \"{}\", \"steady_runs\": {STEADY_RUNS}, \
                 \"timesteps_per_run\": {}, \"steady_allocs\": {}, \
                 \"allocs_per_step\": {:.4}}}",
                a.path, a.timesteps_per_run, a.steady_allocs, a.allocs_per_step
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"benchmark\": \"alloc_audit\",\n  \"note\": \"heap allocations on warmed \
         steady-state inference paths; the contract is zero\",\n  \"paths\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_alloc.json");
    std::fs::write(path, &json).expect("write BENCH_alloc.json");
    println!("wrote {path}");

    if check {
        let dirty: Vec<&str> = audits
            .iter()
            .filter(|a| a.steady_allocs != 0)
            .map(|a| a.path)
            .collect();
        assert!(
            dirty.is_empty(),
            "steady-state allocations on: {}",
            dirty.join(", ")
        );
        println!("check passed: all steady-state paths allocation-free");
    }
}
