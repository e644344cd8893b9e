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
//!   runtime, the serve engine's gang path;
//! * `int8_batch8_serve` — the same gang on the plan re-priced to int8
//!   weights, so the lazily packed int8-rounded slabs run;
//! * `uneven_tissues` — a combined plan whose maximum tissue size does
//!   not divide its sub-layers, so a smaller DRS tissue runs between
//!   larger ones;
//! * `gru_drs` — the GRU Dynamic-Row-Skip plan, on the same tissue walk;
//! * `mixed_gangs` — one runtime running gangs of 8, 3, 1 and 5 lanes on
//!   the baseline plan, on an inter-only plan of multi-cell plain tissues
//!   and on the combined plan of multi-cell DRS tissues, so the tissue
//!   walk's recycled columns (one per lane per cell: hidden states,
//!   products, hoisted gates and masks) grow to the largest tissue and
//!   are then reused. A DRS tissue's columns run the batched hoisted
//!   gate and the column-blocked masked walk, whose products share one
//!   recycled slab. Each gang size keeps its own output vector, as the
//!   audit is of the runtime.
//!
//! A plain run writes `BENCH_alloc.json` at the repo root, the committed
//! baseline. With `--check` the results go to `target/bench/` instead,
//! so a check on an allocating build cannot overwrite the baseline, and
//! the process exits non-zero if any steady-state run allocates — the
//! CI regression guard for the zero-allocation contract.
//!
//! Built behind the `alloc_audit` feature so the counting allocator never
//! rides along in ordinary benchmark builds.

use bench_harness::cli::{output_path, Cli};
use lstm::plan::{ExecutionPlan, NullSink, PlanBody, PlanOutput, PlanRuntime};
use lstm::{gru_exec::GruNetwork, LstmNetwork, ModelConfig};
use memlstm::drs::{DrsConfig, DrsMode};
use memlstm::exec::{OptimizedExecutor, OptimizerConfig};
use memlstm::gru_drs::compile_gru_drs;
use memlstm::prediction::NetworkPredictors;
use memlstm::relevance::RelevanceAnalyzer;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use tensor::init::seeded_rng;
use tensor::{Precision, Vector};

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
        "{:>17}: {} allocs over {} steady runs x {} steps ({:.4}/step)",
        audit.path,
        audit.steady_allocs,
        STEADY_RUNS,
        audit.timesteps_per_run,
        audit.allocs_per_step
    );
    audit
}

/// The cell count of every tissue of an LSTM plan, layer after layer.
fn tissue_sizes(plan: &ExecutionPlan) -> Vec<usize> {
    let PlanBody::Lstm(layers) = &plan.body else {
        unreachable!("an LSTM plan")
    };
    layers
        .iter()
        .flat_map(|l| l.tissues.iter().map(|t| t.cells.len()))
        .collect()
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
    let drs = DrsConfig {
        alpha_intra: 0.06,
        mode: DrsMode::Hardware,
    };
    let offline: Vec<Vec<Vector>> = (0..4)
        .map(|_| lstm::random_inputs(&config, &mut rng))
        .collect();
    let predictors = NetworkPredictors::collect(&net, &offline);
    // Breaks enough links that the layers run multi-cell tissues of up
    // to 4 cells: a lower `alpha_inter` leaves sub-layers that 4 does
    // not divide.
    let reorganized = |divisor: f64, drs: DrsConfig| {
        let config = OptimizerConfig::builder()
            .alpha_inter(RelevanceAnalyzer::max_relevance() / divisor)
            .max_tissue_size(4)
            .drs(drs)
            .build();
        OptimizedExecutor::new(&net, &predictors, config).plan_probes(std::slice::from_ref(&xs))
    };
    let combined = |divisor: f64| reorganized(divisor, drs);
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
        let plan = combined(3.0);
        assert!(
            tissue_sizes(&plan).iter().all(|&s| s > 1),
            "combined_drs: the plan must batch cells into tissues"
        );
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

    {
        let plan = ExecutionPlan::compile_baseline(&net, xs.len(), &device)
            .with_precision(Precision::Int8);
        let mut runtime = PlanRuntime::new();
        let mut outs = Vec::new();
        audits.push(audit("int8_batch8_serve", xs.len(), || {
            runtime.run_lstm_batch_into(&plan, &net, &seqs, &mut NullSink, &mut outs);
        }));
    }

    {
        let plan = combined(6.0);
        let sizes = tissue_sizes(&plan);
        assert!(
            sizes.iter().any(|&s| s != sizes[0]),
            "uneven_tissues: every tissue has {} cells",
            sizes[0]
        );
        let mut runtime = PlanRuntime::new();
        let mut out = PlanOutput::new();
        audits.push(audit("uneven_tissues", xs.len(), || {
            runtime.run_lstm_into(&plan, &net, &xs, &mut NullSink, &mut out);
        }));
    }

    {
        let gru = GruNetwork::random(24, 48, 2, 5, &mut rng);
        let plan = compile_gru_drs(&gru, drs, xs.len(), &device).expect("non-empty sequence");
        let mut runtime = PlanRuntime::new();
        let mut out = PlanOutput::new();
        audits.push(audit("gru_drs", xs.len(), || {
            runtime.run_gru_into(&plan, &gru, &xs, &mut NullSink, &mut out);
        }));
    }

    {
        let baseline = ExecutionPlan::compile_baseline(&net, xs.len(), &device);
        let inter = reorganized(3.0, DrsConfig::disabled());
        let combined = combined(3.0);
        for (name, plan) in [("inter-only", &inter), ("combined", &combined)] {
            assert!(
                tissue_sizes(plan).iter().all(|&s| s > 1),
                "mixed_gangs: the {name} plan must batch cells into tissues"
            );
        }
        const GANGS: [usize; 4] = [8, 3, 1, 5];
        let mut runtime = PlanRuntime::new();
        let mut outs: [Vec<PlanOutput>; 4] = Default::default();
        audits.push(audit("mixed_gangs", xs.len(), || {
            for (gang, outs) in GANGS.into_iter().zip(&mut outs) {
                for plan in [&baseline, &inter, &combined] {
                    runtime.run_lstm_batch_into(plan, &net, &seqs[..gang], &mut NullSink, outs);
                }
            }
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
    let path = output_path("BENCH_alloc.json", check);
    std::fs::write(&path, &json).expect("write BENCH_alloc.json");
    println!("wrote {}", path.display());

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
