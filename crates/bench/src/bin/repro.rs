//! The reproduction driver: regenerates every table and figure.
//!
//! ```text
//! cargo run -p mf-bench --release --bin repro -- <experiment> [--fast] [--profile]
//! cargo run -p mf-bench --release --bin repro -- all
//! ```
//!
//! Experiments: `table1 table2 fig4 fig6 fig9 fig14 fig15 fig16 fig17
//! fig18 fig19 reload overheads all`. `--fast` restricts to the two
//! cheapest benchmarks with tiny budgets (smoke run).
//!
//! `--profile` additionally profiles each benchmark (baseline + combined,
//! middle threshold set) after the experiments finish and writes a
//! combined Chrome trace to `repro_profile.trace.json`. Profiling is
//! observation-only: stdout stays byte-identical with or without the
//! flag (flame summaries go to stderr).
//!
//! The simulated device comes from `MEMLSTM_DEVICE` (unset: the paper's
//! Tegra X1, under which the pinned `repro_output*.txt` snapshots hold;
//! the device banner goes to stderr so stdout stays byte-stable).

use bench_harness::cli::Cli;
use bench_harness::{
    ablations, figures_memory, figures_perf, figures_tradeoff, figures_user, profiling, session,
    tables, Session,
};

type Experiment = (&'static str, fn(&mut Session) -> String);

fn main() {
    let experiments: Vec<Experiment> = vec![
        ("table1", |_s| tables::table1()),
        ("table2", |_s| tables::table2()),
        ("fig4", figures_memory::fig4),
        ("fig6", figures_memory::fig6),
        ("fig9", figures_memory::fig9),
        ("reload", figures_memory::reload),
        ("fig14", figures_perf::fig14),
        ("fig15", figures_perf::fig15),
        ("fig16", figures_perf::fig16),
        ("fig17", figures_tradeoff::fig17),
        ("fig19", figures_tradeoff::fig19),
        ("fig18", figures_user::fig18),
        ("overheads", tables::overheads),
        ("ablations", ablations::ablations),
        ("gru", ablations::gru_demo),
        ("gpu-scaling", ablations::gpu_scaling),
        ("compression-acc", ablations::compression_accuracy),
    ];
    let usage = format!(
        "usage: repro <{}|all> [--fast] [--profile]",
        experiments
            .iter()
            .map(|(n, _)| *n)
            .collect::<Vec<_>>()
            .join("|")
    );
    let cli = Cli {
        usage: &usage,
        switches: &["--fast", "--profile"],
        options: &[],
        max_positional: 1,
    };
    let args = cli.parse_env();
    let what = args.positional.first().map_or("", String::as_str);
    let mut session = Session::new(args.flag("--fast"));
    eprintln!("[repro] device: {}", session.device().name);

    match what {
        "all" => {
            // Build every evaluator and sweep up front, fanned out across
            // benchmarks/levels on the session pool (MEMLSTM_THREADS);
            // the experiments below then replay cached results.
            let start = std::time::Instant::now();
            session.prewarm();
            eprintln!("[prewarm took {:.1}s]", start.elapsed().as_secs_f64());
            for (name, f) in &experiments {
                let start = std::time::Instant::now();
                println!("################ {name} ################");
                println!("{}", f(&mut session));
                eprintln!("[{name} took {:.1}s]", start.elapsed().as_secs_f64());
            }
        }
        other => {
            if let Some((_, f)) = experiments.iter().find(|(name, _)| *name == other) {
                println!("{}", f(&mut session));
            } else {
                cli.exit_usage(&format!("unknown experiment '{other}'"));
            }
        }
    }

    if args.flag("--profile") {
        write_profile(&mut session);
    }
}

/// Profiles every session benchmark (baseline + combined at the middle
/// threshold set) and writes one combined Chrome trace. Everything here
/// goes to stderr or the trace file — stdout is already final.
fn write_profile(session: &mut Session) {
    let mut trace = gpu_sim::ChromeTrace::new();
    let mut pid = 0;
    for benchmark in session.benchmarks() {
        for scheme in [profiling::Scheme::Baseline, profiling::Scheme::Combined] {
            let run = profiling::profile_run(session, benchmark, scheme, session::NUM_SETS / 2);
            eprintln!("{}", run.summary());
            run.profiler.add_to_chrome(
                &mut trace,
                pid,
                &format!(
                    "{benchmark} {scheme} on {} (simulated GPU time)",
                    run.device
                ),
            );
            profiling::add_pool_to_chrome(&mut trace, pid + 1, &run.pool);
            pid += 2;
        }
    }
    let json = trace.to_json();
    match gpu_sim::validate_chrome_trace(&json) {
        Ok(n) => eprintln!("[profile] chrome trace validated: {n} events"),
        Err(e) => eprintln!("[profile] chrome trace INVALID: {e}"),
    }
    let path = "repro_profile.trace.json";
    match std::fs::write(path, &json) {
        Ok(()) => eprintln!("[profile] wrote {path}"),
        Err(e) => eprintln!("[profile] failed to write {path}: {e}"),
    }
}
