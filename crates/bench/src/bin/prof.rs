//! Standalone profiler: runs one (benchmark, scheme, threshold-set)
//! combination under the `gpu-sim` profiler and exports a Chrome trace.
//!
//! ```text
//! cargo run -p mf-bench --release --bin prof -- <benchmark> <scheme> [set-index] [--fast] [--out FILE]
//! ```
//!
//! * `benchmark`: `imdb mr babi snli ptb mt`
//! * `scheme`: `baseline inter intra combined`
//! * `set-index`: threshold-set index in the 11-point sweep (default 5,
//!   the middle set; ignored for `baseline`)
//! * `--fast`: tiny evaluation budgets (smoke run)
//! * `--out FILE`: trace path (default `prof_<benchmark>_<scheme>.trace.json`)
//!
//! The flame summary and pool utilization go to stdout; the Chrome trace
//! (loadable in `chrome://tracing` / Perfetto) goes to the output file.

use bench_harness::cli::Cli;
use bench_harness::{profiling, session, Session};
use std::process::exit;

const CLI: Cli = Cli {
    usage: "usage: prof <benchmark> <scheme> [set-index] [--fast] [--out FILE]\n\
            benchmarks: imdb mr babi snli ptb mt\n\
            schemes:    baseline inter intra combined",
    switches: &["--fast"],
    options: &["--out"],
    max_positional: 3,
};

fn main() {
    let args = CLI.parse_env();
    let fast = args.flag("--fast");
    let out = args.option("--out").map(str::to_owned);
    let positional = &args.positional;
    let (bench_arg, scheme_arg) = match (positional.first(), positional.get(1)) {
        (Some(b), Some(s)) => (b.as_str(), s.as_str()),
        _ => CLI.exit_usage("missing <benchmark> or <scheme>"),
    };
    let benchmark = profiling::parse_benchmark(bench_arg)
        .unwrap_or_else(|| CLI.exit_usage(&format!("unknown benchmark '{bench_arg}'")));
    let scheme = profiling::Scheme::parse(scheme_arg)
        .unwrap_or_else(|| CLI.exit_usage(&format!("unknown scheme '{scheme_arg}'")));
    let set_index = match positional.get(2) {
        Some(s) => s.parse::<usize>().unwrap_or_else(|_| {
            CLI.exit_usage(&format!("set-index must be an integer, got '{s}'"))
        }),
        None => session::NUM_SETS / 2,
    };
    if set_index >= session::NUM_SETS {
        CLI.exit_usage(&format!(
            "set-index {set_index} out of range (sweep has {} sets)",
            session::NUM_SETS
        ));
    }

    let mut sess = Session::new(fast);
    let run = profiling::profile_run(&mut sess, benchmark, scheme, set_index);
    print!("{}", run.summary());

    let json = run.chrome_trace().to_json();
    match gpu_sim::validate_chrome_trace(&json) {
        Ok(n) => println!("chrome trace validated: {n} events"),
        Err(e) => {
            eprintln!("chrome trace INVALID: {e}");
            exit(1);
        }
    }
    let path = out.unwrap_or_else(|| format!("prof_{benchmark}_{scheme}.trace.json"));
    if let Err(e) = std::fs::write(&path, &json) {
        eprintln!("failed to write {path}: {e}");
        exit(1);
    }
    println!("wrote {path}");
}
