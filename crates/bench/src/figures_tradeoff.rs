//! Trade-off experiments: Fig. 19 (threshold sweep per application) and
//! Fig. 17 (model-capacity sensitivity on BABI).

use crate::session::Session;
use crate::table::TextTable;

use memlstm::thresholds::{select_ao, select_bpa, Evaluator, Level};
use workloads::{Benchmark, Workload};

/// Fig. 19: speedup and accuracy across the 11 threshold sets for every
/// application, with the AO and BPA sets marked.
pub fn fig19(session: &mut Session) -> String {
    let mut out = String::from(
        "Fig. 19 — performance-accuracy trade-offs across threshold sets\n\
         paper: speedup grows and accuracy falls with the set index;\n\
         AO = last set with ≤2% loss, BPA = max speedup x accuracy\n",
    );
    for benchmark in session.benchmarks() {
        let points = session.sweep(benchmark, Level::Combined);
        let ao = select_ao(&points).set.index;
        let bpa = select_bpa(&points).set.index;
        let mut table = TextTable::new(["set", "speedup", "accuracy%", "energy sav%", "mark"]);
        for p in &points {
            let mut mark = String::new();
            if p.set.index == ao {
                mark.push_str("AO ");
            }
            if p.set.index == bpa {
                mark.push_str("BPA");
            }
            table.row([
                format!("{}", p.set.index),
                format!("{:.2}x", p.speedup),
                format!("{:.1}", p.accuracy * 100.0),
                format!("{:.1}", p.energy_saving * 100.0),
                mark,
            ]);
        }
        out.push_str(&format!("\n{}\n{table}", benchmark.name()));
    }
    out
}

/// Fig. 17: performance-accuracy trade-offs of BABI under different model
/// capacities — (a) hidden sizes, (b) input lengths.
///
/// The paper's findings: at the same accuracy, larger hidden size or
/// longer input gives more speedup; at small loss (<5%) capacity matters
/// little.
pub fn fig17(session: &mut Session) -> String {
    let sets = if session.is_fast() { 5 } else { 7 };
    let base_spec = Benchmark::Babi.model_config();
    let mut out = String::from(
        "Fig. 17 — BABI trade-offs vs. model capacity\n\
         paper: larger hidden size / longer input -> higher speedup at equal accuracy\n",
    );

    let run_config = |label: String, config: &lstm::ModelConfig| -> String {
        let eval_n = if session.is_fast() { 2 } else { 6 };
        let workload = Workload::generate_scaled(Benchmark::Babi, config, eval_n, 0xF16);
        let ev = Evaluator::new(workload, session.device().clone()).with_budget(1, eval_n);
        let points = ev.sweep(Level::Combined, sets);
        let mut table = TextTable::new(["set", "speedup", "accuracy%"]);
        for p in &points {
            table.row([
                format!("{}", p.set.index),
                format!("{:.2}x", p.speedup),
                format!("{:.1}", p.accuracy * 100.0),
            ]);
        }
        format!("\n{label}\n{table}")
    };

    out.push_str("\n(a) hidden-unit size sweep (input length 86)\n");
    for hidden in [128usize, 256, 512] {
        let config = base_spec.with_hidden_size(hidden);
        out.push_str(&run_config(format!("hidden {hidden} - length 86"), &config));
    }
    out.push_str("\n(b) input-length sweep (hidden 256)\n");
    for len in [43usize, 86, 172] {
        let config = base_spec.with_seq_len(len);
        out.push_str(&run_config(format!("hidden 256 - length {len}"), &config));
    }
    out
}
