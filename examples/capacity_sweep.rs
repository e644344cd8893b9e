//! Model-capacity scalability (the paper's Fig. 17 / Sec. VI-D story):
//! sweep the hidden size and the sequence length of a QA model and watch
//! how the combined optimization's speedup scales — the paper's claim is
//! that the techniques scale *with* the model, because bigger weight
//! matrices reload more redundantly and longer layers divide better.
//!
//! ```text
//! cargo run --release --example capacity_sweep
//! ```

use memlstm::prelude::*;
use memlstm::thresholds::Level;

fn main() {
    let base = Benchmark::Babi.model_config();
    println!("base model: {base}\n");

    println!("-- hidden-size sweep (length {}) --", base.seq_len);
    println!("hidden  MTS  speedup@<=2% loss  accuracy");
    for hidden in [128usize, 192, 256, 384] {
        let config = base.with_hidden_size(hidden);
        report(&config, hidden);
    }

    println!(
        "\n-- sequence-length sweep (hidden {}) --",
        base.hidden_size
    );
    println!("length  MTS  speedup@<=2% loss  accuracy");
    for len in [22usize, 43, 86, 129] {
        let config = base.with_seq_len(len);
        report(&config, len);
    }
}

fn report(config: &lstm::ModelConfig, label: usize) {
    let workload = Workload::generate_scaled(Benchmark::Babi, config, 3, 5);
    let evaluator = Evaluator::new(workload, DeviceModel::tegra_x1()).with_budget(1, 3);
    let points = evaluator.sweep(Level::Combined, 7);
    let ao = memlstm::thresholds::select_ao(&points);
    println!(
        "{label:6}  {:3}  {:16.2}x  {:7.1}%",
        evaluator.mts(),
        ao.speedup,
        ao.accuracy * 100.0
    );
}
