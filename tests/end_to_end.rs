//! Cross-crate integration: the full pipeline from workload synthesis to
//! threshold selection, on a scaled-down benchmark so the suite stays
//! fast on one core.

use gpu_sim::DeviceModel;
use memlstm::thresholds::{select_ao, select_bpa, Evaluator, Level};
use workloads::{Benchmark, Workload};

fn small_evaluator() -> Evaluator {
    let config = Benchmark::Babi
        .model_config()
        .with_hidden_size(96)
        .with_seq_len(24);
    let workload = Workload::generate_scaled(Benchmark::Babi, &config, 4, 9);
    Evaluator::new(workload, DeviceModel::tegra_x1()).with_budget(1, 4)
}

#[test]
fn offline_phase_produces_sane_parameters() {
    let ev = small_evaluator();
    assert!((2..=10).contains(&ev.mts()), "MTS {}", ev.mts());
    assert!(ev.upper_alpha_inter() > 0.0);
    assert!(ev.upper_alpha_inter() <= memlstm::relevance::RelevanceAnalyzer::max_relevance());
    assert!(ev.predictors().num_layers() == 3);
}

#[test]
fn sweep_spans_baseline_to_aggressive() {
    let ev = small_evaluator();
    let points = ev.sweep(Level::Combined, 6);
    assert_eq!(points.len(), 6);
    // Set 0 is the exact baseline.
    assert!((points[0].accuracy - 1.0).abs() < 1e-12);
    assert!(
        (points[0].speedup - 1.0).abs() < 0.2,
        "set-0 speedup {}",
        points[0].speedup
    );
    // The aggressive end is strictly faster than the baseline end.
    assert!(points[5].speedup > points[0].speedup * 1.2);
    // Accuracy never exceeds the exact baseline.
    for p in &points {
        assert!(p.accuracy <= 1.0 + 1e-12);
        assert!(p.speedup > 0.3);
    }
}

#[test]
fn ao_respects_the_two_percent_budget() {
    let ev = small_evaluator();
    let points = ev.sweep(Level::Combined, 6);
    let ao = select_ao(&points);
    assert!(ao.loss() <= 0.02 + 1e-9, "AO loss {}", ao.loss());
    let bpa = select_bpa(&points);
    assert!(bpa.bpa_score() >= ao.bpa_score() - 1e-12);
}

#[test]
fn energy_saving_tracks_speedup() {
    let ev = small_evaluator();
    let points = ev.sweep(Level::Combined, 6);
    // The paper: energy saving is roughly proportional to the performance
    // boost. Check the aggressive end saves energy.
    let fast = &points[5];
    assert!(
        fast.energy_saving > 0.0,
        "no energy saving at {}x",
        fast.speedup
    );
    // And the exact baseline set saves ~nothing (only overheads).
    assert!(points[0].energy_saving.abs() < 0.1);
}

#[test]
fn baseline_perf_is_deterministic() {
    let ev = small_evaluator();
    let a = ev.baseline_perf();
    let b = ev.baseline_perf();
    assert_eq!(a, b);
}
