//! Profiler integration tests: profiling must be observation-only (the
//! priced report is bit-identical with profiling on or off), span times
//! must sum to the report total bit-for-bit, exported Chrome traces must
//! validate, and plan-phase tags must be attributable.

use gpu_sim::{validate_chrome_trace, DeviceModel, GpuDevice, Phase};
use lstm::{ExecutionPlan, PlanRuntime};
use memlstm::exec::profile_plan;
use memlstm::thresholds::{threshold_sets, Evaluator, Level};
use workloads::{Benchmark, Workload};

fn evaluator() -> Evaluator {
    let workload = Workload::generate(Benchmark::Mr, 4, 0x5EED);
    Evaluator::new(workload, DeviceModel::tegra_x1()).with_budget(2, 4)
}

/// Profiling the baseline plan must not change a single bit of the
/// priced report relative to an unprofiled session over the same plan.
#[test]
fn profiling_is_observation_only() {
    let workload = Workload::generate(Benchmark::Mr, 4, 0x5EED);
    let net = workload.network();
    let xs = &workload.eval_set()[0];
    let plan = ExecutionPlan::compile_baseline(net, xs.len(), &DeviceModel::tegra_x1());
    let gpu = DeviceModel::tegra_x1();

    let mut device = GpuDevice::for_model(&gpu);
    let mut session = device.begin_trace();
    PlanRuntime::new().run_lstm(&plan, net, xs, &mut session);
    let plain = session.finish();

    let (profiled, profiler) = profile_plan(&plan, net, xs, &gpu).unwrap();

    assert_eq!(plain.time_s.to_bits(), profiled.time_s.to_bits());
    assert_eq!(plain.crm_s.to_bits(), profiled.crm_s.to_bits());
    assert_eq!(
        plain.energy.total_j().to_bits(),
        profiled.energy.total_j().to_bits()
    );
    assert_eq!(plain.launches, profiled.launches);
    assert_eq!(plain.flops, profiled.flops);
    assert_eq!(plain.dram_read_bytes, profiled.dram_read_bytes);
    assert_eq!(plain.dram_write_bytes, profiled.dram_write_bytes);
    assert_eq!(plain.l2_hit_bytes, profiled.l2_hit_bytes);
    assert_eq!(plain.smem_bytes, profiled.smem_bytes);
    assert_eq!(
        plain.stall.total_s().to_bits(),
        profiled.stall.total_s().to_bits()
    );
    assert_eq!(profiler.spans().len() as u64, profiled.launches);
}

/// One span is recorded per kernel launch, and the sum of span times —
/// accumulated in launch order, exactly like `SimReport::absorb` —
/// reproduces the report total bit-for-bit.
#[test]
fn span_times_sum_to_report_total_bitwise() {
    let ev = evaluator();
    let (report, profiler) = ev.profile_baseline();
    assert_eq!(profiler.spans().len() as u64, report.launches);
    assert_eq!(profiler.total_s().to_bits(), report.time_s.to_bits());
    let mut sum = 0.0f64;
    for span in profiler.spans() {
        assert_eq!(
            span.time_s.to_bits(),
            (span.exec_s + span.overhead_s).to_bits()
        );
        sum += span.time_s;
    }
    assert_eq!(sum.to_bits(), report.time_s.to_bits());

    // Same for an optimized (tissue-scheduled) plan.
    let sets = threshold_sets(ev.upper_alpha_inter(), ev.upper_alpha_intra(), 5);
    let (report, profiler) = ev.profile(Level::Combined.config(&sets[2], ev.mts()));
    assert_eq!(profiler.spans().len() as u64, report.launches);
    assert_eq!(profiler.total_s().to_bits(), report.time_s.to_bits());
}

/// Baseline spans carry Wx/Cells/Head phase tags; optimized plans add
/// Offline and Tissue phases with tissue ids on the tissue spans.
#[test]
fn spans_carry_plan_phase_tags() {
    let ev = evaluator();
    let (_, baseline) = ev.profile_baseline();
    let has = |profiler: &gpu_sim::Profiler, phase: Phase| {
        profiler.spans().iter().any(|s| s.tag.phase == phase)
    };
    assert!(has(&baseline, Phase::Wx), "no Wx spans in baseline");
    assert!(has(&baseline, Phase::Cells), "no Cells spans in baseline");
    assert!(has(&baseline, Phase::Head), "no Head spans in baseline");
    assert!(
        baseline
            .spans()
            .iter()
            .filter(|s| s.tag.phase == Phase::Cells)
            .all(|s| s.tag.layer.is_some() && s.tag.step.is_some()),
        "Cells spans must carry layer and step ids"
    );

    let sets = threshold_sets(ev.upper_alpha_inter(), ev.upper_alpha_intra(), 5);
    let (_, opt) = ev.profile(Level::Combined.config(&sets[2], ev.mts()));
    assert!(
        has(&opt, Phase::Tissue),
        "no Tissue spans in optimized plan"
    );
    assert!(
        opt.spans()
            .iter()
            .filter(|s| s.tag.phase == Phase::Tissue)
            .all(|s| s.tag.tissue.is_some()),
        "Tissue spans must carry tissue ids"
    );
}

/// The exported Chrome trace is well-formed trace-event JSON and covers
/// every span plus the two metadata events.
#[test]
fn chrome_trace_export_validates() {
    let ev = evaluator();
    let (_, profiler) = ev.profile_baseline();
    let json = profiler.chrome_trace().to_json();
    let events = validate_chrome_trace(&json).expect("well-formed trace");
    assert_eq!(events, profiler.spans().len() + 2);
    // Rollups cover every span exactly once.
    let by_phase: u64 = profiler.phase_rollup().iter().map(|p| p.launches).sum();
    let by_kind: u64 = profiler.kind_rollup().iter().map(|k| k.launches).sum();
    assert_eq!(by_phase, profiler.spans().len() as u64);
    assert_eq!(by_kind, profiler.spans().len() as u64);
}
