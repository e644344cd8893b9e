//! An IPA-style interactive session: a question-answering assistant that
//! serves queries under a latency budget and adapts its thresholds to the
//! user with the UO tuner (paper Sec. VI-E).
//!
//! Each "query" is a synthetic utterance run through the BABI QA model on
//! the simulated Tegra X1; the user's satisfaction feedback (from a
//! synthetic participant profile) drives the threshold adaptation.
//!
//! ```text
//! cargo run --release --example voice_assistant
//! ```

use memlstm::prelude::*;
use memlstm::thresholds::Level;

const QUERIES: usize = 20;

fn main() {
    // The assistant's model: BABI question answering (Table II row 3).
    let workload = Workload::generate(Benchmark::Babi, 4, 7);
    println!("assistant model: {}", workload.network().config());

    // Offline phase (shipped with the app): MTS, link predictors, and the
    // threshold-set table.
    let evaluator = Evaluator::new(workload, DeviceModel::tegra_x1()).with_budget(1, 2);
    let sets = threshold_sets(
        evaluator.upper_alpha_inter(),
        evaluator.upper_alpha_intra(),
        11,
    );
    let predictors = NetworkPredictors::collect(
        evaluator.workload().network(),
        evaluator.workload().dataset().offline(),
    );

    // Baseline latency for reference.
    let net = evaluator.workload().network();
    let mut device = GpuDevice::for_model(&DeviceModel::tegra_x1());
    let mut runtime = PlanRuntime::new();
    let xs0 = &evaluator.workload().eval_set()[0];
    let baseline = ExecutionPlan::compile_baseline(net, xs0.len(), &DeviceModel::tegra_x1());
    let mut session = device.begin_trace();
    runtime.run_lstm(&baseline, net, xs0, &mut session);
    let base = session.finish();
    println!("baseline latency: {:.1} ms per query\n", base.time_s * 1e3);

    // A user with their own speed/accuracy taste, and the UO tuner that
    // learns it. Start from a mid-table (AO-ish) set.
    let mut rng = seeded_rng(99);
    let user = Participant::sample(&mut rng);
    let mut tuner = UoTuner::new(sets.len(), 4);

    println!("query  set  latency(ms)  speedup  user score");
    for q in 0..QUERIES {
        let set = tuner.current_set();
        let config = Level::Combined.config(&sets[set], evaluator.mts());
        let xs = &evaluator.workload().eval_set()[q % evaluator.workload().eval_set().len()];
        // Each query is compiled with itself as the only probe.
        let plan =
            OptimizedExecutor::new(net, &predictors, config).plan_probes(std::slice::from_ref(xs));
        device.reset();
        let mut session = device.begin_trace();
        runtime.run_lstm(&plan, net, xs, &mut session);
        let report = session.finish();
        let speedup = base.time_s / report.time_s;
        // The replay program's satisfaction probe: the user rates speed
        // against perceived accuracy (losses under 2% are imperceptible).
        let loss_proxy = sets[set].alpha_intra as f64 * 0.12
            + sets[set].alpha_inter / evaluator.upper_alpha_inter() * 0.05;
        let score = user.rate(speedup, loss_proxy, &mut rng);
        println!(
            "{q:5}  {set:3}  {:11.1}  {speedup:6.2}x  {score:.2}",
            report.time_s * 1e3
        );
        tuner.record_feedback(score);
    }
    println!(
        "\nconverged on threshold set {} (alpha_inter {:.2}, alpha_intra {:.3}) for this user",
        tuner.best_set(),
        sets[tuner.best_set()].alpha_inter,
        sets[tuner.best_set()].alpha_intra
    );
}
