//! Sequence checks at every `memlstm` entry point that takes sequences:
//! a step one element too short or too long is a typed
//! `Error::StepWidthMismatch` naming the first bad step, and an empty
//! sequence or one of the wrong length is `Error::EmptyInput` or
//! `Error::SeqLenMismatch` — never a panic in the `W·x` walk or a request
//! that is accepted and then never resolves. A probe holding NaN or ±inf
//! is `Error::NonFiniteProbe` at `compile`, naming its step and element,
//! and such an input sequence is `Error::NonFiniteInput` at the execution
//! entry points instead of a request served NaN logits. An optimizer
//! configuration whose enabled level cannot run (a zero tissue size, a
//! NaN or infinite threshold) is `Error::InvalidOptimizerConfig` at
//! `compile` and `compile_gru_drs` instead of a scheduler panic or a
//! level that silently compiles away.

use gpu_sim::DeviceModel;
use lstm::gru_exec::GruNetwork;
use lstm::plan::ExecutionPlan;
use memlstm::compile::compile;
use memlstm::exec::profile_plan;
use memlstm::gru_drs::compile_gru_drs;
use memlstm::prelude::*;
use memlstm::relevance::RelevanceAnalyzer;
use std::panic::{catch_unwind, AssertUnwindSafe};

const INPUT: usize = 10;
const SEQ: usize = 6;

/// A network of `layers` layers and one well-formed sequence.
fn setup(layers: usize) -> (LstmNetwork, Vec<Vector>) {
    let config = ModelConfig::new("input-checks", INPUT, 16, layers, SEQ, 3).unwrap();
    let mut rng = seeded_rng(3);
    let net = LstmNetwork::random(&config, &mut rng);
    let xs = lstm::random_inputs(&config, &mut rng);
    (net, xs)
}

/// `(bad step, its width)`: short and long steps, first and last.
const CASES: [(usize, usize); 4] = [
    (0, INPUT - 1),
    (0, INPUT + 1),
    (SEQ - 1, INPUT - 1),
    (SEQ - 1, INPUT + 1),
];

/// `xs` with step `step` replaced by a vector of `width` elements.
fn malformed(xs: &[Vector], step: usize, width: usize) -> Vec<Vector> {
    let mut bad = xs.to_vec();
    bad[step] = Vector::from_fn(width, |i| 0.01 * i as f32);
    bad
}

fn expected(step: usize, width: usize) -> Error {
    Error::StepWidthMismatch {
        step,
        expected: INPUT,
        actual: width,
    }
}

/// What a guarded call that rejects the bad step returns.
fn rejected<T>(step: usize, width: usize) -> Result<MemlstmResult<T>, String> {
    Ok(Err(expected(step, width)))
}

/// Runs `call` under `catch_unwind`, turning a panic into a message.
fn guarded<T>(call: impl FnOnce() -> MemlstmResult<T>) -> Result<MemlstmResult<T>, String> {
    catch_unwind(AssertUnwindSafe(call)).map_err(|payload| {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_owned()))
            .unwrap_or_default()
    })
}

fn request(id: u64, xs: Vec<Vector>) -> Request {
    Request {
        id,
        xs,
        arrival_s: 1e-6 * id as f64,
        deadline_s: None,
    }
}

#[test]
fn every_entry_point_rejects_a_step_of_the_wrong_width() {
    let device = DeviceModel::default_preset();
    let drs = DrsConfig {
        alpha_intra: 0.1,
        mode: DrsMode::Hardware,
    };
    for layers in [1, 2] {
        let (net, xs) = setup(layers);
        let predictors = NetworkPredictors::zeros(&net);
        let analyzers: Vec<RelevanceAnalyzer> =
            net.layers().iter().map(RelevanceAnalyzer::new).collect();
        let configs = [
            ("intra", OptimizerConfig::builder().drs(drs).build()),
            (
                "combined",
                OptimizerConfig::builder()
                    .alpha_inter(1.0)
                    .max_tissue_size(3)
                    .drs(drs)
                    .build(),
            ),
        ];
        let baseline = ExecutionPlan::compile_baseline(&net, SEQ, &device);
        for (step, width) in CASES {
            let bad = malformed(&xs, step, width);
            let ctx = format!("{layers} layers, step {step} of width {width}");

            for (name, config) in &configs {
                let probes = [xs.clone(), bad.clone()];
                let got = guarded(|| {
                    compile(&net, &predictors, &analyzers, config, &probes, &device).map(|_| ())
                });
                assert_eq!(got, rejected(step, width), "compile {name}, {ctx}");
                // `plan_probes` treats a malformed offline set as a bug and
                // panics with the typed error's message.
                let panic = guarded(|| {
                    OptimizedExecutor::new(&net, &predictors, *config).plan_probes(&probes);
                    Ok(())
                })
                .expect_err("plan_probes panics on a malformed probe");
                assert!(
                    panic.contains(&expected(step, width).to_string()),
                    "plan_probes {name}, {ctx}: {panic}"
                );
            }

            let got = guarded(|| profile_plan(&baseline, &net, &bad).map(|_| ()));
            assert_eq!(got, rejected(step, width), "profile_plan, {ctx}");

            let serve_config = ServeConfig::builder(device.clone()).build().unwrap();
            let mut engine = ServeEngine::new(&baseline, &net, serve_config).unwrap();
            let got = guarded(|| engine.submit(request(1, bad.clone())));
            assert_eq!(got, rejected(step, width), "ServeEngine::submit, {ctx}");
            assert_eq!(
                guarded(|| engine.submit(request(2, xs.clone()))),
                Ok(Ok(()))
            );
            let ids: Vec<u64> = guarded(|| Ok(engine.drain()))
                .expect("drain never panics")
                .unwrap()
                .iter()
                .map(ServeOutcome::id)
                .collect();
            assert_eq!(ids, [2], "ServeEngine::drain, {ctx}");

            let members = (0..2)
                .map(|_| {
                    let config = ServeConfig::builder(device.clone()).build().unwrap();
                    (&baseline, config)
                })
                .collect();
            let mut fleet =
                FleetEngine::new(&net, members, Box::new(RoundRobin::default())).unwrap();
            let got = guarded(|| fleet.submit(request(1, bad.clone())));
            assert_eq!(got, rejected(step, width), "FleetEngine::submit, {ctx}");
            // The policy never saw the rejected request: round-robin still
            // starts at device 0.
            assert_eq!(guarded(|| fleet.submit(request(2, xs.clone()))), Ok(Ok(0)));
            let ids: Vec<u64> = guarded(|| Ok(fleet.drain()))
                .expect("drain never panics")
                .unwrap()
                .iter()
                .map(|o| o.outcome.id())
                .collect();
            assert_eq!(ids, [2], "FleetEngine::drain, {ctx}");
        }
    }
}

#[test]
fn execution_entry_points_reject_empty_and_wrong_length_sequences() {
    let device = DeviceModel::default_preset();
    let (net, xs) = setup(2);
    let baseline = ExecutionPlan::compile_baseline(&net, SEQ, &device);
    let wrong_length = |len: usize| Error::SeqLenMismatch {
        expected: SEQ,
        actual: len,
    };
    let rows = [
        (Vec::new(), Error::EmptyInput),
        (xs[..SEQ - 1].to_vec(), wrong_length(SEQ - 1)),
        ([xs.as_slice(), &xs[..1]].concat(), wrong_length(SEQ + 1)),
    ];
    for (bad, err) in rows {
        let ctx = format!("{} steps", bad.len());

        let got = guarded(|| profile_plan(&baseline, &net, &bad).map(|_| ()));
        assert_eq!(got, Ok(Err(err.clone())), "profile_plan, {ctx}");

        let serve_config = ServeConfig::builder(device.clone()).build().unwrap();
        let mut engine = ServeEngine::new(&baseline, &net, serve_config).unwrap();
        let got = guarded(|| engine.submit(request(1, bad.clone())));
        assert_eq!(got, Ok(Err(err.clone())), "ServeEngine::submit, {ctx}");
        assert_eq!(engine.pending(), 0, "ServeEngine::submit, {ctx}");

        let members = (0..2)
            .map(|_| {
                let config = ServeConfig::builder(device.clone()).build().unwrap();
                (&baseline, config)
            })
            .collect();
        let mut fleet = FleetEngine::new(&net, members, Box::new(RoundRobin::default())).unwrap();
        let got = guarded(|| fleet.submit(request(1, bad.clone())));
        assert_eq!(got, Ok(Err(err)), "FleetEngine::submit, {ctx}");
        // The policy never saw the rejected request: round-robin still
        // starts at device 0.
        assert_eq!(guarded(|| fleet.submit(request(2, xs.clone()))), Ok(Ok(0)));
    }
}

#[test]
fn compile_rejects_non_finite_probes() {
    let device = DeviceModel::default_preset();
    let (net, xs) = setup(2);
    let predictors = NetworkPredictors::zeros(&net);
    let analyzers: Vec<RelevanceAnalyzer> =
        net.layers().iter().map(RelevanceAnalyzer::new).collect();
    let drs = DrsConfig {
        alpha_intra: 0.1,
        mode: DrsMode::Hardware,
    };
    let configs = [
        ("baseline", OptimizerConfig::builder().build()),
        ("intra", OptimizerConfig::builder().drs(drs).build()),
        (
            "combined",
            OptimizerConfig::builder()
                .alpha_inter(1.0)
                .max_tissue_size(3)
                .drs(drs)
                .build(),
        ),
    ];
    for value in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
        for (step, element) in [(0, 0), (SEQ - 1, INPUT - 1)] {
            // The bad value sits in the second probe, after a finite
            // element of the same step, so the error names both indices.
            let mut bad = xs.clone();
            bad[step].as_mut_slice()[element] = value;
            let probes = [xs.clone(), bad];
            let err = Error::NonFiniteProbe {
                probe: 1,
                step,
                element,
            };
            for (name, config) in &configs {
                let ctx = format!("compile {name}, {value} at step {step} element {element}");
                let got = guarded(|| {
                    compile(&net, &predictors, &analyzers, config, &probes, &device).map(|_| ())
                });
                assert_eq!(got, Ok(Err(err.clone())), "{ctx}");
                let panic = guarded(|| {
                    OptimizedExecutor::new(&net, &predictors, *config).plan_probes(&probes);
                    Ok(())
                })
                .expect_err("plan_probes panics on a non-finite probe");
                assert!(
                    panic.contains(&err.to_string()),
                    "plan_probes: {ctx}: {panic}"
                );
            }
        }
    }
}

#[test]
fn execution_entry_points_reject_non_finite_inputs() {
    let device = DeviceModel::default_preset();
    let (net, xs) = setup(2);
    let baseline = ExecutionPlan::compile_baseline(&net, SEQ, &device);
    for value in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
        for (step, element) in [(0, 0), (SEQ - 1, INPUT - 1)] {
            let mut bad = xs.clone();
            bad[step].as_mut_slice()[element] = value;
            let err = Error::NonFiniteInput { step, element };
            let ctx = format!("{value} at step {step} element {element}");

            let got = guarded(|| profile_plan(&baseline, &net, &bad).map(|_| ()));
            assert_eq!(got, Ok(Err(err.clone())), "profile_plan, {ctx}");

            let serve_config = ServeConfig::builder(device.clone()).build().unwrap();
            let mut engine = ServeEngine::new(&baseline, &net, serve_config).unwrap();
            let got = guarded(|| engine.submit(request(1, bad.clone())));
            assert_eq!(got, Ok(Err(err.clone())), "ServeEngine::submit, {ctx}");
            assert_eq!(engine.pending(), 0, "ServeEngine::submit, {ctx}");
            assert_eq!(
                guarded(|| engine.submit(request(2, xs.clone()))),
                Ok(Ok(()))
            );
            let outcomes = guarded(|| Ok(engine.drain()))
                .expect("drain never panics")
                .unwrap();
            let ids: Vec<u64> = outcomes.iter().map(ServeOutcome::id).collect();
            assert_eq!(ids, [2], "ServeEngine::drain, {ctx}");

            let members = (0..2)
                .map(|_| {
                    let config = ServeConfig::builder(device.clone()).build().unwrap();
                    (&baseline, config)
                })
                .collect();
            let mut fleet =
                FleetEngine::new(&net, members, Box::new(RoundRobin::default())).unwrap();
            let got = guarded(|| fleet.submit(request(1, bad.clone())));
            assert_eq!(got, Ok(Err(err)), "FleetEngine::submit, {ctx}");
            // The policy never saw the rejected request: round-robin still
            // starts at device 0.
            assert_eq!(guarded(|| fleet.submit(request(2, xs.clone()))), Ok(Ok(0)));
            let ids: Vec<u64> = guarded(|| Ok(fleet.drain()))
                .expect("drain never panics")
                .unwrap()
                .iter()
                .map(|o| o.outcome.id())
                .collect();
            assert_eq!(ids, [2], "FleetEngine::drain, {ctx}");
        }
    }
}

#[test]
fn compile_rejects_an_unusable_optimizer_config() {
    let device = DeviceModel::default_preset();
    let (net, xs) = setup(2);
    let predictors = NetworkPredictors::zeros(&net);
    let analyzers: Vec<RelevanceAnalyzer> =
        net.layers().iter().map(RelevanceAnalyzer::new).collect();
    let drs = |alpha_intra| DrsConfig {
        alpha_intra,
        mode: DrsMode::Hardware,
    };
    let invalid = |field, reason| Error::InvalidOptimizerConfig { field, reason };
    let finite = "must be finite";
    let mut rows = vec![(
        "inter with mts 0".to_owned(),
        OptimizerConfig::builder()
            .alpha_inter(1.0)
            .max_tissue_size(0)
            .build(),
        invalid("mts", "must be nonzero with the inter-cell level"),
    )];
    for alpha in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        rows.push((
            format!("alpha_inter {alpha}"),
            OptimizerConfig::builder()
                .alpha_inter(alpha)
                .max_tissue_size(3)
                .build(),
            invalid("alpha_inter", finite),
        ));
    }
    for alpha in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
        rows.push((
            format!("alpha_intra {alpha}"),
            OptimizerConfig::builder().drs(drs(alpha)).build(),
            invalid("alpha_intra", finite),
        ));
    }
    let probes = [xs];
    for (name, config, err) in &rows {
        let got = guarded(|| {
            compile(&net, &predictors, &analyzers, config, &probes, &device).map(|_| ())
        });
        assert_eq!(got, Ok(Err(err.clone())), "compile, {name}");
    }
    let gru = GruNetwork::random(INPUT, 16, 2, 3, &mut seeded_rng(4));
    for alpha in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
        let got = guarded(|| compile_gru_drs(&gru, drs(alpha), SEQ, &device).map(|_| ()));
        assert_eq!(
            got,
            Ok(Err(invalid("alpha_intra", finite))),
            "compile_gru_drs, alpha_intra {alpha}"
        );
    }
}
