use super::*;
use bench_harness::session::serve_fallback_plan;
use drive::{engine_facts, request, resubmissions, serve_pass, Gate, HostPass, ServeSpec};
use gpu_sim::DeviceModel;
use lstm::plan::ExecutionPlan;
use lstm::ModelConfig;
use setup::{serial_round_s, Inputs, References, Setup, MODEL_SEED};
use tensor::Vector;
use workloads::{Benchmark, Workload};

fn args(s: &str) -> Vec<String> {
    s.split_whitespace().map(str::to_owned).collect()
}

#[test]
fn parser_accepts_a_full_command_line() {
    let parsed = parse(&args("--workload backlog --seed 7 --seconds 20 --trace 1")).unwrap();
    assert_eq!(
        parsed,
        Command::Run(RunArgs {
            kind: Kind::Backlog,
            seed: 7,
            seconds: 20.0,
            trace: true,
            out: PathBuf::from(DEFAULT_OUT),
        })
    );
    assert_eq!(parse(&args("--list")).unwrap(), Command::List);
}

#[test]
fn parser_rejects_unknown_flags_and_bad_values() {
    for bad in [
        "--workload solo_drs --seed 1 --fsat",
        "--workload solo_drs --seed 1 extra",
        "--workload solo_drs --seed",
        "--workload nope --seed 1",
        "--workload solo_drs --seed -1",
        "--workload solo_drs --seed 1 --trace 2",
        "--workload solo_drs --seed 1 --seconds 0",
        "--seed 1",
        "--workload solo_drs",
        "--list --seed 1",
    ] {
        assert!(parse(&args(bad)).is_err(), "accepted: {bad}");
    }
}

fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn metric_names_and_units_are_well_formed_and_unique() {
    let all: Vec<&MetricDef> = END_TO_END.iter().chain(&PER_LAYER).collect();
    let mut names: Vec<&str> = all.iter().map(|d| d.name).collect();
    for d in &all {
        assert!(valid_name(d.name), "bad metric name {}", d.name);
        assert!(
            !d.unit.is_empty()
                && d.unit.len() <= 16
                && d.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "bad unit {} of {}",
            d.unit,
            d.name
        );
    }
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), all.len(), "duplicate metric names");
    assert!(END_TO_END
        .iter()
        .all(|d| d.bound.is_some_and(|b| (0.0..=0.25).contains(&b))));
    assert!(PER_LAYER.iter().all(|d| d.bound.is_none()));
    assert!(END_TO_END
        .iter()
        .any(|d| d.name == "setup_s" && d.unit == "s" && d.better == metrics::Better::Lower));
}

/// A minimal JSON reader, enough to read `BENCHMARK.json` back.
#[derive(Debug, PartialEq)]
enum Json {
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn parse(text: &str) -> Json {
        let mut chars = text.chars().peekable();
        let value = Self::value(&mut chars);
        assert!(chars.all(char::is_whitespace), "trailing text");
        value
    }

    fn value(it: &mut std::iter::Peekable<std::str::Chars<'_>>) -> Json {
        while it.peek().is_some_and(|c| c.is_whitespace()) {
            it.next();
        }
        match it.next().expect("value") {
            '"' => {
                let mut s = String::new();
                for c in it.by_ref() {
                    if c == '"' {
                        return Json::Str(s);
                    }
                    assert_ne!(c, '\\', "escapes are not used in BENCHMARK.json");
                    s.push(c);
                }
                panic!("unterminated string")
            }
            '[' => Json::Arr(Self::items(it, ']', Self::value)),
            '{' => Json::Obj(Self::items(it, '}', |it| {
                let Json::Str(key) = Self::value(it) else {
                    panic!("object key")
                };
                while it.peek().is_some_and(|c| c.is_whitespace()) {
                    it.next();
                }
                assert_eq!(it.next(), Some(':'));
                (key, Self::value(it))
            })),
            c => {
                let mut s = c.to_string();
                while it
                    .peek()
                    .is_some_and(|c| c.is_ascii_digit() || ".-+eE".contains(*c))
                {
                    s.push(it.next().expect("peeked"));
                }
                Json::Num(s.parse().unwrap_or_else(|_| panic!("bad number {s}")))
            }
        }
    }

    fn items<T>(
        it: &mut std::iter::Peekable<std::str::Chars<'_>>,
        close: char,
        mut item: impl FnMut(&mut std::iter::Peekable<std::str::Chars<'_>>) -> T,
    ) -> Vec<T> {
        let mut out = Vec::new();
        loop {
            while it.peek().is_some_and(|c| c.is_whitespace() || *c == ',') {
                it.next();
            }
            if it.peek() == Some(&close) {
                it.next();
                return out;
            }
            out.push(item(it));
        }
    }

    fn get(&self, key: &str) -> &Json {
        let Json::Obj(fields) = self else {
            panic!("not an object")
        };
        &fields
            .iter()
            .find(|(k, _)| k == key)
            .unwrap_or_else(|| panic!("no key {key}"))
            .1
    }

    fn str(&self) -> &str {
        let Json::Str(s) = self else {
            panic!("not a string")
        };
        s
    }

    fn arr(&self) -> &[Json] {
        let Json::Arr(a) = self else {
            panic!("not an array")
        };
        a
    }
}

#[test]
fn benchmark_json_matches_the_metric_and_workload_tables() {
    let spec = Json::parse(include_str!("../../BENCHMARK.json"));
    let Json::Obj(fields) = &spec else {
        panic!("not an object")
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let workloads: Vec<(&str, &str)> = spec
        .get("workloads")
        .arr()
        .iter()
        .map(|w| (w.get("name").str(), w.get("why").str()))
        .collect();
    let ours: Vec<(&str, &str)> = Kind::ALL.iter().map(|k| (k.name(), k.why())).collect();
    assert_eq!(workloads, ours);
    for (section, table) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let listed: Vec<(&str, &str, &str, Option<f64>)> = spec
            .get(section)
            .arr()
            .iter()
            .map(|m| {
                let bound = match m {
                    Json::Obj(f) => f.iter().find(|(k, _)| k == "bound").map(|(_, v)| match v {
                        Json::Num(b) => *b,
                        _ => panic!("bound is not a number"),
                    }),
                    _ => panic!("metric is not an object"),
                };
                (
                    m.get("name").str(),
                    m.get("unit").str(),
                    m.get("better").str(),
                    bound,
                )
            })
            .collect();
        let ours: Vec<(&str, &str, &str, Option<f64>)> = table
            .iter()
            .map(|d| (d.name, d.unit, d.better.name(), d.bound))
            .collect();
        assert_eq!(listed, ours, "{section} differs from the binary's table");
    }
}

/// A small `serve_mr`-shaped setup: a tiny MR model, its baseline and DRS
/// fallback plans, and a trace dense enough to degrade and retry.
fn small_serve() -> (Setup, ServeSpec) {
    let device = DeviceModel::tegra_x1();
    let config = ModelConfig::new("MR-test", 16, 16, 1, 6, 2).unwrap();
    let workload = Workload::generate_scaled(Benchmark::Mr, &config, 16, MODEL_SEED);
    let plans = vec![
        ExecutionPlan::compile_baseline(workload.network(), 6, &device),
        serve_fallback_plan(&workload, 0.05, &device),
    ];
    let setup = Setup {
        workload,
        plans,
        generate_s: 0.0,
        compile_s: 0.0,
    };
    let spec = ServeSpec {
        requests: 160,
        rate: 4.0,
        max_batch: 8,
        faults: true,
        fallback: true,
    };
    (setup, spec)
}

#[test]
fn incremental_submission_matches_up_front_submission() {
    let (setup, spec) = small_serve();
    let round_s = serial_round_s(&setup, 0);
    let inputs = Inputs::open_loop(&setup, 3, spec.requests, spec.rate, round_s);
    let mut gate = Gate::default();
    let run = serve_pass(
        &setup,
        &spec,
        &inputs,
        round_s,
        11,
        &mut HostPass::default(),
        None,
        &mut gate,
    );
    assert!(gate.is_clean(), "{:?}", gate.failures);

    // The same trace submitted up front, as the `serve` bench does.
    let config = drive::serve_config(&setup, &spec, inputs.trace.len(), round_s, 11);
    let mut engine =
        memlstm::serve::ServeEngine::new(&setup.plans[0], setup.workload.network(), config)
            .unwrap()
            .with_fallback(&setup.plans[1])
            .unwrap();
    for a in &inputs.trace {
        engine.submit(request(&inputs, a.id)).unwrap();
    }
    let mut rounds = Vec::new();
    while let Some(report) = engine.step() {
        if report.failed {
            for id in resubmissions(&report, inputs.trace.len() as u64).collect::<Vec<_>>() {
                engine.submit(request(&inputs, id)).unwrap();
            }
        }
        rounds.push(report);
    }
    let up_front = engine.drain();

    let incremental: Vec<_> = run.rounds.iter().map(|(_, r)| r.clone()).collect();
    assert_eq!(incremental, rounds);
    assert!(
        rounds.iter().any(|r| r.degraded),
        "the trace should degrade"
    );
    assert!(
        rounds.iter().any(|r| r.retries > 0),
        "the trace should retry"
    );
    let key = |o: &memlstm::serve::ServeOutcome| {
        let c = o.completion();
        (
            o.id(),
            o.kind(),
            c.map(|c| c.latency_s.to_bits()),
            c.map(|c| c.logits.iter().map(|x| x.to_bits()).collect::<Vec<_>>()),
        )
    };
    let mut a: Vec<_> = run.outcomes.iter().map(|(_, o)| key(o)).collect();
    let mut b: Vec<_> = up_front.iter().map(key).collect();
    a.sort_by_key(|k| k.0);
    b.sort_by_key(|k| k.0);
    assert_eq!(a, b);
}

#[test]
fn a_corrupted_reference_logit_fails_the_gate() {
    let (setup, spec) = small_serve();
    let round_s = serial_round_s(&setup, 0);
    let inputs = Inputs::open_loop(&setup, 5, spec.requests, spec.rate, round_s);
    let mut gate = Gate::default();
    let run = serve_pass(
        &setup,
        &spec,
        &inputs,
        round_s,
        13,
        &mut HostPass::default(),
        None,
        &mut gate,
    );

    let mut refs = References::new(&setup, &inputs);
    let facts = engine_facts(Kind::ServeMr, &setup, &run, &inputs, &mut refs, &mut gate);
    assert!(gate.is_clean(), "{:?}", gate.failures);
    assert_eq!(facts.failed, 0);

    // Flip the lowest mantissa bit of one reference logit of the input the
    // first request drew, for both plans.
    let pool = inputs.trace[0].pool;
    for plan in 0..2 {
        let good = refs.logits(&setup, &inputs, plan, pool).clone();
        let bad = Vector::from_fn(good.len(), |i| {
            let x = good.as_slice()[i];
            if i == 0 {
                f32::from_bits(x.to_bits() ^ 1)
            } else {
                x
            }
        });
        refs.set_logits(plan, pool, bad);
    }
    let facts = engine_facts(Kind::ServeMr, &setup, &run, &inputs, &mut refs, &mut gate);
    assert!(!gate.is_clean());
    assert!(facts.failed > 0);
    assert!(gate.failures.iter().all(|f| f.starts_with("logits")));
}
