//! An independent reference for the tissue IR.
//!
//! The reference interpreter below reads only what a compiled LSTM plan
//! says each cell computes — every cell's `PrevSource`, a reorganized
//! layer's predicted `(h, c)` and the layer's `α_intra` — never its
//! tissues' grouping or kernels. It walks the cells in time order and
//! applies Algorithm 1 (or Algorithm 3 when `α_intra > 0`) with the
//! row-at-a-time `sgemv` / `sgemv_masked_reference` kernels on the
//! `Precision::apply`-rounded matrices, which the panel kernels match per
//! row. The property asserts, bitwise, over random nets and configs:
//! `PlanRuntime` output == reference output == the MTS-1 plan's output.
//! So which cells share a tissue (the schedule) changes no value, and the
//! walk reads each cell's context where the plan says.

use gpu_sim::DeviceModel;
use lstm::plan::{LayerBody, NullSink, PlanBody, PrevSource, TissueKernels};
use lstm::{ExecutionPlan, LstmNetwork, ModelConfig, PlanRuntime};
use memlstm::drs::{DrsConfig, DrsMode};
use memlstm::exec::{OptimizedExecutor, OptimizerConfig};
use memlstm::prediction::NetworkPredictors;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tensor::gemm::{sgemv, sgemv_masked_reference};
use tensor::init::seeded_rng;
use tensor::{sigmoid, tanh, Matrix, Precision, Vector};

/// The reference: every layer's hidden sequence and the logits.
fn reference(plan: &ExecutionPlan, net: &LstmNetwork, xs: &[Vector]) -> (Vec<Vec<Vector>>, Vector) {
    let PlanBody::Lstm(layers) = &plan.body else {
        panic!("an LSTM plan");
    };
    let round = |ms: [&Matrix; 4]| ms.map(|m| plan.precision.apply(m));
    let mut layer_hs: Vec<Vec<Vector>> = Vec::new();
    for (lp, cell) in layers.iter().zip(net.layers()) {
        let (alpha_intra, predicted) = match &lp.body {
            LayerBody::Baseline => (0.0, None),
            LayerBody::Drs { alpha_intra } => (*alpha_intra, None),
            LayerBody::Tissues {
                alpha_intra,
                predicted_h,
                predicted_c,
                ..
            } => (*alpha_intra, Some((predicted_h, predicted_c))),
        };
        let inputs = layer_hs.last().map_or(xs, Vec::as_slice);
        let mut prev = vec![None; inputs.len()];
        for tp in &lp.tissues {
            for (&t, &src) in tp.cells.iter().zip(&tp.prev) {
                assert!(prev[t].replace(src).is_none(), "cell {t} scheduled twice");
            }
        }
        let w = round([&cell.w.f, &cell.w.i, &cell.w.c, &cell.w.o]);
        let u = round([&cell.u.f, &cell.u.i, &cell.u.c, &cell.u.o]);
        let b = [&cell.b.f, &cell.b.i, &cell.b.c, &cell.b.o];
        let n = cell.hidden();
        let zeros = Vector::zeros(n);
        let (mut hs, mut cs): (Vec<Vector>, Vec<Vector>) = (Vec::new(), Vec::new());
        for (t, x) in inputs.iter().enumerate() {
            let (h_prev, c_prev) = match prev[t].expect("every cell is scheduled") {
                PrevSource::Zeros => (&zeros, &zeros),
                PrevSource::Predicted => predicted.expect("a broken link has a prediction"),
                PrevSource::Prior => (&hs[t - 1], &cs[t - 1]),
            };
            let wx = w.each_ref().map(|m| sgemv(m, x));
            let pre = |g: usize, uh: &Vector, j: usize| wx[g][j] + uh[j] + b[g][j];
            let uo = sgemv(&u[3], h_prev);
            let o: Vec<f32> = (0..n).map(|j| sigmoid(pre(3, &uo, j))).collect();
            // Algorithm 3 skips the rows whose `o_t` is below `α_intra`;
            // Algorithm 1 keeps every row.
            let active: Vec<bool> = o
                .iter()
                .map(|&v| alpha_intra <= 0.0 || v >= alpha_intra)
                .collect();
            let uh: Vec<Vector> = u[..3]
                .iter()
                .map(|m| sgemv_masked_reference(m, h_prev, &active, 0.0))
                .collect();
            let (mut h, mut c) = (Vector::zeros(n), Vector::zeros(n));
            for j in (0..n).filter(|&j| active[j]) {
                let (f, i) = (sigmoid(pre(0, &uh[0], j)), sigmoid(pre(1, &uh[1], j)));
                c[j] = f * c_prev[j] + i * tanh(pre(2, &uh[2], j));
                h[j] = o[j] * tanh(c[j]);
            }
            hs.push(h);
            cs.push(c);
        }
        layer_hs.push(hs);
    }
    let logits = net.apply_head(layer_hs.last().and_then(|hs| hs.last()).expect("a step"));
    (layer_hs, logits)
}

fn bits(hs: &[Vec<Vector>], logits: &Vector) -> Vec<u32> {
    hs.iter()
        .flatten()
        .chain(std::iter::once(logits))
        .flat_map(|v| v.iter().map(|x| x.to_bits()))
        .collect()
}

#[test]
fn plans_equal_reference_and_mts_one_bitwise() {
    let config = ModelConfig::new("ref", 6, 12, 2, 12, 3).unwrap();
    let device = DeviceModel::default_preset();
    let mut rng = StdRng::seed_from_u64(10);
    let (mut multi_cell_layers, mut drs_layers, mut broken_links) = (0, 0, 0);
    let mut multi_cell_drs_gangs = 0;
    let mut gang_sizes = [false; 7];
    for case in 0..48u64 {
        let mut net_rng = seeded_rng(case);
        let net = LstmNetwork::random(&config, &mut net_rng);
        let offline: Vec<Vec<Vector>> = (0..3)
            .map(|_| lstm::random_inputs(&config, &mut net_rng))
            .collect();
        let predictors = NetworkPredictors::collect(&net, &offline);
        let gang = rng.gen_range(1..=7usize);
        gang_sizes[gang - 1] = true;
        let lanes: Vec<Vec<Vector>> = (0..gang)
            .map(|_| lstm::random_inputs(&config, &mut net_rng))
            .collect();
        let mut opt = OptimizerConfig::builder()
            .max_tissue_size(rng.gen_range(1..=6usize))
            .drs(DrsConfig {
                alpha_intra: [0.0, 0.05, 0.2][rng.gen_range(0..3usize)],
                mode: DrsMode::Hardware,
            })
            .build();
        if rng.gen::<bool>() {
            opt.inter = true;
            opt.alpha_inter = [1.0, 2.0, 6.0, 15.0, 40.0][rng.gen_range(0..5usize)];
        }
        opt.align = rng.gen();
        opt.balanced_schedule = rng.gen();
        opt.use_predicted_link = rng.gen();
        opt.precision = Precision::ALL[rng.gen_range(0..3usize)];
        let compile = |opt: OptimizerConfig| {
            OptimizedExecutor::new(&net, &predictors, opt)
                .on_device(device.clone())
                .plan_probes(&offline)
        };
        let plan = compile(opt);
        let mts_one = compile(OptimizerConfig { mts: 1, ..opt });
        let PlanBody::Lstm(layers) = &plan.body else {
            unreachable!()
        };
        multi_cell_layers += layers
            .iter()
            .filter(|lp| lp.tissues.iter().any(|tp| tp.cells.len() > 1))
            .count();
        drs_layers += usize::from(opt.drs.alpha_intra > 0.0) * layers.len();
        broken_links += layers
            .iter()
            .flat_map(|lp| lp.tissues.iter().flat_map(|tp| &tp.prev))
            .filter(|&&src| src == PrevSource::Predicted)
            .count();
        let multi_cell_drs = layers
            .iter()
            .flat_map(|lp| &lp.tissues)
            .any(|tp| tp.cells.len() > 1 && matches!(tp.kernels, TissueKernels::Drs { .. }));
        multi_cell_drs_gangs += usize::from(multi_cell_drs && gang > 1);
        let outs = PlanRuntime::new().run_lstm_batch(&plan, &net, &lanes, &mut NullSink);
        for (lane, (xs, out)) in lanes.iter().zip(&outs).enumerate() {
            let (ref_hs, ref_logits) = reference(&plan, &net, xs);
            let want = bits(&ref_hs, &ref_logits);
            let ctx = format!("case {case} lane {lane}: {opt:?}");
            assert_eq!(
                bits(&out.layer_hs, &out.logits),
                want,
                "runtime vs reference, {ctx}"
            );
            let one = PlanRuntime::new().run_lstm(&mts_one, &net, xs, &mut NullSink);
            assert_eq!(
                bits(&one.layer_hs, &one.logits),
                want,
                "MTS-1 plan vs reference, {ctx}"
            );
        }
    }
    // The draw must reach multi-cell tissues, DRS and broken links, or
    // the property says nothing about the schedule, the masked walk or
    // the predicted context.
    assert!(
        multi_cell_layers >= 8,
        "only {multi_cell_layers} multi-cell layers"
    );
    assert!(drs_layers >= 8, "only {drs_layers} DRS layers");
    assert!(broken_links >= 8, "only {broken_links} broken links");
    // A multi-cell DRS tissue in a gang runs columns of several lanes and
    // cells, each on its own mask: the layout whose mask slots the masked
    // kernel is priced from.
    assert!(
        multi_cell_drs_gangs >= 8,
        "only {multi_cell_drs_gangs} gangs ran a multi-cell DRS tissue"
    );
    // Gangs of 1 to 7 lanes: the lockstep walk's columns in a one-cell
    // tissue are its lanes, so every remainder of its four-column
    // blocking must come up.
    assert!(
        gang_sizes.iter().all(|&g| g),
        "gang sizes drawn: {gang_sizes:?}"
    );
}
