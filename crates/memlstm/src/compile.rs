//! Compiles the optimized execution flows (paper Fig. 10 and Algorithm 3)
//! into the shared [`ExecutionPlan`] IR.
//!
//! Compilation is the paper's *offline phase* made explicit: it runs the
//! relevance analysis (Algorithm 2) over one or more probe sequences,
//! searches breakpoints, divides the layer into sub-layers, forms and
//! aligns tissues, resolves every cell's context source, and lowers the
//! result — together with the per-step kernel templates and their
//! pre-allocated regions — into pure data a [`lstm::plan::PlanRuntime`]
//! replays over streaming inputs.
//!
//! With several probes (the offline set), per-link relevances are
//! averaged across probes — the offline estimate of each link's expected
//! relevance over the data distribution — so a context link only breaks
//! when it is weak on average. A plan compiled from a single sequence
//! would break links that happen to be irrelevant there but carry state
//! on other inputs, costing accuracy when the plan is reused.
//!
//! Deeper layers' relevances depend on the (approximated) hidden states
//! the earlier layers produce, so the compiler advances every probe
//! numerically through each layer *as planned* — through the runtime's
//! one LSTM interpreter (`PlanRuntime::layer_numerics`, a single lane at
//! the configured precision), the code the online phase runs — and
//! analyzes layer `l + 1` against exactly the inputs it will see.

use crate::breakpoints::find_breakpoints;
use crate::division::{divide, SubLayer};
use crate::error::{Error, MemlstmResult};
use crate::exec::OptimizerConfig;
use crate::prediction::NetworkPredictors;
use crate::relevance::{relevance_flops, RelevanceAnalyzer};
use crate::tissue::{form_tissues, schedule_tissues, schedule_tissues_balanced, Tissue};
use gpu_sim::{DeviceModel, KernelDesc, KernelKind, RegionId};
use lstm::cell::GatePreacts;
use lstm::plan::{
    baseline_layer, DrsCellPlan, ExecutionPlan, LayerBody, LayerPlan, MaskedUKernel, PlanBody,
    PlanLayerStats, PlanRuntime, PrevSource, TissueKernels, TissuePlan,
};
use lstm::regions::{NetworkRegions, RegionAllocator};
use lstm::schedule::{
    drs_kernel, ew_kernel, head_kernel, tissue_sgemm_kernel, u_sgemv_kernel, wx_sgemm_kernel, F32,
};
use lstm::{LayerRegions, LstmNetwork};
use pool::Pool;
use tensor::Vector;

/// Compiles an [`ExecutionPlan`] for `net` under `config` on `device`,
/// analyzing the `probes` sequences (all of one length) to fix the
/// offline schedule.
///
/// `analyzers` must hold one per-layer [`RelevanceAnalyzer`] when
/// `config.inter` is set (and may be empty otherwise) — they are computed
/// once per model by `OptimizedExecutor::new`. The plan records `device`;
/// pricing layers refuse to run it elsewhere.
///
/// # Errors
/// [`Error::NoProbes`] if `probes` is empty, [`Error::EmptyProbe`] or
/// [`Error::ProbeLengthMismatch`] if a probe is empty or differs in
/// length, and (when `config.inter` is set) [`Error::AnalyzerCount`] if
/// `analyzers` does not cover every layer.
pub fn compile(
    net: &LstmNetwork,
    predictors: &NetworkPredictors,
    analyzers: &[RelevanceAnalyzer],
    config: &OptimizerConfig,
    probes: &[Vec<Vector>],
    device: &DeviceModel,
) -> MemlstmResult<ExecutionPlan> {
    if probes.is_empty() {
        return Err(Error::NoProbes);
    }
    let seq_len = probes[0].len();
    if seq_len == 0 {
        return Err(Error::EmptyProbe);
    }
    if let Some(bad) = probes.iter().find(|p| p.len() != seq_len) {
        return Err(Error::ProbeLengthMismatch {
            expected: seq_len,
            actual: bad.len(),
        });
    }
    if config.inter && analyzers.len() != net.layers().len() {
        return Err(Error::AnalyzerCount {
            expected: net.layers().len(),
            actual: analyzers.len(),
        });
    }
    let cfg = net.config();
    let mut alloc = RegionAllocator::new();
    let regions = NetworkRegions::allocate(&mut alloc, cfg.num_layers);

    let mut layers = Vec::with_capacity(cfg.num_layers);
    // Probe fan-outs run on an env-sized pool (`MEMLSTM_THREADS`); when
    // compile itself is invoked from inside a pool task (e.g. a parallel
    // threshold sweep), the nested sections degrade to inline serial
    // execution, so thread counts stay bounded. All merges below are in
    // probe order: the plan is bit-identical for any worker count.
    let probe_pool = Pool::new();
    let mut currents: Vec<Vec<Vector>> = probes.to_vec();
    for (l, layer) in net.layers().iter().enumerate() {
        let hidden = layer.hidden();
        let wx_kernel = wx_sgemm_kernel(
            l,
            regions.layers[l].w,
            hidden,
            layer.input_dim(),
            seq_len,
            &mut alloc,
        );
        let wxs: Vec<Vec<GatePreacts>> =
            probe_pool.par_map(currents.iter().collect::<Vec<_>>(), |c| {
                let mut wx = Vec::new();
                layer.precompute_wx_batch_into(config.precision, c, &mut wx);
                wx
            });
        let (body, stats) = if config.inter {
            let relevances = combined_relevances(&analyzers[l], &wxs, probe_pool);
            tissue_body(
                l,
                &relevances,
                predictors,
                config,
                hidden,
                seq_len,
                &regions.layers[l],
                &mut alloc,
            )
        } else if config.intra_enabled() {
            drs_body(l, config, hidden, seq_len, &regions.layers[l], &mut alloc)
        } else {
            baseline_layer(l, hidden, seq_len, &regions.layers[l], &mut alloc)
        };
        // Advance every probe through the planned layer with the runtime's
        // own arithmetic, so the next layer is analyzed against the
        // inputs it will actually receive. Each probe advances through its
        // own PlanRuntime (runtime reuse is pure scratch reuse, proven
        // bit-identical by the exec-crate plan-reuse tests).
        currents = probe_pool.par_map((0..currents.len()).collect::<Vec<usize>>(), |p| {
            let mut runtime = PlanRuntime::new();
            runtime.layer_numerics(config.precision, &body, layer, &wxs[p])
        });
        layers.push(LayerPlan {
            wx: wx_kernel,
            body,
            stats,
        });
    }
    let head = head_kernel(regions.head, cfg.num_classes, cfg.hidden_size, &mut alloc);
    // Lower at fp32 shape, then re-price the gate-weight traffic for the
    // configured storage tier (the identity for `Precision::Fp32`).
    let plan = ExecutionPlan {
        regions,
        seq_len,
        body: PlanBody::Lstm(layers),
        head,
        device: device.clone(),
        precision: tensor::Precision::Fp32,
    };
    Ok(plan.with_precision(config.precision))
}

/// Per-link relevances combined across probes by averaging: the offline
/// estimate of each link's expected relevance over the data distribution.
/// A link breaks when it is weak *on average* — the AO/BPA selection then
/// enforces the accuracy budget empirically on held-out sequences. The
/// `α_inter` upper limit averages with this helper too, so it is
/// consistent with what the compiler breaks.
pub(crate) fn combined_relevances(
    analyzer: &RelevanceAnalyzer,
    wxs: &[Vec<GatePreacts>],
    pool: Pool,
) -> Vec<f64> {
    // Per-probe relevances fan out; the average accumulates in probe
    // order, so it is bit-identical to the serial loop.
    let per_probe = pool.par_map(wxs.iter().collect::<Vec<_>>(), |wx| {
        analyzer.layer_relevances(wx)
    });
    let mut combined = per_probe[0].clone();
    for probe in &per_probe[1..] {
        for (c, &v) in combined.iter_mut().zip(probe) {
            *c += v;
        }
    }
    let k = wxs.len() as f64;
    for c in combined.iter_mut() {
        *c /= k;
    }
    combined
}

/// Intra-cell only: the Algorithm 3 per-cell flow.
fn drs_body(
    l: usize,
    config: &OptimizerConfig,
    hidden: usize,
    seq_len: usize,
    regions: &LayerRegions,
    alloc: &mut RegionAllocator,
) -> (LayerBody, PlanLayerStats) {
    let cells = (0..seq_len)
        .map(|t| DrsCellPlan {
            // Line 4: Sgemv(U_o, h_{t-1}).
            uo: u_sgemv_kernel(
                format!("Sgemv(U_o,h) l{l} t{t}"),
                regions.u_o,
                hidden,
                hidden,
                alloc,
            ),
            // Line 5: lstm_ew(o_t).
            gate_ew: gate_ew_kernel(format!("lstm_ew(o) l{l} t{t}"), hidden, 1, alloc),
            // Line 6: DRS(o_t, alpha, R).
            select: drs_kernel(format!("DRS l{l} t{t}"), hidden, alloc),
            // Line 7: Sgemv(U_fic, h_{t-1}, R) — masked at runtime.
            masked: MaskedUKernel::new(
                format!("Sgemv(U_fic,h,R) l{l} t{t}"),
                3,
                hidden,
                1,
                regions.u_fic,
                config.drs.mode,
                true,
                alloc,
            ),
            // Line 8: lstm_ew(f, i, c, h).
            ew: ew_kernel(format!("lstm_ew l{l} t{t}"), hidden, 1, alloc),
        })
        .collect();
    let stats = PlanLayerStats {
        breakpoints: 0,
        sublayers: 1,
        tissues: seq_len,
        mean_tissue_size: 1.0,
    };
    (
        LayerBody::Drs {
            alpha_intra: config.drs.alpha_intra,
            cells,
        },
        stats,
    )
}

/// Inter-cell flow (optionally with DRS inside each tissue): the offline
/// steps 5–8 of Fig. 10 run here, once; step 9's kernels are lowered into
/// the plan.
#[allow(clippy::too_many_arguments)]
fn tissue_body(
    l: usize,
    relevances: &[f64],
    predictors: &NetworkPredictors,
    config: &OptimizerConfig,
    hidden: usize,
    seq_len: usize,
    regions: &LayerRegions,
    alloc: &mut RegionAllocator,
) -> (LayerBody, PlanLayerStats) {
    let n = seq_len;

    // Step 5: breakpoint search — priced as a light kernel over the
    // already-resident Wx values.
    let search = KernelDesc::builder(format!("breakpoint_search l{l}"), KernelKind::Other)
        .flops(relevance_flops(hidden) * n as u64)
        .read(alloc.fresh(), (n * 4 * hidden) as u64 * F32)
        .write(alloc.fresh(), n as u64 * 8)
        .smem((n * 4 * hidden) as u64 * F32)
        .threads(n as u64 * 32, 128)
        .build();
    let bps = find_breakpoints(relevances, config.alpha_inter);
    let sublayers = divide(n, &bps);

    // Step 6: accuracy recovery — injecting the predicted link.
    let link = (!bps.is_empty()).then(|| {
        KernelDesc::builder(format!("link_prediction l{l}"), KernelKind::Other)
            .flops((bps.len() * hidden) as u64)
            .read(alloc.fresh(), 2 * hidden as u64 * F32)
            .write(alloc.fresh(), (bps.len() * 2 * hidden) as u64 * F32)
            .threads((bps.len() * hidden) as u64, 128)
            .build()
    });

    // Steps 7-8: tissue formation + alignment.
    let tissues: Vec<Tissue> = if !config.align {
        form_tissues(&sublayers)
    } else if config.balanced_schedule {
        schedule_tissues_balanced(&sublayers, config.mts)
    } else {
        schedule_tissues(&sublayers, config.mts)
    };
    debug_assert!(crate::tissue::validate_schedule(
        &sublayers,
        &tissues,
        config.align.then_some(config.mts)
    )
    .is_ok());

    let predicted = predictors.layer(l);
    let (predicted_h, predicted_c) = if config.use_predicted_link {
        (predicted.h_mean().clone(), predicted.c_mean().clone())
    } else {
        (Vector::zeros(hidden), Vector::zeros(hidden))
    };
    let start_of_sublayer: std::collections::HashMap<usize, usize> = sublayers
        .iter()
        .enumerate()
        .map(|(i, s)| (s.start, i))
        .collect();

    // Step 9: lower each tissue's kernels and context sources.
    let tissue_plans: Vec<TissuePlan> = tissues
        .iter()
        .enumerate()
        .map(|(k, tissue)| {
            let t_size = tissue.size();
            let prev = tissue
                .cells
                .iter()
                .map(|&t| prev_source(t, &start_of_sublayer, &sublayers))
                .collect();
            let kernels = if config.intra_enabled() {
                TissueKernels::Drs {
                    uo: uo_tissue_kernel(
                        format!("Sgemm(U_o,H) l{l} k{k}"),
                        regions.u_o,
                        hidden,
                        t_size,
                        alloc,
                    ),
                    gate_ew: gate_ew_kernel(format!("lstm_ew(o) l{l} k{k}"), hidden, t_size, alloc),
                    select: drs_kernel(format!("DRS l{l} k{k}"), hidden, alloc),
                    masked: MaskedUKernel::new(
                        format!("Sgemm(U_fic,H,R) l{l} k{k}"),
                        3,
                        hidden,
                        t_size,
                        regions.u_fic,
                        config.drs.mode,
                        true,
                        alloc,
                    ),
                    ew: ew_kernel(format!("lstm_ew l{l} k{k}"), hidden, t_size, alloc),
                }
            } else {
                TissueKernels::Plain {
                    sgemm: tissue_sgemm_kernel(
                        format!("Sgemm(U,H) l{l} k{k}"),
                        regions.u_full,
                        hidden,
                        t_size,
                        alloc,
                    ),
                    ew: ew_kernel(format!("lstm_ew l{l} k{k}"), hidden, t_size, alloc),
                }
            };
            TissuePlan {
                cells: tissue.cells.clone(),
                sublayers: tissue
                    .cells
                    .iter()
                    .map(|&t| sublayer_of(t, &sublayers))
                    .collect(),
                prev,
                kernels,
            }
        })
        .collect();

    let stats = PlanLayerStats {
        breakpoints: bps.len(),
        sublayers: sublayers.len(),
        tissues: tissue_plans.len(),
        mean_tissue_size: n as f64 / tissue_plans.len().max(1) as f64,
    };
    let body = LayerBody::Tissues {
        search,
        link,
        alpha_intra: config.drs.alpha_intra,
        predicted_h,
        predicted_c,
        tissues: tissue_plans,
    };
    (body, stats)
}

/// The index of the sub-layer containing cell `t` under `sublayers`.
///
/// # Panics
/// Panics if `t` falls outside every sub-layer (the division covers the
/// whole sequence, so this would be a scheduling bug).
fn sublayer_of(t: usize, sublayers: &[SubLayer]) -> usize {
    sublayers
        .iter()
        .position(|s| t >= s.start && t < s.start + s.len)
        .expect("every cell belongs to a sub-layer")
}

/// Resolves where cell `t` reads its `(h, c)` context from under the
/// division: sub-layer heads get zeros (cell 0) or the predicted link;
/// everyone else reads its predecessor's output.
fn prev_source(
    t: usize,
    start_of_sublayer: &std::collections::HashMap<usize, usize>,
    sublayers: &[SubLayer],
) -> PrevSource {
    if let Some(&sub_idx) = start_of_sublayer.get(&t) {
        if sublayers[sub_idx].start == 0 && t == 0 {
            PrevSource::Zeros
        } else {
            // Broken link: the plan injects its predicted vectors (which
            // are zeros when link prediction is ablated).
            PrevSource::Predicted
        }
    } else {
        PrevSource::Prior
    }
}

/// `Sgemm(U_o, H_t)`: the output-gate slice over a whole tissue.
fn uo_tissue_kernel(
    label: String,
    u_o_region: RegionId,
    hidden: usize,
    tissue_size: usize,
    alloc: &mut RegionAllocator,
) -> KernelDesc {
    let (h, t) = (hidden as u64, tissue_size as u64);
    let u_bytes = h * h * F32;
    let h_bytes = t * h * F32;
    KernelDesc::builder(label, KernelKind::Sgemm)
        .flops(2 * h * h * t)
        .read(u_o_region, u_bytes)
        .read(alloc.fresh(), h_bytes)
        .write(alloc.fresh(), t * h * F32)
        .smem(u_bytes * t + h_bytes)
        .threads(h * t, 256)
        .build()
}

/// The activation-only element-wise kernel computing a single gate
/// (Algorithm 3 line 5): one sigmoid per element.
fn gate_ew_kernel(
    label: String,
    hidden: usize,
    batch: usize,
    alloc: &mut RegionAllocator,
) -> KernelDesc {
    let (h, b) = (hidden as u64, batch as u64);
    let bytes = b * 2 * h * F32 + h * F32;
    KernelDesc::builder(label, KernelKind::ElementWise)
        .flops(12 * h * b)
        .read(alloc.fresh(), bytes)
        .write(alloc.fresh(), b * h * F32)
        .smem(bytes)
        .threads(h * b, 128)
        .build()
}
