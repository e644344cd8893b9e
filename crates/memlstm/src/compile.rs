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
//! one LSTM interpreter (`PlanRuntime::layer_numerics` at the configured
//! precision), the code the online phase runs — and analyzes layer
//! `l + 1` against exactly the inputs it will see. The probes advance as
//! gangs of up to eight lanes in lockstep, one call per gang, each lane
//! bit-identical to its solo run. No probe advances past the last layer:
//! nothing reads that output. Without the inter-cell level no plan
//! reads a probe, so none runs.

use crate::breakpoints::find_breakpoints;
use crate::division::{divide, SubLayer};
use crate::error::{
    check_finite_probe, check_optimizer_config, check_step_widths, Error, MemlstmResult,
};
use crate::exec::OptimizerConfig;
use crate::offline;
use crate::prediction::NetworkPredictors;
use crate::relevance::{relevance_flops, RelevanceAnalyzer};
use crate::tissue::{form_tissues, schedule_tissues, schedule_tissues_balanced, Tissue};
use gpu_sim::{DeviceModel, KernelDesc, KernelKind, RegionId, SpanTag};
use lstm::cell::CellWeights;
use lstm::plan::{
    ExecutionPlan, LayerBody, LayerPlan, MaskedUKernel, PlanBody, PlanLayerStats, PlanRuntime,
    PrevSource, TissueKernels, TissuePlan,
};
use lstm::regions::{NetworkRegions, RegionAllocator};
use lstm::schedule::{
    drs_kernel, ew_kernel, gate_ew_kernel, head_kernel, tissue_sgemm_kernel, wx_sgemm_kernel, F32,
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
/// [`Error::InvalidOptimizerConfig`] if `config` cannot run as its
/// enabled levels ask (the inter-cell level with `mts == 0` or a
/// non-finite `α_inter`, or a non-finite `α_intra`),
/// [`Error::NoProbes`] if `probes` is empty, [`Error::EmptyProbe`] or
/// [`Error::ProbeLengthMismatch`] if a probe is empty or differs in
/// length, [`Error::StepWidthMismatch`] if a probe step is not as wide
/// as the network's input, [`Error::NonFiniteProbe`] if a probe holds a
/// NaN or infinite element, and (when `config.inter` is set)
/// [`Error::AnalyzerCount`] if `analyzers` does not cover every layer.
pub fn compile(
    net: &LstmNetwork,
    predictors: &NetworkPredictors,
    analyzers: &[RelevanceAnalyzer],
    config: &OptimizerConfig,
    probes: &[Vec<Vector>],
    device: &DeviceModel,
) -> MemlstmResult<ExecutionPlan> {
    check_optimizer_config(config)?;
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
    for (p, probe) in probes.iter().enumerate() {
        check_step_widths(net, probe)?;
        check_finite_probe(p, probe)?;
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
    // Probe fan-outs run on an env-sized pool (`MEMLSTM_THREADS`), one
    // task per gang of probes; when compile itself is invoked from inside
    // a pool task (e.g. a parallel threshold sweep), the nested sections
    // degrade to inline serial execution, so thread counts stay bounded.
    // All merges below are in probe order: the plan is bit-identical for
    // any worker count.
    let probe_pool = Pool::new();
    // Each gang's `W·x` terms of the layer being planned and their link
    // relevances, which the inter-cell level averages.
    let mut gangs: Vec<ProbeGang> = if config.inter {
        let (first, analyzer) = (&net.layers()[0], &analyzers[0]);
        let inputs = offline::gangs(probes)
            .into_iter()
            .map(|g| &probes[g])
            .collect();
        probe_pool.par_map(inputs, |gang: &[Vec<Vector>]| {
            ProbeGang::new(first, analyzer, config, gang.iter().map(Vec::as_slice))
        })
    } else {
        Vec::new()
    };
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
        let layer_plan = if config.inter {
            let relevances = mean_relevances(gangs.iter().flat_map(|g| &g.relevances));
            tissue_layer(
                l,
                wx_kernel,
                &relevances,
                predictors,
                config,
                hidden,
                seq_len,
                &regions.layers[l],
                &mut alloc,
            )
        } else {
            LayerPlan::per_cell(
                l,
                wx_kernel,
                false,
                hidden,
                seq_len,
                &regions.layers[l],
                config.intra_enabled().then_some(config.drs),
                &mut alloc,
            )
        };
        // Advance every gang through the planned layer with the runtime's
        // own arithmetic, so the next layer is analyzed against the
        // inputs it will actually receive. Each gang's `W·x` terms are
        // dropped once its next layer's are computed.
        if let (true, Some(next)) = (config.inter, net.layers().get(l + 1)) {
            let analyzer = &analyzers[l + 1];
            gangs = probe_pool.par_map(std::mem::take(&mut gangs), |gang| {
                let mut runtime = PlanRuntime::new();
                let lanes = runtime.layer_numerics(config.precision, &layer_plan, layer, &gang.wx);
                ProbeGang::new(next, analyzer, config, lanes.map(|(hs, _)| hs))
            });
        }
        layers.push(layer_plan);
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

/// One gang of probes at one layer: each lane's gate-major `W·x` terms
/// and its per-link relevances (Algorithm 2).
struct ProbeGang {
    wx: Vec<Vec<f32>>,
    relevances: Vec<Vec<f64>>,
}

impl ProbeGang {
    /// The terms of `layer` (stored at the configured precision) on each
    /// lane's inputs.
    fn new<'a>(
        layer: &CellWeights,
        analyzer: &RelevanceAnalyzer,
        config: &OptimizerConfig,
        inputs: impl Iterator<Item = &'a [Vector]>,
    ) -> Self {
        let wx: Vec<Vec<f32>> = inputs
            .map(|xs| {
                let mut wx = Vec::new();
                layer.precompute_wx_batch_into(config.precision, xs, &mut wx);
                wx
            })
            .collect();
        let relevances = wx.iter().map(|wx| analyzer.layer_relevances(wx)).collect();
        Self { wx, relevances }
    }
}

/// Per-link relevances combined across probes by averaging, in probe
/// order: the offline estimate of each link's expected relevance over the
/// data distribution. A link breaks when it is weak *on average* — the
/// AO/BPA selection then enforces the accuracy budget empirically on
/// held-out sequences. The `α_inter` upper limit averages with this
/// helper too, so it is consistent with what the compiler breaks.
///
/// # Panics
/// Panics if `per_probe` is empty.
pub(crate) fn mean_relevances<'a>(per_probe: impl IntoIterator<Item = &'a Vec<f64>>) -> Vec<f64> {
    let mut per_probe = per_probe.into_iter();
    let mut combined = per_probe.next().expect("at least one probe").clone();
    let mut probes = 1usize;
    for probe in per_probe {
        for (c, &v) in combined.iter_mut().zip(probe) {
            *c += v;
        }
        probes += 1;
    }
    let k = probes as f64;
    for c in combined.iter_mut() {
        *c /= k;
    }
    combined
}

/// Inter-cell flow (optionally with DRS inside each tissue): the offline
/// steps 5–8 of Fig. 10 run here, once; step 9's kernels are lowered into
/// the plan.
#[allow(clippy::too_many_arguments)]
fn tissue_layer(
    l: usize,
    wx: KernelDesc,
    relevances: &[f64],
    predictors: &NetworkPredictors,
    config: &OptimizerConfig,
    hidden: usize,
    seq_len: usize,
    regions: &LayerRegions,
    alloc: &mut RegionAllocator,
) -> LayerPlan {
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
                    gate_ew: Some(gate_ew_kernel(
                        format!("lstm_ew(o) l{l} k{k}"),
                        hidden,
                        t_size,
                        alloc,
                    )),
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
            let first = tissue.cells.first().map(|&t| sublayer_of(t, &sublayers));
            TissuePlan {
                cells: tissue.cells.clone(),
                prev,
                tag: SpanTag::tissue(l, k, first),
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
    LayerPlan {
        wx,
        body: LayerBody::Tissues {
            search,
            link,
            alpha_intra: config.drs.alpha_intra,
            predicted_h,
            predicted_c,
        },
        tissues: tissue_plans,
        stats,
    }
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
