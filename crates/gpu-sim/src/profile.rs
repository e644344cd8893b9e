//! Stall-attribution profiler: one span per kernel launch, with plan-phase
//! tags, rollups, a text flame summary and a Chrome-trace exporter.
//!
//! The timing model already attributes every kernel's time to a bound
//! resource and a [`StallBreakdown`], but [`SimReport`](crate::SimReport)
//! collapses that into run totals. The [`Profiler`] keeps the per-launch
//! view: each [`price_kernel`](crate::TraceSession::price_kernel) call
//! appends one [`KernelSpan`] carrying the currently active [`SpanTag`]
//! (which plan phase, layer, tissue/sub-layer or timestep produced the
//! kernel), the timing components, the stall breakdown and the DRAM
//! hit/miss traffic.
//!
//! Profiling is strictly *observation-only*: enabling it changes no cache
//! state, no pricing, and no report — spans are recorded after the fact
//! from the already-computed [`KernelReport`]s. Span start times are laid
//! out back-to-back on the simulated timeline in launch order, and each
//! span's duration is the kernel's `time_s` (`== exec_s + overhead_s`
//! exactly), so the sum of span durations — accumulated in span order —
//! reproduces the report's `time_s` bit-for-bit.
//!
//! Exports:
//! * [`Profiler::chrome_trace`] — trace-event JSON loadable in
//!   `chrome://tracing` or Perfetto (`ui.perfetto.dev`);
//! * [`Profiler::flame_summary`] — a plain-text per-phase/per-kind view;
//! * [`validate_chrome_trace`] — a dependency-free well-formedness check
//!   used by tests and CI.

use crate::kernel::KernelKind;
use crate::report::{BoundResource, KernelReport, StallBreakdown};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Coarse plan phase a kernel belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Phase {
    /// Not attributed to any phase.
    #[default]
    Other,
    /// Per-layer batched input transform (`Sgemm(W, x)`).
    Wx,
    /// Sequential per-cell recurrent body (baseline / DRS flows).
    Cells,
    /// Tissue construction kernels (breakpoint search, link prediction).
    Offline,
    /// Batched tissue rounds (inter-cell optimized flow).
    Tissue,
    /// Classifier head.
    Head,
}

impl Phase {
    /// Short lowercase name (used as the Chrome-trace category).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Other => "other",
            Phase::Wx => "wx",
            Phase::Cells => "cells",
            Phase::Offline => "offline",
            Phase::Tissue => "tissue",
            Phase::Head => "head",
        }
    }
}

/// Plan-phase metadata attached to every span recorded while it is active.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpanTag {
    /// Coarse phase.
    pub phase: Phase,
    /// Network layer index, when the phase is layer-scoped.
    pub layer: Option<u32>,
    /// Tissue index within the layer (tissue flow only).
    pub tissue: Option<u32>,
    /// Sub-layer id of the tissue's first member cell (tissue flow only).
    pub sublayer: Option<u32>,
    /// Timestep (sequential per-cell flows only).
    pub step: Option<u32>,
    /// Cross-request batch size, when the kernel serves several sequences
    /// in one launch (the serving engine's lockstep rounds).
    pub batch: Option<u32>,
    /// Device the kernel was priced on (interned via
    /// [`intern_device_name`](crate::model::intern_device_name)), so
    /// spans from different devices stay distinguishable when folded into
    /// one timeline.
    pub device: Option<&'static str>,
}

impl SpanTag {
    /// Tag for a layer's input transform.
    pub fn wx(layer: usize) -> Self {
        Self {
            phase: Phase::Wx,
            layer: Some(layer as u32),
            ..Self::default()
        }
    }

    /// Tag for one timestep of a layer's sequential cell body.
    pub fn cells(layer: usize, step: usize) -> Self {
        Self {
            phase: Phase::Cells,
            layer: Some(layer as u32),
            step: Some(step as u32),
            ..Self::default()
        }
    }

    /// Tag for a layer's tissue-construction kernels.
    pub fn offline(layer: usize) -> Self {
        Self {
            phase: Phase::Offline,
            layer: Some(layer as u32),
            ..Self::default()
        }
    }

    /// Tag for one tissue of a layer.
    pub fn tissue(layer: usize, tissue: usize, sublayer: Option<usize>) -> Self {
        Self {
            phase: Phase::Tissue,
            layer: Some(layer as u32),
            tissue: Some(tissue as u32),
            sublayer: sublayer.map(|s| s as u32),
            ..Self::default()
        }
    }

    /// Tag for the classifier head.
    pub fn head() -> Self {
        Self {
            phase: Phase::Head,
            ..Self::default()
        }
    }

    /// Returns the tag with the cross-request batch size attached.
    /// Recorded spans carry it into rollups and the Chrome trace, where it
    /// makes weight-load amortization visible per kernel.
    pub fn with_batch(mut self, batch: usize) -> Self {
        self.batch = Some(batch as u32);
        self
    }

    /// Returns the tag with a device name attached (use
    /// [`DeviceModel::span_name`](crate::model::DeviceModel::span_name)
    /// for the interned name). Usually stamped wholesale via
    /// [`Profiler::set_device`] rather than per tag.
    pub fn with_device(mut self, device: &'static str) -> Self {
        self.device = Some(device);
        self
    }

    /// Phase label used for rollups, e.g. `L0/cells`, `L2/tissue`, `head`.
    pub fn label(&self) -> String {
        match self.layer {
            Some(l) => format!("L{l}/{}", self.phase.name()),
            None => self.phase.name().to_owned(),
        }
    }
}

/// One kernel launch on the simulated timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelSpan {
    /// Kernel label (from the descriptor).
    pub label: String,
    /// Kernel kind.
    pub kind: KernelKind,
    /// Plan-phase tag active when the kernel was priced.
    pub tag: SpanTag,
    /// Start time on the simulated timeline, seconds.
    pub start_s: f64,
    /// Total span duration (`== exec_s + overhead_s` exactly), seconds.
    pub time_s: f64,
    /// Execution time (bound resource), seconds.
    pub exec_s: f64,
    /// Launch/barrier/CRM overhead, seconds.
    pub overhead_s: f64,
    /// CRM reorganization latency included in the overhead, seconds.
    pub crm_s: f64,
    /// Timing-model component times `(compute, dram, smem)`, seconds.
    pub components_s: (f64, f64, f64),
    /// Stall attribution.
    pub stall: StallBreakdown,
    /// Binding resource.
    pub bound: BoundResource,
    /// Whether the on-chip ceiling forced a re-configuration.
    pub reconfigured: bool,
    /// Bytes read from DRAM (L2 misses).
    pub dram_read_bytes: u64,
    /// Bytes written to DRAM.
    pub dram_write_bytes: u64,
    /// Bytes served by the L2.
    pub l2_hit_bytes: u64,
    /// On-chip traffic in bytes.
    pub smem_bytes: u64,
    /// FLOPs executed.
    pub flops: u64,
    /// Logical gate launches fused into this one (`1` for plain kernels).
    pub fused: u32,
}

/// Aggregate over all spans sharing one phase label.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PhaseStats {
    /// Phase label (see [`SpanTag::label`]).
    pub label: String,
    /// Number of kernel launches.
    pub launches: u64,
    /// Total time, seconds.
    pub time_s: f64,
    /// Total execution time, seconds.
    pub exec_s: f64,
    /// Total overhead, seconds.
    pub overhead_s: f64,
    /// Aggregated stall attribution.
    pub stall: StallBreakdown,
    /// DRAM traffic (read + write) in bytes.
    pub dram_bytes: u64,
    /// Bytes served by the L2.
    pub l2_hit_bytes: u64,
    /// Number of launches that paid the re-configuration penalty.
    pub reconfigurations: u64,
}

/// Aggregate over all spans of one kernel kind.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct KindStats {
    /// Kind label (see [`KernelKind::label`]).
    pub kind: &'static str,
    /// Number of kernel launches.
    pub launches: u64,
    /// Total time, seconds.
    pub time_s: f64,
    /// Total execution time, seconds.
    pub exec_s: f64,
    /// Aggregated stall attribution.
    pub stall: StallBreakdown,
    /// DRAM traffic (read + write) in bytes.
    pub dram_bytes: u64,
}

/// Records one [`KernelSpan`] per priced kernel.
///
/// Attach to a [`TraceSession`](crate::TraceSession) with
/// [`enable_profiling`](crate::TraceSession::enable_profiling); a plan
/// runtime announces phases via
/// [`set_span_tag`](crate::TraceSession::set_span_tag).
#[derive(Debug, Clone, Default)]
pub struct Profiler {
    spans: Vec<KernelSpan>,
    clock_s: f64,
    tag: SpanTag,
    device: Option<&'static str>,
}

impl Profiler {
    /// Creates an empty profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the tag applied to subsequently recorded spans.
    pub fn set_tag(&mut self, tag: SpanTag) {
        self.tag = tag;
    }

    /// The currently active tag.
    pub fn tag(&self) -> SpanTag {
        self.tag
    }

    /// Sets the device name stamped onto subsequently recorded spans
    /// (unless the active tag already names one). Use
    /// [`DeviceModel::span_name`](crate::model::DeviceModel::span_name)
    /// for the interned name.
    pub fn set_device(&mut self, device: &'static str) {
        self.device = Some(device);
    }

    /// The device name stamped onto recorded spans, if set.
    pub fn device(&self) -> Option<&'static str> {
        self.device
    }

    /// Records one span from an already-priced kernel report. The span is
    /// placed at the current simulated clock, which then advances by the
    /// kernel's `time_s` — the same quantity, accumulated in the same
    /// order, as the aggregate report's `time_s`.
    pub fn record(&mut self, k: &KernelReport) {
        let mut tag = self.tag;
        tag.device = tag.device.or(self.device);
        let span = KernelSpan {
            label: k.label.clone(),
            kind: k.kind,
            tag,
            start_s: self.clock_s,
            time_s: k.time_s,
            exec_s: k.exec_s,
            overhead_s: k.overhead_s,
            crm_s: k.crm_s,
            components_s: k.components_s,
            stall: k.stall,
            bound: k.bound,
            reconfigured: k.reconfigured,
            dram_read_bytes: k.dram_read_bytes,
            dram_write_bytes: k.dram_write_bytes,
            l2_hit_bytes: k.l2_hit_bytes,
            smem_bytes: k.smem_bytes,
            flops: k.flops,
            fused: k.fused,
        };
        self.clock_s += k.time_s;
        self.spans.push(span);
    }

    /// All recorded spans, in launch order.
    pub fn spans(&self) -> &[KernelSpan] {
        &self.spans
    }

    /// Total simulated time covered by the spans (bit-identical to the
    /// corresponding report's `time_s`).
    pub fn total_s(&self) -> f64 {
        self.clock_s
    }

    /// Per-phase aggregates, ordered by phase label.
    pub fn phase_rollup(&self) -> Vec<PhaseStats> {
        let mut map: BTreeMap<String, PhaseStats> = BTreeMap::new();
        for span in &self.spans {
            let label = span.tag.label();
            let entry = map.entry(label.clone()).or_default();
            entry.label = label;
            entry.launches += 1;
            entry.time_s += span.time_s;
            entry.exec_s += span.exec_s;
            entry.overhead_s += span.overhead_s;
            entry.stall.accumulate(&span.stall);
            entry.dram_bytes += span.dram_read_bytes + span.dram_write_bytes;
            entry.l2_hit_bytes += span.l2_hit_bytes;
            entry.reconfigurations += u64::from(span.reconfigured);
        }
        map.into_values().collect()
    }

    /// Per-kernel-kind aggregates, ordered by kind label.
    pub fn kind_rollup(&self) -> Vec<KindStats> {
        let mut map: BTreeMap<&'static str, KindStats> = BTreeMap::new();
        for span in &self.spans {
            let entry = map.entry(span.kind.label()).or_default();
            entry.kind = span.kind.label();
            entry.launches += 1;
            entry.time_s += span.time_s;
            entry.exec_s += span.exec_s;
            entry.stall.accumulate(&span.stall);
            entry.dram_bytes += span.dram_read_bytes + span.dram_write_bytes;
        }
        map.into_values().collect()
    }

    /// A plain-text flame summary: phases by descending time, then kernel
    /// kinds, then the hottest individual spans.
    pub fn flame_summary(&self) -> String {
        let mut out = String::new();
        let total = self.total_s();
        let _ = writeln!(
            out,
            "profile: {} spans, {:.3} ms simulated",
            self.spans.len(),
            total * 1e3
        );
        if self.spans.is_empty() {
            return out;
        }
        let share = |t: f64| if total > 0.0 { 100.0 * t / total } else { 0.0 };

        let mut phases = self.phase_rollup();
        phases.sort_by(|a, b| b.time_s.total_cmp(&a.time_s));
        let _ = writeln!(
            out,
            "{:<14} {:>10} {:>7} {:>8} {:>9} {:>10} {:>9}",
            "phase", "time(ms)", "share", "spans", "offchip%", "dram(MB)", "reconfig"
        );
        for p in &phases {
            let stall_total = p.stall.total_s();
            let offchip = if stall_total > 0.0 {
                100.0 * p.stall.off_chip_s / stall_total
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "{:<14} {:>10.3} {:>6.1}% {:>8} {:>8.1}% {:>10.2} {:>9}",
                p.label,
                p.time_s * 1e3,
                share(p.time_s),
                p.launches,
                offchip,
                p.dram_bytes as f64 / (1024.0 * 1024.0),
                p.reconfigurations
            );
        }

        let mut kinds = self.kind_rollup();
        kinds.sort_by(|a, b| b.time_s.total_cmp(&a.time_s));
        let _ = writeln!(
            out,
            "{:<14} {:>10} {:>7} {:>8} {:>10}",
            "kind", "time(ms)", "share", "spans", "dram(MB)"
        );
        for k in &kinds {
            let _ = writeln!(
                out,
                "{:<14} {:>10.3} {:>6.1}% {:>8} {:>10.2}",
                k.kind,
                k.time_s * 1e3,
                share(k.time_s),
                k.launches,
                k.dram_bytes as f64 / (1024.0 * 1024.0)
            );
        }

        let mut hottest: Vec<&KernelSpan> = self.spans.iter().collect();
        hottest.sort_by(|a, b| b.time_s.total_cmp(&a.time_s));
        let _ = writeln!(out, "hottest spans:");
        for span in hottest.iter().take(5) {
            let _ = writeln!(
                out,
                "  {:<14} {:<20} {:>10.4} ms  bound={:?}{}",
                span.tag.label(),
                span.label,
                span.time_s * 1e3,
                span.bound,
                if span.reconfigured {
                    " (reconfigured)"
                } else {
                    ""
                }
            );
        }
        out
    }

    /// Builds a single-process Chrome trace of this profiler's spans.
    pub fn chrome_trace(&self) -> ChromeTrace {
        let mut trace = ChromeTrace::new();
        self.add_to_chrome(&mut trace, 0, "gpu-sim (simulated time)");
        trace
    }

    /// Folds the spans into an existing [`ChromeTrace`] as process `pid`
    /// (one thread lane: the simulated device executes kernels
    /// back-to-back).
    pub fn add_to_chrome(&self, trace: &mut ChromeTrace, pid: u32, process_name: &str) {
        trace.add_process_name(pid, process_name);
        trace.add_thread_name(pid, 0, "kernel stream");
        for span in &self.spans {
            let (compute_s, dram_s, smem_s) = span.components_s;
            let mut args: Vec<(&str, ArgValue)> = vec![
                ("kind", ArgValue::Str(span.kind.label().to_owned())),
                ("phase", ArgValue::Str(span.tag.label())),
                ("exec_us", ArgValue::Num(span.exec_s * 1e6)),
                ("overhead_us", ArgValue::Num(span.overhead_s * 1e6)),
                ("crm_us", ArgValue::Num(span.crm_s * 1e6)),
                ("compute_us", ArgValue::Num(compute_s * 1e6)),
                ("dram_us", ArgValue::Num(dram_s * 1e6)),
                ("smem_us", ArgValue::Num(smem_s * 1e6)),
                (
                    "stall_off_chip_us",
                    ArgValue::Num(span.stall.off_chip_s * 1e6),
                ),
                (
                    "stall_on_chip_us",
                    ArgValue::Num(span.stall.on_chip_s * 1e6),
                ),
                (
                    "stall_barrier_us",
                    ArgValue::Num(span.stall.barrier_s * 1e6),
                ),
                (
                    "stall_exec_dep_us",
                    ArgValue::Num(span.stall.exec_dep_s * 1e6),
                ),
                ("stall_other_us", ArgValue::Num(span.stall.other_s * 1e6)),
                ("bound", ArgValue::Str(format!("{:?}", span.bound))),
                ("reconfigured", ArgValue::Bool(span.reconfigured)),
                (
                    "dram_read_bytes",
                    ArgValue::Int(span.dram_read_bytes as i64),
                ),
                (
                    "dram_write_bytes",
                    ArgValue::Int(span.dram_write_bytes as i64),
                ),
                ("l2_hit_bytes", ArgValue::Int(span.l2_hit_bytes as i64)),
                ("smem_bytes", ArgValue::Int(span.smem_bytes as i64)),
                ("flops", ArgValue::Int(span.flops as i64)),
            ];
            if span.fused > 1 {
                args.push(("fused_gates", ArgValue::Int(i64::from(span.fused))));
            }
            if let Some(t) = span.tag.tissue {
                args.push(("tissue", ArgValue::Int(i64::from(t))));
            }
            if let Some(s) = span.tag.sublayer {
                args.push(("sublayer", ArgValue::Int(i64::from(s))));
            }
            if let Some(s) = span.tag.step {
                args.push(("step", ArgValue::Int(i64::from(s))));
            }
            if let Some(b) = span.tag.batch {
                args.push(("batch", ArgValue::Int(i64::from(b))));
            }
            if let Some(d) = span.tag.device {
                args.push(("device", ArgValue::Str(d.to_owned())));
            }
            trace.add_span(
                pid,
                0,
                &span.label,
                span.tag.phase.name(),
                span.start_s * 1e6,
                span.time_s * 1e6,
                &args,
            );
        }
    }
}

/// A typed argument value for a Chrome-trace event.
#[derive(Debug, Clone)]
pub enum ArgValue {
    /// A JSON string.
    Str(String),
    /// A JSON number (non-finite values serialize as 0).
    Num(f64),
    /// A JSON integer.
    Int(i64),
    /// A JSON boolean.
    Bool(bool),
}

impl ArgValue {
    fn write_json(&self, out: &mut String) {
        match self {
            ArgValue::Str(s) => write_json_string(out, s),
            ArgValue::Num(n) => {
                if n.is_finite() {
                    let _ = write!(out, "{n}");
                } else {
                    out.push('0');
                }
            }
            ArgValue::Int(i) => {
                let _ = write!(out, "{i}");
            }
            ArgValue::Bool(b) => {
                let _ = write!(out, "{b}");
            }
        }
    }
}

fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A Chrome trace-event JSON builder (hand-rolled: no serde in this tree).
///
/// Events use the "X" (complete) and "M" (metadata) phases of the
/// trace-event format; timestamps and durations are in microseconds. The
/// output loads in `chrome://tracing` and Perfetto.
#[derive(Debug, Clone, Default)]
pub struct ChromeTrace {
    /// Serialized JSON objects, one per event.
    events: Vec<String>,
}

impl ChromeTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of events added so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    fn add_metadata(&mut self, pid: u32, tid: u32, kind: &str, name: &str) {
        let mut e = String::new();
        let _ = write!(
            e,
            "{{\"name\":\"{kind}\",\"ph\":\"M\",\"ts\":0,\"pid\":{pid},\"tid\":{tid},\"args\":{{\"name\":"
        );
        write_json_string(&mut e, name);
        e.push_str("}}");
        self.events.push(e);
    }

    /// Names a process lane.
    pub fn add_process_name(&mut self, pid: u32, name: &str) {
        self.add_metadata(pid, 0, "process_name", name);
    }

    /// Names a thread lane.
    pub fn add_thread_name(&mut self, pid: u32, tid: u32, name: &str) {
        self.add_metadata(pid, tid, "thread_name", name);
    }

    /// Adds one complete ("X") event. `start_us`/`dur_us` are microseconds.
    #[allow(clippy::too_many_arguments)]
    pub fn add_span(
        &mut self,
        pid: u32,
        tid: u32,
        name: &str,
        category: &str,
        start_us: f64,
        dur_us: f64,
        args: &[(&str, ArgValue)],
    ) {
        let mut e = String::new();
        e.push_str("{\"name\":");
        write_json_string(&mut e, name);
        e.push_str(",\"cat\":");
        write_json_string(&mut e, category);
        let ts = if start_us.is_finite() { start_us } else { 0.0 };
        let dur = if dur_us.is_finite() { dur_us } else { 0.0 };
        let _ = write!(
            e,
            ",\"ph\":\"X\",\"ts\":{ts},\"dur\":{dur},\"pid\":{pid},\"tid\":{tid}"
        );
        if !args.is_empty() {
            e.push_str(",\"args\":{");
            for (i, (key, value)) in args.iter().enumerate() {
                if i > 0 {
                    e.push(',');
                }
                write_json_string(&mut e, key);
                e.push(':');
                value.write_json(&mut e);
            }
            e.push('}');
        }
        e.push('}');
        self.events.push(e);
    }

    /// Adds one counter ("C") sample. Counter events render as stacked
    /// area tracks in `chrome://tracing`/Perfetto — one track per `name`
    /// within a process, one series per `(key, value)` pair. `ts_us` is
    /// microseconds; values are emitted as JSON numbers.
    pub fn add_counter(&mut self, pid: u32, name: &str, ts_us: f64, series: &[(&str, f64)]) {
        let mut e = String::new();
        e.push_str("{\"name\":");
        write_json_string(&mut e, name);
        let ts = if ts_us.is_finite() { ts_us } else { 0.0 };
        let _ = write!(e, ",\"ph\":\"C\",\"ts\":{ts},\"pid\":{pid},\"tid\":0");
        e.push_str(",\"args\":{");
        for (i, (key, value)) in series.iter().enumerate() {
            if i > 0 {
                e.push(',');
            }
            write_json_string(&mut e, key);
            e.push(':');
            let v = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(e, "{v}");
        }
        e.push_str("}}");
        self.events.push(e);
    }

    /// Serializes the whole trace as a JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(e);
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

// ---------------------------------------------------------------------------
// Chrome-trace validation: a minimal JSON parser (no serde in this tree)
// plus structural checks on the trace-event schema. Used by tests and the
// CI drift guard to prove exported traces are well-formed.

/// A parsed JSON value (internal to validation; deliberately minimal).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get<'a>(&'a self, key: &str) -> Option<&'a Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct JsonParser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> JsonParser<'a> {
    fn new(text: &'a str) -> Self {
        Self {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn fail(&self, msg: &str) -> String {
        format!("JSON error at byte {}: {msg}", self.pos)
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.fail(&format!("expected '{}'", b as char)))
        }
    }

    fn parse_value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.parse_object(),
            Some(b'[') => self.parse_array(),
            Some(b'"') => Ok(Json::Str(self.parse_string()?)),
            Some(b't') => self.parse_literal("true", Json::Bool(true)),
            Some(b'f') => self.parse_literal("false", Json::Bool(false)),
            Some(b'n') => self.parse_literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            _ => Err(self.fail("expected a value")),
        }
    }

    fn parse_literal(&mut self, lit: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.fail(&format!("expected '{lit}'")))
        }
    }

    fn parse_number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.fail("invalid number bytes"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.fail(&format!("invalid number '{text}'")))
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.fail("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.fail("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.fail("invalid \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.fail("invalid \\u escape"))?;
                            // Surrogates are tolerated as replacement chars:
                            // the exporter never emits them.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.fail("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one character, decoded in place: the input
                    // is already a `&str`, and every token boundary the
                    // parser stops at is a character boundary.
                    let c = self
                        .text
                        .get(self.pos..)
                        .and_then(|rest| rest.chars().next())
                        .ok_or_else(|| self.fail("invalid UTF-8"))?;
                    if (c as u32) < 0x20 {
                        return Err(self.fail("unescaped control character"));
                    }
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn parse_array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.fail("expected ',' or ']'")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.fail("expected ',' or '}'")),
            }
        }
    }

    fn parse_document(&mut self) -> Result<Json, String> {
        let value = self.parse_value()?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.fail("trailing garbage after document"));
        }
        Ok(value)
    }
}

/// Validates that `json` is a well-formed Chrome trace-event document:
/// parseable JSON, a top-level object with a `traceEvents` array, and every
/// event an object with `name`/`ph`/`ts`/`pid`/`tid` (plus a numeric `dur`
/// for complete events). Returns the number of events.
pub fn validate_chrome_trace(json: &str) -> Result<usize, String> {
    let doc = JsonParser::new(json).parse_document()?;
    let events = doc.get("traceEvents").ok_or("missing 'traceEvents' key")?;
    let Json::Arr(events) = events else {
        return Err("'traceEvents' is not an array".to_owned());
    };
    for (i, event) in events.iter().enumerate() {
        let err = |msg: &str| format!("event {i}: {msg}");
        let Json::Obj(_) = event else {
            return Err(err("not an object"));
        };
        event
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| err("missing string 'name'"))?;
        let ph = event
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| err("missing string 'ph'"))?;
        event
            .get("ts")
            .and_then(Json::as_num)
            .ok_or_else(|| err("missing numeric 'ts'"))?;
        event
            .get("pid")
            .and_then(Json::as_num)
            .ok_or_else(|| err("missing numeric 'pid'"))?;
        event
            .get("tid")
            .and_then(Json::as_num)
            .ok_or_else(|| err("missing numeric 'tid'"))?;
        if ph == "X" {
            let dur = event
                .get("dur")
                .and_then(Json::as_num)
                .ok_or_else(|| err("complete event missing numeric 'dur'"))?;
            if dur < 0.0 {
                return Err(err("negative duration"));
            }
        }
    }
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(label: &str, kind: KernelKind, time: f64) -> KernelReport {
        KernelReport {
            label: label.to_owned(),
            kind,
            time_s: time,
            exec_s: time * 0.9,
            overhead_s: time * 0.1,
            dram_read_bytes: 1000,
            dram_write_bytes: 200,
            l2_hit_bytes: 300,
            smem_bytes: 400,
            flops: 5000,
            stall: StallBreakdown {
                off_chip_s: time * 0.5,
                ..Default::default()
            },
            bound: BoundResource::OffChip,
            reconfigured: false,
            crm_s: 0.0,
            components_s: (time * 0.1, time * 0.9, time * 0.05),
            fused: 1,
        }
    }

    #[test]
    fn spans_are_laid_out_back_to_back() {
        let mut p = Profiler::new();
        p.set_tag(SpanTag::wx(0));
        p.record(&report("a", KernelKind::Sgemm, 1.0));
        p.set_tag(SpanTag::cells(0, 3));
        p.record(&report("b", KernelKind::Sgemv, 2.0));
        assert_eq!(p.spans().len(), 2);
        assert_eq!(p.spans()[0].start_s, 0.0);
        assert_eq!(p.spans()[1].start_s, 1.0);
        assert_eq!(p.total_s(), 3.0);
        assert_eq!(p.spans()[1].tag.step, Some(3));
    }

    #[test]
    fn span_time_sum_matches_clock_bitwise() {
        let mut p = Profiler::new();
        for i in 0..100 {
            p.record(&report("k", KernelKind::Sgemv, 1.0 / (i as f64 + 3.0)));
        }
        let sum = p.spans().iter().fold(0.0f64, |acc, s| acc + s.time_s);
        assert_eq!(sum.to_bits(), p.total_s().to_bits());
    }

    #[test]
    fn phase_rollup_groups_by_label() {
        let mut p = Profiler::new();
        p.set_tag(SpanTag::cells(0, 0));
        p.record(&report("a", KernelKind::Sgemv, 1.0));
        p.set_tag(SpanTag::cells(0, 1));
        p.record(&report("b", KernelKind::Sgemv, 2.0));
        p.set_tag(SpanTag::tissue(1, 4, Some(2)));
        p.record(&report("c", KernelKind::Sgemm, 4.0));
        let phases = p.phase_rollup();
        assert_eq!(phases.len(), 2);
        let cells = phases.iter().find(|p| p.label == "L0/cells").unwrap();
        assert_eq!(cells.launches, 2);
        assert_eq!(cells.time_s, 3.0);
        let tissue = phases.iter().find(|p| p.label == "L1/tissue").unwrap();
        assert_eq!(tissue.launches, 1);
        assert_eq!(tissue.dram_bytes, 1200);
    }

    #[test]
    fn kind_rollup_groups_by_kind() {
        let mut p = Profiler::new();
        p.record(&report("a", KernelKind::Sgemv, 1.0));
        p.record(&report("b", KernelKind::Sgemv, 2.0));
        p.record(&report("c", KernelKind::ElementWise, 1.0));
        let kinds = p.kind_rollup();
        assert_eq!(kinds.len(), 2);
        let sgemv = kinds.iter().find(|k| k.kind == "Sgemv").unwrap();
        assert_eq!(sgemv.launches, 2);
        assert_eq!(sgemv.time_s, 3.0);
    }

    #[test]
    fn flame_summary_mentions_phases_and_kinds() {
        let mut p = Profiler::new();
        p.set_tag(SpanTag::head());
        p.record(&report("softmax", KernelKind::ElementWise, 1.0));
        let text = p.flame_summary();
        assert!(text.contains("head"), "{text}");
        assert!(text.contains("lstm_ew"), "{text}");
        assert!(text.contains("hottest spans"), "{text}");
    }

    #[test]
    fn chrome_trace_roundtrips_through_validator() {
        let mut p = Profiler::new();
        p.set_tag(SpanTag::wx(0));
        p.record(&report("Sgemm(W,\"x\")\n", KernelKind::Sgemm, 1.0));
        p.set_tag(SpanTag::tissue(0, 1, Some(0)));
        p.record(&report("tissue_round", KernelKind::Sgemm, 2.0));
        let json = p.chrome_trace().to_json();
        // 2 metadata + 2 spans.
        assert_eq!(validate_chrome_trace(&json), Ok(4));
        assert!(json.contains("\\\"x\\\""), "escaping lost: {json}");
    }

    #[test]
    fn counter_events_validate_and_carry_series() {
        let mut trace = ChromeTrace::new();
        trace.add_process_name(3, "serve");
        trace.add_counter(3, "queue_depth", 10.0, &[("backlog", 5.0)]);
        trace.add_counter(3, "gang", 10.0, &[("batch", 4.0), ("cap", 8.0)]);
        trace.add_counter(3, "bad", f64::NAN, &[("v", f64::INFINITY)]);
        let json = trace.to_json();
        assert_eq!(validate_chrome_trace(&json), Ok(4), "{json}");
        assert!(json.contains("\"ph\":\"C\""), "{json}");
        assert!(json.contains("\"batch\":4,\"cap\":8"), "{json}");
        // Non-finite inputs are clamped so the JSON stays parseable.
        assert!(json.contains("\"v\":0"), "{json}");
    }

    #[test]
    fn large_trace_validates_in_linear_time() {
        // 20k spans with long, escaped, multi-byte labels: string parsing
        // must not rescan the rest of the document per character.
        let mut trace = ChromeTrace::new();
        trace.add_process_name(0, "device");
        for i in 0..20_000u32 {
            trace.add_span(
                0,
                i % 4,
                &format!("Sgemm(U_fic,H,R) l{} t{i} \"xB8\" — μ", i % 3),
                "tissue",
                f64::from(i),
                1.5,
                &[("batch", ArgValue::Int(8))],
            );
        }
        let json = trace.to_json();
        assert!(
            json.len() > 2_000_000,
            "trace too small: {} bytes",
            json.len()
        );
        assert_eq!(validate_chrome_trace(&json), Ok(20_001));
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("{}").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":{}}").is_err());
        assert!(
            validate_chrome_trace("{\"traceEvents\":[{\"ph\":\"X\"}]}").is_err(),
            "event missing required keys must be rejected"
        );
        assert!(validate_chrome_trace(
            "{\"traceEvents\":[{\"name\":\"k\",\"ph\":\"X\",\"ts\":0,\"pid\":0,\"tid\":0}]}"
        )
        .is_err());
        assert_eq!(
            validate_chrome_trace(
                "{\"traceEvents\":[{\"name\":\"k\",\"ph\":\"X\",\"ts\":0,\"dur\":1,\"pid\":0,\"tid\":0}]}"
            ),
            Ok(1)
        );
        assert!(validate_chrome_trace("{\"traceEvents\":[]} garbage").is_err());
    }

    #[test]
    fn tag_labels() {
        assert_eq!(SpanTag::wx(2).label(), "L2/wx");
        assert_eq!(SpanTag::head().label(), "head");
        assert_eq!(SpanTag::default().label(), "other");
        assert_eq!(SpanTag::offline(1).label(), "L1/offline");
    }

    #[test]
    fn device_stamp_survives_into_spans_and_chrome_args() {
        let mut p = Profiler::new();
        p.set_device("tegra_x2");
        p.set_tag(SpanTag::wx(0));
        p.record(&report("Sgemm(W,X)", KernelKind::Sgemm, 1.0));
        // A tag that already names a device wins over the stamp.
        p.set_tag(SpanTag::head().with_device("adreno_5xx"));
        p.record(&report("softmax", KernelKind::ElementWise, 0.5));
        assert_eq!(p.spans()[0].tag.device, Some("tegra_x2"));
        assert_eq!(p.spans()[1].tag.device, Some("adreno_5xx"));
        let json = p.chrome_trace().to_json();
        assert!(json.contains("\"device\":\"tegra_x2\""), "{json}");
        assert!(json.contains("\"device\":\"adreno_5xx\""), "{json}");
        assert!(validate_chrome_trace(&json).is_ok());
    }

    #[test]
    fn batch_tag_survives_into_spans_and_chrome_args() {
        let mut p = Profiler::new();
        p.set_tag(SpanTag::wx(0).with_batch(8));
        p.record(&report("Sgemm(W,X)", KernelKind::Sgemm, 1.0));
        assert_eq!(p.spans()[0].tag.batch, Some(8));
        // The label is batch-agnostic: batched and serial spans of the
        // same phase roll up together.
        assert_eq!(p.spans()[0].tag.label(), "L0/wx");
        let json = p.chrome_trace().to_json();
        assert!(json.contains("\"batch\":8"), "{json}");
        assert!(validate_chrome_trace(&json).is_ok());
    }
}
