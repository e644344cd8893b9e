//! The simulated GPU device: replays kernel traces against the cache,
//! timing, CRM and energy models.

use crate::cache::{RegionCache, RegionId, ReloadTracker};
use crate::config::GpuConfig;
use crate::crm::CrmModel;
use crate::kernel::KernelDesc;
use crate::profile::{Profiler, SpanTag};
use crate::report::{KernelReport, SimReport};
use crate::timing::kernel_time;

/// A simulated mobile GPU.
///
/// The device owns an L2 model whose state persists across kernel launches
/// — that persistence is what exposes (or, with tissues, removes) the
/// redundant weight reloads of paper Sec. III-A.
#[derive(Debug, Clone)]
pub struct GpuDevice {
    config: GpuConfig,
    crm: CrmModel,
    l2: RegionCache,
    reload: ReloadTracker,
}

impl GpuDevice {
    /// Creates a device with the paper's CRM configuration.
    pub fn new(config: GpuConfig) -> Self {
        let l2 = RegionCache::new(config.l2_bytes as u64);
        Self {
            config,
            crm: CrmModel::paper(),
            l2,
            reload: ReloadTracker::new(),
        }
    }

    /// Creates a device for a named [`DeviceModel`](crate::model::DeviceModel).
    pub fn for_model(model: &crate::model::DeviceModel) -> Self {
        Self::new(model.config.clone())
    }

    /// The device configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.config
    }

    /// The CRM model.
    pub fn crm(&self) -> &CrmModel {
        &self.crm
    }

    /// Declares a region's nominal size for reload-factor tracking
    /// (Sec. III-A's loaded-vs-resident ratio).
    pub fn declare_region(&mut self, region: RegionId, size_bytes: u64) {
        self.reload.declare(region, size_bytes);
    }

    /// The largest reload factor observed across declared regions.
    pub fn max_reload_factor(&self) -> f64 {
        self.reload.max_reload_factor()
    }

    /// The reload factor of one declared region, if known.
    pub fn reload_factor(&self, region: RegionId) -> Option<f64> {
        self.reload.reload_factor(region)
    }

    /// Clears cache and reload state (use between independent runs).
    /// In-place: the cache and tracker keep their heap buffers, so a
    /// serving loop can reset its persistent device every round without
    /// allocating.
    pub fn reset(&mut self) {
        self.l2.clear();
        self.reload.clear();
    }

    /// Simulates one kernel launch, updating cache state.
    pub fn launch(&mut self, desc: &KernelDesc) -> KernelReport {
        self.launch_labeled(desc, desc.label.clone())
    }

    /// [`launch`](Self::launch) with the report label supplied by the
    /// caller, so label-indifferent paths (incremental pricing without a
    /// profiler) can pass an empty `String` and keep the hot loop off
    /// the heap. Identical pricing either way.
    pub(crate) fn launch_labeled(&mut self, desc: &KernelDesc, label: String) -> KernelReport {
        let mut hit_bytes = 0u64;
        let mut miss_bytes = 0u64;
        for access in &desc.reads {
            let outcome = self.l2.access(access.region, access.bytes);
            hit_bytes += outcome.hit_bytes;
            miss_bytes += outcome.miss_bytes;
            self.reload.record_miss(access.region, outcome.miss_bytes);
        }
        let write_bytes = desc.write_bytes();
        let dram_bytes = miss_bytes + write_bytes;

        let timing = kernel_time(&self.config, desc, dram_bytes);
        let crm_s = if desc.uses_crm {
            self.crm
                .reorg_time_s(&self.config, desc.threads, desc.skipped_threads)
        } else {
            0.0
        };

        // `time_s` is defined as exactly `exec_s + overhead_s` (one
        // addition, same operand order) so that profiler spans summing
        // `exec_s + overhead_s` reproduce report totals bit-for-bit.
        let overhead_s = timing.overhead_s + crm_s;
        KernelReport {
            label,
            kind: desc.kind,
            time_s: timing.exec_s + overhead_s,
            exec_s: timing.exec_s,
            overhead_s,
            dram_read_bytes: miss_bytes,
            dram_write_bytes: write_bytes,
            l2_hit_bytes: hit_bytes,
            smem_bytes: desc.smem_bytes,
            flops: desc.flops,
            stall: timing.stall,
            bound: timing.bound,
            reconfigured: timing.reconfigured,
            crm_s,
            components_s: timing.components_s,
            fused: desc.fused,
        }
    }

    /// Starts an incremental pricing session: kernels are priced one at a
    /// time as a runtime produces them, without materializing a whole-run
    /// trace first. [`TraceSession::finish`] attaches energy exactly as
    /// [`run_trace`](Self::run_trace) does — the two paths are guaranteed
    /// to price identically because `run_trace` is implemented on top of
    /// this session.
    pub fn begin_trace(&mut self) -> TraceSession<'_> {
        let report = SimReport::empty(
            self.config.peak_dram_bytes_per_s(),
            self.config.smem_bytes_per_s(),
        );
        TraceSession {
            device: self,
            report,
            crm_energy_frac_time: 0.0,
            profiler: None,
        }
    }

    /// Simulates a whole trace (kernels execute back-to-back) and returns
    /// the aggregate report with energy attached.
    pub fn run_trace<'a>(&mut self, trace: impl IntoIterator<Item = &'a KernelDesc>) -> SimReport {
        let mut session = self.begin_trace();
        for desc in trace {
            session.price_kernel(desc);
        }
        session.finish()
    }
}

/// An in-progress incremental pricing run over one [`GpuDevice`].
///
/// Created by [`GpuDevice::begin_trace`]. Each
/// [`price_kernel`](Self::price_kernel) call advances the device's
/// L2/reload state and folds the kernel into the running [`SimReport`];
/// [`finish`](Self::finish) attaches the energy model (including the CRM
/// power overhead, which needs the whole-run time split and therefore
/// cannot be charged per kernel).
#[derive(Debug)]
pub struct TraceSession<'d> {
    device: &'d mut GpuDevice,
    report: SimReport,
    crm_energy_frac_time: f64,
    profiler: Option<Profiler>,
}

impl TraceSession<'_> {
    /// Prices one kernel launch and folds it into the running aggregate.
    ///
    /// The returned report's `label` is populated only while a profiler
    /// is attached (it exists for span display); pricing and aggregation
    /// never read it, and skipping the copy keeps steady-state pricing
    /// allocation-free.
    pub fn price_kernel(&mut self, desc: &KernelDesc) -> KernelReport {
        let label = if self.profiler.is_some() {
            desc.label.clone()
        } else {
            String::new()
        };
        let k = self.device.launch_labeled(desc, label);
        if desc.uses_crm {
            self.crm_energy_frac_time += k.time_s;
        }
        self.report.absorb(&k);
        if let Some(profiler) = &mut self.profiler {
            profiler.record(&k);
        }
        k
    }

    /// Attaches a [`Profiler`] to the session: every subsequent
    /// [`price_kernel`](Self::price_kernel) also records a span. Profiling
    /// is observation-only — it never changes pricing or cache state.
    pub fn enable_profiling(&mut self) {
        if self.profiler.is_none() {
            self.profiler = Some(Profiler::new());
        }
    }

    /// Sets the span tag applied to subsequently priced kernels (no-op
    /// when profiling is disabled).
    pub fn set_span_tag(&mut self, tag: SpanTag) {
        if let Some(profiler) = &mut self.profiler {
            profiler.set_tag(tag);
        }
    }

    /// Stamps a device name onto subsequently recorded spans (no-op when
    /// profiling is disabled; call after
    /// [`enable_profiling`](Self::enable_profiling)).
    pub fn set_device_tag(&mut self, device: &'static str) {
        if let Some(profiler) = &mut self.profiler {
            profiler.set_device(device);
        }
    }

    /// The attached profiler, if profiling is enabled.
    pub fn profiler(&self) -> Option<&Profiler> {
        self.profiler.as_ref()
    }

    /// Detaches and returns the profiler (call before
    /// [`finish`](Self::finish), which consumes the session).
    pub fn take_profiler(&mut self) -> Option<Profiler> {
        self.profiler.take()
    }

    /// The aggregate so far (energy not yet attached).
    pub fn report_so_far(&self) -> &SimReport {
        &self.report
    }

    /// The device being driven (e.g. to declare regions mid-stream).
    pub fn device(&mut self) -> &mut GpuDevice {
        self.device
    }

    /// Completes the session: attaches energy and the CRM power overhead.
    pub fn finish(self) -> SimReport {
        let mut report = self.report;
        report.energy = self.device.config.energy.energy(
            report.time_s,
            report.flops,
            report.dram_bytes(),
            report.smem_bytes,
            report.launches,
        );
        // CRM power overhead applies while CRM-routed kernels run.
        if self.crm_energy_frac_time > 0.0 && report.time_s > 0.0 {
            let dynamic = report.energy.compute_j + report.energy.dram_j + report.energy.smem_j;
            let frac = self.crm_energy_frac_time / report.time_s;
            report.energy.compute_j += dynamic * frac * self.device.crm.energy_overhead_frac();
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelKind;

    #[test]
    fn incremental_session_matches_run_trace_exactly() {
        let h = 384;
        let u = RegionId::new(1);
        let mut trace: Vec<KernelDesc> = (0..12).map(|_| sgemv_cell(u, h)).collect();
        trace[5].uses_crm = true;
        trace[5].skipped_threads = 200;

        let mut batch_dev = GpuDevice::new(GpuConfig::tegra_x1());
        batch_dev.declare_region(u, 4 * h * h * 4);
        let batch = batch_dev.run_trace(&trace);

        let mut inc_dev = GpuDevice::new(GpuConfig::tegra_x1());
        inc_dev.declare_region(u, 4 * h * h * 4);
        let mut session = inc_dev.begin_trace();
        for k in &trace {
            session.price_kernel(k);
        }
        let incremental = session.finish();

        assert_eq!(batch, incremental);
        assert_eq!(batch_dev.max_reload_factor(), inc_dev.max_reload_factor());
    }

    #[test]
    fn session_report_so_far_tracks_partial_progress() {
        let mut dev = GpuDevice::new(GpuConfig::tegra_x1());
        let mut session = dev.begin_trace();
        assert_eq!(session.report_so_far().launches, 0);
        session.price_kernel(&sgemv_cell(RegionId::new(1), 128));
        assert_eq!(session.report_so_far().launches, 1);
        assert!(session.report_so_far().time_s > 0.0);
        // Energy is only attached at finish.
        assert_eq!(session.report_so_far().energy.total_j(), 0.0);
        assert!(session.finish().energy.total_j() > 0.0);
    }

    fn sgemv_cell(weights: RegionId, h: u64) -> KernelDesc {
        let bytes = 4 * h * h * 4;
        KernelDesc::builder("Sgemv(U,h)", KernelKind::Sgemv)
            .flops(2 * 4 * h * h)
            .read(weights, bytes)
            .read(RegionId::new(1000), h * 4)
            .write(RegionId::new(1001), 4 * h * 4)
            .smem(bytes / 4)
            .threads(4 * h, 256)
            .build()
    }

    #[test]
    fn repeated_sgemv_reloads_weights_every_cell() {
        // The inter-cell bottleneck: the 4 MB united matrix never survives
        // in a 256 KB L2, so every cell's Sgemv misses on all of it.
        let mut dev = GpuDevice::new(GpuConfig::tegra_x1());
        let u = RegionId::new(1);
        let h = 512;
        dev.declare_region(u, 4 * h * h * 4);
        let trace: Vec<_> = (0..20).map(|_| sgemv_cell(u, h)).collect();
        let report = dev.run_trace(&trace);
        assert_eq!(report.launches, 20);
        // All 20 cells load the matrix from DRAM.
        let expected = 20 * 4 * h * h * 4;
        assert!(
            report.dram_read_bytes >= expected,
            "{}",
            report.dram_read_bytes
        );
        assert!(dev.max_reload_factor() >= 19.9);
    }

    #[test]
    fn small_weights_are_cached_across_cells() {
        let mut dev = GpuDevice::new(GpuConfig::tegra_x1());
        let u = RegionId::new(1);
        let h = 64; // 64 KB united matrix fits in 256 KB L2
        let trace: Vec<_> = (0..10).map(|_| sgemv_cell(u, h)).collect();
        let report = dev.run_trace(&trace);
        // Only the first access misses.
        let matrix = 4 * h * h * 4;
        assert!(report.dram_read_bytes < 2 * matrix + 10 * h * 4 * 10);
        assert!(report.l2_hit_bytes >= 9 * matrix);
    }

    #[test]
    fn reset_clears_cache() {
        let mut dev = GpuDevice::new(GpuConfig::tegra_x1());
        let u = RegionId::new(1);
        let k = sgemv_cell(u, 64);
        dev.launch(&k);
        dev.reset();
        let after = dev.launch(&k);
        assert_eq!(after.l2_hit_bytes, 0, "cache must be cold after reset");
    }

    #[test]
    fn trace_energy_is_positive_and_consistent() {
        let mut dev = GpuDevice::new(GpuConfig::tegra_x1());
        let trace = vec![sgemv_cell(RegionId::new(1), 256)];
        let report = dev.run_trace(&trace);
        assert!(report.energy.total_j() > 0.0);
        assert!(report.energy.static_j > 0.0);
        assert!(report.energy.dram_j > 0.0);
    }

    #[test]
    fn crm_kernel_pays_reorg_latency_and_energy() {
        let mut dev = GpuDevice::new(GpuConfig::tegra_x1());
        let h = 256u64;
        let base = sgemv_cell(RegionId::new(1), h);
        let mut crm_kernel = base.clone();
        crm_kernel.uses_crm = true;
        crm_kernel.skipped_threads = 300;
        let plain = dev.launch(&base);
        dev.reset();
        let routed = dev.launch(&crm_kernel);
        assert!(routed.crm_s > 0.0);
        assert!(routed.time_s > plain.time_s);
        // But only barely: the CRM is light-weight.
        assert!(routed.time_s < plain.time_s * 1.05);
    }

    #[test]
    fn sgemv_dominated_trace_matches_paper_premise() {
        // Algorithm 1's per-cell Sgemv must dominate execution (paper:
        // over 90% of LSTM execution time).
        let mut dev = GpuDevice::new(GpuConfig::tegra_x1());
        let h = 512u64;
        let mut trace = Vec::new();
        // One per-layer Sgemm over all 80 cells' inputs.
        trace.push(
            KernelDesc::builder("Sgemm(W,x)", KernelKind::Sgemm)
                .flops(2 * 4 * h * h * 80)
                .read(RegionId::new(2), 4 * h * h * 4)
                .read(RegionId::new(3), 80 * h * 4)
                .write(RegionId::new(4), 80 * 4 * h * 4)
                .smem(4 * h * h * 4)
                .threads(4 * h * 80, 256)
                .build(),
        );
        for _ in 0..80 {
            trace.push(sgemv_cell(RegionId::new(1), h));
            trace.push(
                KernelDesc::builder("lstm_ew", KernelKind::ElementWise)
                    .flops(10 * h)
                    .read(RegionId::new(1002), 6 * h * 4)
                    .write(RegionId::new(1003), 2 * h * 4)
                    .threads(h, 128)
                    .build(),
            );
        }
        let report = dev.run_trace(&trace);
        assert!(
            report.time_share_of(KernelKind::Sgemv) > 0.9,
            "Sgemv share = {}",
            report.time_share_of(KernelKind::Sgemv)
        );
        // Fig. 6: off-chip nearly saturated during Sgemv, on-chip light.
        assert!(report.dram_utilization_of(KernelKind::Sgemv) > 0.7);
        assert!(report.smem_utilization_of(KernelKind::Sgemv) < 0.4);
    }
}
