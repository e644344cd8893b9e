//! Simulation reports: per-kernel and aggregated.

use crate::energy::EnergyBreakdown;
use crate::kernel::KernelKind;
use std::collections::BTreeMap;

/// Which resource bound a kernel's execution time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BoundResource {
    /// ALU throughput.
    Compute,
    /// Off-chip (DRAM) bandwidth.
    OffChip,
    /// On-chip (shared-memory) bandwidth.
    OnChip,
}

/// Pipeline-stall attribution in seconds (the categories of Fig. 4).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StallBreakdown {
    /// Waiting on off-chip memory.
    pub off_chip_s: f64,
    /// Waiting on on-chip (shared-memory) bandwidth.
    pub on_chip_s: f64,
    /// Barrier synchronization.
    pub barrier_s: f64,
    /// Execution (register/issue) dependencies.
    pub exec_dep_s: f64,
    /// Everything else.
    pub other_s: f64,
}

impl StallBreakdown {
    /// Total stall time.
    pub fn total_s(&self) -> f64 {
        self.off_chip_s + self.on_chip_s + self.barrier_s + self.exec_dep_s + self.other_s
    }

    /// Adds another breakdown component-wise.
    pub fn accumulate(&mut self, other: &StallBreakdown) {
        self.off_chip_s += other.off_chip_s;
        self.on_chip_s += other.on_chip_s;
        self.barrier_s += other.barrier_s;
        self.exec_dep_s += other.exec_dep_s;
        self.other_s += other.other_s;
    }

    /// `(off_chip, on_chip, barrier, exec_dep, other)` as fractions of the
    /// total; all zeros when there are no stalls.
    pub fn fractions(&self) -> (f64, f64, f64, f64, f64) {
        let t = self.total_s();
        if t <= 0.0 {
            return (0.0, 0.0, 0.0, 0.0, 0.0);
        }
        (
            self.off_chip_s / t,
            self.on_chip_s / t,
            self.barrier_s / t,
            self.exec_dep_s / t,
            self.other_s / t,
        )
    }
}

/// Result of simulating one kernel launch.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelReport {
    /// Kernel label (from the descriptor).
    pub label: String,
    /// Kernel kind.
    pub kind: KernelKind,
    /// Total time including overheads, seconds.
    pub time_s: f64,
    /// Execution time (bound resource), seconds.
    pub exec_s: f64,
    /// Launch/barrier/CRM overhead, seconds.
    pub overhead_s: f64,
    /// Bytes read from DRAM (cache misses).
    pub dram_read_bytes: u64,
    /// Bytes written to DRAM.
    pub dram_write_bytes: u64,
    /// Bytes served by the L2.
    pub l2_hit_bytes: u64,
    /// On-chip traffic in bytes.
    pub smem_bytes: u64,
    /// FLOPs executed.
    pub flops: u64,
    /// Stall attribution.
    pub stall: StallBreakdown,
    /// Binding resource.
    pub bound: BoundResource,
    /// Whether the on-chip ceiling forced a re-configuration.
    pub reconfigured: bool,
    /// CRM reorganization latency charged (0 unless the kernel carries a
    /// skip list), seconds.
    pub crm_s: f64,
    /// Bound-resource component times `(compute, dram, smem)` in seconds,
    /// as computed by the timing model before taking the max.
    pub components_s: (f64, f64, f64),
    /// Logical gate launches fused into this one (from
    /// [`KernelDesc::fused`](crate::KernelDesc)); `1` for plain kernels.
    pub fused: u32,
}

/// Per-kernel-kind aggregate statistics.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct KindStats {
    /// Number of launches.
    pub count: u64,
    /// Total time, seconds.
    pub time_s: f64,
    /// DRAM traffic (read + write) in bytes.
    pub dram_bytes: u64,
    /// On-chip traffic in bytes.
    pub smem_bytes: u64,
    /// FLOPs.
    pub flops: u64,
}

/// Aggregated result of a simulated run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Total wall-clock time, seconds.
    pub time_s: f64,
    /// Number of kernel launches.
    pub launches: u64,
    /// Total FLOPs.
    pub flops: u64,
    /// Total DRAM reads (misses), bytes.
    pub dram_read_bytes: u64,
    /// Total DRAM writes, bytes.
    pub dram_write_bytes: u64,
    /// Total bytes served by the L2.
    pub l2_hit_bytes: u64,
    /// Total on-chip traffic, bytes.
    pub smem_bytes: u64,
    /// Aggregated stall attribution.
    pub stall: StallBreakdown,
    /// Total CRM reorganization latency charged, seconds.
    pub crm_s: f64,
    /// Energy breakdown.
    pub energy: EnergyBreakdown,
    /// Per-kind statistics.
    pub per_kind: BTreeMap<&'static str, KindStats>,
    /// Peak DRAM bandwidth of the simulated device (bytes/s), for
    /// utilization computations.
    pub peak_dram_bytes_per_s: f64,
    /// Aggregate on-chip bandwidth of the simulated device (bytes/s).
    pub peak_smem_bytes_per_s: f64,
}

impl SimReport {
    /// Creates an empty report for a device with the given peaks.
    pub fn empty(peak_dram_bytes_per_s: f64, peak_smem_bytes_per_s: f64) -> Self {
        Self {
            time_s: 0.0,
            launches: 0,
            flops: 0,
            dram_read_bytes: 0,
            dram_write_bytes: 0,
            l2_hit_bytes: 0,
            smem_bytes: 0,
            stall: StallBreakdown::default(),
            crm_s: 0.0,
            energy: EnergyBreakdown::default(),
            per_kind: BTreeMap::new(),
            peak_dram_bytes_per_s,
            peak_smem_bytes_per_s,
        }
    }

    /// Total DRAM traffic (reads + writes).
    pub fn dram_bytes(&self) -> u64 {
        self.dram_read_bytes + self.dram_write_bytes
    }

    /// Folds a kernel report into the aggregate.
    pub fn absorb(&mut self, k: &KernelReport) {
        self.time_s += k.time_s;
        self.launches += 1;
        self.flops += k.flops;
        self.dram_read_bytes += k.dram_read_bytes;
        self.dram_write_bytes += k.dram_write_bytes;
        self.l2_hit_bytes += k.l2_hit_bytes;
        self.smem_bytes += k.smem_bytes;
        self.stall.accumulate(&k.stall);
        self.crm_s += k.crm_s;
        let entry = self.per_kind.entry(k.kind.label()).or_default();
        entry.count += 1;
        entry.time_s += k.time_s;
        entry.dram_bytes += k.dram_read_bytes + k.dram_write_bytes;
        entry.smem_bytes += k.smem_bytes;
        entry.flops += k.flops;
    }

    /// Merges another aggregate report (e.g. per-layer reports).
    pub fn merge(&mut self, other: &SimReport) {
        self.time_s += other.time_s;
        self.launches += other.launches;
        self.flops += other.flops;
        self.dram_read_bytes += other.dram_read_bytes;
        self.dram_write_bytes += other.dram_write_bytes;
        self.l2_hit_bytes += other.l2_hit_bytes;
        self.smem_bytes += other.smem_bytes;
        self.stall.accumulate(&other.stall);
        self.crm_s += other.crm_s;
        self.energy.accumulate(&other.energy);
        for (kind, stats) in &other.per_kind {
            let entry = self.per_kind.entry(kind).or_default();
            entry.count += stats.count;
            entry.time_s += stats.time_s;
            entry.dram_bytes += stats.dram_bytes;
            entry.smem_bytes += stats.smem_bytes;
            entry.flops += stats.flops;
        }
    }

    /// Average on-chip bandwidth utilization over the whole run.
    pub fn smem_utilization(&self) -> f64 {
        if self.time_s <= 0.0 {
            return 0.0;
        }
        (self.smem_bytes as f64 / self.time_s / self.peak_smem_bytes_per_s).min(1.0)
    }

    /// Off-chip utilization measured only over kernels of `kind`
    /// (Fig. 6 reports it during `Sgemv` execution).
    pub fn dram_utilization_of(&self, kind: KernelKind) -> f64 {
        match self.per_kind.get(kind.label()) {
            Some(s) if s.time_s > 0.0 => {
                (s.dram_bytes as f64 / s.time_s / self.peak_dram_bytes_per_s).min(1.0)
            }
            _ => 0.0,
        }
    }

    /// On-chip utilization measured only over kernels of `kind`.
    pub fn smem_utilization_of(&self, kind: KernelKind) -> f64 {
        match self.per_kind.get(kind.label()) {
            Some(s) if s.time_s > 0.0 => {
                (s.smem_bytes as f64 / s.time_s / self.peak_smem_bytes_per_s).min(1.0)
            }
            _ => 0.0,
        }
    }

    /// Fraction of total time spent in kernels of `kind`.
    pub fn time_share_of(&self, kind: KernelKind) -> f64 {
        if self.time_s <= 0.0 {
            return 0.0;
        }
        self.per_kind
            .get(kind.label())
            .map_or(0.0, |s| s.time_s / self.time_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kernel(kind: KernelKind, time: f64, dram: u64) -> KernelReport {
        KernelReport {
            label: "k".to_owned(),
            kind,
            time_s: time,
            exec_s: time,
            overhead_s: 0.0,
            dram_read_bytes: dram,
            dram_write_bytes: 0,
            l2_hit_bytes: 0,
            smem_bytes: 100,
            flops: 10,
            stall: StallBreakdown {
                off_chip_s: time / 2.0,
                ..Default::default()
            },
            bound: BoundResource::OffChip,
            reconfigured: false,
            crm_s: 0.0,
            components_s: (0.0, time, 0.0),
            fused: 1,
        }
    }

    #[test]
    fn absorb_accumulates() {
        let mut r = SimReport::empty(1e9, 1e10);
        r.absorb(&kernel(KernelKind::Sgemv, 1.0, 500));
        r.absorb(&kernel(KernelKind::Sgemv, 2.0, 500));
        r.absorb(&kernel(KernelKind::ElementWise, 1.0, 0));
        assert_eq!(r.launches, 3);
        assert_eq!(r.time_s, 4.0);
        assert_eq!(r.dram_read_bytes, 1000);
        assert_eq!(r.per_kind["Sgemv"].count, 2);
        assert!((r.time_share_of(KernelKind::Sgemv) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn merge_combines_reports() {
        let mut a = SimReport::empty(1e9, 1e10);
        a.absorb(&kernel(KernelKind::Sgemv, 1.0, 100));
        let mut b = SimReport::empty(1e9, 1e10);
        b.absorb(&kernel(KernelKind::Sgemm, 3.0, 900));
        a.merge(&b);
        assert_eq!(a.launches, 2);
        assert_eq!(a.time_s, 4.0);
        assert_eq!(a.dram_read_bytes, 1000);
        assert_eq!(a.per_kind.len(), 2);
    }

    #[test]
    fn utilization_computation() {
        let mut r = SimReport::empty(1000.0, 10_000.0);
        r.absorb(&kernel(KernelKind::Sgemv, 1.0, 500));
        assert!((r.dram_utilization_of(KernelKind::Sgemv) - 0.5).abs() < 1e-12);
        assert_eq!(r.dram_utilization_of(KernelKind::Sgemm), 0.0);
        assert!((r.smem_utilization() - 0.01).abs() < 1e-12);
    }

    #[test]
    fn utilization_saturates_at_one() {
        let mut r = SimReport::empty(10.0, 10.0);
        r.absorb(&kernel(KernelKind::Sgemv, 1.0, 1_000_000));
        assert_eq!(r.dram_utilization_of(KernelKind::Sgemv), 1.0);
    }

    #[test]
    fn stall_fractions_sum_to_one() {
        let s = StallBreakdown {
            off_chip_s: 3.0,
            on_chip_s: 1.0,
            barrier_s: 0.5,
            exec_dep_s: 0.25,
            other_s: 0.25,
        };
        let (a, b, c, d, e) = s.fractions();
        assert!((a + b + c + d + e - 1.0).abs() < 1e-12);
        assert_eq!(
            StallBreakdown::default().fractions(),
            (0.0, 0.0, 0.0, 0.0, 0.0)
        );
    }

    #[test]
    fn empty_report_has_zero_utilization() {
        let r = SimReport::empty(1e9, 1e9);
        assert_eq!(r.dram_utilization_of(KernelKind::Sgemv), 0.0);
        assert_eq!(r.smem_utilization(), 0.0);
        assert_eq!(r.time_share_of(KernelKind::Sgemv), 0.0);
    }
}
