//! Dynamic Row Skip (paper Sec. V, Algorithm 3).
//!
//! The cell output `h_t = o_t · tanh(c_t)` is gated by `o_t`: where an
//! element of `o_t` is near zero, the corresponding element of `h_t` is
//! near zero *no matter what `c_t` holds* (Fig. 11). The rows of `U_f`,
//! `U_i`, `U_c` feeding those elements are therefore trivial and can be
//! skipped — at runtime, per cell, because `o_t` is latent. The reordered
//! flow computes `Sgemv(U_o, h_{t-1})` first, thresholds `o_t` against
//! `α_intra` to produce the skip list `R`, then runs the row-masked
//! `Sgemv(U_{f,i,c}, h_{t-1}, R)`.

use tensor::Vector;

/// How the row skipping is realized on the GPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DrsMode {
    /// Pure software: predicated threads. Pays warp divergence and
    /// scattered-row memory inefficiency; the paper measures only 1.07x
    /// speedup this way (Sec. VI-B2).
    Software,
    /// With the CTA-reorganization module (Fig. 12): disabled threads are
    /// compacted out of the warps, preserving warp efficiency at a small
    /// fixed hardware cost.
    #[default]
    Hardware,
}

/// Dynamic-Row-Skip configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DrsConfig {
    /// The near-zero threshold `α_intra`: rows whose `o_t` element is
    /// `< alpha_intra` are skipped. Zero disables skipping entirely.
    pub alpha_intra: f32,
    /// Software or hardware realization.
    pub mode: DrsMode,
}

impl DrsConfig {
    /// A disabled configuration (no rows skipped; hardware mode).
    pub fn disabled() -> Self {
        Self {
            alpha_intra: 0.0,
            mode: DrsMode::Hardware,
        }
    }

    /// Whether any skipping can occur.
    pub fn is_enabled(&self) -> bool {
        self.alpha_intra > 0.0
    }
}

impl Default for DrsConfig {
    fn default() -> Self {
        Self {
            alpha_intra: 0.1,
            mode: DrsMode::Hardware,
        }
    }
}

/// The `DRS(o_t, α_intra, R)` kernel body (Algorithm 3 line 6): writes
/// the *active* mask into a recycled buffer (cleared and refilled) —
/// `true` rows are kept, `false` rows are the trivial list `R`.
pub fn trivial_row_mask_into(o: &Vector, alpha_intra: f32, out: &mut Vec<bool>) {
    out.clear();
    out.extend(o.iter().map(|&v| v >= alpha_intra));
}

/// Fraction of rows skipped by a mask, in `[0, 1]`.
pub fn skip_fraction(active: &[bool]) -> f64 {
    if active.is_empty() {
        return 0.0;
    }
    active.iter().filter(|&&a| !a).count() as f64 / active.len() as f64
}

/// Column-wise union of per-cell masks into a recycled buffer (cleared
/// and refilled), as the masked-kernel pricing templates use it: a row
/// must be loaded by a tissue's batched `Sgemm(U_{f,i,c}, H_t, R)` if
/// *any* member cell keeps it. This is the traffic overlap between the
/// inter- and intra-cell optimizations the paper notes in Sec. VI-B3.
pub fn union_active_into(masks: &[Vec<bool>], out: &mut Vec<bool>) {
    out.clear();
    let Some(first) = masks.first() else {
        return;
    };
    out.resize(first.len(), false);
    for mask in masks {
        debug_assert_eq!(mask.len(), out.len(), "union_active: ragged masks");
        for (o, &m) in out.iter_mut().zip(mask) {
            *o |= m;
        }
    }
}

/// Execution-cost model of the masked `Sgemv`/`Sgemm` under each mode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SkipCost {
    /// Warp-divergence multiplier on compute time.
    pub divergence: f64,
    /// Effective-DRAM-bandwidth derate for the scattered surviving rows.
    pub dram_derate: f64,
    /// Whether the kernel routes through the CRM.
    pub uses_crm: bool,
}

/// Cost parameters for a masked kernel skipping `skip_frac` of its rows.
///
/// *Hardware*: the CRM compacts disabled threads out of the warps, so
/// divergence stays at 1; surviving rows are still contiguous KB-scale
/// blocks, leaving DRAM efficiency nearly intact.
///
/// *Software*: warps execute with idle lanes (divergence grows with the
/// skipped fraction) and the per-warp access pattern fragments, costing a
/// large share of streaming bandwidth — this is why the paper measures
/// only 1.07x from pure software DRS.
pub fn skip_cost(mode: DrsMode, skip_frac: f64) -> SkipCost {
    let s = skip_frac.clamp(0.0, 1.0);
    if s == 0.0 {
        return SkipCost {
            divergence: 1.0,
            dram_derate: 1.0,
            uses_crm: false,
        };
    }
    match mode {
        DrsMode::Hardware => SkipCost {
            divergence: 1.0,
            dram_derate: 1.0 - 0.08 * s,
            uses_crm: true,
        },
        DrsMode::Software => SkipCost {
            divergence: 1.0 + 1.5 * s,
            dram_derate: (1.0 - 0.95 * s).max(0.05),
            uses_crm: false,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_thresholds_output_gate() {
        let o = Vector::from(vec![0.001, 0.2, 0.09, 0.5]);
        let mut mask = Vec::new();
        trivial_row_mask_into(&o, 0.1, &mut mask);
        assert_eq!(mask, vec![false, true, false, true]);
        // Zero threshold keeps everything.
        trivial_row_mask_into(&o, 0.0, &mut mask);
        assert_eq!(mask, vec![true; 4]);
    }

    #[test]
    fn skip_fraction_counts_inactive() {
        assert_eq!(skip_fraction(&[true, false, false, true]), 0.5);
        assert_eq!(skip_fraction(&[]), 0.0);
        assert_eq!(skip_fraction(&[true]), 0.0);
        assert_eq!(skip_fraction(&[false]), 1.0);
    }

    #[test]
    fn union_keeps_row_needed_by_any_cell() {
        let a = vec![true, false, false];
        let b = vec![false, false, true];
        let mut union = vec![true; 5];
        union_active_into(&[a, b], &mut union);
        assert_eq!(union, vec![true, false, true]);
        union_active_into(&[], &mut union);
        assert!(union.is_empty());
    }

    #[test]
    fn hardware_mode_preserves_warp_efficiency() {
        let hw = skip_cost(DrsMode::Hardware, 0.5);
        assert_eq!(hw.divergence, 1.0);
        assert!(hw.uses_crm);
        assert!(hw.dram_derate > 0.9);
    }

    #[test]
    fn software_mode_pays_divergence_and_scatter() {
        let sw = skip_cost(DrsMode::Software, 0.5);
        assert!(sw.divergence > 1.5);
        assert!(!sw.uses_crm);
        assert!(sw.dram_derate < 0.8);
    }

    #[test]
    fn no_skip_costs_nothing() {
        for mode in [DrsMode::Software, DrsMode::Hardware] {
            let cost = skip_cost(mode, 0.0);
            assert_eq!(cost.divergence, 1.0);
            assert_eq!(cost.dram_derate, 1.0);
            assert!(!cost.uses_crm);
        }
    }

    #[test]
    fn config_enablement() {
        assert!(!DrsConfig::disabled().is_enabled());
        assert!(DrsConfig::default().is_enabled());
    }
}
