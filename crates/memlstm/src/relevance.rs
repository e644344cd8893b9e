//! Algorithm 2: quantifying the context link between adjacent cells.
//!
//! With `h_{t-1}` bounded in `[-1, 1]` (paper Sec. IV-A), the recurrent
//! contribution of row `j` of a gate's `U` matrix lies in `[-D_j, D_j]`
//! where `D_j` is the row's L1 norm (Algorithm 2 line 2). Adding the
//! already-known `W·x_t + b` term centers that interval. Per-gate scores
//! then follow the paper's line 4–5 formulas:
//!
//! * **Forget gate (line 4)** — `S_f = min(4, max(X' + b + D + 2, 0))`:
//!   a hard-sigmoid of the *upper* end of the pre-activation range, i.e. a
//!   proxy for the largest forget-gate value the cell can reach. This is a
//!   *path-strength* term: the previous cell's state `c_{t-1}` flows
//!   through Eq. 3 gated by `f_t`, so a forget gate that saturates low
//!   kills the state chain (link breakable) while a forget gate that can
//!   open keeps the chain alive no matter how insensitive the gates are to
//!   `h_{t-1}`.
//! * **Input/candidate gates (line 5)** — the penetration depth of the
//!   range into the sensitive area, `min(2, 2 + D - max(2, |X' + b|))`
//!   clamped non-negative: a *sensitivity* term for the input path.
//! * **Output gate** — scored like the forget gate (path strength): `o_t`
//!   multiplies everything in Eq. 5, so an output gate that saturates low
//!   silences the unit entirely (this is also what Dynamic Row Skip
//!   exploits), while one that can open passes the state chain onward.
//!   (The paper's line 5 lumps `o` with `i, c`; scoring it as a strength
//!   term keeps the metric consistent with the actual dataflow — a unit
//!   with a *wide-open but insensitive* output gate still transmits
//!   `tanh(c_t)`, so its link is not breakable. See DESIGN.md §4.)
//!
//! Line 6 combines them through the cell's dataflow —
//! `S_j = S_o · (S_f + S_i · S_c)` — and line 7 sums over the hidden
//! units.
//! The `W·x_t` terms are read as the layer's batched product writes
//! them: one gate-major `f, i, c, o` column of `4H` values per cell.

use lstm::cell::{CellWeights, GateVectors};

/// Precomputed per-layer state for relevance evaluation.
///
/// Construction is done once per layer (the `D` row bounds and biases are
/// static); each link's relevance then needs only that cell's `W·x_t`
/// vector, which the per-layer `Sgemm` has already produced — exactly the
/// data availability Algorithm 2 assumes.
#[derive(Debug, Clone, PartialEq)]
pub struct RelevanceAnalyzer {
    /// Per-gate `D` vectors (row L1 norms of `U_f`, `U_i`, `U_c`, `U_o`).
    d: GateVectors,
    /// Per-gate biases.
    b: GateVectors,
    hidden: usize,
}

impl RelevanceAnalyzer {
    /// Builds the analyzer for one layer's weights (Algorithm 2 line 2).
    pub fn new(weights: &CellWeights) -> Self {
        Self {
            d: GateVectors {
                f: weights.u.f.row_abs_sums(),
                i: weights.u.i.row_abs_sums(),
                c: weights.u.c.row_abs_sums(),
                o: weights.u.o.row_abs_sums(),
            },
            b: weights.b.clone(),
            hidden: weights.hidden(),
        }
    }

    /// Hidden width of the analyzed layer.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Relevance `S` of the context link *into* the cell whose gate-major
    /// `W_{f,i,c,o}·x_t` pre-activations are `wx` (one column of
    /// [`CellWeights::precompute_wx_batch_into`]), normalized per hidden
    /// unit so thresholds are comparable across hidden sizes.
    ///
    /// `S = 0` means the link can be broken with no numerical effect: the
    /// previous cell's state cannot reach this cell's output.
    pub fn link_relevance(&self, wx: &[f32]) -> f64 {
        let n = self.hidden;
        let [wf, wi, wc, wo] = [0, 1, 2, 3].map(|g| &wx[g * n..(g + 1) * n]);
        let mut s = 0.0f64;
        for j in 0..n {
            let sf = path_strength(wf[j], self.b.f[j], self.d.f[j]);
            let si = gate_sensitivity(wi[j], self.b.i[j], self.d.i[j]);
            let sc = gate_sensitivity(wc[j], self.b.c[j], self.d.c[j]);
            let so = path_strength(wo[j], self.b.o[j], self.d.o[j]);
            // Line 6: the output path gates the sum of the state path and
            // the input path.
            s += f64::from(so * (sf + si * sc));
        }
        s / self.hidden as f64
    }

    /// Relevance of every link in a layer given all cells' `W·x_t` terms,
    /// one gate-major column of `4 * hidden` values per cell.
    ///
    /// Element `t` is the relevance of the link from cell `t-1` into cell
    /// `t`; element 0 is `f64::INFINITY` because cell 0 has no incoming
    /// context link to break (its state is the layer's initial state).
    pub fn layer_relevances(&self, wx: &[f32]) -> Vec<f64> {
        wx.chunks_exact(4 * self.hidden)
            .enumerate()
            .map(|(t, pre)| {
                if t == 0 {
                    f64::INFINITY
                } else {
                    self.link_relevance(pre)
                }
            })
            .collect()
    }

    /// Upper bound on the per-unit relevance value given the combination
    /// formula: `S_o <= 4`, `S_f <= 4`, `S_i·S_c <= 4`, so `S_j <= 32`.
    pub fn max_relevance() -> f64 {
        32.0
    }
}

/// Line 4 (and the output-gate analogue): `min(4, max(X' + b + D + 2, 0))`
/// — four times the hard sigmoid of the pre-activation range's upper end,
/// i.e. a proxy for the gate's maximum attainable value.
fn path_strength(x: f32, b: f32, d: f32) -> f32 {
    (x + b + d + 2.0).clamp(0.0, 4.0)
}

/// Line 5: penetration depth of the range `[X'+b-D, X'+b+D]` into the
/// sensitive area, `min(2+min(2,|X'+b|), min(2, 2 + D - max(2, |X'+b|)))`
/// floored at zero. The first operand is always `>= 2`, so the sensitivity
/// reduces to the clamped second operand.
fn gate_sensitivity(x: f32, b: f32, d: f32) -> f32 {
    let center = (x + b).abs();
    let first = 2.0 + center.min(2.0);
    let second = 2.0 + d - center.max(2.0);
    first.min(second).clamp(0.0, 2.0)
}

/// FLOPs of the relevance computation per link (used to price the
/// breakpoint-search kernel): four score evaluations plus the combine,
/// ~12 operations per hidden unit.
pub fn relevance_flops(hidden: usize) -> u64 {
    12 * hidden as u64
}

/// Collects relevance values for statistics: returns `(min, median, max)`
/// of the finite link relevances.
///
/// # Panics
/// Panics if `relevances` contains no finite values.
pub fn relevance_spread(relevances: &[f64]) -> (f64, f64, f64) {
    let mut finite: Vec<f64> = relevances
        .iter()
        .copied()
        .filter(|r| r.is_finite())
        .collect();
    assert!(!finite.is_empty(), "relevance_spread: no finite relevances");
    finite.sort_by(f64::total_cmp);
    (
        finite[0],
        finite[finite.len() / 2],
        finite[finite.len() - 1],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use lstm::cell::{GateMatrices, GateVectors as GV};
    use tensor::{Matrix, Vector as V};

    /// A cell whose U matrices have constant row L1 norm `d` and biases 0.
    fn uniform_cell(hidden: usize, d: f32) -> CellWeights {
        let u = Matrix::from_fn(hidden, hidden, |_, _| d / hidden as f32);
        let w = Matrix::zeros(hidden, 2);
        CellWeights::from_parts(
            GateMatrices {
                f: w.clone(),
                i: w.clone(),
                c: w.clone(),
                o: w,
            },
            GateMatrices {
                f: u.clone(),
                i: u.clone(),
                c: u.clone(),
                o: u,
            },
            GV {
                f: V::zeros(hidden),
                i: V::zeros(hidden),
                c: V::zeros(hidden),
                o: V::zeros(hidden),
            },
        )
    }

    fn preacts(hidden: usize, value: f32) -> Vec<f32> {
        preacts_fico(hidden, value, value, value, value)
    }

    /// Gate-major pre-activations with distinct per-gate values.
    fn preacts_fico(hidden: usize, f: f32, i: f32, c: f32, o: f32) -> Vec<f32> {
        [f, i, c, o]
            .iter()
            .flat_map(|&v| std::iter::repeat_n(v, hidden))
            .collect()
    }

    #[test]
    fn dead_output_gate_makes_link_irrelevant() {
        // o pre-activation <= -(2 + D): the unit's output is silenced, so
        // nothing of the previous state can pass.
        let cell = uniform_cell(8, 1.0);
        let analyzer = RelevanceAnalyzer::new(&cell);
        let wx = preacts_fico(8, 0.0, 0.0, 0.0, -10.0);
        assert_eq!(analyzer.link_relevance(&wx), 0.0);
    }

    #[test]
    fn dead_forget_and_saturated_input_path_make_link_irrelevant() {
        // f saturates low (state chain cut) and i/c saturate (input path
        // insensitive to h): the link carries nothing.
        let cell = uniform_cell(8, 1.0);
        let analyzer = RelevanceAnalyzer::new(&cell);
        let wx = preacts_fico(8, -10.0, 10.0, 10.0, 0.0);
        assert_eq!(analyzer.link_relevance(&wx), 0.0);
    }

    #[test]
    fn open_forget_gate_keeps_link_relevant_even_with_saturated_gates() {
        // The c-state chain: f can open (pre-act high), so c_{t-1} flows
        // into c_t regardless of gate sensitivity -> high relevance.
        let cell = uniform_cell(8, 1.0);
        let analyzer = RelevanceAnalyzer::new(&cell);
        let wx = preacts_fico(8, 10.0, 10.0, 10.0, 1.0);
        let s = analyzer.link_relevance(&wx);
        assert!(s > 8.0, "state-chain link must score high, got {s}");
    }

    #[test]
    fn centered_preactivations_are_fully_relevant() {
        // Wx = 0, D = 1: f strength = 3, i/c sensitivity = 1, o strength
        // = 3 -> S_j = 3 * (3 + 1) = 12.
        let cell = uniform_cell(8, 1.0);
        let analyzer = RelevanceAnalyzer::new(&cell);
        let s = analyzer.link_relevance(&preacts(8, 0.0));
        assert!((s - 12.0).abs() < 1e-5, "S = {s}");
    }

    #[test]
    fn relevance_decreases_as_cell_shuts_down() {
        // Driving f and o pre-activations down monotonically weakens the
        // link.
        let cell = uniform_cell(8, 1.0);
        let analyzer = RelevanceAnalyzer::new(&cell);
        let mut prev = f64::INFINITY;
        for x in [0.0f32, -1.0, -2.0, -3.0, -4.0] {
            let s = analyzer.link_relevance(&preacts(8, x));
            assert!(s <= prev, "relevance must not increase as gates close");
            prev = s;
        }
    }

    #[test]
    fn wider_d_means_more_relevance() {
        // A heavier U row widens both the strength and sensitivity terms.
        let light = RelevanceAnalyzer::new(&uniform_cell(8, 0.5));
        let heavy = RelevanceAnalyzer::new(&uniform_cell(8, 3.0));
        let wx = preacts(8, -2.4);
        assert!(heavy.link_relevance(&wx) > light.link_relevance(&wx));
    }

    #[test]
    fn layer_relevances_marks_first_cell_unbreakable() {
        let cell = uniform_cell(4, 1.0);
        let analyzer = RelevanceAnalyzer::new(&cell);
        let wx = [
            preacts(4, 0.0),
            preacts_fico(4, -9.0, 9.0, 9.0, -9.0),
            preacts(4, 0.0),
        ]
        .concat();
        let rel = analyzer.layer_relevances(&wx);
        assert_eq!(rel.len(), 3);
        assert!(rel[0].is_infinite());
        assert_eq!(rel[1], 0.0);
        assert!(rel[2] > 0.0);
    }

    #[test]
    fn relevance_is_bounded() {
        let cell = uniform_cell(16, 100.0);
        let analyzer = RelevanceAnalyzer::new(&cell);
        let s = analyzer.link_relevance(&preacts(16, 0.0));
        assert!(s <= RelevanceAnalyzer::max_relevance());
    }

    #[test]
    fn line4_formula_is_hard_sigmoid_of_upper_bound() {
        assert_eq!(path_strength(0.0, 0.0, 0.0), 2.0);
        assert_eq!(path_strength(-3.0, 0.0, 1.0), 0.0);
        assert_eq!(path_strength(5.0, 0.0, 0.0), 4.0);
        assert_eq!(path_strength(0.0, 1.0, 0.5), 3.5);
    }

    #[test]
    fn line5_formula_is_penetration_depth() {
        // Centered range with D = 1 penetrates 1 into the sensitive area.
        assert_eq!(gate_sensitivity(0.0, 0.0, 1.0), 1.0);
        // Far outside and narrow: zero.
        assert_eq!(gate_sensitivity(10.0, 0.0, 1.0), 0.0);
        // Deep range is capped at 2.
        assert_eq!(gate_sensitivity(0.0, 0.0, 100.0), 2.0);
        // Just at the boundary with D = 1: full depth 1.
        assert_eq!(gate_sensitivity(2.0, 0.0, 1.0), 1.0);
        // Symmetric in the center's sign.
        assert_eq!(
            gate_sensitivity(-3.0, 0.0, 2.0),
            gate_sensitivity(3.0, 0.0, 2.0)
        );
    }

    #[test]
    fn spread_reports_min_median_max() {
        let (lo, med, hi) = relevance_spread(&[f64::INFINITY, 3.0, 1.0, 2.0]);
        assert_eq!((lo, med, hi), (1.0, 2.0, 3.0));
    }

    #[test]
    #[should_panic(expected = "no finite relevances")]
    fn spread_panics_on_all_infinite() {
        relevance_spread(&[f64::INFINITY]);
    }

    #[test]
    fn flops_scale_with_hidden() {
        assert_eq!(relevance_flops(100), 1200);
    }
}
