//! The gate activation functions of Eqs. 1–5 and the elementwise passes
//! of the LSTM and GRU cells that apply them.
//!
//! Both activations are effectively flat (insensitive to their input)
//! outside the *sensitive area* `[-2, 2]` of paper Fig. 7;
//! `memlstm::relevance` measures how much of a pre-activation's possible
//! range overlaps it.
//!
//! # The activation contract
//!
//! * **Definition.** `exp(x)` and [`tanh`]`(x)` are evaluated in `f64`
//!   and rounded once to `f32`; [`sigmoid`] is the `f32` formula
//!   `1 / (1 + e)` on `e = exp(-x)`.
//! * **Accuracy.** Before that rounding the `f64` value is within a few
//!   `f64` ulps of the exact one, so the `f32` result equals
//!   `(x as f64).exp() as f32` and `(x as f64).tanh() as f32` on every
//!   `f32` input, NaN and the infinities included, except on the few
//!   inputs whose exact value lies that close to a rounding boundary of
//!   `f32`. The tests list those in one hard-case table, found by
//!   comparing all 2^32 inputs in both builds.
//! * **Independence from libm.** The evaluation is a Cody–Waite range
//!   reduction `x = k·ln 2 + r` and a degree-13 Taylor polynomial of
//!   `e^r - 1`, from `+`, `-`, `*` and `/` alone. `k` is rounded by
//!   adding and subtracting `1.5·2^52`, and `2^k` is built from its
//!   exponent bits, so no libm call (`round`, `exp`, `tanh`) remains and
//!   the results do not depend on the host's math library.
//! * **One definition, two builds.** The scalar [`sigmoid`] and [`tanh`]
//!   and every slice kernel here inline the same per-lane code. Each
//!   slice kernel is a `simd_kernel!` body, compiled portably and with
//!   AVX, never FMA. The builds run the same IEEE operations on each lane
//!   in the same order, so they are bit-identical by construction, and
//!   an active row's value does not depend on its neighbours.
//!
//! The slice kernels take a cell's pre-activations as [`GateRows`]: the
//! `W·x` terms, the `U·h` products and the biases, summed per row in
//! that order. [`sigmoid_gate_into`] computes one sigmoid gate (the
//! LSTM's `o_t`, the GRU's `z_t`), [`lstm_state_into`] the LSTM's
//! `c_t` and `h_t`, and [`gru_reset_into`] and [`gru_blend_into`] the
//! GRU's `r ⊙ h` and `h_t`. [`exp_into`] and [`tanh_into`] apply the
//! bare activations.

use crate::packed::simd_kernel;

/// `1.5 · 2^52`. Adding it to an `f64` of magnitude below `2^51` rounds
/// that value to an integer (ties to even) held in the low mantissa
/// bits; subtracting it again leaves the integer as an `f64`.
const ROUND_SHIFT: f64 = 6_755_399_441_055_744.0;

/// `ln 2` split in two: the high part has 32 significant bits, so
/// `k * LN2_HI` is exact for `|k| < 2^21`, and the low part carries the
/// rest.
const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000);
const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76);

/// The exponent bias of `f64`, in place.
const EXPONENT_BIAS: u64 = 1023 << 52;

/// The sign bit of `f64`.
const SIGN: u64 = 1 << 63;

/// `exp`'s input clamp. Below `-104` the exact result is under half the
/// least `f32` subnormal, so it rounds to `0`; above `89` it exceeds the
/// largest `f32`, so it rounds to infinity.
const EXP_LO: f64 = -104.0;
const EXP_HI: f64 = 89.0;

/// `tanh`'s clamp on `|x|`. Above about `9.01` the exact result rounds to
/// `±1` in `f32`.
const TANH_SAT: f64 = 16.0;

/// `1, 1/2!, 1/3!, …, 1/13!`: the Taylor coefficients of
/// `(e^r - 1) / r`, `c[k]` on `r^k`. On `|r| ≤ ln 2 / 2` the truncated
/// term is below `2^-56` of the result.
const EXPM1_TAYLOR: [f64; 13] = {
    let (mut c, mut factorial, mut n) = ([0.0f64; 13], 1.0f64, 1);
    while n <= 13 {
        // `n!` is exact in `f64`, so each coefficient is rounded once.
        factorial *= n as f64;
        c[n - 1] = 1.0 / factorial;
        n += 1;
    }
    c
};

/// `(2^k, e^r - 1)` for `x = k·ln 2 + r` with `k` the integer nearest
/// `x / ln 2`, for `|x| ≤ 150`.
#[inline(always)]
fn reduce(x: f64) -> (f64, f64) {
    let shifted = x * std::f64::consts::LOG2_E + ROUND_SHIFT;
    let k = shifted - ROUND_SHIFT;
    // `k * LN2_HI` and the first difference are exact.
    let r = (x - k * LN2_HI) - k * LN2_LO;
    // Estrin's scheme: a dependency chain four multiply-adds deep
    // instead of Horner's twelve.
    let c = &EXPM1_TAYLOR;
    let (r2, r4) = (r * r, (r * r) * (r * r));
    let q0 = (c[0] + c[1] * r) + (c[2] + c[3] * r) * r2;
    let q1 = (c[4] + c[5] * r) + (c[6] + c[7] * r) * r2;
    let q2 = (c[8] + c[9] * r) + (c[10] + c[11] * r) * r2;
    let q = (q0 + q1 * r4) + (q2 + c[12] * r4) * (r4 * r4);
    // `shifted`'s low twelve bits are `k` modulo 4096; moved to the
    // exponent field and biased, they are `2^k` for `|k| < 1023`.
    let scale = f64::from_bits((shifted.to_bits() << 52).wrapping_add(EXPONENT_BIAS));
    (scale, q * r)
}

/// `e^x` of one lane: the contract's definition.
#[inline(always)]
fn exp_lane(x: f32) -> f32 {
    let xd = f64::from(x);
    // NaN passes the clamp; its lane is replaced at the end.
    let (scale, p) = reduce(xd.clamp(EXP_LO, EXP_HI));
    quiet_nan_or(x, ((1.0 + p) * scale) as f32)
}

/// `tanh x` of one lane: `t / (t + 2)` with `t = e^{2|x|} - 1`, signed
/// like `x`.
#[inline(always)]
fn tanh_lane(x: f32) -> f32 {
    let xd = f64::from(x);
    let a = xd.abs();
    let a = if a > TANH_SAT { TANH_SAT } else { a };
    let (scale, p) = reduce(2.0 * a);
    // `2^k (1 + p) - 1`, exact `p` when `k = 0`.
    let t = scale * p + (scale - 1.0);
    let t = t / (t + 2.0);
    // `t ≥ 0`, so setting the sign bit copies `x`'s sign (`-0` included).
    let t = f64::from_bits(t.to_bits() | (xd.to_bits() & SIGN));
    quiet_nan_or(x, t as f32)
}

/// `x` quieted if it is a NaN (payload and sign kept, as the `f64`
/// references return it), else `value`.
#[inline(always)]
fn quiet_nan_or(x: f32, value: f32) -> f32 {
    if x.is_nan() {
        x + x
    } else {
        value
    }
}

/// `σ(x)` of one lane.
#[inline(always)]
fn sigmoid_lane(x: f32) -> f32 {
    1.0 / (1.0 + exp_lane(-x))
}

/// Logistic sigmoid `1 / (1 + e^-x)`, with `e^-x` rounded to `f32` as the
/// module docs define it.
///
/// # Example
/// ```
/// assert_eq!(tensor::sigmoid(0.0), 0.5);
/// ```
pub fn sigmoid(x: f32) -> f32 {
    sigmoid_lane(x)
}

/// Hyperbolic tangent, as the module docs define it.
pub fn tanh(x: f32) -> f32 {
    tanh_lane(x)
}

/// The pre-activations of `G` gates over one cell's rows, as three
/// addends per gate: gate `g`'s row `j` is
/// `(wx[g][j] + uh[g][j]) + b[g][j]`. Every slice must hold at least the
/// kernel's row count.
#[derive(Clone, Copy, Debug)]
pub struct GateRows<'a, const G: usize> {
    /// The `W·x` terms.
    pub wx: [&'a [f32]; G],
    /// The `U·h` products.
    pub uh: [&'a [f32]; G],
    /// The biases.
    pub b: [&'a [f32]; G],
}

impl<'a, const G: usize> GateRows<'a, G> {
    /// Gates `gates`' rows of the gate-major `wx` and `uh` slabs (gate `g`
    /// at `slab[g * rows ..]`, the layout every
    /// [`FusedGates`](crate::FusedGates) product writes), with biases `b`.
    ///
    /// # Panics
    /// Panics if a slab is too short to hold a listed gate.
    pub fn sections(
        gates: [usize; G],
        rows: usize,
        wx: &'a [f32],
        uh: &'a [f32],
        b: [&'a [f32]; G],
    ) -> Self {
        let section = |slab: &'a [f32], g: usize| &slab[g * rows..(g + 1) * rows];
        Self {
            wx: gates.map(|g| section(wx, g)),
            uh: gates.map(|g| section(uh, g)),
            b,
        }
    }

    /// Every slice cut to its first `n` rows, so the kernels index them
    /// without bounds checks.
    ///
    /// # Panics
    /// Panics if a slice is shorter than `n`.
    #[inline(always)]
    fn cut(self, n: usize) -> Self {
        Self {
            wx: self.wx.map(|s| &s[..n]),
            uh: self.uh.map(|s| &s[..n]),
            b: self.b.map(|s| &s[..n]),
        }
    }

    /// Gate `g`'s pre-activation at row `j`.
    #[inline(always)]
    fn pre(&self, g: usize, j: usize) -> f32 {
        (self.wx[g][j] + self.uh[g][j]) + self.b[g][j]
    }
}

simd_kernel! {
    /// `out[j] = e^{x[j]}` for every row of `out`.
    ///
    /// # Panics
    /// Panics if `x` is shorter than `out`.
    pub fn exp_into = exp_into_body(x: &[f32], out: &mut [f32]);
}

#[inline(always)]
fn exp_into_body(x: &[f32], out: &mut [f32]) {
    let x = &x[..out.len()];
    for (o, &x) in out.iter_mut().zip(x) {
        *o = exp_lane(x);
    }
}

simd_kernel! {
    /// `out[j] = tanh x[j]` for every row of `out`.
    ///
    /// # Panics
    /// Panics if `x` is shorter than `out`.
    pub fn tanh_into = tanh_into_body(x: &[f32], out: &mut [f32]);
}

#[inline(always)]
fn tanh_into_body(x: &[f32], out: &mut [f32]) {
    let x = &x[..out.len()];
    for (o, &x) in out.iter_mut().zip(x) {
        *o = tanh_lane(x);
    }
}

simd_kernel! {
    /// One sigmoid gate, `out[j] = σ(pre(j))`, for every row of `out`:
    /// the LSTM's output gate `o_t` (Algorithm 3 line 5) and the GRU's
    /// update gate `z_t`.
    ///
    /// # Panics
    /// Panics if a slice of `rows` is shorter than `out`.
    pub fn sigmoid_gate_into = sigmoid_gate_body(rows: GateRows<'_, 1>, out: &mut [f32]);
}

#[inline(always)]
fn sigmoid_gate_body(rows: GateRows<'_, 1>, out: &mut [f32]) {
    let rows = rows.cut(out.len());
    for (j, o) in out.iter_mut().enumerate() {
        *o = sigmoid_lane(rows.pre(0, j));
    }
}

simd_kernel! {
    /// The LSTM state update (Eqs. 1–3 and 5) for every row of `c`:
    /// `f = σ(pre(0))`, `i = σ(pre(1))`, `c̃ = tanh(pre(2))`,
    /// `c = f·c_prev + i·c̃` and `h = o·tanh(c)`, where `h` holds the
    /// output gate `o` on entry. With `active`, a row whose entry is
    /// `false` is skipped as Dynamic Row Skip defines it: its `c` and `h`
    /// are zero, and an active row's bits are what the dense pass gives.
    ///
    /// # Panics
    /// Panics if `h`, `c_prev`, `active` or a slice of `rows` is shorter
    /// than `c`.
    pub fn lstm_state_into = lstm_state_body(
        rows: GateRows<'_, 3>,
        c_prev: &[f32],
        active: Option<&[bool]>,
        c: &mut [f32],
        h: &mut [f32],
    );
}

#[inline(always)]
fn lstm_state_body(
    rows: GateRows<'_, 3>,
    c_prev: &[f32],
    active: Option<&[bool]>,
    c: &mut [f32],
    h: &mut [f32],
) {
    let n = c.len();
    let (rows, c_prev, h) = (rows.cut(n), &c_prev[..n], &mut h[..n]);
    match active {
        None => {
            for j in 0..n {
                (c[j], h[j]) = lstm_row(&rows, j, c_prev[j], h[j]);
            }
        }
        Some(active) => {
            let active = &active[..n];
            for j in 0..n {
                let (cj, hj) = lstm_row(&rows, j, c_prev[j], h[j]);
                // Skipped row: c_t approximated to zero (Sec. V-A); h_t
                // follows since tanh(0) = 0.
                (c[j], h[j]) = if active[j] { (cj, hj) } else { (0.0, 0.0) };
            }
        }
    }
}

/// Row `j`'s `(c_t, h_t)` from its previous state and output gate `o`.
#[inline(always)]
fn lstm_row(rows: &GateRows<'_, 3>, j: usize, c_prev: f32, o: f32) -> (f32, f32) {
    let f = sigmoid_lane(rows.pre(0, j));
    let i = sigmoid_lane(rows.pre(1, j));
    let cand = tanh_lane(rows.pre(2, j));
    let c = f * c_prev + i * cand;
    (c, o * tanh_lane(c))
}

simd_kernel! {
    /// The GRU's reset product `rh[j] = r·h_prev[j]` with
    /// `r = σ(pre(j))`, for every row of `rh`. With `active`, a row whose
    /// entry is `false` takes `r = 0`.
    ///
    /// # Panics
    /// Panics if `h_prev`, `active` or a slice of `rows` is shorter than
    /// `rh`.
    pub fn gru_reset_into = gru_reset_body(
        rows: GateRows<'_, 1>,
        h_prev: &[f32],
        active: Option<&[bool]>,
        rh: &mut [f32],
    );
}

#[inline(always)]
fn gru_reset_body(rows: GateRows<'_, 1>, h_prev: &[f32], active: Option<&[bool]>, rh: &mut [f32]) {
    let n = rh.len();
    let (rows, h_prev) = (rows.cut(n), &h_prev[..n]);
    match active {
        None => {
            for j in 0..n {
                rh[j] = sigmoid_lane(rows.pre(0, j)) * h_prev[j];
            }
        }
        Some(active) => {
            let active = &active[..n];
            for j in 0..n {
                let r = sigmoid_lane(rows.pre(0, j));
                rh[j] = if active[j] { r } else { 0.0 } * h_prev[j];
            }
        }
    }
}

simd_kernel! {
    /// The GRU's output `h[j] = (1 - z[j])·h_prev[j] + z[j]·tanh(pre(j))`
    /// for every row of `h`. With `active`, a row whose entry is `false`
    /// copies `h_prev[j]` (a near-zero update gate keeps the unit's
    /// history).
    ///
    /// # Panics
    /// Panics if `z`, `h_prev`, `active` or a slice of `rows` is shorter
    /// than `h`.
    pub fn gru_blend_into = gru_blend_body(
        rows: GateRows<'_, 1>,
        z: &[f32],
        h_prev: &[f32],
        active: Option<&[bool]>,
        h: &mut [f32],
    );
}

#[inline(always)]
fn gru_blend_body(
    rows: GateRows<'_, 1>,
    z: &[f32],
    h_prev: &[f32],
    active: Option<&[bool]>,
    h: &mut [f32],
) {
    let n = h.len();
    let (rows, z, h_prev) = (rows.cut(n), &z[..n], &h_prev[..n]);
    match active {
        None => {
            for j in 0..n {
                h[j] = gru_row(&rows, j, z[j], h_prev[j]);
            }
        }
        Some(active) => {
            let active = &active[..n];
            for j in 0..n {
                let v = gru_row(&rows, j, z[j], h_prev[j]);
                h[j] = if active[j] { v } else { h_prev[j] };
            }
        }
    }
}

/// Row `j`'s `h_t` from its update gate `z` and previous output.
#[inline(always)]
fn gru_row(rows: &GateRows<'_, 1>, j: usize, z: f32, h_prev: f32) -> f32 {
    (1.0 - z) * h_prev + z * tanh_lane(rows.pre(0, j))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packed::portable;

    #[test]
    fn sigmoid_symmetry_and_limits() {
        assert_eq!(sigmoid(0.0), 0.5);
        assert!((sigmoid(2.0) + sigmoid(-2.0) - 1.0).abs() < 1e-6);
        assert!(sigmoid(10.0) > 0.9999);
        assert!(sigmoid(-10.0) < 0.0001);
    }

    #[test]
    fn tanh_is_odd() {
        assert_eq!(tanh(0.0), 0.0);
        assert!((tanh(1.0) + tanh(-1.0)).abs() < 1e-6);
    }

    /// The inputs whose kernel result differs from the `f64` reference
    /// rounded to `f32`, as `(input bits, kernel result bits)`: those
    /// whose exact value lies within the kernel's few-ulp `f64` error of
    /// an `f32` rounding boundary, so the kernel's rounding and the
    /// reference's can fall on different sides. The exhaustive
    /// [`every_input_matches_the_f64_reference`] found none against
    /// glibc 2.36's `exp` and `tanh`, so both tables are empty; a libm
    /// whose results differ would add its entries here.
    const EXP_HARD_CASES: &[(u32, u32)] = &[];
    /// As [`EXP_HARD_CASES`], for `tanh`.
    const TANH_HARD_CASES: &[(u32, u32)] = &[];

    /// `(build, input, kernel result, reference result)`, bits.
    type Mismatch = (&'static str, u32, u32, u32);

    /// One slice kernel with its reference and hard cases.
    struct Activation {
        name: &'static str,
        kernel: fn(&[f32], &mut [f32]),
        reference: fn(f64) -> f64,
        hard_cases: &'static [(u32, u32)],
    }

    const ACTIVATIONS: [Activation; 2] = [
        Activation {
            name: "exp",
            kernel: exp_into,
            reference: f64::exp,
            hard_cases: EXP_HARD_CASES,
        },
        Activation {
            name: "tanh",
            kernel: tanh_into,
            reference: f64::tanh,
            hard_cases: TANH_HARD_CASES,
        },
    ];

    impl Activation {
        /// The inputs among `xs` where the kernel, in the AVX or the
        /// portable build, differs from the reference, in input order.
        fn mismatches(&self, xs: &[f32]) -> Vec<Mismatch> {
            let mut out = vec![0.0f32; xs.len()];
            let mut found = Vec::new();
            for build in ["avx", "portable"] {
                if build == "avx" {
                    (self.kernel)(xs, &mut out);
                } else {
                    portable(|| (self.kernel)(xs, &mut out));
                }
                for (&x, &y) in xs.iter().zip(&out) {
                    let want = (self.reference)(f64::from(x)) as f32;
                    if y.to_bits() != want.to_bits() {
                        found.push((build, x.to_bits(), y.to_bits(), want.to_bits()));
                    }
                }
            }
            found.sort_by_key(|&(build, x, ..)| (x, build));
            found
        }

        /// The hard cases among `xs`, in the form [`Self::mismatches`]
        /// must return: each input once per build.
        fn expected(&self, xs: &[f32]) -> Vec<Mismatch> {
            let mut want: Vec<_> = xs
                .iter()
                .filter_map(|x| {
                    let bits = x.to_bits();
                    let &(_, kernel) = self.hard_cases.iter().find(|&&(h, _)| h == bits)?;
                    let reference = (self.reference)(f64::from(*x)) as f32;
                    Some([
                        ("avx", bits, kernel, reference.to_bits()),
                        ("portable", bits, kernel, reference.to_bits()),
                    ])
                })
                .flatten()
                .collect();
            want.sort_by_key(|&(build, x, ..)| (x, build));
            want
        }
    }

    /// The tier-1 sample: every 4096th bit pattern, both zeros, the
    /// subnormal and normal extremes, both infinities, quiet and
    /// signalling NaNs of both signs, the saturation edges (`tanh`'s
    /// near ±9.01, `exp`'s near 88.72 and −103.97) with their
    /// neighbours, and every hard case.
    fn tier1_sample() -> Vec<f32> {
        let mut bits: Vec<u32> = (0..=u32::MAX).step_by(4096).collect();
        bits.extend([
            0x0000_0000,
            0x8000_0000,
            0x0000_0001,
            0x8000_0001,
            0x007f_ffff,
            0x807f_ffff,
            0x0080_0000,
            0x8080_0000,
            0x7f7f_ffff,
            0xff7f_ffff,
            0x7f80_0000,
            0xff80_0000,
            0x7fc0_0000,
            0xffc0_0000,
            0x7f80_0001,
            0xff80_0001,
            0x7fc1_2345,
        ]);
        for edge in [9.01f32, -9.01, 88.72, 88.73, -103.97, -103.98, -87.34, 0.0] {
            let b = edge.to_bits();
            bits.extend((b.saturating_sub(2048)..=b.saturating_add(2048)).step_by(7));
        }
        for a in &ACTIVATIONS {
            bits.extend(a.hard_cases.iter().map(|&(x, _)| x));
        }
        bits.sort_unstable();
        bits.dedup();
        bits.into_iter().map(f32::from_bits).collect()
    }

    #[test]
    fn sampled_inputs_match_the_f64_reference() {
        let xs = tier1_sample();
        for a in &ACTIVATIONS {
            let got = a.mismatches(&xs);
            assert_eq!(
                got,
                a.expected(&xs),
                "{}: (build, x, kernel, reference) bits",
                a.name
            );
        }
    }

    #[test]
    fn scalar_functions_are_the_slice_kernels() {
        let xs = tier1_sample();
        let mut e = vec![0.0f32; xs.len()];
        let mut t = vec![0.0f32; xs.len()];
        exp_into(&xs, &mut e);
        tanh_into(&xs, &mut t);
        for ((&x, e), t) in xs.iter().zip(&e).zip(&t) {
            assert_eq!(tanh(x).to_bits(), t.to_bits(), "tanh({x:e})");
            let s = 1.0 / (1.0 + exp_lane(-x));
            assert_eq!(sigmoid(x).to_bits(), s.to_bits(), "sigmoid({x:e})");
            assert_eq!(exp_lane(x).to_bits(), e.to_bits(), "exp({x:e})");
        }
    }

    /// All 2^32 inputs in both builds against the references and the
    /// hard-case tables; about two minutes on two cores in release
    /// (`cargo test --release -p mf-tensor -- --ignored`).
    #[test]
    #[ignore = "exhaustive: every f32 input, run in release"]
    fn every_input_matches_the_f64_reference() {
        const CHUNK: u32 = 1 << 16;
        const WORKERS: u32 = 2;
        let per_worker = (1u64 << 32) / u64::from(WORKERS);
        let found: Vec<Vec<Vec<Mismatch>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..WORKERS)
                .map(|w| {
                    scope.spawn(move || {
                        let mut found = vec![Vec::new(); ACTIVATIONS.len()];
                        let start = u64::from(w) * per_worker;
                        let mut xs = vec![0.0f32; CHUNK as usize];
                        for chunk in (start..start + per_worker).step_by(CHUNK as usize) {
                            for (i, x) in xs.iter_mut().enumerate() {
                                *x = f32::from_bits((chunk + i as u64) as u32);
                            }
                            for (a, found) in ACTIVATIONS.iter().zip(&mut found) {
                                found.extend(a.mismatches(&xs));
                            }
                        }
                        found
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (k, a) in ACTIVATIONS.iter().enumerate() {
            let got: Vec<_> = found.iter().flat_map(|f| f[k].iter().copied()).collect();
            let table: Vec<String> = got
                .iter()
                .filter(|m| m.0 == "avx")
                .map(|&(_, x, y, _)| format!("({x:#010x}, {y:#010x}),"))
                .collect();
            let want: Vec<_> = a
                .hard_cases
                .iter()
                .flat_map(|&(x, kernel)| {
                    let reference = (a.reference)(f64::from(f32::from_bits(x))) as f32;
                    [
                        ("avx", x, kernel, reference.to_bits()),
                        ("portable", x, kernel, reference.to_bits()),
                    ]
                })
                .collect();
            assert_eq!(
                got,
                want,
                "{}: {} mismatches; table:\n{}",
                a.name,
                got.len(),
                table.join("\n")
            );
        }
    }
}
