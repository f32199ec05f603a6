//! Vectorizable elementary functions for the likelihood hot paths.
//!
//! Stable Rust has no portable SIMD type yet, so the navicim kernels are
//! plain fixed-width loops over tiles of points that LLVM auto-vectorizes
//! (256-bit AVX / 512-bit AVX-512 with `-C target-cpu=native`, 2×128-bit
//! SSE2 otherwise). What such a loop cannot call is a libm function, so
//! this module provides branch-free replacements: a fast exponential
//! ([`exp_fast`]), logarithm ([`ln_fast`]) and cosine ([`cos_turns_fast`]).
//!
//! # `exp_fast` and the ulp gate
//!
//! [`exp_fast`] is a branch-free Cody–Waite + degree-13 Horner
//! exponential. It is **not** bit-identical to [`f64::exp`]; its contract
//! is instead an error bound: at most [`EXP_FAST_MAX_ULP`] ulp from the
//! correctly rounded result for finite inputs with normal results
//! (subnormal results may round with larger relative error; `NaN`, `±inf`
//! and over/underflow behave like `f64::exp`). Digital kernels that adopt
//! it (the GMM evaluation plan, the HMG axis factor) remain bit-identical
//! between their tile bodies and scalar paths — both call `exp_fast` —
//! but carry this documented ulp-bounded tolerance relative to a
//! `f64::exp` reference implementation. The property-test suite enforces
//! the bound (`tests/property_tests.rs` and the tests below).
//!
//! # `ln_fast`, `cos_turns_fast` and their error bounds
//!
//! The CIM engine's noise + log-ADC chain needs `ln` (Box–Muller radius
//! and the log-ADC) and `cos(2π·v)` (Box–Muller angle) across a whole
//! tile of points at a time. [`ln_fast`] and [`cos_turns_fast`] are
//! branch-free versions, so a loop mapping them over the tile vectorizes,
//! with documented absolute error bounds against the libm results:
//! [`LN_FAST_MAX_ULP`] ulp of the result for `ln_fast` and
//! [`COS_TURNS_FAST_MAX_ABS_ERR`] for `cos_turns_fast`. Unlike
//! `exp_fast`, no likelihood value is ever computed from them directly:
//! the engine only uses them to *decide* an ADC code when the decision
//! is provably the one the exact chain makes, and sends every other
//! point through the exact libm chain (see `navicim_analog::engine`).

/// Documented accuracy gate for [`exp_fast`]: maximum distance from the
/// correctly rounded `f64::exp`, in units in the last place, for finite
/// inputs with normal (non-subnormal) results.
pub const EXP_FAST_MAX_ULP: u64 = 4;

/// Documented accuracy gate for [`ln_fast`]: for every positive finite
/// input, `|ln_fast(x) − f64::ln(x)|` is at most this many ulp of the
/// result — an absolute error of at most `2⁻⁵¹·|ln x|`, e.g. `≤ 1.7e-14`
/// over `[2⁻⁵³, 1]` and `≤ 3.3e-13` over the whole positive range.
pub const LN_FAST_MAX_ULP: u64 = 2;

/// Documented accuracy gate for [`cos_turns_fast`]: for `v ∈ [0, 1)`,
/// `|cos_turns_fast(v) − f64::cos(2.0 * PI * v)|` never exceeds this. The
/// bound covers the reference's own argument rounding (`2π·v` is rounded
/// before libm sees it, worth up to `2π·2⁻⁵³ ≈ 7e-16`), which
/// `cos_turns_fast` avoids by reducing in turns.
pub const COS_TURNS_FAST_MAX_ABS_ERR: f64 = 1.5e-15;

/// log2(e), the reduction constant for `exp_fast`.
const LOG2_E: f64 = std::f64::consts::LOG2_E;
/// High part of ln(2) with 20 trailing zero mantissa bits, so
/// `k * LN2_HI` is exact for |k| < 2^20 (Cody–Waite split, musl values).
const LN2_HI: f64 = 6.931_471_803_691_238e-1;
/// Low part of ln(2): `LN2_HI + LN2_LO` ≈ ln(2) to ~2^-102.
const LN2_LO: f64 = 1.908_214_929_270_587_7e-10;

/// Inputs above this map to `+inf` (`exp` overflows at ≈709.78).
const EXP_OVERFLOW: f64 = 710.0;
/// Inputs below this map to `0.0` (`exp` underflows below ≈-745.13).
const EXP_UNDERFLOW: f64 = -746.0;

/// Fast exponential: branch-free argument reduction + degree-13 Horner
/// polynomial, within [`EXP_FAST_MAX_ULP`] ulp of `f64::exp` (see the
/// module docs for the exact contract).
///
/// Written so that a loop mapping it over a tile auto-vectorizes: the input
/// is clamped into the finite-result window, the core runs unconditionally
/// on every lane, and the overflow/underflow/NaN cases are repaired by
/// per-lane selects at the end.
///
/// ```
/// use navicim_math::simd::exp_fast;
/// assert_eq!(exp_fast(0.0), 1.0);
/// assert_eq!(exp_fast(f64::NEG_INFINITY), 0.0);
/// assert_eq!(exp_fast(f64::INFINITY), f64::INFINITY);
/// assert!(exp_fast(f64::NAN).is_nan());
/// assert!((exp_fast(1.0) - std::f64::consts::E).abs() < 1e-15);
/// ```
#[inline(always)]
pub fn exp_fast(x: f64) -> f64 {
    // Clamp into the window where the core produces a finite result; the
    // clamp propagates NaN, and out-of-window inputs are repaired below.
    let c = x.clamp(EXP_UNDERFLOW, EXP_OVERFLOW);
    // x = k·ln2 + r with k integral and |r| ≤ ln2/2 ≈ 0.3466.
    let kf = (c * LOG2_E).round();
    let r = (-kf).mul_add(LN2_HI, c);
    let r = (-kf).mul_add(LN2_LO, r);
    // exp(r) by a degree-13 Taylor polynomial (truncation < 0.02 ulp on
    // the reduced range), evaluated with Estrin's scheme: Horner's serial
    // fma chain is 13 fma latencies deep, which dominates the kernel when
    // mapped over lanes; Estrin's pairwise tree cuts the critical path to
    // ~5 fma latencies at the cost of three extra multiplies.
    let r2 = r * r;
    let r4 = r2 * r2;
    let r8 = r4 * r4;
    // Pairs c_i + c_{i+1}·r (coefficients 1/i!).
    let q0 = r.mul_add(1.0, 1.0);
    let q1 = r.mul_add(1.0 / 6.0, 0.5);
    let q2 = r.mul_add(1.0 / 120.0, 1.0 / 24.0);
    let q3 = r.mul_add(1.0 / 5_040.0, 1.0 / 720.0);
    let q4 = r.mul_add(1.0 / 362_880.0, 1.0 / 40_320.0);
    let q5 = r.mul_add(1.0 / 39_916_800.0, 1.0 / 3_628_800.0);
    let q6 = r.mul_add(1.0 / 6_227_020_800.0, 1.0 / 479_001_600.0);
    // Combine pairs with r², quads with r⁴, halves with r⁸.
    let h0 = r2.mul_add(q1, q0);
    let h1 = r2.mul_add(q3, q2);
    let h2 = r2.mul_add(q5, q4);
    let g0 = r4.mul_add(h1, h0);
    let g1 = r4.mul_add(q6, h2);
    let p = r8.mul_add(g1, g0);
    // Scale by 2^k in two exact steps so results down in the subnormal
    // range degrade gracefully instead of the single-step scale flushing
    // to zero. The split and the 2^k construction stay in the float
    // domain: a saturating `as i64` cast does not vectorize (LLVM lowers
    // it to per-lane `cvttsd2si` plus fixups), while floor and the 2^52
    // magic-bias trick below compile to packed instructions. For the
    // clamped range, `floor(kf/2)` equals the arithmetic shift `k >> 1`
    // and adding 2^52 to the small integer `kf + 1023` lands it exactly
    // in the low mantissa bits, so `bits << 52` is the wanted exponent
    // field — bit-identical to the integer construction. NaN reaches
    // here as NaN in both `p` and the scales and propagates through the
    // multiplies.
    const MANTISSA_MAGIC: f64 = 4_503_599_627_370_496.0; // 2^52
    let kf1 = (kf * 0.5).floor();
    let kf2 = kf - kf1;
    let s1 = f64::from_bits(((kf1 + 1023.0) + MANTISSA_MAGIC).to_bits() << 52);
    let s2 = f64::from_bits(((kf2 + 1023.0) + MANTISSA_MAGIC).to_bits() << 52);
    let v = p * s1 * s2;
    // Repair the clamped lanes (NaN fails both comparisons and keeps v).
    let v = if x < EXP_UNDERFLOW { 0.0 } else { v };
    if x > EXP_OVERFLOW {
        f64::INFINITY
    } else {
        v
    }
}

/// `√½` as f64 bits with the low word cleared: the reduction in
/// [`ln_fast`] moves mantissas at or above this into the next binade.
const SQRT_HALF_HI_BITS: u64 = 0x3fe6_a09e_0000_0000;
/// Bits of `1.0` (biased exponent 1023, empty mantissa).
const ONE_BITS: u64 = 0x3ff0_0000_0000_0000;
/// Mantissa field of an f64.
const MANTISSA_MASK: u64 = 0x000f_ffff_ffff_ffff;
/// `2^54`, the prescale that lifts subnormal inputs into the normal range.
const TWO_54: f64 = 18_014_398_509_481_984.0;
/// Coefficients of the `ln(1+f)` remainder polynomial in `s = f/(2+f)`
/// (the classic fdlibm `Lg1..Lg7` minimax fit, error < 2⁻⁵⁸·⁴⁵).
const LG: [f64; 7] = [
    6.666_666_666_666_735e-1,
    3.999_999_999_940_942e-1,
    2.857_142_874_366_239e-1,
    2.222_219_843_214_978_4e-1,
    1.818_357_216_161_805e-1,
    1.531_383_769_920_937_3e-1,
    1.479_819_860_511_658_6e-1,
];

/// Fast natural logarithm, within [`LN_FAST_MAX_ULP`] ulp of `f64::ln`
/// for every positive finite input.
///
/// The classic fdlibm reduction `x = 2^k·(1+f)` with `1+f ∈ [√½, √2)`,
/// `ln(1+f) = f − f²/2 + s·(f²/2 + R(s²))`, `s = f/(2+f)`, written without
/// branches so a loop mapping it over points vectorizes: the exponent is
/// split off with integer bit operations and turned into a float with the
/// 2^52 magic-bias trick (as in [`exp_fast`]), subnormals are prescaled by
/// a select, and the special inputs are repaired by selects at the end.
/// `ln_fast(0) = −inf`, `ln_fast(+inf) = +inf`, negative and `NaN`
/// inputs give `NaN` — as `f64::ln`.
///
/// ```
/// use navicim_math::simd::ln_fast;
/// assert_eq!(ln_fast(1.0), 0.0);
/// assert_eq!(ln_fast(0.0), f64::NEG_INFINITY);
/// assert!(ln_fast(-1.0).is_nan());
/// assert!((ln_fast(std::f64::consts::E) - 1.0).abs() < 1e-15);
/// ```
#[inline(always)]
pub fn ln_fast(x: f64) -> f64 {
    const MANTISSA_MAGIC: f64 = 4_503_599_627_370_496.0; // 2^52
    let tiny = x < f64::MIN_POSITIVE;
    let xs = if tiny { x * TWO_54 } else { x };
    // Biasing the bits by (1.0 − √½) carries into the exponent field
    // exactly when the mantissa is ≥ √½·2, so the exponent read below is
    // k and the re-biased mantissa lands in [√½, √2).
    let ix = xs.to_bits().wrapping_add(ONE_BITS - SQRT_HALF_HI_BITS);
    let e = f64::from_bits((ix >> 52) | MANTISSA_MAGIC.to_bits()) - MANTISSA_MAGIC;
    let k = e - if tiny { 1023.0 + 54.0 } else { 1023.0 };
    let f = f64::from_bits((ix & MANTISSA_MASK) + SQRT_HALF_HI_BITS) - 1.0;
    let hfsq = 0.5 * f * f;
    let s = f / (2.0 + f);
    let z = s * s;
    let w = z * z;
    let t1 = w * (LG[1] + w * (LG[3] + w * LG[5]));
    let t2 = z * (LG[0] + w * (LG[2] + w * (LG[4] + w * LG[6])));
    let r = t2 + t1;
    let v = s * (hfsq + r) + k * LN2_LO - hfsq + f + k * LN2_HI;
    // Repair the special inputs (NaN fails every comparison).
    let v = if x == 0.0 { f64::NEG_INFINITY } else { v };
    let v = if x == f64::INFINITY { x } else { v };
    if x < 0.0 || x.is_nan() {
        f64::NAN
    } else {
        v
    }
}

/// Odd Taylor coefficients `(−1)^j/(2j+1)!` of `sin`, through `x²¹`.
const SIN_TAYLOR: [f64; 11] = [
    1.0,
    -1.0 / 6.0,
    1.0 / 120.0,
    -1.0 / 5_040.0,
    1.0 / 362_880.0,
    -1.0 / 39_916_800.0,
    1.0 / 6_227_020_800.0,
    -1.0 / 1_307_674_368_000.0,
    1.0 / 355_687_428_096_000.0,
    -1.0 / 121_645_100_408_832_000.0,
    1.0 / 51_090_942_171_709_440_000.0,
];

/// Fast `cos(2π·v)` for an angle `v` in turns, within
/// [`COS_TURNS_FAST_MAX_ABS_ERR`] of `f64::cos(2.0 * PI * v)` on
/// `v ∈ [0, 1)`.
///
/// Reduction is exact in turns: `a = |v − round(v)| ∈ [0, ½]` and
/// `cos(2π·a) = sin(2π·(¼ − a))` with `¼ − a ∈ [−¼, ¼]`, so one odd
/// Taylor polynomial through `x²¹` on `[−π/2, π/2]` (truncation
/// `< 1.3e-18`) covers every angle, with no branch. Non-finite `v` gives
/// `NaN`.
///
/// ```
/// use navicim_math::simd::cos_turns_fast;
/// assert_eq!(cos_turns_fast(0.0), 1.0);
/// assert_eq!(cos_turns_fast(0.5), -1.0);
/// assert!(cos_turns_fast(0.25).abs() < 1e-16);
/// ```
#[inline(always)]
pub fn cos_turns_fast(v: f64) -> f64 {
    let a = (v - v.round()).abs();
    let x = (0.25 - a) * std::f64::consts::TAU;
    let x2 = x * x;
    let mut p = SIN_TAYLOR[10];
    for &c in SIN_TAYLOR[..10].iter().rev() {
        p = p.mul_add(x2, c);
    }
    x * p
}

/// Numerically stable `log(Σ exp(x_i))` using [`exp_fast`] for the
/// rescaled exponentials.
///
/// Same structure and edge-case semantics as
/// [`crate::stats::log_sum_exp`] — `max` fold (NaN terms are skipped by
/// the fold; an all-NaN or empty slice yields `-inf`), early `-inf`
/// return, `m + ln Σ exp(x−m)` otherwise — but inherits `exp_fast`'s
/// ulp-bounded tolerance instead of being bit-identical to the `f64::exp`
/// version. A NaN term alongside finite terms still poisons the sum to
/// NaN, exactly as in the reference.
///
/// ```
/// use navicim_math::simd::log_sum_exp_fast;
/// let v = log_sum_exp_fast(&[0.0, 0.0]);
/// assert!((v - std::f64::consts::LN_2).abs() < 1e-14);
/// assert_eq!(log_sum_exp_fast(&[]), f64::NEG_INFINITY);
/// ```
pub fn log_sum_exp_fast(xs: &[f64]) -> f64 {
    // lint: reduction-order max-fold is order-insensitive up to NaN, which callers exclude
    let m = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if m == f64::NEG_INFINITY {
        return f64::NEG_INFINITY;
    }
    let mut s = 0.0;
    for &x in xs {
        s += exp_fast(x - m);
    }
    m + s.ln()
}

/// Distance between two floats in units in the last place, treating the
/// pair `(a, b)` as points on the integer number line of ordered f64 bit
/// patterns. Equal values (including `-0.0` vs `0.0`) give 0; any
/// comparison involving NaN gives `u64::MAX` unless both are NaN.
pub fn ulp_distance(a: f64, b: f64) -> u64 {
    if a.is_nan() || b.is_nan() {
        return if a.is_nan() && b.is_nan() {
            0
        } else {
            u64::MAX
        };
    }
    // Map the f64 bit pattern to a monotone integer line.
    fn ordered(x: f64) -> i64 {
        let bits = x.to_bits() as i64;
        if bits < 0 {
            i64::MIN.wrapping_add(1).wrapping_sub(bits).wrapping_sub(1)
        } else {
            bits
        }
    }
    ordered(a).abs_diff(ordered(b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exp_fast_specials() {
        assert_eq!(exp_fast(0.0), 1.0);
        assert_eq!(exp_fast(-0.0), 1.0);
        assert_eq!(exp_fast(f64::NEG_INFINITY), 0.0);
        assert_eq!(exp_fast(f64::INFINITY), f64::INFINITY);
        assert!(exp_fast(f64::NAN).is_nan());
        assert_eq!(exp_fast(-1e4), 0.0);
        assert_eq!(exp_fast(1e4), f64::INFINITY);
        // Overflow threshold: exp overflows just below 709.79.
        assert_eq!(exp_fast(709.9), f64::INFINITY);
        assert!(exp_fast(709.7).is_finite());
    }

    #[test]
    fn exp_fast_within_ulp_gate() {
        // Dense deterministic sweep over the whole finite-result range
        // (the property suite adds randomized coverage).
        let mut worst = 0u64;
        for k in -7400..7100 {
            let x = k as f64 * 0.1;
            let d = ulp_distance(exp_fast(x), x.exp());
            if x.exp().is_normal() {
                worst = worst.max(d);
            }
        }
        assert!(worst <= EXP_FAST_MAX_ULP, "worst ulp distance {worst}");
    }

    #[test]
    fn exp_fast_subnormal_tail_is_sane() {
        // Deep-tail results stay tiny and non-negative even where the
        // ulp gate does not apply.
        for k in 0..40 {
            let x = -744.0 - k as f64 * 0.05;
            let v = exp_fast(x);
            assert!((0.0..1e-300).contains(&v), "exp_fast({x}) = {v}");
        }
    }

    /// Worst `ln_fast` distance from `f64::ln`, in ulp of the result, over
    /// `n + 1` log-spaced points of `[lo, hi]`.
    fn ln_sweep_worst_ulp(lo: f64, hi: f64, n: u32) -> u64 {
        let (a, b) = (lo.ln(), hi.ln());
        let mut worst = 0;
        for k in 0..=n {
            let x = (a + (b - a) * k as f64 / n as f64).exp().clamp(lo, hi);
            worst = worst.max(ulp_distance(ln_fast(x), x.ln()));
        }
        worst
    }

    #[test]
    fn ln_fast_within_ulp_gate_on_uniform_and_current_ranges() {
        // The Box–Muller radius draws u ∈ [2⁻⁵³, 1]; the log-ADC reads
        // currents from the leakage floor (~1e-16 A) up to ~1e-3 A. Both
        // ranges, plus mantissas straddling the √½ reduction boundary
        // and every binade edge near 1.
        let eps = f64::EPSILON / 2.0;
        let mut worst = ln_sweep_worst_ulp(eps, 1.0, 400_000);
        worst = worst.max(ln_sweep_worst_ulp(1e-18, 1e-2, 400_000));
        for e in -60..60 {
            let b = 2f64.powi(e);
            for x in [
                b,
                b * std::f64::consts::FRAC_1_SQRT_2,
                b * (1.0 - eps),
                b * (1.0 + 2.0 * eps),
            ] {
                worst = worst.max(ulp_distance(ln_fast(x), x.ln()));
            }
        }
        for k in 0..10_000 {
            // Just below and above 1, where ln x → 0.
            for x in [1.0 - k as f64 * eps, 1.0 + 2.0 * k as f64 * eps] {
                worst = worst.max(ulp_distance(ln_fast(x), x.ln()));
            }
        }
        assert!(
            worst <= LN_FAST_MAX_ULP,
            "worst ln_fast distance {worst} ulp"
        );
    }

    #[test]
    fn ln_fast_specials_and_extremes() {
        assert_eq!(ln_fast(1.0), 0.0);
        assert_eq!(ln_fast(0.0), f64::NEG_INFINITY);
        assert_eq!(ln_fast(-0.0), f64::NEG_INFINITY);
        assert_eq!(ln_fast(f64::INFINITY), f64::INFINITY);
        assert!(ln_fast(-1.0).is_nan());
        assert!(ln_fast(f64::NEG_INFINITY).is_nan());
        assert!(ln_fast(f64::NAN).is_nan());
        for x in [
            f64::MAX,
            f64::MIN_POSITIVE,
            f64::from_bits(1),
            1e-310,
            3e-320,
        ] {
            let d = ulp_distance(ln_fast(x), x.ln());
            assert!(d <= LN_FAST_MAX_ULP, "ln_fast({x:e}) off by {d} ulp");
        }
    }

    #[test]
    fn cos_turns_fast_within_abs_gate() {
        let n = 1 << 21;
        let mut worst = 0.0f64;
        for k in 0..n {
            // Exact multiples of 2⁻²¹ plus an off-grid jitter, so both
            // stream-like and arbitrary mantissas are covered.
            for v in [k as f64 / n as f64, (k as f64 + 0.377_123) / n as f64] {
                let reference = (2.0 * std::f64::consts::PI * v).cos();
                worst = worst.max((cos_turns_fast(v) - reference).abs());
            }
        }
        assert!(
            worst <= COS_TURNS_FAST_MAX_ABS_ERR,
            "worst cos_turns_fast error {worst:e}"
        );
        assert_eq!(cos_turns_fast(0.0), 1.0);
        assert_eq!(cos_turns_fast(0.5), -1.0);
        assert!(cos_turns_fast(f64::NAN).is_nan());
        assert!(cos_turns_fast(f64::INFINITY).is_nan());
    }

    #[test]
    fn lse_fast_tracks_reference_and_keeps_edge_cases() {
        let xs = [-3.2, 0.5, 1.7, -100.0];
        let d = ulp_distance(log_sum_exp_fast(&xs), crate::stats::log_sum_exp(&xs));
        assert!(d <= 8, "lse drift {d} ulp");
        assert_eq!(log_sum_exp_fast(&[f64::NEG_INFINITY; 3]), f64::NEG_INFINITY);
        assert_eq!(log_sum_exp_fast(&[f64::NAN, f64::NAN]), f64::NEG_INFINITY);
        assert!(log_sum_exp_fast(&[f64::NAN, 0.0]).is_nan());
    }

    #[test]
    fn ulp_distance_basics() {
        assert_eq!(ulp_distance(1.0, 1.0), 0);
        assert_eq!(ulp_distance(0.0, -0.0), 0);
        assert_eq!(ulp_distance(1.0, 1.0 + f64::EPSILON), 1);
        assert_eq!(ulp_distance(-1.0, -1.0 - f64::EPSILON), 1);
        assert!(ulp_distance(1.0, 2.0) > 1_000_000);
        assert_eq!(ulp_distance(f64::NAN, f64::NAN), 0);
        assert_eq!(ulp_distance(f64::NAN, 1.0), u64::MAX);
        // Across zero: adjacent subnormals of opposite sign are 2 apart.
        let tiny = f64::from_bits(1);
        assert_eq!(ulp_distance(tiny, -tiny), 2);
    }
}
