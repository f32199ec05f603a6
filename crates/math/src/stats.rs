//! Descriptive statistics, correlation measures and Gaussian densities.

use crate::{MathError, Result};

/// Natural log of 2π, used by Gaussian log-densities.
pub const LN_2PI: f64 = 1.837_877_066_409_345_6;

/// Arithmetic mean of a slice; `0.0` for an empty slice.
///
/// ```
/// assert_eq!(navicim_math::stats::mean(&[1.0, 2.0, 3.0]), 2.0);
/// ```
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Unbiased sample variance; `0.0` for slices shorter than 2.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64
}

/// Unbiased sample standard deviation.
pub fn std_dev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Minimum of a slice; `f64::INFINITY` for an empty slice.
pub fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Maximum of a slice; `f64::NEG_INFINITY` for an empty slice.
pub fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// Median of a slice (average of the two central order statistics for even
/// lengths); `0.0` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("median requires non-NaN data"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Linear-interpolated percentile (`p` in `[0, 100]`).
///
/// # Panics
///
/// Panics if `xs` is empty or `p` is outside `[0, 100]`.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile requires data");
    assert!(
        (0.0..=100.0).contains(&p),
        "percentile requires 0 <= p <= 100"
    );
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("percentile requires non-NaN data"));
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    v[lo] * (1.0 - frac) + v[hi] * frac
}

/// Pearson linear correlation coefficient between two equal-length slices.
///
/// # Errors
///
/// Returns [`MathError::DimensionMismatch`] when lengths differ and
/// [`MathError::InvalidArgument`] when either input is constant (undefined
/// correlation).
pub fn pearson(xs: &[f64], ys: &[f64]) -> Result<f64> {
    if xs.len() != ys.len() {
        return Err(MathError::DimensionMismatch {
            expected: format!("{} samples", xs.len()),
            found: format!("{} samples", ys.len()),
        });
    }
    let mx = mean(xs);
    let my = mean(ys);
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        sxy += (x - mx) * (y - my);
        sxx += (x - mx) * (x - mx);
        syy += (y - my) * (y - my);
    }
    if sxx == 0.0 || syy == 0.0 {
        return Err(MathError::InvalidArgument(
            "correlation of a constant sequence is undefined".into(),
        ));
    }
    Ok(sxy / (sxx * syy).sqrt())
}

/// Spearman rank correlation coefficient.
///
/// Ties receive the average of their rank range.
///
/// # Errors
///
/// Same failure modes as [`pearson`].
pub fn spearman(xs: &[f64], ys: &[f64]) -> Result<f64> {
    pearson(&ranks(xs), &ranks(ys))
}

/// Average ranks (1-based) of the values in `xs`, with ties sharing the
/// mean rank of their run.
fn ranks(xs: &[f64]) -> Vec<f64> {
    let mut idx: Vec<usize> = (0..xs.len()).collect();
    idx.sort_by(|&a, &b| {
        xs[a]
            .partial_cmp(&xs[b])
            .expect("ranks require non-NaN data")
    });
    let mut out = vec![0.0; xs.len()];
    let mut i = 0;
    while i < idx.len() {
        let mut j = i;
        while j + 1 < idx.len() && xs[idx[j + 1]] == xs[idx[i]] {
            j += 1;
        }
        let avg_rank = (i + j) as f64 / 2.0 + 1.0;
        for &k in &idx[i..=j] {
            out[k] = avg_rank;
        }
        i = j + 1;
    }
    out
}

/// Log-density of the univariate normal distribution.
pub fn normal_logpdf(x: f64, mean: f64, std_dev: f64) -> f64 {
    let z = (x - mean) / std_dev;
    -0.5 * (LN_2PI + z * z) - std_dev.ln()
}

/// Standard normal cumulative distribution function Φ(x).
///
/// Uses the Abramowitz–Stegun 7.1.26 rational approximation of `erf`
/// (absolute error < 1.5e-7), which is ample for the bias/randomness
/// statistics computed in this workspace.
pub fn normal_cdf(x: f64) -> f64 {
    0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

/// Error function approximation (Abramowitz–Stegun 7.1.26).
fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let y = 1.0
        - (((((1.061_405_429 * t - 1.453_152_027) * t) + 1.421_413_741) * t - 0.284_496_736) * t
            + 0.254_829_592)
            * t
            * (-x * x).exp();
    sign * y
}

/// Multivariate normal log-density with a diagonal covariance given as
/// per-axis standard deviations.
pub fn diag_mvn_logpdf(x: &[f64], mean: &[f64], std_devs: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), mean.len());
    debug_assert_eq!(x.len(), std_devs.len());
    x.iter()
        .zip(mean)
        .zip(std_devs)
        .map(|((x, m), s)| normal_logpdf(*x, *m, *s))
        .sum()
}

/// The least `f64` whose libm `exp` is not `+0.0`: `exp` of anything
/// below it is under half the least subnormal (`e^x < 2⁻¹⁰⁷⁵` for
/// `x < −1075·ln 2 ≈ −745.1332`) and rounds to zero.
const EXP_ZERO_BELOW: f64 = -745.133_219_101_941_1;

/// [`f64::exp`] without the libm call where the result is `+0.0`: inputs
/// below [`EXP_ZERO_BELOW`] (and `-inf`) return `0.0`, every other input
/// (`NaN` included) goes to libm. The result is bit-identical to
/// `x.exp()` for every input. EM's log-responsibilities fall below the
/// cutoff for most far components, and each such libm call costs as
/// much as a real one.
#[inline]
fn exp_or_zero(x: f64) -> f64 {
    if x < EXP_ZERO_BELOW {
        0.0
    } else {
        x.exp()
    }
}

/// Inputs per block when gathering the ones that reach libm.
const EXP_BLOCK: usize = 64;

/// `f64::exp` over `xs`, in place and bit for bit, without calling libm
/// where the result is `+0.0` (inputs below about −745.13). Each block
/// first gathers the indices of the inputs that do reach libm, without a
/// branch per element, so the data-dependent cutoff costs no
/// mispredictions.
pub fn exp_or_zero_in_place(xs: &mut [f64]) {
    let mut live = [0u8; EXP_BLOCK];
    for block in xs.chunks_mut(EXP_BLOCK) {
        let mut n = 0;
        for (i, x) in block.iter_mut().enumerate() {
            let reaches_libm = !(*x < EXP_ZERO_BELOW);
            live[n] = i as u8;
            n += usize::from(reaches_libm);
            *x = if reaches_libm { *x } else { 0.0 };
        }
        for &i in &live[..n] {
            let x = &mut block[usize::from(i)];
            *x = exp_or_zero(*x);
        }
    }
}

/// Numerically stable `log(Σ exp(x_i))`.
///
/// Returns `-inf` for an empty slice. The result equals
/// `m + ln Σ exp(x − m)` with `m` the sequential [`max`] fold, the libm
/// `exp` and the sum folded in slice order, bit for bit, though none of
/// the three runs that way: the max runs in four lanes (the same value up
/// to the sign of a zero `m`, which cannot reach the result), and the sum
/// skips the terms whose `exp` is `+0.0` without calling libm (adding
/// `+0.0` to a nonzero partial sum is exact, and a sum of zeros has
/// `ln = -inf` at either sign).
pub fn log_sum_exp(xs: &[f64]) -> f64 {
    let mut lanes = [f64::NEG_INFINITY; 4];
    let blocks = xs.chunks_exact(4);
    // lint: reduction-order max is exact: any order gives the sequential fold's value
    for &x in blocks.remainder() {
        lanes[0] = lanes[0].max(x);
    }
    for block in blocks {
        for (lane, &x) in lanes.iter_mut().zip(block) {
            *lane = lane.max(x);
        }
    }
    let m = lanes[0].max(lanes[1]).max(lanes[2].max(lanes[3]));
    if m == f64::NEG_INFINITY {
        return f64::NEG_INFINITY;
    }
    let mut live = [0.0f64; EXP_BLOCK];
    let mut sum = std::iter::empty::<f64>().sum::<f64>();
    // lint: reduction-order slice order from `Iterator::sum`'s start value, zero terms skipped
    for block in xs.chunks(EXP_BLOCK) {
        let mut n = 0;
        for &x in block {
            let a = x - m;
            live[n] = a;
            n += usize::from(!(a < EXP_ZERO_BELOW));
        }
        for &a in &live[..n] {
            sum += exp_or_zero(a);
        }
    }
    m + sum.ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn basic_moments() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&xs), 5.0);
        assert!(approx_eq(variance(&xs), 32.0 / 7.0, 1e-12));
        assert_eq!(min(&xs), 2.0);
        assert_eq!(max(&xs), 9.0);
    }

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 50.0), 3.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.0), 1.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 100.0), 5.0);
    }

    #[test]
    fn pearson_perfect_and_anti() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [2.0, 4.0, 6.0, 8.0];
        assert!(approx_eq(pearson(&xs, &ys).unwrap(), 1.0, 1e-12));
        let zs = [8.0, 6.0, 4.0, 2.0];
        assert!(approx_eq(pearson(&xs, &zs).unwrap(), -1.0, 1e-12));
    }

    #[test]
    fn pearson_rejects_constant() {
        assert!(pearson(&[1.0, 1.0], &[2.0, 3.0]).is_err());
    }

    #[test]
    fn spearman_monotone_nonlinear() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        let ys: Vec<f64> = xs.iter().map(|x: &f64| x.exp()).collect();
        assert!(approx_eq(spearman(&xs, &ys).unwrap(), 1.0, 1e-12));
    }

    #[test]
    fn ranks_handle_ties() {
        let r = ranks(&[10.0, 20.0, 20.0, 30.0]);
        assert_eq!(r, vec![1.0, 2.5, 2.5, 4.0]);
    }

    #[test]
    fn normal_pdf_peak() {
        assert!(approx_eq(
            normal_logpdf(1.0, 0.0, 1.0),
            (0.241_970_724_5f64).ln(),
            1e-8
        ));
    }

    #[test]
    fn normal_cdf_reference_points() {
        assert!(approx_eq(normal_cdf(0.0), 0.5, 1e-7));
        assert!(approx_eq(normal_cdf(1.96), 0.975, 1e-3));
        assert!(approx_eq(normal_cdf(-1.96), 0.025, 1e-3));
    }

    #[test]
    fn mvn_matches_product_of_univariates_for_diagonal() {
        let expect = normal_logpdf(1.0, 0.0, 2.0) + normal_logpdf(-2.0, 1.0, 3.0);
        let lp2 = diag_mvn_logpdf(&[1.0, -2.0], &[0.0, 1.0], &[2.0, 3.0]);
        assert!(approx_eq(lp2, expect, 1e-12));
    }

    #[test]
    fn log_sum_exp_stability() {
        let xs = [-1000.0, -1000.0];
        assert!(approx_eq(log_sum_exp(&xs), -1000.0 + (2.0f64).ln(), 1e-9));
        assert_eq!(log_sum_exp(&[]), f64::NEG_INFINITY);
    }

    #[test]
    fn exp_or_zero_matches_libm_bit_for_bit() {
        let check = |x: f64| {
            let (got, want) = (exp_or_zero(x), x.exp());
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "exp({x:e}): {got:e} vs {want:e}"
            );
        };
        // Dense sweep over [-760, -700]: below, across and above the cutoff.
        for i in 0..=600_000 {
            check(-760.0 + 60.0 * f64::from(i) / 600_000.0);
        }
        // The cutoff and its neighbours, a few thousand ulp each way. If
        // a platform libm returns nonzero below the cutoff (or zero at
        // it), this fails rather than letting fits drift.
        let bits = EXP_ZERO_BELOW.to_bits();
        for d in 0..4096 {
            check(f64::from_bits(bits + d));
            check(f64::from_bits(bits - d));
        }
        let below = f64::from_bits(bits + 1);
        assert_eq!(below.exp(), 0.0, "libm exp({below:e}) is not zero");
        assert!(EXP_ZERO_BELOW.exp() > 0.0, "libm exp at the cutoff is zero");
        // Subnormal outputs: exp(x) < f64::MIN_POSITIVE for x below
        // about -708.40.
        let mut subnormal = 0;
        for i in 0..=200_000 {
            let x = -745.2 + 36.9 * f64::from(i) / 200_000.0;
            check(x);
            subnormal += usize::from(x.exp() > 0.0 && !x.exp().is_normal());
        }
        assert!(subnormal > 100_000, "sweep reached {subnormal} subnormals");
        for x in [
            0.0,
            -0.0,
            f64::NEG_INFINITY,
            f64::INFINITY,
            f64::NAN,
            -f64::NAN,
        ] {
            check(x);
        }
        assert_eq!(exp_or_zero(-1e300).to_bits(), 0);
    }

    #[test]
    fn gathered_exp_forms_match_the_sequential_libm_forms() {
        use crate::rng::{Pcg32, SampleExt};
        // The sequential forms they replace: a `max` fold and a libm `exp`
        // per element, summed in slice order.
        let lse_ref = |xs: &[f64]| {
            let m = max(xs);
            if m == f64::NEG_INFINITY {
                return f64::NEG_INFINITY;
            }
            m + xs.iter().map(|x| (x - m).exp()).sum::<f64>().ln()
        };
        // NaN payloads are not part of the contract: any NaN equals any NaN.
        let same = |a: f64, b: f64| a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan());
        let specials = [
            0.0,
            -0.0,
            f64::NEG_INFINITY,
            f64::INFINITY,
            f64::NAN,
            -745.2,
            -745.1,
        ];
        let mut rng = Pcg32::seed_from_u64(3);
        for case in 0..3000 {
            let len = case % 150;
            let spread = [1.0, 300.0, 800.0, 3000.0][case % 4];
            let mut xs: Vec<f64> = (0..len)
                .map(|_| rng.sample_uniform(-spread, 0.0) + rng.sample_normal(0.0, 1.0))
                .collect();
            if case % 5 == 0 && len > 0 {
                for _ in 0..3 {
                    let i = rng.sample_index(len);
                    xs[i] = specials[rng.sample_index(specials.len())];
                }
            }
            if case % 7 == 0 {
                xs.iter_mut()
                    .for_each(|x| *x = if *x < -1.0 { -0.0 } else { 0.0 });
            }
            let (got, want) = (log_sum_exp(&xs), lse_ref(&xs));
            assert!(same(got, want), "case {case}: {got} vs {want} on {xs:?}");
            let mut got = xs.clone();
            exp_or_zero_in_place(&mut got);
            for (g, x) in got.iter().zip(&xs) {
                assert!(same(*g, x.exp()), "case {case}: exp({x}) = {g}");
            }
        }
    }
}
