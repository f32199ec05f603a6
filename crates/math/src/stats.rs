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

/// Numerically stable `log(Σ exp(x_i))`.
///
/// Returns `-inf` for an empty slice.
pub fn log_sum_exp(xs: &[f64]) -> f64 {
    let m = max(xs);
    if m == f64::NEG_INFINITY {
        return f64::NEG_INFINITY;
    }
    m + xs.iter().map(|x| (x - m).exp()).sum::<f64>().ln()
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
}
