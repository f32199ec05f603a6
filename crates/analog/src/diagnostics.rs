//! Shape diagnostics behind the paper's Fig. 2(b–d).
//!
//! - [`fit_gaussian_1d`] quantifies how Gaussian-like a measured bell curve
//!   is (Fig. 2(b)),
//! - [`rectilinearity`] and [`superellipse_exponent`] quantify the contour
//!   shape of 2-D kernels: 2.0 for elliptical (Gaussian) contours, larger
//!   as the contours square off toward the HMG's rectilinear tails
//!   (Fig. 2(c,d)).

use crate::{AnalogError, Result};

/// Result of a least-squares Gaussian fit to samples of a bell curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaussianFit {
    /// Fitted centre.
    pub mean: f64,
    /// Fitted standard deviation.
    pub sigma: f64,
    /// Fitted peak amplitude.
    pub amplitude: f64,
    /// Coefficient of determination of the fit in the linear domain.
    pub r_squared: f64,
}

/// Fits `y ≈ A·exp(−(x−μ)²/2σ²)` by Caruana's method: a weighted parabola
/// fit to `ln y` (weights `y²` emphasize the bell core and de-emphasize the
/// noisy tail).
///
/// # Errors
///
/// Returns [`AnalogError::InvalidArgument`] for fewer than 4 samples,
/// non-positive `y` values, or data without curvature (no bell).
pub fn fit_gaussian_1d(xs: &[f64], ys: &[f64]) -> Result<GaussianFit> {
    if xs.len() != ys.len() || xs.len() < 4 {
        return Err(AnalogError::InvalidArgument(
            "gaussian fit requires at least 4 matched samples".into(),
        ));
    }
    if ys.iter().any(|&y| y <= 0.0) {
        return Err(AnalogError::InvalidArgument(
            "gaussian fit requires positive samples".into(),
        ));
    }
    // Weighted normal equations for ln y = a + b x + c x².
    let mut s = [[0.0f64; 3]; 3];
    let mut t = [0.0f64; 3];
    for (&x, &y) in xs.iter().zip(ys) {
        let w = y * y;
        let ln_y = y.ln();
        let basis = [1.0, x, x * x];
        for i in 0..3 {
            for j in 0..3 {
                s[i][j] += w * basis[i] * basis[j];
            }
            t[i] += w * basis[i] * ln_y;
        }
    }
    let m = navicim_math::linalg::Matrix::from_rows(&[&s[0][..], &s[1][..], &s[2][..]])
        .expect("3x3 system");
    let coef = m
        .solve(&t)
        .map_err(|_| AnalogError::InvalidArgument("degenerate gaussian fit system".into()))?;
    let (a, b, c) = (coef[0], coef[1], coef[2]);
    if c >= 0.0 {
        return Err(AnalogError::InvalidArgument(
            "data has no downward curvature; not a bell".into(),
        ));
    }
    let sigma = (-1.0 / (2.0 * c)).sqrt();
    let mean = -b / (2.0 * c);
    let amplitude = (a - b * b / (4.0 * c)).exp();

    // R² in the linear domain.
    let mean_y: f64 = ys.iter().sum::<f64>() / ys.len() as f64;
    let mut ss_res = 0.0;
    let mut ss_tot = 0.0;
    for (&x, &y) in xs.iter().zip(ys) {
        let pred = amplitude * (-0.5 * ((x - mean) / sigma).powi(2)).exp();
        ss_res += (y - pred) * (y - pred);
        ss_tot += (y - mean_y) * (y - mean_y);
    }
    let r_squared = if ss_tot > 0.0 {
        1.0 - ss_res / ss_tot
    } else {
        0.0
    };
    Ok(GaussianFit {
        mean,
        sigma,
        amplitude,
        r_squared,
    })
}

/// Distance from `center` along unit `direction` at which `f` first drops
/// below `level`, or `None` within `max_r`.
fn contour_crossing<F>(
    f: F,
    center: (f64, f64),
    direction: (f64, f64),
    level: f64,
    max_r: f64,
) -> Option<f64>
where
    F: Fn(f64, f64) -> f64,
{
    let norm = (direction.0 * direction.0 + direction.1 * direction.1).sqrt();
    let (dx, dy) = (direction.0 / norm, direction.1 / norm);
    let step = max_r / 4000.0;
    let mut r = 0.0;
    while r <= max_r {
        if f(center.0 + r * dx, center.1 + r * dy) < level {
            return Some(r);
        }
        r += step;
    }
    None
}

/// Ratio of the diagonal to the axis contour-crossing distance for a 2-D
/// kernel centred at `center`, measured at `level`.
///
/// 1.0 for circular/elliptical contours; √2 in the rectilinear (square)
/// limit of HMG tails.
///
/// # Errors
///
/// Returns [`AnalogError::InvalidArgument`] when either crossing is not
/// found within `max_r`.
pub fn rectilinearity<F>(f: F, center: (f64, f64), level: f64, max_r: f64) -> Result<f64>
where
    F: Fn(f64, f64) -> f64,
{
    let axis = contour_crossing(&f, center, (1.0, 0.0), level, max_r)
        .ok_or_else(|| AnalogError::InvalidArgument("axis contour crossing not found".into()))?;
    let diag = contour_crossing(&f, center, (1.0, 1.0), level, max_r).ok_or_else(|| {
        AnalogError::InvalidArgument("diagonal contour crossing not found".into())
    })?;
    if axis <= 0.0 {
        return Err(AnalogError::InvalidArgument(
            "contour collapses at the centre".into(),
        ));
    }
    Ok(diag / axis)
}

/// Superellipse exponent `p` implied by a [`rectilinearity`] ratio: the
/// contour `|x/a|^p + |y/a|^p = 1` has diagonal/axis ratio `√2·2^(−1/p)`.
///
/// `p = 2` is an ellipse; `p → ∞` is the rectilinear square.
///
/// # Errors
///
/// Returns [`AnalogError::InvalidArgument`] for ratios outside `(0, √2)`.
pub fn superellipse_exponent(ratio: f64) -> Result<f64> {
    let sqrt2 = std::f64::consts::SQRT_2;
    if !(ratio > 0.0 && ratio < sqrt2) {
        return Err(AnalogError::InvalidArgument(format!(
            "ratio must lie in (0, √2), got {ratio}"
        )));
    }
    Ok(std::f64::consts::LN_2 / (sqrt2 / ratio).ln())
}

#[cfg(test)]
mod tests {
    use super::*;
    use navicim_device::inverter::GaussianLikeCell;
    use navicim_device::params::TechParams;
    use navicim_math::approx_eq;

    #[test]
    fn fit_recovers_exact_gaussian() {
        let (mu, sigma, amp) = (0.4, 0.07, 2.5e-6);
        let xs: Vec<f64> = (0..80).map(|i| 0.1 + i as f64 * 0.0075).collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|&x| amp * f64::exp(-0.5 * ((x - mu) / sigma).powi(2)))
            .collect();
        let fit = fit_gaussian_1d(&xs, &ys).unwrap();
        assert!(approx_eq(fit.mean, mu, 1e-6));
        assert!(approx_eq(fit.sigma, sigma, 1e-6));
        assert!(approx_eq(fit.amplitude, amp, 1e-6));
        assert!(fit.r_squared > 0.999_999);
    }

    #[test]
    fn fit_rejects_bad_input() {
        assert!(fit_gaussian_1d(&[0.0, 1.0], &[1.0, 2.0]).is_err());
        assert!(fit_gaussian_1d(&[0.0, 1.0, 2.0, 3.0], &[1.0, -1.0, 1.0, 1.0]).is_err());
        // Upward curvature (valley) is not a bell.
        let xs = [0.0, 1.0, 2.0, 3.0, 4.0];
        let ys: Vec<f64> = xs
            .iter()
            .map(|&x| f64::exp((x - 2.0) * (x - 2.0)))
            .collect();
        assert!(fit_gaussian_1d(&xs, &ys).is_err());
    }

    #[test]
    fn inverter_bell_is_gaussian_like() {
        // The paper's Fig. 2(b): the device bell fits a Gaussian with high
        // R² over its core.
        let tech = TechParams::cmos_45nm();
        let cell = GaussianLikeCell::with_center(&tech, 0.5);
        let sigma = cell.effective_sigma();
        let xs: Vec<f64> = (0..121)
            .map(|i| 0.5 + (i as f64 - 60.0) / 60.0 * 2.5 * sigma)
            .collect();
        let ys: Vec<f64> = xs.iter().map(|&x| cell.current(x)).collect();
        let fit = fit_gaussian_1d(&xs, &ys).unwrap();
        assert!(fit.r_squared > 0.97, "R² = {}", fit.r_squared);
        assert!(approx_eq(fit.mean, 0.5, 0.02));
    }

    #[test]
    fn gaussian_contours_are_circular() {
        let g = |x: f64, y: f64| f64::exp(-0.5 * (x * x + y * y));
        let ratio = rectilinearity(g, (0.0, 0.0), g(2.5, 0.0), 8.0).unwrap();
        assert!(approx_eq(ratio, 1.0, 0.01), "ratio {ratio}");
        let p = superellipse_exponent(ratio).unwrap();
        assert!((p - 2.0).abs() < 0.1, "exponent {p}");
    }

    #[test]
    fn hmg_contours_are_rectilinear() {
        // Harmonic composition of two unit Gaussians.
        let h = |x: f64, y: f64| {
            let g1 = f64::exp(-0.5 * x * x).max(1e-300);
            let g2 = f64::exp(-0.5 * y * y).max(1e-300);
            2.0 / (1.0 / g1 + 1.0 / g2)
        };
        let ratio = rectilinearity(h, (0.0, 0.0), h(3.0, 0.0), 10.0).unwrap();
        assert!(ratio > 1.2, "ratio {ratio}");
        let p = superellipse_exponent(ratio).unwrap();
        assert!(p > 4.0, "exponent {p} should be far above the ellipse's 2");
    }

    #[test]
    fn device_2d_contours_squarer_than_gaussian() {
        // Fig. 2(c,d) on the actual device model: the two-input inverter's
        // iso-current contours are measurably more rectilinear than the
        // product-Gaussian reference.
        let tech = TechParams::cmos_45nm();
        let a = GaussianLikeCell::with_center(&tech, 0.5);
        let b = GaussianLikeCell::with_center(&tech, 0.5);
        let dev = move |x: f64, y: f64| 1.0 / (1.0 / a.current(x) + 1.0 / b.current(y));
        let level = dev(0.5 + 0.25, 0.5);
        let ratio = rectilinearity(dev, (0.5, 0.5), level, 0.5).unwrap();
        assert!(ratio > 1.15, "device ratio {ratio}");
    }

    #[test]
    fn crossing_none_when_level_too_low() {
        let g = |x: f64, y: f64| f64::exp(-0.5 * (x * x + y * y));
        assert!(contour_crossing(g, (0.0, 0.0), (1.0, 0.0), 1e-30, 1.0).is_none());
    }

    #[test]
    fn superellipse_exponent_bounds() {
        assert!(superellipse_exponent(0.0).is_err());
        assert!(superellipse_exponent(1.5).is_err());
        assert!(superellipse_exponent(1.0).unwrap() - 2.0 < 1e-12);
    }
}
