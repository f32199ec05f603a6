//! Harmonic-Mean-of-Gaussian (HMG) kernels and mixtures.
//!
//! The switching current of the paper's multi-input inverter composes
//! per-axis Gaussian-like bells through a harmonic combination
//! `1/(1/g₁ + 1/g₂ + 1/g₃)` — *not* through the product that would yield a
//! multivariate Gaussian. The co-design insight of Section II is to learn
//! the 3-D map directly in this hardware-native family, so that likelihood
//! evaluation becomes a single analog read.
//!
//! This module defines the mathematical kernel ([`HmgKernel`]), mixtures of
//! it ([`HmgmModel`]) and a responsibility-reweighting fitter seeded from a
//! diagonal GMM ([`fit_hmgm`], or [`fit_hmgm_from`] given an already fitted
//! one).

use crate::fit::{fit_diag_gmm, FitConfig, Moments};
use crate::gaussian::Gmm;
use crate::{check_dims, GmmError, Result};
use navicim_math::rng::Rng64;
use navicim_math::simd::exp_fast;

/// One Harmonic-Mean-of-Gaussian kernel.
///
/// Each axis `i` carries an unnormalized Gaussian
/// `gᵢ(x) = exp(−(xᵢ−μᵢ)²/(2σᵢ²))`; the kernel value is the harmonic mean
/// `d / Σᵢ 1/gᵢ(x)` scaled by `amplitude`, so the peak value equals
/// `amplitude` at `x = μ`.
///
/// ```
/// use navicim_gmm::hmg::HmgKernel;
/// let k = HmgKernel::new(vec![0.0, 0.0], vec![1.0, 1.0], 2.0).unwrap();
/// assert!((k.eval(&[0.0, 0.0]) - 2.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct HmgKernel {
    means: Vec<f64>,
    sigmas: Vec<f64>,
    amplitude: f64,
}

impl HmgKernel {
    /// Creates a kernel from per-axis means and sigmas and a peak
    /// amplitude.
    ///
    /// # Errors
    ///
    /// Returns [`GmmError::InvalidArgument`] for empty/mismatched
    /// parameters, non-positive sigmas or a non-positive amplitude.
    pub fn new(means: Vec<f64>, sigmas: Vec<f64>, amplitude: f64) -> Result<Self> {
        if means.is_empty() || means.len() != sigmas.len() {
            return Err(GmmError::InvalidArgument(
                "means and sigmas must have the same non-zero length".into(),
            ));
        }
        if sigmas.iter().any(|&s| !(s > 0.0) || !s.is_finite()) {
            return Err(GmmError::InvalidArgument("sigmas must be positive".into()));
        }
        if !(amplitude > 0.0) || !amplitude.is_finite() {
            return Err(GmmError::InvalidArgument(
                "amplitude must be positive".into(),
            ));
        }
        Ok(Self {
            means,
            sigmas,
            amplitude,
        })
    }

    /// Kernel dimensionality.
    pub fn dim(&self) -> usize {
        self.means.len()
    }

    /// Per-axis means.
    pub fn means(&self) -> &[f64] {
        &self.means
    }

    /// Per-axis sigmas.
    pub fn sigmas(&self) -> &[f64] {
        &self.sigmas
    }

    /// Peak amplitude.
    pub fn amplitude(&self) -> f64 {
        self.amplitude
    }

    /// Per-axis Gaussian factor `gᵢ(xᵢ)` (in `(0, 1]`).
    ///
    /// Uses [`exp_fast`], so the whole HMG path carries its documented
    /// ulp-bounded tolerance relative to a `f64::exp` reference.
    fn axis_factor(&self, axis: usize, x: f64) -> f64 {
        let z = (x - self.means[axis]) / self.sigmas[axis];
        exp_fast(-0.5 * z * z)
    }

    /// Evaluates the kernel at `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the kernel dimension.
    pub fn eval(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.dim(), "query dimension mismatch");
        harmonic_eval(&self.means, &self.sigmas, self.amplitude, x)
    }

    /// Evaluates the corresponding *product* (true multivariate Gaussian)
    /// kernel at `x`, used for tail-shape comparisons (paper Fig. 2(c,d)).
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the kernel dimension.
    pub fn eval_product(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.dim(), "query dimension mismatch");
        let mut prod = self.amplitude;
        for (i, &xi) in x.iter().enumerate() {
            prod *= self.axis_factor(i, xi);
        }
        prod
    }
}

/// The HMG kernel value `amplitude · d / Σᵢ 1/max(gᵢ(xᵢ), 1e-300)` over
/// the `d` axes of `means`, in axis order: [`HmgKernel::eval`] and the
/// fitter's refinement rounds share it, so both compute the same bits.
fn harmonic_eval(means: &[f64], sigmas: &[f64], amplitude: f64, x: &[f64]) -> f64 {
    let d = means.len() as f64;
    let mut inv_sum = 0.0;
    for ((&xi, &mu), &sigma) in x.iter().zip(means).zip(sigmas) {
        inv_sum += inverse_factor(xi, mu, sigma);
    }
    amplitude * d / inv_sum
}

/// Exponents below this give `exp_fast(·) < 1e-300`, where the axis
/// factor's floor wins: clamping to it changes no result, and keeps
/// `exp_fast` out of its subnormal range, where each vector multiply
/// takes a microcode assist.
const FACTOR_EXPONENT_FLOOR: f64 = -700.0;

/// One axis's `1 / max(gᵢ(xᵢ), 1e-300)`, the summand of
/// `harmonic_eval`.
#[inline(always)]
fn inverse_factor(x: f64, mu: f64, sigma: f64) -> f64 {
    let z = (x - mu) / sigma;
    1.0 / exp_fast((-0.5 * z * z).max(FACTOR_EXPONENT_FLOOR)).max(1e-300)
}

/// A mixture of HMG kernels: the co-designed map model of Section II.
///
/// It is served as inverter-array currents (`navicim_analog::engine`
/// programs the array from it); its scalar `Self::likelihood` is the
/// ideal reference the CIM evaluation is tested against.
#[derive(Debug, Clone, PartialEq)]
pub struct HmgmModel {
    weights: Vec<f64>,
    kernels: Vec<HmgKernel>,
}

impl HmgmModel {
    /// Assembles a mixture from weights and kernels.
    ///
    /// # Errors
    ///
    /// Returns [`GmmError::InvalidArgument`] for mismatched lengths,
    /// negative weights or inconsistent kernel dimensions.
    pub fn new(weights: Vec<f64>, kernels: Vec<HmgKernel>) -> Result<Self> {
        if weights.is_empty() || weights.len() != kernels.len() {
            return Err(GmmError::InvalidArgument(
                "weights and kernels must have the same non-zero length".into(),
            ));
        }
        if weights.iter().any(|&w| w < 0.0 || !w.is_finite()) {
            return Err(GmmError::InvalidArgument(
                "weights must be non-negative".into(),
            ));
        }
        let dim = kernels[0].dim();
        if kernels.iter().any(|k| k.dim() != dim) {
            return Err(GmmError::InconsistentDimensions);
        }
        Ok(Self { weights, kernels })
    }

    /// Number of mixture components.
    pub fn num_components(&self) -> usize {
        self.kernels.len()
    }

    /// Model dimensionality.
    pub fn dim(&self) -> usize {
        self.kernels[0].dim()
    }

    /// Mixture weights (unnormalized: analog currents add directly).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Mixture kernels.
    pub fn kernels(&self) -> &[HmgKernel] {
        &self.kernels
    }

    /// Unnormalized mixture likelihood `Σₖ wₖ hₖ(x)`.
    ///
    /// Unlike a GMM density this does not integrate to one — it models the
    /// total column current of the inverter array, which is proportional to
    /// the map likelihood. Particle-filter weights are normalized
    /// downstream, so only relative values matter.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the model dimension.
    fn likelihood(&self, x: &[f64]) -> f64 {
        let mut total = 0.0;
        for (w, k) in self.weights.iter().zip(&self.kernels) {
            total = w.mul_add(k.eval(x), total);
        }
        total
    }

    /// Natural log of `Self::likelihood`, floored to stay finite.
    pub fn log_likelihood(&self, x: &[f64]) -> f64 {
        self.likelihood(x).max(1e-300).ln()
    }
}

/// Configuration of the HMGM fitter.
#[derive(Debug, Clone, PartialEq)]
pub struct HmgmFitConfig {
    /// Configuration of the GMM warm start.
    pub gmm: FitConfig,
    /// Responsibility-reweighting refinement rounds on the HMG family.
    pub refine_iters: usize,
    /// Sigma floor, matching the narrowest kernel the hardware can
    /// realize.
    pub sigma_floor: f64,
    /// Optional sigma ceiling imposed by the device's conduction window
    /// (`None` = unconstrained).
    pub sigma_ceiling: Option<f64>,
    /// Optional per-axis floors overriding `sigma_floor` (voltage scales
    /// differ per axis on real arrays).
    pub sigma_floor_axes: Option<Vec<f64>>,
    /// Optional per-axis ceilings overriding `sigma_ceiling`.
    pub sigma_ceiling_axes: Option<Vec<f64>>,
}

impl Default for HmgmFitConfig {
    fn default() -> Self {
        Self {
            gmm: FitConfig::default(),
            refine_iters: 10,
            sigma_floor: 1e-3,
            sigma_ceiling: None,
            sigma_floor_axes: None,
            sigma_ceiling_axes: None,
        }
    }
}

/// Fits an HMG mixture to data: a diagonal-GMM warm start
/// ([`fit_diag_gmm`] with `config.gmm`, drawing from `rng`) refined by
/// [`fit_hmgm_from`]. The refinement draws nothing from `rng`.
///
/// # Errors
///
/// Propagates warm-start and refinement errors.
pub fn fit_hmgm<R: Rng64 + ?Sized>(
    points: &[Vec<f64>],
    k: usize,
    config: &HmgmFitConfig,
    rng: &mut R,
) -> Result<HmgmModel> {
    let gmm = fit_diag_gmm(points, k, &config.gmm, rng)?;
    fit_hmgm_from(&gmm, points, config)
}

/// Refines a fitted diagonal GMM into an HMG mixture of the same
/// component count by responsibility reweighting in the HMG family.
///
/// The refinement computes responsibilities with the HMG kernels themselves
/// (`r_nk ∝ w_k h_k(x_n)`) and re-estimates means/sigmas/weights from them —
/// the approximate EM used because HMG kernels lack a closed-form
/// normalizer. Hardware constraints enter through the sigma floor/ceiling;
/// `config.gmm` is not read (the warm start is already fitted).
///
/// # Errors
///
/// Returns [`GmmError::InconsistentDimensions`] when `points` do not match
/// the warm start's dimension, and propagates kernel validation errors (a sigma clamped to
/// a non-positive floor).
pub fn fit_hmgm_from(gmm: &Gmm, points: &[Vec<f64>], config: &HmgmFitConfig) -> Result<HmgmModel> {
    let dim = check_dims(points)?;
    if dim != gmm.dim() {
        return Err(GmmError::InconsistentDimensions);
    }
    let sds = gmm.diag_std_devs();
    let k = gmm.num_components();

    let clamp_sigma = |s: f64, axis: usize| {
        let floor = config
            .sigma_floor_axes
            .as_ref()
            .and_then(|f| f.get(axis).copied())
            .unwrap_or(config.sigma_floor);
        let ceiling = config
            .sigma_ceiling_axes
            .as_ref()
            .and_then(|c| c.get(axis).copied())
            .or(config.sigma_ceiling);
        let s = s.max(floor);
        match ceiling {
            Some(c) => s.min(c.max(floor)),
            None => s,
        }
    };

    // Means and clamped sigmas, axis-major (`[d·k + j]`) so each axis's
    // factors vectorize across components.
    let mut weights = gmm.weights().to_vec();
    let mut means = vec![0.0; dim * k];
    let mut sigmas = vec![0.0; dim * k];
    for (j, (mean, sd)) in gmm.means().iter().zip(&sds).enumerate() {
        for d in 0..dim {
            means[d * k + j] = mean[d];
            sigmas[d * k + j] = clamp_sigma(sd[d], d);
        }
    }

    let n = points.len();
    let dim_f = dim as f64;
    // Responsibilities, one row of `k` per point, reused every round.
    let mut resp = vec![0.0f64; n * k];
    let mut moments = Moments::new(k, dim);
    for _round in 0..config.refine_iters {
        // Responsibilities under the HMG kernels: `harmonic_eval` for all
        // components at once, each summing its axes in the same order and
        // from the same start, so the two agree bit for bit.
        for (p, row) in points.iter().zip(resp.chunks_exact_mut(k)) {
            row.fill(0.0);
            // lint: reduction-order one accumulator per component, folded in axis order from 0.0 like `harmonic_eval`
            for (d, &x) in p.iter().enumerate() {
                let axis = d * k..(d + 1) * k;
                let consts = means[axis.clone()].iter().zip(&sigmas[axis]);
                for (inv_sum, (&mu, &sigma)) in row.iter_mut().zip(consts) {
                    *inv_sum += inverse_factor(x, mu, sigma);
                }
            }
            // `w · (amplitude · d / inv_sum)` at amplitude 1, where
            // `1.0 · d` is `d` exactly.
            for (v, &w) in row.iter_mut().zip(&weights) {
                *v = w * (dim_f / *v);
            }
            let mut total = 0.0;
            // lint: reduction-order component order
            for &v in row.iter() {
                total += v;
            }
            if total > 0.0 {
                for r in row.iter_mut() {
                    *r /= total;
                }
            } else {
                // Point far from every kernel: uniform responsibility.
                row.fill(1.0 / k as f64);
            }
        }
        // Reweighted parameter updates; a starved kernel keeps its
        // previous parameters.
        moments.first(points, &resp);
        moments.second(points, &resp);
        for (j, &nk) in moments.nk.iter().enumerate() {
            if nk < 1e-9 {
                continue;
            }
            weights[j] = nk / n as f64;
            for d in 0..dim {
                means[d * k + j] = moments.mean[d * k + j];
                sigmas[d * k + j] = clamp_sigma(moments.var[d * k + j].sqrt(), d);
            }
        }
    }

    let kernels = (0..k)
        .map(|j| {
            let axes = |v: &[f64]| (0..dim).map(|d| v[d * k + j]).collect();
            HmgKernel::new(axes(&means), axes(&sigmas), 1.0)
        })
        .collect::<Result<Vec<_>>>()?;
    HmgmModel::new(weights, kernels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use navicim_math::approx_eq;
    use navicim_math::rng::{Pcg32, SampleExt};

    fn kernel2d() -> HmgKernel {
        HmgKernel::new(vec![0.0, 0.0], vec![1.0, 1.0], 1.0).unwrap()
    }

    #[test]
    fn kernel_validation() {
        assert!(HmgKernel::new(vec![], vec![], 1.0).is_err());
        assert!(HmgKernel::new(vec![0.0], vec![0.0], 1.0).is_err());
        assert!(HmgKernel::new(vec![0.0], vec![1.0], 0.0).is_err());
        assert!(HmgKernel::new(vec![0.0], vec![1.0, 2.0], 1.0).is_err());
    }

    #[test]
    fn peak_at_mean_equals_amplitude() {
        let k = HmgKernel::new(vec![1.0, -2.0, 0.5], vec![0.3, 0.4, 0.5], 3.5).unwrap();
        assert!(approx_eq(k.eval(&[1.0, -2.0, 0.5]), 3.5, 1e-12));
    }

    #[test]
    fn kernel_decays_from_mean() {
        let k = kernel2d();
        let peak = k.eval(&[0.0, 0.0]);
        assert!(k.eval(&[0.5, 0.0]) < peak);
        assert!(k.eval(&[1.0, 1.0]) < k.eval(&[0.5, 0.5]));
    }

    #[test]
    fn hmg_equals_gaussian_in_1d() {
        // With a single axis, harmonic mean of one factor is the factor.
        let k = HmgKernel::new(vec![0.0], vec![1.0], 1.0).unwrap();
        for &x in &[-2.0, -0.5, 0.0, 1.0, 2.5] {
            let g = f64::exp(-0.5 * x * x);
            assert!(approx_eq(k.eval(&[x]), g, 1e-12));
        }
    }

    #[test]
    fn hmg_tails_heavier_than_product() {
        // h = 2 g₁g₂/(g₁+g₂) and p = g₁g₂, so h/p = 2/(g₁+g₂) ≥ 1: the HMG
        // tail always sits above the product-Gaussian tail, and the excess
        // is largest on the diagonal where both factors are small.
        let k = kernel2d();
        let axis = [3.0, 0.0];
        let diag = [3.0 / 2f64.sqrt(), 3.0 / 2f64.sqrt()];
        assert!(k.eval(&axis) > k.eval_product(&axis));
        assert!(k.eval(&diag) > k.eval_product(&diag));
        let ratio_axis = k.eval(&axis) / k.eval_product(&axis);
        let ratio_diag = k.eval(&diag) / k.eval_product(&diag);
        assert!(ratio_diag > ratio_axis);
    }

    #[test]
    fn rectilinear_contours() {
        // The harmonic mean acts like a min: {h > L} ≈ {|x| < r} ∩ {|y| < r},
        // a rectangle. Its iso-contours therefore bulge toward the corners —
        // the diagonal crossing sits up to √2 farther out than the axis
        // crossing, unlike a Gaussian's circular contour (equal radii).
        // This is the paper's Fig. 2(c,d) "rectilinear tails" observation.
        let k = kernel2d();
        let level = k.eval(&[3.0, 0.0]); // contour through (3, 0)
                                         // Find the diagonal crossing of the same level.
        let mut r = 0.0;
        while k.eval(&[r / 2f64.sqrt(), r / 2f64.sqrt()]) > level {
            r += 0.01;
        }
        assert!(
            r > 3.0 * 1.2 && r < 3.0 * 2f64.sqrt(),
            "diagonal crossing {r} should push out toward the square corner"
        );
        // The product (true Gaussian) contour crosses the diagonal at the
        // same radius as the axis — circular.
        let plevel = k.eval_product(&[3.0, 0.0]);
        let mut rp = 0.0;
        while k.eval_product(&[rp / 2f64.sqrt(), rp / 2f64.sqrt()]) > plevel {
            rp += 0.01;
        }
        assert!((rp - 3.0).abs() < 0.05, "gaussian contour radius {rp}");
    }

    #[test]
    fn mixture_likelihood_sums_components() {
        let k1 = HmgKernel::new(vec![0.0], vec![1.0], 1.0).unwrap();
        let k2 = HmgKernel::new(vec![5.0], vec![1.0], 1.0).unwrap();
        let m = HmgmModel::new(vec![2.0, 1.0], vec![k1.clone(), k2.clone()]).unwrap();
        let x = [1.0];
        assert!(approx_eq(
            m.likelihood(&x),
            2.0 * k1.eval(&x) + k2.eval(&x),
            1e-12
        ));
    }

    #[test]
    fn mixture_validation() {
        let k1 = HmgKernel::new(vec![0.0], vec![1.0], 1.0).unwrap();
        let k2 = HmgKernel::new(vec![0.0, 1.0], vec![1.0, 1.0], 1.0).unwrap();
        assert!(HmgmModel::new(vec![1.0], vec![]).is_err());
        assert!(HmgmModel::new(vec![-1.0], vec![k1.clone()]).is_err());
        assert!(HmgmModel::new(vec![1.0, 1.0], vec![k1, k2]).is_err());
    }

    #[test]
    fn fit_recovers_blob_locations() {
        let mut rng = Pcg32::seed_from_u64(1);
        let mut pts = Vec::new();
        for _ in 0..300 {
            pts.push(vec![
                rng.sample_normal(-1.0, 0.2),
                rng.sample_normal(0.0, 0.2),
            ]);
            pts.push(vec![
                rng.sample_normal(2.0, 0.3),
                rng.sample_normal(3.0, 0.3),
            ]);
        }
        let mut rng2 = Pcg32::seed_from_u64(2);
        let model = fit_hmgm(&pts, 2, &HmgmFitConfig::default(), &mut rng2).unwrap();
        let mut means: Vec<&[f64]> = model.kernels().iter().map(|k| k.means()).collect();
        means.sort_by(|a, b| a[0].partial_cmp(&b[0]).unwrap());
        assert!((means[0][0] + 1.0).abs() < 0.2, "{means:?}");
        assert!((means[1][0] - 2.0).abs() < 0.2, "{means:?}");
        // Likelihood is highest at blob centers.
        assert!(model.likelihood(&[-1.0, 0.0]) > model.likelihood(&[0.5, 1.5]));
        assert!(model.likelihood(&[2.0, 3.0]) > model.likelihood(&[0.5, 1.5]));
    }

    #[test]
    fn fit_from_warm_start_equals_fit() {
        // `fit_hmgm` is its diagonal warm start plus `fit_hmgm_from`, and
        // the refinement draws nothing more from the RNG.
        let mut rng = Pcg32::seed_from_u64(5);
        let pts: Vec<Vec<f64>> = (0..240)
            .map(|i| {
                let c = (i % 3) as f64;
                vec![
                    rng.sample_normal(2.0 * c, 0.3),
                    rng.sample_normal(-c, 0.4),
                    rng.sample_normal(0.5 * c, 0.2),
                ]
            })
            .collect();
        let configs = [
            HmgmFitConfig::default(),
            HmgmFitConfig {
                sigma_floor_axes: Some(vec![0.2, 0.1, 0.05]),
                sigma_ceiling_axes: Some(vec![0.3, 0.5, 0.25]),
                refine_iters: 4,
                ..HmgmFitConfig::default()
            },
        ];
        for config in &configs {
            for (seed, k) in [(1, 2), (2, 3), (3, 5)] {
                let mut a = Pcg32::seed_from_u64(seed);
                let mut b = Pcg32::seed_from_u64(seed);
                let gmm = fit_diag_gmm(&pts, k, &config.gmm, &mut a).unwrap();
                let from = fit_hmgm_from(&gmm, &pts, config).unwrap();
                let whole = fit_hmgm(&pts, k, config, &mut b).unwrap();
                assert_eq!(from, whole, "seed {seed}, k {k}");
                assert_eq!(a.next_u64(), b.next_u64(), "RNGs left in step");
            }
        }
    }

    /// `fit_hmgm_from`'s refinement as it was before the one-pass M-step,
    /// kept as its oracle: per point and component the unclamped
    /// harmonic value, then per component `1 + 2·dim` sequential `.sum()`
    /// passes over the responsibility rows. `seen` counts the
    /// responsibilities that are zero and the subnormal ones.
    fn fit_hmgm_from_reference(
        gmm: &Gmm,
        points: &[Vec<f64>],
        config: &HmgmFitConfig,
        seen: &mut [usize; 2],
    ) -> HmgmModel {
        let (dim, k, n) = (gmm.dim(), gmm.num_components(), points.len());
        let clamp_sigma = |s: f64, axis: usize| {
            let floor = config
                .sigma_floor_axes
                .as_ref()
                .map_or(config.sigma_floor, |f| f[axis]);
            let s = s.max(floor);
            match config
                .sigma_ceiling_axes
                .as_ref()
                .map(|c| c[axis])
                .or(config.sigma_ceiling)
            {
                Some(c) => s.min(c.max(floor)),
                None => s,
            }
        };
        let mut weights = gmm.weights().to_vec();
        let mut means = gmm.means().to_vec();
        let mut sigmas: Vec<Vec<f64>> = gmm
            .diag_std_devs()
            .iter()
            .map(|row| {
                row.iter()
                    .enumerate()
                    .map(|(d, &s)| clamp_sigma(s, d))
                    .collect()
            })
            .collect();
        let harmonic = |means: &[f64], sigmas: &[f64], x: &[f64]| {
            let mut inv_sum = 0.0;
            for ((&xi, &mu), &sigma) in x.iter().zip(means).zip(sigmas) {
                let z = (xi - mu) / sigma;
                inv_sum += 1.0 / exp_fast(-0.5 * z * z).max(1e-300);
            }
            1.0 * dim as f64 / inv_sum
        };
        let mut resp = vec![0.0f64; n * k];
        for _round in 0..config.refine_iters {
            for (p, row) in points.iter().zip(resp.chunks_exact_mut(k)) {
                let mut total = 0.0;
                for j in 0..k {
                    let v = weights[j] * harmonic(&means[j], &sigmas[j], p);
                    row[j] = v;
                    total += v;
                }
                if total > 0.0 {
                    for r in row.iter_mut() {
                        *r /= total;
                        seen[0] += usize::from(*r == 0.0);
                        seen[1] += usize::from(*r != 0.0 && !r.is_normal());
                    }
                } else {
                    row.fill(1.0 / k as f64);
                }
            }
            for j in 0..k {
                let nk: f64 = resp.chunks_exact(k).map(|row| row[j]).sum();
                if nk < 1e-9 {
                    continue;
                }
                weights[j] = nk / n as f64;
                for d in 0..dim {
                    let mu: f64 = points
                        .iter()
                        .zip(resp.chunks_exact(k))
                        .map(|(p, row)| row[j] * p[d])
                        .sum::<f64>()
                        / nk;
                    means[j][d] = mu;
                    let var: f64 = points
                        .iter()
                        .zip(resp.chunks_exact(k))
                        .map(|(p, row)| row[j] * (p[d] - mu) * (p[d] - mu))
                        .sum::<f64>()
                        / nk;
                    sigmas[j][d] = clamp_sigma(var.sqrt(), d);
                }
            }
        }
        let kernels = means
            .into_iter()
            .zip(sigmas)
            .map(|(m, s)| HmgKernel::new(m, s, 1.0).unwrap())
            .collect();
        HmgmModel::new(weights, kernels).unwrap()
    }

    fn model_bits(m: &HmgmModel) -> Vec<u64> {
        let kernels = m
            .kernels()
            .iter()
            .flat_map(|k| k.means().iter().chain(k.sigmas()));
        m.weights()
            .iter()
            .chain(kernels)
            .map(|x| x.to_bits())
            .collect()
    }

    #[test]
    fn one_pass_refine_matches_per_component_reference() {
        let mut rng = Pcg32::seed_from_u64(26);
        let mut seen = [0usize; 2];
        for case in 0..12 {
            let (dim, k) = (1 + case % 3, 2 + case % 5);
            // Blobs at scales from 0.01 to 1, plus far points where every
            // axis factor sits on the `1e-300` floor.
            let mut points: Vec<Vec<f64>> = (0..40 + 9 * case)
                .map(|i| {
                    let (c, sd) = ((i % 4) as f64 * 6.0, 10f64.powf(-((i % 3) as f64)));
                    (0..dim).map(|_| rng.sample_normal(c, sd)).collect()
                })
                .collect();
            points.extend(
                (0..5).map(|_| (0..dim).map(|_| rng.sample_uniform(200.0, 400.0)).collect()),
            );
            // A fitted warm start, and a drawn one whose weights include
            // a zero (a starved kernel) and tiny values (subnormal
            // responsibilities).
            let fitted = fit_diag_gmm(&points, k, &FitConfig::default(), &mut rng).unwrap();
            let mut weights: Vec<f64> = (0..k).map(|_| rng.sample_uniform(0.1, 1.0)).collect();
            weights[0] = 0.0;
            weights[1] = 1e-300;
            let total: f64 = weights.iter().sum();
            weights.iter_mut().for_each(|w| *w /= total);
            let means = (0..k)
                .map(|_| (0..dim).map(|_| rng.sample_uniform(-2.0, 20.0)).collect())
                .collect();
            let vars = (0..k)
                .map(|_| (0..dim).map(|_| rng.sample_uniform(1e-4, 4.0)).collect())
                .collect();
            let drawn = Gmm::new(weights, means, vars).unwrap();
            let configs = [
                HmgmFitConfig::default(),
                HmgmFitConfig {
                    sigma_floor_axes: Some(vec![0.05; dim]),
                    sigma_ceiling_axes: Some(vec![0.8; dim]),
                    refine_iters: 4,
                    ..HmgmFitConfig::default()
                },
            ];
            for gmm in [&fitted, &drawn] {
                for config in &configs {
                    let got = fit_hmgm_from(gmm, &points, config).unwrap();
                    let want = fit_hmgm_from_reference(gmm, &points, config, &mut seen);
                    assert_eq!(model_bits(&got), model_bits(&want), "case {case}");
                }
            }
        }
        assert!(
            seen[0] > 1000 && seen[1] > 10,
            "zero / subnormal responsibilities: {seen:?}"
        );
    }

    #[test]
    fn clamped_factor_exponent_keeps_bits() {
        // Below -700 `exp_fast` is under `1e-300` (e^-700 ≈ 9.9e-305, and
        // the result is within 4 ulp there, subnormal or zero further
        // down), so the floor wins with or without the clamp.
        assert!(exp_fast(-700.0) < 1e-300);
        let floored = |a: f64| exp_fast(a).max(1e-300).to_bits();
        for i in 0..=400_000 {
            let a = -800.0 + 800.0 * f64::from(i) / 400_000.0;
            assert_eq!(floored(a), floored(a.max(FACTOR_EXPONENT_FLOOR)), "{a}");
        }
        for a in [f64::NEG_INFINITY, f64::NAN, -1e300, -0.0] {
            assert_eq!(floored(a), floored(a.max(FACTOR_EXPONENT_FLOOR)), "{a}");
        }
    }

    #[test]
    fn fit_from_rejects_bad_warm_starts() {
        let pts = vec![vec![0.0, 0.0], vec![1.0, 1.0], vec![0.5, 0.2]];
        let mut rng = Pcg32::seed_from_u64(6);
        let diag = fit_diag_gmm(&pts, 1, &FitConfig::default(), &mut rng).unwrap();
        let pts3 = vec![vec![0.0, 0.0, 0.0]; 3];
        assert!(matches!(
            fit_hmgm_from(&diag, &pts3, &HmgmFitConfig::default()),
            Err(GmmError::InconsistentDimensions)
        ));
    }

    #[test]
    fn sigma_ceiling_respected() {
        let mut rng = Pcg32::seed_from_u64(3);
        let pts: Vec<Vec<f64>> = (0..200)
            .map(|_| vec![rng.sample_normal(0.0, 2.0)])
            .collect();
        let config = HmgmFitConfig {
            sigma_ceiling: Some(0.5),
            ..HmgmFitConfig::default()
        };
        let mut rng2 = Pcg32::seed_from_u64(4);
        let model = fit_hmgm(&pts, 2, &config, &mut rng2).unwrap();
        for k in model.kernels() {
            for &s in k.sigmas() {
                assert!(s <= 0.5 + 1e-12);
            }
        }
    }

    #[test]
    fn log_likelihood_finite_everywhere() {
        let k = kernel2d();
        let m = HmgmModel::new(vec![1.0], vec![k]).unwrap();
        assert!(m.log_likelihood(&[100.0, -100.0]).is_finite());
    }
}
