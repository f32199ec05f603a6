//! Expectation-maximization fitting for Gaussian mixtures.

use crate::gaussian::{Covariance, Gmm};
use crate::kmeans::kmeans;
use crate::{check_dims, GmmError, Result};
use navicim_math::rng::Rng64;
use navicim_math::stats::{log_sum_exp, LN_2PI};

/// Configuration of an EM run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FitConfig {
    /// Maximum EM iterations.
    pub max_iters: usize,
    /// Convergence threshold on the mean log-likelihood improvement.
    pub tol: f64,
    /// Variance floor preventing component collapse.
    pub var_floor: f64,
    /// k-means iterations used for initialization.
    pub kmeans_iters: usize,
}

impl Default for FitConfig {
    fn default() -> Self {
        Self {
            max_iters: 100,
            tol: 1e-6,
            var_floor: 1e-6,
            kmeans_iters: 25,
        }
    }
}

/// Fits a diagonal-covariance GMM with EM (k-means++ initialized).
///
/// # Errors
///
/// Propagates initialization errors and returns
/// [`GmmError::DegenerateFit`] when EM collapses.
pub fn fit_diag_gmm<R: Rng64 + ?Sized>(
    points: &[Vec<f64>],
    k: usize,
    config: &FitConfig,
    rng: &mut R,
) -> Result<Gmm> {
    let dim = check_dims(points)?;
    if points.len() < 2 * k {
        return Err(GmmError::TooFewPoints {
            points: points.len(),
            components: k,
        });
    }
    let init = kmeans(points, k, config.kmeans_iters, rng)?;
    let mut weights = vec![1.0 / k as f64; k];
    let mut means = init.centroids;
    let mut vars = initial_vars(points, &init.assignments, &means, config.var_floor);

    let n = points.len();
    let mut e_step = EStep::new(k, dim);
    let mut log_resp = vec![0.0f64; n * k];
    let mut resp = vec![0.0f64; n];
    let mut prev_ll = f64::NEG_INFINITY;
    for _iter in 0..config.max_iters {
        // E-step.
        let total_ll = e_step.run(points, &weights, &means, &vars, &mut log_resp);
        // M-step.
        for j in 0..k {
            for (r, row) in resp.iter_mut().zip(log_resp.chunks_exact(k)) {
                *r = row[j].exp();
            }
            let nk: f64 = resp.iter().sum();
            if nk < 1e-9 {
                return Err(GmmError::DegenerateFit(format!(
                    "component {j} lost all responsibility"
                )));
            }
            weights[j] = nk / n as f64;
            for d in 0..dim {
                let mu: f64 = points.iter().zip(&resp).map(|(p, r)| r * p[d]).sum::<f64>() / nk;
                means[j][d] = mu;
                let var: f64 = points
                    .iter()
                    .zip(&resp)
                    .map(|(p, r)| r * (p[d] - mu) * (p[d] - mu))
                    .sum::<f64>()
                    / nk;
                vars[j][d] = var.max(config.var_floor);
            }
        }
        let mean_ll = total_ll / n as f64;
        if (mean_ll - prev_ll).abs() < config.tol {
            break;
        }
        prev_ll = mean_ll;
    }
    Gmm::new(weights, means, Covariance::Diagonal(vars))
}

/// Selects the diagonal-GMM component count minimizing BIC over
/// `candidates`.
///
/// # Errors
///
/// Returns the first fitting error if every candidate fails, or
/// [`GmmError::InvalidArgument`] for an empty candidate list.
pub fn select_components<R: Rng64 + ?Sized>(
    points: &[Vec<f64>],
    candidates: &[usize],
    config: &FitConfig,
    rng: &mut R,
) -> Result<(usize, Gmm)> {
    if candidates.is_empty() {
        return Err(GmmError::InvalidArgument(
            "candidate list must not be empty".into(),
        ));
    }
    let mut best: Option<(usize, Gmm, f64)> = None;
    let mut first_err = None;
    for &k in candidates {
        match fit_diag_gmm(points, k, config, rng) {
            Ok(gmm) => {
                let bic = gmm.bic(points);
                if best.as_ref().map(|(_, _, b)| bic < *b).unwrap_or(true) {
                    best = Some((k, gmm, bic));
                }
            }
            Err(e) => {
                first_err.get_or_insert(e);
            }
        }
    }
    match best {
        Some((k, gmm, _)) => Ok((k, gmm)),
        None => Err(first_err.expect("either a fit or an error must exist")),
    }
}

/// Reused buffers of the EM E-step: per-component constants, refreshed
/// once per iteration because the M-step moves them, and one row of
/// per-component terms.
struct EStep {
    sds: Vec<Vec<f64>>,
    ln_sds: Vec<Vec<f64>>,
    ln_weights: Vec<f64>,
    terms: Vec<f64>,
}

impl EStep {
    fn new(k: usize, dim: usize) -> Self {
        Self {
            sds: vec![vec![0.0; dim]; k],
            ln_sds: vec![vec![0.0; dim]; k],
            ln_weights: vec![0.0; k],
            terms: vec![0.0; k],
        }
    }

    /// Fills `log_resp` (one row of `k` per point) with the
    /// log-responsibilities of `points` under the mixture and returns
    /// their summed log-likelihood. Each term is
    /// `ln max(w, 1e-300) + Σ_d normal_logpdf(p_d, μ_d, σ_d)` with the
    /// normal log-density written out and summed over axes in order, so
    /// it equals the per-point [`navicim_math::stats::diag_mvn_logpdf`]
    /// bit for bit.
    fn run(
        &mut self,
        points: &[Vec<f64>],
        weights: &[f64],
        means: &[Vec<f64>],
        vars: &[Vec<f64>],
        log_resp: &mut [f64],
    ) -> f64 {
        let k = weights.len();
        for j in 0..k {
            for (d, &v) in vars[j].iter().enumerate() {
                self.sds[j][d] = v.sqrt();
                self.ln_sds[j][d] = self.sds[j][d].ln();
            }
            self.ln_weights[j] = weights[j].max(1e-300).ln();
        }
        let mut total_ll = 0.0;
        for (p, row) in points.iter().zip(log_resp.chunks_exact_mut(k)) {
            for j in 0..k {
                let (mean, sd, ln_sd) = (&means[j], &self.sds[j], &self.ln_sds[j]);
                let log_pdf: f64 = (0..p.len())
                    .map(|d| {
                        let z = (p[d] - mean[d]) / sd[d];
                        -0.5 * (LN_2PI + z * z) - ln_sd[d]
                    })
                    .sum();
                self.terms[j] = self.ln_weights[j] + log_pdf;
            }
            let lse = log_sum_exp(&self.terms);
            total_ll += lse;
            for (r, &t) in row.iter_mut().zip(&self.terms) {
                *r = t - lse;
            }
        }
        total_ll
    }
}

fn initial_vars(
    points: &[Vec<f64>],
    assignments: &[usize],
    means: &[Vec<f64>],
    floor: f64,
) -> Vec<Vec<f64>> {
    let k = means.len();
    let dim = means[0].len();
    let mut vars = vec![vec![0.0; dim]; k];
    let mut counts = vec![0usize; k];
    for (p, &a) in points.iter().zip(assignments) {
        counts[a] += 1;
        for d in 0..dim {
            vars[a][d] += (p[d] - means[a][d]) * (p[d] - means[a][d]);
        }
    }
    // Global fallback variance for empty clusters.
    let global: Vec<f64> = (0..dim)
        .map(|d| {
            let xs: Vec<f64> = points.iter().map(|p| p[d]).collect();
            navicim_math::stats::variance(&xs).max(floor)
        })
        .collect();
    for j in 0..k {
        for d in 0..dim {
            vars[j][d] = if counts[j] > 1 {
                (vars[j][d] / counts[j] as f64).max(floor)
            } else {
                global[d]
            };
        }
    }
    vars
}

#[cfg(test)]
mod tests {
    use super::*;
    use navicim_math::rng::{Pcg32, SampleExt};

    fn blob_data(seed: u64, n: usize) -> Vec<Vec<f64>> {
        let mut rng = Pcg32::seed_from_u64(seed);
        let mut pts = Vec::new();
        for _ in 0..n {
            pts.push(vec![
                rng.sample_normal(-2.0, 0.4),
                rng.sample_normal(0.0, 0.3),
            ]);
            pts.push(vec![
                rng.sample_normal(3.0, 0.6),
                rng.sample_normal(5.0, 0.5),
            ]);
        }
        pts
    }

    #[test]
    fn diag_em_recovers_two_blobs() {
        let pts = blob_data(1, 400);
        let mut rng = Pcg32::seed_from_u64(2);
        let gmm = fit_diag_gmm(&pts, 2, &FitConfig::default(), &mut rng).unwrap();
        let mut means = gmm.means().to_vec();
        means.sort_by(|a, b| a[0].partial_cmp(&b[0]).unwrap());
        assert!((means[0][0] + 2.0).abs() < 0.15, "{means:?}");
        assert!((means[1][0] - 3.0).abs() < 0.15, "{means:?}");
        assert!((means[1][1] - 5.0).abs() < 0.15, "{means:?}");
        // Weights near 0.5 each.
        for &w in gmm.weights() {
            assert!((w - 0.5).abs() < 0.05);
        }
        // Recovered sigmas in the right ballpark.
        let sds = gmm.diag_std_devs().unwrap();
        for sd in sds.iter().flatten() {
            assert!(*sd > 0.2 && *sd < 0.8, "sd = {sd}");
        }
    }

    #[test]
    fn e_step_matches_per_point_reference() {
        // The hoisted E-step against the per-point form it replaced:
        // `diag_mvn_logpdf` with square roots taken per point and
        // component, one `Vec` of terms per point.
        let mut rng = Pcg32::seed_from_u64(11);
        for case in 0..24 {
            let (n, k, dim) = (1 + case * 7 % 40, 1 + case % 6, 1 + case % 4);
            let points: Vec<Vec<f64>> = (0..n)
                .map(|_| (0..dim).map(|_| rng.sample_normal(0.0, 3.0)).collect())
                .collect();
            let means: Vec<Vec<f64>> = (0..k)
                .map(|_| (0..dim).map(|_| rng.sample_normal(0.0, 2.0)).collect())
                .collect();
            let vars: Vec<Vec<f64>> = (0..k)
                .map(|_| (0..dim).map(|_| rng.sample_uniform(1e-6, 4.0)).collect())
                .collect();
            // Include a zero weight to reach the `1e-300` floor.
            let mut weights: Vec<f64> = (0..k).map(|_| rng.sample_uniform(0.0, 1.0)).collect();
            weights[0] = if case % 3 == 0 { 0.0 } else { weights[0] };

            let mut log_resp = vec![0.0; n * k];
            let total = EStep::new(k, dim).run(&points, &weights, &means, &vars, &mut log_resp);

            let mut want_total = 0.0;
            let mut want_resp = Vec::with_capacity(n * k);
            for p in &points {
                let mut terms = Vec::with_capacity(k);
                for j in 0..k {
                    let sds: Vec<f64> = vars[j].iter().map(|v| v.sqrt()).collect();
                    terms.push(
                        weights[j].max(1e-300).ln()
                            + navicim_math::stats::diag_mvn_logpdf(p, &means[j], &sds),
                    );
                }
                let lse = log_sum_exp(&terms);
                want_total += lse;
                want_resp.extend(terms.iter().map(|t| t - lse));
            }
            assert_eq!(total.to_bits(), want_total.to_bits(), "case {case}");
            let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&log_resp), bits(&want_resp), "case {case}");
        }
    }

    #[test]
    fn likelihood_improves_over_iterations() {
        let pts = blob_data(5, 200);
        let cheap = FitConfig {
            max_iters: 1,
            ..FitConfig::default()
        };
        let mut rng_a = Pcg32::seed_from_u64(6);
        let mut rng_b = Pcg32::seed_from_u64(6);
        let g1 = fit_diag_gmm(&pts, 2, &cheap, &mut rng_a).unwrap();
        let g50 = fit_diag_gmm(&pts, 2, &FitConfig::default(), &mut rng_b).unwrap();
        let ll1: f64 = pts.iter().map(|p| g1.log_pdf(p)).sum();
        let ll50: f64 = pts.iter().map(|p| g50.log_pdf(p)).sum();
        assert!(ll50 >= ll1 - 1e-6, "ll1={ll1}, ll50={ll50}");
    }

    #[test]
    fn too_few_points_rejected() {
        let pts = vec![vec![0.0], vec![1.0], vec![2.0]];
        let mut rng = Pcg32::seed_from_u64(7);
        assert!(matches!(
            fit_diag_gmm(&pts, 2, &FitConfig::default(), &mut rng),
            Err(GmmError::TooFewPoints { .. })
        ));
    }

    #[test]
    fn var_floor_prevents_collapse() {
        // Many duplicate points would drive variance to zero without floor.
        let mut pts = vec![vec![1.0, 1.0]; 50];
        pts.extend(vec![vec![5.0, 5.0]; 50]);
        let mut rng = Pcg32::seed_from_u64(8);
        let gmm = fit_diag_gmm(&pts, 2, &FitConfig::default(), &mut rng).unwrap();
        if let Covariance::Diagonal(vars) = gmm.covariance() {
            for v in vars.iter().flatten() {
                assert!(*v >= 1e-6);
            }
        }
        // Density is finite at the data points.
        assert!(gmm.log_pdf(&[1.0, 1.0]).is_finite());
    }

    #[test]
    fn select_components_finds_two() {
        let pts = blob_data(9, 300);
        let mut rng = Pcg32::seed_from_u64(10);
        let (k, _) = select_components(&pts, &[1, 2, 4], &FitConfig::default(), &mut rng).unwrap();
        assert_eq!(k, 2);
    }
}
