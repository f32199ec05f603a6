//! Expectation-maximization fitting for Gaussian mixtures.

use crate::gaussian::Gmm;
use crate::kmeans::kmeans;
use crate::{check_dims, GmmError, Result};
use navicim_math::rng::Rng64;
use navicim_math::stats::{exp_or_zero_in_place, log_sum_exp, LN_2PI};

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
    check_dims(points)?;
    if points.len() < 2 * k {
        return Err(GmmError::TooFewPoints {
            points: points.len(),
            components: k,
        });
    }
    let init = kmeans(points, k, config.kmeans_iters, rng)?;
    let vars = initial_vars(points, &init.assignments, &init.centroids, config.var_floor);
    run_em(
        points,
        vec![1.0 / k as f64; k],
        init.centroids,
        vars,
        config,
    )
}

/// EM from the given start parameters until the mean log-likelihood
/// settles or `config.max_iters` runs out.
fn run_em(
    points: &[Vec<f64>],
    mut weights: Vec<f64>,
    mut means: Vec<Vec<f64>>,
    mut vars: Vec<Vec<f64>>,
    config: &FitConfig,
) -> Result<Gmm> {
    let (n, k, dim) = (points.len(), weights.len(), points[0].len());
    let mut e_step = EStep::new(k, dim);
    let mut moments = Moments::new(k, dim);
    // Log-responsibilities from the E-step, exponentiated in place into
    // the M-step's responsibilities.
    let mut resp = vec![0.0f64; n * k];
    let mut prev_ll = f64::NEG_INFINITY;
    for _iter in 0..config.max_iters {
        let total_ll = e_step.run(points, &weights, &means, &vars, &mut resp);
        exp_or_zero_in_place(&mut resp);
        moments.first(points, &resp);
        if let Some(j) = moments.nk.iter().position(|&nk| nk < 1e-9) {
            return Err(GmmError::DegenerateFit(format!(
                "component {j} lost all responsibility"
            )));
        }
        moments.second(points, &resp);
        for j in 0..k {
            weights[j] = moments.nk[j] / n as f64;
            for d in 0..dim {
                means[j][d] = moments.mean[d * k + j];
                vars[j][d] = moments.var[d * k + j].max(config.var_floor);
            }
        }
        let mean_ll = total_ll / n as f64;
        if (mean_ll - prev_ll).abs() < config.tol {
            break;
        }
        prev_ll = mean_ll;
    }
    Gmm::new(weights, means, vars)
}

/// The start value of `Iterator::sum` over `f64`, so an accumulator
/// folded from it by hand reproduces the iterator's bits.
fn sum_start() -> f64 {
    std::iter::empty::<f64>().sum()
}

/// Responsibility-weighted moments of every component at once: the
/// M-step of both the diagonal EM and the HMGM refinement.
///
/// `resp` holds one row of `k` responsibilities per point. Each of the
/// `k·(1 + 2·dim)` sums keeps its own accumulator, started from
/// `Iterator::sum`'s start value and folded in point order, so it equals
/// a per-component `.sum()` over the points bit for bit; one pass over
/// the points updates all of a moment's sums, vectorized across
/// components.
pub(crate) struct Moments {
    k: usize,
    /// `nkⱼ = Σᵢ rᵢⱼ`.
    pub(crate) nk: Vec<f64>,
    /// `μⱼ = Σᵢ rᵢⱼ·xᵢ / nkⱼ`, axis-major (`[d·k + j]`).
    pub(crate) mean: Vec<f64>,
    /// `Σᵢ rᵢⱼ·(xᵢ − μⱼ)² / nkⱼ`, axis-major.
    pub(crate) var: Vec<f64>,
}

impl Moments {
    pub(crate) fn new(k: usize, dim: usize) -> Self {
        Self {
            k,
            nk: vec![0.0; k],
            mean: vec![0.0; dim * k],
            var: vec![0.0; dim * k],
        }
    }

    /// Fills `nk` and `mean` in one pass. A component with `nk = 0`
    /// gets a non-finite mean, which callers must not read.
    pub(crate) fn first(&mut self, points: &[Vec<f64>], resp: &[f64]) {
        let k = self.k;
        let start = sum_start();
        self.nk.fill(start);
        self.mean.fill(start);
        // lint: reduction-order one accumulator per component and axis, folded in point order like `Iterator::sum`
        for (p, row) in points.iter().zip(resp.chunks_exact(k)) {
            for (acc, &r) in self.nk.iter_mut().zip(row) {
                *acc += r;
            }
            for (sums, &x) in self.mean.chunks_exact_mut(k).zip(p) {
                for (acc, &r) in sums.iter_mut().zip(row) {
                    *acc += r * x;
                }
            }
        }
        for sums in self.mean.chunks_exact_mut(k) {
            for (m, &nk) in sums.iter_mut().zip(&self.nk) {
                *m /= nk;
            }
        }
    }

    /// Fills `var` in one pass about the means of [`Self::first`].
    pub(crate) fn second(&mut self, points: &[Vec<f64>], resp: &[f64]) {
        let k = self.k;
        self.var.fill(sum_start());
        // lint: reduction-order one accumulator per component and axis, folded in point order like `Iterator::sum`
        for (p, row) in points.iter().zip(resp.chunks_exact(k)) {
            for ((sums, mus), &x) in self
                .var
                .chunks_exact_mut(k)
                .zip(self.mean.chunks_exact(k))
                .zip(p)
            {
                for ((acc, &r), &mu) in sums.iter_mut().zip(row).zip(mus) {
                    *acc += r * (x - mu) * (x - mu);
                }
            }
        }
        for sums in self.var.chunks_exact_mut(k) {
            for (v, &nk) in sums.iter_mut().zip(&self.nk) {
                *v /= nk;
            }
        }
    }
}

/// Reused buffers of the EM E-step: per-component constants, refreshed
/// once per iteration because the M-step moves them, laid out axis-major
/// (`[d·k + j]`) so each axis's terms vectorize across components.
struct EStep {
    k: usize,
    means: Vec<f64>,
    sds: Vec<f64>,
    ln_sds: Vec<f64>,
    ln_weights: Vec<f64>,
}

impl EStep {
    fn new(k: usize, dim: usize) -> Self {
        Self {
            k,
            means: vec![0.0; dim * k],
            sds: vec![0.0; dim * k],
            ln_sds: vec![0.0; dim * k],
            ln_weights: vec![0.0; k],
        }
    }

    /// Fills `log_resp` (one row of `k` per point) with the
    /// log-responsibilities of `points` under the mixture and returns
    /// their summed log-likelihood. Each term is
    /// `ln max(w, 1e-300) + Σ_d normal_logpdf(p_d, μ_d, σ_d)` with the
    /// normal log-density written out and summed over axes in order from
    /// `Iterator::sum`'s start value, so it equals the per-point
    /// [`navicim_math::stats::diag_mvn_logpdf`] bit for bit.
    fn run(
        &mut self,
        points: &[Vec<f64>],
        weights: &[f64],
        means: &[Vec<f64>],
        vars: &[Vec<f64>],
        log_resp: &mut [f64],
    ) -> f64 {
        let k = self.k;
        for j in 0..k {
            for (d, &v) in vars[j].iter().enumerate() {
                let sd = v.sqrt();
                self.means[d * k + j] = means[j][d];
                self.sds[d * k + j] = sd;
                self.ln_sds[d * k + j] = sd.ln();
            }
            self.ln_weights[j] = weights[j].max(1e-300).ln();
        }
        let start = sum_start();
        let mut total_ll = 0.0;
        for (p, row) in points.iter().zip(log_resp.chunks_exact_mut(k)) {
            // The row accumulates each component's log-density first.
            row.fill(start);
            // lint: reduction-order one accumulator per component, folded in axis order like `Iterator::sum`
            for (d, &x) in p.iter().enumerate() {
                let axis = d * k..(d + 1) * k;
                let consts = self.means[axis.clone()]
                    .iter()
                    .zip(&self.sds[axis.clone()])
                    .zip(&self.ln_sds[axis]);
                for (acc, ((&mu, &sd), &ln_sd)) in row.iter_mut().zip(consts) {
                    let z = (x - mu) / sd;
                    *acc += -0.5 * (LN_2PI + z * z) - ln_sd;
                }
            }
            for (t, &ln_w) in row.iter_mut().zip(&self.ln_weights) {
                *t += ln_w;
            }
            let lse = log_sum_exp(row);
            total_ll += lse;
            for t in row.iter_mut() {
                *t -= lse;
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
        let sds = gmm.diag_std_devs();
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

    /// `run_em` as it was before the one-pass M-step, kept as its oracle:
    /// the per-point E-step (`diag_mvn_logpdf`, libm `exp` in the
    /// log-sum-exp), then per component one `Vec` of responsibilities and
    /// `1 + 2·dim` sequential `.sum()` passes. `seen` counts the
    /// responsibilities that underflowed to zero and the subnormal ones.
    fn run_em_reference(
        points: &[Vec<f64>],
        mut weights: Vec<f64>,
        mut means: Vec<Vec<f64>>,
        mut vars: Vec<Vec<f64>>,
        config: &FitConfig,
        seen: &mut [usize; 2],
    ) -> Result<Gmm> {
        let (n, k, dim) = (points.len(), weights.len(), points[0].len());
        let mut log_resp = vec![0.0f64; n * k];
        let mut resp = vec![0.0f64; n];
        let mut prev_ll = f64::NEG_INFINITY;
        for _iter in 0..config.max_iters {
            let mut total_ll = 0.0;
            for (p, row) in points.iter().zip(log_resp.chunks_exact_mut(k)) {
                let terms: Vec<f64> = (0..k)
                    .map(|j| {
                        let sds: Vec<f64> = vars[j].iter().map(|v| v.sqrt()).collect();
                        weights[j].max(1e-300).ln()
                            + navicim_math::stats::diag_mvn_logpdf(p, &means[j], &sds)
                    })
                    .collect();
                let m = terms.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                let lse = m + terms.iter().map(|t| (t - m).exp()).sum::<f64>().ln();
                total_ll += lse;
                for (r, t) in row.iter_mut().zip(&terms) {
                    *r = t - lse;
                }
            }
            for j in 0..k {
                for (r, row) in resp.iter_mut().zip(log_resp.chunks_exact(k)) {
                    *r = row[j].exp();
                    seen[0] += usize::from(*r == 0.0);
                    seen[1] += usize::from(*r != 0.0 && !r.is_normal());
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
        Gmm::new(weights, means, vars)
    }

    fn gmm_bits(g: &Gmm) -> Vec<u64> {
        g.weights()
            .iter()
            .chain(g.means().iter().flatten())
            .chain(g.variances().iter().flatten())
            .map(|x| x.to_bits())
            .collect()
    }

    /// Clusters at scales from 0.01 to 1 and centres up to 60 apart, so
    /// responsibilities span the normal range, the subnormal range and
    /// underflow to zero.
    fn multiscale_cloud(rng: &mut Pcg32, n: usize, dim: usize, clusters: usize) -> Vec<Vec<f64>> {
        let centres: Vec<(Vec<f64>, f64)> = (0..clusters)
            .map(|_| {
                let c = (0..dim).map(|_| rng.sample_uniform(-30.0, 30.0)).collect();
                (c, 10f64.powf(rng.sample_uniform(-2.0, 0.0)))
            })
            .collect();
        (0..n)
            .map(|i| {
                let (c, sd) = &centres[i % clusters];
                c.iter().map(|&m| rng.sample_normal(m, *sd)).collect()
            })
            .collect()
    }

    #[test]
    fn one_pass_m_step_matches_per_component_reference() {
        let mut rng = Pcg32::seed_from_u64(25);
        let mut seen = [0usize; 2];
        let (mut fitted, mut degenerate) = (0, 0);
        for case in 0..18 {
            let (dim, k) = (1 + case % 3, 2 + case % 5);
            let n = 30 + 11 * case;
            let points = multiscale_cloud(&mut rng, n, dim, 1 + case % 6);
            let config = FitConfig {
                max_iters: 40,
                ..FitConfig::default()
            };
            // From the k-means start `fit_diag_gmm` uses.
            let init = kmeans(&points, k, config.kmeans_iters, &mut rng).unwrap();
            let vars = initial_vars(
                &points,
                &init.assignments,
                &init.centroids,
                config.var_floor,
            );
            let weights = vec![1.0 / k as f64; k];
            // From a random start whose first component has zero weight:
            // it lies on the `1e-300` floor, and EM stops on it.
            let mut zero_weight: Vec<f64> = (0..k).map(|_| rng.sample_uniform(0.1, 1.0)).collect();
            zero_weight[0] = 0.0;
            let total: f64 = zero_weight.iter().sum();
            zero_weight.iter_mut().for_each(|w| *w /= total);
            let starts = [
                (weights, init.centroids.clone(), vars.clone()),
                (zero_weight, init.centroids, vars),
            ];
            for (weights, means, vars) in starts {
                let got = run_em(
                    &points,
                    weights.clone(),
                    means.clone(),
                    vars.clone(),
                    &config,
                );
                let want = run_em_reference(&points, weights, means, vars, &config, &mut seen);
                match (got, want) {
                    (Ok(got), Ok(want)) => {
                        assert_eq!(gmm_bits(&got), gmm_bits(&want), "case {case}");
                        fitted += 1;
                    }
                    (Err(got), Err(want)) => {
                        assert_eq!(got.to_string(), want.to_string(), "case {case}");
                        degenerate += 1;
                    }
                    (got, want) => panic!("case {case}: {got:?} vs {want:?}"),
                }
            }
        }
        assert!(
            fitted >= 12 && degenerate >= 9,
            "{fitted} fits, {degenerate} stops"
        );
        assert!(
            seen[0] > 1000 && seen[1] > 10,
            "zero / subnormal responsibilities: {seen:?}"
        );
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
        for v in gmm.variances().iter().flatten() {
            assert!(*v >= 1e-6);
        }
        // Density is finite at the data points.
        assert!(gmm.log_pdf(&[1.0, 1.0]).is_finite());
    }
}
