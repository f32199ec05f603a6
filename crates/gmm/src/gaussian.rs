//! Gaussian mixture models (diagonal and full covariance).
//!
//! This is the *conventional* map representation of the paper's Section II:
//! a point cloud fitted with a GMM whose density is evaluated per projected
//! depth pixel on a digital datapath. The CIM co-design replaces it with
//! the [`crate::hmg`] family.

use crate::prune::{PruneConfig, PruneIndex, PruneScratch, PRUNE_TILE};
use crate::{GmmError, Result};
use navicim_backend::{check_batch_shape, par, LikelihoodBackend, PointBatch};
use navicim_math::linalg::Matrix;
use navicim_math::rng::{Rng64, SampleExt};
use navicim_math::simd::{exp_fast, log_sum_exp_fast};
use navicim_math::stats::{mvn_logpdf, LN_2PI};

/// Covariance parameterization of a [`Gmm`].
#[derive(Debug, Clone, PartialEq)]
pub enum Covariance {
    /// Per-component per-axis variances (axis-aligned ellipsoids).
    Diagonal(Vec<Vec<f64>>),
    /// Per-component full covariance matrices.
    Full(Vec<Matrix>),
}

/// A Gaussian mixture model.
#[derive(Debug, Clone)]
pub struct Gmm {
    weights: Vec<f64>,
    means: Vec<Vec<f64>>,
    covariance: Covariance,
    /// Spatial culling index for the batch paths; `None` (the default)
    /// keeps every evaluation path untouched. See [`crate::prune`].
    prune: Option<PruneIndex>,
    /// Hoisted diagonal-plan constants, built once at construction (the
    /// parameters are immutable after [`Gmm::new`]). `None` for full
    /// covariance.
    diag_plan: Option<DiagPlan>,
    /// Reused component/axis scratch for the single-chunk batch path, so
    /// a warmed model evaluates frames without touching the heap.
    scratch: BatchScratch,
}

/// Equality is over the model parameters (and the pruning index derived
/// from them): `diag_plan` is a pure function of those parameters and
/// `scratch` is evaluation state, so neither can distinguish models.
impl PartialEq for Gmm {
    fn eq(&self, other: &Self) -> bool {
        self.weights == other.weights
            && self.means == other.means
            && self.covariance == other.covariance
            && self.prune == other.prune
    }
}

impl Gmm {
    /// Assembles a GMM from parts.
    ///
    /// # Errors
    ///
    /// Returns [`GmmError::InvalidArgument`] when the component counts or
    /// dimensions disagree, or weights are not a probability vector.
    pub fn new(weights: Vec<f64>, means: Vec<Vec<f64>>, covariance: Covariance) -> Result<Self> {
        let k = weights.len();
        if k == 0 || means.len() != k {
            return Err(GmmError::InvalidArgument(
                "weights and means must have the same non-zero length".into(),
            ));
        }
        let dim = means[0].len();
        if means.iter().any(|m| m.len() != dim) {
            return Err(GmmError::InconsistentDimensions);
        }
        let wsum: f64 = weights.iter().sum();
        if weights.iter().any(|&w| w < 0.0) || (wsum - 1.0).abs() > 1e-6 {
            return Err(GmmError::InvalidArgument(
                "weights must be non-negative and sum to 1".into(),
            ));
        }
        match &covariance {
            Covariance::Diagonal(vars) => {
                if vars.len() != k || vars.iter().any(|v| v.len() != dim) {
                    return Err(GmmError::InconsistentDimensions);
                }
                if vars.iter().flatten().any(|&v| v <= 0.0) {
                    return Err(GmmError::InvalidArgument(
                        "variances must be positive".into(),
                    ));
                }
            }
            Covariance::Full(covs) => {
                if covs.len() != k || covs.iter().any(|c| c.rows() != dim || c.cols() != dim) {
                    return Err(GmmError::InconsistentDimensions);
                }
            }
        }
        let diag_plan = DiagPlan::build(&weights, &covariance);
        Ok(Self {
            weights,
            means,
            covariance,
            prune: None,
            diag_plan,
            scratch: BatchScratch::default(),
        })
    }

    /// Enables (or, with a disabled config, clears) spatial component
    /// pruning for the batch paths. Builds the [`PruneIndex`] once; a
    /// full-covariance model has no bound model and stays unpruned.
    /// With pruning active, batch results carry the documented additive
    /// [`crate::prune::PRUNE_EPSILON`] tolerance; disabled (the default)
    /// they are bit-identical to a model that never saw this call.
    pub fn set_prune(&mut self, config: PruneConfig) {
        self.prune = PruneIndex::for_diag_gmm(self, config);
    }

    /// The active pruning index, if any.
    pub fn prune_index(&self) -> Option<&PruneIndex> {
        self.prune.as_ref()
    }

    /// Number of mixture components.
    pub fn num_components(&self) -> usize {
        self.weights.len()
    }

    /// Data dimensionality.
    pub fn dim(&self) -> usize {
        self.means[0].len()
    }

    /// Mixture weights (sum to 1).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Component means.
    pub fn means(&self) -> &[Vec<f64>] {
        &self.means
    }

    /// Covariance parameterization.
    pub fn covariance(&self) -> &Covariance {
        &self.covariance
    }

    /// Per-component standard deviations for diagonal models.
    ///
    /// Returns `None` for full-covariance models.
    pub fn diag_std_devs(&self) -> Option<Vec<Vec<f64>>> {
        match &self.covariance {
            Covariance::Diagonal(vars) => Some(
                vars.iter()
                    .map(|v| v.iter().map(|x| x.sqrt()).collect())
                    .collect(),
            ),
            Covariance::Full(_) => None,
        }
    }

    /// Log-density of the mixture at `x`.
    ///
    /// Scores a single point with [`GmmEvalPlan::log_pdf`], the parity
    /// reference of the batch kernel: both share the plan's hoisted
    /// constants and the per-point operation sequence, so scalar and
    /// batch evaluation are bit-identical.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the model dimension (programming
    /// error at the call site).
    pub fn log_pdf(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.dim(), "query dimension mismatch");
        let plan = self.eval_plan();
        let mut terms = Vec::with_capacity(self.num_components());
        plan.log_pdf(x, &mut terms)
    }

    /// The reusable evaluation plan for this mixture.
    ///
    /// The plan hoists everything that does not depend on the query point
    /// — per-component log-weights, normalization constants and inverse
    /// variances. The hoisted data is computed once at construction and
    /// borrowed here, so taking a plan is free: a batch of N points (and
    /// every scalar [`Gmm::log_pdf`] call) shares the same constants,
    /// which is what makes them bit-identical.
    pub fn eval_plan(&self) -> GmmEvalPlan<'_> {
        GmmEvalPlan {
            gmm: self,
            diag: self.diag_plan.as_ref(),
        }
    }

    /// Density of the mixture at `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the model dimension.
    pub fn pdf(&self, x: &[f64]) -> f64 {
        self.log_pdf(x).exp()
    }

    /// Draws one sample from the mixture.
    pub fn sample<R: Rng64 + ?Sized>(&self, rng: &mut R) -> Vec<f64> {
        let k = rng.sample_weighted(&self.weights);
        match &self.covariance {
            Covariance::Diagonal(vars) => self.means[k]
                .iter()
                .zip(&vars[k])
                .map(|(&m, &v)| rng.sample_normal(m, v.sqrt()))
                .collect(),
            Covariance::Full(covs) => {
                let chol = covs[k]
                    .cholesky()
                    .expect("covariances validated at construction");
                let z: Vec<f64> = (0..self.dim())
                    .map(|_| rng.sample_standard_normal())
                    .collect();
                let l = chol.lower();
                // lint: reduction-order lower-triangular forward order, fixed by the Cholesky factor layout
                (0..self.dim())
                    .map(|i| self.means[k][i] + (0..=i).map(|j| l[(i, j)] * z[j]).sum::<f64>())
                    .collect()
            }
        }
    }

    /// Bayesian information criterion for this model on a data set
    /// (lower is better).
    pub fn bic(&self, points: &[Vec<f64>]) -> f64 {
        let n = points.len().max(1) as f64;
        let loglik: f64 = points.iter().map(|p| self.log_pdf(p)).sum();
        let d = self.dim() as f64;
        let k = self.num_components() as f64;
        let params = match &self.covariance {
            Covariance::Diagonal(_) => k * (2.0 * d) + (k - 1.0),
            Covariance::Full(_) => k * (d + d * (d + 1.0) / 2.0) + (k - 1.0),
        };
        params * n.ln() - 2.0 * loglik
    }
}

/// Hoisted per-component constants for diagonal mixtures.
#[derive(Debug, Clone)]
struct DiagPlan {
    /// Per component: `ln w_k − Σᵢ ln σ_{k,i} − d/2 · ln 2π`.
    consts: Vec<f64>,
    /// Per component × axis: `−1/(2σ²)`, flattened row-major.
    neg_half_inv_vars: Vec<f64>,
}

impl DiagPlan {
    /// Hoists the query-independent constants of a validated diagonal
    /// parameter set; `None` for full covariance (no hoisted form).
    fn build(weights: &[f64], covariance: &Covariance) -> Option<Self> {
        let Covariance::Diagonal(vars) = covariance else {
            return None;
        };
        let dim = vars[0].len();
        let mut consts = Vec::with_capacity(weights.len());
        let mut neg_half_inv_vars = Vec::with_capacity(weights.len() * dim);
        for (k, vk) in vars.iter().enumerate() {
            let mut c = weights[k].max(1e-300).ln() - 0.5 * dim as f64 * LN_2PI;
            for &v in vk {
                c -= 0.5 * v.ln();
                neg_half_inv_vars.push(-0.5 / v);
            }
            consts.push(c);
        }
        Some(Self {
            consts,
            neg_half_inv_vars,
        })
    }
}

/// Points per tile of the diagonal batch kernel: the component-major
/// body scores this many points per pass over the components.
pub const GMM_TILE: usize = 64;

/// Reused per-evaluation buffers of the batch likelihood kernel: the
/// scalar component terms (full covariance), the tile buffers and the
/// pruning tile scratch. Held by the [`Gmm`] so the single-chunk path —
/// the per-frame production configuration — is allocation-free once
/// warmed; the threaded path gives each chunk closure its own.
#[derive(Debug, Clone, Default)]
struct BatchScratch {
    terms: Vec<f64>,
    tile: TileScratch,
    prune: PruneScratch,
}

/// Buffers of one [`GMM_TILE`]-point tile; they grow once to the model's
/// dimension and component count.
#[derive(Debug, Clone, Default)]
struct TileScratch {
    /// One column per axis: that coordinate of every point in the tile.
    axes: Vec<[f64; GMM_TILE]>,
    /// One row per evaluated component: its log term at every point.
    terms: Vec<[f64; GMM_TILE]>,
}

/// A reusable, query-independent evaluation plan for a [`Gmm`].
///
/// Built once per batch (or per scalar call) by [`Gmm::eval_plan`]. For
/// diagonal mixtures the plan carries hoisted constants; full-covariance
/// mixtures fall back to the per-point Cholesky path.
#[derive(Debug, Clone)]
pub struct GmmEvalPlan<'a> {
    gmm: &'a Gmm,
    diag: Option<&'a DiagPlan>,
}

impl GmmEvalPlan<'_> {
    /// Log-density of one point, using `terms` as component scratch.
    ///
    /// This is the parity reference of the tiled batch kernel: each
    /// point of a tile goes through the identical operation sequence
    /// (fused multiply-add quadratic in axis order, max fold over the
    /// components in order, ordered `exp_fast` sum, then `ln`), so a
    /// point's score is bit-identical whether it is scored here or in a
    /// batch.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the model dimension.
    pub fn log_pdf(&self, x: &[f64], terms: &mut Vec<f64>) -> f64 {
        let gmm = self.gmm;
        let dim = gmm.dim();
        assert_eq!(x.len(), dim, "query dimension mismatch");
        terms.clear();
        match self.diag {
            Some(plan) => {
                for (k, &c) in plan.consts.iter().enumerate() {
                    let nhiv = &plan.neg_half_inv_vars[k * dim..(k + 1) * dim];
                    let mean = &gmm.means[k];
                    let mut quad = 0.0;
                    for i in 0..dim {
                        let d = x[i] - mean[i];
                        quad = (nhiv[i] * d).mul_add(d, quad);
                    }
                    terms.push(c + quad);
                }
            }
            None => {
                let Covariance::Full(covs) = &gmm.covariance else {
                    unreachable!("plan without diag data implies full covariance")
                };
                for k in 0..gmm.num_components() {
                    let lw = gmm.weights[k].max(1e-300).ln();
                    let lp = mvn_logpdf(x, &gmm.means[k], &covs[k]).unwrap_or(f64::NEG_INFINITY);
                    terms.push(lw + lp);
                }
            }
        }
        log_sum_exp_fast(terms)
    }

    /// [`Self::log_pdf`] restricted to the candidate components of a
    /// pruned tile (ascending ids). Applies the identical per-component
    /// math and reduction, just over fewer terms — the dropped terms are
    /// bounded below the survivors' floor by the prune margin, so the
    /// result differs from the full evaluation by at most
    /// [`crate::prune::PRUNE_EPSILON`] nats. It is also the parity
    /// reference of the pruned batch path.
    ///
    /// # Panics
    ///
    /// Panics on a full-covariance plan (no pruning path) or dimension
    /// mismatch.
    pub fn log_pdf_subset(&self, x: &[f64], cands: &[u32], terms: &mut Vec<f64>) -> f64 {
        let plan = self.diag.expect("pruning requires a diagonal plan");
        let gmm = self.gmm;
        let dim = gmm.dim();
        assert_eq!(x.len(), dim, "query dimension mismatch");
        terms.clear();
        for &j in cands {
            let k = j as usize;
            let c = plan.consts[k];
            let nhiv = &plan.neg_half_inv_vars[k * dim..(k + 1) * dim];
            let mean = &gmm.means[k];
            let mut quad = 0.0;
            for i in 0..dim {
                let d = x[i] - mean[i];
                quad = (nhiv[i] * d).mul_add(d, quad);
            }
            terms.push(c + quad);
        }
        log_sum_exp_fast(terms)
    }

    /// Scores the row-major points in `rows` into `out` over the
    /// component set `comps`, [`GMM_TILE`] points at a time and
    /// component-major: each tile is transposed once into axis columns,
    /// every component fills its row of terms across the tile, and each
    /// point then folds its column of terms. A short last tile repeats
    /// its last point in the spare slots and drops their results.
    ///
    /// Per point this is exactly [`Self::log_pdf`]'s (or, over a
    /// candidate list, [`Self::log_pdf_subset`]'s) operation sequence, so
    /// the output is bit-identical to it; the plain fixed-width loops let
    /// the compiler vectorize at the host's full width.
    fn eval_tiles(
        &self,
        plan: &DiagPlan,
        comps: impl Iterator<Item = usize> + Clone,
        rows: &[f64],
        out: &mut [f64],
        s: &mut TileScratch,
    ) {
        let dim = self.gmm.dim();
        if s.axes.len() < dim {
            s.axes.resize(dim, [0.0; GMM_TILE]);
        }
        if s.terms.len() < plan.consts.len() {
            s.terms.resize(plan.consts.len(), [0.0; GMM_TILE]);
        }
        for (t, out) in out.chunks_mut(GMM_TILE).enumerate() {
            let tile = &rows[t * GMM_TILE * dim..];
            let last = out.len() - 1;
            for (i, col) in s.axes[..dim].iter_mut().enumerate() {
                for (p, x) in col.iter_mut().enumerate() {
                    *x = tile[p.min(last) * dim + i];
                }
            }
            let mut n_terms = 0;
            for (j, row) in comps.clone().zip(s.terms.iter_mut()) {
                let nhiv = &plan.neg_half_inv_vars[j * dim..(j + 1) * dim];
                let mean = &self.gmm.means[j];
                let mut quad = [0.0; GMM_TILE];
                for (i, col) in s.axes[..dim].iter().enumerate() {
                    let (mu, h) = (mean[i], nhiv[i]);
                    for (q, &x) in quad.iter_mut().zip(col) {
                        let d = x - mu;
                        *q = (h * d).mul_add(d, *q);
                    }
                }
                let c = plan.consts[j];
                for (term, &q) in row.iter_mut().zip(&quad) {
                    *term = c + q;
                }
                n_terms += 1;
            }
            let terms = &s.terms[..n_terms];
            // lint: reduction-order per-point max fold over components in log_pdf's order (f64::max skips NaN)
            let mut m = [f64::NEG_INFINITY; GMM_TILE];
            for row in terms {
                for (mx, &t) in m.iter_mut().zip(row) {
                    *mx = mx.max(t);
                }
            }
            // lint: reduction-order per-point exp_fast sum in log_pdf's component order
            let mut sum = [0.0; GMM_TILE];
            for row in terms {
                for ((acc, &t), &m) in sum.iter_mut().zip(row).zip(&m) {
                    *acc += exp_fast(t - m);
                }
            }
            // `log_sum_exp_fast`'s `-inf` early return, as a per-point select.
            for ((o, &m), &sum) in out.iter_mut().zip(&m).zip(&sum) {
                *o = if m == f64::NEG_INFINITY {
                    f64::NEG_INFINITY
                } else {
                    m + sum.ln()
                };
            }
        }
    }
}

impl Gmm {
    /// Batch log-likelihood under an explicit [`par::ChunkPolicy`].
    ///
    /// Identical bits to [`LikelihoodBackend::log_likelihood_into`] for
    /// every `(chunk_len, workers)` pair — each point's math is
    /// self-contained, so chunk boundaries and thread assignment are
    /// unobservable in the output. Exposed so the thread-sweep bench can
    /// re-tune [`par::MIN_CHUNK`] against the production kernel.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch or if `out.len() != batch.len()`.
    pub fn log_likelihood_into_policy(
        &mut self,
        batch: &PointBatch,
        out: &mut [f64],
        policy: par::ChunkPolicy,
    ) {
        let dim = Gmm::dim(self);
        check_batch_shape(dim, batch, out);
        let n = batch.len();
        if policy.is_single_chunk(n) {
            // Sequential production path: evaluate the whole batch inline
            // through the struct-held scratch — allocation-free once the
            // buffers have grown to the component count.
            let mut scratch = std::mem::take(&mut self.scratch);
            let plan = self.eval_plan();
            match (self.prune.as_ref(), plan.diag) {
                (Some(index), Some(diag)) => {
                    Self::eval_range_pruned(&plan, diag, index, batch, 0, out, &mut scratch)
                }
                _ => Self::eval_range(&plan, batch, 0, out, &mut scratch),
            }
            self.scratch = scratch;
            return;
        }
        let plan = self.eval_plan();
        if let (Some(index), Some(diag)) = (self.prune.as_ref(), plan.diag) {
            par::for_each_chunk_policy(policy, out, |start, chunk| {
                // Threaded chunk: worker-local scratch (allocates by
                // design — thread spawning already does). Bit-identical
                // to the inline path: scratch capacity is unobservable.
                // lint: allow(hot-path-alloc) threaded chunk closures own their scratch
                let mut scratch = BatchScratch::default();
                Self::eval_range_pruned(&plan, diag, index, batch, start, chunk, &mut scratch);
            });
        } else {
            par::for_each_chunk_policy(policy, out, |start, chunk| {
                // lint: allow(hot-path-alloc) threaded chunk closures own their scratch
                let mut scratch = BatchScratch::default();
                Self::eval_range(&plan, batch, start, chunk, &mut scratch);
            });
        }
    }

    /// Pruned evaluation of `chunk` (the output slice anchored at batch
    /// index `start`): fixed tiles anchored at absolute batch indices
    /// share one candidate query, so the pruning decision — and therefore
    /// the output bits — cannot depend on chunk boundaries or thread
    /// assignment.
    fn eval_range_pruned(
        plan: &GmmEvalPlan<'_>,
        diag: &DiagPlan,
        index: &PruneIndex,
        batch: &PointBatch,
        start: usize,
        chunk: &mut [f64],
        s: &mut BatchScratch,
    ) {
        let end = start + chunk.len();
        let mut pos = start;
        while pos < end {
            let tile_lo = (pos / PRUNE_TILE) * PRUNE_TILE;
            let tile_hi = (tile_lo + PRUNE_TILE).min(batch.len());
            let piece_end = end.min(tile_hi);
            let tile = batch.flat_range(tile_lo, tile_hi);
            let rows = batch.flat_range(pos, piece_end);
            let out = &mut chunk[pos - start..piece_end - start];
            match index.candidates_for_points(tile, &mut s.prune) {
                Some(cands) => plan.eval_tiles(
                    diag,
                    cands.iter().map(|&j| j as usize),
                    rows,
                    out,
                    &mut s.tile,
                ),
                // Non-finite tile: full evaluation, bit-identical
                // to the unpruned path for these points.
                None => plan.eval_tiles(diag, 0..diag.consts.len(), rows, out, &mut s.tile),
            }
            pos = piece_end;
        }
    }

    /// Unpruned evaluation of `chunk` (anchored at batch index `start`):
    /// the tiled kernel over all components, or per-point scalar
    /// evaluation for full-covariance models.
    fn eval_range(
        plan: &GmmEvalPlan<'_>,
        batch: &PointBatch,
        start: usize,
        chunk: &mut [f64],
        s: &mut BatchScratch,
    ) {
        match plan.diag {
            Some(diag) => {
                let rows = batch.flat_range(start, start + chunk.len());
                plan.eval_tiles(diag, 0..diag.consts.len(), rows, chunk, &mut s.tile);
            }
            None => {
                for (i, o) in chunk.iter_mut().enumerate() {
                    *o = plan.log_pdf(batch.point(start + i), &mut s.terms);
                }
            }
        }
    }
}

impl LikelihoodBackend for Gmm {
    fn dim(&self) -> usize {
        Gmm::dim(self)
    }

    fn log_likelihood_into(&mut self, batch: &PointBatch, out: &mut [f64]) {
        self.log_likelihood_into_policy(batch, out, par::ChunkPolicy::auto());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use navicim_math::approx_eq;
    use navicim_math::rng::Pcg32;
    use navicim_math::stats;

    fn simple_diag() -> Gmm {
        Gmm::new(
            vec![0.4, 0.6],
            vec![vec![0.0, 0.0], vec![4.0, 4.0]],
            Covariance::Diagonal(vec![vec![1.0, 1.0], vec![0.25, 0.25]]),
        )
        .unwrap()
    }

    #[test]
    fn construction_validation() {
        assert!(Gmm::new(vec![], vec![], Covariance::Diagonal(vec![])).is_err());
        assert!(Gmm::new(
            vec![0.5, 0.6],
            vec![vec![0.0], vec![1.0]],
            Covariance::Diagonal(vec![vec![1.0], vec![1.0]])
        )
        .is_err());
        assert!(Gmm::new(
            vec![1.0],
            vec![vec![0.0]],
            Covariance::Diagonal(vec![vec![-1.0]])
        )
        .is_err());
    }

    #[test]
    fn pdf_integrates_to_one_1d() {
        let gmm = Gmm::new(
            vec![0.3, 0.7],
            vec![vec![-1.0], vec![2.0]],
            Covariance::Diagonal(vec![vec![0.5], vec![1.5]]),
        )
        .unwrap();
        // Trapezoid integration over a wide interval.
        let mut integral = 0.0;
        let (lo, hi, n) = (-10.0, 12.0, 4000);
        let h = (hi - lo) / n as f64;
        for i in 0..=n {
            let x = lo + i as f64 * h;
            let w = if i == 0 || i == n { 0.5 } else { 1.0 };
            integral += w * gmm.pdf(&[x]) * h;
        }
        assert!(approx_eq(integral, 1.0, 1e-4), "integral = {integral}");
    }

    #[test]
    fn log_pdf_peaks_at_heavy_component() {
        let gmm = simple_diag();
        assert!(gmm.log_pdf(&[4.0, 4.0]) > gmm.log_pdf(&[0.0, 0.0]));
        assert!(gmm.log_pdf(&[0.0, 0.0]) > gmm.log_pdf(&[10.0, -10.0]));
    }

    #[test]
    fn full_covariance_matches_diagonal_when_diag() {
        let diag = simple_diag();
        let full = Gmm::new(
            diag.weights().to_vec(),
            diag.means().to_vec(),
            Covariance::Full(vec![Matrix::diag(&[1.0, 1.0]), Matrix::diag(&[0.25, 0.25])]),
        )
        .unwrap();
        for p in [[0.0, 0.0], [1.0, 2.0], [4.0, 3.5]] {
            assert!(approx_eq(diag.log_pdf(&p), full.log_pdf(&p), 1e-9));
        }
    }

    #[test]
    fn sampling_statistics() {
        let gmm = simple_diag();
        let mut rng = Pcg32::seed_from_u64(1);
        let samples: Vec<Vec<f64>> = (0..20_000).map(|_| gmm.sample(&mut rng)).collect();
        // Fraction near the second blob should approach its weight.
        let near_second =
            samples.iter().filter(|s| s[0] > 2.0).count() as f64 / samples.len() as f64;
        assert!((near_second - 0.6).abs() < 0.02, "{near_second}");
        let xs: Vec<f64> = samples.iter().map(|s| s[0]).collect();
        let expect_mean = 0.4 * 0.0 + 0.6 * 4.0;
        assert!((stats::mean(&xs) - expect_mean).abs() < 0.05);
    }

    #[test]
    fn full_covariance_sampling_respects_correlation() {
        let cov = Matrix::from_rows(&[&[1.0, 0.8], &[0.8, 1.0]]).unwrap();
        let gmm = Gmm::new(vec![1.0], vec![vec![0.0, 0.0]], Covariance::Full(vec![cov])).unwrap();
        let mut rng = Pcg32::seed_from_u64(2);
        let samples: Vec<Vec<f64>> = (0..20_000).map(|_| gmm.sample(&mut rng)).collect();
        let xs: Vec<f64> = samples.iter().map(|s| s[0]).collect();
        let ys: Vec<f64> = samples.iter().map(|s| s[1]).collect();
        let r = stats::pearson(&xs, &ys).unwrap();
        assert!((r - 0.8).abs() < 0.03, "correlation = {r}");
    }

    #[test]
    fn bic_prefers_true_component_count() {
        // Data from 2 blobs: BIC(2) should beat BIC(1) built by merging.
        let gmm2 = simple_diag();
        let mut rng = Pcg32::seed_from_u64(3);
        let data: Vec<Vec<f64>> = (0..500).map(|_| gmm2.sample(&mut rng)).collect();
        let gmm1 = Gmm::new(
            vec![1.0],
            vec![vec![2.4, 2.4]],
            Covariance::Diagonal(vec![vec![4.8, 4.8]]),
        )
        .unwrap();
        assert!(gmm2.bic(&data) < gmm1.bic(&data));
    }

    #[test]
    fn diag_std_devs_accessor() {
        let gmm = simple_diag();
        let sds = gmm.diag_std_devs().unwrap();
        assert_eq!(sds[1], vec![0.5, 0.5]);
    }

    #[test]
    fn policy_batch_path_is_chunking_invariant() {
        let mut gmm = simple_diag();
        let mut rng = Pcg32::seed_from_u64(4);
        let mut batch = PointBatch::with_capacity(2, 11);
        for _ in 0..11 {
            batch.push(&gmm.sample(&mut rng));
        }
        let mut auto = vec![0.0; 11];
        gmm.log_likelihood_into(&batch, &mut auto);
        for policy in [par::ChunkPolicy::exact(3, 4), par::ChunkPolicy::exact(1, 2)] {
            let mut out = vec![0.0; 11];
            gmm.log_likelihood_into_policy(&batch, &mut out, policy);
            assert_eq!(out, auto);
        }
    }
}
