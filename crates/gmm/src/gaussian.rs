//! Diagonal-covariance Gaussian mixture models.
//!
//! This is the *conventional* map representation of the paper's Section II:
//! a point cloud fitted with a GMM whose density is evaluated per projected
//! depth pixel on a digital datapath. The CIM co-design replaces it with
//! the [`crate::hmg`] family.

use crate::prune::{PruneConfig, PruneIndex, PruneScratch, PRUNE_TILE};
use crate::{GmmError, Result};
use navicim_backend::{check_batch_shape, par, LikelihoodBackend, PointBatch};
use navicim_math::rng::{Rng64, SampleExt};
use navicim_math::simd::{exp_fast, log_sum_exp_fast, EXP_UNDERFLOW};
use navicim_math::stats::LN_2PI;

/// A Gaussian mixture model with per-component per-axis variances
/// (axis-aligned ellipsoids).
#[derive(Debug, Clone)]
pub struct Gmm {
    weights: Vec<f64>,
    means: Vec<Vec<f64>>,
    vars: Vec<Vec<f64>>,
    /// Spatial culling index for the batch paths; `None` (the default)
    /// keeps every evaluation path untouched. See [`crate::prune`].
    prune: Option<PruneIndex>,
    /// Hoisted plan constants, built once at construction (the
    /// parameters are immutable after [`Gmm::new`]).
    diag_plan: DiagPlan,
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
            && self.vars == other.vars
            && self.prune == other.prune
    }
}

impl Gmm {
    /// Assembles a GMM from weights, means and per-axis variances.
    ///
    /// # Errors
    ///
    /// Returns [`GmmError::InvalidArgument`] when the component counts
    /// disagree, the weights are not a finite probability vector, a mean
    /// is not finite or a variance is not finite and positive, and
    /// [`GmmError::InconsistentDimensions`] when the dimensions disagree.
    pub fn new(weights: Vec<f64>, means: Vec<Vec<f64>>, vars: Vec<Vec<f64>>) -> Result<Self> {
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
        if weights.iter().any(|&w| !(w >= 0.0) || !w.is_finite()) || !((wsum - 1.0).abs() <= 1e-6) {
            return Err(GmmError::InvalidArgument(
                "weights must be finite, non-negative and sum to 1".into(),
            ));
        }
        if means.iter().flatten().any(|m| !m.is_finite()) {
            return Err(GmmError::InvalidArgument("means must be finite".into()));
        }
        if vars.len() != k || vars.iter().any(|v| v.len() != dim) {
            return Err(GmmError::InconsistentDimensions);
        }
        if vars.iter().flatten().any(|&v| !(v > 0.0) || !v.is_finite()) {
            return Err(GmmError::InvalidArgument(
                "variances must be finite and positive".into(),
            ));
        }
        let diag_plan = DiagPlan::build(&weights, &vars);
        Ok(Self {
            weights,
            means,
            vars,
            prune: None,
            diag_plan,
            scratch: BatchScratch::default(),
        })
    }

    /// Enables (or, with a disabled config, clears) spatial component
    /// pruning for the batch paths. Builds the [`PruneIndex`] once.
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

    /// Per-component per-axis variances.
    pub fn variances(&self) -> &[Vec<f64>] {
        &self.vars
    }

    /// Per-component per-axis standard deviations.
    pub fn diag_std_devs(&self) -> Vec<Vec<f64>> {
        self.vars
            .iter()
            .map(|v| v.iter().map(|x| x.sqrt()).collect())
            .collect()
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
        let mut terms = Vec::with_capacity(self.num_components());
        self.eval_plan().log_pdf(x, &mut terms)
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
            diag: &self.diag_plan,
        }
    }

    /// Draws one sample from the mixture.
    pub fn sample<R: Rng64 + ?Sized>(&self, rng: &mut R) -> Vec<f64> {
        let k = rng.sample_weighted(&self.weights);
        self.means[k]
            .iter()
            .zip(&self.vars[k])
            .map(|(&m, &v)| rng.sample_normal(m, v.sqrt()))
            .collect()
    }
}

/// Hoisted per-component constants of a mixture.
#[derive(Debug, Clone)]
struct DiagPlan {
    /// Per component: `ln w_k − Σᵢ ln σ_{k,i} − d/2 · ln 2π`.
    consts: Vec<f64>,
    /// Per component × axis: `−1/(2σ²)`, flattened row-major.
    neg_half_inv_vars: Vec<f64>,
}

impl DiagPlan {
    /// Hoists the query-independent constants of a validated parameter
    /// set.
    fn build(weights: &[f64], vars: &[Vec<f64>]) -> Self {
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
        Self {
            consts,
            neg_half_inv_vars,
        }
    }
}

/// Points per tile of the diagonal batch kernel: the component-major
/// body scores this many points per pass over the components.
pub const GMM_TILE: usize = 64;

/// Reused per-evaluation buffers of the batch likelihood kernel: the
/// tile buffers and the pruning tile scratch. Held by the [`Gmm`] so the single-chunk path —
/// the per-frame production configuration — is allocation-free once
/// warmed; the threaded path gives each chunk closure its own.
#[derive(Debug, Clone, Default)]
struct BatchScratch {
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
/// Built once per batch (or per scalar call) by [`Gmm::eval_plan`]; it
/// borrows the mixture's hoisted constants.
#[derive(Debug, Clone)]
pub struct GmmEvalPlan<'a> {
    gmm: &'a Gmm,
    diag: &'a DiagPlan,
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
        self.log_pdf_over(x, 0..self.diag.consts.len(), terms)
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
    /// Panics on dimension mismatch.
    pub fn log_pdf_subset(&self, x: &[f64], cands: &[u32], terms: &mut Vec<f64>) -> f64 {
        self.log_pdf_over(x, cands.iter().map(|&j| j as usize), terms)
    }

    /// The shared per-point body of [`Self::log_pdf`] and
    /// [`Self::log_pdf_subset`] over the components `comps`.
    fn log_pdf_over(
        &self,
        x: &[f64],
        comps: impl Iterator<Item = usize>,
        terms: &mut Vec<f64>,
    ) -> f64 {
        let dim = self.gmm.dim();
        assert_eq!(x.len(), dim, "query dimension mismatch");
        terms.clear();
        for k in comps {
            let nhiv = &self.diag.neg_half_inv_vars[k * dim..(k + 1) * dim];
            let mean = &self.gmm.means[k];
            let mut quad = 0.0;
            for i in 0..dim {
                let d = x[i] - mean[i];
                quad = (nhiv[i] * d).mul_add(d, quad);
            }
            terms.push(self.diag.consts[k] + quad);
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
    ///
    /// Two shortcuts keep those bits, both skipping work whose result is
    /// already known:
    /// - the `exp_fast` sum skips each group of 4 points whose terms all
    ///   sit below the max by more than [`EXP_UNDERFLOW`] (746 nats).
    ///   `exp_fast` is exactly `+0.0` there, and adding `+0.0` to a sum
    ///   that starts at `+0.0` and only grows changes nothing; a `NaN`
    ///   term is never skipped. On maps fitted to rooms, 42–45 % of the
    ///   groups are skipped;
    /// - a point whose sum is exactly `1.0` (only the max term counts)
    ///   gets `m + 0.0` without its libm `ln` call, as `ln(1.0)` is
    ///   exactly `+0.0`. That is 25–75 % of the points on the perfbench
    ///   workloads.
    ///
    /// The max fold, the quadratic and the component order run as before.
    fn eval_tiles(
        &self,
        comps: impl Iterator<Item = usize> + Clone,
        rows: &[f64],
        out: &mut [f64],
        s: &mut TileScratch,
    ) {
        let (plan, dim) = (self.diag, self.gmm.dim());
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
            let sum = exp_sum_live_groups(terms, &m);
            // `log_sum_exp_fast`'s `-inf` early return, as a per-point select.
            // A sum of exactly 1 (every other term under half an ulp of the
            // max's `exp_fast(0) = 1`) skips its libm call: `ln(1)` is `+0.0`.
            for ((o, &m), &sum) in out.iter_mut().zip(&m).zip(&sum) {
                *o = if m == f64::NEG_INFINITY {
                    f64::NEG_INFINITY
                } else if sum == 1.0 {
                    m + 0.0
                } else {
                    m + sum.ln()
                };
            }
        }
    }
}

/// Lanes per liveness group of [`exp_sum_live_groups`].
const LANES: usize = 4;

/// The per-point `exp_fast(t − m)` sum of a tile over the component rows
/// `terms`, in row order, skipping the exact zeros.
///
/// For each row, a liveness pass writes the indices of the
/// [`LANES`]-point groups with any lane at `t − m ≥ EXP_UNDERFLOW` (or
/// `NaN`) into a stack array, without a branch per group, and the
/// exponentials then run on those groups only (a row with every group
/// live runs the plain row loop instead). The result is bit for bit
/// the dense sum: every skipped term is exactly `+0.0` (the
/// [`EXP_UNDERFLOW`] contract), and an accumulator that starts at `+0.0`
/// and only adds non-negative terms is unchanged by adding `+0.0`.
#[inline(always)]
fn exp_sum_live_groups(terms: &[[f64; GMM_TILE]], m: &[f64; GMM_TILE]) -> [f64; GMM_TILE] {
    let mut sum = [0.0; GMM_TILE];
    let (sum4, _) = sum.as_chunks_mut::<LANES>();
    let (m4, _) = m.as_chunks::<LANES>();
    let mut live = [0u8; GMM_TILE / LANES];
    // lint: reduction-order per-point exp_fast sum in log_pdf's component order; skipped terms are exact +0.0
    for row in terms {
        let (t4, _) = row.as_chunks::<LANES>();
        let mut n = 0;
        for (g, (t, m)) in t4.iter().zip(m4).enumerate() {
            let mut any = false;
            for (&t, &m) in t.iter().zip(m) {
                any |= !(t - m < EXP_UNDERFLOW);
            }
            live[n] = g as u8;
            n += usize::from(any);
        }
        if n == live.len() {
            // Every group is live (overlapping components): the plain
            // row loop, without the indirection.
            for ((acc, &t), &m) in sum4.as_flattened_mut().iter_mut().zip(row).zip(m) {
                *acc += exp_fast(t - m);
            }
        } else {
            for &g in &live[..n] {
                let g = usize::from(g);
                for ((acc, &t), &m) in sum4[g].iter_mut().zip(&t4[g]).zip(&m4[g]) {
                    *acc += exp_fast(t - m);
                }
            }
        }
    }
    sum
}

/// The dense sum [`exp_sum_live_groups`] replaced: every term of every
/// lane, the parity oracle of the skip.
#[cfg(test)]
fn exp_sum_dense(terms: &[[f64; GMM_TILE]], m: &[f64; GMM_TILE]) -> [f64; GMM_TILE] {
    let mut sum = [0.0; GMM_TILE];
    for row in terms {
        for ((acc, &t), &m) in sum.iter_mut().zip(row).zip(m) {
            *acc += exp_fast(t - m);
        }
    }
    sum
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
            match self.prune.as_ref() {
                Some(index) => Self::eval_range_pruned(&plan, index, batch, 0, out, &mut scratch),
                None => Self::eval_range(&plan, batch, 0, out, &mut scratch),
            }
            self.scratch = scratch;
            return;
        }
        let plan = self.eval_plan();
        if let Some(index) = self.prune.as_ref() {
            par::for_each_chunk_policy(policy, out, |start, chunk| {
                // Threaded chunk: worker-local scratch (allocates by
                // design — thread spawning already does). Bit-identical
                // to the inline path: scratch capacity is unobservable.
                // lint: allow(hot-path-alloc) threaded chunk closures own their scratch
                let mut scratch = BatchScratch::default();
                Self::eval_range_pruned(&plan, index, batch, start, chunk, &mut scratch);
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
                Some(cands) => {
                    plan.eval_tiles(cands.iter().map(|&j| j as usize), rows, out, &mut s.tile)
                }
                // Non-finite tile: full evaluation, bit-identical
                // to the unpruned path for these points.
                None => plan.eval_tiles(0..plan.diag.consts.len(), rows, out, &mut s.tile),
            }
            pos = piece_end;
        }
    }

    /// Unpruned evaluation of `chunk` (anchored at batch index `start`):
    /// the tiled kernel over all components.
    fn eval_range(
        plan: &GmmEvalPlan<'_>,
        batch: &PointBatch,
        start: usize,
        chunk: &mut [f64],
        s: &mut BatchScratch,
    ) {
        let rows = batch.flat_range(start, start + chunk.len());
        plan.eval_tiles(0..plan.diag.consts.len(), rows, chunk, &mut s.tile);
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
            vec![vec![1.0, 1.0], vec![0.25, 0.25]],
        )
        .unwrap()
    }

    #[test]
    fn construction_validation() {
        assert!(Gmm::new(vec![], vec![], vec![]).is_err());
        assert!(Gmm::new(
            vec![0.5, 0.6],
            vec![vec![0.0], vec![1.0]],
            vec![vec![1.0], vec![1.0]]
        )
        .is_err());
        assert!(Gmm::new(vec![1.0], vec![vec![0.0]], vec![vec![-1.0]]).is_err());
    }

    #[test]
    fn construction_rejects_non_finite_parameters() {
        let (w, m, v) = (
            vec![0.5, 0.5],
            vec![vec![0.0, 0.0], vec![1.0, 1.0]],
            vec![vec![1.0, 1.0], vec![1.0, 1.0]],
        );
        assert!(Gmm::new(w.clone(), m.clone(), v.clone()).is_ok());
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut wb = w.clone();
            wb[1] = bad;
            assert!(Gmm::new(wb, m.clone(), v.clone()).is_err(), "weight {bad}");
            let mut mb = m.clone();
            mb[1][0] = bad;
            assert!(Gmm::new(w.clone(), mb, v.clone()).is_err(), "mean {bad}");
            let mut vb = v.clone();
            vb[0][1] = bad;
            assert!(
                Gmm::new(w.clone(), m.clone(), vb).is_err(),
                "variance {bad}"
            );
        }
    }

    #[test]
    fn pdf_integrates_to_one_1d() {
        let gmm = Gmm::new(
            vec![0.3, 0.7],
            vec![vec![-1.0], vec![2.0]],
            vec![vec![0.5], vec![1.5]],
        )
        .unwrap();
        // Trapezoid integration over a wide interval.
        let mut integral = 0.0;
        let (lo, hi, n) = (-10.0, 12.0, 4000);
        let h = (hi - lo) / n as f64;
        for i in 0..=n {
            let x = lo + i as f64 * h;
            let w = if i == 0 || i == n { 0.5 } else { 1.0 };
            integral += w * gmm.log_pdf(&[x]).exp() * h;
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
    fn diag_std_devs_accessor() {
        let gmm = simple_diag();
        let sds = gmm.diag_std_devs();
        assert_eq!(sds[1], vec![0.5, 0.5]);
    }

    #[test]
    fn ln_of_one_is_positive_zero() {
        // `eval_tiles` writes `m + 0.0` for a sum of exactly 1 in place of
        // `m + sum.ln()`; the two agree bit for bit (`m = -0.0` included)
        // only while the platform's `ln(1.0)` is `+0.0`, as IEEE 754
        // requires.
        assert_eq!(1f64.ln().to_bits(), 0);
    }

    #[test]
    fn live_group_sum_matches_the_dense_sum_bit_for_bit() {
        // Term rows whose distance below each lane's max is drawn per
        // 4-lane group from a mix of regimes: all dead, all live, mixed,
        // inside the subnormal band just above the cutoff, and
        // non-finite. Column 7 is all `-inf` (its max is `-inf`, so every
        // difference is `NaN`). Every other case's first row is all live,
        // which takes the plain row loop.
        let mut rng = Pcg32::seed_from_u64(26);
        let mut regimes = [0usize; 6];
        for case in 0..400 {
            let k = 1 + rng.sample_index(12);
            let base: [f64; GMM_TILE] = std::array::from_fn(|_| rng.sample_uniform(-40.0, 5.0));
            let mut terms = vec![[0.0; GMM_TILE]; k];
            for (r, row) in terms.iter_mut().enumerate() {
                for (g, lanes) in row.chunks_mut(4).enumerate() {
                    let regime = if r == 0 && case % 2 == 0 {
                        1
                    } else {
                        rng.sample_index(6)
                    };
                    regimes[regime] += 1;
                    for (l, t) in lanes.iter_mut().enumerate() {
                        let b = base[g * 4 + l];
                        *t = match regime {
                            0 => b - rng.sample_uniform(747.0, 1e6),
                            1 => b - rng.sample_uniform(0.0, 700.0),
                            2 if rng.sample_bool(0.5) => b - rng.sample_uniform(747.0, 3e3),
                            2 => b - rng.sample_uniform(0.0, 745.0),
                            3 => b - rng.sample_uniform(708.0, 746.0),
                            _ => {
                                [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, b][rng.sample_index(4)]
                            }
                        };
                    }
                }
                row[7] = f64::NEG_INFINITY;
            }
            // The kernel's own max fold.
            let mut m = [f64::NEG_INFINITY; GMM_TILE];
            for row in &terms {
                for (mx, &t) in m.iter_mut().zip(row) {
                    *mx = mx.max(t);
                }
            }
            let bits = |s: [f64; GMM_TILE]| s.map(f64::to_bits);
            // Against the true max every sum holds an `exp_fast(0) = 1`
            // that absorbs subnormal terms. A raised `m` makes whole sums
            // subnormal, so a skip that dropped live subnormal terms
            // would show in the bits.
            for lift in [0.0, 20.0, 720.0] {
                let m = m.map(|m| m + lift);
                assert_eq!(
                    bits(exp_sum_live_groups(&terms, &m)),
                    bits(exp_sum_dense(&terms, &m)),
                    "lift {lift}"
                );
            }
        }
        assert!(regimes.iter().all(|&r| r > 100), "{regimes:?}");
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
