//! Spatially-indexed component pruning for the digital GMM kernel.
//!
//! The batch likelihood path is O(points × components), yet a localized
//! particle cloud overlaps a handful of map components at most — the rest
//! contribute terms that are exponentially negligible. This module builds
//! a uniform grid over the component-mean bounding box once per diagonal
//! [`Gmm`] (`PruneIndex`), storing per-cell candidate lists derived from
//! *conservative* per-component log-contribution bounds. The batch path
//! computes the axis-aligned bounding box of a fixed tile of query points,
//! intersects it with the grid, and evaluates only the surviving
//! candidates. Pruning reaches this kernel only: the HMG mixture and the
//! CIM engine always score every component.
//!
//! # The epsilon gate
//!
//! A component `k` is dropped for a query AABB only when its log-term
//! upper bound sits more than `margin = ln(K/PRUNE_EPSILON) + 1` below
//! the best lower bound over the candidate set. The component attaining
//! that lower bound is always kept and dominates every dropped term by at
//! least `e^margin` at *every* point of the AABB, so the additive
//! log-likelihood error of a pruned evaluation is at most
//! `ln(1 + K·e^{-margin}) ≤ PRUNE_EPSILON/e` nats. This is the same
//! documented-tolerance contract style as `EXP_FAST_MAX_ULP`: the gate is
//! explicit, conservative and property-tested, and pruning defaults
//! **off** with the off mode bit-identical by construction (the full
//! evaluation paths are untouched).
//!
//! # Tiling
//!
//! Queries are grouped into fixed tiles of [`PRUNE_TILE`] consecutive
//! batch points, anchored at absolute batch indices. Because a
//! tile's AABB is computed over the *full* tile regardless of chunk
//! boundaries, the pruning decision is invariant under every
//! `par::ChunkPolicy` — chunking stays unobservable in the output bits,
//! pruned or not. A tile containing any non-finite coordinate falls back
//! to the full component set, so NaN/∞ propagation matches the unpruned
//! path exactly.

use crate::gaussian::{Covariance, Gmm};
use navicim_math::stats::LN_2PI;

/// Additive log-likelihood tolerance of a pruned evaluation, in nats.
///
/// The prune margin is derived from this bound (see the module docs), so
/// pruned and full evaluations agree to well below any downstream
/// consumer's resolution — particle weights are normalized ratios of
/// exponentials, where 1e-6 nats is a relative weight change of ~1e-6.
pub const PRUNE_EPSILON: f64 = 1e-6;

/// Number of consecutive batch points sharing one pruning decision.
///
/// Small enough that a localized particle cloud's tiles stay tight,
/// large enough that the per-tile AABB + grid query cost (O(dim·TILE +
/// K)) is negligible against the evaluations it saves.
pub const PRUNE_TILE: usize = 256;

/// Grid resolution per axis, lowered for high-dimensional models until
/// the cell table fits [`MAX_TOTAL_CELLS`].
const CELLS_PER_AXIS: usize = 8;

/// Cap on total grid cells across all axes.
const MAX_TOTAL_CELLS: usize = 32_768;

/// Pruning switch threaded from `LocalizerConfig` down to the digital
/// GMM kernel.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PruneConfig {
    /// Master switch; `false` (the default) leaves every evaluation path
    /// untouched and bit-identical to previous releases.
    pub enabled: bool,
}

impl PruneConfig {
    /// An enabled config.
    pub fn enabled() -> Self {
        Self { enabled: true }
    }
}

/// Reusable query-side scratch for [`PruneIndex::candidates_for_points`]
/// (AABB, candidate bitset, upper-bound staging). One per worker chunk,
/// like the kernels' own batch scratch.
#[derive(Debug, Clone, Default)]
pub struct PruneScratch {
    lo: Vec<f64>,
    hi: Vec<f64>,
    seen: Vec<u64>,
    span: Vec<(usize, usize)>,
    idx: Vec<usize>,
    union: Vec<u32>,
    cands: Vec<u32>,
    uppers: Vec<f64>,
}

/// Uniform spatial grid over the component means with per-cell
/// conservative candidate lists. Built once at backend construction;
/// shared read-only by every chunk of every batch.
///
/// Component `k`'s log term is `t_k(x) = c_k + Σᵢ nhivᵢ·(xᵢ−μᵢ)²`,
/// exactly the hoisted form the digital evaluation plan computes.
#[derive(Debug, Clone, PartialEq)]
pub struct PruneIndex {
    dim: usize,
    k: usize,
    /// Grid origin per axis (min component mean).
    grid_lo: Vec<f64>,
    /// Cell width per axis (> 0).
    cell_w: Vec<f64>,
    /// Cells per axis.
    cells: usize,
    /// Component means, flattened row-major (`k × dim`).
    means: Vec<f64>,
    /// `ln w_k − Σᵢ ln σ_{k,i} − d/2·ln 2π` per component.
    consts: Vec<f64>,
    /// `−1/(2σ²)` per component × axis, flattened row-major.
    neg_half_inv_vars: Vec<f64>,
    /// Candidate component ids per cell, ascending, row-major cell order.
    cell_candidates: Vec<Vec<u32>>,
    /// The epsilon-derived log-domain prune margin (see module docs):
    /// `ln(K/ε)` for the summed dropped terms plus one nat of slack
    /// covering the `exp_fast`/`f64::exp` ulp gap between bound math and
    /// realized terms.
    margin: f64,
}

impl PruneIndex {
    /// Builds an index over a diagonal [`Gmm`]'s components.
    ///
    /// Returns `None` for full-covariance models (no bound model — the
    /// full evaluation path is used unconditionally) and for disabled
    /// configs.
    pub fn for_diag_gmm(gmm: &Gmm, config: PruneConfig) -> Option<Self> {
        if !config.enabled {
            return None;
        }
        let Covariance::Diagonal(vars) = gmm.covariance() else {
            return None;
        };
        let dim = gmm.dim();
        let k = gmm.num_components();
        let mut consts = Vec::with_capacity(k);
        let mut nhiv = Vec::with_capacity(k * dim);
        let mut means = Vec::with_capacity(k * dim);
        for (j, vj) in vars.iter().enumerate() {
            // Exactly the DiagPlan hoisting, so bounds and realized terms
            // share one formula.
            let mut c = gmm.weights()[j].max(1e-300).ln() - 0.5 * dim as f64 * LN_2PI;
            for &v in vj {
                c -= 0.5 * v.ln();
                nhiv.push(-0.5 / v);
            }
            consts.push(c);
            means.extend_from_slice(&gmm.means()[j]);
        }

        // Grid over the component-mean bounding box; degenerate axes get
        // an artificial width so every cell stays well-formed.
        let mut grid_lo = vec![f64::INFINITY; dim];
        let mut grid_hi = vec![f64::NEG_INFINITY; dim];
        for j in 0..k {
            for i in 0..dim {
                grid_lo[i] = grid_lo[i].min(means[j * dim + i]);
                grid_hi[i] = grid_hi[i].max(means[j * dim + i]);
            }
        }
        // `cells^dim` overflows `usize` for high-dimensional models, so
        // the fit test is checked; one cell per axis always fits.
        let fits = |cells: usize| {
            u32::try_from(dim)
                .ok()
                .and_then(|d| cells.checked_pow(d))
                .is_some_and(|total| total <= MAX_TOTAL_CELLS)
        };
        let mut cells = CELLS_PER_AXIS;
        while cells > 1 && !fits(cells) {
            cells -= 1;
        }
        let cell_w: Vec<f64> = (0..dim)
            .map(|i| ((grid_hi[i] - grid_lo[i]).max(1e-9)) / cells as f64)
            .collect();

        let index = Self {
            dim,
            k,
            grid_lo,
            cell_w,
            cells,
            means,
            consts,
            neg_half_inv_vars: nhiv,
            cell_candidates: Vec::new(),
            margin: (k as f64 / PRUNE_EPSILON).ln() + 1.0,
        };
        Some(index.with_cell_lists())
    }

    /// Fills the per-cell candidate lists by running the margin rule on
    /// every cell's AABB. Edge cells extend to ±∞ so any query point —
    /// also ones outside the mean bounding box — maps to a valid cell
    /// with sound bounds.
    fn with_cell_lists(mut self) -> Self {
        let total = self.cells.pow(self.dim as u32);
        let mut lists = Vec::with_capacity(total);
        let mut lo = vec![0.0; self.dim];
        let mut hi = vec![0.0; self.dim];
        let mut idx = vec![0usize; self.dim];
        for _ in 0..total {
            for i in 0..self.dim {
                lo[i] = if idx[i] == 0 {
                    f64::NEG_INFINITY
                } else {
                    self.grid_lo[i] + idx[i] as f64 * self.cell_w[i]
                };
                hi[i] = if idx[i] + 1 == self.cells {
                    f64::INFINITY
                } else {
                    self.grid_lo[i] + (idx[i] + 1) as f64 * self.cell_w[i]
                };
            }
            lists.push(self.candidates_for_aabb(&lo, &hi, None));
            // Row-major multi-index increment.
            for i in (0..self.dim).rev() {
                idx[i] += 1;
                if idx[i] < self.cells {
                    break;
                }
                idx[i] = 0;
            }
        }
        self.cell_candidates = lists;
        self
    }

    /// Upper bound of component `j`'s log term over the AABB. Attained
    /// at the in-box point nearest the mean per axis, so it is exact for
    /// boxes containing the mean.
    fn upper_bound(&self, j: usize, lo: &[f64], hi: &[f64]) -> f64 {
        let mj = &self.means[j * self.dim..(j + 1) * self.dim];
        let nhiv = &self.neg_half_inv_vars[j * self.dim..(j + 1) * self.dim];
        let mut quad = 0.0;
        for i in 0..self.dim {
            let d = (lo[i] - mj[i]).max(mj[i] - hi[i]).max(0.0);
            quad += nhiv[i] * d * d;
        }
        self.consts[j] + quad
    }

    /// Lower bound of component `j`'s log term over the AABB (the value
    /// at the in-box point farthest from the mean per axis).
    fn lower_bound(&self, j: usize, lo: &[f64], hi: &[f64]) -> f64 {
        let mj = &self.means[j * self.dim..(j + 1) * self.dim];
        let nhiv = &self.neg_half_inv_vars[j * self.dim..(j + 1) * self.dim];
        let mut quad = 0.0;
        for i in 0..self.dim {
            let d = (hi[i] - mj[i]).max(mj[i] - lo[i]).max(0.0);
            // ±∞ extents make d·d overflow to +∞ and the product
            // to −∞: the bound degrades gracefully to "no floor".
            quad += nhiv[i] * (d * d);
        }
        self.consts[j] + quad
    }

    /// The margin rule on an explicit AABB: keep `j` iff
    /// `U_j ≥ max_i L_i − margin`, always retaining the best-upper-bound
    /// component so the survivor set is never empty. `within` restricts
    /// the scan to a pre-filtered candidate set (the cell-list union).
    fn candidates_for_aabb(&self, lo: &[f64], hi: &[f64], within: Option<&[u32]>) -> Vec<u32> {
        let mut out = Vec::new();
        let mut uppers = Vec::new();
        self.refine(lo, hi, within, &mut out, &mut uppers);
        out
    }

    fn refine(
        &self,
        lo: &[f64],
        hi: &[f64],
        within: Option<&[u32]>,
        out: &mut Vec<u32>,
        uppers: &mut Vec<f64>,
    ) {
        out.clear();
        uppers.clear();
        let mut best_lower = f64::NEG_INFINITY;
        let mut best_upper = f64::NEG_INFINITY;
        let mut best_upper_j = 0u32;
        let mut scan = |j: u32| {
            let u = self.upper_bound(j as usize, lo, hi);
            if u > best_upper {
                best_upper = u;
                best_upper_j = j;
            }
            let l = self.lower_bound(j as usize, lo, hi);
            if l > best_lower {
                best_lower = l;
            }
            out.push(j);
            uppers.push(u);
        };
        match within {
            Some(set) => set.iter().for_each(|&j| scan(j)),
            None => (0..self.k as u32).for_each(&mut scan),
        }
        let cut = best_lower - self.margin;
        let mut w = 0;
        for r in 0..out.len() {
            if uppers[r] >= cut || out[r] == best_upper_j {
                out[w] = out[r];
                w += 1;
            }
        }
        out.truncate(w);
        if out.is_empty() {
            // All bounds −∞ (possible only for degenerate zero-weight
            // models): keep the best-upper component for a deterministic,
            // non-empty survivor set.
            out.push(best_upper_j);
        }
    }

    /// Grid cell index of a coordinate on one axis.
    fn cell_of(&self, axis: usize, x: f64) -> usize {
        let r = (x - self.grid_lo[axis]) / self.cell_w[axis];
        if r.is_nan() {
            return 0;
        }
        (r.floor().max(0.0) as usize).min(self.cells - 1)
    }

    /// Candidate components for a tile of `points.len()/dim` row-major
    /// query points.
    ///
    /// Returns `None` when any coordinate is non-finite — the caller
    /// must fall back to the full component set so NaN/∞ propagation
    /// matches the unpruned path bit for bit. Otherwise the returned
    /// slice is ascending and non-empty, and valid until the next call
    /// on the same scratch.
    pub fn candidates_for_points<'s>(
        &self,
        points: &[f64],
        scratch: &'s mut PruneScratch,
    ) -> Option<&'s [u32]> {
        debug_assert_eq!(points.len() % self.dim, 0);
        scratch.lo.clear();
        scratch.lo.resize(self.dim, f64::INFINITY);
        scratch.hi.clear();
        scratch.hi.resize(self.dim, f64::NEG_INFINITY);
        let mut finite = true;
        for p in points.chunks_exact(self.dim) {
            for (i, &x) in p.iter().enumerate() {
                finite &= x.is_finite();
                scratch.lo[i] = scratch.lo[i].min(x);
                scratch.hi[i] = scratch.hi[i].max(x);
            }
        }
        if !finite || points.is_empty() {
            return None;
        }
        // Union of the covered cells' candidate lists via a bitset, then
        // the margin rule on the tile AABB itself. Ascending order falls
        // out of the bitset scan, keeping subset evaluation order
        // deterministic.
        let words = self.k.div_ceil(64);
        scratch.seen.clear();
        scratch.seen.resize(words, 0);
        scratch.span.clear();
        scratch.idx.clear();
        for i in 0..self.dim {
            let a = self.cell_of(i, scratch.lo[i]);
            let b = self.cell_of(i, scratch.hi[i]);
            scratch.span.push((a, b));
            scratch.idx.push(a);
        }
        let (span, idx) = (&scratch.span, &mut scratch.idx);
        loop {
            let mut cell = 0usize;
            for &j in idx.iter() {
                cell = cell * self.cells + j;
            }
            for &c in &self.cell_candidates[cell] {
                scratch.seen[c as usize / 64] |= 1u64 << (c % 64);
            }
            // Advance the multi-index over the covered cell ranges.
            let mut done = true;
            for i in (0..self.dim).rev() {
                if idx[i] < span[i].1 {
                    idx[i] += 1;
                    done = false;
                    break;
                }
                idx[i] = span[i].0;
            }
            if done {
                break;
            }
        }
        scratch.union.clear();
        for (w, &word) in scratch.seen.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                scratch.union.push((w * 64 + b) as u32);
                bits &= bits - 1;
            }
        }
        let PruneScratch {
            lo,
            hi,
            union,
            cands,
            uppers,
            ..
        } = scratch;
        self.refine(lo, hi, Some(union), cands, uppers);
        Some(&scratch.cands)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gaussian::Covariance;
    use navicim_math::rng::{Pcg32, SampleExt};

    fn spread_gmm(k: usize) -> Gmm {
        let mut rng = Pcg32::seed_from_u64(7);
        let means: Vec<Vec<f64>> = (0..k)
            .map(|_| {
                vec![
                    rng.sample_uniform(-10.0, 10.0),
                    rng.sample_uniform(-10.0, 10.0),
                ]
            })
            .collect();
        let vars = vec![vec![0.2, 0.3]; k];
        Gmm::new(vec![1.0 / k as f64; k], means, Covariance::Diagonal(vars)).unwrap()
    }

    #[test]
    fn disabled_config_builds_nothing() {
        let gmm = spread_gmm(8);
        assert!(PruneIndex::for_diag_gmm(&gmm, PruneConfig::default()).is_none());
    }

    #[test]
    fn bounds_are_conservative_gmm() {
        let gmm = spread_gmm(16);
        let index = PruneIndex::for_diag_gmm(&gmm, PruneConfig::enabled()).unwrap();
        let plan = gmm.eval_plan();
        let mut rng = Pcg32::seed_from_u64(9);
        let mut terms = Vec::new();
        for _ in 0..50 {
            let cx = rng.sample_uniform(-11.0, 11.0);
            let cy = rng.sample_uniform(-11.0, 11.0);
            let (lo, hi) = ([cx - 0.7, cy - 0.4], [cx + 0.7, cy + 0.4]);
            for _ in 0..20 {
                let x = [
                    rng.sample_uniform(lo[0], hi[0]),
                    rng.sample_uniform(lo[1], hi[1]),
                ];
                plan.log_pdf(&x, &mut terms);
                for j in 0..gmm.num_components() {
                    let u = index.upper_bound(j, &lo, &hi);
                    let l = index.lower_bound(j, &lo, &hi);
                    assert!(
                        terms[j] <= u + 1e-9 && terms[j] >= l - 1e-9,
                        "component {j}: term {} outside [{l}, {u}]",
                        terms[j]
                    );
                }
            }
        }
    }

    #[test]
    fn tight_tile_prunes_far_components() {
        let gmm = spread_gmm(64);
        let index = PruneIndex::for_diag_gmm(&gmm, PruneConfig::enabled()).unwrap();
        // A tight cloud around one mean should keep far fewer than K.
        let m = &gmm.means()[0];
        let mut pts = Vec::new();
        for s in 0..32 {
            pts.push(m[0] + (s as f64 - 16.0) * 0.01);
            pts.push(m[1] + (s as f64 - 16.0) * 0.008);
        }
        let mut scratch = PruneScratch::default();
        let cands = index.candidates_for_points(&pts, &mut scratch).unwrap();
        assert!(!cands.is_empty());
        assert!(
            cands.len() < 64,
            "expected pruning, kept {} of 64",
            cands.len()
        );
        assert!(cands.contains(&0), "the enclosing component must survive");
        assert!(cands.windows(2).all(|w| w[0] < w[1]), "ascending order");
    }

    #[test]
    fn non_finite_tile_returns_none() {
        let gmm = spread_gmm(8);
        let index = PruneIndex::for_diag_gmm(&gmm, PruneConfig::enabled()).unwrap();
        let mut scratch = PruneScratch::default();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let pts = vec![0.0, 0.0, bad, 1.0];
            assert!(index.candidates_for_points(&pts, &mut scratch).is_none());
        }
        assert!(index.candidates_for_points(&[], &mut scratch).is_none());
    }

    #[test]
    fn far_outside_grid_still_resolves() {
        let gmm = spread_gmm(8);
        let index = PruneIndex::for_diag_gmm(&gmm, PruneConfig::enabled()).unwrap();
        let mut scratch = PruneScratch::default();
        let pts = vec![1e6, -1e6, 1e6 + 1.0, -1e6 - 1.0];
        let cands = index.candidates_for_points(&pts, &mut scratch).unwrap();
        assert!(!cands.is_empty(), "survivor set is never empty");
    }

    #[test]
    fn pruned_gmm_batch_matches_full_within_epsilon() {
        use navicim_backend::{par, PointBatch};
        let mut rng = Pcg32::seed_from_u64(21);
        for &k in &[4usize, 16, 64] {
            let mut full = spread_gmm(k);
            let mut pruned = spread_gmm(k);
            pruned.set_prune(PruneConfig::enabled());
            // Clustered cloud (pruning active) plus scattered outliers.
            let mut batch = PointBatch::new(2);
            let (cx, cy) = (rng.sample_uniform(-8.0, 8.0), rng.sample_uniform(-8.0, 8.0));
            for _ in 0..700 {
                batch.push(&[rng.sample_normal(cx, 0.3), rng.sample_normal(cy, 0.3)]);
            }
            for _ in 0..61 {
                batch.push(&[
                    rng.sample_uniform(-12.0, 12.0),
                    rng.sample_uniform(-12.0, 12.0),
                ]);
            }
            let mut want = vec![0.0; batch.len()];
            full.log_likelihood_into_policy(&batch, &mut want, par::ChunkPolicy::auto());
            for policy in [
                par::ChunkPolicy::auto(),
                par::ChunkPolicy::exact(100, 4),
                par::ChunkPolicy::exact(3, 2),
            ] {
                let mut got = vec![0.0; batch.len()];
                pruned.log_likelihood_into_policy(&batch, &mut got, policy);
                for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                    assert!(
                        (g - w).abs() <= PRUNE_EPSILON,
                        "k={k} point {i}: pruned {g} vs full {w}"
                    );
                }
            }
        }
    }

    #[test]
    fn high_dimensional_model_shrinks_the_grid_to_fit() {
        use navicim_backend::{par, PointBatch};
        // 8^22 cells overflow `usize`: the grid must shrink to one cell
        // per axis instead of overflowing into an empty cell table.
        let dim = 22;
        let mut rng = Pcg32::seed_from_u64(25);
        let means: Vec<Vec<f64>> = (0..4)
            .map(|_| (0..dim).map(|_| rng.sample_uniform(-3.0, 3.0)).collect())
            .collect();
        let gmm = || {
            Gmm::new(
                vec![0.25; 4],
                means.clone(),
                Covariance::Diagonal(vec![vec![0.5; dim]; 4]),
            )
            .unwrap()
        };
        let mut full = gmm();
        let mut pruned = gmm();
        pruned.set_prune(PruneConfig::enabled());
        assert_eq!(pruned.prune_index().unwrap().cells, 1);
        let mut batch = PointBatch::new(dim);
        for _ in 0..9 {
            let p: Vec<f64> = (0..dim).map(|_| rng.sample_uniform(-4.0, 4.0)).collect();
            batch.push(&p);
        }
        let mut want = vec![0.0; batch.len()];
        full.log_likelihood_into_policy(&batch, &mut want, par::ChunkPolicy::auto());
        let mut got = vec![0.0; batch.len()];
        pruned.log_likelihood_into_policy(&batch, &mut got, par::ChunkPolicy::auto());
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() <= PRUNE_EPSILON, "pruned {g} vs full {w}");
        }
    }

    #[test]
    fn non_finite_points_fall_back_bit_identically() {
        use navicim_backend::{par, PointBatch};
        let mut rng = Pcg32::seed_from_u64(23);
        let mut full = spread_gmm(16);
        let mut pruned = spread_gmm(16);
        pruned.set_prune(PruneConfig::enabled());
        let mut batch = PointBatch::new(2);
        for i in 0..50 {
            match i % 9 {
                3 => batch.push(&[f64::NAN, rng.sample_uniform(-5.0, 5.0)]),
                6 => batch.push(&[rng.sample_uniform(-5.0, 5.0), f64::NEG_INFINITY]),
                _ => batch.push(&[rng.sample_uniform(-5.0, 5.0), rng.sample_uniform(-5.0, 5.0)]),
            }
        }
        // The poisoned tile (every tile here: n < PRUNE_TILE) falls back
        // to the full path, so outputs are bit-identical — including NaN
        // propagation patterns.
        let mut want = vec![0.0; batch.len()];
        full.log_likelihood_into_policy(&batch, &mut want, par::ChunkPolicy::auto());
        let mut got = vec![0.0; batch.len()];
        pruned.log_likelihood_into_policy(&batch, &mut got, par::ChunkPolicy::exact(7, 3));
        assert_eq!(
            want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            got.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn prune_toggle_off_restores_bit_identity() {
        use navicim_backend::{par, PointBatch};
        let mut rng = Pcg32::seed_from_u64(24);
        let mut batch = PointBatch::new(2);
        for _ in 0..300 {
            batch.push(&[
                rng.sample_uniform(-10.0, 10.0),
                rng.sample_uniform(-10.0, 10.0),
            ]);
        }
        let mut baseline = spread_gmm(32);
        let mut toggled = spread_gmm(32);
        toggled.set_prune(PruneConfig::enabled());
        toggled.set_prune(PruneConfig::default());
        let mut want = vec![0.0; batch.len()];
        baseline.log_likelihood_into_policy(&batch, &mut want, par::ChunkPolicy::auto());
        let mut got = vec![0.0; batch.len()];
        toggled.log_likelihood_into_policy(&batch, &mut got, par::ChunkPolicy::auto());
        assert_eq!(
            want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            got.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }
}
