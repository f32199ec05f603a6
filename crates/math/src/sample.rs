//! Weighted-resampling schemes used by the particle filter.
//!
//! Given normalized particle weights, each scheme returns the indices of the
//! particles selected for the next generation. Systematic resampling is the
//! workhorse (lowest variance, O(n)); multinomial, stratified and residual
//! variants are provided for the resampling-ablation experiments.

use crate::rng::{Rng64, SampleExt};

/// Resampling scheme selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ResampleScheme {
    /// Systematic resampling: one uniform offset, comb of n equally spaced
    /// pointers. Lowest variance, the default.
    #[default]
    Systematic,
    /// Independent multinomial draws (highest variance).
    Multinomial,
    /// Stratified resampling: one uniform per stratum.
    Stratified,
    /// Residual resampling: deterministic copies of ⌊n wᵢ⌋ then multinomial
    /// on the remainder.
    Residual,
}

impl ResampleScheme {
    /// All supported schemes, for sweep experiments.
    pub const ALL: [ResampleScheme; 4] = [
        ResampleScheme::Systematic,
        ResampleScheme::Multinomial,
        ResampleScheme::Stratified,
        ResampleScheme::Residual,
    ];

    /// Dispatches to the matching resampling function.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or does not sum to a positive value.
    pub fn resample<R: Rng64 + ?Sized>(self, weights: &[f64], rng: &mut R) -> Vec<usize> {
        let mut scratch = ResampleScratch::default();
        let mut out = Vec::new();
        self.resample_into(weights, rng, &mut scratch, &mut out);
        out
    }

    /// [`Self::resample`] into caller-owned buffers: `out` receives the
    /// selected indices, `scratch` holds the normalized weights (and any
    /// scheme-specific intermediate). Bit-identical to [`Self::resample`]
    /// — which delegates here — but allocation-free once the buffers have
    /// reached the particle count, which is what keeps the filter's
    /// resampling frames inside the workspace's zero-alloc steady-state
    /// contract.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or does not sum to a positive value.
    pub fn resample_into<R: Rng64 + ?Sized>(
        self,
        weights: &[f64],
        rng: &mut R,
        scratch: &mut ResampleScratch,
        out: &mut Vec<usize>,
    ) {
        match self {
            ResampleScheme::Systematic => systematic_into(weights, rng, scratch, out),
            ResampleScheme::Multinomial => multinomial_into(weights, rng, scratch, out),
            ResampleScheme::Stratified => stratified_into(weights, rng, scratch, out),
            ResampleScheme::Residual => residual_into(weights, rng, scratch, out),
        }
    }
}

/// Reusable buffers for [`ResampleScheme::resample_into`]: the
/// normalized-weight copy every scheme takes, plus the per-scheme
/// intermediate (multinomial's CDF, residual's remainders). Grows to the
/// particle count once, then resampling is allocation-free.
#[derive(Debug, Clone, Default)]
pub struct ResampleScratch {
    norm: Vec<f64>,
    aux: Vec<f64>,
}

impl std::fmt::Display for ResampleScheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            ResampleScheme::Systematic => "systematic",
            ResampleScheme::Multinomial => "multinomial",
            ResampleScheme::Stratified => "stratified",
            ResampleScheme::Residual => "residual",
        };
        f.write_str(name)
    }
}

// lint: reduction-order — the normalization total is summed in index
// order; resampling indices (and so the filter trajectory) depend on it.
fn normalized_into(weights: &[f64], norm: &mut Vec<f64>) {
    assert!(!weights.is_empty(), "resampling requires weights");
    let total: f64 = weights.iter().sum();
    assert!(
        total > 0.0 && total.is_finite(),
        "resampling requires a positive finite total weight"
    );
    norm.clear();
    norm.extend(weights.iter().map(|w| w / total));
}

/// Systematic resampling into caller-owned buffers (see
/// [`ResampleScheme::resample_into`]).
///
/// # Panics
///
/// Panics if `weights` is empty or sums to a non-positive value.
fn systematic_into<R: Rng64 + ?Sized>(
    weights: &[f64],
    rng: &mut R,
    scratch: &mut ResampleScratch,
    out: &mut Vec<usize>,
) {
    normalized_into(weights, &mut scratch.norm);
    let w = &scratch.norm;
    let n = w.len();
    let step = 1.0 / n as f64;
    let mut u = rng.next_f64() * step;
    out.clear();
    let mut cum = w[0];
    let mut i = 0;
    for _ in 0..n {
        while u > cum && i + 1 < n {
            i += 1;
            cum += w[i];
        }
        out.push(i);
        u += step;
    }
}

/// Multinomial resampling into caller-owned buffers (see
/// [`ResampleScheme::resample_into`]).
///
/// # Panics
///
/// Panics if `weights` is empty or sums to a non-positive value.
fn multinomial_into<R: Rng64 + ?Sized>(
    weights: &[f64],
    rng: &mut R,
    scratch: &mut ResampleScratch,
    out: &mut Vec<usize>,
) {
    normalized_into(weights, &mut scratch.norm);
    let w = &scratch.norm;
    let n = w.len();
    // Cumulative distribution + binary search per draw.
    let cdf = &mut scratch.aux;
    cdf.clear();
    let mut acc = 0.0;
    for &wi in w {
        acc += wi;
        cdf.push(acc);
    }
    out.clear();
    out.extend((0..n).map(|_| {
        let u = rng.next_f64();
        match cdf.binary_search_by(|c| c.partial_cmp(&u).expect("cdf is finite")) {
            Ok(i) => i,
            Err(i) => i.min(n - 1),
        }
    }));
}

/// Stratified resampling into caller-owned buffers (see
/// [`ResampleScheme::resample_into`]).
///
/// # Panics
///
/// Panics if `weights` is empty or sums to a non-positive value.
fn stratified_into<R: Rng64 + ?Sized>(
    weights: &[f64],
    rng: &mut R,
    scratch: &mut ResampleScratch,
    out: &mut Vec<usize>,
) {
    normalized_into(weights, &mut scratch.norm);
    let w = &scratch.norm;
    let n = w.len();
    out.clear();
    let mut cum = w[0];
    let mut i = 0;
    for k in 0..n {
        let u = (k as f64 + rng.next_f64()) / n as f64;
        while u > cum && i + 1 < n {
            i += 1;
            cum += w[i];
        }
        out.push(i);
    }
}

/// Residual resampling (deterministic ⌊n wᵢ⌋ copies, multinomial
/// remainder) into caller-owned buffers (see
/// [`ResampleScheme::resample_into`]).
///
/// # Panics
///
/// Panics if `weights` is empty or sums to a non-positive value.
fn residual_into<R: Rng64 + ?Sized>(
    weights: &[f64],
    rng: &mut R,
    scratch: &mut ResampleScratch,
    out: &mut Vec<usize>,
) {
    normalized_into(weights, &mut scratch.norm);
    let w = &scratch.norm;
    let n = w.len();
    out.clear();
    let residuals = &mut scratch.aux;
    residuals.clear();
    for (i, &wi) in w.iter().enumerate() {
        let copies = (wi * n as f64).floor() as usize;
        for _ in 0..copies {
            out.push(i);
        }
        residuals.push(wi * n as f64 - copies as f64);
    }
    let remaining = n - out.len();
    if remaining > 0 {
        // lint: reduction-order — residual mass summed in index order.
        let total: f64 = residuals.iter().sum();
        if total <= 0.0 {
            // All mass consumed by floor copies; fill uniformly.
            for _ in 0..remaining {
                out.push(rng.sample_index(n));
            }
        } else {
            for _ in 0..remaining {
                out.push(rng.sample_weighted(residuals));
            }
        }
    }
}

/// Effective sample size `1 / Σ wᵢ²` of normalized weights.
///
/// Degenerate inputs (zero total weight) yield `0.0`.
pub fn effective_sample_size(weights: &[f64]) -> f64 {
    let total: f64 = weights.iter().sum();
    if total <= 0.0 || !total.is_finite() {
        return 0.0;
    }
    let sum_sq: f64 = weights.iter().map(|w| (w / total) * (w / total)).sum();
    if sum_sq == 0.0 {
        0.0
    } else {
        1.0 / sum_sq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Pcg32;

    fn counts(indices: &[usize], n: usize) -> Vec<usize> {
        let mut c = vec![0; n];
        for &i in indices {
            c[i] += 1;
        }
        c
    }

    #[test]
    fn all_schemes_return_n_indices() {
        let weights = [0.1, 0.2, 0.3, 0.4];
        for scheme in ResampleScheme::ALL {
            let mut rng = Pcg32::seed_from_u64(1);
            let idx = scheme.resample(&weights, &mut rng);
            assert_eq!(idx.len(), 4, "{scheme}");
            assert!(idx.iter().all(|&i| i < 4), "{scheme}");
        }
    }

    #[test]
    fn degenerate_weight_selects_single_particle() {
        let weights = [0.0, 1.0, 0.0];
        for scheme in ResampleScheme::ALL {
            let mut rng = Pcg32::seed_from_u64(2);
            let idx = scheme.resample(&weights, &mut rng);
            assert!(idx.iter().all(|&i| i == 1), "{scheme} selected {idx:?}");
        }
    }

    #[test]
    fn proportions_track_weights() {
        // Repeat resampling on a length-1000 weight vector and check the
        // aggregate selection frequency of a heavy particle.
        let n = 1000;
        let mut weights = vec![1.0; n];
        weights[0] = 250.0; // ~20% of total mass
        let total: f64 = weights.iter().sum();
        let expect = 250.0 / total;
        for scheme in ResampleScheme::ALL {
            let mut rng = Pcg32::seed_from_u64(3);
            let mut hits = 0usize;
            let reps = 50;
            for _ in 0..reps {
                let idx = scheme.resample(&weights, &mut rng);
                hits += counts(&idx, n)[0];
            }
            let frac = hits as f64 / (reps * n) as f64;
            assert!(
                (frac - expect).abs() < 0.03,
                "{scheme}: frac {frac} expect {expect}"
            );
        }
    }

    #[test]
    fn systematic_has_low_variance() {
        // For uniform weights, systematic resampling must return every index
        // exactly once.
        let weights = vec![1.0; 64];
        let mut rng = Pcg32::seed_from_u64(4);
        let idx = ResampleScheme::Systematic.resample(&weights, &mut rng);
        let c = counts(&idx, 64);
        assert!(c.iter().all(|&k| k == 1), "{c:?}");
    }

    #[test]
    fn residual_keeps_deterministic_copies() {
        // Weight 0.5 on index 0 of 4 particles => at least 2 copies of 0.
        let weights = [0.5, 0.2, 0.2, 0.1];
        let mut rng = Pcg32::seed_from_u64(5);
        let idx = ResampleScheme::Residual.resample(&weights, &mut rng);
        assert!(counts(&idx, 4)[0] >= 2);
    }

    #[test]
    fn ess_bounds() {
        assert_eq!(effective_sample_size(&[1.0, 1.0, 1.0, 1.0]), 4.0);
        let ess = effective_sample_size(&[1.0, 0.0, 0.0, 0.0]);
        assert!((ess - 1.0).abs() < 1e-12);
        assert_eq!(effective_sample_size(&[0.0, 0.0]), 0.0);
    }

    #[test]
    #[should_panic(expected = "resampling requires weights")]
    fn empty_weights_panic() {
        let mut rng = Pcg32::seed_from_u64(6);
        let _ = ResampleScheme::Systematic.resample(&[], &mut rng);
    }
}
