//! Bernoulli dropout with explicit-mask support.
//!
//! Besides ordinary sampled dropout (training and MC-Dropout inference),
//! the layer accepts *externally supplied* masks through
//! `Dropout::forward_with_mask`. This is the hook the SRAM CIM path uses:
//! in the paper, dropout bits come from the SRAM-embedded RNG and are
//! AND-gated onto the column/row lines, and the compute-reuse scheduler
//! must see (and reorder) the very same masks.

use crate::{NnError, Result};
use navicim_math::rng::{Rng64, SampleExt};

/// Inverted-dropout layer: kept units are scaled by `1/(1-p)` so the
/// expected activation is unchanged.
#[derive(Debug, Clone, PartialEq)]
pub struct Dropout {
    p: f64,
    mask_cache: Vec<bool>,
}

impl Dropout {
    /// Creates a dropout layer with drop probability `p`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidArgument`] unless `0 <= p < 1`.
    pub fn new(p: f64) -> Result<Self> {
        if !(0.0..1.0).contains(&p) {
            return Err(NnError::InvalidArgument(format!(
                "dropout probability must be in [0, 1), got {p}"
            )));
        }
        Ok(Self {
            p,
            mask_cache: Vec::new(),
        })
    }

    /// Drop probability.
    pub fn probability(&self) -> f64 {
        self.p
    }

    /// Samples a fresh mask of the given length (`true` = keep).
    fn sample_mask<R: Rng64 + ?Sized>(&self, len: usize, rng: &mut R) -> Vec<bool> {
        (0..len).map(|_| !rng.sample_bool(self.p)).collect()
    }

    /// Forward pass with a sampled mask (training / MC sample).
    pub fn forward<R: Rng64 + ?Sized>(&mut self, x: &[f64], rng: &mut R) -> Vec<f64> {
        let mask = self.sample_mask(x.len(), rng);
        self.forward_with_mask(x, &mask)
    }

    /// Forward pass with an externally supplied mask (`true` = keep).
    ///
    /// # Panics
    ///
    /// Panics on mask/input length mismatch.
    fn forward_with_mask(&mut self, x: &[f64], mask: &[bool]) -> Vec<f64> {
        assert_eq!(x.len(), mask.len(), "dropout mask length mismatch");
        self.mask_cache = mask.to_vec();
        let scale = 1.0 / (1.0 - self.p);
        x.iter()
            .zip(mask)
            .map(|(&v, &keep)| if keep { v * scale } else { 0.0 })
            .collect()
    }

    /// Identity forward (deterministic inference).
    pub fn forward_identity(&mut self, x: &[f64]) -> Vec<f64> {
        self.mask_cache = vec![true; x.len()];
        x.to_vec()
    }

    /// Allocation-free sampled forward pass into a reused buffer.
    ///
    /// Draws the mask element-by-element from `rng` in the same order as
    /// `Dropout::sample_mask`, so the output (and the RNG stream) is
    /// bit-identical to [`Dropout::forward`]. Skips the backward-pass mask
    /// cache — inference only.
    pub fn forward_sampled_into<R: Rng64 + ?Sized>(
        &self,
        x: &[f64],
        rng: &mut R,
        y: &mut Vec<f64>,
    ) {
        let scale = 1.0 / (1.0 - self.p);
        y.clear();
        y.extend(x.iter().map(|&v| {
            let keep = !rng.sample_bool(self.p);
            if keep {
                v * scale
            } else {
                0.0
            }
        }));
    }

    /// Allocation-free identity forward pass (deterministic inference).
    pub fn forward_identity_into(&self, x: &[f64], y: &mut Vec<f64>) {
        y.clear();
        y.extend_from_slice(x);
    }

    /// Backward pass through the cached mask.
    ///
    /// # Panics
    ///
    /// Panics without a preceding forward pass or on dimension mismatch.
    pub fn backward(&mut self, grad_out: &[f64]) -> Vec<f64> {
        assert_eq!(
            grad_out.len(),
            self.mask_cache.len(),
            "dropout backward requires a preceding forward pass"
        );
        let scale = 1.0 / (1.0 - self.p);
        grad_out
            .iter()
            .zip(&self.mask_cache)
            .map(|(&g, &keep)| if keep { g * scale } else { 0.0 })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use navicim_math::rng::Pcg32;
    use navicim_math::stats;

    #[test]
    fn probability_validation() {
        assert!(Dropout::new(-0.1).is_err());
        assert!(Dropout::new(1.0).is_err());
        assert!(Dropout::new(0.0).is_ok());
        assert!(Dropout::new(0.5).is_ok());
    }

    #[test]
    fn mask_fraction_matches_probability() {
        let layer = Dropout::new(0.3).unwrap();
        let mut rng = Pcg32::seed_from_u64(1);
        let mask = layer.sample_mask(100_000, &mut rng);
        let kept = mask.iter().filter(|&&k| k).count() as f64 / mask.len() as f64;
        assert!((kept - 0.7).abs() < 0.01, "kept {kept}");
    }

    #[test]
    fn expectation_preserved_by_inverted_scaling() {
        let mut layer = Dropout::new(0.5).unwrap();
        let mut rng = Pcg32::seed_from_u64(2);
        let x = vec![1.0; 64];
        let mut means = Vec::new();
        for _ in 0..2000 {
            let y = layer.forward(&x, &mut rng);
            means.push(y.iter().sum::<f64>() / y.len() as f64);
        }
        assert!((stats::mean(&means) - 1.0).abs() < 0.01);
    }

    #[test]
    fn explicit_mask_respected() {
        let mut layer = Dropout::new(0.5).unwrap();
        let y = layer.forward_with_mask(&[1.0, 2.0, 3.0], &[true, false, true]);
        assert_eq!(y, vec![2.0, 0.0, 6.0]);
        assert_eq!(layer.mask_cache, [true, false, true]);
    }

    #[test]
    fn backward_blocks_dropped_units() {
        let mut layer = Dropout::new(0.5).unwrap();
        layer.forward_with_mask(&[1.0, 1.0], &[false, true]);
        let g = layer.backward(&[5.0, 5.0]);
        assert_eq!(g, vec![0.0, 10.0]);
    }

    #[test]
    fn identity_mode_passes_through() {
        let mut layer = Dropout::new(0.5).unwrap();
        let x = [0.1, -0.2, 0.3];
        assert_eq!(layer.forward_identity(&x), x.to_vec());
        let g = layer.backward(&[1.0, 1.0, 1.0]);
        // Identity forward marks all units kept: gradient scaled by 1/(1-p).
        assert_eq!(g, vec![2.0, 2.0, 2.0]);
    }

    #[test]
    fn zero_probability_never_drops() {
        let mut layer = Dropout::new(0.0).unwrap();
        let mut rng = Pcg32::seed_from_u64(3);
        let x = vec![1.5; 32];
        let y = layer.forward(&x, &mut rng);
        assert_eq!(y, x);
    }
}
