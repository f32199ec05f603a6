//! Depth-sensor noise models.
//!
//! Kinect-class structured-light sensors exhibit a depth error whose
//! standard deviation grows roughly quadratically with distance, plus
//! random pixel dropouts near edges and on specular surfaces. Both effects
//! feed the paper's robustness story (Fig. 1's "perception uncertainty").

use crate::camera::DepthImage;
use navicim_math::rng::{Rng64, SampleExt};

/// Kinect-style depth noise model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DepthNoise {
    /// Base noise σ at 1 m, in metres (Kinect v1: ~1.5 mm).
    pub sigma_at_1m: f64,
    /// Probability that a valid pixel drops out entirely.
    pub dropout_prob: f64,
}

impl DepthNoise {
    /// Kinect v1-like defaults.
    pub fn kinect_like() -> Self {
        Self {
            sigma_at_1m: 0.0015,
            dropout_prob: 0.05,
        }
    }

    /// A noiseless model (for ablations).
    pub fn none() -> Self {
        Self {
            sigma_at_1m: 0.0,
            dropout_prob: 0.0,
        }
    }

    /// Depth-dependent noise σ: quadratic in distance.
    pub fn sigma_at(&self, depth: f64) -> f64 {
        self.sigma_at_1m * depth * depth
    }

    /// Applies noise and dropout to an image in place.
    pub fn apply<R: Rng64 + ?Sized>(&self, image: &mut DepthImage, rng: &mut R) {
        let (w, h) = (image.width(), image.height());
        for v in 0..h {
            for u in 0..w {
                let d = image.depth(u, v);
                if !DepthImage::is_valid_depth(d) {
                    continue;
                }
                if self.dropout_prob > 0.0 && rng.sample_bool(self.dropout_prob) {
                    image.set_depth(u, v, 0.0);
                    continue;
                }
                if self.sigma_at_1m > 0.0 {
                    let noisy = d + rng.sample_normal(0.0, self.sigma_at(d));
                    image.set_depth(u, v, noisy.max(1e-3));
                }
            }
        }
    }
}

impl Default for DepthNoise {
    fn default() -> Self {
        Self::kinect_like()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use navicim_math::rng::Pcg32;
    use navicim_math::stats;

    fn flat_image(depth: f64) -> DepthImage {
        let mut img = DepthImage::new(64, 64);
        for v in 0..64 {
            for u in 0..64 {
                img.set_depth(u, v, depth);
            }
        }
        img
    }

    #[test]
    fn noise_sigma_scales_quadratically() {
        let n = DepthNoise::kinect_like();
        assert!((n.sigma_at(2.0) / n.sigma_at(1.0) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn applied_noise_matches_model() {
        let n = DepthNoise {
            sigma_at_1m: 0.01,
            dropout_prob: 0.0,
        };
        let mut img = flat_image(2.0);
        let mut rng = Pcg32::seed_from_u64(1);
        n.apply(&mut img, &mut rng);
        let depths: Vec<f64> = img.valid_pixels().map(|(_, _, d)| d).collect();
        let sd = stats::std_dev(&depths);
        let expect = 0.01 * 4.0;
        assert!((sd / expect - 1.0).abs() < 0.1, "sd {sd} expect {expect}");
        assert!((stats::mean(&depths) - 2.0).abs() < 0.01);
    }

    #[test]
    fn dropout_fraction() {
        let n = DepthNoise {
            sigma_at_1m: 0.0,
            dropout_prob: 0.3,
        };
        let mut img = flat_image(1.5);
        let mut rng = Pcg32::seed_from_u64(2);
        n.apply(&mut img, &mut rng);
        let frac = img.valid_count() as f64 / (64.0 * 64.0);
        assert!((frac - 0.7).abs() < 0.05, "valid fraction {frac}");
    }

    #[test]
    fn none_model_is_identity() {
        let n = DepthNoise::none();
        let mut img = flat_image(2.5);
        let before = img.clone();
        let mut rng = Pcg32::seed_from_u64(3);
        n.apply(&mut img, &mut rng);
        assert_eq!(img, before);
    }

    #[test]
    fn missing_pixels_stay_missing() {
        let n = DepthNoise::kinect_like();
        let mut img = DepthImage::new(8, 8);
        let mut rng = Pcg32::seed_from_u64(4);
        n.apply(&mut img, &mut rng);
        assert_eq!(img.valid_count(), 0);
    }
}
