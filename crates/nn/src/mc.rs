//! MC-Dropout inference: predictive mean and variance from repeated
//! stochastic forward passes (Gal & Ghahramani 2016; paper Section III-C).

/// The outcome of an MC-Dropout prediction.
///
/// Construct an empty one with [`Default`] and reuse it across pooled
/// `predict_into` calls (the VO stage's): the mean/variance/sample
/// buffers are rewritten in place, so a frame loop allocates nothing
/// after warmup — even when the per-call iteration count *varies*
/// (compute-adaptive inference): [`McPrediction::resize_samples`]
/// retires surplus sample buffers to an internal pool on shrink and
/// revives them on growth, so heap traffic happens only past the
/// high-water mark.
#[derive(Debug, Clone, Default)]
pub struct McPrediction {
    /// Predictive mean per output.
    pub mean: Vec<f64>,
    /// Predictive variance per output (the paper's uncertainty signal).
    pub variance: Vec<f64>,
    /// All raw samples (`iterations × out_dim`).
    pub samples: Vec<Vec<f64>>,
    /// Pre-quantization logit samples (`iterations × out_dim`), filled
    /// only by quantized producers that capture the output layer's
    /// full-precision shadow (e.g. `BayesianVo`); empty on
    /// full-precision paths.
    pub logit_samples: Vec<Vec<f64>>,
    /// Predictive mean of the pre-quantization logits (empty when
    /// [`Self::logit_samples`] is empty).
    pub logit_mean: Vec<f64>,
    /// Predictive variance of the pre-quantization logits — the
    /// uncertainty signal that survives narrow output quantization,
    /// where [`Self::variance`] can collapse because different dropout
    /// masks round onto the same output codes.
    pub logit_variance: Vec<f64>,
    /// Retired per-iteration buffers kept warm for reuse when the
    /// iteration count shrinks. Not part of the prediction's value (the
    /// manual [`PartialEq`] ignores it). Shared between sample and
    /// logit-sample slots (same shape).
    spare: Vec<Vec<f64>>,
}

/// Equality is over the prediction's value — moments and the active
/// sample sets (quantized and logit) — not over pooled spare capacity,
/// so a pooled prediction compares equal to a freshly allocated one.
impl PartialEq for McPrediction {
    fn eq(&self, other: &Self) -> bool {
        self.mean == other.mean
            && self.variance == other.variance
            && self.samples == other.samples
            && self.logit_samples == other.logit_samples
            && self.logit_mean == other.logit_mean
            && self.logit_variance == other.logit_variance
    }
}

impl McPrediction {
    /// Total predictive uncertainty: the summed per-output variance.
    pub fn total_variance(&self) -> f64 {
        self.variance.iter().sum()
    }

    /// Total pre-quantization predictive uncertainty: the summed
    /// per-output logit variance, or `None` when the producing path did
    /// not capture logit samples. Consumers that need a live
    /// uncertainty signal from a quantized network should prefer
    /// `total_logit_variance().unwrap_or(total_variance())`.
    pub fn total_logit_variance(&self) -> Option<f64> {
        if self.logit_variance.is_empty() {
            None
        } else {
            Some(self.logit_variance.iter().sum())
        }
    }

    /// Per-output standard deviations.
    pub fn std_devs(&self) -> Vec<f64> {
        self.variance.iter().map(|v| v.sqrt()).collect()
    }

    /// Sets the number of active sample slots to `iterations`.
    ///
    /// Shrinking moves surplus buffers into the spare pool (no
    /// deallocation); growing pulls buffers back out (allocating only
    /// when the pool is exhausted, i.e. past the lifetime high-water
    /// mark). Slot contents are stale afterwards — callers overwrite
    /// every active slot before reading.
    pub fn resize_samples(&mut self, iterations: usize) {
        while self.samples.len() > iterations {
            self.spare
                .push(self.samples.pop().expect("len checked above"));
        }
        while self.samples.len() < iterations {
            self.samples.push(self.spare.pop().unwrap_or_default());
        }
    }

    /// Sets the number of active logit-sample slots, with the same
    /// pooling semantics as [`Self::resize_samples`] (the spare pool is
    /// shared). Producers that do not capture logits call this with 0
    /// so no stale shadow moments survive from a previous prediction.
    pub fn resize_logit_samples(&mut self, iterations: usize) {
        while self.logit_samples.len() > iterations {
            self.spare
                .push(self.logit_samples.pop().expect("len checked above"));
        }
        while self.logit_samples.len() < iterations {
            self.logit_samples
                .push(self.spare.pop().unwrap_or_default());
        }
    }
}

/// Predictive mean/variance from raw MC samples (the owned counterpart
/// of [`mc_moments_in_place`]).
pub fn mc_moments(samples: Vec<Vec<f64>>) -> McPrediction {
    let mut pred = McPrediction {
        samples,
        ..McPrediction::default()
    };
    mc_moments_in_place(&mut pred);
    pred
}

/// Recomputes [`McPrediction::mean`] and [`McPrediction::variance`] from
/// [`McPrediction::samples`], reusing the moment buffers — the pooled
/// counterpart of [`mc_moments`] (identical arithmetic, zero
/// allocations once the buffers have their capacity).
///
/// # Panics
///
/// Panics if `pred.samples` is empty.
pub fn mc_moments_in_place(pred: &mut McPrediction) {
    moments(&pred.samples, &mut pred.mean, &mut pred.variance);
    if pred.logit_samples.is_empty() {
        pred.logit_mean.clear();
        pred.logit_variance.clear();
    } else {
        assert_eq!(
            pred.logit_samples.len(),
            pred.samples.len(),
            "logit samples must pair 1:1 with quantized samples"
        );
        moments(
            &pred.logit_samples,
            &mut pred.logit_mean,
            &mut pred.logit_variance,
        );
    }
}

/// Unbiased per-output mean/variance over `samples`, into reused buffers.
fn moments(samples: &[Vec<f64>], mean: &mut Vec<f64>, variance: &mut Vec<f64>) {
    let out_dim = samples[0].len();
    let n = samples.len() as f64;
    mean.clear();
    mean.resize(out_dim, 0.0);
    for s in samples {
        for (m, &v) in mean.iter_mut().zip(s) {
            *m += v / n;
        }
    }
    variance.clear();
    variance.resize(out_dim, 0.0);
    for s in samples {
        for ((var, &v), &m) in variance.iter_mut().zip(s).zip(mean.iter()) {
            *var += (v - m) * (v - m) / (n - 1.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_place_moments_match_owned_and_reuse_buffers() {
        let samples = vec![vec![1.0, 2.0], vec![3.0, 6.0], vec![5.0, 4.0]];
        let owned = mc_moments(samples.clone());
        let mut pooled = McPrediction {
            // Stale content from a previous, wider frame must be
            // overwritten, not appended to.
            mean: vec![9.0; 5],
            variance: vec![9.0; 5],
            samples,
            ..McPrediction::default()
        };
        mc_moments_in_place(&mut pooled);
        assert_eq!(pooled, owned);
        assert_eq!(pooled.mean, vec![3.0, 4.0]);
    }

    #[test]
    fn spare_pool_does_not_affect_equality() {
        let samples = vec![vec![1.0], vec![2.0]];
        let a = mc_moments(samples.clone());
        let mut b = mc_moments(samples);
        // Retire and revive a slot: value unchanged, pool non-empty in
        // between.
        b.resize_samples(1);
        b.resize_samples(2);
        b.samples[0] = vec![1.0];
        b.samples[1] = vec![2.0];
        mc_moments_in_place(&mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn logit_moments_follow_logit_samples() {
        let mut pred = mc_moments(vec![vec![1.0], vec![1.0]]);
        assert_eq!(pred.total_logit_variance(), None);
        pred.resize_logit_samples(2);
        pred.logit_samples[0] = vec![1.0];
        pred.logit_samples[1] = vec![3.0];
        mc_moments_in_place(&mut pred);
        assert_eq!(pred.logit_mean, vec![2.0]);
        assert_eq!(pred.logit_variance, vec![2.0]);
        assert_eq!(pred.total_logit_variance(), Some(2.0));
        // Dropping the logit samples removes the shadow moments too —
        // no stale uncertainty survives a producer switch.
        pred.resize_logit_samples(0);
        mc_moments_in_place(&mut pred);
        assert_eq!(pred.total_logit_variance(), None);
        assert!(pred.logit_mean.is_empty());
    }
}
