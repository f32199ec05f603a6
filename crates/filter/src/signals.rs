//! Streaming uncertainty signals derived from the filter's likelihoods.
//!
//! The particle spread alone cannot distinguish "collapsed and correct"
//! from "collapsed but biased": a confidently wrong cloud is tight, yet
//! its measurement likelihoods sag below their recent trend. This module
//! tracks that trend so the gated pipeline can read a *likelihood
//! innovation* — the per-frame mean log-likelihood minus its running
//! exponentially-weighted average — as a second uncertainty signal next
//! to spread and effective sample size.

use crate::{FilterError, Result};

/// Default EWMA smoothing factor of [`InnovationTracker`]: roughly a
/// five-frame memory, short enough to track scene changes and long
/// enough to ride out single-frame noise.
const DEFAULT_INNOVATION_ALPHA: f64 = 0.2;

/// Running innovation of a per-frame scalar (the filter's mean
/// log-likelihood) against its exponentially-weighted moving average.
///
/// Feed one observation per frame with [`InnovationTracker::observe`];
/// it returns `observation - ewma_of_past_frames` and then folds the
/// observation into the average. Negative innovations mean the frame
/// matched the map *worse* than the recent trend — the "collapsed but
/// biased" symptom.
///
/// Warm-up is explicit: the first *finite* observation only primes the
/// average (there is no past trend to deviate from), so the innovation
/// goes live on the second finite frame — until then [`Self::observe`]
/// returns `None` and [`Self::last_innovation`] reads `None`, which is
/// distinct from a genuine zero-innovation reading (`Some(0.0)`).
///
/// Non-finite observations (a frame whose every hypothesis scored
/// `-inf`) are skipped: the history is left untouched — so one blind
/// frame cannot poison the average — and the innovation reads `None`
/// for that frame (no fresh evidence, not "matched the trend exactly").
#[derive(Debug, Clone, PartialEq)]
pub struct InnovationTracker {
    alpha: f64,
    ewma: Option<f64>,
    last: Option<f64>,
}

impl Default for InnovationTracker {
    fn default() -> Self {
        Self {
            alpha: DEFAULT_INNOVATION_ALPHA,
            ewma: None,
            last: None,
        }
    }
}

impl InnovationTracker {
    /// Creates a tracker with smoothing factor `alpha` (the weight of the
    /// newest observation in the average).
    ///
    /// # Errors
    ///
    /// Returns [`FilterError::InvalidArgument`] unless `0 < alpha <= 1`.
    pub fn new(alpha: f64) -> Result<Self> {
        if !(alpha > 0.0) || !(alpha <= 1.0) {
            return Err(FilterError::InvalidArgument(format!(
                "innovation alpha must be in (0, 1], got {alpha}"
            )));
        }
        Ok(Self {
            alpha,
            ewma: None,
            last: None,
        })
    }

    /// The smoothing factor.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The current running average (`None` before the first finite
    /// observation).
    pub fn history(&self) -> Option<f64> {
        self.ewma
    }

    /// Records one per-frame observation and returns its innovation
    /// against the average of *past* frames. `None` marks warm-up (the
    /// first finite observation, which only primes the average) and
    /// skipped non-finite observations — both cases where "no reading"
    /// must not masquerade as a genuine zero innovation.
    pub fn observe(&mut self, value: f64) -> Option<f64> {
        if !value.is_finite() {
            // Skip the blind frame: history untouched, no fresh reading.
            self.last = None;
            return None;
        }
        let innovation = self.ewma.map(|mean| value - mean);
        self.ewma = Some(match self.ewma {
            Some(mean) => mean + self.alpha * (value - mean),
            None => value,
        });
        self.last = innovation;
        innovation
    }

    /// Innovation of the most recent observation (`None` during warm-up,
    /// before any finite observation has followed the priming one, and
    /// after a skipped non-finite frame) — the value a per-frame
    /// consumer reads *before* the next frame is weighed.
    pub fn last_innovation(&self) -> Option<f64> {
        self.last
    }

    /// Clears the history for a fresh run.
    pub fn reset(&mut self) {
        self.ewma = None;
        self.last = None;
    }
}

/// Tuning of a [`FaultDetector`]'s one-sided CUSUM over the innovation
/// stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultDetectorConfig {
    /// Per-frame slack (≥ 0, finite): innovation deficits smaller than
    /// this are treated as in-family wobble and do not accumulate.
    pub drift: f64,
    /// Alarm level (> 0, finite): the detector fires once the
    /// accumulated deficit reaches this many nats.
    pub threshold: f64,
    /// Finite innovation readings to swallow before the statistic arms —
    /// the filter's own convergence transient (spread collapse,
    /// relocalization swings) must not read as a fault.
    pub warmup: usize,
}

impl Default for FaultDetectorConfig {
    fn default() -> Self {
        // Clean tracking wobbles the innovation by a few nats; genuine
        // faults (blind frames, kidnaps, spoofed returns) sag it by tens
        // to hundreds. Slack 2 / level 10 fires within 1-2 frames on a
        // hard fault while a clean run never accumulates.
        Self {
            drift: 2.0,
            threshold: 10.0,
            warmup: 3,
        }
    }
}

/// CUSUM-style fault detector over a likelihood-innovation stream.
///
/// Wraps an [`InnovationTracker`]'s per-frame readings in the standard
/// one-sided cumulative-sum test: with innovation `i`, the statistic
/// advances as `s = max(0, s + (-i) - drift)` and the detector alarms
/// once `s >= threshold`. Sustained *negative* innovations — frames
/// matching the map worse than their own recent trend, the common
/// symptom of sensor dropout, kidnapping and measurement spoofing —
/// accumulate; positive innovations actively drain the statistic, so
/// recovery self-clears the evidence.
///
/// Warm-up is two-layered: the tracker's own `None` readings (priming
/// frame, blind frames) carry no evidence and leave the statistic
/// untouched, and the first [`FaultDetectorConfig::warmup`] finite
/// readings are swallowed so a converging filter's transient cannot
/// trip the alarm. The alarm latches until [`FaultDetector::reset`]
/// re-arms it — the consumer decides when the system is healthy again.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultDetector {
    config: FaultDetectorConfig,
    score: f64,
    readings: usize,
    alarmed: bool,
}

impl FaultDetector {
    /// Validates the tuning and builds an armed detector.
    ///
    /// # Errors
    ///
    /// Returns [`FilterError::InvalidArgument`] unless `drift` is finite
    /// and ≥ 0 and `threshold` is finite and > 0.
    pub fn new(config: FaultDetectorConfig) -> Result<Self> {
        if !config.drift.is_finite() || !(config.drift >= 0.0) {
            return Err(FilterError::InvalidArgument(format!(
                "fault-detector drift must be finite and >= 0, got {}",
                config.drift
            )));
        }
        if !config.threshold.is_finite() || !(config.threshold > 0.0) {
            return Err(FilterError::InvalidArgument(format!(
                "fault-detector threshold must be finite and > 0, got {}",
                config.threshold
            )));
        }
        Ok(Self {
            config,
            score: 0.0,
            readings: 0,
            alarmed: false,
        })
    }

    /// The tuning this detector runs.
    pub fn config(&self) -> &FaultDetectorConfig {
        &self.config
    }

    /// Whether the alarm is latched.
    pub fn alarmed(&self) -> bool {
        self.alarmed
    }

    /// Feeds one frame's innovation reading (`None` = no reading this
    /// frame: tracker warm-up or a blind frame) and returns the latched
    /// alarm state. Non-finite readings are ignored like `None` — the
    /// upstream tracker never emits them, but the detector must not
    /// corrupt its statistic if fed one directly.
    pub fn observe(&mut self, innovation: Option<f64>) -> bool {
        if let Some(i) = innovation {
            if i.is_finite() {
                self.readings += 1;
                if self.readings > self.config.warmup {
                    self.score = (self.score + (-i) - self.config.drift).max(0.0);
                    if self.score >= self.config.threshold {
                        self.alarmed = true;
                    }
                }
            }
        }
        self.alarmed
    }

    /// Re-arms the detector: clears the statistic and the latched alarm.
    /// The warm-up count is *kept* — the filter is still converged, so
    /// the next deficit counts immediately.
    pub fn reset(&mut self) {
        self.score = 0.0;
        self.alarmed = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation() {
        assert!(InnovationTracker::new(0.0).is_err());
        assert!(InnovationTracker::new(-0.1).is_err());
        assert!(InnovationTracker::new(1.1).is_err());
        assert!(InnovationTracker::new(f64::NAN).is_err());
        assert!(InnovationTracker::new(1.0).is_ok());
        assert!(InnovationTracker::new(0.2).is_ok());
    }

    #[test]
    fn first_observation_is_warm_up_not_zero() {
        let mut t = InnovationTracker::default();
        assert_eq!(t.last_innovation(), None);
        assert_eq!(t.history(), None);
        // The first finite frame primes the average but yields no
        // innovation reading — `None`, explicitly distinct from the
        // genuine zero of a frame that matched the trend exactly.
        assert_eq!(t.observe(-3.0), None);
        assert_eq!(t.history(), Some(-3.0));
        assert_eq!(t.last_innovation(), None);
        // The second finite frame is the first live reading.
        assert_eq!(t.observe(-3.0), Some(0.0));
        assert_eq!(t.last_innovation(), Some(0.0));
    }

    #[test]
    fn innovation_is_delta_against_ewma() {
        let mut t = InnovationTracker::new(0.5).unwrap();
        t.observe(10.0);
        // EWMA = 10; a repeat of the mean is a genuine zero innovation.
        assert_eq!(t.observe(10.0), Some(0.0));
        // EWMA still 10; a drop of 4 reads as -4.
        assert_eq!(t.observe(6.0), Some(-4.0));
        assert_eq!(t.last_innovation(), Some(-4.0));
        // EWMA moved to 8 = 10 + 0.5 * (6 - 10).
        assert_eq!(t.history(), Some(8.0));
        assert_eq!(t.observe(9.0), Some(1.0));
    }

    #[test]
    fn non_finite_observations_skipped() {
        let mut t = InnovationTracker::new(0.5).unwrap();
        t.observe(2.0);
        t.observe(2.0);
        assert_eq!(t.last_innovation(), Some(0.0));
        // A blind frame clears the live reading instead of faking a 0.
        assert_eq!(t.observe(f64::NEG_INFINITY), None);
        assert_eq!(t.last_innovation(), None);
        assert_eq!(t.observe(f64::NAN), None);
        // History untouched by the blind frames.
        assert_eq!(t.history(), Some(2.0));
        assert_eq!(t.observe(3.0), Some(1.0));
    }

    #[test]
    fn all_neg_inf_frames_never_poison_the_average() {
        // Regression: a stretch of frames whose every hypothesis scored
        // -inf (hard-gating sensor, fully out-of-support cloud) must
        // leave the EWMA finite and the tracker ready to resume — the
        // -inf mean log-likelihood must never be folded into the
        // average.
        let mut t = InnovationTracker::default();
        t.observe(-5.0);
        t.observe(-5.0);
        for _ in 0..10 {
            assert_eq!(t.observe(f64::NEG_INFINITY), None);
        }
        assert_eq!(t.history(), Some(-5.0));
        assert!(t.history().unwrap().is_finite());
        // The first frame back on the map reads against the intact
        // history, not against a poisoned -inf average.
        assert_eq!(t.observe(-4.0), Some(1.0));
        // And a tracker that has seen *only* -inf frames is still in
        // warm-up: no history, no reading.
        let mut blind = InnovationTracker::default();
        for _ in 0..5 {
            assert_eq!(blind.observe(f64::NEG_INFINITY), None);
        }
        assert_eq!(blind.history(), None);
        assert_eq!(blind.last_innovation(), None);
    }

    #[test]
    fn alpha_one_tracks_the_last_value() {
        let mut t = InnovationTracker::new(1.0).unwrap();
        t.observe(1.0);
        assert_eq!(t.observe(5.0), Some(4.0));
        // With alpha = 1 the EWMA *is* the previous observation.
        assert_eq!(t.observe(5.0), Some(0.0));
    }

    #[test]
    fn reset_clears_history() {
        let mut t = InnovationTracker::default();
        t.observe(1.0);
        t.observe(2.0);
        t.reset();
        assert_eq!(t.history(), None);
        assert_eq!(t.last_innovation(), None);
        assert_eq!(t.observe(7.0), None);
    }

    #[test]
    fn spoofed_likelihood_burst_reads_as_deep_negative_innovation() {
        // A spoofing burst replaces plausible likelihoods with a
        // constant sag. The tracker must report the full deficit on the
        // first spoofed frame, then drift its average toward the spoofed
        // level (so *recovery* later reads as a large positive
        // innovation) — never NaN, never a sign flip.
        let mut t = InnovationTracker::default();
        t.observe(-2.0);
        for _ in 0..5 {
            t.observe(-2.0);
        }
        let first = t.observe(-300.0).unwrap();
        assert!((first - (-298.0)).abs() < 1e-9);
        let mut prev = first;
        for _ in 0..8 {
            let i = t.observe(-300.0).unwrap();
            assert!(i.is_finite() && i <= 0.0);
            // Each spoofed frame pulls the average closer: the deficit
            // shrinks monotonically toward zero.
            assert!(i > prev - 1e-9);
            prev = i;
        }
        // End of the burst: the first honest frame reads as a large
        // positive innovation against the poisoned average.
        let back = t.observe(-2.0).unwrap();
        assert!(back > 100.0);
    }

    #[test]
    fn interleaved_neg_inf_and_spoofed_frames_keep_the_tracker_sane() {
        // Adversarial worst case: alternating fully-blind (-inf) frames
        // and spoofed finite sags. Blind frames must stay invisible to
        // the history while the spoofed frames move it; no interleaving
        // order may produce a non-finite average.
        let mut t = InnovationTracker::default();
        t.observe(-3.0);
        t.observe(-3.0);
        for k in 0..20 {
            if k % 2 == 0 {
                assert_eq!(t.observe(f64::NEG_INFINITY), None);
            } else {
                let i = t.observe(-50.0).unwrap();
                assert!(i.is_finite() && i < 0.0);
            }
            assert!(t.history().unwrap().is_finite());
        }
    }

    // ---- FaultDetector ----

    #[test]
    fn detector_validation_rejects_bad_tunings() {
        for drift in [f64::NAN, f64::INFINITY, -0.1] {
            assert!(FaultDetector::new(FaultDetectorConfig {
                drift,
                ..FaultDetectorConfig::default()
            })
            .is_err());
        }
        for threshold in [f64::NAN, f64::INFINITY, 0.0, -1.0] {
            assert!(FaultDetector::new(FaultDetectorConfig {
                threshold,
                ..FaultDetectorConfig::default()
            })
            .is_err());
        }
        assert!(FaultDetector::new(FaultDetectorConfig::default()).is_ok());
        // Zero drift (no slack) is a legal, maximally sensitive tuning.
        assert!(FaultDetector::new(FaultDetectorConfig {
            drift: 0.0,
            ..FaultDetectorConfig::default()
        })
        .is_ok());
    }

    #[test]
    fn detector_ignores_warmup_and_missing_readings() {
        let mut d = FaultDetector::new(FaultDetectorConfig {
            drift: 1.0,
            threshold: 5.0,
            warmup: 2,
        })
        .unwrap();
        // `None` readings (tracker warm-up, blind frames) carry no
        // evidence in either direction.
        assert!(!d.observe(None));
        assert_eq!(d.score, 0.0);
        // The first two finite readings are swallowed even when they
        // scream fault.
        assert!(!d.observe(Some(-100.0)));
        assert!(!d.observe(Some(-100.0)));
        assert_eq!(d.score, 0.0);
        // The third reading counts.
        assert!(d.observe(Some(-100.0)));
        assert!(d.alarmed());
    }

    #[test]
    fn detector_accumulates_sustained_deficit_but_not_wobble() {
        let mut d = FaultDetector::new(FaultDetectorConfig {
            drift: 2.0,
            threshold: 10.0,
            warmup: 0,
        })
        .unwrap();
        // In-family wobble (|i| <= drift) never accumulates.
        for i in [-1.0, 0.5, -2.0, 1.5, -0.3, 2.0] {
            assert!(!d.observe(Some(i)));
            assert_eq!(d.score, 0.0);
        }
        // A sustained moderate sag accumulates to the alarm: deficit
        // (5 - 2) = 3 per frame reaches 10 on the 4th frame.
        for _ in 0..3 {
            assert!(!d.observe(Some(-5.0)));
        }
        assert!(d.observe(Some(-5.0)));
        assert!(d.alarmed());
        // The alarm latches even through healthy frames.
        assert!(d.observe(Some(3.0)));
    }

    #[test]
    fn positive_innovation_drains_the_statistic() {
        let mut d = FaultDetector::new(FaultDetectorConfig {
            drift: 1.0,
            threshold: 10.0,
            warmup: 0,
        })
        .unwrap();
        d.observe(Some(-5.0)); // s = max(0, 5 - 1) = 4
        assert_eq!(d.score, 4.0);
        // A strong positive frame pays the deficit back down to zero
        // instead of letting stale evidence linger.
        d.observe(Some(8.0)); // s = max(0, 4 - 8 - 1) = 0
        assert_eq!(d.score, 0.0);
        assert!(!d.alarmed());
    }

    #[test]
    fn detector_reset_rearms_but_keeps_convergence_credit() {
        let mut d = FaultDetector::new(FaultDetectorConfig {
            drift: 0.0,
            threshold: 3.0,
            warmup: 2,
        })
        .unwrap();
        d.observe(Some(0.0));
        d.observe(Some(0.0));
        assert!(d.observe(Some(-5.0)));
        d.reset();
        assert!(!d.alarmed());
        assert_eq!(d.score, 0.0);
        // Warm-up already served: the next deficit counts immediately.
        assert!(d.observe(Some(-5.0)));
    }

    #[test]
    fn detector_survives_neg_inf_burst_without_corruption() {
        // Satellite: -inf bursts fed straight into the detector (the
        // tracker normally shields it, but the contract holds anyway).
        let mut d = FaultDetector::new(FaultDetectorConfig {
            drift: 1.0,
            threshold: 10.0,
            warmup: 0,
        })
        .unwrap();
        d.observe(Some(-3.0)); // s = 2
        for _ in 0..5 {
            assert!(!d.observe(Some(f64::NEG_INFINITY)));
            assert!(d.score.is_finite());
        }
        assert_eq!(d.score, 2.0);
        assert!(!d.observe(Some(f64::NAN)));
        assert_eq!(d.score, 2.0);
    }
}
