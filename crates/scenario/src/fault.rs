//! Declarative fault scripts: what breaks, when, and for how long.

use crate::{Result, ScenarioError};
use navicim_math::rng::{Pcg32, Rng64, SampleExt};
use navicim_scene::camera::DepthImage;

/// One kind of injected fault.
///
/// Depth-mutating kinds operate on a cloned frame — the dataset is
/// never modified — and use only the public [`DepthImage`] API, so
/// every fault composes with every camera model. `0.0` is the sensor's
/// "no return" encoding throughout.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Kidnapped robot: the stream's dataset cursor jumps `skip` frames
    /// ahead while the frame's *control* stays the pre-jump one-step
    /// delta — the filter is told the robot took a normal step while
    /// the world (depth + truth) teleported under it.
    Teleport {
        /// Dataset frames to jump (≥ 1).
        skip: usize,
    },
    /// Sensor dropout: each valid pixel independently loses its return
    /// with probability `fraction` (1.0 = a fully blind frame).
    Dropout {
        /// Per-pixel dropout probability in (0, 1].
        fraction: f64,
    },
    /// Stuck-value fault: the whole readout freezes at one constant
    /// depth (a latched ASIC output or a fogged lens).
    StuckValue {
        /// The stuck reading in meters (> 0, finite).
        depth_m: f64,
    },
    /// Adversarial offset: every valid return is biased by `bias_m`
    /// (readings pushed to ≤ 0 become "no return") — a calibrated
    /// range-walk attack that keeps the image *plausible*.
    Offset {
        /// Additive range bias in meters (finite, ≠ 0).
        bias_m: f64,
    },
    /// Measurement spoofing: each pixel is independently overwritten
    /// with a false return at `depth_m` with probability `fraction`
    /// (injected phantom geometry, valid and invalid pixels alike).
    Spoof {
        /// The spoofed range in meters (> 0, finite).
        depth_m: f64,
        /// Per-pixel spoof probability in (0, 1].
        fraction: f64,
    },
    /// Low-texture stretch: every valid return is flattened to the
    /// frame's mean depth — a featureless wall that starves both the
    /// scan likelihood and the VO feature grids of structure.
    LowTexture,
}

impl FaultKind {
    /// A short stable label for tables and logs.
    pub fn label(&self) -> &'static str {
        match self {
            Self::Teleport { .. } => "teleport",
            Self::Dropout { .. } => "dropout",
            Self::StuckValue { .. } => "stuck-value",
            Self::Offset { .. } => "offset",
            Self::Spoof { .. } => "spoof",
            Self::LowTexture => "low-texture",
        }
    }

    fn validate(&self) -> Result<()> {
        let bad = |msg: String| Err(ScenarioError::InvalidArgument(msg));
        match *self {
            Self::Teleport { skip: 0 } => bad("teleport skip must be >= 1".into()),
            Self::Dropout { fraction } | Self::Spoof { fraction, .. }
                if !fraction.is_finite() || !(fraction > 0.0) || !(fraction <= 1.0) =>
            {
                bad(format!(
                    "fault pixel fraction must be in (0, 1], got {fraction}"
                ))
            }
            Self::StuckValue { depth_m } | Self::Spoof { depth_m, .. }
                if !depth_m.is_finite() || !(depth_m > 0.0) =>
            {
                bad(format!(
                    "fault depth must be finite and > 0 m, got {depth_m}"
                ))
            }
            Self::Offset { bias_m } if !bias_m.is_finite() || bias_m == 0.0 => bad(format!(
                "offset bias must be finite and non-zero, got {bias_m}"
            )),
            _ => Ok(()),
        }
    }

    /// Applies a depth-mutating fault to `depth` in place. [`Teleport`]
    /// is a *stream* fault (it moves the cursor, not the pixels) and is
    /// a no-op here. `rng` drives the per-pixel draws of
    /// [`FaultKind::Dropout`] / [`FaultKind::Spoof`]; pass a
    /// deterministically seeded generator for replayable scenarios.
    ///
    /// [`Teleport`]: FaultKind::Teleport
    pub fn apply<R: Rng64 + ?Sized>(&self, depth: &mut DepthImage, rng: &mut R) {
        match *self {
            Self::Teleport { .. } => {}
            Self::Dropout { fraction } => {
                for v in 0..depth.height() {
                    for u in 0..depth.width() {
                        if DepthImage::is_valid_depth(depth.depth(u, v))
                            && rng.sample_bool(fraction)
                        {
                            depth.set_depth(u, v, 0.0);
                        }
                    }
                }
            }
            Self::StuckValue { depth_m } => {
                for v in 0..depth.height() {
                    for u in 0..depth.width() {
                        depth.set_depth(u, v, depth_m);
                    }
                }
            }
            Self::Offset { bias_m } => {
                for v in 0..depth.height() {
                    for u in 0..depth.width() {
                        let d = depth.depth(u, v);
                        if DepthImage::is_valid_depth(d) {
                            depth.set_depth(u, v, (d + bias_m).max(0.0));
                        }
                    }
                }
            }
            Self::Spoof { depth_m, fraction } => {
                for v in 0..depth.height() {
                    for u in 0..depth.width() {
                        if rng.sample_bool(fraction) {
                            depth.set_depth(u, v, depth_m);
                        }
                    }
                }
            }
            Self::LowTexture => {
                let mut sum = 0.0;
                let mut n = 0usize;
                for (_, _, d) in depth.valid_pixels() {
                    sum += d;
                    n += 1;
                }
                if n == 0 {
                    return;
                }
                let mean = sum / n as f64;
                for v in 0..depth.height() {
                    for u in 0..depth.width() {
                        if DepthImage::is_valid_depth(depth.depth(u, v)) {
                            depth.set_depth(u, v, mean);
                        }
                    }
                }
            }
        }
    }
}

/// One scheduled fault: a kind active over the half-open stream-frame
/// window `[at_frame, at_frame + duration)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// First stream frame (0-based tracked frame) the fault is active.
    pub at_frame: usize,
    /// Frames the fault persists (≥ 1). A [`FaultKind::Teleport`]
    /// jumps the cursor once per active frame, so `duration: 1` is the
    /// classic single kidnap.
    pub duration: usize,
    /// What breaks.
    pub kind: FaultKind,
}

impl FaultEvent {
    /// Whether this event is active at stream frame `frame`.
    pub fn active_at(&self, frame: usize) -> bool {
        frame >= self.at_frame && frame < self.at_frame + self.duration
    }

    /// The half-open `[start, end)` stream-frame window.
    pub fn window(&self) -> (usize, usize) {
        (self.at_frame, self.at_frame + self.duration)
    }
}

/// A named, validated schedule of [`FaultEvent`]s over `frames` tracked
/// stream frames.
///
/// The script is pure data: build one with [`ScenarioScript::clean`] +
/// [`ScenarioScript::with_event`], validate it once, then feed it to a
/// [`crate::stream::ScenarioStream`] (or [`crate::stream::run_scenario`])
/// any number of times — every run replays bit-identically because all
/// randomness is counter-seeded from `seed` and the frame index.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioScript {
    /// Scenario name (tables, logs, CSV provenance).
    pub name: String,
    /// Tracked stream frames the scenario runs (≥ 1). May exceed the
    /// dataset length — the stream loops its cursor, which is how
    /// 1k+-frame drift runs come from a 10-frame orbit.
    pub frames: usize,
    /// Master seed of the per-frame fault draws.
    pub seed: u64,
    /// The schedule, in any order.
    pub events: Vec<FaultEvent>,
}

impl ScenarioScript {
    /// A fault-free script: the baseline every fault scenario is graded
    /// against, and the false-alarm control.
    pub fn clean(name: impl Into<String>, frames: usize) -> Self {
        Self {
            name: name.into(),
            frames,
            seed: 0x5EED_FA17,
            events: Vec::new(),
        }
    }

    /// Adds one event (builder style).
    #[must_use]
    pub fn with_event(mut self, event: FaultEvent) -> Self {
        self.events.push(event);
        self
    }

    /// Replaces the fault-draw seed (builder style).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Validates the schedule: a positive frame count, every event
    /// windowed inside it with a positive duration, and every kind's
    /// own parameter domain.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::InvalidArgument`] naming the first
    /// violation.
    pub fn validate(&self) -> Result<()> {
        if self.frames == 0 {
            return Err(ScenarioError::InvalidArgument(format!(
                "scenario '{}' must run at least one frame",
                self.name
            )));
        }
        for (i, ev) in self.events.iter().enumerate() {
            if ev.duration == 0 {
                return Err(ScenarioError::InvalidArgument(format!(
                    "scenario '{}' event {i} has zero duration",
                    self.name
                )));
            }
            if ev.at_frame + ev.duration > self.frames {
                return Err(ScenarioError::InvalidArgument(format!(
                    "scenario '{}' event {i} window [{}, {}) exceeds the {}-frame run",
                    self.name,
                    ev.at_frame,
                    ev.at_frame + ev.duration,
                    self.frames
                )));
            }
            ev.kind.validate()?;
        }
        Ok(())
    }

    /// Whether any scripted event is active at stream frame `frame`.
    pub fn fault_active_at(&self, frame: usize) -> bool {
        self.events.iter().any(|ev| ev.active_at(frame))
    }

    /// The RNG driving frame `frame`'s fault pixel draws: counter-style
    /// seeding from the script seed and the frame index, so frames are
    /// independent and any frame replays without streaming the run.
    pub fn frame_rng(&self, frame: usize) -> Pcg32 {
        // SplitMix-style odd multiplier decorrelates consecutive frames.
        Pcg32::seed_from_u64(self.seed ^ (frame as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn image(fill: f64) -> DepthImage {
        let mut img = DepthImage::new(8, 6);
        for v in 0..6 {
            for u in 0..8 {
                img.set_depth(u, v, fill);
            }
        }
        img
    }

    #[test]
    fn script_validation() {
        assert!(ScenarioScript::clean("ok", 10).validate().is_ok());
        assert!(ScenarioScript::clean("empty", 0).validate().is_err());
        // Window past the end.
        let s = ScenarioScript::clean("late", 10).with_event(FaultEvent {
            at_frame: 8,
            duration: 3,
            kind: FaultKind::LowTexture,
        });
        assert!(s.validate().is_err());
        // Zero duration.
        let s = ScenarioScript::clean("zero", 10).with_event(FaultEvent {
            at_frame: 2,
            duration: 0,
            kind: FaultKind::LowTexture,
        });
        assert!(s.validate().is_err());
    }

    #[test]
    fn kind_parameter_domains() {
        let cases = [
            FaultKind::Teleport { skip: 0 },
            FaultKind::Dropout { fraction: 0.0 },
            FaultKind::Dropout { fraction: 1.5 },
            FaultKind::Dropout { fraction: f64::NAN },
            FaultKind::StuckValue { depth_m: 0.0 },
            FaultKind::StuckValue {
                depth_m: f64::INFINITY,
            },
            FaultKind::Offset { bias_m: 0.0 },
            FaultKind::Offset { bias_m: f64::NAN },
            FaultKind::Spoof {
                depth_m: -1.0,
                fraction: 0.5,
            },
            FaultKind::Spoof {
                depth_m: 1.0,
                fraction: 0.0,
            },
        ];
        for kind in cases {
            let s = ScenarioScript::clean("bad", 10).with_event(FaultEvent {
                at_frame: 0,
                duration: 1,
                kind,
            });
            assert!(s.validate().is_err(), "{kind:?} accepted");
        }
    }

    #[test]
    fn event_windows() {
        let ev = FaultEvent {
            at_frame: 5,
            duration: 3,
            kind: FaultKind::LowTexture,
        };
        assert!(!ev.active_at(4));
        assert!(ev.active_at(5));
        assert!(ev.active_at(7));
        assert!(!ev.active_at(8));
        assert_eq!(ev.window(), (5, 8));
    }

    #[test]
    fn dropout_full_blinds_the_frame() {
        let mut img = image(2.0);
        let mut rng = Pcg32::seed_from_u64(1);
        FaultKind::Dropout { fraction: 1.0 }.apply(&mut img, &mut rng);
        assert_eq!(img.valid_count(), 0);
    }

    #[test]
    fn dropout_partial_is_deterministic_per_seed() {
        let script = ScenarioScript::clean("d", 10);
        let mut a = image(2.0);
        let mut b = image(2.0);
        FaultKind::Dropout { fraction: 0.5 }.apply(&mut a, &mut script.frame_rng(3));
        FaultKind::Dropout { fraction: 0.5 }.apply(&mut b, &mut script.frame_rng(3));
        assert_eq!(a.as_slice(), b.as_slice());
        assert!(a.valid_count() > 0 && a.valid_count() < 48);
        // A different frame index draws a different mask.
        let mut c = image(2.0);
        FaultKind::Dropout { fraction: 0.5 }.apply(&mut c, &mut script.frame_rng(4));
        assert_ne!(a.as_slice(), c.as_slice());
    }

    #[test]
    fn stuck_value_freezes_every_pixel() {
        let mut img = image(2.0);
        img.set_depth(0, 0, 0.0); // even invalid pixels latch
        let mut rng = Pcg32::seed_from_u64(1);
        FaultKind::StuckValue { depth_m: 1.5 }.apply(&mut img, &mut rng);
        for (_, _, d) in img.valid_pixels() {
            assert_eq!(d, 1.5);
        }
        assert_eq!(img.valid_count(), 48);
    }

    #[test]
    fn offset_biases_valid_pixels_and_culls_nonpositive() {
        let mut img = image(2.0);
        img.set_depth(0, 0, 0.0);
        img.set_depth(1, 0, 0.5);
        let mut rng = Pcg32::seed_from_u64(1);
        FaultKind::Offset { bias_m: -1.0 }.apply(&mut img, &mut rng);
        // Invalid stays invalid (no phantom return from the bias).
        assert_eq!(img.depth(0, 0), 0.0);
        // 0.5 - 1.0 <= 0 → no return.
        assert_eq!(img.depth(1, 0), 0.0);
        assert_eq!(img.depth(2, 0), 1.0);
    }

    #[test]
    fn spoof_injects_phantom_returns_into_invalid_pixels() {
        let mut img = DepthImage::new(8, 6); // all invalid
        let mut rng = Pcg32::seed_from_u64(2);
        FaultKind::Spoof {
            depth_m: 1.0,
            fraction: 1.0,
        }
        .apply(&mut img, &mut rng);
        assert_eq!(img.valid_count(), 48);
        for (_, _, d) in img.valid_pixels() {
            assert_eq!(d, 1.0);
        }
    }

    #[test]
    fn low_texture_flattens_to_the_mean() {
        let mut img = image(2.0);
        img.set_depth(0, 0, 4.0);
        img.set_depth(1, 0, 0.0); // invalid: excluded from the mean, left alone
        let mut rng = Pcg32::seed_from_u64(3);
        FaultKind::LowTexture.apply(&mut img, &mut rng);
        let mean = (4.0 + 46.0 * 2.0) / 47.0;
        assert_eq!(img.depth(1, 0), 0.0);
        for (_, _, d) in img.valid_pixels() {
            assert!((d - mean).abs() < 1e-12);
        }
        // A fully blind frame is a no-op, not a division by zero.
        let mut blind = DepthImage::new(4, 4);
        FaultKind::LowTexture.apply(&mut blind, &mut rng);
        assert_eq!(blind.valid_count(), 0);
    }
}
