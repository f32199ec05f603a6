//! Scripted fault injection as a wrapper over a dataset's frame stream,
//! plus the scenario runner and its outcome grading.

use crate::fault::{FaultEvent, FaultKind, ScenarioScript};
use crate::{Result, ScenarioError};
use navicim_core::pipeline::{FrameReport, LocalizationPipeline};
use navicim_math::geom::Pose;
use navicim_scene::camera::DepthImage;
use navicim_scene::dataset::LocalizationDataset;

/// One faulted stream frame: exactly the `(control, depth, truth)`
/// triple a [`LocalizationPipeline::step`] call consumes, plus the
/// injection flag for grading.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioFrame {
    /// 0-based tracked stream frame.
    pub frame: usize,
    /// The odometry control fed to the filter — always the one-step
    /// delta of the poses the *robot believes* it traversed, so under a
    /// [`FaultKind::Teleport`] this is the honest pre-jump step while
    /// `truth`/`depth` come from the post-jump world.
    pub control: Pose,
    /// This frame's (possibly fault-mutated) depth image.
    pub depth: DepthImage,
    /// Ground-truth pose of the served frame.
    pub truth: Pose,
    /// Whether any scripted fault was active this frame.
    pub fault_active: bool,
}

/// A [`ScenarioScript`] applied over a [`LocalizationDataset`]'s frame
/// stream.
///
/// The stream keeps a dataset cursor that advances one frame per step
/// and wraps modulo the dataset length, so a script may run arbitrarily
/// many frames over a short orbit (the 1k+-frame drift regime). The
/// control of every frame — including across the wrap — is computed
/// from the actual pose pair `(previous served, next served)`, so the
/// odometry is always consistent with the served truth... except where
/// a [`FaultKind::Teleport`] deliberately breaks that consistency.
///
/// Depth faults mutate a *clone* of the dataset frame using the
/// script's counter-seeded per-frame RNG: the same script over the same
/// dataset yields bit-identical streams, run after run.
#[derive(Debug)]
pub struct ScenarioStream<'a> {
    dataset: &'a LocalizationDataset,
    script: &'a ScenarioScript,
    cursor: usize,
    next: usize,
}

impl<'a> ScenarioStream<'a> {
    /// Validates the script and wraps the dataset.
    ///
    /// # Errors
    ///
    /// Propagates [`ScenarioScript::validate`]; rejects datasets with
    /// fewer than two frames (no pose pair to derive controls from).
    pub fn new(dataset: &'a LocalizationDataset, script: &'a ScenarioScript) -> Result<Self> {
        script.validate()?;
        if dataset.frames.len() < 2 {
            return Err(ScenarioError::InvalidArgument(format!(
                "scenario '{}' needs a dataset with at least 2 frames, got {}",
                script.name,
                dataset.frames.len()
            )));
        }
        Ok(Self {
            dataset,
            script,
            cursor: 0,
            next: 0,
        })
    }
}

impl Iterator for ScenarioStream<'_> {
    type Item = ScenarioFrame;

    fn next(&mut self) -> Option<ScenarioFrame> {
        if self.next >= self.script.frames {
            return None;
        }
        let frame = self.next;
        let n = self.dataset.frames.len();
        let prev = self.cursor;
        let mut cur = (prev + 1) % n;
        // The control the robot *believes*: the nominal one-frame step,
        // captured before any teleport moves the world.
        let control = self.dataset.frames[prev]
            .pose
            .delta_to(self.dataset.frames[cur].pose);
        let mut fault_active = false;
        for ev in &self.script.events {
            if ev.active_at(frame) {
                fault_active = true;
                if let FaultKind::Teleport { skip } = ev.kind {
                    cur = (cur + skip) % n;
                }
            }
        }
        let truth = self.dataset.frames[cur].pose;
        let mut depth = self.dataset.frames[cur].depth.clone();
        if fault_active {
            let mut rng = self.script.frame_rng(frame);
            for ev in &self.script.events {
                if ev.active_at(frame) {
                    ev.kind.apply(&mut depth, &mut rng);
                }
            }
        }
        self.cursor = cur;
        self.next += 1;
        Some(ScenarioFrame {
            frame,
            control,
            depth,
            truth,
            fault_active,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.script.frames - self.next;
        (left, Some(left))
    }
}

/// A graded scenario run: the pipeline's frame reports next to the
/// injection ground truth.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioOutcome {
    /// The script's name.
    pub name: String,
    /// The script's schedule (for window-relative grading).
    pub events: Vec<FaultEvent>,
    /// Per-frame pipeline reports, in stream order.
    pub reports: Vec<FrameReport>,
    /// Per-frame injection flags — what was *actually* scripted, to
    /// grade the detector's `fault_active` claims against.
    pub injected: Vec<bool>,
}

impl ScenarioOutcome {
    /// Frames in the run.
    pub fn frames(&self) -> usize {
        self.reports.len()
    }

    /// Per-event detection delay: frames from the event's onset to the
    /// first report at-or-after it with the detector's alarm latched
    /// (`None` = never detected). The search runs to the end of the
    /// stream, so for multi-event scripts whose alarm latches across
    /// windows, grade one event per script or space events past
    /// recovery.
    pub fn detection_delays(&self) -> Vec<Option<usize>> {
        self.events
            .iter()
            .map(|ev| {
                self.reports[ev.at_frame.min(self.reports.len())..]
                    .iter()
                    .position(|r| r.fault_active)
            })
            .collect()
    }

    /// Frames where the detector claimed a fault *outside* every
    /// scripted window and its `grace` trailing frames (the latched
    /// alarm legitimately persists into recovery) — the false-alarm
    /// count. On a clean script every alarmed frame counts.
    pub fn false_alarm_frames(&self, grace: usize) -> usize {
        self.reports
            .iter()
            .enumerate()
            .filter(|(i, r)| {
                r.fault_active
                    && !self
                        .events
                        .iter()
                        .any(|ev| *i >= ev.at_frame && *i < ev.at_frame + ev.duration + grace)
            })
            .count()
    }

    /// Mean translation error over the final `tail` frames (clamped to
    /// the run length) — the post-recovery re-convergence metric.
    pub fn mean_tail_error(&self, tail: usize) -> f64 {
        let n = self.reports.len();
        if n == 0 {
            return 0.0;
        }
        let tail = &self.reports[n - tail.clamp(1, n)..];
        tail.iter().map(|r| r.summary.error).sum::<f64>() / tail.len() as f64
    }

    /// Mean NEES over the final `tail` frames — the post-recovery
    /// *consistency* metric (near the position dimension 3 when the
    /// filter's covariance explains its error again).
    pub fn mean_tail_nees(&self, tail: usize) -> f64 {
        let n = self.reports.len();
        if n == 0 {
            return 0.0;
        }
        let tail = &self.reports[n - tail.clamp(1, n)..];
        tail.iter().map(|r| r.nees).sum::<f64>() / tail.len() as f64
    }

    /// Frames the safe-mode response governed.
    pub fn safe_mode_frames(&self) -> usize {
        self.reports.iter().filter(|r| r.safe_mode).count()
    }
}

/// Streams `script` over `dataset` through `pipeline`, one
/// [`LocalizationPipeline::step`] per scenario frame, and collects the
/// graded outcome. The pipeline is consumed statefully — pass a fresh
/// build (or [`LocalizationPipeline::fork_session`]) per scenario.
///
/// # Errors
///
/// Propagates script validation and pipeline step errors.
pub fn run_scenario(
    pipeline: &mut LocalizationPipeline,
    dataset: &LocalizationDataset,
    script: &ScenarioScript,
) -> Result<ScenarioOutcome> {
    let stream = ScenarioStream::new(dataset, script)?;
    let mut reports = Vec::with_capacity(script.frames);
    let mut injected = Vec::with_capacity(script.frames);
    for f in stream {
        let report = pipeline.step(&f.control, &f.depth, f.truth)?;
        injected.push(f.fault_active);
        reports.push(report);
    }
    Ok(ScenarioOutcome {
        name: script.name.clone(),
        events: script.events.clone(),
        reports,
        injected,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use navicim_core::localization::LocalizerConfig;
    use navicim_core::pipeline::{
        FaultDetectorConfig, GateConfig, SafeModeConfig, ANALOG_SLOT, DIGITAL_SLOT,
    };
    use navicim_core::registry::{CIM_HMGM, DIGITAL_GMM};
    use navicim_scene::dataset::LocalizationConfig;

    fn dataset() -> LocalizationDataset {
        LocalizationDataset::generate(
            &LocalizationConfig {
                image_width: 24,
                image_height: 18,
                map_points: 600,
                frames: 8,
                ..LocalizationConfig::default()
            },
            7,
        )
        .unwrap()
    }

    #[test]
    fn clean_stream_replays_the_dataset() {
        let ds = dataset();
        let script = ScenarioScript::clean("clean", ds.frames.len() - 1);
        let frames: Vec<ScenarioFrame> = ScenarioStream::new(&ds, &script).unwrap().collect();
        assert_eq!(frames.len(), 7);
        let controls = ds.control_deltas();
        for (t, f) in frames.iter().enumerate() {
            assert_eq!(f.frame, t);
            assert_eq!(f.control, controls[t]);
            assert_eq!(f.truth, ds.frames[t + 1].pose);
            assert_eq!(f.depth, ds.frames[t + 1].depth);
            assert!(!f.fault_active);
        }
    }

    #[test]
    fn looping_stream_runs_past_the_dataset_with_consistent_controls() {
        let ds = dataset();
        let n = ds.frames.len();
        let script = ScenarioScript::clean("drift", 3 * n);
        let frames: Vec<ScenarioFrame> = ScenarioStream::new(&ds, &script).unwrap().collect();
        assert_eq!(frames.len(), 3 * n);
        // Across the wrap the control is the actual pose delta of the
        // served pair — odometry stays consistent with truth.
        let mut cursor = 0usize;
        for f in &frames {
            let next = (cursor + 1) % n;
            assert_eq!(
                f.control,
                ds.frames[cursor].pose.delta_to(ds.frames[next].pose)
            );
            assert_eq!(f.truth, ds.frames[next].pose);
            cursor = next;
        }
    }

    #[test]
    fn teleport_feeds_prejump_control_with_postjump_world() {
        let ds = dataset();
        let n = ds.frames.len();
        let script = ScenarioScript::clean("kidnap", 6).with_event(FaultEvent {
            at_frame: 3,
            duration: 1,
            kind: FaultKind::Teleport { skip: 2 },
        });
        let frames: Vec<ScenarioFrame> = ScenarioStream::new(&ds, &script).unwrap().collect();
        // Frames 0-2 track normally: cursor 1, 2, 3.
        assert_eq!(frames[2].truth, ds.frames[3].pose);
        // Frame 3: the robot believes it stepped 3→4, but the world
        // jumped to dataset frame (4 + 2) % n = 6.
        assert_eq!(
            frames[3].control,
            ds.frames[3].pose.delta_to(ds.frames[4].pose)
        );
        assert_eq!(frames[3].truth, ds.frames[6 % n].pose);
        assert_eq!(frames[3].depth, ds.frames[6 % n].depth);
        assert!(frames[3].fault_active);
        // Frame 4 resumes honest stepping from the *new* location.
        assert_eq!(
            frames[4].control,
            ds.frames[6 % n].pose.delta_to(ds.frames[7 % n].pose)
        );
        assert!(!frames[4].fault_active);
    }

    #[test]
    fn depth_faults_mutate_only_the_scripted_window() {
        let ds = dataset();
        let script = ScenarioScript::clean("burst", 7).with_event(FaultEvent {
            at_frame: 2,
            duration: 2,
            kind: FaultKind::Dropout { fraction: 1.0 },
        });
        let frames: Vec<ScenarioFrame> = ScenarioStream::new(&ds, &script).unwrap().collect();
        for f in &frames {
            let scripted = (2..4).contains(&f.frame);
            assert_eq!(f.fault_active, scripted);
            if scripted {
                assert_eq!(f.depth.valid_count(), 0);
            } else {
                assert_eq!(f.depth, ds.frames[f.frame + 1].depth);
            }
        }
        // The dataset itself was never touched.
        assert!(ds.frames[3].depth.valid_count() > 0);
    }

    #[test]
    fn streams_replay_bit_identically() {
        let ds = dataset();
        let script = ScenarioScript::clean("replay", 10)
            .with_event(FaultEvent {
                at_frame: 2,
                duration: 3,
                kind: FaultKind::Dropout { fraction: 0.4 },
            })
            .with_event(FaultEvent {
                at_frame: 6,
                duration: 2,
                kind: FaultKind::Spoof {
                    depth_m: 1.2,
                    fraction: 0.3,
                },
            });
        let a: Vec<ScenarioFrame> = ScenarioStream::new(&ds, &script).unwrap().collect();
        let b: Vec<ScenarioFrame> = ScenarioStream::new(&ds, &script).unwrap().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn run_scenario_detects_a_blackout_and_recovers() {
        let ds = dataset();
        let config = LocalizerConfig {
            num_particles: 150,
            pixel_stride: 7,
            components: 8,
            gate: GateConfig::always(vec![DIGITAL_GMM, CIM_HMGM], ANALOG_SLOT),
            init_spread: 0.1,
            init_yaw_spread: 0.05,
            seed: 3,
            ..LocalizerConfig::default()
        };
        let mut pipeline = LocalizationPipeline::build(&ds, config)
            .unwrap()
            .with_safe_mode(SafeModeConfig {
                detector: FaultDetectorConfig {
                    drift: 2.0,
                    threshold: 10.0,
                    warmup: 2,
                },
                hold_frames: 2,
                recovery_innovation: -1.0,
            })
            .unwrap();
        let script = ScenarioScript::clean("blackout", 24).with_event(FaultEvent {
            at_frame: 10,
            duration: 3,
            kind: FaultKind::Dropout { fraction: 1.0 },
        });
        let outcome = run_scenario(&mut pipeline, &ds, &script).unwrap();
        assert_eq!(outcome.frames(), 24);
        assert_eq!(outcome.injected.iter().filter(|&&f| f).count(), 3);
        // Detected within 2 frames of onset (the BLIND_LL reading lands
        // on the bus one frame after the first blind frame).
        let delay = outcome.detection_delays()[0].expect("blackout detected");
        assert!(delay <= 2, "delay {delay}");
        // No alarms before the fault or long after recovery.
        assert_eq!(outcome.false_alarm_frames(8), 0);
        // Safe mode engaged and forced the digital override.
        assert!(outcome.safe_mode_frames() >= 2);
        for r in outcome.reports.iter().filter(|r| r.safe_mode) {
            assert_eq!(r.slot, DIGITAL_SLOT);
        }
        // And exited: the run's tail is back on the pinned analog slot.
        let last = outcome.reports.last().unwrap();
        assert!(!last.safe_mode && last.slot == ANALOG_SLOT);
        assert!(outcome.mean_tail_error(4).is_finite());
        assert!(outcome.mean_tail_nees(4).is_finite());
    }
}
