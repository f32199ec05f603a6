//! The uncertainty-gated streaming localization pipeline.
//!
//! The paper's core argument is that particle-spread uncertainty should
//! *drive* the compute substrate. When the cloud is wide (lost, startup,
//! kidnapped), spend energy on the accurate digital datapath; once it has
//! collapsed, the cheap analog CIM array holds the track at a fraction of
//! the energy — the wake-up/fallback pattern of the memristor front-end
//! literature.
//!
//! This module is that loop:
//!
//! - [`LocalizationPipeline`] — owns one or more live backends built by
//!   name from the [`BackendRegistry`] and streams depth frames through a
//!   per-frame predict/gate/weigh/report loop. A frame has one path:
//!   [`LocalizationPipeline::begin_frame`] (bus, gate, VO, motion
//!   prediction, scan staging), the serving slot's batch evaluation, and
//!   [`LocalizationPipeline::finish_frame`] (reweigh, resample, report).
//!   [`LocalizationPipeline::step`] runs the three in a row; a serving
//!   layer runs the middle one itself,
//! - [`GateConfig`] — the arbitration strategy (uncertainty bus →
//!   backend slot), one of the closed set [`GateKind`]: a pinned slot
//!   (the always-digital / always-analog baselines), the
//!   [`HysteresisGate`] default co-design (spread enter/exit thresholds
//!   plus a dwell count so the gate never thrashes), the
//!   [`MultiSignalGate`] with its innovation/ESS digital wake-ups, and
//!   the uncertainty-blind [`PeriodicRefresh`] timer,
//! - [`FrameReport`] / [`PipelineRun`] — per-frame records of the chosen
//!   slot, the gate's uncertainty input, pose error and the Fig. 2(i)-style
//!   map-evaluation energy priced through `navicim-energy`, so a run shows
//!   the analog-mode energy savings directly. [`PipelineRun`] is the one
//!   run record, for single-backend and gated runs alike.

use crate::localization::{LocalizerConfig, ScanScratch, StepSummary};
use crate::registry::{BackendRegistry, BackendStats, MapBackend, MapFitContext};
use crate::reportfmt::{fmt_pct, Csv, Table};
use crate::vo::{AdaptiveMcPolicy, BayesianVo};
use crate::{CoreError, Result};
use navicim_backend::PointBatch;
use navicim_energy::analog::AnalogCimProfile;
use navicim_energy::digital::DigitalProfile;
use navicim_energy::sram::SramCimProfile;
use navicim_filter::estimate::{mean_pose, position_nees, position_spread};
use navicim_filter::filter::ParticleFilter;
pub use navicim_filter::signals::FaultDetectorConfig;
use navicim_filter::signals::{FaultDetector, InnovationTracker};
use navicim_math::geom::Pose;
use navicim_math::rng::Pcg32;
use navicim_nn::mc::McPrediction;
use navicim_scene::camera::{DepthCamera, DepthImage};
use navicim_scene::dataset::LocalizationDataset;
use navicim_sram::cim_macro::MacroStats;
use std::cell::OnceCell;
use std::fmt;

/// Conventional slot of the accurate digital reference backend.
pub const DIGITAL_SLOT: usize = 0;
/// Conventional slot of the cheap analog backend.
pub const ANALOG_SLOT: usize = 1;

/// Frames of absence after which a backend slot's frozen likelihood
/// trend is stale: the slot's [`InnovationTracker`] resets to warm-up
/// instead of scoring the first frame back against ancient history
/// (roughly twice the default five-frame EWMA memory).
const INNOVATION_STALE_AFTER: usize = 10;

/// The per-frame uncertainty bus: every live "how lost are we" estimate,
/// gathered *before* a frame is weighed and shared — the same values —
/// by the gate policy, the frame log ([`FrameReport::signals`]) and any
/// downstream consumer (energy ablation, learned-gate training data).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UncertaintySignals {
    /// Particle-cloud positional spread (1σ radius, metres) before the
    /// motion prediction — the original gate signal.
    pub spread: f64,
    /// Effective sample size as a fraction of the particle count, in
    /// (0, 1] (scale-free, so thresholds survive population changes).
    /// Measured on the previous update *before* its resampling step —
    /// the resampler resets collapsed weights to uniform on the spot,
    /// so a post-resample reading could never show the degeneracy an
    /// ESS-triggered rescue exists to catch. Before the first update it
    /// is the live (uniform-weight) value.
    pub ess_fraction: f64,
    /// Likelihood innovation: the previous frame's mean log-likelihood
    /// minus the running EWMA *of the backend slot that served it* —
    /// each slot keeps its own trend, because digital and analog
    /// likelihoods sit on different scales and a cross-backend delta
    /// would read every slot switch as a phantom map-mismatch event.
    /// `None` during warm-up — until the serving slot has weighed two
    /// finite frames there is no trend to deviate from — and after a
    /// blind (all-`-inf`) frame, so "no reading yet" can never
    /// masquerade as a genuine `Some(0.0)` matched-the-trend-exactly
    /// reading. Negative values mean the map matched *worse* than the
    /// serving backend's recent trend — the "collapsed but biased"
    /// symptom spread alone cannot see.
    pub innovation: Option<f64>,
    /// Previous frame's VO total predictive variance (`None` before the
    /// first VO prediction, or when no [`VoStage`] rides the pipeline).
    pub vo_variance: Option<f64>,
}

impl UncertaintySignals {
    /// A spread-only bus (the other signals at their neutral values) —
    /// handy for tests and for driving spread-thresholded policies
    /// directly.
    pub fn from_spread(spread: f64) -> Self {
        Self {
            spread,
            ess_fraction: 1.0,
            innovation: None,
            vo_variance: None,
        }
    }
}

/// Everything a gate sees before a frame is weighed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GateContext {
    /// 0-based index of the upcoming frame.
    pub frame: usize,
    /// The uncertainty bus for this frame.
    pub signals: UncertaintySignals,
}

/// Per-frame backend arbitration, built from [`GateConfig`]: the
/// uncertainty bus in, a backend slot out. The stateful gates keep their
/// dwell counters inside; a forked session builds its gate afresh from
/// the config.
enum Gate {
    /// Every frame on one pinned slot: the always-digital /
    /// always-analog baselines the gated runs are measured against.
    Always(usize),
    Hysteresis(HysteresisGate),
    MultiSignal(MultiSignalGate),
    Periodic(PeriodicRefresh),
}

impl Gate {
    /// Policy name for reports. A pinned slot keeps the generic
    /// `always-slot{n}` label in single-backend mode; with several slots
    /// the conventional ones get their baseline names.
    fn name(&self, num_slots: usize) -> String {
        match *self {
            Gate::Always(slot) => match (slot, num_slots) {
                (DIGITAL_SLOT, 2..) => "always-digital".into(),
                (ANALOG_SLOT, 2..) => "always-analog".into(),
                _ => format!("always-slot{slot}"),
            },
            Gate::Hysteresis(_) => "hysteresis".into(),
            Gate::MultiSignal(_) => "multi-signal".into(),
            Gate::Periodic(_) => "periodic-refresh".into(),
        }
    }
}

/// Thresholds of the default [`HysteresisGate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HysteresisConfig {
    /// Spread at or below which frames go to the cheap analog slot (the
    /// cloud has collapsed; the approximate path can hold the track).
    pub analog_enter: f64,
    /// Spread at or above which the gate wakes the accurate digital slot
    /// (uncertainty is growing; pay for precision). Must exceed
    /// [`Self::analog_enter`]; the band between the two is the
    /// hysteresis dead zone where the gate keeps its current slot.
    pub digital_enter: f64,
    /// Minimum number of frames between switches (≥ 1). A switch locks
    /// the gate for `dwell` frames, so backend churn is bounded even on
    /// noisy spread signals.
    pub dwell: usize,
    /// Slot served on frame 0 (digital by default: the cloud starts
    /// wide).
    pub start: usize,
}

impl Default for HysteresisConfig {
    fn default() -> Self {
        Self {
            analog_enter: 0.10,
            digital_enter: 0.20,
            dwell: 3,
            start: DIGITAL_SLOT,
        }
    }
}

impl HysteresisConfig {
    /// Validates every threshold uniformly: both spread thresholds must
    /// be finite with `0 < analog_enter < digital_enter`, the dwell at
    /// least one frame, and the start slot digital or analog. Shared by
    /// [`HysteresisGate::new`] and [`MultiSignalGate::new`], so the
    /// spread band obeys one rule set wherever it appears.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidArgument`] naming the offending field.
    pub fn validate(&self) -> Result<()> {
        if !self.analog_enter.is_finite()
            || !self.digital_enter.is_finite()
            || !(self.analog_enter > 0.0)
            || !(self.digital_enter > self.analog_enter)
        {
            return Err(CoreError::InvalidArgument(format!(
                "hysteresis thresholds must be finite with 0 < analog_enter < digital_enter \
                 (got {} / {})",
                self.analog_enter, self.digital_enter
            )));
        }
        if self.dwell == 0 {
            return Err(CoreError::InvalidArgument(
                "hysteresis dwell must be at least 1 frame".into(),
            ));
        }
        if self.start > ANALOG_SLOT {
            return Err(CoreError::InvalidArgument(format!(
                "hysteresis start slot {} is neither digital (0) nor analog (1)",
                self.start
            )));
        }
        Ok(())
    }

    /// The slot this spread band demands given the current slot: analog
    /// at or below `analog_enter`, digital at or above `digital_enter`,
    /// the current slot inside the dead zone. Shared by
    /// [`HysteresisGate`] and [`MultiSignalGate`] so the two gates'
    /// spread semantics cannot drift apart (their neutral-bus
    /// equivalence is property-tested).
    fn spread_target(&self, spread: f64, current: usize) -> usize {
        if spread <= self.analog_enter {
            ANALOG_SLOT
        } else if spread >= self.digital_enter {
            DIGITAL_SLOT
        } else {
            current
        }
    }
}

/// The default gate: particle-spread thresholds with hysteresis and a
/// dwell count.
///
/// - spread ≤ `analog_enter` → the cheap analog slot,
/// - spread ≥ `digital_enter` → the accurate digital slot,
/// - in between → keep the current slot (dead zone),
/// - after any switch the gate dwells for `dwell` frames regardless of
///   the signal, so it can never switch more than once per dwell window.
#[derive(Debug, Clone, PartialEq)]
pub struct HysteresisGate {
    config: HysteresisConfig,
    current: usize,
    since_switch: usize,
    switches: u64,
    started: bool,
}

impl HysteresisGate {
    /// Validates the thresholds and builds the gate.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidArgument`] unless
    /// `0 < analog_enter < digital_enter` (both finite), `dwell ≥ 1` and
    /// the start slot is digital or analog
    /// ([`HysteresisConfig::validate`]).
    pub fn new(config: HysteresisConfig) -> Result<Self> {
        config.validate()?;
        Ok(Self {
            config,
            current: config.start,
            since_switch: 0,
            switches: 0,
            started: false,
        })
    }

    /// Number of backend switches performed since construction.
    pub fn switches(&self) -> u64 {
        self.switches
    }

    /// Chooses the backend slot for the upcoming frame.
    pub fn select(&mut self, ctx: &GateContext) -> usize {
        if !self.started {
            self.started = true;
            self.current = self.config.start;
            self.since_switch = 0;
            return self.current;
        }
        self.since_switch = self.since_switch.saturating_add(1);
        if self.since_switch >= self.config.dwell {
            let target = self.config.spread_target(ctx.signals.spread, self.current);
            if target != self.current {
                self.current = target;
                self.since_switch = 0;
                self.switches += 1;
            }
        }
        self.current
    }
}

/// Thresholds of the [`MultiSignalGate`]: the spread hysteresis band
/// plus the two digital-wake overrides that read the rest of the
/// uncertainty bus.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultiSignalConfig {
    /// The spread band — same semantics (and same validation) as the
    /// spread-only [`HysteresisGate`].
    pub spread: HysteresisConfig,
    /// Wake the digital slot when the likelihood innovation is at or
    /// below this (strongly negative: the map suddenly matches much
    /// worse than its recent trend) even if the cloud is tight — the
    /// "collapsed but biased" rescue. Must be finite and negative.
    pub innovation_wake: f64,
    /// Wake the digital slot when the ESS fraction is at or below this
    /// (weight mass concentrated on a sliver of the cloud). Must be in
    /// (0, 1).
    pub ess_wake: f64,
}

impl Default for MultiSignalConfig {
    fn default() -> Self {
        Self {
            spread: HysteresisConfig::default(),
            // Roughly "the frame scored one nat/point below trend" on
            // the tempered per-frame mean log-likelihood scale.
            innovation_wake: -1.0,
            ess_wake: 0.05,
        }
    }
}

/// The multi-signal gate: the [`HysteresisGate`] spread band extended
/// with digital-wake overrides on the other bus signals. A tight cloud
/// ordinarily stays on the cheap analog slot, but a strongly negative
/// likelihood innovation or a collapsed ESS fraction means the cloud is
/// confidently *wrong* — the one failure mode a spread threshold is
/// blind to (PAPERS.md: the memristor wake-up paper's
/// uncertainty-triggered escalation) — and forces the accurate digital
/// slot.
///
/// Overrides obey the same dwell lock as spread switches, so the gate
/// still switches at most once per dwell window; an innovation of
/// `None` (warm-up, blind frame) never fires the override.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiSignalGate {
    config: MultiSignalConfig,
    current: usize,
    since_switch: usize,
    switches: u64,
    rescues: u64,
    started: bool,
}

impl MultiSignalGate {
    /// Validates the thresholds and builds the gate.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidArgument`] when the spread band is
    /// invalid ([`HysteresisConfig::validate`]), `innovation_wake` is
    /// not a finite negative number, or `ess_wake` is outside (0, 1).
    pub fn new(config: MultiSignalConfig) -> Result<Self> {
        config.spread.validate()?;
        if !config.innovation_wake.is_finite() || !(config.innovation_wake < 0.0) {
            return Err(CoreError::InvalidArgument(format!(
                "multi-signal innovation wake threshold must be finite and negative, got {}",
                config.innovation_wake
            )));
        }
        if !config.ess_wake.is_finite() || !(config.ess_wake > 0.0) || !(config.ess_wake < 1.0) {
            return Err(CoreError::InvalidArgument(format!(
                "multi-signal ess wake threshold must be in (0, 1), got {}",
                config.ess_wake
            )));
        }
        Ok(Self {
            config,
            current: config.spread.start,
            since_switch: 0,
            switches: 0,
            rescues: 0,
            started: false,
        })
    }

    /// Number of backend switches performed since construction.
    pub fn switches(&self) -> u64 {
        self.switches
    }

    /// Number of rescue-triggered *switches* to the digital slot —
    /// switches the innovation/ESS overrides forced while the spread
    /// band alone would not have left the analog slot. Frames on which
    /// a still-firing override merely *holds* digital are not counted
    /// (the gate is already where the rescue wants it).
    pub fn rescues(&self) -> u64 {
        self.rescues
    }

    /// Whether the non-spread signals demand the digital slot.
    fn wants_rescue(&self, signals: &UncertaintySignals) -> bool {
        let innovation_fires = signals
            .innovation
            .is_some_and(|i| i.is_finite() && i <= self.config.innovation_wake);
        let ess_fires =
            signals.ess_fraction.is_finite() && signals.ess_fraction <= self.config.ess_wake;
        innovation_fires || ess_fires
    }

    /// Chooses the backend slot for the upcoming frame.
    pub fn select(&mut self, ctx: &GateContext) -> usize {
        if !self.started {
            self.started = true;
            self.current = self.config.spread.start;
            self.since_switch = 0;
            return self.current;
        }
        self.since_switch = self.since_switch.saturating_add(1);
        if self.since_switch >= self.config.spread.dwell {
            let spread_target = self
                .config
                .spread
                .spread_target(ctx.signals.spread, self.current);
            let rescue = self.wants_rescue(&ctx.signals);
            let target = if rescue { DIGITAL_SLOT } else { spread_target };
            if target != self.current {
                if rescue && spread_target != DIGITAL_SLOT {
                    self.rescues += 1;
                }
                self.current = target;
                self.since_switch = 0;
                self.switches += 1;
            }
        }
        self.current
    }
}

/// Schedule of the [`PeriodicRefresh`] gate: a repeating cycle of
/// `refresh_len` digital frames followed by `period` analog frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeriodicRefreshConfig {
    /// Analog frames between digital wake-ups (≥ 1).
    pub period: usize,
    /// Consecutive digital frames per wake-up (≥ 1).
    pub refresh_len: usize,
}

impl Default for PeriodicRefreshConfig {
    fn default() -> Self {
        Self {
            period: 8,
            refresh_len: 2,
        }
    }
}

/// The uncertainty-blind duty-cycle baseline: wake the accurate digital
/// slot for `refresh_len` frames every `period` analog frames, starting
/// digital (the cloud is wide at startup), regardless of what the bus
/// says. The third baseline of the gating ablation — it shows how much
/// of the gated savings come from *reacting* to uncertainty rather than
/// from merely rationing digital frames on a timer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeriodicRefresh {
    config: PeriodicRefreshConfig,
}

impl PeriodicRefresh {
    /// Validates the schedule and builds the gate.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidArgument`] when either the period or
    /// the refresh length is zero, or when their sum (the cycle length)
    /// overflows `usize`.
    pub fn new(config: PeriodicRefreshConfig) -> Result<Self> {
        if config.period == 0 || config.refresh_len == 0 {
            return Err(CoreError::InvalidArgument(format!(
                "periodic refresh needs period >= 1 and refresh_len >= 1 (got {} / {})",
                config.period, config.refresh_len
            )));
        }
        if config.period.checked_add(config.refresh_len).is_none() {
            return Err(CoreError::InvalidArgument(format!(
                "periodic refresh cycle length overflows (period {} + refresh_len {})",
                config.period, config.refresh_len
            )));
        }
        Ok(Self { config })
    }

    /// Length of one digital+analog duty cycle, in frames.
    fn cycle_len(&self) -> usize {
        self.config.period + self.config.refresh_len
    }

    /// Chooses the backend slot for the upcoming frame. Selection is a
    /// pure function of the frame index, so the policy is stateless and
    /// trivially deterministic: frames `0..refresh_len` of every cycle
    /// are digital, the remaining `period` frames analog.
    pub fn select(&self, ctx: &GateContext) -> usize {
        if ctx.frame % self.cycle_len() < self.config.refresh_len {
            DIGITAL_SLOT
        } else {
            ANALOG_SLOT
        }
    }
}

/// Built-in gate policies, selected through [`GateConfig`] the same way
/// backends are selected by name — no serde, plain builder calls.
#[derive(Debug, Clone, PartialEq)]
pub enum GateKind {
    /// Pin every frame to one slot.
    Always(usize),
    /// Spread-thresholded digital↔analog arbitration with hysteresis.
    Hysteresis(HysteresisConfig),
    /// The spread band plus innovation/ESS digital-wake overrides.
    MultiSignal(MultiSignalConfig),
    /// Uncertainty-blind timer: wake digital every N analog frames.
    Periodic(PeriodicRefreshConfig),
}

/// The `gate` section of [`LocalizerConfig`]: which backend slots the
/// pipeline instantiates and which built-in policy arbitrates them.
///
/// With an empty slot list (the default) the pipeline serves
/// [`LocalizerConfig::backend`] alone and the policy must be
/// `Always(0)`. Slot order is the contract: slot [`DIGITAL_SLOT`] is the
/// accurate reference, slot [`ANALOG_SLOT`] the cheap alternate.
///
/// ```
/// use navicim_core::pipeline::GateConfig;
/// use navicim_core::registry::{CIM_HMGM, DIGITAL_GMM};
///
/// // Uncertainty-gated digital↔analog arbitration with the default
/// // thresholds:
/// let gate = GateConfig::gated(DIGITAL_GMM, CIM_HMGM);
/// assert_eq!(gate.backends.len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GateConfig {
    /// Backend registry names, by slot. Empty = single-backend mode.
    pub backends: Vec<String>,
    /// The arbitration policy.
    pub policy: GateKind,
}

impl Default for GateConfig {
    fn default() -> Self {
        Self {
            backends: Vec::new(),
            policy: GateKind::Always(DIGITAL_SLOT),
        }
    }
}

impl GateConfig {
    /// Single-backend mode (the default): serve
    /// [`LocalizerConfig::backend`] on every frame.
    pub fn single() -> Self {
        Self::default()
    }

    /// Multi-backend slots with every frame pinned to `slot` — the
    /// baseline configurations of a gating ablation.
    pub fn always<S: Into<String>>(backends: Vec<S>, slot: usize) -> Self {
        Self {
            backends: backends.into_iter().map(Into::into).collect(),
            policy: GateKind::Always(slot),
        }
    }

    /// Hysteresis-gated `digital` ↔ `analog` arbitration with default
    /// thresholds; tune them with [`Self::with_hysteresis`].
    pub fn gated(digital: impl Into<String>, analog: impl Into<String>) -> Self {
        Self {
            backends: vec![digital.into(), analog.into()],
            policy: GateKind::Hysteresis(HysteresisConfig::default()),
        }
    }

    /// Replaces the hysteresis thresholds (builder style).
    pub fn with_hysteresis(mut self, config: HysteresisConfig) -> Self {
        self.policy = GateKind::Hysteresis(config);
        self
    }

    /// Multi-signal-gated `digital` ↔ `analog` arbitration: the spread
    /// band of [`Self::gated`] plus the innovation/ESS digital-wake
    /// overrides of [`MultiSignalGate`].
    pub fn multi_signal(
        digital: impl Into<String>,
        analog: impl Into<String>,
        config: MultiSignalConfig,
    ) -> Self {
        Self {
            backends: vec![digital.into(), analog.into()],
            policy: GateKind::MultiSignal(config),
        }
    }

    /// Timer-gated `digital` ↔ `analog` duty cycling — the
    /// uncertainty-blind [`PeriodicRefresh`] baseline.
    pub fn periodic(
        digital: impl Into<String>,
        analog: impl Into<String>,
        config: PeriodicRefreshConfig,
    ) -> Self {
        Self {
            backends: vec![digital.into(), analog.into()],
            policy: GateKind::Periodic(config),
        }
    }

    /// Registry names the pipeline will instantiate, resolving the
    /// empty-slot default against the localizer's single backend name.
    fn slot_names<'a>(&'a self, fallback: &'a str) -> Vec<&'a str> {
        if self.backends.is_empty() {
            vec![fallback]
        } else {
            self.backends.iter().map(String::as_str).collect()
        }
    }

    /// Builds the configured policy, validating it against the number of
    /// live slots.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidArgument`] when the pinned slot is out
    /// of range or a hysteresis gate is configured without both a digital
    /// and an analog slot.
    fn build_gate(&self, num_slots: usize) -> Result<Gate> {
        match &self.policy {
            GateKind::Always(slot) => {
                if *slot >= num_slots {
                    return Err(CoreError::InvalidArgument(format!(
                        "gate pins slot {slot} but only {num_slots} backend(s) are configured"
                    )));
                }
                Ok(Gate::Always(*slot))
            }
            GateKind::Hysteresis(config) => {
                if num_slots < 2 {
                    return Err(CoreError::InvalidArgument(
                        "hysteresis gating requires a digital and an analog backend slot".into(),
                    ));
                }
                Ok(Gate::Hysteresis(HysteresisGate::new(*config)?))
            }
            GateKind::MultiSignal(config) => {
                if num_slots < 2 {
                    return Err(CoreError::InvalidArgument(
                        "multi-signal gating requires a digital and an analog backend slot".into(),
                    ));
                }
                Ok(Gate::MultiSignal(MultiSignalGate::new(*config)?))
            }
            GateKind::Periodic(config) => {
                if num_slots < 2 {
                    return Err(CoreError::InvalidArgument(
                        "periodic refresh requires a digital and an analog backend slot".into(),
                    ));
                }
                Ok(Gate::Periodic(PeriodicRefresh::new(*config)?))
            }
        }
    }
}

/// What drives the particle filter's motion model each frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ControlSource {
    /// Ground-truth frame deltas (the open-loop default, bit-identical
    /// to every pre-closed-loop run): the caller's `control` argument is
    /// composed into the motion model with its configured noise.
    #[default]
    GroundTruth,
    /// The VO stage's MC-Dropout predictive mean (paper Section III →
    /// Section II fusion): the pipeline navigates on its *own* odometry
    /// estimate, with the prediction's variance inflating the motion
    /// noise through [`NoiseInflation`] so uncertain VO widens the
    /// proposal instead of silently biasing it. Requires an attached
    /// [`VoStage`].
    VisualOdometry,
}

impl ControlSource {
    /// Stable lowercase label for reports and CSV logs.
    pub fn label(&self) -> &'static str {
        match self {
            ControlSource::GroundTruth => "ground-truth",
            ControlSource::VisualOdometry => "visual-odometry",
        }
    }
}

impl fmt::Display for ControlSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Maps the VO prediction's total predictive variance onto a bounded
/// motion-noise scale: `scale = min(floor + gain · variance, ceiling)`,
/// applied to the motion model's noise standard deviations through
/// [`navicim_filter::filter::Motion::sample_scaled`].
///
/// `floor` is the trust granted a zero-variance (perfectly confident)
/// prediction; values below 1 let a VO source whose measured per-step
/// error sits well inside the modeled odometry noise *sharpen* the
/// proposal, while `gain` widens it toward the ceiling as the
/// prediction's epistemic variance grows.
///
/// The bound is the safety contract of the closed loop — for *any*
/// variance input (including `NaN`/`±inf` from a degenerate prediction,
/// and `None` before the first prediction) the returned scale is finite
/// and inside `[floor, ceiling]`, so a pathological VO frame can widen
/// the proposal to the configured ceiling but can never collapse or
/// explode it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseInflation {
    /// Noise-scale gain per unit of VO predictive variance (≥ 0,
    /// finite). 0 pins the scale to `floor`.
    pub gain: f64,
    /// The zero-variance trust level and lower bound on the scale
    /// (> 0, finite). 1.0 keeps the configured motion noise as the
    /// baseline; values below 1 sharpen it for confident predictions.
    pub floor: f64,
    /// Upper bound on the scale (≥ floor, finite) — also the scale used
    /// when no variance is available yet or the variance is non-finite
    /// (maximum distrust).
    pub ceiling: f64,
}

impl Default for NoiseInflation {
    fn default() -> Self {
        Self {
            // The VO regressor's total predictive variance on this
            // workload sits around 1e-3..1e-1; the default gain maps
            // that band onto a ~1x..4x noise inflation.
            gain: 30.0,
            floor: 1.0,
            ceiling: 4.0,
        }
    }
}

impl NoiseInflation {
    /// Validates the bounds and builds the config.
    ///
    /// # Errors
    ///
    /// See [`Self::validate`].
    pub fn new(gain: f64, floor: f64, ceiling: f64) -> Result<Self> {
        let inflation = Self {
            gain,
            floor,
            ceiling,
        };
        inflation.validate()?;
        Ok(inflation)
    }

    /// Checks the invariants [`Self::scale`] relies on. The fields are
    /// public (struct-literal construction is convenient in configs), so
    /// every consumer that accepts a `NoiseInflation` must route it
    /// through this — an unvalidated `floor > ceiling` would *panic*
    /// inside `scale`'s clamp, and a non-finite gain would leak NaN
    /// scales into the motion model.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidArgument`] — one distinct message per
    /// rejection path — unless `gain` is finite and ≥ 0, `floor` is
    /// finite and > 0, and `ceiling` is finite with `ceiling >= floor`.
    pub fn validate(&self) -> Result<()> {
        if !self.gain.is_finite() {
            return Err(CoreError::InvalidArgument(format!(
                "noise-inflation gain must be finite, got {}",
                self.gain
            )));
        }
        if !(self.gain >= 0.0) {
            return Err(CoreError::InvalidArgument(format!(
                "noise-inflation gain must be >= 0, got {}",
                self.gain
            )));
        }
        if !self.floor.is_finite() || !(self.floor > 0.0) {
            return Err(CoreError::InvalidArgument(format!(
                "noise-inflation floor must be finite and > 0, got {}",
                self.floor
            )));
        }
        if !self.ceiling.is_finite() {
            return Err(CoreError::InvalidArgument(format!(
                "noise-inflation ceiling must be finite, got {}",
                self.ceiling
            )));
        }
        if !(self.ceiling >= self.floor) {
            return Err(CoreError::InvalidArgument(format!(
                "noise-inflation ceiling must be >= floor (got floor {} / ceiling {})",
                self.floor, self.ceiling
            )));
        }
        Ok(())
    }

    /// The bounded motion-noise scale for one frame's VO variance.
    /// Total for any input: `None` and non-finite variances price at
    /// the ceiling (maximum distrust), everything else at
    /// `clamp(floor + gain · variance, floor, ceiling)`.
    pub fn scale(&self, vo_variance: Option<f64>) -> f64 {
        match vo_variance {
            Some(v) if v.is_finite() => {
                let raw = self.floor + self.gain * v.max(0.0);
                if raw.is_finite() {
                    raw.clamp(self.floor, self.ceiling)
                } else {
                    self.ceiling
                }
            }
            _ => self.ceiling,
        }
    }
}

/// Tuning of the pipeline's fault-triggered safe mode
/// ([`LocalizationPipeline::with_safe_mode`]).
///
/// The response mirrors the wake-up/fallback pattern the gate already
/// implements for benign uncertainty, hardened for *faults*: when the
/// CUSUM detector over the likelihood-innovation stream alarms, the
/// pipeline overrides the gate to the accurate digital slot
/// ([`DIGITAL_SLOT`]) and clamps the motion-noise scale to the
/// [`NoiseInflation`] ceiling (maximum distrust widens the proposal so
/// the cloud can re-acquire a teleported or drifted truth). Recovery is
/// dwell-gated: safe mode holds for at least `hold_frames` and exits
/// only once a fresh innovation reading clears `recovery_innovation`,
/// at which point the detector re-arms for the next fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SafeModeConfig {
    /// CUSUM tuning over the serving slot's innovation stream.
    pub detector: FaultDetectorConfig,
    /// Minimum frames to dwell in safe mode once entered (≥ 1) — the
    /// re-acquisition transient itself sags the innovation, so an
    /// undwelled exit check would flap.
    pub hold_frames: usize,
    /// Innovation level (finite) a frame must reach before safe mode
    /// may exit: the first honest frame after a fault reads far *above*
    /// its poisoned trend, so a mildly negative bar (e.g. −1) means
    /// "no longer losing ground against the recent past".
    pub recovery_innovation: f64,
}

impl Default for SafeModeConfig {
    fn default() -> Self {
        Self {
            detector: FaultDetectorConfig::default(),
            hold_frames: 3,
            recovery_innovation: -1.0,
        }
    }
}

impl SafeModeConfig {
    /// Validates the response tuning (the detector validates itself in
    /// [`FaultDetector::new`]).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidArgument`] unless `hold_frames >= 1`
    /// and `recovery_innovation` is finite.
    pub fn validate(&self) -> Result<()> {
        if self.hold_frames == 0 {
            return Err(CoreError::InvalidArgument(
                "safe-mode hold_frames must be >= 1".into(),
            ));
        }
        if !self.recovery_innovation.is_finite() {
            return Err(CoreError::InvalidArgument(format!(
                "safe-mode recovery innovation must be finite, got {}",
                self.recovery_innovation
            )));
        }
        Ok(())
    }
}

/// Live fault-detection / safe-mode state riding the pipeline.
#[derive(Debug, Clone)]
struct SafeModeState {
    config: SafeModeConfig,
    detector: FaultDetector,
    active: bool,
    frames_in_mode: usize,
    entries: u64,
}

impl SafeModeState {
    fn new(config: SafeModeConfig) -> Result<Self> {
        config.validate()?;
        let detector = FaultDetector::new(config.detector).map_err(CoreError::Filter)?;
        Ok(Self {
            config,
            detector,
            active: false,
            frames_in_mode: 0,
            entries: 0,
        })
    }

    /// Feeds one frame's innovation reading and advances the
    /// enter/dwell/recover state machine. Returns
    /// `(fault_alarmed, safe_mode_active)` for the frame.
    fn update(&mut self, innovation: Option<f64>) -> (bool, bool) {
        let alarm = self.detector.observe(innovation);
        if self.active {
            self.frames_in_mode += 1;
            let recovered = innovation.is_some_and(|i| i >= self.config.recovery_innovation);
            if self.frames_in_mode >= self.config.hold_frames && recovered {
                self.active = false;
                // Re-arm: the statistic and the latched alarm clear so
                // the *next* fault is a fresh detection.
                self.detector.reset();
            }
        } else if alarm {
            self.active = true;
            self.frames_in_mode = 0;
            self.entries += 1;
        }
        (self.detector.alarmed(), self.active)
    }
}

/// Fig. 2(i)-style pricing of per-frame map evaluations — analog frames
/// cost measured array current × DAC/ADC conversions, digital frames the
/// per-component GMM datapath energy — plus the Section III-D SRAM-macro
/// profile pricing the VO stage's per-frame MC-Dropout passes, so a
/// [`FrameReport`] carries the *joint* map+VO energy of the frame.
#[derive(Debug, Clone, PartialEq)]
struct EnergyPricing {
    /// Analog CIM cost profile.
    pub analog: AnalogCimProfile,
    /// Digital datapath cost profile.
    pub digital: DigitalProfile,
    /// Digital operand width in bits.
    pub digital_bits: u32,
    /// SRAM MC-Dropout macro profile (the VO inference path).
    pub sram: SramCimProfile,
}

impl Default for EnergyPricing {
    fn default() -> Self {
        Self {
            analog: AnalogCimProfile::paper_45nm(),
            digital: DigitalProfile::paper_calibrated_gmm_asic(),
            digital_bits: 8,
            sram: SramCimProfile::paper_16nm(),
        }
    }
}

impl EnergyPricing {
    /// Energy of one frame's map evaluations in pJ, from that frame's
    /// [`BackendStats`] delta. Analog deltas (converter activity present)
    /// are priced per evaluation at the frame's measured average array
    /// current; digital deltas at the per-point mixture datapath cost.
    ///
    /// # Errors
    ///
    /// Propagates profile validation (zero widths, negative currents).
    fn frame_pj(
        &self,
        delta: &BackendStats,
        components: usize,
        dim: usize,
        dac_bits: u32,
        adc_bits: u32,
    ) -> Result<f64> {
        if delta.evaluations == 0 {
            return Ok(0.0);
        }
        let per_eval = if delta.is_analog() {
            self.analog
                .likelihood_eval_pj(delta.avg_current(), dim, dac_bits, adc_bits)?
        } else {
            self.digital
                .gmm_point_pj(dim, components.max(1), self.digital_bits)?
        };
        Ok(per_eval * delta.evaluations as f64)
    }

    /// Energy of one frame's VO MC-Dropout passes in pJ, from that
    /// frame's [`MacroStats`] delta: executed MACs at the weight
    /// precision, partial-sum ADC conversions at the macro resolution,
    /// plus any silicon-RNG dropout bits drawn.
    ///
    /// # Errors
    ///
    /// Propagates profile validation (zero precision).
    fn vo_frame_pj(
        &self,
        delta: &MacroStats,
        rng_bits: u64,
        weight_bits: u32,
        adc_bits: u32,
    ) -> Result<f64> {
        if delta.macs_executed == 0 && delta.adc_conversions == 0 && rng_bits == 0 {
            return Ok(0.0);
        }
        Ok(self.sram.inference_pj(
            delta.macs_executed,
            delta.adc_conversions,
            adc_bits,
            rng_bits,
            weight_bits,
        )?)
    }
}

/// Per-frame record of the VO stage riding the pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VoFrameReport {
    /// MC-Dropout passes the depth policy granted this frame.
    pub iterations: usize,
    /// This frame's fresh total predictive variance (it enters the bus
    /// as [`UncertaintySignals::vo_variance`] on the *next* frame).
    pub variance: f64,
    /// The predictive-mean relative pose this frame's frame pair encodes
    /// — the odometry control a
    /// [`ControlSource::VisualOdometry`] pipeline feeds its motion
    /// model, and the estimate an open-loop run can score against the
    /// ground-truth delta.
    pub delta: Pose,
    /// VO inference energy this frame, in pJ.
    pub energy_pj: f64,
}

/// Everything one streamed frame produced: the gate's decision and the
/// full uncertainty bus it saw, the filter summary, and the frame's
/// evaluation/energy accounting on both compute axes (map substrate and
/// VO MC depth).
#[derive(Debug, Clone, PartialEq)]
pub struct FrameReport {
    /// 0-based frame index (the first tracked frame is dataset frame 1).
    pub frame: usize,
    /// Backend slot the gate chose for this frame.
    pub slot: usize,
    /// The uncertainty bus sampled *before* this frame's prediction —
    /// exactly what the gate saw.
    pub signals: UncertaintySignals,
    /// What drove the motion model this frame (ground-truth deltas or
    /// the VO predictive mean).
    pub control_source: ControlSource,
    /// Motion-noise scale applied to this frame's prediction (1.0 in
    /// ground-truth mode; the bounded [`NoiseInflation`] output of the
    /// frame's VO variance in closed-loop mode).
    pub noise_scale: f64,
    /// Filter summary after the update (estimate, error, post spread,
    /// ESS).
    pub summary: StepSummary,
    /// Diagonal NEES of the post-update cloud against this frame's
    /// truth ([`navicim_filter::estimate::position_nees`]): the
    /// per-frame *consistency* of the filter — squared realized error
    /// normalized by the covariance the filter itself claims. Near the
    /// position dimension (3) when healthy; far above it when the
    /// filter is confidently wrong (the fault signature).
    pub nees: f64,
    /// Whether the fault detector's alarm was latched this frame
    /// (always `false` without [`LocalizationPipeline::with_safe_mode`]).
    pub fault_active: bool,
    /// Whether the safe-mode response (digital override + noise
    /// ceiling) governed this frame (always `false` without
    /// [`LocalizationPipeline::with_safe_mode`]).
    pub safe_mode: bool,
    /// Ground-truth pose of this frame.
    pub truth: Pose,
    /// Map point evaluations served this frame.
    pub evaluations: u64,
    /// Map-evaluation energy this frame, in pJ.
    pub map_energy_pj: f64,
    /// VO stage record (`None` when no [`VoStage`] rides the pipeline).
    pub vo: Option<VoFrameReport>,
}

impl FrameReport {
    /// Joint map+VO energy this frame, in pJ.
    pub fn total_energy_pj(&self) -> f64 {
        self.map_energy_pj + self.vo.map_or(0.0, |v| v.energy_pj)
    }
}

/// Outcome of a gated pipeline run.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineRun {
    /// Backend names, by slot.
    pub backends: Vec<String>,
    /// Gate policy name.
    pub gate: String,
    /// MC-depth policy name of the VO stage (`None` without one).
    pub vo_policy: Option<String>,
    /// Per-frame reports, in stream order.
    pub frames: Vec<FrameReport>,
    /// Cumulative per-slot backend stats at the end of the run.
    pub stats: Vec<BackendStats>,
}

impl PipelineRun {
    /// Mean translation error over the final quarter of the run.
    pub fn steady_state_error(&self) -> f64 {
        let n = self.frames.len();
        if n == 0 {
            return 0.0;
        }
        let tail = &self.frames[n - (n / 4).max(1)..];
        tail.iter().map(|f| f.summary.error).sum::<f64>() / tail.len() as f64
    }

    /// Number of frames served by `slot`.
    pub fn frames_on(&self, slot: usize) -> usize {
        self.frames.iter().filter(|f| f.slot == slot).count()
    }

    /// Fraction of frames served by `slot` (0 for an empty run).
    fn slot_fraction(&self, slot: usize) -> f64 {
        if self.frames.is_empty() {
            0.0
        } else {
            self.frames_on(slot) as f64 / self.frames.len() as f64
        }
    }

    /// Fraction of frames served by an analog backend (identified by its
    /// converter counters).
    pub fn analog_fraction(&self) -> f64 {
        if self.frames.is_empty() {
            return 0.0;
        }
        let analog = self
            .frames
            .iter()
            .filter(|f| {
                self.stats
                    .get(f.slot)
                    .map(BackendStats::is_analog)
                    .unwrap_or(false)
            })
            .count();
        analog as f64 / self.frames.len() as f64
    }

    /// Total joint map+VO energy of the run, in pJ (equals the map
    /// energy when no VO stage rode along).
    pub fn total_energy_pj(&self) -> f64 {
        self.frames.iter().map(FrameReport::total_energy_pj).sum()
    }

    /// Total map-evaluation energy of the run, in pJ.
    pub fn total_map_energy_pj(&self) -> f64 {
        self.frames.iter().map(|f| f.map_energy_pj).sum()
    }

    /// Total VO inference energy of the run, in pJ (0 without a VO
    /// stage).
    pub fn total_vo_energy_pj(&self) -> f64 {
        self.frames
            .iter()
            .filter_map(|f| f.vo.map(|v| v.energy_pj))
            .sum()
    }

    /// Mean MC-Dropout depth over the frames a VO stage served (0
    /// without one).
    pub fn mean_mc_iterations(&self) -> f64 {
        let mut frames = 0usize;
        let mut total = 0usize;
        for f in &self.frames {
            if let Some(vo) = f.vo {
                frames += 1;
                total += vo.iterations;
            }
        }
        if frames == 0 {
            0.0
        } else {
            total as f64 / frames as f64
        }
    }

    /// Mean motion-noise scale over the run (1.0 for a pure
    /// ground-truth run, 0 for an empty run) — how much the closed loop
    /// widened the proposal on average.
    pub fn mean_noise_scale(&self) -> f64 {
        if self.frames.is_empty() {
            return 0.0;
        }
        self.frames.iter().map(|f| f.noise_scale).sum::<f64>() / self.frames.len() as f64
    }

    /// Mean translation error of the VO-predicted frame deltas against
    /// the ground-truth deltas between consecutive reports, in metres
    /// (`None` without a VO stage, or with fewer than two frames) — the
    /// raw odometry quality driving a closed-loop run, independent of
    /// what the filter makes of it. The first report has no in-stream
    /// predecessor to difference against and is skipped.
    pub fn mean_control_error(&self) -> Option<f64> {
        let mut n = 0usize;
        let mut total = 0.0;
        for pair in self.frames.windows(2) {
            if let Some(vo) = pair[1].vo {
                let truth_delta = pair[0].truth.delta_to(pair[1].truth);
                total += vo.delta.translation_distance(truth_delta);
                n += 1;
            }
        }
        if n == 0 {
            None
        } else {
            Some(total / n as f64)
        }
    }

    /// Total map point evaluations of the run.
    pub fn total_evaluations(&self) -> u64 {
        self.frames.iter().map(|f| f.evaluations).sum()
    }

    /// All per-slot stats merged into one total.
    pub fn merged_stats(&self) -> BackendStats {
        self.stats
            .iter()
            .fold(BackendStats::default(), |acc, s| acc.merged(s))
    }

    /// Number of frames on which the served slot differs from the
    /// previous frame's.
    pub fn switches(&self) -> usize {
        self.frames
            .windows(2)
            .filter(|w| w[0].slot != w[1].slot)
            .count()
    }

    /// Markdown summary: one row per slot with frame share, evaluations
    /// and map energy.
    pub fn summary_table(&self) -> Table {
        let mut table = Table::new(vec![
            "slot",
            "backend",
            "frames",
            "share",
            "point evals",
            "map energy (pJ)",
        ]);
        for (slot, name) in self.backends.iter().enumerate() {
            let frames = self.frames_on(slot);
            let evals: u64 = self
                .frames
                .iter()
                .filter(|f| f.slot == slot)
                .map(|f| f.evaluations)
                .sum();
            let energy: f64 = self
                .frames
                .iter()
                .filter(|f| f.slot == slot)
                .map(|f| f.map_energy_pj)
                .sum();
            table.row(vec![
                format!("{slot}"),
                name.clone(),
                format!("{frames}"),
                fmt_pct(self.slot_fraction(slot)),
                format!("{evals}"),
                format!("{energy:.1}"),
            ]);
        }
        table
    }

    /// The exact header row [`Self::to_csv`] emits — the frame-log
    /// schema contract downstream loaders (gate training, offline
    /// analysis) parse against, locked by a round-trip test.
    ///
    /// Schema v3: v2's 19 columns plus the robustness triple appended
    /// at the end (`nees`, `fault_active`, `safe_mode`), so v2 loaders
    /// reading by index keep working.
    const CSV_HEADER: [&'static str; 22] = [
        "frame",
        "slot",
        "backend",
        "gate",
        "control_source",
        "spread",
        "ess_fraction",
        "innovation",
        "bus_vo_variance",
        "noise_scale",
        "error_m",
        "post_spread",
        "post_ess",
        "evaluations",
        "map_energy_pj",
        "mc_iterations",
        "vo_variance",
        "vo_energy_pj",
        "total_energy_pj",
        "nees",
        "fault_active",
        "safe_mode",
    ];

    /// The run's frame log as CSV — one row per [`FrameReport`] carrying
    /// every uncertainty-bus column next to the decision and energy
    /// columns. This is the training-data path for learned gates: each
    /// row pairs what the gate *saw* (`spread`, `ess_fraction`,
    /// `innovation`, `bus_vo_variance`) with what it *did* (`slot`,
    /// `control_source`, `noise_scale`, `mc_iterations`) and what it
    /// *cost* (error and pJ columns).
    ///
    /// Finite floats render with Rust's shortest round-trip formatting,
    /// so the log is lossless; non-finite values (`NaN`, `±inf` — e.g.
    /// an all-blind frame's `-inf` mean log-likelihood) and absent
    /// optional columns both render as *empty cells*, never as `NaN`/
    /// `inf` tokens that would break numeric loaders.
    pub fn to_csv(&self) -> Csv {
        // Empty-cell sanitation for every float column: one rule for
        // "absent" and "not a number", so loaders see a single
        // missing-value convention.
        let fin = |x: f64| {
            if x.is_finite() {
                format!("{x}")
            } else {
                String::new()
            }
        };
        let opt = |v: Option<f64>| v.map(fin).unwrap_or_default();
        let mut csv = Csv::new(Self::CSV_HEADER.to_vec());
        for f in &self.frames {
            csv.row(vec![
                format!("{}", f.frame),
                format!("{}", f.slot),
                self.backends
                    .get(f.slot)
                    .cloned()
                    .unwrap_or_else(|| format!("slot{}", f.slot)),
                self.gate.clone(),
                f.control_source.label().into(),
                fin(f.signals.spread),
                fin(f.signals.ess_fraction),
                opt(f.signals.innovation),
                opt(f.signals.vo_variance),
                fin(f.noise_scale),
                fin(f.summary.error),
                fin(f.summary.spread),
                fin(f.summary.ess),
                format!("{}", f.evaluations),
                fin(f.map_energy_pj),
                f.vo.map(|v| format!("{}", v.iterations))
                    .unwrap_or_default(),
                opt(f.vo.map(|v| v.variance)),
                opt(f.vo.map(|v| v.energy_pj)),
                fin(f.total_energy_pj()),
                fin(f.nees),
                // Booleans as 0/1 so numeric loaders ingest the whole
                // row without a string column.
                format!("{}", u8::from(f.fault_active)),
                format!("{}", u8::from(f.safe_mode)),
            ]);
        }
        csv
    }
}

/// The Section III MC-Dropout VO head riding along the localization
/// stream — the pipeline's *second* gated compute axis.
///
/// Per frame it extracts grid features from the previous/current depth
/// pair (the same representation the VO regressor trains on), asks its
/// [`AdaptiveMcPolicy`] for this frame's MC-Dropout depth — driven by
/// the *previous* frame's predictive variance, the paper Section III
/// knob — runs the quantized MC prediction on the modeled SRAM macro and
/// prices the executed passes. Its fresh variance feeds the next frame's
/// [`UncertaintySignals::vo_variance`].
///
/// The stage is a pure observer of the localization side: it has its own
/// RNG/mask source and never touches the particle filter, so attaching
/// it leaves the map-side stream (gate decisions, estimates, errors,
/// map energy) bit-identical.
#[derive(Clone)]
pub struct VoStage {
    vo: BayesianVo,
    policy: AdaptiveMcPolicy,
    grid_width: usize,
    grid_height: usize,
    prev_grid: Vec<f64>,
    curr_grid: Vec<f64>,
    features: Vec<f64>,
    pred: McPrediction,
    last_variance: Option<f64>,
    last_delta: Option<Pose>,
    prev_stats: MacroStats,
    prev_silicon_bits: u64,
}

impl fmt::Debug for VoStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("VoStage")
            .field("policy", &self.policy.name())
            .field("grid", &(self.grid_width, self.grid_height))
            .field("last_variance", &self.last_variance)
            .finish_non_exhaustive()
    }
}

impl VoStage {
    /// Builds the stage around a quantized VO engine and a depth policy.
    /// `first_frame` seeds the previous-frame grid (the VO features need
    /// a frame pair), and the feature layout must match the engine:
    /// `3 · grid_width · grid_height` inputs (prev grid, current grid,
    /// difference — see `navicim_scene::dataset::make_samples`).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidArgument`] for zero grid dimensions or
    /// a feature/input dimension mismatch.
    pub fn new(
        vo: BayesianVo,
        policy: AdaptiveMcPolicy,
        camera: &DepthCamera,
        first_frame: &DepthImage,
        grid_width: usize,
        grid_height: usize,
    ) -> Result<Self> {
        if grid_width == 0 || grid_height == 0 {
            return Err(CoreError::InvalidArgument(
                "vo stage grid dimensions must be positive".into(),
            ));
        }
        let feature_dim = 3 * grid_width * grid_height;
        if vo.qnet().in_dim() != feature_dim {
            return Err(CoreError::InvalidArgument(format!(
                "vo stage features are {feature_dim}-dimensional (3 x {grid_width} x \
                 {grid_height}) but the network expects {} inputs",
                vo.qnet().in_dim()
            )));
        }
        if vo.qnet().out_dim() != 6 {
            return Err(CoreError::InvalidArgument(format!(
                "vo stage regressors predict a 6-DoF delta but the network has {} outputs",
                vo.qnet().out_dim()
            )));
        }
        let mut prev_grid = Vec::new();
        first_frame.grid_means_into(grid_width, grid_height, &mut prev_grid);
        for g in &mut prev_grid {
            *g /= camera.max_range;
        }
        let prev_stats = vo.macro_stats();
        let prev_silicon_bits = vo.silicon_bits().unwrap_or(0);
        Ok(Self {
            vo,
            policy,
            grid_width,
            grid_height,
            prev_grid,
            curr_grid: Vec::new(),
            features: Vec::new(),
            pred: McPrediction::default(),
            last_variance: None,
            last_delta: None,
            prev_stats,
            prev_silicon_bits,
        })
    }

    /// The most recent prediction's total variance (`None` before the
    /// first frame) — the value the bus reports as `vo_variance`.
    fn last_variance(&self) -> Option<f64> {
        self.last_variance
    }

    /// The depth policy (current thresholds, change count).
    pub fn policy(&self) -> &AdaptiveMcPolicy {
        &self.policy
    }

    /// The underlying VO engine (macro stats, configuration).
    pub fn vo(&self) -> &BayesianVo {
        &self.vo
    }

    /// One per-frame VO step: features from the stored previous grid and
    /// `depth`, depth-policy decision, MC prediction, energy pricing.
    fn step(
        &mut self,
        depth: &DepthImage,
        camera: &DepthCamera,
        pricing: &EnergyPricing,
    ) -> Result<VoFrameReport> {
        depth.grid_means_into(self.grid_width, self.grid_height, &mut self.curr_grid);
        for g in &mut self.curr_grid {
            *g /= camera.max_range;
        }
        self.features.clear();
        self.features.extend_from_slice(&self.prev_grid);
        self.features.extend_from_slice(&self.curr_grid);
        for (c, p) in self.curr_grid.iter().zip(&self.prev_grid) {
            // lint: allow(hot-path-alloc) amortized push into a buffer cleared each frame; capacity is retained
            self.features.push(c - p);
        }
        let iterations = self.policy.next_iterations(self.last_variance);
        self.vo
            .predict_n_into(&self.features, iterations, &mut self.pred);
        // Prefer the pre-quantization logit variance: at 4-bit output
        // precision the quantized samples of different dropout masks
        // frequently round onto identical codes, collapsing
        // `total_variance()` to numerical dust and starving the noise
        // inflation and gating consumers of any signal.
        let variance = self
            .pred
            .total_logit_variance()
            .unwrap_or_else(|| self.pred.total_variance());
        let delta = crate::vo::delta_pose_from_mean(&self.pred.mean);
        self.last_variance = Some(variance);
        self.last_delta = Some(delta);
        std::mem::swap(&mut self.prev_grid, &mut self.curr_grid);
        let stats = self.vo.macro_stats();
        let stats_delta = stats.delta_since(&self.prev_stats);
        self.prev_stats = stats;
        let bits = self.vo.silicon_bits().unwrap_or(0);
        let rng_bits = bits.saturating_sub(self.prev_silicon_bits);
        self.prev_silicon_bits = bits;
        let energy_pj = pricing.vo_frame_pj(
            &stats_delta,
            rng_bits,
            self.vo.config().weight_bits,
            self.vo.config().adc_bits,
        )?;
        Ok(VoFrameReport {
            iterations,
            variance,
            delta,
            energy_pj,
        })
    }
}

/// Everything [`LocalizationPipeline::begin_frame`] decided before the
/// likelihood evaluation, carried across that evaluation (the pipeline's
/// own in [`LocalizationPipeline::step`], or a serving layer's) to
/// [`LocalizationPipeline::finish_frame`]: the gated slot, the bus
/// snapshot, the resolved noise scale and the VO report.
#[derive(Debug, Clone)]
pub struct PendingFrame {
    slot: usize,
    signals: UncertaintySignals,
    noise_scale: f64,
    vo: Option<VoFrameReport>,
    fault_active: bool,
    safe_mode: bool,
}

impl PendingFrame {
    /// The backend slot serving this frame — the gate's selection, or
    /// [`DIGITAL_SLOT`] when safe mode overrode it. The slot whose
    /// backend must evaluate the staged batch.
    pub fn slot(&self) -> usize {
        self.slot
    }

    /// The uncertainty bus snapshot the gate saw.
    pub fn signals(&self) -> &UncertaintySignals {
        &self.signals
    }

    /// Whether the safe-mode response governs this frame.
    pub fn safe_mode(&self) -> bool {
        self.safe_mode
    }
}

/// The streaming localization pipeline: multiple live backends, a gate
/// policy arbitrating them per frame, and per-frame energy accounting.
pub struct LocalizationPipeline {
    backends: Vec<Box<dyn MapBackend>>,
    names: Vec<String>,
    gate: Gate,
    camera: DepthCamera,
    pf: ParticleFilter<Pose>,
    config: LocalizerConfig,
    pricing: EnergyPricing,
    rng: Pcg32,
    scratch: ScanScratch,
    prev_stats: Vec<BackendStats>,
    /// One likelihood-trend tracker per backend slot (digital and analog
    /// log-likelihoods live on different scales, so each slot's frames
    /// score against that slot's own history), the frame each slot last
    /// served (for staleness aging), and the slot whose tracker produced
    /// the most recent reading.
    innovation: Vec<InnovationTracker>,
    innovation_last_frame: Vec<Option<usize>>,
    last_served: Option<usize>,
    vo: Option<VoStage>,
    control: ControlSource,
    inflation: NoiseInflation,
    /// Fault-detection + safe-mode response state (`None` = feature off,
    /// bit-identical to every pre-safe-mode run).
    safe: Option<SafeModeState>,
    /// First frame's pose — kept so forked sessions can re-draw their
    /// own particle clouds around the same prior.
    init_prior: Pose,
    frame: usize,
}

impl fmt::Debug for LocalizationPipeline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LocalizationPipeline")
            .field("backends", &self.names)
            .field("gate", &self.gate.name(self.backends.len()))
            .field("particles", &self.pf.particles().len())
            .field("frame", &self.frame)
            .finish_non_exhaustive()
    }
}

impl LocalizationPipeline {
    /// Builds the pipeline against the default registry.
    ///
    /// # Errors
    ///
    /// See [`Self::build_with_registry`].
    pub fn build(dataset: &LocalizationDataset, config: LocalizerConfig) -> Result<Self> {
        Self::build_with_registry(dataset, config, &BackendRegistry::with_defaults())
    }

    /// Builds every backend slot named by `config.gate` (or the single
    /// `config.backend` when the gate section is empty) from `registry`,
    /// constructs the gate policy, and initializes the particle cloud
    /// around the first frame's pose.
    ///
    /// The particle-init RNG stream is independent of how many backends
    /// are built, so the backend choice never perturbs the particle
    /// stream.
    ///
    /// # Errors
    ///
    /// Rejects empty datasets, a zero `pixel_stride`, unknown backend
    /// names and inconsistent gate configurations; propagates
    /// fit/compile errors.
    pub fn build_with_registry(
        dataset: &LocalizationDataset,
        config: LocalizerConfig,
        registry: &BackendRegistry,
    ) -> Result<Self> {
        let slot_names: Vec<String> = config
            .gate
            .slot_names(&config.backend)
            .into_iter()
            .map(str::to_string)
            .collect();
        let gate = config.gate.build_gate(slot_names.len())?;
        if dataset.frames.is_empty() {
            return Err(CoreError::InvalidArgument("dataset has no frames".into()));
        }
        if config.pixel_stride == 0 {
            return Err(CoreError::InvalidArgument(
                "pixel_stride must be at least 1".into(),
            ));
        }
        let mut rng = Pcg32::seed_from_u64(config.seed);
        let points = dataset.map_points_as_rows();
        // One diagonal fit serves every slot that needs it (see
        // `MapFitContext::diag_gmm`).
        let diag_fit = OnceCell::new();
        let ctx = MapFitContext {
            points: &points,
            components: config.components,
            fit: &config.fit,
            cim: &config.cim,
            prune: config.prune,
            // Factories seed their own fit RNGs from the master seed; the
            // filter RNG below advances independently, so neither backend
            // choice nor slot count perturbs the particle stream.
            seed: config.seed,
            diag_fit: &diag_fit,
        };
        let mut backends = Vec::with_capacity(slot_names.len());
        for name in &slot_names {
            backends.push(registry.build(name, &ctx)?);
        }
        let names: Vec<String> = backends.iter().map(|b| b.name().to_string()).collect();

        let prior = dataset.frames[0].pose;
        let states: Vec<Pose> = (0..config.num_particles)
            .map(|_| {
                crate::localization::perturb_pose(
                    prior,
                    config.init_spread,
                    config.init_yaw_spread,
                    &mut rng,
                )
            })
            .collect();
        let pf = ParticleFilter::new(
            navicim_filter::particle::ParticleSet::from_states(states)
                .map_err(|e| CoreError::InvalidArgument(e.to_string()))?,
            config.filter,
        );
        let prev_stats = backends.iter().map(|b| b.stats()).collect();
        Ok(Self {
            backends,
            names,
            gate,
            camera: dataset.camera,
            pf,
            config,
            pricing: EnergyPricing::default(),
            rng,
            scratch: ScanScratch::default(),
            innovation: vec![InnovationTracker::default(); slot_names.len()],
            innovation_last_frame: vec![None; slot_names.len()],
            prev_stats,
            last_served: None,
            vo: None,
            control: ControlSource::GroundTruth,
            inflation: NoiseInflation::default(),
            safe: None,
            init_prior: prior,
            frame: 0,
        })
    }

    /// Attaches a [`VoStage`] (builder style): per-frame MC-Dropout VO
    /// with compute-adaptive depth, priced into the frame reports. The
    /// stage is a pure observer — the map-side stream is bit-identical
    /// with or without it.
    pub fn with_vo(mut self, stage: VoStage) -> Self {
        self.vo = Some(stage);
        self
    }

    /// The attached VO stage, if any.
    pub fn vo_stage(&self) -> Option<&VoStage> {
        self.vo.as_ref()
    }

    /// Selects what drives the motion model (builder style). The default
    /// is [`ControlSource::GroundTruth`] — bit-identical to every run
    /// before the loop was closed. [`ControlSource::VisualOdometry`]
    /// requires a [`VoStage`] ([`Self::with_vo`]); the mismatch is
    /// reported by the first [`Self::step`], not here, so builder order
    /// does not matter.
    pub fn with_control(mut self, source: ControlSource) -> Self {
        self.control = source;
        self
    }

    /// Replaces the closed-loop noise-inflation bounds (builder style),
    /// validating them first.
    ///
    /// # Errors
    ///
    /// Propagates [`NoiseInflation::new`] validation.
    pub fn with_noise_inflation(mut self, inflation: NoiseInflation) -> Result<Self> {
        inflation.validate()?;
        self.inflation = inflation;
        Ok(self)
    }

    /// Arms innovation-based fault detection with a safe-mode response
    /// (builder style): a [`FaultDetector`] CUSUM over the serving
    /// slot's likelihood-innovation stream which, once alarmed, forces
    /// the [`DIGITAL_SLOT`] override and clamps the motion-noise scale
    /// to the [`NoiseInflation`] ceiling until dwell-gated recovery.
    /// Off by default — an unarmed pipeline is bit-identical to every
    /// run before this feature existed.
    ///
    /// # Errors
    ///
    /// Propagates [`SafeModeConfig::validate`] and
    /// [`FaultDetector::new`] validation.
    pub fn with_safe_mode(mut self, config: SafeModeConfig) -> Result<Self> {
        self.safe = Some(SafeModeState::new(config)?);
        Ok(self)
    }

    /// The armed safe-mode tuning (`None` when fault detection is off).
    pub fn safe_mode_config(&self) -> Option<&SafeModeConfig> {
        self.safe.as_ref().map(|s| &s.config)
    }

    /// The configured control source.
    pub fn control_source(&self) -> ControlSource {
        self.control
    }

    /// Backend names, by slot.
    pub fn backend_names(&self) -> &[String] {
        &self.names
    }

    /// The backend serving `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn backend(&self, slot: usize) -> &dyn MapBackend {
        self.backends[slot].as_ref()
    }

    /// Number of backend slots.
    pub fn num_backends(&self) -> usize {
        self.backends.len()
    }

    /// Current pose estimate (weighted mean of the cloud).
    pub fn estimate(&self) -> Pose {
        mean_pose(self.pf.particles())
    }

    /// Current particle spread — the signal the gate will see next frame.
    pub fn spread(&self) -> f64 {
        self.pf.spread(|p| p.translation.to_array())
    }

    /// The uncertainty bus as it stands right now — the signals the gate
    /// will see on the next [`Self::step`] call.
    pub fn signals(&self) -> UncertaintySignals {
        UncertaintySignals {
            spread: self.pf.spread(|p| p.translation.to_array()),
            ess_fraction: self
                .pf
                .last_pre_resample_ess_fraction()
                .unwrap_or_else(|| self.pf.ess_fraction()),
            innovation: self
                .last_served
                .and_then(|slot| self.innovation[slot].last_innovation()),
            vo_variance: self.vo.as_ref().and_then(VoStage::last_variance),
        }
    }

    /// Streams one frame: samples the uncertainty bus, lets the gate
    /// pick a slot, steps the VO stage (when attached) at its
    /// policy-selected MC depth, resolves the motion-model control from
    /// the configured [`ControlSource`] — the caller's ground-truth
    /// delta, or the fresh VO predictive mean with its variance
    /// inflating the motion noise — then runs the
    /// predict/weigh/resample step on the gated backend and prices both
    /// compute axes.
    ///
    /// This is exactly [`Self::begin_frame`], the serving slot's
    /// `log_likelihood_into` on [`Self::staged_batch`], and
    /// [`Self::finish_frame`]: the one frame path, whether the pipeline
    /// evaluates its own batch or a serving layer does.
    ///
    /// In closed-loop mode the `control` argument is ignored (the
    /// pipeline navigates on its own estimate); callers without ground
    /// truth odometry may pass [`Pose::IDENTITY`].
    ///
    /// # Errors
    ///
    /// Propagates filter degeneracy and pricing errors; rejects
    /// closed-loop mode without an attached [`VoStage`].
    pub fn step(&mut self, control: &Pose, depth: &DepthImage, truth: Pose) -> Result<FrameReport> {
        let pending = self.begin_frame(control, depth)?;
        let mut lls = std::mem::take(&mut self.scratch.lls);
        lls.resize(self.scratch.batch.len(), 0.0);
        self.backends[pending.slot].log_likelihood_into(&self.scratch.batch, &mut lls);
        let report = self.weigh_and_report(pending, &lls, truth);
        self.scratch.lls = lls;
        report
    }

    /// Phase A of a frame, for [`Self::step`] and for callers that time
    /// or inspect the stages: samples the bus, gates, steps the VO
    /// stage, resolves the control, runs the motion prediction and
    /// stages the frame-wide scan batch for the predicted cloud into the
    /// pipeline's scratch, *without* evaluating it. The caller evaluates
    /// [`Self::staged_batch`] against the pending slot's backend (through
    /// [`Self::backend_mut`]) and completes the frame with
    /// [`Self::finish_frame`].
    ///
    /// Staging is [`crate::localization::stage_scan_batch`]: the frame's
    /// valid strided pixels are backprojected once, then rotated and
    /// translated per particle. The staged batch equals every particle's
    /// `DepthCamera::project_to_world` bit for bit (property-tested).
    ///
    /// # Errors
    ///
    /// Rejects closed-loop mode without an attached [`VoStage`];
    /// propagates VO errors.
    pub fn begin_frame(&mut self, control: &Pose, depth: &DepthImage) -> Result<PendingFrame> {
        let signals = self.signals();
        // Fault detection runs on the same bus snapshot the gate sees:
        // the serving slot's innovation reading from the previous frame.
        // The state machine advances *before* gating so an alarm takes
        // effect on this very frame, not one frame late.
        let (fault_active, safe_mode) = match self.safe.as_mut() {
            Some(safe) => safe.update(signals.innovation),
            None => (false, false),
        };
        let ctx = GateContext {
            frame: self.frame,
            signals,
        };
        // The gate still selects (and advances its own dwell/schedule
        // state) every frame; safe mode overrides the *outcome*, so on
        // recovery the policy resumes from a coherent state instead of
        // a frozen one. `GateConfig` validated every selectable slot
        // against the live backends at build.
        let mut slot = match &mut self.gate {
            Gate::Always(slot) => *slot,
            Gate::Hysteresis(gate) => gate.select(&ctx),
            Gate::MultiSignal(gate) => gate.select(&ctx),
            Gate::Periodic(gate) => gate.select(&ctx),
        };
        if safe_mode {
            // Force-digital: the accurate substrate re-acquires the
            // track while the fault (or its aftermath) persists.
            slot = DIGITAL_SLOT;
        }
        // The VO stage steps *before* the filter so a closed loop can
        // feed the fresh frame-pair prediction into this frame's motion
        // model. The stage owns its RNG and never touches the filter,
        // so in ground-truth mode the reordering leaves the map-side
        // stream bit-identical (property-tested).
        let vo = match self.vo.as_mut() {
            Some(stage) => Some(stage.step(depth, &self.camera, &self.pricing)?),
            None => None,
        };
        let (control, mut noise_scale) = match self.control {
            ControlSource::GroundTruth => (*control, 1.0),
            ControlSource::VisualOdometry => {
                let vo = vo.as_ref().ok_or_else(|| {
                    CoreError::InvalidArgument(
                        "closed-loop control requires an attached VO stage \
                         (LocalizationPipeline::with_vo)"
                            .into(),
                    )
                })?;
                (vo.delta, self.inflation.scale(Some(vo.variance)))
            }
        };
        if safe_mode {
            // Maximum-distrust clamp, routed through the validated
            // NoiseInflation (scale(None) *is* the ceiling): the widened
            // proposal lets the cloud re-acquire a teleported truth.
            noise_scale = self.inflation.scale(None);
        }
        self.pf
            .predict_scaled(&control, &self.config.motion, noise_scale, &mut self.rng);
        crate::localization::stage_scan_batch(
            &self.camera,
            depth,
            self.config.pixel_stride,
            self.pf.particles().states(),
            &mut self.scratch,
        );
        Ok(PendingFrame {
            slot,
            signals,
            noise_scale,
            vo,
            fault_active,
            safe_mode,
        })
    }

    /// The scan batch staged by the last [`Self::begin_frame`]: one
    /// projected world-frame point cloud per particle, concatenated in
    /// particle order.
    pub fn staged_batch(&self) -> &PointBatch {
        &self.scratch.batch
    }

    /// Phase B of a frame: takes the per-point log-likelihoods of the
    /// staged batch (aligned with [`Self::staged_batch`], as produced by
    /// the pending slot's backend), reduces them to per-particle weights,
    /// runs the filter's reweigh/resample half and emits the frame
    /// report.
    ///
    /// The caller is responsible for having evaluated the staged batch
    /// on the serving backend first, so the report's stats delta and
    /// energy pricing see the frame's evaluations.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidArgument`] — before any state changes —
    /// if `lls` is not aligned with the staged batch, and propagates
    /// filter degeneracy and pricing errors.
    pub fn finish_frame(
        &mut self,
        pending: PendingFrame,
        lls: &[f64],
        truth: Pose,
    ) -> Result<FrameReport> {
        if lls.len() != self.scratch.batch.len() {
            return Err(CoreError::InvalidArgument(format!(
                "finish_frame got {} per-point log-likelihoods for a staged batch of {} points",
                lls.len(),
                self.scratch.batch.len()
            )));
        }
        self.weigh_and_report(pending, lls, truth)
    }

    /// The body of [`Self::finish_frame`] after its length check, shared
    /// with [`Self::step`]: reduce `lls` to per-particle weights, absorb
    /// them into the filter, then the summary, innovation bookkeeping,
    /// stats deltas, stream counters and energy pricing.
    fn weigh_and_report(
        &mut self,
        pending: PendingFrame,
        lls: &[f64],
        truth: Pose,
    ) -> Result<FrameReport> {
        self.scratch
            .particle_lls
            .resize(self.pf.particles().len(), 0.0);
        let mut particle_lls = std::mem::take(&mut self.scratch.particle_lls);
        crate::localization::reduce_scan_lls(
            self.config.sharpness,
            &self.scratch.counts,
            lls,
            &mut particle_lls,
        );
        let absorbed = self.pf.absorb_log_likelihoods(&particle_lls, &mut self.rng);
        self.scratch.particle_lls = particle_lls;
        absorbed?;
        let PendingFrame {
            slot,
            signals,
            noise_scale,
            vo,
            fault_active,
            safe_mode,
        } = pending;
        let estimate = mean_pose(self.pf.particles());
        let summary = StepSummary {
            estimate,
            error: estimate.translation_distance(truth),
            spread: position_spread(self.pf.particles()),
            ess: self.pf.particles().ess(),
        };
        let nees = position_nees(self.pf.particles(), truth);
        // Fold this frame's mean log-likelihood into the serving slot's
        // innovation EWMA so the *next* frame's bus carries the delta
        // against that backend's own trend. A trend frozen while the
        // other slot served is only meaningful for a few frames — after
        // a long absence the scene has moved on and the first frame
        // back would score against ancient history — so a stale tracker
        // is reset to warm-up instead of emitting a phantom reading.
        if let Some(mean_ll) = self.pf.last_mean_log_likelihood() {
            let stale = self.innovation_last_frame[slot]
                .is_some_and(|last| self.frame - last > INNOVATION_STALE_AFTER);
            if stale {
                self.innovation[slot].reset();
            }
            self.innovation[slot].observe(mean_ll);
            self.innovation_last_frame[slot] = Some(self.frame);
        }
        self.last_served = Some(slot);
        let stats = self.backends[slot].stats();
        let delta = stats.delta_since(&self.prev_stats[slot]);
        self.prev_stats[slot] = stats;
        // The filter and the gate have both committed to this frame, so
        // advance the stream counters before anything else can fail —
        // a pricing error below must not leave `frame` out of sync with
        // the gate's internal state.
        let frame = self.frame;
        self.frame += 1;
        let map_energy_pj = self.pricing.frame_pj(
            &delta,
            self.backends[slot].components(),
            self.backends[slot].dim(),
            self.config.cim.dac_bits,
            self.config.cim.adc_bits,
        )?;
        Ok(FrameReport {
            frame,
            slot,
            signals,
            control_source: self.control,
            noise_scale,
            summary,
            nees,
            fault_active,
            safe_mode,
            truth,
            evaluations: delta.evaluations,
            map_energy_pj,
            vo,
        })
    }

    /// Mutable access to the backend serving `slot` — the hook a caller
    /// of [`Self::begin_frame`] evaluates the staged batch through.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn backend_mut(&mut self, slot: usize) -> &mut dyn MapBackend {
        self.backends[slot].as_mut()
    }

    /// Spawns an independent session off this pipeline: same map
    /// backends (sharing the read-only fitted models / CIM fabric via
    /// [`MapBackend::fork_session`]), same configuration, a fresh gate
    /// in its initial state, and a fresh particle cloud drawn around the
    /// dataset's first pose from `session_seed`.
    ///
    /// `fork_session(config.seed)` on a pristine pipeline is
    /// bit-identical to building a fresh pipeline from the same dataset
    /// and config — the fleet serving determinism anchor. Distinct seeds
    /// give statistically independent agents over the same map.
    ///
    /// # Errors
    ///
    /// Rejects pipelines that have already stepped (session state such
    /// as VO frame pairs and innovation trends is not rewound) and
    /// backends without [`MapBackend::fork_session`] support.
    pub fn fork_session(&self, session_seed: u64) -> Result<Self> {
        if self.frame != 0 {
            return Err(CoreError::InvalidArgument(format!(
                "fork_session requires a pristine pipeline, but {} frame(s) have been stepped",
                self.frame
            )));
        }
        // The gate is rebuilt from its config, never cloned: a prototype
        // whose first frame failed after gating has already advanced it.
        let gate = self.config.gate.build_gate(self.backends.len())?;
        let mut backends = Vec::with_capacity(self.backends.len());
        for (backend, name) in self.backends.iter().zip(&self.names) {
            backends.push(backend.fork_session().ok_or_else(|| {
                CoreError::InvalidArgument(format!(
                    "backend '{name}' does not support session forking"
                ))
            })?);
        }
        let mut rng = Pcg32::seed_from_u64(session_seed);
        let states: Vec<Pose> = (0..self.config.num_particles)
            .map(|_| {
                crate::localization::perturb_pose(
                    self.init_prior,
                    self.config.init_spread,
                    self.config.init_yaw_spread,
                    &mut rng,
                )
            })
            .collect();
        let pf = ParticleFilter::new(
            navicim_filter::particle::ParticleSet::from_states(states)
                .map_err(|e| CoreError::InvalidArgument(e.to_string()))?,
            self.config.filter,
        );
        let prev_stats = backends.iter().map(|b| b.stats()).collect();
        // A forked session re-arms its own detector from the validated
        // config — fault state is per-session, never inherited.
        let safe = match &self.safe {
            Some(s) => Some(SafeModeState::new(s.config)?),
            None => None,
        };
        Ok(Self {
            backends,
            names: self.names.clone(),
            gate,
            camera: self.camera,
            pf,
            config: self.config.clone(),
            pricing: self.pricing.clone(),
            rng,
            scratch: ScanScratch::default(),
            innovation: vec![InnovationTracker::default(); self.names.len()],
            innovation_last_frame: vec![None; self.names.len()],
            prev_stats,
            last_served: None,
            vo: self.vo.clone(),
            control: self.control,
            inflation: self.inflation,
            safe,
            init_prior: self.init_prior,
            frame: 0,
        })
    }

    /// Streams the whole dataset. In ground-truth mode the dataset's
    /// [`LocalizationDataset::control_deltas`] drive the motion model
    /// (with its configured noise); in closed-loop mode those deltas are
    /// only the per-frame *reference* — the filter navigates on the VO
    /// stage's own predictions.
    ///
    /// # Errors
    ///
    /// Propagates step errors.
    pub fn run(&mut self, dataset: &LocalizationDataset) -> Result<PipelineRun> {
        let controls = dataset.control_deltas();
        let mut frames = Vec::with_capacity(controls.len());
        for (t, control) in controls.iter().enumerate() {
            let truth = dataset.frames[t + 1].pose;
            frames.push(self.step(control, &dataset.frames[t + 1].depth, truth)?);
        }
        Ok(PipelineRun {
            backends: self.names.clone(),
            gate: self.gate.name(self.backends.len()),
            vo_policy: self.vo.as_ref().map(|s| s.policy.name()),
            frames,
            stats: self.backends.iter().map(|b| b.stats()).collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether the safe-mode response is currently governing frames.
    fn safe_mode_active(p: &LocalizationPipeline) -> bool {
        p.safe.as_ref().is_some_and(|s| s.active)
    }

    /// Number of distinct safe-mode entries so far this session.
    fn safe_mode_entries(p: &LocalizationPipeline) -> u64 {
        p.safe.as_ref().map_or(0, |s| s.entries)
    }
    use crate::registry::{CIM_HMGM, DIGITAL_GMM};
    use navicim_scene::dataset::LocalizationConfig;

    fn small_dataset() -> LocalizationDataset {
        let config = LocalizationConfig {
            image_width: 24,
            image_height: 18,
            map_points: 600,
            frames: 10,
            ..LocalizationConfig::default()
        };
        LocalizationDataset::generate(&config, 7).unwrap()
    }

    fn small_config(gate: GateConfig) -> LocalizerConfig {
        LocalizerConfig {
            num_particles: 250,
            pixel_stride: 7,
            components: 10,
            gate,
            seed: 3,
            ..LocalizerConfig::default()
        }
    }

    fn ctx(frame: usize, spread: f64) -> GateContext {
        GateContext {
            frame,
            signals: UncertaintySignals::from_spread(spread),
        }
    }

    #[test]
    fn hysteresis_thresholds_and_dead_zone() {
        let mut gate = HysteresisGate::new(HysteresisConfig {
            analog_enter: 0.1,
            digital_enter: 0.2,
            dwell: 1,
            start: DIGITAL_SLOT,
        })
        .unwrap();
        // Frame 0: start slot regardless of signal.
        assert_eq!(gate.select(&ctx(0, 0.01)), DIGITAL_SLOT);
        // Collapsed spread: go analog.
        assert_eq!(gate.select(&ctx(1, 0.05)), ANALOG_SLOT);
        // Dead zone: keep the current slot.
        assert_eq!(gate.select(&ctx(2, 0.15)), ANALOG_SLOT);
        // Spread grows past the digital threshold: wake the digital path.
        assert_eq!(gate.select(&ctx(3, 0.25)), DIGITAL_SLOT);
        // Dead zone again: stay digital.
        assert_eq!(gate.select(&ctx(4, 0.15)), DIGITAL_SLOT);
        assert_eq!(gate.switches(), 2);
    }

    #[test]
    fn hysteresis_dwell_blocks_rapid_switching() {
        let mut gate = HysteresisGate::new(HysteresisConfig {
            analog_enter: 0.1,
            digital_enter: 0.2,
            dwell: 3,
            start: DIGITAL_SLOT,
        })
        .unwrap();
        // An oscillating signal that would thrash a dwell-free gate.
        let spreads = [0.05, 0.3, 0.05, 0.3, 0.05, 0.3, 0.05, 0.3, 0.05];
        let mut current = DIGITAL_SLOT;
        let mut last_switch: Option<usize> = None;
        for (frame, &s) in spreads.iter().enumerate() {
            let next = gate.select(&ctx(frame, s));
            if next != current {
                if let Some(prev) = last_switch {
                    assert!(
                        frame - prev >= 3,
                        "switched at {prev} and again at {frame} (dwell 3)"
                    );
                }
                last_switch = Some(frame);
            }
            current = next;
        }
        assert!(gate.switches() >= 1, "the gate did switch at least once");
    }

    #[test]
    fn hysteresis_validation() {
        let bad = |analog_enter, digital_enter, dwell| {
            HysteresisGate::new(HysteresisConfig {
                analog_enter,
                digital_enter,
                dwell,
                start: DIGITAL_SLOT,
            })
            .is_err()
        };
        assert!(bad(0.0, 0.2, 3)); // non-positive enter
        assert!(bad(0.2, 0.1, 3)); // inverted band
        assert!(bad(0.1, f64::INFINITY, 3)); // non-finite
        assert!(bad(0.1, 0.2, 0)); // zero dwell
        assert!(HysteresisGate::new(HysteresisConfig::default()).is_ok());
    }

    #[test]
    fn gate_config_validation() {
        // Pinned slot out of range.
        assert!(GateConfig::always(vec![DIGITAL_GMM], 1)
            .build_gate(1)
            .is_err());
        // Hysteresis needs two slots.
        let gated = GateConfig {
            backends: vec![DIGITAL_GMM.into()],
            policy: GateKind::Hysteresis(HysteresisConfig::default()),
        };
        assert!(gated.build_gate(1).is_err());
        assert!(GateConfig::gated(DIGITAL_GMM, CIM_HMGM)
            .build_gate(2)
            .is_ok());
        // The default single-backend config resolves to the fallback name.
        assert_eq!(GateConfig::default().slot_names("x"), vec!["x"]);
    }

    #[test]
    fn single_backend_run_carries_the_localization_record() {
        // The default config serves one backend on every frame, and its
        // run is the one run record: names, per-frame summaries and
        // stats that agree with the per-frame evaluation counts.
        let ds = small_dataset();
        let run = LocalizationPipeline::build(&ds, small_config(GateConfig::default()))
            .unwrap()
            .run(&ds)
            .unwrap();
        assert_eq!(run.backends, [DIGITAL_GMM]);
        assert_eq!(run.gate, "always-slot0");
        assert_eq!(run.frames.len(), ds.frames.len() - 1);
        assert!(run.frames.iter().all(|f| f.slot == 0));
        for (f, frame) in run.frames.iter().zip(&ds.frames[1..]) {
            assert_eq!(f.truth, frame.pose);
            assert_eq!(
                f.summary.error,
                f.summary.estimate.translation_distance(f.truth)
            );
        }
        assert!(run.total_evaluations() > 0);
        assert_eq!(run.merged_stats(), run.stats[0]);
        assert_eq!(run.merged_stats().evaluations, run.total_evaluations());
    }

    fn report_with_error(frame: usize, error: f64) -> FrameReport {
        FrameReport {
            frame,
            slot: 0,
            signals: UncertaintySignals::from_spread(0.0),
            control_source: ControlSource::GroundTruth,
            noise_scale: 1.0,
            summary: StepSummary {
                estimate: Pose::IDENTITY,
                error,
                spread: 0.0,
                ess: 1.0,
            },
            nees: 0.0,
            fault_active: false,
            safe_mode: false,
            truth: Pose::IDENTITY,
            evaluations: 0,
            map_energy_pj: 0.0,
            vo: None,
        }
    }

    #[test]
    fn steady_state_error_averages_the_final_quarter() {
        // The tail window is the last quarter of the frames, at least
        // one: frame `i` carries error `i + 1` below.
        let run = |n: usize| PipelineRun {
            backends: vec![DIGITAL_GMM.into()],
            gate: "always-slot0".into(),
            vo_policy: None,
            frames: (0..n)
                .map(|i| report_with_error(i, (i + 1) as f64))
                .collect(),
            stats: vec![BackendStats::default()],
        };
        assert_eq!(run(0).steady_state_error(), 0.0);
        for n in 1..=3 {
            assert_eq!(run(n).steady_state_error(), n as f64, "{n} frames");
        }
        assert_eq!(run(8).steady_state_error(), 7.5);
    }

    #[test]
    fn gated_pipeline_uses_both_backends_and_prices_energy() {
        let ds = small_dataset();
        let config = small_config(GateConfig::gated(DIGITAL_GMM, CIM_HMGM).with_hysteresis(
            HysteresisConfig {
                analog_enter: 0.12,
                digital_enter: 0.2,
                dwell: 2,
                start: DIGITAL_SLOT,
            },
        ));
        let mut pipeline = LocalizationPipeline::build(&ds, config).unwrap();
        assert_eq!(pipeline.num_backends(), 2);
        assert_eq!(pipeline.gate.name(2), "hysteresis");
        let run = pipeline.run(&ds).unwrap();
        assert_eq!(run.frames.len(), 9);
        // The cloud starts wide (digital) and collapses (analog).
        assert_eq!(run.frames[0].slot, DIGITAL_SLOT);
        assert!(run.frames_on(ANALOG_SLOT) > 0, "{:?}", run.frames);
        assert!(run.analog_fraction() > 0.0);
        // Every frame carries evaluations, positive energy and a fully
        // populated uncertainty bus.
        for f in &run.frames {
            assert!(f.evaluations > 0, "frame {} had no evaluations", f.frame);
            assert!(f.map_energy_pj > 0.0);
            assert_eq!(f.total_energy_pj(), f.map_energy_pj, "no VO stage");
            assert!(f.signals.spread.is_finite());
            assert!(f.signals.ess_fraction > 0.0 && f.signals.ess_fraction <= 1.0);
            assert!(f.signals.innovation.is_none_or(|i| i.is_finite()));
            assert_eq!(f.signals.vo_variance, None);
            // Open-loop run: ground-truth control at unit noise scale.
            assert_eq!(f.control_source, ControlSource::GroundTruth);
            assert_eq!(f.noise_scale, 1.0);
        }
        // The innovation warm-up is explicit and *per slot*: a frame's
        // reading comes from the previous frame's serving slot and goes
        // live once that slot has weighed its second (finite) frame —
        // never a fake 0.0 before then, and a fresh warm-up after every
        // first visit to a new backend.
        assert_eq!(run.frames[0].signals.innovation, None);
        assert_eq!(run.frames[1].signals.innovation, None);
        let mut served = [0usize; 2];
        for (i, f) in run.frames.iter().enumerate() {
            if i > 0 {
                let prev_slot = run.frames[i - 1].slot;
                assert_eq!(
                    f.signals.innovation.is_some(),
                    served[prev_slot] >= 2,
                    "frame {i}: slot {prev_slot} had {} observations",
                    served[prev_slot]
                );
            }
            served[f.slot] += 1;
        }
        assert!(run.frames.iter().any(|f| f.signals.innovation.is_some()));
        assert_eq!(run.vo_policy, None);
        // Slot stats separate digital from analog counters.
        assert!(!run.stats[DIGITAL_SLOT].is_analog());
        assert!(run.stats[ANALOG_SLOT].is_analog());
        // The summary table renders one row per slot.
        let table = run.summary_table();
        assert_eq!(table.len(), 2);
        assert!(table.to_string().contains(CIM_HMGM));
    }

    #[test]
    fn gated_runs_are_deterministic() {
        let ds = small_dataset();
        let config = || small_config(GateConfig::gated(DIGITAL_GMM, CIM_HMGM));
        let run1 = LocalizationPipeline::build(&ds, config())
            .unwrap()
            .run(&ds)
            .unwrap();
        let run2 = LocalizationPipeline::build(&ds, config())
            .unwrap()
            .run(&ds)
            .unwrap();
        assert_eq!(run1, run2);
    }

    #[test]
    fn always_analog_baseline_runs_on_the_analog_slot() {
        let ds = small_dataset();
        let config = small_config(GateConfig {
            backends: vec![DIGITAL_GMM.into(), CIM_HMGM.into()],
            policy: GateKind::Always(ANALOG_SLOT),
        });
        let run = LocalizationPipeline::build(&ds, config)
            .unwrap()
            .run(&ds)
            .unwrap();
        assert_eq!(run.frames_on(ANALOG_SLOT), run.frames.len());
        assert!((run.analog_fraction() - 1.0).abs() < 1e-12);
        assert_eq!(run.switches(), 0);
        // The digital slot was built but never served.
        assert_eq!(run.stats[DIGITAL_SLOT].evaluations, 0);
    }

    #[test]
    fn dual_slot_backends_equal_single_slot_builds() {
        // A dual-slot pipeline fits its diagonal GMM once for both slots;
        // each slot must still equal the backend a pipeline serving only
        // that slot builds (the digital one pruned from its own clone).
        let ds = small_dataset();
        let config = LocalizerConfig {
            prune: navicim_gmm::prune::PruneConfig::enabled(),
            ..small_config(GateConfig::gated(DIGITAL_GMM, CIM_HMGM))
        };
        let dual = LocalizationPipeline::build(&ds, config.clone()).unwrap();
        let mut batch = PointBatch::new(3);
        for (i, p) in ds.map_points_as_rows().iter().enumerate().step_by(5) {
            let off = 0.01 * (i % 7) as f64;
            batch.push_xyz(p[0] + off, p[1] - off, p[2]);
        }
        for (slot, name) in [(DIGITAL_SLOT, DIGITAL_GMM), (ANALOG_SLOT, CIM_HMGM)] {
            let single_config = LocalizerConfig {
                backend: name.into(),
                gate: GateConfig::single(),
                ..config.clone()
            };
            let single = LocalizationPipeline::build(&ds, single_config).unwrap();
            let mut from_dual = dual.backend(slot).fork_session().unwrap();
            let mut alone = single.backend(0).fork_session().unwrap();
            assert_eq!(from_dual.name(), name);
            assert_eq!(alone.name(), name);
            assert_eq!(from_dual.components(), alone.components(), "{name}");
            let bits = |lls: Vec<f64>| lls.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(from_dual.log_likelihood_batch(&batch)),
                bits(alone.log_likelihood_batch(&batch)),
                "{name}"
            );
        }
    }

    #[test]
    fn pruning_leaves_hmgm_and_analog_served_runs_unchanged() {
        // Pruning reaches only the digital GMM; the CIM array scores every
        // HMGM component. An oversized room gives the range-limited camera
        // a small patch of a large map — the query locality pruning feeds
        // on — yet a run served on the analog slot must not move a bit.
        let scene_config = LocalizationConfig {
            tabletop: navicim_scene::scene::TabletopParams {
                room_half: 12.0,
                ..navicim_scene::scene::TabletopParams::default()
            },
            image_width: 24,
            image_height: 18,
            map_points: 1800,
            frames: 10,
            ..LocalizationConfig::default()
        };
        let ds = LocalizationDataset::generate(&scene_config, 7).unwrap();
        let base = LocalizerConfig {
            num_particles: 250,
            pixel_stride: 7,
            components: 24,
            gate: GateConfig {
                backends: vec![DIGITAL_GMM.into(), CIM_HMGM.into()],
                policy: GateKind::Always(ANALOG_SLOT),
            },
            seed: 3,
            ..LocalizerConfig::default()
        };
        let full = LocalizationPipeline::build(&ds, base.clone())
            .unwrap()
            .run(&ds)
            .unwrap();
        let pruned_config = LocalizerConfig {
            prune: navicim_gmm::prune::PruneConfig::enabled(),
            ..base
        };
        let pruned = LocalizationPipeline::build(&ds, pruned_config)
            .unwrap()
            .run(&ds)
            .unwrap();
        assert!(!full.frames.is_empty());
        assert_eq!(pruned.frames, full.frames);
        for run in [&full, &pruned] {
            let s = &run.stats[ANALOG_SLOT];
            assert!(s.evaluations > 0);
            assert_eq!(s.column_activations, s.column_slots);
            assert_eq!(s.column_slots, s.evaluations * 24);
        }
    }

    #[test]
    fn periodic_refresh_follows_its_schedule() {
        let gate = PeriodicRefresh::new(PeriodicRefreshConfig {
            period: 3,
            refresh_len: 2,
        })
        .unwrap();
        assert_eq!(gate.cycle_len(), 5);
        // Two digital frames, three analog frames, repeating — dwell-style
        // check: runs of each slot have exactly the configured length.
        let slots: Vec<usize> = (0..12).map(|f| gate.select(&ctx(f, 0.5))).collect();
        assert_eq!(slots, vec![0, 0, 1, 1, 1, 0, 0, 1, 1, 1, 0, 0]);
        // The schedule ignores the uncertainty bus entirely.
        let blind: Vec<usize> = (0..12).map(|f| gate.select(&ctx(f, 1e9))).collect();
        assert_eq!(slots, blind);
    }

    #[test]
    fn periodic_refresh_rejects_an_overflowing_cycle() {
        let config = PeriodicRefreshConfig {
            period: usize::MAX,
            refresh_len: 1,
        };
        assert!(PeriodicRefresh::new(config).is_err());
        assert!(GateConfig::periodic(DIGITAL_GMM, CIM_HMGM, config)
            .build_gate(2)
            .is_err());
        // The largest representable cycle is still accepted.
        assert!(PeriodicRefresh::new(PeriodicRefreshConfig {
            period: usize::MAX - 1,
            refresh_len: 1,
        })
        .is_ok());
    }

    #[test]
    fn periodic_refresh_validation() {
        assert!(PeriodicRefresh::new(PeriodicRefreshConfig {
            period: 0,
            refresh_len: 1,
        })
        .is_err());
        assert!(PeriodicRefresh::new(PeriodicRefreshConfig {
            period: 1,
            refresh_len: 0,
        })
        .is_err());
        assert!(PeriodicRefresh::new(PeriodicRefreshConfig::default()).is_ok());
        // Needs two slots, like the hysteresis gate.
        let config = GateConfig {
            backends: vec![DIGITAL_GMM.into()],
            policy: GateKind::Periodic(PeriodicRefreshConfig::default()),
        };
        assert!(config.build_gate(1).is_err());
        assert!(
            GateConfig::periodic(DIGITAL_GMM, CIM_HMGM, PeriodicRefreshConfig::default())
                .build_gate(2)
                .is_ok()
        );
    }

    #[test]
    fn periodic_refresh_pipeline_serves_both_slots() {
        let ds = small_dataset();
        let config = small_config(GateConfig::periodic(
            DIGITAL_GMM,
            CIM_HMGM,
            PeriodicRefreshConfig {
                period: 2,
                refresh_len: 1,
            },
        ));
        let run = LocalizationPipeline::build(&ds, config)
            .unwrap()
            .run(&ds)
            .unwrap();
        assert_eq!(run.gate, "periodic-refresh");
        // 9 tracked frames with a 1+2 cycle: 3 digital, 6 analog.
        assert_eq!(run.frames_on(DIGITAL_SLOT), 3);
        assert_eq!(run.frames_on(ANALOG_SLOT), 6);
        assert_eq!(run.frames[0].slot, DIGITAL_SLOT);
    }

    fn vo_stage_for(
        ds: &LocalizationDataset,
        policy: crate::vo::AdaptiveMcPolicy,
        grid: (usize, usize),
    ) -> VoStage {
        use crate::vo::{BayesianVo, VoPipelineConfig};
        use navicim_scene::dataset::make_samples;
        // An untrained regressor suffices for plumbing tests: dropout
        // still produces nonzero predictive variance.
        let mut rng = Pcg32::seed_from_u64(40);
        let in_dim = 3 * grid.0 * grid.1;
        let net = navicim_nn::mlp::Mlp::builder(in_dim)
            .dense(16)
            .relu()
            .dropout(0.5)
            .dense(6)
            .build(&mut rng)
            .unwrap();
        let samples = make_samples(&ds.frames, &ds.camera, grid.0, grid.1);
        let calib: Vec<Vec<f64>> = samples.iter().take(4).map(|s| s.features.clone()).collect();
        let vo = BayesianVo::build(
            &net,
            &calib,
            VoPipelineConfig {
                mc_iterations: 12,
                ..VoPipelineConfig::default()
            },
        )
        .unwrap();
        VoStage::new(vo, policy, &ds.camera, &ds.frames[0].depth, grid.0, grid.1).unwrap()
    }

    #[test]
    fn vo_stage_reports_and_leaves_map_side_bit_identical() {
        use crate::vo::{AdaptiveMcConfig, AdaptiveMcPolicy};
        let ds = small_dataset();
        let config = || small_config(GateConfig::gated(DIGITAL_GMM, CIM_HMGM));
        let bare = LocalizationPipeline::build(&ds, config())
            .unwrap()
            .run(&ds)
            .unwrap();
        let policy = AdaptiveMcPolicy::new(AdaptiveMcConfig {
            min_iterations: 4,
            max_iterations: 12,
            var_low: 1e-6,
            var_high: 1e9,
            dwell: 1,
        })
        .unwrap();
        let stage = vo_stage_for(&ds, policy, (4, 3));
        let run = LocalizationPipeline::build(&ds, config())
            .unwrap()
            .with_vo(stage)
            .run(&ds)
            .unwrap();
        assert_eq!(run.vo_policy.as_deref(), Some("adaptive-mc[4..12]"));
        // The VO stage is a pure observer: the map side is bit-identical.
        assert_eq!(run.stats, bare.stats);
        for (with_vo, without) in run.frames.iter().zip(&bare.frames) {
            assert_eq!(with_vo.slot, without.slot);
            assert_eq!(with_vo.summary, without.summary);
            assert_eq!(with_vo.map_energy_pj, without.map_energy_pj);
            assert_eq!(with_vo.signals.spread, without.signals.spread);
        }
        // Every frame carries a VO record with bounded depth and energy;
        // the first frame runs at max depth (no variance history).
        let first = run.frames[0].vo.unwrap();
        assert_eq!(first.iterations, 12);
        assert_eq!(run.frames[0].signals.vo_variance, None);
        for f in &run.frames {
            let vo = f.vo.expect("stage attached");
            assert!((4..=12).contains(&vo.iterations));
            assert!(vo.variance > 0.0);
            assert!(vo.energy_pj > 0.0);
            assert!(f.total_energy_pj() > f.map_energy_pj);
        }
        // From frame 1 on, the bus carries the previous frame's fresh
        // variance.
        for w in run.frames.windows(2) {
            assert_eq!(w[1].signals.vo_variance, Some(w[0].vo.unwrap().variance));
        }
        assert!(run.total_vo_energy_pj() > 0.0);
        assert!(
            (run.total_energy_pj() - run.total_map_energy_pj() - run.total_vo_energy_pj()).abs()
                < 1e-9
        );
        assert!(run.mean_mc_iterations() >= 4.0 && run.mean_mc_iterations() <= 12.0);
    }

    #[test]
    fn vo_stage_rejects_mismatched_grid() {
        use crate::vo::AdaptiveMcPolicy;
        let ds = small_dataset();
        // Stage helper builds a 4x3 net; a 5x3 grid must be rejected.
        use crate::vo::VoPipelineConfig;
        let mut rng = Pcg32::seed_from_u64(41);
        let net = navicim_nn::mlp::Mlp::builder(36)
            .dense(8)
            .relu()
            .dropout(0.5)
            .dense(6)
            .build(&mut rng)
            .unwrap();
        let calib = vec![vec![0.1; 36]; 2];
        let vo = BayesianVo::build(&net, &calib, VoPipelineConfig::default()).unwrap();
        let err = VoStage::new(
            vo,
            AdaptiveMcPolicy::fixed(8).unwrap(),
            &ds.camera,
            &ds.frames[0].depth,
            5,
            3,
        )
        .unwrap_err();
        assert!(err.to_string().contains("45"), "{err}");
    }

    #[test]
    fn csv_log_carries_the_full_bus() {
        use crate::vo::AdaptiveMcPolicy;
        let ds = small_dataset();
        let stage = vo_stage_for(&ds, AdaptiveMcPolicy::fixed(8).unwrap(), (4, 3));
        let run = LocalizationPipeline::build(
            &ds,
            small_config(GateConfig::gated(DIGITAL_GMM, CIM_HMGM)),
        )
        .unwrap()
        .with_vo(stage)
        .run(&ds)
        .unwrap();
        let csv = run.to_csv();
        assert_eq!(csv.len(), run.frames.len());
        let text = csv.to_string();
        let header = text.lines().next().unwrap();
        assert_eq!(header, PipelineRun::CSV_HEADER.join(","));
        let col = |name: &str| {
            PipelineRun::CSV_HEADER
                .iter()
                .position(|c| *c == name)
                .unwrap_or_else(|| panic!("missing column {name}"))
        };
        // Frame 0: warm-up bus (empty innovation and bus vo_variance
        // cells), populated vo columns, open-loop control columns.
        let row0: Vec<&str> = text.lines().nth(1).unwrap().split(',').collect();
        assert_eq!(row0[col("frame")], "0");
        assert_eq!(row0[col("innovation")], "", "innovation warm-up empty");
        assert_eq!(row0[col("bus_vo_variance")], "", "bus vo_variance empty");
        assert_eq!(row0[col("mc_iterations")], "8", "fixed depth logged");
        assert_eq!(row0[col("control_source")], "ground-truth");
        assert_eq!(row0[col("noise_scale")], "1");
        // A no-VO run leaves the vo columns empty but keeps the header.
        let bare = LocalizationPipeline::build(&ds, small_config(GateConfig::default()))
            .unwrap()
            .run(&ds)
            .unwrap();
        let bare_text = bare.to_csv().to_string();
        let bare_row: Vec<&str> = bare_text.lines().nth(1).unwrap().split(',').collect();
        assert_eq!(bare_row[col("mc_iterations")], "");
        assert_eq!(bare_row[col("vo_variance")], "");
    }

    #[test]
    fn pricing_rejects_invalid_profiles_and_prices_zero_for_idle_frames() {
        let pricing = EnergyPricing::default();
        let idle = BackendStats::default();
        assert_eq!(pricing.frame_pj(&idle, 10, 3, 4, 4).unwrap(), 0.0);
        let digital = BackendStats {
            evaluations: 100,
            ..BackendStats::default()
        };
        let e = pricing.frame_pj(&digital, 16, 3, 4, 4).unwrap();
        assert!(e > 0.0);
        let bad = EnergyPricing {
            digital_bits: 0,
            ..EnergyPricing::default()
        };
        assert!(bad.frame_pj(&digital, 16, 3, 4, 4).is_err());

        // VO pricing: idle frames are free, busy frames positive, zero
        // weight precision rejected.
        let idle_macro = MacroStats::default();
        assert_eq!(pricing.vo_frame_pj(&idle_macro, 0, 4, 12).unwrap(), 0.0);
        let busy = MacroStats {
            macs_executed: 10_000,
            adc_conversions: 500,
            ..MacroStats::default()
        };
        assert!(pricing.vo_frame_pj(&busy, 100, 4, 12).unwrap() > 0.0);
        assert!(pricing.vo_frame_pj(&busy, 100, 0, 12).is_err());
    }

    fn bus(spread: f64, ess: f64, innovation: Option<f64>) -> UncertaintySignals {
        UncertaintySignals {
            spread,
            ess_fraction: ess,
            innovation,
            vo_variance: None,
        }
    }

    fn ms_ctx(frame: usize, signals: UncertaintySignals) -> GateContext {
        GateContext { frame, signals }
    }

    #[test]
    fn multi_signal_gate_matches_hysteresis_on_neutral_bus() {
        // With a healthy ESS and no innovation reading, the overrides
        // never fire and the gate is decision-for-decision the
        // spread-only hysteresis gate.
        let spread_cfg = HysteresisConfig {
            analog_enter: 0.1,
            digital_enter: 0.2,
            dwell: 2,
            start: DIGITAL_SLOT,
        };
        let mut plain = HysteresisGate::new(spread_cfg).unwrap();
        let mut multi = MultiSignalGate::new(MultiSignalConfig {
            spread: spread_cfg,
            innovation_wake: -2.0,
            ess_wake: 0.05,
        })
        .unwrap();
        let spreads = [0.3, 0.05, 0.05, 0.15, 0.25, 0.05, 0.3, 0.05, 0.05];
        for (frame, &s) in spreads.iter().enumerate() {
            let a = plain.select(&ctx(frame, s));
            let b = multi.select(&ms_ctx(frame, bus(s, 1.0, None)));
            assert_eq!(a, b, "frame {frame}");
        }
        assert_eq!(plain.switches(), multi.switches());
        assert_eq!(multi.rescues(), 0);
    }

    #[test]
    fn multi_signal_gate_wakes_digital_on_negative_innovation() {
        // A tight cloud (spread well under analog_enter) with a strongly
        // negative innovation is the "collapsed but biased" case: the
        // spread-only gate stays analog, the multi-signal gate rescues.
        let mut gate = MultiSignalGate::new(MultiSignalConfig {
            spread: HysteresisConfig {
                analog_enter: 0.1,
                digital_enter: 0.2,
                dwell: 1,
                start: ANALOG_SLOT,
            },
            innovation_wake: -1.5,
            ess_wake: 0.05,
        })
        .unwrap();
        assert_eq!(gate.select(&ms_ctx(0, bus(0.05, 1.0, None))), ANALOG_SLOT);
        // Mildly negative innovation: no rescue.
        assert_eq!(
            gate.select(&ms_ctx(1, bus(0.05, 1.0, Some(-0.5)))),
            ANALOG_SLOT
        );
        // Strongly negative innovation: digital despite the tight cloud.
        assert_eq!(
            gate.select(&ms_ctx(2, bus(0.05, 1.0, Some(-3.0)))),
            DIGITAL_SLOT
        );
        assert_eq!(gate.rescues(), 1);
        // The override also *holds* digital while it keeps firing.
        assert_eq!(
            gate.select(&ms_ctx(3, bus(0.05, 1.0, Some(-3.0)))),
            DIGITAL_SLOT
        );
        // Signal recovers: the spread band takes back over.
        assert_eq!(
            gate.select(&ms_ctx(4, bus(0.05, 1.0, Some(0.0)))),
            ANALOG_SLOT
        );
        // A warm-up innovation (None) never fires the override.
        assert_eq!(gate.select(&ms_ctx(5, bus(0.05, 1.0, None))), ANALOG_SLOT);
    }

    #[test]
    fn multi_signal_gate_wakes_digital_on_collapsed_ess() {
        let mut gate = MultiSignalGate::new(MultiSignalConfig {
            spread: HysteresisConfig {
                analog_enter: 0.1,
                digital_enter: 0.2,
                dwell: 1,
                start: ANALOG_SLOT,
            },
            innovation_wake: -1.5,
            ess_wake: 0.1,
        })
        .unwrap();
        gate.select(&ms_ctx(0, bus(0.05, 1.0, None)));
        // Weight mass collapsed onto a sliver of the cloud: rescue.
        assert_eq!(gate.select(&ms_ctx(1, bus(0.05, 0.02, None))), DIGITAL_SLOT);
        assert_eq!(gate.rescues(), 1);
        assert_eq!(gate.switches(), 1);
    }

    #[test]
    fn multi_signal_gate_respects_dwell_on_rescues() {
        // The rescue is subject to the same dwell lock as any switch: a
        // fresh switch to analog blocks the rescue until the window
        // expires.
        let mut gate = MultiSignalGate::new(MultiSignalConfig {
            spread: HysteresisConfig {
                analog_enter: 0.1,
                digital_enter: 0.2,
                dwell: 3,
                start: DIGITAL_SLOT,
            },
            innovation_wake: -1.5,
            ess_wake: 0.05,
        })
        .unwrap();
        gate.select(&ms_ctx(0, bus(0.3, 1.0, None)));
        // Collapse: switch to analog at frame 3 (dwell satisfied).
        gate.select(&ms_ctx(1, bus(0.05, 1.0, None)));
        gate.select(&ms_ctx(2, bus(0.05, 1.0, None)));
        let s3 = gate.select(&ms_ctx(3, bus(0.05, 1.0, None)));
        assert_eq!(s3, ANALOG_SLOT);
        // Bad innovation right after the switch: dwell-locked.
        assert_eq!(
            gate.select(&ms_ctx(4, bus(0.05, 1.0, Some(-9.0)))),
            ANALOG_SLOT
        );
        assert_eq!(
            gate.select(&ms_ctx(5, bus(0.05, 1.0, Some(-9.0)))),
            ANALOG_SLOT
        );
        // Window expired: the rescue fires.
        assert_eq!(
            gate.select(&ms_ctx(6, bus(0.05, 1.0, Some(-9.0)))),
            DIGITAL_SLOT
        );
        assert_eq!(gate.rescues(), 1);
    }

    #[test]
    fn multi_signal_validation_rejects_each_bad_field() {
        let good = MultiSignalConfig::default();
        assert!(MultiSignalGate::new(good).is_ok());
        // The embedded spread band goes through the shared hysteresis
        // validation.
        let bad_spread = MultiSignalConfig {
            spread: HysteresisConfig {
                analog_enter: 0.3,
                digital_enter: 0.2,
                ..HysteresisConfig::default()
            },
            ..good
        };
        assert!(MultiSignalGate::new(bad_spread).is_err());
        for innovation_wake in [0.0, 1.0, f64::NAN, f64::NEG_INFINITY] {
            assert!(
                MultiSignalGate::new(MultiSignalConfig {
                    innovation_wake,
                    ..good
                })
                .is_err(),
                "innovation_wake {innovation_wake} accepted"
            );
        }
        for ess_wake in [0.0, -0.1, 1.0, 1.5, f64::NAN] {
            assert!(
                MultiSignalGate::new(MultiSignalConfig { ess_wake, ..good }).is_err(),
                "ess_wake {ess_wake} accepted"
            );
        }
        // And the GateKind plumbing demands two slots like the others.
        let config = GateConfig {
            backends: vec![DIGITAL_GMM.into()],
            policy: GateKind::MultiSignal(MultiSignalConfig::default()),
        };
        assert!(config.build_gate(1).is_err());
        assert!(
            GateConfig::multi_signal(DIGITAL_GMM, CIM_HMGM, MultiSignalConfig::default())
                .build_gate(2)
                .is_ok()
        );
    }

    #[test]
    fn validation_parity_across_gate_and_policy_configs() {
        // Satellite audit: every threshold family rejects non-finite
        // values, inverted bands and zero dwells the same way.
        // Spread band (shared by hysteresis and multi-signal gates):
        for config in [
            HysteresisConfig {
                analog_enter: f64::NAN,
                ..HysteresisConfig::default()
            },
            HysteresisConfig {
                analog_enter: f64::INFINITY,
                ..HysteresisConfig::default()
            },
            HysteresisConfig {
                digital_enter: f64::NAN,
                ..HysteresisConfig::default()
            },
            HysteresisConfig {
                digital_enter: f64::INFINITY,
                ..HysteresisConfig::default()
            },
            HysteresisConfig {
                dwell: 0,
                ..HysteresisConfig::default()
            },
            HysteresisConfig {
                start: 2,
                ..HysteresisConfig::default()
            },
        ] {
            assert!(config.validate().is_err(), "{config:?} accepted");
            assert!(HysteresisGate::new(config).is_err());
            assert!(MultiSignalGate::new(MultiSignalConfig {
                spread: config,
                ..MultiSignalConfig::default()
            })
            .is_err());
        }
        // Adaptive-MC variance band: same rules on the VO axis.
        use crate::vo::{AdaptiveMcConfig, AdaptiveMcPolicy};
        let mc = AdaptiveMcConfig {
            min_iterations: 4,
            max_iterations: 16,
            var_low: 0.1,
            var_high: 0.2,
            dwell: 2,
        };
        assert!(AdaptiveMcPolicy::new(mc).is_ok());
        for bad in [
            AdaptiveMcConfig {
                var_low: f64::NAN,
                ..mc
            },
            AdaptiveMcConfig {
                var_low: f64::INFINITY,
                ..mc
            },
            AdaptiveMcConfig {
                var_high: f64::NAN,
                ..mc
            },
            AdaptiveMcConfig {
                var_high: f64::INFINITY,
                ..mc
            },
            AdaptiveMcConfig {
                var_low: 0.3,
                var_high: 0.2,
                ..mc
            },
            AdaptiveMcConfig {
                var_low: -0.1,
                ..mc
            },
            AdaptiveMcConfig { dwell: 0, ..mc },
            AdaptiveMcConfig {
                min_iterations: 1,
                ..mc
            },
            AdaptiveMcConfig {
                min_iterations: 20,
                max_iterations: 16,
                ..mc
            },
        ] {
            assert!(AdaptiveMcPolicy::new(bad).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn noise_inflation_accepts_valid_configs() {
        assert!(NoiseInflation::new(30.0, 1.0, 4.0).is_ok());
        // Degenerate-but-legal: zero gain, floor == ceiling.
        assert!(NoiseInflation::new(0.0, 0.5, 0.5).is_ok());
    }

    #[test]
    fn noise_inflation_rejects_non_finite_gain() {
        for gain in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = NoiseInflation::new(gain, 1.0, 4.0).unwrap_err();
            assert!(err.to_string().contains("gain must be finite"), "{err}");
        }
    }

    #[test]
    fn noise_inflation_rejects_negative_gain() {
        let err = NoiseInflation::new(-1.0, 1.0, 4.0).unwrap_err();
        assert!(err.to_string().contains("gain must be >= 0"), "{err}");
    }

    #[test]
    fn noise_inflation_rejects_bad_floor() {
        for floor in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = NoiseInflation::new(1.0, floor, 4.0).unwrap_err();
            assert!(err.to_string().contains("floor"), "{err}");
        }
    }

    #[test]
    fn noise_inflation_rejects_non_finite_ceiling() {
        for ceiling in [f64::NAN, f64::INFINITY] {
            let err = NoiseInflation::new(1.0, 1.0, ceiling).unwrap_err();
            assert!(err.to_string().contains("ceiling must be finite"), "{err}");
        }
    }

    #[test]
    fn noise_inflation_rejects_ceiling_below_floor() {
        let err = NoiseInflation::new(1.0, 2.0, 1.0).unwrap_err();
        assert!(
            err.to_string().contains("ceiling must be >= floor"),
            "{err}"
        );
    }

    #[test]
    fn literal_constructed_inflation_is_caught_by_validate_not_by_a_panic() {
        // The fields are public, so a struct literal can bypass `new` —
        // `validate` must catch what `scale` would otherwise *panic* on
        // (std clamp with floor > ceiling).
        let inverted = NoiseInflation {
            gain: 1.0,
            floor: 4.0,
            ceiling: 1.0,
        };
        assert!(inverted.validate().is_err());
        let ds = small_dataset();
        let err = LocalizationPipeline::build(&ds, small_config(GateConfig::default()))
            .unwrap()
            .with_noise_inflation(inverted)
            .unwrap_err();
        assert!(
            err.to_string().contains("ceiling must be >= floor"),
            "{err}"
        );
        let nan_gain = NoiseInflation {
            gain: f64::NAN,
            floor: 1.0,
            ceiling: 4.0,
        };
        assert!(nan_gain.validate().is_err());
    }

    #[test]
    fn noise_inflation_scale_bounds() {
        let inflation = NoiseInflation::new(10.0, 1.0, 3.0).unwrap();
        // Total for any input: None and garbage price at the ceiling.
        assert_eq!(inflation.scale(None), 3.0);
        assert_eq!(inflation.scale(Some(f64::NAN)), 3.0);
        assert_eq!(inflation.scale(Some(f64::INFINITY)), 3.0);
        assert_eq!(inflation.scale(Some(f64::NEG_INFINITY)), 3.0);
        // Finite variances map through the clamped affine law.
        assert_eq!(inflation.scale(Some(0.0)), 1.0);
        assert_eq!(inflation.scale(Some(0.05)), 1.5);
        assert_eq!(inflation.scale(Some(10.0)), 3.0);
        // Negative variances (impossible, but total) clamp to the floor.
        assert_eq!(inflation.scale(Some(-5.0)), 1.0);
    }

    /// A detector tuning that fires within 1-2 frames of a blind burst
    /// but stays quiet through clean tracking wobble.
    fn test_safe_mode_config() -> SafeModeConfig {
        SafeModeConfig {
            detector: FaultDetectorConfig {
                drift: 2.0,
                threshold: 10.0,
                warmup: 0,
            },
            hold_frames: 2,
            recovery_innovation: -1.0,
        }
    }

    #[test]
    fn safe_mode_validation_rejects_bad_tunings() {
        let ds = small_dataset();
        let build =
            || LocalizationPipeline::build(&ds, small_config(GateConfig::default())).unwrap();
        assert!(build()
            .with_safe_mode(SafeModeConfig {
                hold_frames: 0,
                ..SafeModeConfig::default()
            })
            .is_err());
        assert!(build()
            .with_safe_mode(SafeModeConfig {
                recovery_innovation: f64::NAN,
                ..SafeModeConfig::default()
            })
            .is_err());
        // Detector validation propagates through the builder.
        assert!(build()
            .with_safe_mode(SafeModeConfig {
                detector: FaultDetectorConfig {
                    threshold: -1.0,
                    ..FaultDetectorConfig::default()
                },
                ..SafeModeConfig::default()
            })
            .is_err());
        assert!(build().with_safe_mode(SafeModeConfig::default()).is_ok());
    }

    #[test]
    fn armed_but_never_alarmed_safe_mode_is_bit_identical() {
        // Arming fault detection must not perturb a clean run: the
        // detector only *reads* the bus, so until it alarms every
        // report is bit-identical to an unarmed pipeline's.
        let ds = small_dataset();
        let config = small_config(GateConfig::gated(DIGITAL_GMM, CIM_HMGM));
        let base = LocalizationPipeline::build(&ds, config.clone())
            .unwrap()
            .run(&ds)
            .unwrap();
        let armed = LocalizationPipeline::build(&ds, config)
            .unwrap()
            .with_safe_mode(SafeModeConfig {
                detector: FaultDetectorConfig {
                    threshold: 1e9,
                    ..FaultDetectorConfig::default()
                },
                ..SafeModeConfig::default()
            })
            .unwrap()
            .run(&ds)
            .unwrap();
        assert_eq!(base.frames, armed.frames);
        assert!(armed.frames.iter().all(|f| !f.fault_active && !f.safe_mode));
        assert!(armed.frames.iter().all(|f| f.nees.is_finite()));
    }

    #[test]
    fn all_inf_depth_frame_is_blind_like_all_nan() {
        // An all-`+inf` frame holds no finite return, so two forks of one
        // session, one stepped on an all-`+inf` frame and one on an
        // all-`NaN` frame, report the same bits, and both step the next
        // clean frame alike.
        let ds = small_dataset();
        let config = small_config(GateConfig::gated(DIGITAL_GMM, CIM_HMGM));
        let prototype = LocalizationPipeline::build(&ds, config).unwrap();
        let controls = ds.control_deltas();
        let clean = &ds.frames[1].depth;
        let mut reports = Vec::new();
        for fill in [f64::INFINITY, f64::NAN] {
            let mut frame = DepthImage::new(clean.width(), clean.height());
            for v in 0..clean.height() {
                for u in 0..clean.width() {
                    frame.set_depth(u, v, fill);
                }
            }
            let mut session = prototype.fork_session(5).unwrap();
            let blind = session
                .step(&controls[0], &frame, ds.frames[1].pose)
                .unwrap();
            let next = session
                .step(&controls[1], &ds.frames[2].depth, ds.frames[2].pose)
                .unwrap();
            // `Debug` prints each f64 in its shortest round-trip form, so
            // equal strings mean equal bits.
            reports.push(format!("{blind:?}\n{next:?}"));
        }
        assert_eq!(reports[0], reports[1]);
    }

    #[test]
    fn blind_burst_trips_safe_mode_forces_digital_and_recovers() {
        // An analog-pinned gate + a mid-run blind burst: the detector
        // must alarm within two frames of the burst, the response must
        // override the pinned slot to DIGITAL_SLOT and clamp the noise
        // scale to the inflation ceiling, and once honest frames
        // return, the dwell-gated exit must re-arm the detector.
        let ds = small_dataset();
        let config = small_config(GateConfig::always(vec![DIGITAL_GMM, CIM_HMGM], ANALOG_SLOT));
        let mut pipeline = LocalizationPipeline::build(&ds, config)
            .unwrap()
            .with_safe_mode(test_safe_mode_config())
            .unwrap();
        let ceiling = pipeline.inflation.scale(None);
        let controls = ds.control_deltas();
        let blind = DepthImage::new(ds.frames[0].depth.width(), ds.frames[0].depth.height());
        let mut reports = Vec::new();
        // 20 frames total, cycling the dataset; frames 6..9 are blind.
        for t in 0..20 {
            let k = t % controls.len();
            let truth = ds.frames[k + 1].pose;
            let depth = if (6..9).contains(&t) {
                &blind
            } else {
                &ds.frames[k + 1].depth
            };
            reports.push(pipeline.step(&controls[k], depth, truth).unwrap());
        }
        // Clean prefix: quiet detector, gate-pinned analog slot.
        for f in &reports[..6] {
            assert!(
                !f.fault_active && !f.safe_mode,
                "false alarm at {}",
                f.frame
            );
            assert_eq!(f.slot, ANALOG_SLOT);
        }
        // The first blind frame's BLIND_LL reading lands on the bus one
        // frame later: detection by frame 7, never before the burst.
        let first_detect = reports
            .iter()
            .position(|f| f.fault_active)
            .expect("blind burst detected");
        assert!(
            (6..=7).contains(&first_detect),
            "detected at {first_detect}"
        );
        // While safe mode governs: forced digital + ceiling clamp.
        let governed: Vec<&FrameReport> = reports.iter().filter(|f| f.safe_mode).collect();
        assert!(governed.len() >= 2, "safe mode never engaged");
        for f in &governed {
            assert_eq!(f.slot, DIGITAL_SLOT, "frame {} not forced digital", f.frame);
            assert_eq!(f.noise_scale, ceiling, "frame {} not clamped", f.frame);
        }
        // Recovery: honest frames resume, safe mode exits and re-arms.
        assert!(!safe_mode_active(&pipeline), "safe mode never exited");
        let detector = &pipeline.safe.as_ref().unwrap().detector;
        assert!(!detector.alarmed(), "detector never re-armed");
        assert_eq!(safe_mode_entries(&pipeline), 1);
        let last = reports.last().unwrap();
        assert!(!last.safe_mode);
        assert_eq!(last.slot, ANALOG_SLOT, "gate did not resume after recovery");
    }

    #[test]
    fn forked_sessions_get_fresh_fault_state() {
        let ds = small_dataset();
        let config = small_config(GateConfig::gated(DIGITAL_GMM, CIM_HMGM));
        let prototype = LocalizationPipeline::build(&ds, config)
            .unwrap()
            .with_safe_mode(test_safe_mode_config())
            .unwrap();
        let fork = prototype.fork_session(99).unwrap();
        assert_eq!(
            fork.safe_mode_config(),
            prototype.safe_mode_config(),
            "fork keeps the tuning"
        );
        assert!(!safe_mode_active(&fork));
        assert_eq!(safe_mode_entries(&fork), 0);
    }

    #[test]
    fn closed_loop_without_vo_stage_is_rejected() {
        let ds = small_dataset();
        let mut pipeline = LocalizationPipeline::build(
            &ds,
            small_config(GateConfig::gated(DIGITAL_GMM, CIM_HMGM)),
        )
        .unwrap()
        .with_control(ControlSource::VisualOdometry);
        assert_eq!(pipeline.control_source(), ControlSource::VisualOdometry);
        let err = pipeline.run(&ds).unwrap_err();
        assert!(err.to_string().contains("VO stage"), "{err}");
    }

    #[test]
    fn closed_loop_runs_on_vo_controls_with_bounded_noise_scale() {
        use crate::vo::AdaptiveMcPolicy;
        let ds = small_dataset();
        let stage = vo_stage_for(&ds, AdaptiveMcPolicy::fixed(8).unwrap(), (4, 3));
        let inflation = NoiseInflation::new(5.0, 1.0, 3.5).unwrap();
        let run = LocalizationPipeline::build(
            &ds,
            small_config(GateConfig::gated(DIGITAL_GMM, CIM_HMGM)),
        )
        .unwrap()
        .with_vo(stage)
        .with_control(ControlSource::VisualOdometry)
        .with_noise_inflation(inflation)
        .unwrap()
        .run(&ds)
        .unwrap();
        assert_eq!(run.frames.len(), 9);
        for f in &run.frames {
            assert_eq!(f.control_source, ControlSource::VisualOdometry);
            // The applied noise scale is the bounded inflation of this
            // frame's fresh VO variance.
            let vo = f.vo.expect("stage attached");
            assert_eq!(f.noise_scale, inflation.scale(Some(vo.variance)));
            assert!((1.0..=3.5).contains(&f.noise_scale));
            assert!(f.summary.error.is_finite());
        }
        assert!(run.mean_noise_scale() >= 1.0 && run.mean_noise_scale() <= 3.5);
        // The VO deltas are real relative poses scored against truth.
        let ctrl_err = run.mean_control_error().expect("vo stage attached");
        assert!(ctrl_err.is_finite() && ctrl_err >= 0.0);
        // The CSV log records the closed-loop columns.
        let text = run.to_csv().to_string();
        let row1: Vec<&str> = text.lines().nth(1).unwrap().split(',').collect();
        let col = |name: &str| {
            PipelineRun::CSV_HEADER
                .iter()
                .position(|c| *c == name)
                .unwrap()
        };
        assert_eq!(row1[col("control_source")], "visual-odometry");
        assert!(row1[col("noise_scale")].parse::<f64>().unwrap() >= 1.0);
    }

    #[test]
    fn csv_sanitizes_non_finite_values_and_round_trips() {
        // A synthetic run with deliberately poisoned floats: the CSV
        // must render them as empty cells (never `NaN`/`inf` tokens),
        // keep finite values losslessly round-trippable, and keep the
        // locked header.
        let frame = FrameReport {
            frame: 0,
            slot: 0,
            signals: UncertaintySignals {
                spread: 0.125,
                ess_fraction: f64::NAN,
                innovation: Some(f64::NEG_INFINITY),
                vo_variance: Some(f64::INFINITY),
            },
            control_source: ControlSource::VisualOdometry,
            noise_scale: 2.5,
            summary: StepSummary {
                estimate: Pose::IDENTITY,
                error: f64::INFINITY,
                spread: 0.25,
                ess: 100.0,
            },
            nees: f64::NAN,
            fault_active: true,
            safe_mode: false,
            truth: Pose::IDENTITY,
            evaluations: 10,
            map_energy_pj: f64::NAN,
            vo: Some(VoFrameReport {
                iterations: 8,
                variance: f64::NAN,
                delta: Pose::IDENTITY,
                energy_pj: 3.0,
            }),
        };
        let run = PipelineRun {
            backends: vec!["digital-gmm".into()],
            gate: "test".into(),
            vo_policy: None,
            frames: vec![frame],
            stats: vec![BackendStats::default()],
        };
        let text = run.to_csv().to_string();
        let mut lines = text.lines();
        assert_eq!(lines.next().unwrap(), PipelineRun::CSV_HEADER.join(","));
        let row: Vec<&str> = lines.next().unwrap().split(',').collect();
        assert_eq!(row.len(), PipelineRun::CSV_HEADER.len());
        let col = |name: &str| {
            PipelineRun::CSV_HEADER
                .iter()
                .position(|c| *c == name)
                .unwrap()
        };
        // Non-finite floats → empty cells, wherever they appear.
        for poisoned in [
            "ess_fraction",
            "innovation",
            "bus_vo_variance",
            "error_m",
            "map_energy_pj",
            "vo_variance",
            "total_energy_pj",
            "nees",
        ] {
            assert_eq!(row[col(poisoned)], "", "{poisoned} leaked a token");
        }
        // The robustness booleans render as 0/1.
        assert_eq!(row[col("fault_active")], "1");
        assert_eq!(row[col("safe_mode")], "0");
        // No NaN/inf token anywhere in the document.
        assert!(!text.contains("NaN") && !text.contains("inf"), "{text}");
        // Finite values round-trip exactly through the shortest format.
        assert_eq!(row[col("spread")].parse::<f64>().unwrap(), 0.125);
        assert_eq!(row[col("noise_scale")].parse::<f64>().unwrap(), 2.5);
        assert_eq!(row[col("post_spread")].parse::<f64>().unwrap(), 0.25);
        assert_eq!(row[col("vo_energy_pj")].parse::<f64>().unwrap(), 3.0);
        assert_eq!(row[col("mc_iterations")].parse::<usize>().unwrap(), 8);
        assert_eq!(row[col("control_source")], "visual-odometry");
    }

    #[test]
    fn pipeline_is_send() {
        // Whole sessions move across fleet worker threads.
        fn assert_send<T: Send>() {}
        assert_send::<LocalizationPipeline>();
        assert_send::<PendingFrame>();
    }

    #[test]
    fn split_frame_path_matches_monolithic_step() {
        // begin_frame → external evaluation → finish_frame must be
        // bit-identical to step(), frame by frame, on a gated
        // digital+analog pipeline (the serving fast path).
        let ds = small_dataset();
        let config = small_config(GateConfig::gated(DIGITAL_GMM, CIM_HMGM).with_hysteresis(
            HysteresisConfig {
                analog_enter: 0.12,
                digital_enter: 0.2,
                dwell: 2,
                start: DIGITAL_SLOT,
            },
        ));
        let mut mono = LocalizationPipeline::build(&ds, config.clone()).unwrap();
        let mut split = LocalizationPipeline::build(&ds, config).unwrap();
        let controls = ds.control_deltas();
        let mut lls = Vec::new();
        let mut served_analog = false;
        for (t, control) in controls.iter().enumerate() {
            let depth = &ds.frames[t + 1].depth;
            let truth = ds.frames[t + 1].pose;
            let expected = mono.step(control, depth, truth).unwrap();
            let pending = split.begin_frame(control, depth).unwrap();
            let slot = pending.slot();
            served_analog |= slot == ANALOG_SLOT;
            let batch = split.staged_batch().clone();
            lls.resize(batch.len(), 0.0);
            split
                .backend_mut(slot)
                .log_likelihood_into(&batch, &mut lls);
            let report = split.finish_frame(pending, &lls, truth).unwrap();
            assert_eq!(report, expected, "frame {t} diverged");
        }
        assert!(served_analog, "gate never exercised the analog slot");
    }

    #[test]
    fn finish_frame_rejects_misaligned_lls_without_side_effects() {
        // A log-likelihood slice that does not match the staged batch is
        // an InvalidArgument naming both lengths, raised before any state
        // changes: retrying with the right slice still reproduces step().
        let ds = small_dataset();
        let config = small_config(GateConfig::always(vec![DIGITAL_GMM, CIM_HMGM], ANALOG_SLOT));
        let mut mono = LocalizationPipeline::build(&ds, config.clone()).unwrap();
        let mut split = LocalizationPipeline::build(&ds, config).unwrap();
        let control = ds.control_deltas()[0];
        let (depth, truth) = (&ds.frames[1].depth, ds.frames[1].pose);
        let expected = mono.step(&control, depth, truth).unwrap();
        let pending = split.begin_frame(&control, depth).unwrap();
        let batch = split.staged_batch().clone();
        assert!(batch.len() > 1);
        for wrong in [0, batch.len() - 1, batch.len() + 1] {
            let err = split
                .finish_frame(pending.clone(), &vec![0.0; wrong], truth)
                .unwrap_err();
            let msg = err.to_string();
            assert!(matches!(err, CoreError::InvalidArgument(_)), "{msg}");
            assert!(
                msg.contains(&wrong.to_string()) && msg.contains(&batch.len().to_string()),
                "{msg}"
            );
        }
        let mut lls = vec![0.0; batch.len()];
        split
            .backend_mut(pending.slot())
            .log_likelihood_into(&batch, &mut lls);
        let report = split.finish_frame(pending, &lls, truth).unwrap();
        assert_eq!(report, expected);
    }

    #[test]
    fn run_records_the_gate_name_of_every_gate_kind() {
        let mut ds = small_dataset();
        ds.frames.truncate(2);
        let gate_name = |backends: &[&str], policy: &GateKind| {
            let gate = GateConfig {
                backends: backends.iter().map(|b| b.to_string()).collect(),
                policy: policy.clone(),
            };
            LocalizationPipeline::build(&ds, small_config(gate))
                .ok()
                .map(|mut p| p.run(&ds).unwrap().gate)
        };
        // (kind, name at one slot, name at two slots); the gated kinds
        // need both a digital and an analog slot.
        let cases = [
            (
                GateKind::Always(DIGITAL_SLOT),
                Some("always-slot0"),
                "always-digital",
            ),
            (GateKind::Always(ANALOG_SLOT), None, "always-analog"),
            (
                GateKind::Hysteresis(HysteresisConfig::default()),
                None,
                "hysteresis",
            ),
            (
                GateKind::MultiSignal(MultiSignalConfig::default()),
                None,
                "multi-signal",
            ),
            (
                GateKind::Periodic(PeriodicRefreshConfig::default()),
                None,
                "periodic-refresh",
            ),
        ];
        for (kind, one, two) in &cases {
            assert_eq!(gate_name(&[DIGITAL_GMM], kind).as_deref(), *one, "{kind:?}");
            assert_eq!(
                gate_name(&[DIGITAL_GMM, CIM_HMGM], kind).as_deref(),
                Some(*two),
                "{kind:?}"
            );
        }
        // A slot past the conventional two keeps the generic label.
        assert_eq!(
            gate_name(&[DIGITAL_GMM, CIM_HMGM, DIGITAL_GMM], &GateKind::Always(2)).as_deref(),
            Some("always-slot2")
        );
    }

    #[test]
    fn fork_session_builds_a_fresh_gate_after_a_failed_first_frame() {
        let ds = small_dataset();
        // Every spread sits below `analog_enter`, so the gate leaves its
        // digital start slot at the first dwell boundary (frame 2).
        let config = small_config(GateConfig::gated(DIGITAL_GMM, CIM_HMGM).with_hysteresis(
            HysteresisConfig {
                analog_enter: 1e6,
                digital_enter: 2e6,
                dwell: 2,
                start: DIGITAL_SLOT,
            },
        ));
        let slots = |mut p: LocalizationPipeline| -> Vec<usize> {
            p.run(&ds).unwrap().frames.iter().map(|f| f.slot).collect()
        };
        let want = slots(
            LocalizationPipeline::build(&ds, config.clone())
                .unwrap()
                .fork_session(11)
                .unwrap(),
        );
        assert_eq!(want[..3], [DIGITAL_SLOT, DIGITAL_SLOT, ANALOG_SLOT]);
        // Closed loop without a VO stage fails the first frame after the
        // gate has selected, leaving the prototype unstepped but its gate
        // one frame in.
        let mut stale = LocalizationPipeline::build(&ds, config)
            .unwrap()
            .with_control(ControlSource::VisualOdometry);
        let control = ds.control_deltas()[0];
        assert!(stale
            .step(&control, &ds.frames[1].depth, ds.frames[1].pose)
            .is_err());
        let stale = stale.with_control(ControlSource::GroundTruth);
        assert_eq!(slots(stale.fork_session(11).unwrap()), want);
    }

    #[test]
    fn fork_session_with_master_seed_matches_fresh_build() {
        // The fleet determinism anchor: fork_session(config.seed) on a
        // pristine pipeline behaves exactly like a fresh build.
        let ds = small_dataset();
        let config = small_config(GateConfig::gated(DIGITAL_GMM, CIM_HMGM));
        let prototype = LocalizationPipeline::build(&ds, config.clone()).unwrap();
        let mut forked = prototype.fork_session(config.seed).unwrap();
        let mut fresh = LocalizationPipeline::build(&ds, config.clone()).unwrap();
        let run_forked = forked.run(&ds).unwrap();
        let run_fresh = fresh.run(&ds).unwrap();
        assert_eq!(run_forked.frames, run_fresh.frames);
        assert_eq!(run_forked.stats, run_fresh.stats);
        // Distinct seeds draw distinct clouds (independent agents).
        let mut other = prototype.fork_session(config.seed ^ 0xdead_beef).unwrap();
        let run_other = other.run(&ds).unwrap();
        assert_ne!(
            run_other.frames.last().unwrap().summary.estimate,
            run_fresh.frames.last().unwrap().summary.estimate
        );
    }

    #[test]
    fn fork_session_rejects_stepped_pipelines() {
        let ds = small_dataset();
        let config = small_config(GateConfig::default());
        let mut pipeline = LocalizationPipeline::build(&ds, config.clone()).unwrap();
        assert!(pipeline.fork_session(1).is_ok());
        let controls = ds.control_deltas();
        pipeline
            .step(&controls[0], &ds.frames[1].depth, ds.frames[1].pose)
            .unwrap();
        let err = pipeline.fork_session(1).unwrap_err().to_string();
        assert!(err.contains("pristine"), "{err}");
    }

    #[test]
    fn zero_pixel_stride_rejected_at_build() {
        let ds = small_dataset();
        let config = LocalizerConfig {
            pixel_stride: 0,
            ..small_config(GateConfig::default())
        };
        let err = LocalizationPipeline::build(&ds, config).unwrap_err();
        assert!(matches!(err, CoreError::InvalidArgument(_)), "{err}");
        assert!(err.to_string().contains("pixel_stride"), "{err}");
    }

    #[test]
    fn staged_batch_capacity_steady_across_identical_frames() {
        // The staged batch's capacity is exactly the next power of two
        // of its flat length, and a second identical frame keeps it.
        // Growing by plain `resize` or by an exact reserve misses that
        // capacity, and either one raised benchmark peak heap.
        let ds = small_dataset();
        let mut pipeline =
            LocalizationPipeline::build(&ds, small_config(GateConfig::default())).unwrap();
        let control = ds.control_deltas()[0];
        let frame = &ds.frames[1];
        pipeline.step(&control, &frame.depth, frame.pose).unwrap();
        let first = pipeline.staged_batch().capacity();
        pipeline.step(&control, &frame.depth, frame.pose).unwrap();
        let batch = pipeline.staged_batch();
        assert!(!batch.is_empty());
        assert_eq!(batch.capacity(), first);
        let flat = batch.len() * batch.dim();
        assert_eq!(
            batch.capacity(),
            flat.next_power_of_two() / batch.dim(),
            "capacity in points for {flat} staged doubles"
        );
    }
}
