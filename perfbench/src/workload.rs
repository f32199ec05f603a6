//! The three workloads: input generation (untimed) and set-up (timed).
//!
//! Input generation runs the `scene` and `scenario` crates only: it
//! renders the depth frames, applies the scripted faults and derives the
//! VO training samples. Everything the program under test receives is in
//! the returned [`Plan`]. Set-up ([`build_prototype`]) is what a user pays
//! before the first frame: map fit, CIM programming, prune index and VO
//! training.

use navicim_analog::engine::CimEngineConfig;
use navicim_core::localization::LocalizerConfig;
use navicim_core::pipeline::{
    FaultDetectorConfig, GateConfig, GateKind, HysteresisConfig, LocalizationPipeline,
    MultiSignalConfig, NoiseInflation, SafeModeConfig, VoStage, DIGITAL_SLOT,
};
use navicim_core::registry::{CIM_HMGM, DIGITAL_GMM};
use navicim_core::vo::{
    train_vo_network, AdaptiveMcConfig, AdaptiveMcPolicy, BayesianVo, VoPipelineConfig,
    VoTrainConfig,
};
use navicim_gmm::prune::PruneConfig;
use navicim_math::geom::Pose;
use navicim_math::rng::{Pcg32, Rng64, SplitMix64};
use navicim_nn::mc::McPrediction;
use navicim_scenario::{FaultEvent, FaultKind, ScenarioFrame, ScenarioScript, ScenarioStream};
use navicim_scene::camera::DepthImage;
use navicim_scene::dataset::{make_samples, LocalizationConfig, LocalizationDataset, VoSample};
use navicim_scene::noise::DepthNoise;
use navicim_scene::scene::TabletopParams;

/// VO feature grid (cells across, cells down).
pub const VO_GRID: (usize, usize) = (4, 3);
/// MC-Dropout depth bounds of the adaptive VO policy.
const MC_MIN: usize = 8;
const MC_MAX: usize = 30;
/// Seed of everything set-up derives from the scene: geometry, map
/// cloud, map fit and VO training. Shared by every run.
const SCENE_SEED: u64 = navicim_bench::SEED;
/// Period of the scripted faults in the fleet profiles, in frames.
const FAULT_PERIOD: usize = 40;
/// First faulted frame of each period.
const FAULT_PHASE: usize = 20;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The full stack on one drone: gated digital/CIM map plus the
    /// adaptive MC-Dropout VO stage.
    DroneLoop,
    /// Kernel-bound: a 32-component map of an oversized room, served on
    /// the pruned digital GMM. The CIM slot is built but serves no frame.
    WideMap,
    /// Coalesced BSP rounds over 32 small agents, three quarters of them
    /// flying scripted faults.
    FleetFaults,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Self::DroneLoop, Self::WideMap, Self::FleetFaults];

    /// The name used on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Self::DroneLoop => "drone-loop",
            Self::WideMap => "wide-map",
            Self::FleetFaults => "fleet-faults",
        }
    }

    /// Looks a workload up by [`Self::name`].
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the agents advance together in coalesced fleet rounds.
    pub fn is_fleet(self) -> bool {
        self == Self::FleetFaults
    }
}

/// One scripted input stream's description.
#[derive(Debug, Clone)]
pub struct Profile {
    /// Script name (`clean`, `blackout`, ...).
    pub name: &'static str,
    /// Whether the script injects faults. A clean session must never
    /// raise a fault alarm.
    pub faulted: bool,
    /// Whether at least half the sessions on this script must enter safe
    /// mode. Blind frames carry no likelihood reading, so a blackout is
    /// caught only by the deficit once the scan returns; two blackout
    /// sessions in 320 (seeds 1 to 40) had not drifted far enough by then
    /// to alarm. Spoofed returns and one-frame kidnaps on this 64-particle
    /// regime are caught by only some sessions, so they are exercised
    /// but not gated.
    pub must_alarm: bool,
}

/// Every session's `(control, depth, truth)` frames of one episode,
/// round-major: frame `t` of session `a` sits at `t * sessions + a`. One
/// fleet round's inputs are then contiguous slices, as
/// `Fleet::step_round_each` takes them, and no frame is held twice.
#[derive(Debug)]
pub struct Inputs {
    sessions: usize,
    frames: usize,
    controls: Vec<Pose>,
    depths: Vec<DepthImage>,
    truths: Vec<Pose>,
}

impl Inputs {
    /// Interleaves equal-length per-session streams, moving every frame.
    fn interleave(streams: Vec<Vec<ScenarioFrame>>) -> Self {
        let sessions = streams.len();
        let frames = streams.first().map_or(0, Vec::len);
        let mut streams: Vec<_> = streams.into_iter().map(Vec::into_iter).collect();
        let n = sessions * frames;
        let mut inputs = Self {
            sessions,
            frames,
            controls: Vec::with_capacity(n),
            depths: Vec::with_capacity(n),
            truths: Vec::with_capacity(n),
        };
        for _ in 0..frames {
            for f in streams.iter_mut().filter_map(Iterator::next) {
                inputs.controls.push(f.control);
                inputs.depths.push(f.depth);
                inputs.truths.push(f.truth);
            }
        }
        inputs
    }

    /// Frames per session.
    pub fn frames(&self) -> usize {
        self.frames
    }

    /// Every session's frame `t`.
    pub fn round(&self, t: usize) -> (&[Pose], &[DepthImage], &[Pose]) {
        let r = t * self.sessions..(t + 1) * self.sessions;
        (&self.controls[r.clone()], &self.depths[r.clone()], &self.truths[r])
    }

    /// Frame `t` of `session`.
    pub fn frame(&self, session: usize, t: usize) -> (&Pose, &DepthImage, Pose) {
        let i = t * self.sessions + session;
        (&self.controls[i], &self.depths[i], self.truths[i])
    }
}

/// One session of an episode.
#[derive(Debug, Clone, Copy)]
pub struct Agent {
    /// Seed the session's particle cloud is drawn from.
    pub seed: u64,
    /// Index into [`Plan::profiles`].
    pub profile: usize,
}

/// Everything generated from the workload seed before the clock starts.
#[derive(Debug)]
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// Scene, map cloud and orbit.
    pub dataset: LocalizationDataset,
    /// Input stream descriptions.
    pub profiles: Vec<Profile>,
    /// The frames the program receives.
    pub inputs: Inputs,
    /// Sessions of one episode. Single-pipeline workloads run them one
    /// after another; the fleet advances them together, one round per
    /// frame.
    pub agents: Vec<Agent>,
    /// Fleet session seeds are `seed_base + agent index`.
    pub seed_base: u64,
    /// VO training samples (drone-loop only).
    pub vo_samples: Vec<VoSample>,
    /// Frames (single pipeline) or rounds (fleet) per throughput block.
    pub block: usize,
}

impl Plan {
    /// Frames one session runs per episode.
    pub fn episode_frames(&self) -> usize {
        self.inputs.frames()
    }
}

/// A script with `kind` active for `duration` frames at the same phase
/// of every fault period.
fn periodic(
    name: &str,
    frames: usize,
    seed: u64,
    duration: usize,
    kind: FaultKind,
) -> ScenarioScript {
    let mut script = ScenarioScript::clean(name, frames).with_seed(seed);
    let mut at = FAULT_PHASE;
    while at + duration <= frames {
        script = script.with_event(FaultEvent {
            at_frame: at,
            duration,
            kind,
        });
        at += FAULT_PERIOD;
    }
    script
}

/// Generates the workload's inputs from `seed`.
///
/// # Errors
///
/// Reports scene or scenario generation failures.
pub fn plan(workload: Workload, seed: u64) -> Result<Plan, String> {
    let (scene, frames, sessions) = match workload {
        Workload::DroneLoop => (
            LocalizationConfig {
                image_width: 48,
                image_height: 36,
                map_points: 2000,
                frames: 48,
                noise: DepthNoise::none(),
                ..LocalizationConfig::default()
            },
            48,
            8,
        ),
        Workload::WideMap => (
            LocalizationConfig {
                tabletop: TabletopParams {
                    room_half: 12.0,
                    ..TabletopParams::default()
                },
                image_width: 32,
                image_height: 24,
                map_points: 3000,
                frames: 48,
                noise: DepthNoise::none(),
                ..LocalizationConfig::default()
            },
            144,
            8,
        ),
        Workload::FleetFaults => (
            LocalizationConfig {
                image_width: 24,
                image_height: 18,
                map_points: 1200,
                frames: 48,
                noise: DepthNoise::none(),
                ..LocalizationConfig::default()
            },
            2 * FAULT_PERIOD,
            32,
        ),
    };
    // The scene, and the map fitted to it, are fixed per workload, so the
    // work in a frame does not depend on which seed is drawn. The seed
    // draws each session's own sensor noise over the orbit, its fault
    // pixels and its particle cloud.
    let clean = LocalizationDataset::generate(&scene, SCENE_SEED)
        .map_err(|e| format!("dataset generation: {e}"))?;
    let noisy = |noise_seed: u64| {
        let mut ds = clean.clone();
        let mut rng = Pcg32::seed_from_u64(noise_seed);
        for frame in &mut ds.frames {
            DepthNoise::kinect_like().apply(&mut frame.depth, &mut rng);
        }
        ds
    };
    let kinds: &[(&'static str, usize, Option<FaultKind>, bool)] = if workload.is_fleet() {
        &[
            ("clean", 0, None, false),
            (
                "blackout",
                3,
                Some(FaultKind::Dropout { fraction: 1.0 }),
                true,
            ),
            (
                "spoof",
                3,
                Some(FaultKind::Spoof {
                    depth_m: 0.5,
                    fraction: 0.9,
                }),
                false,
            ),
            ("kidnap", 1, Some(FaultKind::Teleport { skip: 2 }), false),
        ]
    } else {
        &[("clean", 0, None, false)]
    };
    // Sub-seeds are drawn in a fixed order, so session `i` gets the same
    // inputs however many sessions follow it.
    let mut seeds = SplitMix64::seed_from_u64(seed);
    let seed_base = seeds.next_u64();
    let mut profiles = Vec::with_capacity(sessions);
    let mut agents = Vec::with_capacity(sessions);
    let mut streams = Vec::with_capacity(sessions);
    for i in 0..sessions {
        let (name, duration, kind, must_alarm) = kinds[i % kinds.len()];
        let noise_seed = seeds.next_u64();
        let fault_seed = seeds.next_u64();
        let script = match kind {
            Some(kind) => periodic(name, frames, fault_seed, duration, kind),
            None => ScenarioScript::clean(name, frames).with_seed(fault_seed),
        };
        let stream = ScenarioStream::new(&noisy(noise_seed), &script)
            .map_err(|e| format!("scenario '{name}': {e}"))?
            .collect();
        streams.push(stream);
        profiles.push(Profile {
            name,
            faulted: kind.is_some(),
            must_alarm,
        });
        agents.push(Agent {
            seed: seed_base.wrapping_add(i as u64),
            profile: i,
        });
    }
    // Set-up trains the VO regressor on one fixed noisy capture.
    let dataset = noisy(SCENE_SEED);
    let vo_samples = if workload == Workload::DroneLoop {
        make_samples(&dataset.frames, &dataset.camera, VO_GRID.0, VO_GRID.1)
    } else {
        Vec::new()
    };
    let block = match workload {
        Workload::DroneLoop => 16,
        Workload::WideMap => 32,
        Workload::FleetFaults => 4,
    };
    Ok(Plan {
        workload,
        dataset,
        profiles,
        inputs: Inputs::interleave(streams),
        agents,
        seed_base,
        vo_samples,
        block,
    })
}

/// Both map slots. `drone-loop` and `fleet-faults` arbitrate them with
/// the tracking-regime multi-signal gate (a spread band with innovation
/// and ESS rescues to the digital slot). `wide-map` serves every frame
/// on the pruned digital GMM: under the gate its frame times split into
/// a digital and an analog mode, and `frame_ms_p50` moved 13 % with each
/// seed's digital share. Its CIM kernel is timed by the analog replay.
fn gate(workload: Workload) -> GateConfig {
    let backends = vec![DIGITAL_GMM.into(), CIM_HMGM.into()];
    if workload == Workload::WideMap {
        return GateConfig {
            backends,
            policy: GateKind::Always(DIGITAL_SLOT),
        };
    }
    GateConfig {
        backends,
        policy: GateKind::MultiSignal(MultiSignalConfig {
            spread: HysteresisConfig {
                analog_enter: 0.10,
                digital_enter: 0.14,
                dwell: 2,
                start: DIGITAL_SLOT,
            },
            innovation_wake: -5.0,
            ess_wake: 0.02,
        }),
    }
}

fn localizer_config(plan: &Plan) -> LocalizerConfig {
    let (num_particles, pixel_stride, components, prune) = match plan.workload {
        Workload::DroneLoop => (300, 9, 16, PruneConfig::default()),
        Workload::WideMap => (128, 3, 32, PruneConfig::enabled()),
        Workload::FleetFaults => (64, 7, 8, PruneConfig::default()),
    };
    LocalizerConfig {
        num_particles,
        pixel_stride,
        components,
        prune,
        init_spread: 0.1,
        init_yaw_spread: 0.05,
        cim: CimEngineConfig {
            dac_bits: 6,
            adc_bits: 6,
            variation_severity: 0.3,
            noise_bandwidth: 1e7,
            ..CimEngineConfig::default()
        },
        gate: gate(plan.workload),
        seed: SCENE_SEED,
        ..LocalizerConfig::default()
    }
}

fn safe_mode() -> SafeModeConfig {
    SafeModeConfig {
        detector: FaultDetectorConfig {
            drift: 4.0,
            threshold: 60.0,
            warmup: 3,
        },
        hold_frames: 3,
        recovery_innovation: -1.0,
    }
}

/// Trains the VO regressor, calibrates the adaptive MC band on the
/// training features and wraps both in a [`VoStage`].
fn vo_stage(plan: &Plan) -> Result<VoStage, String> {
    let (gw, gh) = VO_GRID;
    let net = train_vo_network(
        &plan.vo_samples,
        3 * gw * gh,
        &VoTrainConfig {
            hidden1: 48,
            hidden2: 24,
            epochs: 300,
            seed: SCENE_SEED,
            ..VoTrainConfig::default()
        },
    )
    .map_err(|e| format!("vo training: {e}"))?;
    let calib: Vec<Vec<f64>> = plan
        .vo_samples
        .iter()
        .take(8)
        .map(|s| s.features.clone())
        .collect();
    let vo = BayesianVo::build(
        &net,
        &calib,
        VoPipelineConfig {
            mc_iterations: MC_MAX,
            ..VoPipelineConfig::default()
        },
    )
    .map_err(|e| format!("vo build: {e}"))?;
    // The adaptive band straddles the variance the full-depth predictor
    // shows on the training frames: shallow at or below p75, full depth
    // again at p90.
    let mut probe = vo.clone();
    let mut pred = McPrediction::default();
    let mut vars: Vec<f64> = plan
        .vo_samples
        .iter()
        .map(|s| {
            probe.predict_n_into(&s.features, MC_MAX, &mut pred);
            pred.total_logit_variance()
                .unwrap_or_else(|| pred.total_variance())
        })
        .collect();
    vars.sort_by(f64::total_cmp);
    let var_low = vars[vars.len() * 3 / 4];
    let p90 = vars[vars.len() * 9 / 10];
    let var_high = if p90 > var_low {
        p90
    } else {
        var_low * 1.5 + 1e-12
    };
    let policy = AdaptiveMcPolicy::new(AdaptiveMcConfig {
        min_iterations: MC_MIN,
        max_iterations: MC_MAX,
        var_low,
        var_high,
        dwell: 2,
    })
    .map_err(|e| format!("adaptive mc policy: {e}"))?;
    VoStage::new(
        vo,
        policy,
        &plan.dataset.camera,
        &plan.dataset.frames[0].depth,
        gw,
        gh,
    )
    .map_err(|e| format!("vo stage: {e}"))
}

/// Set-up: builds the pristine prototype every session is forked from.
///
/// # Errors
///
/// Reports map-fit, CIM-programming, VO-training or configuration
/// failures.
pub fn build_prototype(plan: &Plan) -> Result<LocalizationPipeline, String> {
    let mut pipeline = LocalizationPipeline::build(&plan.dataset, localizer_config(plan))
        .map_err(|e| format!("pipeline build: {e}"))?;
    if plan.workload != Workload::WideMap {
        pipeline = pipeline
            .with_safe_mode(safe_mode())
            .map_err(|e| format!("safe mode: {e}"))?;
    }
    pipeline = pipeline
        .with_noise_inflation(
            NoiseInflation::new(0.0, 1.0, 6.0).map_err(|e| format!("inflation: {e}"))?,
        )
        .map_err(|e| format!("inflation: {e}"))?;
    if plan.workload == Workload::DroneLoop {
        pipeline = pipeline.with_vo(vo_stage(plan)?);
    }
    Ok(pipeline)
}
