//! Fleet-serving determinism: every session served by a [`Fleet`] must
//! be bit-identical to running that session's pipeline alone, for any
//! worker count — including zero (clamped to one), counts that split the
//! agents into uneven chunks, and more workers than agents.
//!
//! This is the serving layer's whole contract: a fleet round only
//! decides which thread steps which session, never what a step computes.

use navicim::core::localization::LocalizerConfig;
use navicim::core::pipeline::{
    FaultDetectorConfig, FrameReport, GateConfig, HysteresisConfig, LocalizationPipeline,
    SafeModeConfig,
};
use navicim::core::registry::{CIM_HMGM, DIGITAL_GMM};
use navicim::math::geom::Pose;
use navicim::scene::camera::DepthImage;
use navicim::scene::dataset::{LocalizationConfig, LocalizationDataset};
use navicim::serve::{Fleet, FleetConfig};

fn dataset() -> LocalizationDataset {
    LocalizationDataset::generate(
        &LocalizationConfig {
            image_width: 24,
            image_height: 18,
            map_points: 600,
            frames: 6,
            ..LocalizationConfig::default()
        },
        11,
    )
    .expect("dataset generates")
}

fn config() -> LocalizerConfig {
    LocalizerConfig {
        num_particles: 120,
        pixel_stride: 7,
        components: 8,
        // A gated digital+analog pair so sessions migrate between slots
        // and consume their analog noise streams only on analog frames.
        gate: GateConfig::gated(DIGITAL_GMM, CIM_HMGM).with_hysteresis(HysteresisConfig {
            analog_enter: 0.12,
            digital_enter: 0.2,
            dwell: 2,
            start: 0,
        }),
        seed: 5,
        ..LocalizerConfig::default()
    }
}

/// Five agents: 2 and 3 workers split them into uneven chunks, and 8
/// workers outnumber them.
const AGENTS: usize = 5;
/// Worker counts every fleet test sweeps.
const WORKERS: [usize; 5] = [0, 1, 2, 3, 8];
const SEED_BASE: u64 = 1000;

/// Per-session solo runs: the parity baseline every fleet mode must hit.
fn solo_reports(
    prototype: &LocalizationPipeline,
    ds: &LocalizationDataset,
) -> Vec<Vec<FrameReport>> {
    (0..AGENTS)
        .map(|i| {
            let mut session = prototype
                .fork_session(SEED_BASE + i as u64)
                .expect("fork succeeds");
            session.run(ds).expect("solo run succeeds").frames
        })
        .collect()
}

#[test]
fn fleet_is_bit_identical_to_solo_runs_across_schedules() {
    let ds = dataset();
    let prototype = LocalizationPipeline::build(&ds, config()).expect("prototype builds");
    let solo = solo_reports(&prototype, &ds);
    for workers in WORKERS {
        let mut fleet = Fleet::new(&prototype, AGENTS, SEED_BASE, FleetConfig { workers })
            .expect("fleet builds");
        let reports = fleet.run(&ds).expect("fleet run succeeds");
        assert_eq!(
            reports, solo,
            "fleet diverged from solo runs (workers={workers})"
        );
    }
}

#[test]
fn fleet_sessions_commit_solo_backend_stats() {
    // Each session's evaluations land in its own backend stats exactly
    // as a solo run books them, on threaded rounds too.
    let ds = dataset();
    let prototype = LocalizationPipeline::build(&ds, config()).expect("prototype builds");
    let mut fleet = Fleet::new(&prototype, AGENTS, SEED_BASE, FleetConfig { workers: 2 })
        .expect("fleet builds");
    fleet.run(&ds).expect("fleet run succeeds");
    for i in 0..AGENTS {
        let mut solo = prototype
            .fork_session(SEED_BASE + i as u64)
            .expect("fork succeeds");
        solo.run(&ds).expect("solo run succeeds");
        for slot in 0..solo.num_backends() {
            assert_eq!(
                fleet.session(i).backend(slot).stats(),
                solo.backend(slot).stats(),
                "session {i} slot {slot} stats diverged"
            );
        }
    }
}

const SWEEP_FRAMES: usize = 16;
const FAULT_WINDOW: std::ops::Range<usize> = 8..11;

/// A clean wrap-consistent frame stream for the sweep: the scenario
/// layer's looping cursor gives more rounds than the dataset has frames
/// without the odometry discontinuity a naive replay would inject.
fn sweep_frames(ds: &LocalizationDataset) -> Vec<navicim::scenario::ScenarioFrame> {
    let script = navicim::scenario::ScenarioScript::clean("fleet-sweep", SWEEP_FRAMES);
    navicim::scenario::ScenarioStream::new(ds, &script)
        .expect("stream builds")
        .collect()
}

/// Drives a fleet through the clean stream with per-agent inputs:
/// `faulted` agents receive a fully blind depth image on the frames in
/// [`FAULT_WINDOW`], everyone else flies clean.
fn run_faulted_sweep(
    prototype: &LocalizationPipeline,
    ds: &LocalizationDataset,
    config: FleetConfig,
    faulted: &[usize],
) -> Vec<Vec<FrameReport>> {
    let blind = DepthImage::new(ds.frames[0].depth.width(), ds.frames[0].depth.height());
    let mut fleet = Fleet::new(prototype, AGENTS, SEED_BASE, config).expect("fleet builds");
    let mut per_agent: Vec<Vec<FrameReport>> = (0..AGENTS).map(|_| Vec::new()).collect();
    for f in sweep_frames(ds) {
        let depths: Vec<DepthImage> = (0..AGENTS)
            .map(|i| {
                if faulted.contains(&i) && FAULT_WINDOW.contains(&f.frame) {
                    blind.clone()
                } else {
                    f.depth.clone()
                }
            })
            .collect();
        let controls_each: Vec<Pose> = vec![f.control; AGENTS];
        let truths: Vec<Pose> = vec![f.truth; AGENTS];
        let reports = fleet
            .step_round_each(&controls_each, &depths, &truths)
            .expect("per-agent round succeeds");
        for (i, r) in reports.iter().enumerate() {
            per_agent[i].push(r.clone());
        }
    }
    per_agent
}

/// The parity baseline: one agent's solo replay of the same sweep.
fn solo_sweep(
    prototype: &LocalizationPipeline,
    ds: &LocalizationDataset,
    agent: usize,
    faulted: bool,
) -> Vec<FrameReport> {
    let blind = DepthImage::new(ds.frames[0].depth.width(), ds.frames[0].depth.height());
    let mut session = prototype
        .fork_session(SEED_BASE + agent as u64)
        .expect("fork succeeds");
    sweep_frames(ds)
        .into_iter()
        .map(|f| {
            let depth = if faulted && FAULT_WINDOW.contains(&f.frame) {
                &blind
            } else {
                &f.depth
            };
            session
                .step(&f.control, depth, f.truth)
                .expect("solo step succeeds")
        })
        .collect()
}

#[test]
fn per_agent_faults_stay_isolated_in_fleet_rounds() {
    let ds = dataset();
    let prototype = LocalizationPipeline::build(&ds, config())
        .expect("prototype builds")
        .with_safe_mode(SafeModeConfig {
            // Tuned above the clean-flight wobble on this tiny config:
            // slot-migration transients legitimately swing the
            // innovation by ~±20, while a blind frame reads ~-1000.
            detector: FaultDetectorConfig {
                drift: 4.0,
                threshold: 50.0,
                warmup: 2,
            },
            hold_frames: 2,
            recovery_innovation: -1.0,
        })
        .expect("safe mode arms");
    const FAULTED: usize = 1;
    let solo: Vec<Vec<FrameReport>> = (0..AGENTS)
        .map(|i| solo_sweep(&prototype, &ds, i, i == FAULTED))
        .collect();

    // The faulted agent noticed: its detector latched and safe mode
    // engaged. Its neighbors never did.
    assert!(
        solo[FAULTED].iter().any(|r| r.safe_mode),
        "faulted agent never entered safe mode"
    );
    for (i, reports) in solo.iter().enumerate() {
        if i != FAULTED {
            assert!(
                reports.iter().all(|r| !r.fault_active && !r.safe_mode),
                "clean agent {i} raised a fault alarm"
            );
        }
    }

    // Isolation: for every worker count, every agent — including the
    // faulted one — is bit-identical to its solo replay of the same
    // per-agent inputs; a neighbor's fault leaks nothing.
    for workers in WORKERS {
        let fleet_reports = run_faulted_sweep(&prototype, &ds, FleetConfig { workers }, &[FAULTED]);
        for i in 0..AGENTS {
            assert_eq!(
                fleet_reports[i], solo[i],
                "agent {i} diverged from solo (workers={workers})"
            );
        }
    }
}

#[test]
fn step_round_each_rejects_mismatched_input_lengths() {
    let ds = dataset();
    let prototype = LocalizationPipeline::build(&ds, config()).expect("prototype builds");
    let mut fleet =
        Fleet::new(&prototype, AGENTS, SEED_BASE, FleetConfig::default()).expect("fleet builds");
    let controls = ds.control_deltas();
    let short_controls = vec![controls[0]; AGENTS - 1];
    let depths = vec![ds.frames[1].depth.clone(); AGENTS];
    let truths = vec![ds.frames[1].pose; AGENTS];
    let err = fleet
        .step_round_each(&short_controls, &depths, &truths)
        .expect_err("length mismatch must be rejected");
    assert!(err.to_string().contains("per-agent round"));
}

#[test]
fn fleet_latencies_are_recorded_per_round() {
    // Service time is each agent's own step: never zero, and on the
    // inline single-worker round the agents' times cannot add up to
    // more than the round itself.
    let ds = dataset();
    let prototype = LocalizationPipeline::build(&ds, config()).expect("prototype builds");
    let mut fleet =
        Fleet::new(&prototype, AGENTS, SEED_BASE, FleetConfig::default()).expect("fleet builds");
    assert_eq!(fleet.config().workers, 1);
    let controls = ds.control_deltas();
    let t0 = std::time::Instant::now();
    fleet
        .step_round(&controls[0], &ds.frames[1].depth, ds.frames[1].pose)
        .expect("round succeeds");
    let round_ns = t0.elapsed().as_nanos() as u64;
    let service = fleet.last_service_ns();
    assert_eq!(service.len(), AGENTS);
    assert!(service.iter().all(|&ns| ns > 0), "{service:?}");
    assert!(
        service.iter().sum::<u64>() <= round_ns,
        "service {service:?} exceeds the {round_ns} ns round"
    );
}
