//! Ablation: the fault-injection robustness matrix — detection,
//! safe-mode response, and recovery under scripted sensor and world
//! faults.
//!
//! Every other ablation measures the pipeline on a clean synthetic
//! flight. This one runs the scenario matrix from `navicim-scenario`
//! against the innovation-CUSUM fault detector and the safe-mode
//! response (`LocalizationPipeline::with_safe_mode`): sensor blackout,
//! kidnapped-robot teleports, stuck-value and adversarial spoof faults,
//! low-texture stretches, plus a long drift run and a fleet sweep in
//! which a subset of agents is faulted mid-flight. Each scenario is
//! graded on the spot — bounded detection delay, zero false alarms on
//! clean flight, post-recovery re-convergence, and fleet fault
//! isolation (untouched agents bit-identical to their solo runs) — and
//! a MISMATCH exits non-zero so CI fails on a robustness regression,
//! not just on a crash.
//!
//! Run: `cargo run --release -p navicim-bench --bin abl_robustness`
//!
//! Flags:
//! - `--frames N` — scenario flight length (default 48),
//! - `--drift-frames N` — drift-run length (default 1000),
//! - `--smoke` — CI preset (36-frame scenarios, 220-frame drift run),
//! - `--csv PATH` — write the blackout scenario's per-frame log
//!   (schema v3: `nees`, `fault_active`, `safe_mode` columns) as CSV.

use navicim_analog::engine::CimEngineConfig;
use navicim_core::localization::LocalizerConfig;
use navicim_core::pipeline::{
    FaultDetectorConfig, FrameReport, GateConfig, HysteresisConfig, LocalizationPipeline,
    NoiseInflation, PipelineRun, SafeModeConfig, DIGITAL_SLOT,
};
use navicim_core::registry::{CIM_HMGM, DIGITAL_GMM};
use navicim_core::reportfmt::Table;
use navicim_math::geom::Pose;
use navicim_scenario::{
    run_scenario, FaultEvent, FaultKind, ScenarioOutcome, ScenarioScript, ScenarioStream,
};
use navicim_scene::camera::DepthImage;
use navicim_scene::dataset::LocalizationDataset;
use navicim_serve::{Fleet, FleetConfig};

/// Frame every scenario's first (or only) fault lands on: late enough
/// that the detector's per-slot innovation trackers are warm and the
/// cloud has settled into steady-state tracking.
const FAULT_AT: usize = 20;
/// Session seed shared by every scenario fork, so the pre-fault prefix
/// of each run is bit-identical to the clean run's.
const SESSION_SEED: u64 = 0xFA_017;
/// Fleet sweep shape.
const AGENTS: usize = 3;
const FAULTED_AGENT: usize = 1;
const FLEET_SEED_BASE: u64 = 4100;

/// A densely-sampled orbit (48 poses on the standard 1.8 m circle, so
/// one frame step is ~0.24 m): dense enough that a one-frame
/// [`FaultKind::Teleport`] is a kidnap the widened safe-mode proposal
/// can genuinely re-acquire from, rather than a half-metre jump no
/// local filter recovers without global relocalization.
fn dataset() -> LocalizationDataset {
    LocalizationDataset::generate(
        &navicim_scene::dataset::LocalizationConfig {
            image_width: 32,
            image_height: 24,
            map_points: 1200,
            frames: 48,
            ..navicim_scene::dataset::LocalizationConfig::default()
        },
        navicim_bench::SEED,
    )
    .expect("robustness dataset generates")
}

/// The tracking regime: a decent takeoff prior and dense-enough scans,
/// arbitrated digital↔analog by the spread hysteresis gate — the
/// operating point the fault matrix should disturb and safe mode must
/// defend.
fn localizer_config() -> LocalizerConfig {
    LocalizerConfig {
        num_particles: 300,
        pixel_stride: 7,
        components: 8,
        init_spread: 0.1,
        init_yaw_spread: 0.05,
        cim: CimEngineConfig {
            dac_bits: 6,
            adc_bits: 6,
            variation_severity: 0.3,
            noise_bandwidth: 1e7,
            ..CimEngineConfig::default()
        },
        gate: GateConfig::gated(DIGITAL_GMM, CIM_HMGM).with_hysteresis(HysteresisConfig {
            analog_enter: 0.10,
            digital_enter: 0.14,
            dwell: 2,
            start: DIGITAL_SLOT,
        }),
        seed: 5,
        ..LocalizerConfig::default()
    }
}

/// CUSUM tuning: clean-flight innovations on this regime wobble by a
/// couple of tens of nats across slot migrations, while any of the
/// matrix faults drags the mean log-likelihood hundreds of nats below
/// trend — so the detector sits an order of magnitude above the clean
/// wobble and still fires within a frame or two of onset.
fn safe_mode_config() -> SafeModeConfig {
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

/// Safe-mode noise response: gain 0 pins clean frames at the 1.0x
/// floor (no VO stage rides along here), while the safe-mode override
/// clamps to the 3x ceiling — the widened proposal a kidnapped or
/// blinded cloud needs to re-acquire.
fn safe_inflation() -> NoiseInflation {
    NoiseInflation::new(0.0, 1.0, 6.0).expect("valid inflation bounds")
}

/// The armed prototype every scenario forks its session from.
fn build_prototype(ds: &LocalizationDataset) -> LocalizationPipeline {
    LocalizationPipeline::build(ds, localizer_config())
        .expect("prototype builds")
        .with_safe_mode(safe_mode_config())
        .expect("safe mode arms")
        .with_noise_inflation(safe_inflation())
        .expect("inflation validates")
}

fn run_script(
    prototype: &LocalizationPipeline,
    ds: &LocalizationDataset,
    script: &ScenarioScript,
) -> ScenarioOutcome {
    let mut session = prototype.fork_session(SESSION_SEED).expect("session forks");
    run_scenario(&mut session, ds, script)
        .unwrap_or_else(|e| panic!("scenario '{}' runs: {e}", script.name))
}

/// The scenario matrix (everything except the long drift run).
fn matrix_scripts(frames: usize) -> Vec<ScenarioScript> {
    vec![
        ScenarioScript::clean("clean", frames),
        ScenarioScript::clean("blackout", frames).with_event(FaultEvent {
            at_frame: FAULT_AT,
            duration: 3,
            kind: FaultKind::Dropout { fraction: 1.0 },
        }),
        ScenarioScript::clean("kidnap", frames).with_event(FaultEvent {
            at_frame: FAULT_AT,
            duration: 1,
            kind: FaultKind::Teleport { skip: 2 },
        }),
        ScenarioScript::clean("stuck", frames).with_event(FaultEvent {
            at_frame: FAULT_AT,
            duration: 3,
            kind: FaultKind::StuckValue { depth_m: 2.5 },
        }),
        ScenarioScript::clean("spoof", frames).with_event(FaultEvent {
            at_frame: FAULT_AT,
            duration: 3,
            kind: FaultKind::Spoof {
                depth_m: 0.5,
                fraction: 0.9,
            },
        }),
        ScenarioScript::clean("low-texture", frames).with_event(FaultEvent {
            at_frame: FAULT_AT,
            duration: 2,
            kind: FaultKind::LowTexture,
        }),
    ]
}

/// Post-fault tail length the re-convergence claims average over.
const TAIL: usize = 8;
/// False-alarm grace after a fault window: the latched alarm
/// legitimately persists through the dwell-gated recovery.
const GRACE: usize = 12;

struct ScenarioGrade {
    name: String,
    outcome: ScenarioOutcome,
    delay: Option<usize>,
    ok: bool,
    verdict: String,
}

/// Grades one scenario against the matrix claims. `clean_tail` is the
/// clean run's tail error — the re-convergence yardstick.
fn grade(outcome: ScenarioOutcome, clean_tail: f64) -> ScenarioGrade {
    let name = outcome.name.clone();
    let delay = outcome.detection_delays().first().copied().flatten();
    let false_alarms = outcome.false_alarm_frames(GRACE);
    let tail_err = outcome.mean_tail_error(TAIL);
    let nees_finite = outcome.reports.iter().all(|r| r.nees.is_finite());
    let recovered = outcome
        .reports
        .iter()
        .rev()
        .take(4)
        .all(|r| !r.safe_mode && !r.fault_active);
    let (ok, verdict) = match name.as_str() {
        "clean" => {
            let ok = false_alarms == 0 && outcome.safe_mode_frames() == 0 && nees_finite;
            (ok, "zero false alarms".to_string())
        }
        // Sensor faults: detected within 3 frames of onset (the fault
        // reaches the innovation bus one frame after it first blinds a
        // likelihood), safe mode engaged and exited, tail re-converged.
        "blackout" | "stuck" | "spoof" => {
            let detected = delay.is_some_and(|d| d <= 3);
            let responded = outcome.safe_mode_frames() >= 2;
            let reconverged = tail_err <= (clean_tail * 3.0).max(0.12);
            let ok = detected
                && responded
                && recovered
                && reconverged
                && false_alarms == 0
                && nees_finite;
            (
                ok,
                format!(
                    "detect<=3 recover tail<={:.3}",
                    (clean_tail * 3.0).max(0.12)
                ),
            )
        }
        // The kidnapped robot: a world-side fault (one poisoned frame),
        // so detection rides the post-teleport mismatch and recovery
        // includes genuine re-acquisition — the delay and tail bounds
        // are looser.
        "kidnap" => {
            let detected = delay.is_some_and(|d| d <= 5);
            let responded = outcome.safe_mode_frames() >= 2;
            let reconverged = tail_err <= (clean_tail * 5.0).max(0.2);
            let ok = detected && responded && recovered && reconverged && nees_finite;
            (
                ok,
                format!("detect<=5 recover tail<={:.3}", (clean_tail * 5.0).max(0.2)),
            )
        }
        // A low-texture stretch degrades rather than breaks the
        // likelihood; the claim is benign handling — whether or not the
        // detector fires, the pipeline must exit any safe mode it
        // entered and re-converge.
        "low-texture" => {
            let reconverged = tail_err <= (clean_tail * 5.0).max(0.2);
            let ok = recovered && reconverged && false_alarms == 0 && nees_finite;
            (
                ok,
                format!("recover tail<={:.3}", (clean_tail * 5.0).max(0.2)),
            )
        }
        other => (false, format!("unknown scenario {other}")),
    };
    ScenarioGrade {
        name,
        outcome,
        delay,
        ok,
        verdict,
    }
}

/// The fleet sweep: one agent flies the blackout window while its
/// neighbors fly clean, all in the same fleet rounds. Returns
/// `(per-agent reports, solo replays, ok)`.
fn fleet_sweep(
    prototype: &LocalizationPipeline,
    ds: &LocalizationDataset,
    frames: usize,
) -> (Vec<Vec<FrameReport>>, bool) {
    let window = FAULT_AT..FAULT_AT + 3;
    let script = ScenarioScript::clean("fleet", frames);
    let stream: Vec<_> = ScenarioStream::new(ds, &script)
        .expect("stream builds")
        .collect();
    let blind = DepthImage::new(ds.frames[0].depth.width(), ds.frames[0].depth.height());

    let mut fleet = Fleet::new(prototype, AGENTS, FLEET_SEED_BASE, FleetConfig::default())
        .expect("fleet builds");
    let mut per_agent: Vec<Vec<FrameReport>> = (0..AGENTS).map(|_| Vec::new()).collect();
    for f in &stream {
        let depths: Vec<DepthImage> = (0..AGENTS)
            .map(|i| {
                if i == FAULTED_AGENT && window.contains(&f.frame) {
                    blind.clone()
                } else {
                    f.depth.clone()
                }
            })
            .collect();
        let controls: Vec<Pose> = vec![f.control; AGENTS];
        let truths: Vec<Pose> = vec![f.truth; AGENTS];
        let reports = fleet
            .step_round_each(&controls, &depths, &truths)
            .expect("fleet round succeeds");
        for (i, r) in reports.iter().enumerate() {
            per_agent[i].push(r.clone());
        }
    }

    // Solo replays with identical per-agent inputs: the isolation
    // baseline.
    let mut ok = true;
    for i in 0..AGENTS {
        let mut session = prototype
            .fork_session(FLEET_SEED_BASE + i as u64)
            .expect("solo fork succeeds");
        let solo: Vec<FrameReport> = stream
            .iter()
            .map(|f| {
                let depth = if i == FAULTED_AGENT && window.contains(&f.frame) {
                    &blind
                } else {
                    &f.depth
                };
                session
                    .step(&f.control, depth, f.truth)
                    .expect("solo step succeeds")
            })
            .collect();
        if per_agent[i] != solo {
            eprintln!("fleet agent {i} diverged from its solo replay");
            ok = false;
        }
    }
    let faulted_responded = per_agent[FAULTED_AGENT].iter().any(|r| r.safe_mode);
    let neighbors_clean = (0..AGENTS)
        .filter(|&i| i != FAULTED_AGENT)
        .all(|i| per_agent[i].iter().all(|r| !r.fault_active && !r.safe_mode));
    (per_agent, ok && faulted_responded && neighbors_clean)
}

struct Args {
    frames: usize,
    drift_frames: usize,
    csv: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        frames: 48,
        drift_frames: 1000,
        csv: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--frames" => {
                let v = it.next().expect("--frames needs a value");
                args.frames = v.parse().expect("--frames value must be an integer");
            }
            "--drift-frames" => {
                let v = it.next().expect("--drift-frames needs a value");
                args.drift_frames = v.parse().expect("--drift-frames value must be an integer");
            }
            "--smoke" => {
                args.frames = 40;
                args.drift_frames = 220;
            }
            "--csv" => args.csv = Some(it.next().expect("--csv needs a path")),
            other => panic!(
                "unknown argument {other} (expected --frames N / --drift-frames N / --smoke / \
                 --csv PATH)"
            ),
        }
    }
    assert!(
        args.frames >= FAULT_AT + 16,
        "--frames must leave at least 16 frames after the fault at {FAULT_AT}"
    );
    assert!(args.drift_frames >= 64, "--drift-frames must be >= 64");
    args
}

fn main() {
    let args = parse_args();
    println!("# Ablation — fault-injection robustness matrix\n");
    let sm = safe_mode_config();
    println!(
        "scenarios: {} frames, faults at frame {FAULT_AT}; CUSUM drift {} threshold {} warmup \
         {}; safe mode: hold {} frames, recovery innovation >= {}, noise ceiling {:.1}x\n",
        args.frames,
        sm.detector.drift,
        sm.detector.threshold,
        sm.detector.warmup,
        sm.hold_frames,
        sm.recovery_innovation,
        safe_inflation().ceiling,
    );
    let ds = dataset();
    let prototype = build_prototype(&ds);

    // ── The scenario matrix ───────────────────────────────────────────
    let mut grades = Vec::new();
    let mut clean_tail = f64::NAN;
    for script in matrix_scripts(args.frames) {
        let outcome = run_script(&prototype, &ds, &script);
        if script.name == "clean" {
            clean_tail = outcome.mean_tail_error(TAIL);
        }
        grades.push(grade(outcome, clean_tail));
    }

    let mut table = Table::new(vec![
        "scenario",
        "injected",
        "detect delay",
        "safe frames",
        "false alarms",
        "tail err (m)",
        "tail nees",
        "claim",
        "verdict",
    ]);
    for g in &grades {
        table.row(vec![
            g.name.clone(),
            format!("{}", g.outcome.injected.iter().filter(|&&f| f).count()),
            g.delay.map_or("-".into(), |d| format!("{d}")),
            format!("{}", g.outcome.safe_mode_frames()),
            format!("{}", g.outcome.false_alarm_frames(GRACE)),
            format!("{:.4}", g.outcome.mean_tail_error(TAIL)),
            format!("{:.1}", g.outcome.mean_tail_nees(TAIL)),
            g.verdict.clone(),
            if g.ok {
                "ok".into()
            } else {
                "MISMATCH".to_string()
            },
        ]);
    }
    println!("## scenario matrix\n{table}");

    // ── The long drift run: a clean orbit looped far past the dataset
    // length must stay converged with a silent detector ───────────────
    let drift_script = ScenarioScript::clean("drift", args.drift_frames);
    let drift = run_script(&prototype, &ds, &drift_script);
    let drift_tail = drift.mean_tail_error(args.drift_frames / 8);
    let drift_alarms = drift.false_alarm_frames(0);
    let drift_nees_finite = drift.reports.iter().all(|r| r.nees.is_finite());
    let drift_ok = drift_alarms == 0
        && drift.safe_mode_frames() == 0
        && drift_tail <= (clean_tail * 3.0).max(0.12)
        && drift_nees_finite;
    println!(
        "drift run: {} frames over a {}-frame orbit, tail error {:.4} m (clean {:.4} m), {} \
         false alarms, {} safe-mode frames -> {}",
        args.drift_frames,
        ds.frames.len(),
        drift_tail,
        clean_tail,
        drift_alarms,
        drift.safe_mode_frames(),
        if drift_ok {
            "SHAPE REPRODUCED"
        } else {
            "MISMATCH"
        }
    );

    // ── The fleet sweep: fleet rounds isolate a faulted agent ─────────
    let (per_agent, fleet_ok) = fleet_sweep(&prototype, &ds, args.frames);
    let faulted_safe = per_agent[FAULTED_AGENT]
        .iter()
        .filter(|r| r.safe_mode)
        .count();
    println!(
        "fleet sweep: {AGENTS} agents in fleet rounds, agent {FAULTED_AGENT} blinded for 3 frames; \
         faulted agent spent {faulted_safe} frames in safe mode, neighbors untouched and \
         bit-identical to solo runs -> {}",
        if fleet_ok {
            "SHAPE REPRODUCED"
        } else {
            "MISMATCH"
        }
    );

    let matrix_ok = grades.iter().all(|g| g.ok);
    println!(
        "\nscenario matrix: {}/{} scenarios within claim -> {}",
        grades.iter().filter(|g| g.ok).count(),
        grades.len(),
        if matrix_ok {
            "SHAPE REPRODUCED"
        } else {
            "MISMATCH"
        }
    );

    if let Some(path) = &args.csv {
        let blackout = grades
            .iter()
            .find(|g| g.name == "blackout")
            .expect("blackout scenario present");
        let run = PipelineRun {
            backends: prototype.backend_names().to_vec(),
            gate: "hysteresis+safe-mode".into(),
            vo_policy: None,
            frames: blackout.outcome.reports.clone(),
            stats: Vec::new(),
        };
        let csv = run.to_csv();
        std::fs::write(path, csv.to_string()).expect("csv log writes");
        println!("wrote {} blackout frame-log rows to {path}", csv.len());
    }

    if !(matrix_ok && drift_ok && fleet_ok) {
        std::process::exit(1);
    }
}
