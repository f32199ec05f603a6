//! The navicim benchmark: one workload per invocation, single process,
//! single thread.
//!
//! ```text
//! perfbench --workload <drone-loop|wide-map|fleet-faults> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` times the untraced program and prints the end-to-end
//! metrics. `--trace 1` wraps spans around the public calls into each
//! layer and prints the per-layer metrics. Both modes check the outputs
//! (see `README.md`) and print, as the last line of standard output, one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`. A failed
//! correctness gate exits with code 1, bad arguments or a set-up error
//! with code 2.

mod measure;
mod trace;
mod workload;

use measure::{mean, median, percentile};
use navicim_backend::PointBatch;
use navicim_core::pipeline::{FrameReport, LocalizationPipeline, ANALOG_SLOT};
use navicim_core::registry::{MapBackend, CIM_HMGM};
use navicim_math::geom::Pose;
use navicim_nn::mc::McPrediction;
use navicim_serve::{Fleet, FleetConfig};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;
use trace::Tracer;
use workload::{Plan, Workload};

#[global_allocator]
static HEAP: measure::HeapCounter = measure::HeapCounter::new();

/// Set-up repetitions per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Bytes per MB in the memory metrics.
const MIB: f64 = (1u64 << 20) as f64;
/// Sessions per episode of a traced single-pipeline pass.
const TRACED_SESSIONS: usize = 4;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(&name).ok_or(format!(
                    "unknown workload '{name}' (expected drone-loop, wide-map or fleet-faults)"
                ))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got '{other}'")),
                }
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace,
    })
}

/// FNV-1a over the report's `Debug` text. `Debug` prints every float in
/// its shortest round-trip form, so equal digests mean bit-equal
/// reports, and fields added to [`FrameReport`] later are covered
/// without touching this function.
fn digest(report: &FrameReport) -> u64 {
    format!("{report:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

fn pose_finite(p: &Pose) -> bool {
    let (t, q) = (p.translation, p.rotation);
    [t.x, t.y, t.z, q.w, q.x, q.y, q.z]
        .iter()
        .all(|v| v.is_finite())
}

/// Every float a report carries is finite.
fn report_finite(r: &FrameReport) -> bool {
    let s = &r.summary;
    let scalars = [
        r.signals.spread,
        r.signals.ess_fraction,
        r.noise_scale,
        s.error,
        s.spread,
        s.ess,
        r.nees,
        r.map_energy_pj,
    ];
    scalars.iter().all(|v| v.is_finite())
        && r.signals.innovation.is_none_or(f64::is_finite)
        && r.signals.vo_variance.is_none_or(f64::is_finite)
        && pose_finite(&s.estimate)
        && pose_finite(&r.truth)
        && r.vo.is_none_or(|v| {
            v.variance.is_finite() && v.energy_pj.is_finite() && pose_finite(&v.delta)
        })
}

/// Frame reports of one episode, one vector per agent.
type Episode = Vec<Vec<FrameReport>>;

/// Correctness gates. Every failure is kept, printed and turns the run's
/// `correct` flag off.
#[derive(Default)]
struct Gates {
    failures: Vec<String>,
}

impl Gates {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok && self.failures.len() < 32 {
            self.failures.push(what());
        }
    }

    /// `got` must be bit-identical to `want`, agent by agent and frame by
    /// frame. A truncated episode compares on its prefix.
    fn identical(&mut self, label: &str, want: &[Vec<u64>], got: &Episode) {
        for (agent, (w, g)) in want.iter().zip(got).enumerate() {
            let first_diff = w.iter().zip(g).position(|(wd, gr)| *wd != digest(gr));
            self.check(first_diff.is_none() && g.len() <= w.len(), || {
                format!(
                    "{label}: agent {agent} differs from the reference at frame {}",
                    first_diff.unwrap_or(w.len())
                )
            });
        }
    }
}

fn digests(episode: &Episode) -> Vec<Vec<u64>> {
    episode
        .iter()
        .map(|a| a.iter().map(digest).collect())
        .collect()
}

/// Checks the reference episode itself: complete and finite, no alarm on
/// a clean session, and safe mode on at least half the sessions of every
/// script that must alarm.
fn check_episode(gates: &mut Gates, plan: &Plan, episode: &Episode) {
    let frames = plan.episode_frames();
    let mut alarmed: BTreeMap<&str, (usize, usize)> = BTreeMap::new();
    for (i, (agent, reports)) in plan.agents.iter().zip(episode).enumerate() {
        let profile = &plan.profiles[agent.profile];
        gates.check(reports.len() == frames, || {
            format!("agent {i}: {} of {frames} frames completed", reports.len())
        });
        gates.check(reports.iter().all(report_finite), || {
            format!("agent {i}: a report carries a non-finite value")
        });
        let safe = reports.iter().any(|r| r.safe_mode);
        if profile.must_alarm {
            let (entered, sessions) = alarmed.entry(profile.name).or_default();
            *entered += usize::from(safe);
            *sessions += 1;
        } else if !profile.faulted {
            gates.check(!safe && !reports.iter().any(|r| r.fault_active), || {
                format!("agent {i} ({}) raised a false fault alarm", profile.name)
            });
        }
    }
    for (name, (entered, sessions)) in alarmed {
        println!("# safe mode entered by {entered} of {sessions} {name} sessions");
        gates.check(2 * entered >= sessions, || {
            format!("only {entered} of {sessions} {name} sessions entered safe mode")
        });
    }
}

/// Timing of the untraced path.
#[derive(Default)]
struct Timing {
    /// Per-sample latency (frame or fleet round), seconds; a failed
    /// sample is `inf`.
    latency_s: Vec<f64>,
    /// Block each sample belongs to.
    block_of: Vec<usize>,
    /// Frames per second of each completed block.
    block_fps: Vec<f64>,
    /// Reference-kernel samples, ms: one before the first block and one
    /// after every completed block.
    ref_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    block_samples: usize,
    block_frames: u64,
    block_s: f64,
}

impl Timing {
    /// Records one sample covering `frames` frames.
    fn record(&mut self, dt: f64, frames: u64, ok: bool, block: usize) {
        if self.ref_ms.is_empty() {
            self.ref_ms.push(measure::RefKernel::shared().time_ms());
        }
        self.attempted += frames;
        if !ok {
            self.failed += frames;
        }
        self.latency_s.push(if ok { dt } else { f64::INFINITY });
        self.block_of.push(self.block_fps.len());
        self.block_frames += frames;
        self.block_s += dt;
        self.block_samples += 1;
        if self.block_samples == block {
            self.block_fps.push(self.block_frames as f64 / self.block_s);
            self.block_samples = 0;
            self.block_frames = 0;
            self.block_s = 0.0;
            self.ref_ms.push(measure::RefKernel::shared().time_ms());
        }
    }

    /// Host-speed factor of block `b`: the reference kernel's time around
    /// the block over its nominal time (above 1 when the host ran slow).
    fn slowdown(&self, b: usize) -> f64 {
        let around = match (self.ref_ms.get(b), self.ref_ms.get(b + 1)) {
            (Some(before), Some(after)) => 0.5 * (before + after),
            _ => *self
                .ref_ms
                .last()
                .expect("a reference sample precedes every block"),
        };
        around / measure::REF_NOMINAL_MS
    }

    /// Latencies rescaled to the nominal host speed, seconds.
    fn normalized_latency_s(&self) -> Vec<f64> {
        self.latency_s
            .iter()
            .zip(&self.block_of)
            .map(|(dt, &b)| dt / self.slowdown(b))
            .collect()
    }

    /// Block throughputs rescaled to the nominal host speed.
    fn normalized_block_fps(&self) -> Vec<f64> {
        self.block_fps
            .iter()
            .enumerate()
            .map(|(b, fps)| fps * self.slowdown(b))
            .collect()
    }
}

/// Runs one agent's session through `LocalizationPipeline::step`, timing
/// each frame. Stops early (returning a truncated episode) once `stop`
/// says so.
fn solo_step_session(
    proto: &LocalizationPipeline,
    plan: &Plan,
    agent: usize,
    timing: &mut Timing,
    block: usize,
    stop: &dyn Fn() -> bool,
) -> Result<Vec<FrameReport>, String> {
    let mut session = proto
        .fork_session(plan.agents[agent].seed)
        .map_err(|e| format!("fork: {e}"))?;
    let mut reports = Vec::with_capacity(plan.episode_frames());
    for t in 0..plan.episode_frames() {
        let (control, depth, truth) = plan.inputs.frame(agent, t);
        let t0 = Instant::now();
        let result = session.step(control, depth, truth);
        let dt = t0.elapsed().as_secs_f64();
        timing.record(dt, 1, result.is_ok(), block);
        match result {
            Ok(r) => reports.push(r),
            Err(_) => break,
        }
        if stop() {
            break;
        }
    }
    Ok(reports)
}

/// Runs one episode of coalesced fleet rounds, timing each round.
fn fleet_episode(
    proto: &LocalizationPipeline,
    plan: &Plan,
    timing: &mut Timing,
    stop: &dyn Fn() -> bool,
) -> Result<Episode, String> {
    let n = plan.agents.len();
    let mut fleet = Fleet::new(proto, n, plan.seed_base, FleetConfig::default())
        .map_err(|e| format!("fleet: {e}"))?;
    let frames = plan.episode_frames();
    let mut episode: Episode = (0..n).map(|_| Vec::with_capacity(frames)).collect();
    for t in 0..frames {
        let (controls, depths, truths) = plan.inputs.round(t);
        let t0 = Instant::now();
        let result = fleet.step_round_each(controls, depths, truths);
        let dt = t0.elapsed().as_secs_f64();
        let ok = result.is_ok();
        if let Ok(reports) = result {
            for (log, report) in episode.iter_mut().zip(reports) {
                log.push(report.clone());
            }
        }
        timing.record(dt, n as u64, ok, plan.block);
        if !ok || stop() {
            break;
        }
    }
    Ok(episode)
}

/// One reference episode of the untraced program: the fleet's rounds, or
/// each agent's solo `step` session in turn.
fn reference_episode(
    proto: &LocalizationPipeline,
    plan: &Plan,
    timing: &mut Timing,
    stop: &dyn Fn() -> bool,
) -> Result<Episode, String> {
    if plan.workload.is_fleet() {
        return fleet_episode(proto, plan, timing, stop);
    }
    let mut episode = Vec::with_capacity(plan.agents.len());
    for agent in 0..plan.agents.len() {
        let reports = solo_step_session(proto, plan, agent, timing, plan.block, stop)?;
        let done = reports.len() < plan.episode_frames();
        episode.push(reports);
        if done {
            break;
        }
    }
    Ok(episode)
}

/// Set-up, repeated; returns the last prototype and every duration,
/// rescaled to the nominal host speed by reference-kernel samples taken
/// just before and just after each repetition.
fn setup(plan: &Plan, repeats: usize) -> Result<(LocalizationPipeline, Vec<f64>), String> {
    let kernel = measure::RefKernel::shared();
    let mut times = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats {
        drop(last.take());
        let before = kernel.time_ms();
        let t0 = Instant::now();
        let proto = workload::build_prototype(plan)?;
        if plan.workload.is_fleet() {
            // Forking the sessions is part of standing a fleet up.
            let fleet = Fleet::new(
                &proto,
                plan.agents.len(),
                plan.seed_base,
                FleetConfig::default(),
            )
            .map_err(|e| format!("fleet: {e}"))?;
            std::hint::black_box(&fleet);
        }
        let dt = t0.elapsed().as_secs_f64();
        let slowdown = 0.5 * (before + kernel.time_ms()) / measure::REF_NOMINAL_MS;
        times.push(dt / slowdown);
        last = Some(proto);
    }
    Ok((last.expect("at least one set-up"), times))
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// Sample count, for the human-readable table.
    samples: String,
}

fn metric(
    name: &'static str,
    value: f64,
    unit: &'static str,
    samples: impl Into<String>,
) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples: samples.into(),
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// Host diagnostics shared by both modes.
struct Host {
    runqueue_wait_ms: f64,
    ref_ms: f64,
    ref_samples: usize,
}

/// Everything one pass reports.
struct Outcome {
    host: Host,
    gates: Gates,
    /// Digest over every report of the reference episode.
    digest_hex: String,
    timing: Timing,
    /// The metrics of the final JSON line.
    metrics: Vec<Metric>,
    /// Printed in the table only: too seed-sensitive to carry a bound.
    diagnostics: Vec<Metric>,
}

fn print_report(args: &Args, out: &Outcome) {
    let Outcome {
        host,
        gates,
        digest_hex,
        timing,
        metrics,
        diagnostics,
    } = out;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# provenance {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"cores\": {cores}, \"target_cpu\": \"{}\", \"host.runqueue_wait_ms\": {}, \
         \"host.ref_ms\": {}, \"ref_samples\": {}, \"report_digest\": \"{digest_hex}\"}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        navicim_bench::target_cpu_label(),
        json_number(host.runqueue_wait_ms),
        json_number(host.ref_ms),
        host.ref_samples,
    );
    println!("# {:<28} {:>14} {:<9} samples", "metric", "value", "unit");
    for m in metrics {
        println!(
            "# {:<28} {:>14.4} {:<9} {}",
            m.name, m.value, m.unit, m.samples
        );
    }
    for m in diagnostics {
        println!(
            "# {:<28} {:>14.4} {:<9} {} (diagnostic, not in the result line)",
            m.name, m.value, m.unit, m.samples
        );
    }
    for f in &gates.failures {
        println!("# GATE FAILED: {f}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        gates.failures.is_empty() && timing.failed == 0,
        timing.attempted.max(1),
        timing.failed,
        body.join(", ")
    );
}

fn hex_digest(episode: &Episode) -> String {
    let all = digests(episode)
        .iter()
        .flatten()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, d| {
            (h ^ d).wrapping_mul(0x0100_0000_01b3)
        });
    format!("{all:016x}")
}

/// The untraced pass: set-up repeats, then whole episodes of the
/// reference path until `--seconds` have passed (at least one episode).
///
/// The memory metrics count from the state once the inputs exist
/// (`inputs_rss_mb` resident, `inputs_heap` bytes on the heap, the heap
/// peak restarted there), so the benchmark's own copy of the inputs does
/// not dilute the program's footprint. Both peaks are read after the
/// first episode, the work every run does whatever the host's speed.
fn run_untraced(
    args: &Args,
    plan: &Plan,
    inputs_rss_mb: f64,
    inputs_heap: usize,
) -> Result<Outcome, String> {
    let (proto, mut setup_s) = setup(plan, SETUP_REPEATS)?;
    let mut gates = Gates::default();
    let mut timing = Timing::default();
    let wait0 = measure::runqueue_wait_ns();
    let t_phase = Instant::now();
    let never = || false;
    let reference = reference_episode(&proto, plan, &mut timing, &never)?;
    let peak_rss_mb = measure::status_mb("VmHWM").unwrap_or(f64::NAN);
    let peak_heap = HEAP.peak_bytes();
    check_episode(&mut gates, plan, &reference);
    let want = digests(&reference);
    let stop = || t_phase.elapsed().as_secs_f64() >= args.seconds;
    let mut episodes = 1;
    while !stop() {
        let again = reference_episode(&proto, plan, &mut timing, &stop)?;
        gates.identical("repeated episode", &want, &again);
        episodes += 1;
    }
    let phase_s = t_phase.elapsed().as_secs_f64();
    let wait1 = measure::runqueue_wait_ns();
    if plan.workload.is_fleet() {
        // Untimed: every agent's solo replay must match its fleet reports.
        let mut untimed = Timing::default();
        let solo = (0..plan.agents.len())
            .map(|a| solo_step_session(&proto, plan, a, &mut untimed, usize::MAX, &never))
            .collect::<Result<Episode, String>>()?;
        gates.identical("fleet vs solo replay", &want, &solo);
    }

    let per_sample = if plan.workload.is_fleet() {
        "rounds"
    } else {
        "frames"
    };
    let n = timing.latency_s.len();
    let mut raw_lat = timing.latency_s.clone();
    raw_lat.sort_by(f64::total_cmp);
    let mut lat = timing.normalized_latency_s();
    lat.sort_by(f64::total_cmp);
    let frames: Vec<&FrameReport> = reference.iter().flatten().collect();
    let energy = mean(
        &frames
            .iter()
            .map(|r| r.total_energy_pj() / 1e3)
            .collect::<Vec<_>>(),
    );
    let err = median(
        &mut frames
            .iter()
            .map(|r| r.summary.error * 100.0)
            .collect::<Vec<_>>(),
    );
    let mut raw_fps = timing.block_fps.clone();
    let mut fps = timing.normalized_block_fps();
    let mut ref_ms = timing.ref_ms.clone();
    let blocks = format!(
        "median of {} blocks, {} frames in {phase_s:.1} s, {episodes} episodes",
        fps.len(),
        timing.attempted
    );
    let metrics = vec![
        metric("frames_per_s", median(&mut fps), "frames/s", blocks.clone()),
        metric(
            "frame_ms_p50",
            percentile(&lat, 50.0) * 1e3,
            "ms",
            format!("{n} {per_sample}"),
        ),
        metric(
            "frame_ms_p90",
            percentile(&lat, 90.0) * 1e3,
            "ms",
            format!("{n} {per_sample}"),
        ),
        metric(
            "energy_nj_per_frame",
            energy,
            "nJ",
            format!("{} frames of one episode", frames.len()),
        ),
        metric(
            "setup_s",
            median(&mut setup_s),
            "s",
            format!("median of {SETUP_REPEATS} set-ups"),
        ),
        metric(
            "peak_heap_mb",
            peak_heap.saturating_sub(inputs_heap) as f64 / MIB,
            "MB",
            "heap peak above the inputs, through the first episode",
        ),
    ];
    let diagnostics = vec![
        metric(
            "peak_rss_mb",
            peak_rss_mb - inputs_rss_mb,
            "MB",
            "VmHWM after the first episode - VmRSS after input generation",
        ),
        metric(
            "rss.inputs_mb",
            inputs_rss_mb,
            "MB",
            "VmRSS after input generation",
        ),
        metric("raw.frames_per_s", median(&mut raw_fps), "frames/s", blocks),
        metric(
            "raw.frame_ms_p50",
            percentile(&raw_lat, 50.0) * 1e3,
            "ms",
            format!("{n} {per_sample}"),
        ),
        metric(
            "raw.frame_ms_p90",
            percentile(&raw_lat, 90.0) * 1e3,
            "ms",
            format!("{n} {per_sample}"),
        ),
        metric(
            "pose_err_cm",
            err,
            "cm",
            format!("median of {} frames of one episode", frames.len()),
        ),
    ];
    let host = Host {
        runqueue_wait_ms: wait_ms(wait0, wait1),
        ref_ms: median(&mut ref_ms),
        ref_samples: ref_ms.len(),
    };
    Ok(Outcome {
        host,
        gates,
        digest_hex: hex_digest(&reference),
        timing,
        metrics,
        diagnostics,
    })
}

fn wait_ms(before: Option<u64>, after: Option<u64>) -> f64 {
    match (before, after) {
        (Some(a), Some(b)) => b.saturating_sub(a) as f64 / 1e6,
        _ => f64::NAN,
    }
}

/// Bench-owned replicas used to time one layer in isolation: a fork of
/// every backend slot and a clone of the VO engine with its own
/// previous-frame grid.
struct Replay {
    backends: Vec<(&'static str, Box<dyn MapBackend>)>,
    lls: Vec<f64>,
    vo: Option<navicim_core::vo::BayesianVo>,
    prev_grid: Vec<f64>,
    curr_grid: Vec<f64>,
    features: Vec<f64>,
    pred: McPrediction,
}

impl Replay {
    fn new(proto: &LocalizationPipeline, plan: &Plan) -> Result<Self, String> {
        let mut backends = Vec::with_capacity(proto.num_backends());
        for slot in 0..proto.num_backends() {
            let name = if proto.backend_names()[slot] == CIM_HMGM {
                "analog.replay"
            } else {
                "gmm.replay"
            };
            let fork = proto
                .backend(slot)
                .fork_session()
                .ok_or("backend cannot fork")?;
            backends.push((name, fork));
        }
        let max_range = plan.dataset.camera.max_range;
        let mut prev_grid = Vec::new();
        let (gw, gh) = workload::VO_GRID;
        plan.dataset.frames[0]
            .depth
            .grid_means_into(gw, gh, &mut prev_grid);
        prev_grid.iter_mut().for_each(|g| *g /= max_range);
        Ok(Self {
            backends,
            lls: Vec::new(),
            vo: proto.vo_stage().map(|s| s.vo().clone()),
            prev_grid,
            curr_grid: Vec::new(),
            features: Vec::new(),
            pred: McPrediction::default(),
        })
    }
}

/// Per-layer accumulators of the traced pass.
#[derive(Default)]
struct Layers {
    frames: u64,
    points: u64,
    evals: u64,
    analog_frames: u64,
    switches: u64,
    safe_frames: u64,
    vo_frames: u64,
    mc_iters: u64,
    vo_ns: u64,
    col_activations: u64,
    col_slots: u64,
    replay_points: [u64; 2],
    /// Traced split-path frame time (spans and batch copy included,
    /// replays excluded), seconds.
    traced_frame_s: Vec<f64>,
    /// Untraced solo `step` time, seconds.
    step_frame_s: Vec<f64>,
    /// Fleet round time minus the summed solo step times, ms.
    round_self_ms: Vec<f64>,
    vo_mismatch: u64,
}

/// One agent's session through the split path with spans:
/// `begin_frame`, the serving slot's `log_likelihood_into` on a copy of
/// the staged batch, `finish_frame`; then the replays.
fn traced_session(
    proto: &LocalizationPipeline,
    plan: &Plan,
    agent: usize,
    tracer: &mut Tracer,
    layers: &mut Layers,
    frame_base: u64,
) -> Result<Vec<FrameReport>, String> {
    let mut session = proto
        .fork_session(plan.agents[agent].seed)
        .map_err(|e| format!("fork: {e}"))?;
    let mut replay = Replay::new(proto, plan)?;
    let max_range = plan.dataset.camera.max_range;
    let (gw, gh) = workload::VO_GRID;
    let mut batch = PointBatch::new(3);
    let mut lls = Vec::new();
    let mut reports: Vec<FrameReport> = Vec::with_capacity(plan.episode_frames());
    for t in 0..plan.episode_frames() {
        let (control, depth, truth) = plan.inputs.frame(agent, t);
        let id = frame_base + t as u64;
        let t0 = Instant::now();
        let frame = tracer.open("core.frame", None, id);
        let span = tracer.open("core.begin", Some(frame), id);
        let pending = session.begin_frame(control, depth);
        tracer.close(span);
        let pending = pending.map_err(|e| format!("begin_frame: {e}"))?;
        let slot = pending.slot();
        batch.clear();
        batch.extend_from_batch(session.staged_batch());
        lls.resize(batch.len(), 0.0);
        let span = tracer.open("core.eval", Some(frame), id);
        session
            .backend_mut(slot)
            .log_likelihood_into(&batch, &mut lls);
        tracer.close(span);
        let span = tracer.open("core.finish", Some(frame), id);
        let report = session.finish_frame(pending, &lls, truth);
        tracer.close(span);
        tracer.close(frame);
        layers.traced_frame_s.push(t0.elapsed().as_secs_f64());
        let report = report.map_err(|e| format!("finish_frame: {e}"))?;

        for (name, backend) in replay.backends.iter_mut() {
            replay.lls.resize(batch.len(), 0.0);
            let span = tracer.open(name, None, id);
            backend.log_likelihood_into(&batch, &mut replay.lls);
            tracer.close(span);
            let kind = usize::from(*name == "analog.replay");
            layers.replay_points[kind] += batch.len() as u64;
        }
        if let (Some(vo), Some(v)) = (replay.vo.as_mut(), report.vo) {
            depth.grid_means_into(gw, gh, &mut replay.curr_grid);
            replay.curr_grid.iter_mut().for_each(|g| *g /= max_range);
            replay.features.clear();
            replay.features.extend_from_slice(&replay.prev_grid);
            replay.features.extend_from_slice(&replay.curr_grid);
            replay.features.extend(
                replay
                    .curr_grid
                    .iter()
                    .zip(&replay.prev_grid)
                    .map(|(c, p)| c - p),
            );
            std::mem::swap(&mut replay.prev_grid, &mut replay.curr_grid);
            let span = tracer.open("nn.vo_replay", None, id);
            vo.predict_n_into(&replay.features, v.iterations, &mut replay.pred);
            layers.vo_ns += tracer.close(span);
            let variance = replay
                .pred
                .total_logit_variance()
                .unwrap_or_else(|| replay.pred.total_variance());
            layers.vo_mismatch += u64::from(variance.to_bits() != v.variance.to_bits());
            layers.vo_frames += 1;
            layers.mc_iters += v.iterations as u64;
        }

        layers.frames += 1;
        layers.points += batch.len() as u64;
        layers.evals += report.evaluations;
        layers.analog_frames += u64::from(report.slot == ANALOG_SLOT);
        layers.safe_frames += u64::from(report.safe_mode);
        if let Some(prev) = reports.last() {
            layers.switches += u64::from(prev.slot != report.slot);
        }
        reports.push(report);
    }
    // The CIM replay evaluated every frame's batch, whichever slot served.
    for (name, backend) in &replay.backends {
        if *name == "analog.replay" {
            let stats = backend.stats();
            layers.col_activations += stats.column_activations;
            layers.col_slots += stats.column_slots;
        }
    }
    Ok(reports)
}

/// The traced pass: per episode, the untraced reference (fleet rounds or
/// solo `step` sessions), solo `step` replays of every agent, then every
/// agent through the traced split path. Reports of all three must be
/// bit-identical.
fn run_traced(args: &Args, plan: &Plan) -> Result<Outcome, String> {
    let (proto, _) = setup(plan, 1)?;
    let frames_per_episode = plan.episode_frames() * plan.agents.len();
    let mut tracer = Tracer::with_capacity(16 * frames_per_episode);
    let mut layers = Layers::default();
    let mut gates = Gates::default();
    let mut timing = Timing::default();
    let never = || false;
    let wait0 = measure::runqueue_wait_ns();
    let t_phase = Instant::now();
    let mut want: Option<Vec<Vec<u64>>> = None;
    let mut reference_hex = String::new();
    let mut episodes = 0u64;
    while want.is_none() || t_phase.elapsed().as_secs_f64() < args.seconds {
        let fleet_round_s = if plan.workload.is_fleet() {
            let mut rt = Timing::default();
            let ep = fleet_episode(&proto, plan, &mut rt, &never)?;
            timing.attempted += rt.attempted;
            timing.failed += rt.failed;
            timing.ref_ms.extend(rt.ref_ms);
            if want.is_none() {
                check_episode(&mut gates, plan, &ep);
                reference_hex = hex_digest(&ep);
                want = Some(digests(&ep));
            }
            gates.identical("fleet episode", want.as_ref().expect("set"), &ep);
            Some(rt.latency_s)
        } else {
            None
        };
        let mut step_s = vec![0.0; plan.episode_frames()];
        let mut solo = Vec::with_capacity(plan.agents.len());
        for agent in 0..plan.agents.len() {
            let mut st = Timing::default();
            let reports = solo_step_session(&proto, plan, agent, &mut st, plan.block, &never)?;
            for (acc, dt) in step_s.iter_mut().zip(&st.latency_s) {
                *acc += dt;
            }
            layers.step_frame_s.extend(&st.latency_s);
            if fleet_round_s.is_none() {
                timing.attempted += st.attempted;
                timing.failed += st.failed;
            }
            timing.ref_ms.extend(st.ref_ms);
            solo.push(reports);
        }
        if want.is_none() {
            check_episode(&mut gates, plan, &solo);
            reference_hex = hex_digest(&solo);
            want = Some(digests(&solo));
        }
        let want_ref = want.as_ref().expect("reference digests are set");
        gates.identical("solo step replay", want_ref, &solo);
        if let Some(round_s) = fleet_round_s {
            for (round, steps) in round_s.iter().zip(&step_s) {
                layers.round_self_ms.push((round - steps) * 1e3);
            }
        }
        let mut traced = Vec::with_capacity(plan.agents.len());
        for agent in 0..plan.agents.len() {
            let base = (episodes * plan.agents.len() as u64 + agent as u64) * 1_000_000;
            traced.push(traced_session(
                &proto,
                plan,
                agent,
                &mut tracer,
                &mut layers,
                base,
            )?);
        }
        gates.identical("traced split path", want_ref, &traced);
        episodes += 1;
    }
    let wait1 = measure::runqueue_wait_ns();
    gates.check(layers.vo_mismatch == 0, || {
        format!(
            "{} VO replays disagree with the reported variance",
            layers.vo_mismatch
        )
    });

    let totals = tracer.totals();
    let total_ns = |name: &str| totals.get(name).map_or(0, |t| t.total_ns) as f64;
    let nf = layers.frames.max(1) as f64;
    let begin_us = total_ns("core.begin") / nf / 1e3;
    let vo_us = layers.vo_ns as f64 / nf / 1e3;
    let points = layers.points.max(1) as f64;
    let per_point = |name: &str, kind: usize| {
        if layers.replay_points[kind] == 0 {
            0.0
        } else {
            total_ns(name) / layers.replay_points[kind] as f64
        }
    };
    let mut traced_s = layers.traced_frame_s.clone();
    let mut step_s = layers.step_frame_s.clone();
    let overhead = median(&mut traced_s) / median(&mut step_s) - 1.0;
    let mut round_self = layers.round_self_ms.clone();
    let mut ref_samples = timing.ref_ms.clone();
    let host = Host {
        runqueue_wait_ms: wait_ms(wait0, wait1),
        ref_ms: median(&mut ref_samples),
        ref_samples: ref_samples.len(),
    };
    let frames_note = format!("{} traced frames, {episodes} episodes", layers.frames);
    let metrics = vec![
        metric("core.begin_us", begin_us, "us", frames_note.clone()),
        metric(
            "nn.vo_predict_us",
            vo_us,
            "us",
            format!("{} replays", layers.vo_frames),
        ),
        metric(
            "nn.mc_iters_per_frame",
            layers.mc_iters as f64 / nf,
            "count",
            format!("{} frames", layers.frames),
        ),
        metric(
            "core.stage_ns_per_point",
            (begin_us - vo_us) * 1e3 / (points / nf),
            "ns",
            frames_note.clone(),
        ),
        metric(
            "gmm.eval_ns_per_point",
            per_point("gmm.replay", 0),
            "ns",
            format!("{} points", layers.replay_points[0]),
        ),
        metric(
            "analog.eval_ns_per_point",
            per_point("analog.replay", 1),
            "ns",
            format!("{} points", layers.replay_points[1]),
        ),
        metric(
            "analog.active_column_frac",
            if layers.col_slots == 0 {
                0.0
            } else {
                layers.col_activations as f64 / layers.col_slots as f64
            },
            "ratio",
            format!("{} column slots", layers.col_slots),
        ),
        metric(
            "core.finish_us",
            total_ns("core.finish") / nf / 1e3,
            "us",
            frames_note.clone(),
        ),
        metric(
            "core.points_per_frame",
            points / nf,
            "count",
            frames_note.clone(),
        ),
        metric(
            "core.evals_per_frame",
            layers.evals as f64 / nf,
            "count",
            frames_note.clone(),
        ),
        metric(
            "core.analog_frac",
            layers.analog_frames as f64 / nf,
            "ratio",
            frames_note.clone(),
        ),
        metric(
            "core.gate_switches",
            layers.switches as f64 * 1000.0 / nf,
            "count/kframe",
            frames_note.clone(),
        ),
        metric(
            "core.safe_frames_frac",
            layers.safe_frames as f64 / nf,
            "ratio",
            frames_note.clone(),
        ),
        metric(
            "serve.round_self_ms",
            if round_self.is_empty() {
                0.0
            } else {
                median(&mut round_self)
            },
            "ms",
            format!("{} rounds", round_self.len()),
        ),
        metric(
            "host.runqueue_wait_ms",
            host.runqueue_wait_ms,
            "ms",
            "schedstat",
        ),
        metric(
            "host.ref_ms",
            host.ref_ms,
            "ms",
            format!("{} samples", host.ref_samples),
        ),
        metric(
            "trace.overhead_frac",
            overhead,
            "ratio",
            format!(
                "{} traced vs {} untraced frames",
                traced_s.len(),
                step_s.len()
            ),
        ),
    ];

    println!("# span totals (self time excludes child spans)");
    println!(
        "# {:<16} {:>9} {:>12} {:>12}",
        "span", "count", "total_ms", "self_ms"
    );
    for (name, t) in &totals {
        println!(
            "# {:<16} {:>9} {:>12.3} {:>12.3}",
            name,
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
    let out = PathBuf::from(format!(
        "perfbench/out/trace-{}-seed{}.json",
        args.workload.name(),
        args.seed
    ));
    match tracer.write_json(&out) {
        Ok(()) => println!("# spans written to {}", out.display()),
        Err(e) => eprintln!("perfbench: could not write spans to {}: {e}", out.display()),
    }
    Ok(Outcome {
        host,
        gates,
        digest_hex: reference_hex,
        timing,
        metrics,
        diagnostics: Vec::new(),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut plan = match workload::plan(args.workload, args.seed) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: input generation failed: {e}");
            std::process::exit(2);
        }
    };
    let outcome = if args.trace {
        // The fleet needs every agent for its rounds; a single pipeline
        // gets its per-layer numbers from the first few sessions.
        if !plan.workload.is_fleet() {
            plan.agents.truncate(TRACED_SESSIONS);
        }
        run_traced(&args, &plan)
    } else {
        let inputs_rss_mb = measure::status_mb("VmRSS").unwrap_or(f64::NAN);
        HEAP.reset_peak();
        run_untraced(&args, &plan, inputs_rss_mb, HEAP.live_bytes())
    };
    match outcome {
        Ok(out) => {
            print_report(&args, &out);
            if !out.gates.failures.is_empty() || out.timing.failed > 0 {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}
