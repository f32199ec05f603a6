//! Fleet-serving throughput benchmark with a machine-readable JSON trail.
//!
//! Sweeps prune × agent count × worker count over [`Fleet`] rounds, in
//! which every session runs its own `LocalizationPipeline::step`.
//!
//! Reported per configuration: aggregate frames/sec across the fleet,
//! the speed-up over the single-worker row, and per-agent p50/p99
//! service time (each session's own `step`, from
//! [`Fleet::last_service_ns`]). The parity gate compares every swept
//! fleet's frame reports with each agent's solo replay — its own
//! `fork_session` stepped through the same frames — and requires them
//! **bit-identical**, the determinism contract the serving layer is
//! built on, exiting non-zero on any mismatch so CI catches rot.
//!
//! Run: `cargo run --release -p navicim-bench --bin bench_serve`
//!
//! Flags:
//! - `--smoke` — tiny fleets and one rep (CI),
//! - `--out PATH` — JSON snapshot path (default `BENCH_serve.json`).

use navicim_core::localization::LocalizerConfig;
use navicim_core::pipeline::{FrameReport, GateConfig, HysteresisConfig, LocalizationPipeline};
use navicim_core::registry::{CIM_HMGM, DIGITAL_GMM};
use navicim_gmm::prune::PruneConfig;
use navicim_scene::dataset::{LocalizationConfig, LocalizationDataset};
use navicim_serve::{Fleet, FleetConfig};
use std::time::Instant;

/// Seed for the per-agent session forks (`seed_base + i`).
const SEED_BASE: u64 = 4000;

fn dataset(smoke: bool) -> LocalizationDataset {
    LocalizationDataset::generate(
        &LocalizationConfig {
            image_width: 24,
            image_height: 18,
            map_points: 600,
            frames: if smoke { 4 } else { 6 },
            ..LocalizationConfig::default()
        },
        11,
    )
    .expect("dataset generates")
}

/// Serving workload: a modest per-session frame (64 particles, strided
/// 24×18 scans → ~2k staged points) so large fleets still sweep in CI
/// time. A gated digital+analog pair keeps both backend slots (and slot
/// migration) in play.
fn config() -> LocalizerConfig {
    LocalizerConfig {
        num_particles: 64,
        pixel_stride: 7,
        components: 8,
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

struct Row {
    prune: bool,
    agents: usize,
    workers: usize,
    agg_fps: f64,
    p50_ms: f64,
    p99_ms: f64,
}

/// Builds a fresh fleet and streams the dataset once, returning wall
/// seconds, every per-agent service time (ns) and the frame reports.
/// Rebuilt per rep: sessions advance, so a fleet cannot be re-run.
fn run_once(
    prototype: &LocalizationPipeline,
    ds: &LocalizationDataset,
    agents: usize,
    workers: usize,
) -> (f64, Vec<u64>, Vec<Vec<FrameReport>>) {
    let mut fleet =
        Fleet::new(prototype, agents, SEED_BASE, FleetConfig { workers }).expect("fleet builds");
    let controls = ds.control_deltas();
    let mut service: Vec<u64> = Vec::with_capacity(agents * controls.len());
    let mut per_session: Vec<Vec<FrameReport>> = (0..agents).map(|_| Vec::new()).collect();
    let t0 = Instant::now();
    for (t, control) in controls.iter().enumerate() {
        let reports = fleet
            .step_round(control, &ds.frames[t + 1].depth, ds.frames[t + 1].pose)
            .expect("round succeeds");
        for (s, report) in reports.iter().enumerate() {
            per_session[s].push(report.clone());
        }
        service.extend_from_slice(fleet.last_service_ns());
    }
    (t0.elapsed().as_secs_f64(), service, per_session)
}

/// Each agent's solo replay: its own `fork_session` stepped through the
/// dataset — the parity baseline every fleet must hit.
fn solo_replays(
    prototype: &LocalizationPipeline,
    ds: &LocalizationDataset,
    agents: usize,
) -> Vec<Vec<FrameReport>> {
    let controls = ds.control_deltas();
    (0..agents)
        .map(|i| {
            let mut session = prototype
                .fork_session(SEED_BASE + i as u64)
                .expect("fork succeeds");
            controls
                .iter()
                .enumerate()
                .map(|(t, control)| {
                    session
                        .step(control, &ds.frames[t + 1].depth, ds.frames[t + 1].pose)
                        .expect("solo step succeeds")
                })
                .collect()
        })
        .collect()
}

/// Percentile over a sorted slice (nearest-rank).
fn percentile_ms(sorted_ns: &[u64], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0 * sorted_ns.len() as f64).ceil() as usize).clamp(1, sorted_ns.len());
    sorted_ns[rank - 1] as f64 / 1e6
}

fn json_escape_free(s: &str) -> &str {
    // All strings we emit are static identifiers/paths without quotes or
    // control characters; assert instead of escaping.
    assert!(!s.contains(['"', '\\', '\n']), "string needs escaping: {s}");
    s
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_serve.json".to_string());

    let agent_counts: &[usize] = if smoke { &[4, 7] } else { &[16, 64, 256] };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    // The single-worker row is the inline reference and two workers
    // always run, so the parity gate covers a threaded round even on a
    // one-core host; wider columns are added up to the host's cores.
    let mut worker_counts: Vec<usize> = vec![1, 2];
    for w in [4usize, 8] {
        if w <= cores {
            worker_counts.push(w);
        }
    }
    let reps = if smoke { 1 } else { 3 };

    let ds = dataset(smoke);
    let prototype = LocalizationPipeline::build(&ds, config()).expect("prototype builds");
    // Pruned twin of the serving workload: the spatial index drops
    // digital likelihood components per tile (the CIM slot drives its
    // full array either way). Its sessions are as independent as the
    // unpruned ones, so it runs through the same parity gate.
    let prototype_pruned = LocalizationPipeline::build(
        &ds,
        LocalizerConfig {
            prune: PruneConfig::enabled(),
            ..config()
        },
    )
    .expect("pruned prototype builds");
    let frames = ds.control_deltas().len();

    let mut parity = true;
    let mut rows: Vec<Row> = Vec::new();
    println!("prune agents workers  agg fps   p50 ms   p99 ms  speedup");
    for prune in [false, true] {
        let proto = if prune { &prototype_pruned } else { &prototype };
        for &agents in agent_counts {
            let solo = solo_replays(proto, &ds, agents);
            let mut single_fps = 0.0;
            for &workers in &worker_counts {
                let mut best_secs = f64::INFINITY;
                let mut best_service: Vec<u64> = Vec::new();
                for _ in 0..reps {
                    let (secs, service, reports) = run_once(proto, &ds, agents, workers);
                    // ---- parity gate: every fleet ≡ its agents' solo replays ----
                    if reports != solo {
                        eprintln!(
                            "FAIL: fleet diverged from solo replays \
                             (prune={prune}, N={agents}, workers={workers})"
                        );
                        parity = false;
                    }
                    if secs < best_secs {
                        best_secs = secs;
                        best_service = service;
                    }
                }
                best_service.sort_unstable();
                let agg_fps = (agents * frames) as f64 / best_secs;
                let p50_ms = percentile_ms(&best_service, 50.0);
                let p99_ms = percentile_ms(&best_service, 99.0);
                if workers == 1 {
                    single_fps = agg_fps;
                }
                println!(
                    "{:>5} {agents:>6} {workers:>7} {agg_fps:>8.0} {p50_ms:>8.3} {p99_ms:>8.3} {:>7.2}x",
                    if prune { "on" } else { "off" },
                    agg_fps / single_fps
                );
                rows.push(Row {
                    prune,
                    agents,
                    workers,
                    agg_fps,
                    p50_ms,
                    p99_ms,
                });
            }
        }
    }
    println!("parity (every fleet ≡ solo replays): {parity}");

    // ---- JSON snapshot ----
    let mut json_rows = String::new();
    for r in &rows {
        if !json_rows.is_empty() {
            json_rows.push_str(",\n");
        }
        json_rows.push_str(&format!(
            "    {{\"prune\": {}, \"agents\": {}, \"workers\": {}, \"agg_frames_per_sec\": {:.1}, \"p50_service_ms\": {:.3}, \"p99_service_ms\": {:.3}}}",
            r.prune, r.agents, r.workers, r.agg_fps, r.p50_ms, r.p99_ms
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"serve\",\n  \"smoke\": {smoke},\n  \"host\": {{\"arch\": \"{}\", \"os\": \"{}\", \"cores\": {cores}, \"target_cpu\": \"{}\"}},\n  \"config\": {{\"frames\": {frames}, \"particles\": 64, \"pixel_stride\": 7, \"reps\": {reps}}},\n  \"parity\": {{\"bit_identical\": {parity}}},\n  \"rows\": [\n{json_rows}\n  ]\n}}\n",
        json_escape_free(std::env::consts::ARCH),
        json_escape_free(std::env::consts::OS),
        json_escape_free(navicim_bench::target_cpu_label()),
    );
    std::fs::write(&out_path, json).expect("write bench snapshot");
    println!("wrote {out_path}");

    if !parity {
        std::process::exit(1);
    }
}
