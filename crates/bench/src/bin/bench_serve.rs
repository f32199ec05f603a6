//! Fleet-serving throughput benchmark with a machine-readable JSON trail.
//!
//! Sweeps agent count × worker count over the two [`Fleet`] serving
//! modes:
//!
//! - `independent` — every session runs its own
//!   `LocalizationPipeline::step`, i.e. N independent pipelines sharing
//!   nothing but the scheduler. This is the baseline.
//! - `coalesced` — per-frame likelihood evaluations from all sessions
//!   are merged into one `PointBatch` call per backend slot, amortizing
//!   per-call overheads (and, under `--features parallel`, crossing the
//!   chunking threshold small per-session batches never reach).
//!
//! Reported per configuration: aggregate frames/sec across the fleet and
//! per-agent p50/p99 frame latency. The parity gate re-runs every agent
//! count in both modes and requires **bit-identical** frame reports —
//! the determinism contract the serving layer is built on — exiting
//! non-zero on any mismatch so CI catches rot.
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
use navicim_serve::{Fleet, FleetConfig, TaskOrder};
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
    mode: &'static str,
    prune: bool,
    agents: usize,
    workers: usize,
    agg_fps: f64,
    p50_ms: f64,
    p99_ms: f64,
}

/// Builds a fresh fleet and streams the dataset once, returning wall
/// seconds and every per-agent round latency (ns). Rebuilt per rep:
/// sessions advance, so a fleet cannot be re-run.
fn run_once(
    prototype: &LocalizationPipeline,
    ds: &LocalizationDataset,
    agents: usize,
    fleet_config: FleetConfig,
) -> (f64, Vec<u64>, Vec<Vec<FrameReport>>) {
    let mut fleet = Fleet::new(prototype, agents, SEED_BASE, fleet_config).expect("fleet builds");
    let controls = ds.control_deltas();
    let mut latencies: Vec<u64> = Vec::with_capacity(agents * controls.len());
    let mut per_session: Vec<Vec<FrameReport>> = (0..agents).map(|_| Vec::new()).collect();
    let t0 = Instant::now();
    for (t, control) in controls.iter().enumerate() {
        let reports = fleet
            .step_round(control, &ds.frames[t + 1].depth, ds.frames[t + 1].pose)
            .expect("round succeeds");
        for (s, report) in reports.iter().enumerate() {
            per_session[s].push(report.clone());
        }
        latencies.extend_from_slice(fleet.last_latencies_ns());
    }
    (t0.elapsed().as_secs_f64(), latencies, per_session)
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

    let agent_counts: &[usize] = if smoke { &[4, 8] } else { &[16, 64, 256] };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Always include the single-worker column (the scheduling-free
    // reference); add multi-worker columns up to the host's cores so a
    // re-run on a bigger box sweeps the worker dimension for free.
    let mut worker_counts: Vec<usize> = vec![1];
    for w in [2usize, 4, 8] {
        if w <= cores {
            worker_counts.push(w);
        }
    }
    let reps = if smoke { 1 } else { 3 };

    let ds = dataset(smoke);
    let prototype = LocalizationPipeline::build(&ds, config()).expect("prototype builds");
    // Pruned twin of the serving workload: the spatial index gates
    // likelihood components per tile, so its outputs drift from the full
    // evaluation by up to the documented epsilon — and digital tiles
    // anchor at batch offsets, which coalescing changes. Pruned rows are
    // therefore a timing column only; the bitwise parity gate below stays
    // on the prune-off configuration, where coalescing is unobservable.
    let prototype_pruned = LocalizationPipeline::build(
        &ds,
        LocalizerConfig {
            prune: PruneConfig::enabled(),
            ..config()
        },
    )
    .expect("pruned prototype builds");
    let frames = ds.control_deltas().len();

    // ---- parity gate: coalesced ≡ independent, bit-for-bit ----
    // Independent mode is per-session stepping — i.e. exactly
    // the N-solo-pipelines baseline — so equality here *is* the
    // bit-identity-to-solo guarantee, at fleet scale.
    let mut parity = true;
    for &agents in agent_counts {
        let (_, _, solo) = run_once(
            &prototype,
            &ds,
            agents,
            FleetConfig {
                workers: 1,
                coalesce: false,
                order: TaskOrder::Forward,
            },
        );
        let (_, _, coalesced) = run_once(
            &prototype,
            &ds,
            agents,
            FleetConfig {
                workers: *worker_counts.last().unwrap(),
                coalesce: true,
                order: TaskOrder::Shuffled(7),
            },
        );
        if solo != coalesced {
            eprintln!("FAIL: coalesced fleet diverged from independent baseline at N={agents}");
            parity = false;
        }
    }

    // ---- throughput sweep ----
    // The prune-on pass runs at the widest worker column only: the prune
    // lever is per-evaluation, so one worker setting captures it without
    // doubling the sweep.
    let max_workers = *worker_counts.last().unwrap();
    let mut rows: Vec<Row> = Vec::new();
    println!("mode         prune agents workers  agg fps   p50 ms   p99 ms  speedup");
    for &agents in agent_counts {
        for prune in [false, true] {
            for &workers in &worker_counts {
                if prune && workers != max_workers {
                    continue;
                }
                let mut pair_fps = [0.0f64; 2];
                for (m, (mode, coalesce)) in [("independent", false), ("coalesced", true)]
                    .into_iter()
                    .enumerate()
                {
                    let mut best_secs = f64::INFINITY;
                    let mut best_lat: Vec<u64> = Vec::new();
                    for _ in 0..reps {
                        let (secs, lat, _) = run_once(
                            if prune { &prototype_pruned } else { &prototype },
                            &ds,
                            agents,
                            FleetConfig {
                                workers,
                                coalesce,
                                order: TaskOrder::Forward,
                            },
                        );
                        if secs < best_secs {
                            best_secs = secs;
                            best_lat = lat;
                        }
                    }
                    best_lat.sort_unstable();
                    let agg_fps = (agents * frames) as f64 / best_secs;
                    let p50_ms = percentile_ms(&best_lat, 50.0);
                    let p99_ms = percentile_ms(&best_lat, 99.0);
                    pair_fps[m] = agg_fps;
                    let speedup = if m == 1 {
                        format!("{:>6.2}x", pair_fps[1] / pair_fps[0])
                    } else {
                        "      -".to_string()
                    };
                    println!(
                        "{mode:<12} {:>5} {agents:>6} {workers:>7} {agg_fps:>8.0} {p50_ms:>8.2} {p99_ms:>8.2} {speedup}",
                        if prune { "on" } else { "off" }
                    );
                    rows.push(Row {
                        mode,
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
    }
    println!("parity (coalesced ≡ independent baseline): {parity}");

    // ---- JSON snapshot ----
    let mut json_rows = String::new();
    for r in &rows {
        if !json_rows.is_empty() {
            json_rows.push_str(",\n");
        }
        json_rows.push_str(&format!(
            "    {{\"mode\": \"{}\", \"prune\": {}, \"agents\": {}, \"workers\": {}, \"agg_frames_per_sec\": {:.1}, \"p50_ms\": {:.3}, \"p99_ms\": {:.3}}}",
            json_escape_free(r.mode),
            r.prune,
            r.agents,
            r.workers,
            r.agg_fps,
            r.p50_ms,
            r.p99_ms
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
