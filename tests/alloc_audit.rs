//! Runtime allocation sanitizer: the zero-alloc steady-state contract,
//! hard-asserted through the counting global allocator.
//!
//! Compiled only with `--features alloc-audit`, which swaps the test
//! binary's global allocator for [`navicim::math::alloc_audit`]'s
//! counting wrapper. Each test warms a kernel/pipeline until its scratch
//! buffers have grown to the working set, then re-runs the exact same
//! workload and asserts **zero** heap acquisitions (allocs + reallocs).
//!
//! The contract covers the sequential production paths only — a single
//! chunk for the batch kernels, `workers: 1` for the fleet. Threaded
//! paths allocate by design (thread spawning already does) and are
//! outside the audited scope.
//!
//! The allocator counters are process-global and `cargo test` runs tests
//! in parallel threads, so every exact-zero assertion serializes behind
//! [`LOCK`]; anything else would count a neighbouring test's allocations.

#![cfg(feature = "alloc-audit")]

use std::sync::Mutex;

use navicim::analog::engine::{CimEngineConfig, HmgmCimEngine, NoiseSegment};
use navicim::analog::mapping::SpaceMap;
use navicim::backend::par::ChunkPolicy;
use navicim::backend::PointBatch;
use navicim::core::localization::LocalizerConfig;
use navicim::core::pipeline::{GateConfig, LocalizationPipeline};
use navicim::core::registry::DIGITAL_GMM;
use navicim::device::noise::NoiseStream;
use navicim::device::params::TechParams;
use navicim::gmm::gaussian::{Covariance, Gmm};
use navicim::gmm::hmg::{HmgKernel, HmgmModel};
use navicim::gmm::prune::PruneConfig;
use navicim::math::alloc_audit;
use navicim::scene::dataset::{LocalizationConfig, LocalizationDataset};
use navicim::serve::{Fleet, FleetConfig, TaskOrder};

/// Serializes every exact-zero assertion: the counting allocator is
/// process-global, so a concurrently running test would be charged to
/// the audited region.
static LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` under the allocation counter and asserts it acquired zero
/// heap memory (no allocs, no growing reallocs). Frees are permitted —
/// the contract is "no acquisition in steady state", and a `Drop` of
/// pre-existing capacity is not an acquisition.
fn assert_zero_alloc<T>(label: &str, f: impl FnOnce() -> T) -> T {
    let (value, delta) = alloc_audit::audited(f);
    assert_eq!(
        delta.acquisitions(),
        0,
        "{label}: steady-state pass acquired heap memory \
         (allocs {}, reallocs {})",
        delta.allocs,
        delta.reallocs,
    );
    value
}

/// One chunk, no worker threads: the sequential production path whose
/// steady state the zero-alloc contract covers.
fn sequential(n: usize) -> ChunkPolicy {
    ChunkPolicy::exact(n, 1)
}

fn query_batch(dim: usize, n: usize) -> PointBatch {
    let mut batch = PointBatch::new(dim);
    for i in 0..n {
        let t = i as f64 / n as f64;
        let point: Vec<f64> = (0..dim)
            .map(|d| (t - 0.5) * (1.0 + d as f64 * 0.1))
            .collect();
        batch.push(&point);
    }
    batch
}

#[test]
fn gmm_batch_kernel_is_zero_alloc_when_warm() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut gmm = Gmm::new(
        vec![0.6, 0.4],
        vec![vec![-0.5, 0.0, 0.2], vec![0.6, 0.3, -0.4]],
        Covariance::Diagonal(vec![vec![0.3, 0.3, 0.3], vec![0.4, 0.4, 0.4]]),
    )
    .expect("gmm builds");
    let batch = query_batch(3, 64);
    let mut out = vec![0.0; batch.len()];
    let policy = sequential(batch.len());
    // Warm pass sizes the struct-held scratch to the component count.
    gmm.log_likelihood_into_policy(&batch, &mut out, policy);
    let warm = out.clone();
    assert_zero_alloc("Gmm::log_likelihood_into_policy", || {
        gmm.log_likelihood_into_policy(&batch, &mut out, policy);
    });
    assert_eq!(out, warm, "steady-state pass changed the output bits");
}

#[test]
fn hmgm_batch_kernel_is_zero_alloc_when_warm() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let k1 = HmgKernel::new(vec![-0.5, 0.0, 0.2], vec![0.4; 3], 1.0).expect("kernel");
    let k2 = HmgKernel::new(vec![0.6, 0.3, -0.4], vec![0.5; 3], 1.0).expect("kernel");
    let mut model = HmgmModel::new(vec![1.0, 0.5], vec![k1, k2]).expect("model builds");
    let batch = query_batch(3, 64);
    let mut out = vec![0.0; batch.len()];
    let policy = sequential(batch.len());
    model.log_likelihood_into_policy(&batch, &mut out, policy);
    let warm = out.clone();
    assert_zero_alloc("HmgmModel::log_likelihood_into_policy", || {
        model.log_likelihood_into_policy(&batch, &mut out, policy);
    });
    assert_eq!(out, warm, "steady-state pass changed the output bits");
}

/// The unit-cube map and an HMG mixture of `k` device-realizable kernels
/// at the narrowest programmable width, scattered over the map so a
/// tight point cloud gates most columns out.
fn cim_fixture(k: usize) -> (SpaceMap, HmgmModel) {
    use navicim::math::rng::{Pcg32, SampleExt};
    let pts = vec![vec![-1.0, -1.0, -1.0], vec![1.0, 1.0, 1.0]];
    let map = SpaceMap::fit_to_points(&pts, 0.15, 0.85, 0.2).expect("map fits");
    let tech = TechParams::cmos_45nm();
    let (floor, _) = HmgmCimEngine::recommended_sigma_bounds(&tech, &map);
    let mut rng = Pcg32::seed_from_u64(41);
    let kernels = (0..k)
        .map(|_| {
            let mean = (0..3).map(|_| rng.sample_uniform(-0.95, 0.95)).collect();
            HmgKernel::new(mean, vec![floor; 3], 1.0).expect("kernel")
        })
        .collect();
    let weights = (0..k).map(|_| rng.sample_uniform(0.2, 1.0)).collect();
    let model = HmgmModel::new(weights, kernels).expect("model builds");
    (map, model)
}

/// `n` points in a ±0.01 box around `center`: a tight particle cloud,
/// so the gated engine drops the far columns.
fn clustered_batch(center: &[f64], n: usize) -> PointBatch {
    let mut batch = PointBatch::new(center.len());
    for i in 0..n {
        let point: Vec<f64> = center
            .iter()
            .enumerate()
            .map(|(d, &c)| c + 0.02 * ((i as f64 * (0.618 + 0.1 * d as f64)).fract() - 0.5))
            .collect();
        batch.push(&point);
    }
    batch
}

#[test]
fn cim_engine_batch_path_is_zero_alloc_when_warm() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (map, model) = cim_fixture(2);
    let mut engine =
        HmgmCimEngine::build(&model, map, CimEngineConfig::default()).expect("engine builds");
    let batch = query_batch(3, 64);
    let mut out = vec![0.0; batch.len()];
    let policy = sequential(batch.len());
    // Two warm passes: the first sizes the scratch, and the engine's
    // noise stream advances per evaluation, so outputs differ between
    // passes by design — only the allocation count must reach zero.
    engine.log_likelihood_into_chunked(&batch, &mut out, policy);
    engine.log_likelihood_into_chunked(&batch, &mut out, policy);
    assert_zero_alloc("HmgmCimEngine::log_likelihood_into_chunked", || {
        engine.log_likelihood_into_chunked(&batch, &mut out, policy);
    });
}

/// The column-gated engine: per-tile candidate lists and per-segment
/// activation tallies live in the engine's scratch, so a warm gated
/// batch (several prune tiles, a remainder lane group) allocates
/// nothing.
#[test]
fn cim_gated_engine_batch_path_is_zero_alloc_when_warm() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (map, model) = cim_fixture(24);
    let mut engine = HmgmCimEngine::build_with_pruning(
        &model,
        map,
        CimEngineConfig::default(),
        PruneConfig::enabled(),
    )
    .expect("engine builds");
    let batch = clustered_batch(model.kernels()[0].means(), 603);
    let mut out = vec![0.0; batch.len()];
    let policy = sequential(batch.len());
    engine.log_likelihood_into_chunked(&batch, &mut out, policy);
    engine.log_likelihood_into_chunked(&batch, &mut out, policy);
    assert_zero_alloc("gated HmgmCimEngine::log_likelihood_into_chunked", || {
        engine.log_likelihood_into_chunked(&batch, &mut out, policy);
    });
    let stats = engine.stats();
    assert!(
        stats.column_activations < stats.column_slots,
        "the audit batch should exercise column gating"
    );
}

/// Coalesced serving over several sessions' segments (starts inside lane
/// groups), gated and ungated: warm `serve_segments` calls
/// allocate nothing.
#[test]
fn cim_serve_segments_is_zero_alloc_when_warm() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (map, model) = cim_fixture(24);
    for prune in [PruneConfig::default(), PruneConfig::enabled()] {
        let root = HmgmCimEngine::build_with_pruning(
            &model,
            map.clone(),
            CimEngineConfig::default(),
            prune,
        )
        .expect("engine builds");
        let mut evaluator = root.fork_session();
        let batch = clustered_batch(model.kernels()[0].means(), 530);
        let segments: Vec<NoiseSegment> = [0usize, 3, 258, 301]
            .iter()
            .enumerate()
            .map(|(s, &start)| NoiseSegment {
                start,
                stream: NoiseStream::with_cursor(root.compute().noise_seed(), 1000 * s as u64),
            })
            .collect();
        let mut out = vec![0.0; batch.len()];
        let mut currents = vec![0.0; batch.len()];
        let mut acts = vec![0u64; segments.len()];
        let policy = sequential(batch.len());
        evaluator.serve_segments(
            &batch,
            &segments,
            &mut out,
            &mut currents,
            policy,
            &mut acts,
        );
        let warm = out.clone();
        assert_zero_alloc("HmgmCimEngine::serve_segments", || {
            evaluator.serve_segments(
                &batch,
                &segments,
                &mut out,
                &mut currents,
                policy,
                &mut acts,
            );
        });
        assert_eq!(out, warm, "steady-state pass changed the output bits");
        let slots = (batch.len() * root.array().num_columns()) as u64;
        assert_eq!(
            acts.iter().sum::<u64>() < slots,
            prune.enabled,
            "column gating should fire exactly when compiled in"
        );
    }
}

fn audit_dataset() -> LocalizationDataset {
    LocalizationDataset::generate(
        &LocalizationConfig {
            image_width: 24,
            image_height: 18,
            map_points: 500,
            frames: 6,
            ..LocalizationConfig::default()
        },
        11,
    )
    .expect("dataset generates")
}

fn audit_config() -> LocalizerConfig {
    LocalizerConfig {
        num_particles: 100,
        pixel_stride: 7,
        components: 8,
        gate: GateConfig::single(),
        backend: DIGITAL_GMM.into(),
        seed: 5,
        ..LocalizerConfig::default()
    }
}

/// Drives `step` across the dataset twice and asserts the second pass —
/// identical observations, so identical per-frame working sets — is
/// allocation-free.
#[test]
fn pipeline_step_is_zero_alloc_after_warm_pass() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let ds = audit_dataset();
    let mut pipeline = LocalizationPipeline::build(&ds, audit_config()).expect("pipeline builds");
    let controls = ds.control_deltas();
    for (t, control) in controls.iter().enumerate() {
        pipeline
            .step(control, &ds.frames[t + 1].depth, ds.frames[t + 1].pose)
            .expect("warm-up step");
    }
    for (t, control) in controls.iter().enumerate() {
        assert_zero_alloc(&format!("LocalizationPipeline::step frame {t}"), || {
            pipeline
                .step(control, &ds.frames[t + 1].depth, ds.frames[t + 1].pose)
                .expect("steady-state step");
        });
    }
}

/// Same contract for the fleet's sequential (`workers: 1`) coalesced
/// round: after one pass over the dataset, further rounds must not
/// acquire heap memory.
#[test]
fn fleet_step_round_is_zero_alloc_after_warm_pass() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let ds = audit_dataset();
    let prototype = LocalizationPipeline::build(&ds, audit_config()).expect("prototype builds");
    let mut fleet = Fleet::new(
        &prototype,
        3,
        900,
        FleetConfig {
            workers: 1,
            coalesce: true,
            order: TaskOrder::Forward,
        },
    )
    .expect("fleet builds");
    let controls = ds.control_deltas();
    for (t, control) in controls.iter().enumerate() {
        fleet
            .step_round(control, &ds.frames[t + 1].depth, ds.frames[t + 1].pose)
            .expect("warm-up round");
    }
    for (t, control) in controls.iter().enumerate() {
        assert_zero_alloc(&format!("Fleet::step_round round {t}"), || {
            fleet
                .step_round(control, &ds.frames[t + 1].depth, ds.frames[t + 1].pose)
                .expect("steady-state round");
        });
    }
}
