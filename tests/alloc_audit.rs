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
//! The allocator counters are thread-local and armed only inside
//! `alloc_audit::audited`, so each test counts exactly its own audited
//! region: tests run on the harness's parallel threads with no lock, and
//! neither a neighbouring test nor the harness itself can be charged to
//! an audited pass.

#![cfg(feature = "alloc-audit")]

use navicim::analog::engine::{CimEngineConfig, HmgmCimEngine};
use navicim::analog::mapping::SpaceMap;
use navicim::backend::par::ChunkPolicy;
use navicim::backend::PointBatch;
use navicim::core::localization::LocalizerConfig;
use navicim::core::pipeline::{GateConfig, LocalizationPipeline};
use navicim::core::registry::DIGITAL_GMM;
use navicim::device::params::TechParams;
use navicim::gmm::gaussian::{Gmm, GMM_TILE};
use navicim::gmm::hmg::{HmgKernel, HmgmModel};
use navicim::gmm::prune::PruneConfig;
use navicim::math::alloc_audit;
use navicim::scene::dataset::{LocalizationConfig, LocalizationDataset};
use navicim::serve::{Fleet, FleetConfig};

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

/// The digital kernel at the wide-map size (k=32) on a batch of several
/// tiles plus a short tail, unpruned and pruned (the configuration that
/// serves every wide-map frame).
#[test]
fn gmm_batch_kernel_is_zero_alloc_when_warm() {
    use navicim::math::rng::{Pcg32, SampleExt};
    let k = 32;
    let mut rng = Pcg32::seed_from_u64(17);
    let weights = vec![1.0 / k as f64; k];
    let means = (0..k)
        .map(|_| (0..3).map(|_| rng.sample_uniform(-0.8, 0.8)).collect())
        .collect();
    let vars = (0..k)
        .map(|_| (0..3).map(|_| rng.sample_uniform(0.02, 0.3)).collect())
        .collect();
    let base = Gmm::new(weights, means, vars).expect("gmm builds");
    let batch = query_batch(3, 3 * GMM_TILE + 5);
    for prune in [PruneConfig::default(), PruneConfig::enabled()] {
        let mut gmm = base.clone();
        gmm.set_prune(prune);
        let mut out = vec![0.0; batch.len()];
        let policy = sequential(batch.len());
        // Warm pass sizes the struct-held scratch to the component count.
        gmm.log_likelihood_into_policy(&batch, &mut out, policy);
        let warm = out.clone();
        assert_zero_alloc(
            &format!("Gmm::log_likelihood_into_policy {prune:?}"),
            || {
                gmm.log_likelihood_into_policy(&batch, &mut out, policy);
            },
        );
        assert_eq!(out, warm, "steady-state pass changed the output bits");
    }
}

/// The unit-cube map and an HMG mixture of `k` device-realizable kernels
/// at the narrowest programmable width, scattered over the map.
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

#[test]
fn cim_engine_batch_path_is_zero_alloc_when_warm() {
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

/// Same contract for the fleet's sequential (`workers: 1`) round: after
/// one pass over the dataset, further rounds must not acquire heap
/// memory.
#[test]
fn fleet_step_round_is_zero_alloc_after_warm_pass() {
    let ds = audit_dataset();
    let prototype = LocalizationPipeline::build(&ds, audit_config()).expect("prototype builds");
    let mut fleet =
        Fleet::new(&prototype, 3, 900, FleetConfig { workers: 1 }).expect("fleet builds");
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
