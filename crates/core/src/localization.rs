//! Pipeline A — CIM particle-filter drone localization (paper Section II):
//! the localizer configuration and the scan measurement model.
//!
//! A [`crate::pipeline::LocalizationPipeline`] fits a map backend to a
//! scene's point cloud, then tracks the camera through its depth frames
//! with a particle filter whose measurement model projects subsampled
//! depth pixels into the world and scores them against the map. This
//! module holds the loop's configuration ([`LocalizerConfig`]) and the two
//! halves of its weight step: [`stage_scan_batch`] stages every particle's
//! world-frame scan as one frame-wide query batch, and [`reduce_scan_lls`]
//! reduces the map's per-point log-likelihoods to per-particle weights.
//!
//! The map backend is selected *by name* from a
//! [`crate::registry::BackendRegistry`] (the defaults are the paper's
//! backends):
//!
//! - [`crate::registry::DIGITAL_GMM`] — the conventional approach: a
//!   diagonal GMM evaluated on a digital datapath,
//! - [`crate::registry::CIM_HMGM`] — the co-design: an HMG mixture
//!   compiled onto the floating-gate inverter array and evaluated in
//!   analog, including DAC/ADC quantization, device variation and noise.
//!
//! Custom backends register through
//! [`crate::pipeline::LocalizationPipeline::build_with_registry`] without
//! touching this crate. Fig. 2(e–h) is the comparison of localization
//! convergence between the digital and analog backends; Fig. 2(i) is
//! their energy comparison.

use crate::pipeline::GateConfig;
use crate::registry::DIGITAL_GMM;
use navicim_analog::engine::CimEngineConfig;
use navicim_backend::PointBatch;
use navicim_filter::filter::FilterConfig;
use navicim_filter::motion::OdometryMotion;
use navicim_gmm::fit::FitConfig;
use navicim_gmm::prune::PruneConfig;
use navicim_math::geom::{Pose, Quat, Vec3};
use navicim_math::rng::{Rng64, SampleExt};
use navicim_scene::camera::{DepthCamera, DepthImage};

/// Localizer configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalizerConfig {
    /// Number of particles.
    pub num_particles: usize,
    /// Depth-pixel subsampling stride for the measurement model (at
    /// least 1; the pipeline rejects 0 at build).
    pub pixel_stride: usize,
    /// Number of mixture components in the map model.
    pub components: usize,
    /// Measurement sharpness: per-point mean log-likelihood is multiplied
    /// by this before weighting (tempering against weight collapse).
    pub sharpness: f64,
    /// Initial particle-cloud position σ around the prior pose, in metres.
    pub init_spread: f64,
    /// Initial yaw σ, in radians.
    pub init_yaw_spread: f64,
    /// Motion-model noise.
    pub motion: OdometryMotion,
    /// Particle-filter settings.
    pub filter: FilterConfig,
    /// Likelihood-backend name, resolved against the
    /// [`crate::registry::BackendRegistry`] at build time (defaults:
    /// `"digital-gmm"`, `"cim-hmgm"`).
    pub backend: String,
    /// Analog-engine settings, passed to the backend factory through the
    /// [`crate::registry::MapFitContext`] (digital backends ignore them).
    pub cim: CimEngineConfig,
    /// Mixture-fit settings (GMM warm start for both backends).
    pub fit: FitConfig,
    /// Spatial component-pruning knob, compiled into the digital GMM
    /// backend's fitted map only (see `navicim_gmm::prune`). The analog
    /// CIM backend ignores it: it scores every component. Off by default;
    /// off-mode evaluation is bit-identical to previous releases.
    pub prune: PruneConfig,
    /// Backend-arbitration section: which backend slots the streaming
    /// pipeline instantiates and which [`crate::pipeline::GateKind`]
    /// picks between them per frame. The default is single-backend mode:
    /// serve [`Self::backend`] on every frame.
    pub gate: GateConfig,
    /// Master seed.
    pub seed: u64,
}

impl Default for LocalizerConfig {
    fn default() -> Self {
        Self {
            num_particles: 500,
            pixel_stride: 13,
            components: 16,
            sharpness: 4.0,
            init_spread: 0.25,
            init_yaw_spread: 0.1,
            motion: OdometryMotion::indoor(),
            filter: FilterConfig::default(),
            backend: DIGITAL_GMM.to_string(),
            cim: CimEngineConfig::default(),
            fit: FitConfig::default(),
            prune: PruneConfig::default(),
            gate: GateConfig::default(),
            seed: 0xd20e,
        }
    }
}

/// Per-frame summary of one localization step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepSummary {
    /// Estimated pose after the update.
    pub estimate: Pose,
    /// Translation error against ground truth, in metres.
    pub error: f64,
    /// Particle-cloud positional spread (1σ radius), in metres.
    pub spread: f64,
    /// Effective sample size after the update.
    pub ess: f64,
}

/// Reusable buffers of the scan measurement model, owned by the pipeline
/// so the per-frame weight step allocates nothing in steady state.
#[derive(Debug)]
pub struct ScanScratch {
    /// Camera-frame x of the frame's valid strided pixels (row-major
    /// pixel order; `cam_y`/`cam_z` are the other two SoA columns).
    cam_x: Vec<f64>,
    cam_y: Vec<f64>,
    cam_z: Vec<f64>,
    /// Reused frame-wide query batch.
    pub(crate) batch: PointBatch,
    /// Reused per-particle point counts.
    pub(crate) counts: Vec<usize>,
    /// Reused per-point log-likelihood buffer (the serving slot's output
    /// in `LocalizationPipeline::step`).
    pub(crate) lls: Vec<f64>,
    /// Reused per-particle log-likelihood buffer (the reduce output).
    pub(crate) particle_lls: Vec<f64>,
}

impl Default for ScanScratch {
    fn default() -> Self {
        Self {
            cam_x: Vec::new(),
            cam_y: Vec::new(),
            cam_z: Vec::new(),
            batch: PointBatch::new(3),
            counts: Vec::new(),
            lls: Vec::new(),
            particle_lls: Vec::new(),
        }
    }
}

impl ScanScratch {
    /// The frame-wide query batch staged by the last
    /// [`stage_scan_batch`]: every particle's world-frame scan,
    /// concatenated in particle order.
    pub fn batch(&self) -> &PointBatch {
        &self.batch
    }

    /// Per-particle point counts of the staged batch (every entry equals
    /// the frame's number of valid strided pixels).
    pub fn counts(&self) -> &[usize] {
        &self.counts
    }
}

/// Penalty for a hypothesis whose scan projects to no valid points:
/// heavily penalized but finite.
pub const BLIND_LL: f64 = -1e3;

/// Phase A of the weight step: stages every particle's world-frame scan
/// into `scratch` as one frame-wide query batch plus per-particle point
/// counts. `LocalizationPipeline::begin_frame` runs it, and `step` is
/// `begin_frame` plus one backend call plus `finish_frame`, so a frame
/// served externally is bit-identical to a stepped one by construction.
///
/// Staging is split by what each part depends on:
///
/// - **per frame**, the valid pixels whose row-major index is a multiple
///   of `stride` are backprojected once into camera-frame SoA columns;
/// - **per particle**, those columns are rotated by the particle's
///   quaternion and translated one point at a time, written straight
///   into the batch.
///
/// The result is bit-identical to concatenating
/// [`DepthCamera::project_to_world`] over `states`: the loop repeats
/// `Pose::transform_point` operation for operation.
///
/// # Panics
///
/// Panics if `stride` is zero.
pub fn stage_scan_batch(
    camera: &DepthCamera,
    obs: &DepthImage,
    stride: usize,
    states: &[Pose],
    scratch: &mut ScanScratch,
) {
    assert!(stride > 0, "pixel stride must be positive");
    scratch.cam_x.clear();
    scratch.cam_y.clear();
    scratch.cam_z.clear();
    let width = obs.width();
    for (u, v, d) in obs.valid_pixels() {
        if !(u + v * width).is_multiple_of(stride) {
            continue;
        }
        let p = camera.intrinsics.backproject(u, v, d);
        // lint: allow(hot-path-alloc) amortized push into a buffer cleared each frame
        scratch.cam_x.push(p.x);
        // lint: allow(hot-path-alloc) amortized push into a buffer cleared each frame
        scratch.cam_y.push(p.y);
        // lint: allow(hot-path-alloc) amortized push into a buffer cleared each frame
        scratch.cam_z.push(p.z);
    }
    let n = scratch.cam_x.len();
    scratch.batch.clear();
    scratch.counts.clear();
    for state in states {
        // lint: allow(hot-path-alloc) amortized push into a buffer cleared each frame
        scratch.counts.push(n);
        let out = scratch.batch.extend_zeroed(n);
        transform_scan(state, [&scratch.cam_x, &scratch.cam_y, &scratch.cam_z], out);
    }
}

/// Writes `pose.transform_point` of every camera-frame point in the SoA
/// columns `cam` into the interleaved `out` (`3 × n` doubles).
///
/// The loop body repeats `Quat::rotate` + translation operation for
/// operation (the cross products written as `Vec3::cross` writes them, no
/// fused multiply-add), so every output bit matches `pose.transform_point`.
/// It is written out rather than called because the `geom` methods are
/// not inlined across crates: a `transform_point` call per point runs
/// about ten times slower than this loop.
fn transform_scan(pose: &Pose, cam: [&[f64]; 3], out: &mut [f64]) {
    let [xs, ys, zs] = cam;
    let (q, p) = (pose.rotation, pose.translation);
    let (ux, uy, uz, w) = (q.x, q.y, q.z, q.w);
    let (px, py, pz) = (p.x, p.y, p.z);
    let columns = xs.iter().zip(ys).zip(zs);
    for (((&vx, &vy), &vz), point) in columns.zip(out.chunks_exact_mut(3)) {
        // t = (u × v) * 2
        let tx = (uy * vz - uz * vy) * 2.0;
        let ty = (uz * vx - ux * vz) * 2.0;
        let tz = (ux * vy - uy * vx) * 2.0;
        // r = ((v + t*w) + u × t) + translation
        let rx = ((vx + tx * w) + (uy * tz - uz * ty)) + px;
        let ry = ((vy + ty * w) + (uz * tx - ux * tz)) + py;
        let rz = ((vz + tz * w) + (ux * ty - uy * tx)) + pz;
        point.copy_from_slice(&[rx, ry, rz]);
    }
}

/// Phase B of the weight step: reduces per-point log-likelihoods
/// (aligned with the batch [`stage_scan_batch`] staged) to per-particle
/// weights; particles whose scan projected to no valid points score
/// [`BLIND_LL`].
///
/// # Panics
///
/// Panics if `lls` holds fewer values than `counts` sums to.
pub fn reduce_scan_lls(sharpness: f64, counts: &[usize], lls: &[f64], out: &mut [f64]) {
    let mut offset = 0;
    for (o, &count) in out.iter_mut().zip(counts) {
        if count == 0 {
            *o = BLIND_LL;
            continue;
        }
        let sum: f64 = lls[offset..offset + count].iter().sum();
        *o = sharpness * sum / count as f64;
        offset += count;
    }
}

pub(crate) fn perturb_pose<R: Rng64 + ?Sized>(
    prior: Pose,
    spread: f64,
    yaw_spread: f64,
    rng: &mut R,
) -> Pose {
    let dt = Vec3::new(
        rng.sample_normal(0.0, spread),
        rng.sample_normal(0.0, spread),
        rng.sample_normal(0.0, spread),
    );
    let dyaw = Quat::from_axis_angle(Vec3::Z, rng.sample_normal(0.0, yaw_spread));
    Pose::new(
        dyaw.mul_quat(prior.rotation).normalized(),
        prior.translation + dt,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{LocalizationPipeline, PipelineRun};
    use crate::registry::{BackendRegistry, ClosureBackend, MapFitContext, CIM_HMGM};
    use navicim_scene::dataset::{LocalizationConfig, LocalizationDataset};

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

    fn small_config(backend: &str) -> LocalizerConfig {
        // The constrained HMGM map needs a few more kernels than an
        // unconstrained GMM to cover the same scene discriminatively.
        LocalizerConfig {
            num_particles: 250,
            pixel_stride: 7,
            components: 10,
            backend: backend.to_string(),
            seed: 3,
            ..LocalizerConfig::default()
        }
    }

    fn run(ds: &LocalizationDataset, backend: &str) -> PipelineRun {
        LocalizationPipeline::build(ds, small_config(backend))
            .unwrap()
            .run(ds)
            .unwrap()
    }

    #[test]
    fn digital_backend_tracks() {
        let ds = small_dataset();
        let run = run(&ds, DIGITAL_GMM);
        assert_eq!(run.backends, [DIGITAL_GMM]);
        assert_eq!(run.frames.len(), 9);
        // Tracks within a fraction of the orbit radius throughout.
        let steady = run.steady_state_error();
        assert!(steady < 0.35, "steady-state error {steady}");
        let stats = run.merged_stats();
        assert!(run.total_evaluations() > 0);
        assert!(!stats.is_analog());
        assert_eq!(stats.evaluations, run.total_evaluations());
    }

    #[test]
    fn cim_backend_tracks_comparably() {
        // The headline claim of Fig. 2(e-h): the co-designed CIM backend
        // matches the conventional digital GMM accuracy.
        let ds = small_dataset();
        let digital_run = run(&ds, DIGITAL_GMM);
        let cim_run = run(&ds, CIM_HMGM);
        assert_eq!(cim_run.backends, [CIM_HMGM]);
        let d = digital_run.steady_state_error();
        let c = cim_run.steady_state_error();
        assert!(c < 0.3, "cim steady-state error {c}");
        assert!(c < d * 3.0 + 0.15, "cim {c} vs digital {d}");
        // Trait-level stats carry the hardware counters.
        let stats = cim_run.merged_stats();
        assert!(stats.is_analog());
        assert!(stats.evaluations > 0);
        assert!(stats.avg_current() > 0.0);
    }

    #[test]
    fn unknown_backend_name_rejected() {
        let ds = small_dataset();
        let err = LocalizationPipeline::build(&ds, small_config("warp-drive-map")).unwrap_err();
        assert!(err.to_string().contains("warp-drive-map"), "{err}");
    }

    #[test]
    fn custom_registered_backend_drives_the_filter() {
        // A backend registered from outside core serves the full
        // pipeline: no enum to extend, no core edits. The backend itself
        // is deliberately trivial — distance to the map centroid — since
        // this tests the plumbing, not map quality (a realistic custom
        // backend is demonstrated in examples/drone_localization.rs).
        let ds = small_dataset();
        let mut registry = BackendRegistry::with_defaults();
        registry.register("centroid-map", |ctx: &MapFitContext<'_>| {
            let n = ctx.points.len().max(1) as f64;
            let mut centroid = [0.0f64; 3];
            for p in ctx.points {
                for (c, &x) in centroid.iter_mut().zip(p) {
                    *c += x / n;
                }
            }
            Ok(Box::new(ClosureBackend::new(
                "centroid-map",
                3,
                1,
                move |q: &[f64]| {
                    -centroid
                        .iter()
                        .zip(q)
                        .map(|(c, x)| (c - x).powi(2))
                        .sum::<f64>()
                },
            )))
        });
        let mut loc =
            LocalizationPipeline::build_with_registry(&ds, small_config("centroid-map"), &registry)
                .unwrap();
        let run = loc.run(&ds).unwrap();
        assert_eq!(run.backends, ["centroid-map"]);
        assert!(run.total_evaluations() > 0);
        assert!(run.frames.iter().all(|f| f.summary.error.is_finite()));
    }

    #[test]
    fn uncertainty_shrinks_from_initial_spread() {
        let ds = small_dataset();
        let init_spread = small_config(DIGITAL_GMM).init_spread;
        let run = run(&ds, DIGITAL_GMM);
        // The measurement updates collapse the cloud well below the
        // configured initial 1-sigma radius and keep it there.
        let last = run.frames.last().unwrap().summary.spread;
        assert!(last < init_spread / 2.0, "spread {init_spread} -> {last}");
    }

    #[test]
    fn empty_dataset_rejected() {
        let ds = small_dataset();
        let empty = LocalizationDataset {
            scene: ds.scene.clone(),
            map_points: ds.map_points.clone(),
            frames: vec![],
            camera: ds.camera,
        };
        assert!(LocalizationPipeline::build(&empty, small_config(DIGITAL_GMM)).is_err());
    }

    #[test]
    fn deterministic_given_seed() {
        let ds = small_dataset();
        assert_eq!(run(&ds, DIGITAL_GMM), run(&ds, DIGITAL_GMM));
    }
}
