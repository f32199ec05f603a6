//! Pipeline A — CIM particle-filter drone localization (paper Section II).
//!
//! A [`CimLocalizer`] fits a map backend to a scene's point cloud, then
//! tracks the camera through its depth frames with a particle filter whose
//! measurement model projects subsampled depth pixels into the world and
//! scores them against the map. The map backend is selected *by name*
//! from a [`BackendRegistry`] (the defaults are the paper's backends):
//!
//! - [`crate::registry::DIGITAL_GMM`] — the conventional approach: a
//!   diagonal GMM evaluated on a digital datapath,
//! - [`crate::registry::DIGITAL_HMGM`] — the co-designed kernel family
//!   evaluated in floating point (the map-family ablation),
//! - [`crate::registry::CIM_HMGM`] — the co-design: an HMG mixture
//!   compiled onto the floating-gate inverter array and evaluated in
//!   analog, including DAC/ADC quantization, device variation and noise.
//!
//! Custom backends register through
//! [`CimLocalizer::build_with_registry`] without touching this crate.
//! Fig. 2(e–h) is the comparison of localization convergence between the
//! digital and analog backends; Fig. 2(i) is their energy comparison.

use crate::pipeline::{GateConfig, LocalizationPipeline, PipelineRun};
use crate::registry::{BackendRegistry, BackendStats, MapBackend, DIGITAL_GMM};
use crate::Result;
use navicim_analog::engine::CimEngineConfig;
use navicim_backend::PointBatch;
use navicim_filter::filter::{FilterConfig, Measurement};
use navicim_filter::motion::OdometryMotion;
use navicim_gmm::fit::FitConfig;
use navicim_gmm::prune::PruneConfig;
use navicim_math::geom::{Pose, Quat, Vec3};
use navicim_math::rng::{Rng64, SampleExt};
use navicim_math::simd::F64x4;
use navicim_scene::camera::{DepthCamera, DepthImage};
use navicim_scene::dataset::LocalizationDataset;

/// How the particle-filter weight step feeds the map backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WeightPath {
    /// One backend call per particle (the pre-batching behavior; kept for
    /// A/B benchmarking and equivalence testing).
    Scalar,
    /// One backend call per frame: every particle's projected scan points
    /// are gathered into a single [`PointBatch`]. Bit-identical to
    /// [`WeightPath::Scalar`] and substantially faster.
    #[default]
    Batched,
}

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
    /// Likelihood-backend name, resolved against the [`BackendRegistry`]
    /// at build time (defaults: `"digital-gmm"`, `"digital-hmgm"`,
    /// `"cim-hmgm"`).
    pub backend: String,
    /// Analog-engine settings, passed to the backend factory through the
    /// [`MapFitContext`] (digital backends ignore them).
    pub cim: CimEngineConfig,
    /// How the weight step feeds the backend (scalar vs batched).
    pub weight_path: WeightPath,
    /// Mixture-fit settings (GMM warm start for both backends).
    pub fit: FitConfig,
    /// Spatial component-pruning knob, compiled into every backend's
    /// fitted map (see `navicim_gmm::prune`). Off by default; off-mode
    /// evaluation is bit-identical to previous releases.
    pub prune: PruneConfig,
    /// Backend-arbitration section: which backend slots the streaming
    /// pipeline instantiates and which [`crate::pipeline::GatePolicy`]
    /// picks between them per frame. The default is single-backend mode
    /// (serve [`Self::backend`] on every frame), which preserves the
    /// monolithic behavior exactly.
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
            weight_path: WeightPath::default(),
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

/// Outcome of a full localization run.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalizationRun {
    /// Backend name.
    pub backend: String,
    /// Per-frame estimates (starting at frame 1).
    pub estimates: Vec<Pose>,
    /// Per-frame ground truth (aligned with `estimates`).
    pub truths: Vec<Pose>,
    /// Per-frame translation errors.
    pub errors: Vec<f64>,
    /// Per-frame particle spreads.
    pub spreads: Vec<f64>,
    /// Map point evaluations served during the run.
    pub point_evaluations: u64,
    /// Trait-level backend operation counters (converter fields stay zero
    /// on digital backends; see [`BackendStats::is_analog`]).
    pub stats: BackendStats,
}

impl LocalizationRun {
    /// Mean translation error over the final quarter of the run
    /// (steady-state accuracy).
    pub fn steady_state_error(&self) -> f64 {
        let n = self.errors.len();
        if n == 0 {
            return 0.0;
        }
        let tail = &self.errors[n - (n / 4).max(1)..];
        navicim_math::stats::mean(tail)
    }
}

/// The Section II pipeline — now a thin wrapper over a single-backend
/// [`LocalizationPipeline`], so the monolithic build/step/run API keeps
/// working bit-for-bit while the streaming pipeline carries the actual
/// logic (and, when [`LocalizerConfig::gate`] names several backends,
/// the per-frame digital↔analog arbitration).
pub struct CimLocalizer {
    pipeline: LocalizationPipeline,
}

impl std::fmt::Debug for CimLocalizer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CimLocalizer")
            .field("pipeline", &self.pipeline)
            .finish_non_exhaustive()
    }
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
    /// Reused per-point log-likelihood buffer.
    pub(crate) lls: Vec<f64>,
    /// Reused per-particle log-likelihood buffer (the reduce output when
    /// the evaluation phase runs outside the sensor, see
    /// `LocalizationPipeline::finish_frame`).
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
/// counts. Shared by the pipeline's `step` and `begin_frame`, so the
/// split (externally served) evaluation path is bit-identical to the
/// monolithic one by construction.
///
/// Staging is split by what each part depends on:
///
/// - **per frame**, the valid pixels whose row-major index is a multiple
///   of `stride` are backprojected once into camera-frame SoA columns;
/// - **per particle**, those columns are rotated by the particle's
///   quaternion and translated four lanes at a time, written straight
///   into the batch.
///
/// The result is bit-identical to concatenating
/// [`DepthCamera::project_to_world`] over `states`: the lanes repeat
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
        scratch.cam_x.push(p.x);
        scratch.cam_y.push(p.y);
        scratch.cam_z.push(p.z);
    }
    let n = scratch.cam_x.len();
    scratch.batch.clear();
    scratch.counts.clear();
    for state in states {
        scratch.counts.push(n);
        let out = scratch.batch.extend_zeroed(n);
        transform_scan(state, [&scratch.cam_x, &scratch.cam_y, &scratch.cam_z], out);
    }
}

/// Writes `pose.transform_point` of every camera-frame point in the SoA
/// columns `cam` into the interleaved `out` (`3 × n` doubles).
///
/// Four points per step with [`F64x4`]; each lane repeats
/// `Quat::rotate` + translation operation for operation (the cross
/// products written as `Vec3::cross` writes them, no fused multiply-add),
/// so every output bit matches the scalar path, which serves the
/// remainder.
fn transform_scan(pose: &Pose, cam: [&[f64]; 3], out: &mut [f64]) {
    let [xs, ys, zs] = cam;
    let q = pose.rotation;
    let (ux, uy, uz, w) = (
        F64x4::splat(q.x),
        F64x4::splat(q.y),
        F64x4::splat(q.z),
        F64x4::splat(q.w),
    );
    let p = pose.translation;
    let (px, py, pz) = (F64x4::splat(p.x), F64x4::splat(p.y), F64x4::splat(p.z));
    let two = F64x4::splat(2.0);
    let lanes = xs.len() - xs.len() % 4;
    let columns = xs[..lanes]
        .chunks_exact(4)
        .zip(ys.chunks_exact(4))
        .zip(zs.chunks_exact(4));
    for (((x4, y4), z4), o) in columns.zip(out.chunks_exact_mut(12)) {
        let (vx, vy, vz) = (F64x4::load(x4), F64x4::load(y4), F64x4::load(z4));
        // t = (u × v) * 2
        let tx = (uy * vz - uz * vy) * two;
        let ty = (uz * vx - ux * vz) * two;
        let tz = (ux * vy - uy * vx) * two;
        // r = ((v + t*w) + u × t) + translation
        let rx = ((vx + tx * w) + (uy * tz - uz * ty)) + px;
        let ry = ((vy + ty * w) + (uz * tx - ux * tz)) + py;
        let rz = ((vz + tz * w) + (ux * ty - uy * tx)) + pz;
        let (rx, ry, rz) = (rx.to_array(), ry.to_array(), rz.to_array());
        for (lane, point) in o.chunks_exact_mut(3).enumerate() {
            point.copy_from_slice(&[rx[lane], ry[lane], rz[lane]]);
        }
    }
    for (i, point) in (lanes..xs.len()).zip(out[3 * lanes..].chunks_exact_mut(3)) {
        let r = pose.transform_point(Vec3::new(xs[i], ys[i], zs[i]));
        point.copy_from_slice(&[r.x, r.y, r.z]);
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

pub(crate) struct ScanSensor<'a> {
    map: &'a mut dyn MapBackend,
    camera: &'a DepthCamera,
    stride: usize,
    sharpness: f64,
    path: WeightPath,
    scratch: &'a mut ScanScratch,
}

impl<'a> ScanSensor<'a> {
    pub(crate) fn new(
        map: &'a mut dyn MapBackend,
        camera: &'a DepthCamera,
        stride: usize,
        sharpness: f64,
        path: WeightPath,
        scratch: &'a mut ScanScratch,
    ) -> Self {
        Self {
            map,
            camera,
            stride,
            sharpness,
            path,
            scratch,
        }
    }
}

impl Measurement<Pose, DepthImage> for ScanSensor<'_> {
    fn log_likelihood(&mut self, state: &Pose, obs: &DepthImage) -> f64 {
        let scratch = &mut *self.scratch;
        stage_scan_batch(
            self.camera,
            obs,
            self.stride,
            std::slice::from_ref(state),
            scratch,
        );
        // Blind particles skip the backend, as in the batched path.
        if scratch.batch.is_empty() {
            return BLIND_LL;
        }
        scratch.lls.resize(scratch.batch.len(), 0.0);
        self.map
            .log_likelihood_into(&scratch.batch, &mut scratch.lls);
        let mut ll = 0.0;
        reduce_scan_lls(
            self.sharpness,
            &scratch.counts,
            &scratch.lls,
            std::slice::from_mut(&mut ll),
        );
        ll
    }

    /// The frame-wide weight step: stages every particle's scan into one
    /// [`PointBatch`] and serves it to the map backend in a single call.
    /// Bit-identical to the scalar path — points are evaluated in the
    /// same order, so even the CIM engine's noise stream lines up.
    fn log_likelihood_batch(&mut self, states: &[Pose], obs: &DepthImage, out: &mut [f64]) {
        assert_eq!(
            states.len(),
            out.len(),
            "output buffer must hold one log-likelihood per state"
        );
        if self.path == WeightPath::Scalar {
            for (o, s) in out.iter_mut().zip(states) {
                *o = self.log_likelihood(s, obs);
            }
            return;
        }
        let sharpness = self.sharpness;
        let scratch = &mut *self.scratch;
        stage_scan_batch(self.camera, obs, self.stride, states, scratch);
        scratch.lls.resize(scratch.batch.len(), 0.0);
        self.map
            .log_likelihood_into(&scratch.batch, &mut scratch.lls);
        reduce_scan_lls(sharpness, &scratch.counts, &scratch.lls, out);
    }
}

impl CimLocalizer {
    /// Fits the map model on the dataset's point cloud, builds the named
    /// backend from the default [`BackendRegistry`] and initializes the
    /// particle cloud around the first frame's pose.
    ///
    /// # Errors
    ///
    /// Propagates fitting/compilation errors; rejects empty datasets and
    /// unknown backend names.
    pub fn build(dataset: &LocalizationDataset, config: LocalizerConfig) -> Result<Self> {
        Self::build_with_registry(dataset, config, &BackendRegistry::with_defaults())
    }

    /// [`Self::build`] against a caller-supplied registry — the hook for
    /// custom backends: register a factory, name it in
    /// [`LocalizerConfig::backend`], and the localizer serves it with no
    /// change to this crate.
    ///
    /// # Errors
    ///
    /// Propagates fitting/compilation errors; rejects empty datasets and
    /// unknown backend names.
    pub fn build_with_registry(
        dataset: &LocalizationDataset,
        config: LocalizerConfig,
        registry: &BackendRegistry,
    ) -> Result<Self> {
        Ok(Self {
            pipeline: LocalizationPipeline::build_with_registry(dataset, config, registry)?,
        })
    }

    /// The underlying streaming pipeline (gate state, per-slot backends).
    pub fn pipeline(&self) -> &LocalizationPipeline {
        &self.pipeline
    }

    /// Mutable access to the underlying pipeline.
    pub fn pipeline_mut(&mut self) -> &mut LocalizationPipeline {
        &mut self.pipeline
    }

    /// The map backend in slot 0 (for stats and energy accounting). In
    /// single-backend mode — the default — this is *the* backend.
    pub fn map(&self) -> &dyn MapBackend {
        self.pipeline.backend(0)
    }

    /// Current pose estimate (weighted mean of the cloud).
    pub fn estimate(&self) -> Pose {
        self.pipeline.estimate()
    }

    /// One predict/update step given odometry `control` and the new depth
    /// frame; returns the per-frame summary against `truth`.
    ///
    /// # Errors
    ///
    /// Propagates filter degeneracy.
    pub fn step(&mut self, control: &Pose, depth: &DepthImage, truth: Pose) -> Result<StepSummary> {
        Ok(self.pipeline.step(control, depth, truth)?.summary)
    }

    /// Runs the filter over the whole dataset using ground-truth frame
    /// deltas as odometry (the motion model adds its own noise). The
    /// wrapper always runs open loop; for VO-driven closed-loop control
    /// (`ControlSource::VisualOdometry` with uncertainty-scaled motion
    /// noise) use [`LocalizationPipeline`] directly — see
    /// `LocalizationPipeline::with_control`.
    ///
    /// # Errors
    ///
    /// Propagates step errors.
    pub fn run(&mut self, dataset: &LocalizationDataset) -> Result<LocalizationRun> {
        Ok(LocalizationRun::from(self.pipeline.run(dataset)?))
    }
}

impl From<PipelineRun> for LocalizationRun {
    /// Flattens a pipeline run into the monolithic run record: per-frame
    /// series extracted from the [`crate::pipeline::FrameReport`]s,
    /// per-slot stats merged into one total, slot names joined with `+`
    /// for gated runs.
    fn from(run: PipelineRun) -> Self {
        let stats = run.merged_stats();
        LocalizationRun {
            backend: run.backends.join("+"),
            estimates: run.frames.iter().map(|f| f.summary.estimate).collect(),
            truths: run.frames.iter().map(|f| f.truth).collect(),
            errors: run.frames.iter().map(|f| f.summary.error).collect(),
            spreads: run.frames.iter().map(|f| f.summary.spread).collect(),
            point_evaluations: stats.evaluations,
            stats,
        }
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
    use crate::registry::{ClosureBackend, MapFitContext, CIM_HMGM};
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

    #[test]
    fn digital_backend_tracks() {
        let ds = small_dataset();
        let mut loc = CimLocalizer::build(&ds, small_config(DIGITAL_GMM)).unwrap();
        let run = loc.run(&ds).unwrap();
        assert_eq!(run.backend, DIGITAL_GMM);
        assert_eq!(run.errors.len(), 9);
        // Tracks within a fraction of the orbit radius throughout.
        let steady = run.steady_state_error();
        assert!(steady < 0.35, "steady-state error {steady}");
        assert!(run.point_evaluations > 0);
        assert!(!run.stats.is_analog());
        assert_eq!(run.stats.evaluations, run.point_evaluations);
    }

    #[test]
    fn cim_backend_tracks_comparably() {
        // The headline claim of Fig. 2(e-h): the co-designed CIM backend
        // matches the conventional digital GMM accuracy.
        let ds = small_dataset();
        let mut digital = CimLocalizer::build(&ds, small_config(DIGITAL_GMM)).unwrap();
        let digital_run = digital.run(&ds).unwrap();
        let mut cim = CimLocalizer::build(&ds, small_config(CIM_HMGM)).unwrap();
        let cim_run = cim.run(&ds).unwrap();
        assert_eq!(cim_run.backend, CIM_HMGM);
        let d = digital_run.steady_state_error();
        let c = cim_run.steady_state_error();
        assert!(c < 0.3, "cim steady-state error {c}");
        assert!(c < d * 3.0 + 0.15, "cim {c} vs digital {d}");
        // Trait-level stats carry the hardware counters.
        let stats = cim_run.stats;
        assert!(stats.is_analog());
        assert!(stats.evaluations > 0);
        assert!(stats.avg_current() > 0.0);
    }

    #[test]
    fn unknown_backend_name_rejected() {
        let ds = small_dataset();
        let err = CimLocalizer::build(&ds, small_config("warp-drive-map")).unwrap_err();
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
            CimLocalizer::build_with_registry(&ds, small_config("centroid-map"), &registry)
                .unwrap();
        let run = loc.run(&ds).unwrap();
        assert_eq!(run.backend, "centroid-map");
        assert!(run.point_evaluations > 0);
        assert!(run.errors.iter().all(|e| e.is_finite()));
    }

    #[test]
    fn batched_weight_path_is_bit_identical_to_scalar() {
        // The tentpole invariant: switching the weight step from
        // per-particle scalar calls to one frame-wide batch changes
        // nothing observable — same estimates, same errors, same
        // evaluation counts — on both backends.
        let ds = small_dataset();
        for backend in [DIGITAL_GMM, CIM_HMGM] {
            let run_with = |path: WeightPath| {
                let config = LocalizerConfig {
                    weight_path: path,
                    ..small_config(backend)
                };
                CimLocalizer::build(&ds, config).unwrap().run(&ds).unwrap()
            };
            let scalar = run_with(WeightPath::Scalar);
            let batched = run_with(WeightPath::Batched);
            assert_eq!(scalar.errors, batched.errors, "{backend}");
            assert_eq!(scalar.estimates, batched.estimates, "{backend}");
            assert_eq!(
                scalar.point_evaluations, batched.point_evaluations,
                "{backend}"
            );
            assert_eq!(scalar.stats, batched.stats, "{backend}");
        }
    }

    #[test]
    fn uncertainty_shrinks_from_initial_spread() {
        let ds = small_dataset();
        let config = small_config(DIGITAL_GMM);
        let init_spread = config.init_spread;
        let mut loc = CimLocalizer::build(&ds, config).unwrap();
        let run = loc.run(&ds).unwrap();
        // The measurement updates collapse the cloud well below the
        // configured initial 1-sigma radius and keep it there.
        let last = run.spreads.last().copied().unwrap();
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
        assert!(CimLocalizer::build(&empty, small_config(DIGITAL_GMM)).is_err());
    }

    #[test]
    fn deterministic_given_seed() {
        let ds = small_dataset();
        let run1 = CimLocalizer::build(&ds, small_config(DIGITAL_GMM))
            .unwrap()
            .run(&ds)
            .unwrap();
        let run2 = CimLocalizer::build(&ds, small_config(DIGITAL_GMM))
            .unwrap()
            .run(&ds)
            .unwrap();
        assert_eq!(run1.errors, run2.errors);
    }
}
