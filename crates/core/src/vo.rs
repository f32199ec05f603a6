//! Pipeline B — CIM MC-Dropout Bayesian visual odometry (Section III).
//!
//! A small pose regressor is trained on frame-pair features, exported to
//! the quantized representation and executed on the modeled SRAM CIM
//! macro. MC-Dropout inference draws dropout masks from either a software
//! PRNG or the modeled SRAM-embedded CCI RNG, optionally reorders the
//! iterations for compute reuse (the paper's sample ordering) and returns
//! predictive mean *and* variance per frame — the uncertainty signal of
//! Fig. 3(f).

use crate::{CoreError, Result};
use navicim_math::geom::Pose;
use navicim_math::metrics::{trajectory_error, TrajectoryError};
use navicim_math::rng::{Pcg32, Rng64};
use navicim_nn::loss::Mse;
use navicim_nn::mc::{mc_moments_in_place, McPrediction};
use navicim_nn::mlp::Mlp;
use navicim_nn::optim::Adam;
use navicim_nn::quant::{ForwardWorkspace, QuantBackend, QuantMatrix, QuantizedMlp};
use navicim_nn::train::{train, Example, TrainConfig};
use navicim_nn::Mode;
use navicim_scene::dataset::{integrate_deltas, VoDataset, VoSample};
use navicim_sram::cim_macro::{MacroConfig, MacroStats, SramCimMacro};
use navicim_sram::reuse::{flatten_iteration_into, greedy_order};
use navicim_sram::rng::{CciRng, CciRngConfig};

/// [`QuantBackend`] adapter over the modeled SRAM macro: programs weight
/// arrays lazily on first use and delegates every matrix-vector product.
#[derive(Debug, Clone)]
pub struct CimQuantBackend {
    cim: SramCimMacro,
}

impl CimQuantBackend {
    /// Wraps a macro.
    pub fn new(cim: SramCimMacro) -> Self {
        Self { cim }
    }

    /// The underlying macro (stats, configuration).
    pub fn cim(&self) -> &SramCimMacro {
        &self.cim
    }
}

impl QuantBackend for CimQuantBackend {
    fn matvec_into(
        &mut self,
        layer_id: usize,
        matrix: &QuantMatrix,
        input: &[i64],
        out_mask: &[bool],
        acc: &mut Vec<i64>,
    ) {
        if !self.cim.has_layer(layer_id) {
            self.cim
                .program_layer(layer_id, matrix.codes(), matrix.rows(), matrix.cols())
                .expect("matrix shape is self-consistent");
        }
        self.cim
            .matvec_into(layer_id, input, out_mask, acc)
            .expect("shapes validated by QuantizedMlp")
    }

    fn reset(&mut self) {
        self.cim.reset_reuse();
    }
}

/// Scale applied to the rotation components of the training targets
/// (PoseNet-style beta weighting). Values above 1 improve full-precision
/// yaw accuracy but widen the output-layer weight range, which hurts
/// 4-bit quantization; the default keeps the low-precision story of
/// Fig. 3(c-e) intact.
const ROT_TARGET_SCALE: f64 = 1.0;

/// Training configuration for the VO regressor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VoTrainConfig {
    /// First hidden-layer width.
    pub hidden1: usize,
    /// Second hidden-layer width.
    pub hidden2: usize,
    /// Dropout probability (the paper uses 0.5).
    pub dropout_p: f64,
    /// Training epochs.
    pub epochs: usize,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Seed for initialization, shuffling and dropout.
    pub seed: u64,
}

impl Default for VoTrainConfig {
    fn default() -> Self {
        Self {
            hidden1: 128,
            hidden2: 64,
            dropout_p: 0.5,
            epochs: 400,
            learning_rate: 2e-3,
            batch_size: 16,
            seed: 0x0d0,
        }
    }
}

/// Trains the 6-DoF pose regressor on a VO dataset's samples.
///
/// # Errors
///
/// Propagates network construction/training errors.
pub fn train_vo_network(
    samples: &[VoSample],
    in_dim: usize,
    config: &VoTrainConfig,
) -> Result<Mlp> {
    let mut rng = Pcg32::seed_from_u64(config.seed);
    let mut net = Mlp::builder(in_dim)
        .dense(config.hidden1)
        .relu()
        .dropout(config.dropout_p)
        .dense(config.hidden2)
        .relu()
        .dropout(config.dropout_p)
        .dense(6)
        .build(&mut rng)?;
    let examples: Vec<Example> = samples
        .iter()
        .map(|s| {
            let mut target = s.target.to_vec();
            for r in &mut target[3..6] {
                *r *= ROT_TARGET_SCALE;
            }
            Example {
                input: s.features.clone(),
                target,
            }
        })
        .collect();
    let mut opt = Adam::new(config.learning_rate)?;
    train(
        &mut net,
        &examples,
        &Mse,
        &mut opt,
        &TrainConfig {
            epochs: config.epochs,
            batch_size: config.batch_size,
            shuffle: true,
        },
        &mut rng,
    )?;
    Ok(net)
}

/// Where dropout bits come from.
#[derive(Debug, Clone)]
enum MaskSource {
    /// Software PRNG (ideal bits).
    Pseudorandom(Pcg32),
    /// The modeled SRAM-embedded CCI RNG (calibrated at construction).
    SramRng(Box<CciRng>),
}

impl MaskSource {
    fn rng_mut(&mut self) -> &mut dyn Rng64 {
        match self {
            MaskSource::Pseudorandom(r) => r,
            MaskSource::SramRng(r) => r.as_mut(),
        }
    }

    /// Bits drawn so far from the silicon RNG (`None` for the PRNG).
    pub fn silicon_bits(&self) -> Option<u64> {
        match self {
            MaskSource::Pseudorandom(_) => None,
            MaskSource::SramRng(r) => Some(r.bits_generated()),
        }
    }
}

/// Configuration of the Bayesian VO engine.
#[derive(Debug, Clone, PartialEq)]
pub struct VoPipelineConfig {
    /// Weight precision in bits (paper: 4 or 6).
    pub weight_bits: u32,
    /// Activation precision in bits.
    pub act_bits: u32,
    /// Partial-sum ADC resolution of the macro.
    pub adc_bits: u32,
    /// MC-Dropout iterations per frame (paper: 30).
    pub mc_iterations: usize,
    /// Enable the compute-reuse scheme in the macro.
    pub reuse: bool,
    /// Enable greedy sample ordering.
    pub order_samples: bool,
    /// Draw dropout bits from the modeled CCI RNG instead of a PRNG.
    pub silicon_rng: bool,
    /// Master seed.
    pub seed: u64,
}

impl Default for VoPipelineConfig {
    fn default() -> Self {
        Self {
            weight_bits: 4,
            act_bits: 4,
            adc_bits: 12,
            mc_iterations: 30,
            reuse: true,
            order_samples: true,
            silicon_rng: false,
            seed: 0xb0b,
        }
    }
}

/// Outcome of a trajectory run.
#[derive(Debug, Clone, PartialEq)]
pub struct VoRun {
    /// Estimated absolute trajectory (length = samples + 1).
    pub estimates: Vec<Pose>,
    /// Ground-truth trajectory.
    pub truths: Vec<Pose>,
    /// Per-step translation error of the predicted delta, in metres.
    pub per_step_error: Vec<f64>,
    /// Per-step total predictive variance (uncertainty signal).
    pub per_step_variance: Vec<f64>,
    /// Per-step MC-Dropout iteration counts (empty for the deterministic
    /// and full-precision baselines, which draw no stochastic samples).
    pub per_step_iterations: Vec<usize>,
    /// Trajectory error summary.
    pub trajectory: TrajectoryError,
    /// Macro operation counters accumulated over the run.
    pub macro_stats: MacroStats,
    /// Dropout bits drawn from the silicon RNG, when used.
    pub silicon_bits: Option<u64>,
}

impl VoRun {}

/// Thresholds of the [`AdaptiveMcPolicy`] — the paper Section III knob:
/// MC-Dropout depth driven by predictive variance, mirroring the map
/// gate's hysteresis-plus-dwell shape on the VO axis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveMcConfig {
    /// Depth floor (≥ 2: variance needs at least two samples).
    pub min_iterations: usize,
    /// Depth ceiling (≥ `min_iterations`); also the startup depth — a
    /// fresh run is maximally uncertain, like the map gate starting
    /// digital.
    pub max_iterations: usize,
    /// Previous-frame total predictive variance at or below which the
    /// policy drops to `min_iterations` (confident: spend less compute).
    pub var_low: f64,
    /// Variance at or above which it returns to `max_iterations`
    /// (uncertain: spend more). Must exceed `var_low`; between the two
    /// the depth holds (hysteresis dead zone).
    pub var_high: f64,
    /// Minimum frames between depth changes (≥ 1), bounding oscillation
    /// on noisy variance signals exactly like the map gate's dwell.
    pub dwell: usize,
}

/// Per-frame MC-Dropout depth selection from the previous frame's
/// predictive variance.
///
/// Stateful like [`crate::pipeline::HysteresisGate`]: the first call returns
/// `max_iterations` (no variance history yet), later calls apply the
/// hysteresis band with the dwell lock. Depth decisions are a pure
/// function of the observed variance sequence, so repeated runs are
/// bit-identical.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveMcPolicy {
    config: AdaptiveMcConfig,
    current: usize,
    since_change: usize,
    changes: u64,
    started: bool,
}

impl AdaptiveMcPolicy {
    /// Validates the thresholds and builds the policy.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidArgument`] unless
    /// `2 <= min_iterations <= max_iterations`,
    /// `0 <= var_low < var_high` (both finite) and `dwell >= 1`.
    pub fn new(config: AdaptiveMcConfig) -> Result<Self> {
        if config.min_iterations < 2 || config.max_iterations < config.min_iterations {
            return Err(CoreError::InvalidArgument(format!(
                "adaptive-mc iteration bounds must satisfy 2 <= min <= max (got {} / {})",
                config.min_iterations, config.max_iterations
            )));
        }
        if !(config.var_low >= 0.0)
            || !(config.var_high > config.var_low)
            || !config.var_high.is_finite()
        {
            return Err(CoreError::InvalidArgument(format!(
                "adaptive-mc variance thresholds must satisfy 0 <= var_low < var_high \
                 (got {} / {})",
                config.var_low, config.var_high
            )));
        }
        if config.dwell == 0 {
            return Err(CoreError::InvalidArgument(
                "adaptive-mc dwell must be at least 1 frame".into(),
            ));
        }
        Ok(Self {
            config,
            current: config.max_iterations,
            since_change: 0,
            changes: 0,
            started: false,
        })
    }

    /// A depth policy pinned to `iterations` — the fixed-depth baseline
    /// (the paper's constant 30) expressed in the same type, so fixed and
    /// adaptive runs share one code path.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidArgument`] for fewer than 2 iterations.
    pub fn fixed(iterations: usize) -> Result<Self> {
        Self::new(AdaptiveMcConfig {
            min_iterations: iterations,
            max_iterations: iterations,
            var_low: 0.0,
            var_high: f64::MAX,
            dwell: 1,
        })
    }

    /// The policy's thresholds.
    pub fn config(&self) -> &AdaptiveMcConfig {
        &self.config
    }

    /// Whether the depth is pinned (`min_iterations == max_iterations`).
    fn is_fixed(&self) -> bool {
        self.config.min_iterations == self.config.max_iterations
    }

    /// Number of depth changes performed since construction/reset.
    pub fn changes(&self) -> u64 {
        self.changes
    }

    /// Policy name for reports.
    pub fn name(&self) -> String {
        if self.is_fixed() {
            format!("fixed-mc{}", self.config.max_iterations)
        } else {
            format!(
                "adaptive-mc[{}..{}]",
                self.config.min_iterations, self.config.max_iterations
            )
        }
    }

    /// Chooses this frame's MC-Dropout iteration count from the previous
    /// frame's total predictive variance (`None` on the first frame or
    /// when no prediction has run yet). Non-finite variances hold the
    /// current depth.
    pub fn next_iterations(&mut self, prev_variance: Option<f64>) -> usize {
        if !self.started {
            self.started = true;
            self.current = self.config.max_iterations;
            self.since_change = 0;
            return self.current;
        }
        self.since_change = self.since_change.saturating_add(1);
        if self.since_change >= self.config.dwell {
            let target = match prev_variance {
                Some(v) if v.is_finite() && v <= self.config.var_low => self.config.min_iterations,
                Some(v) if v.is_finite() && v >= self.config.var_high => self.config.max_iterations,
                _ => self.current,
            };
            if target != self.current {
                self.current = target;
                self.since_change = 0;
                self.changes += 1;
            }
        }
        self.current
    }

    /// Resets internal state (depth, dwell counter, change count) for a
    /// fresh run.
    pub fn reset(&mut self) {
        self.current = self.config.max_iterations;
        self.since_change = 0;
        self.changes = 0;
        self.started = false;
    }
}

/// The Section III pipeline: quantized MC-Dropout VO on the SRAM macro.
#[derive(Debug, Clone)]
pub struct BayesianVo {
    qnet: QuantizedMlp,
    backend: CimQuantBackend,
    masks: MaskSource,
    config: VoPipelineConfig,
    /// Persistent forward scratch — the per-frame prediction path
    /// allocates only its returned samples after warmup.
    ws: ForwardWorkspace,
    /// Reused per-iteration mask sets (outer and inner buffers kept).
    mask_sets: Vec<Vec<Vec<bool>>>,
    /// Reused flattened masks for the greedy ordering.
    flat_masks: Vec<Vec<bool>>,
}

impl BayesianVo {
    /// Quantizes a trained network and prepares the macro and mask source.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidArgument`] when `config.mc_iterations`
    /// is below 2 (a predictive variance needs two passes), and
    /// propagates quantization and RNG-fabrication errors; requires a
    /// non-empty calibration set.
    pub fn build(net: &Mlp, calibration: &[Vec<f64>], config: VoPipelineConfig) -> Result<Self> {
        if config.mc_iterations < 2 {
            return Err(CoreError::InvalidArgument(format!(
                "mc_iterations must be at least 2, got {}",
                config.mc_iterations
            )));
        }
        let qnet = QuantizedMlp::from_mlp(net, config.weight_bits, config.act_bits, calibration)?;
        let backend = CimQuantBackend::new(SramCimMacro::new(MacroConfig {
            adc_bits: config.adc_bits,
            reuse: config.reuse,
            ..MacroConfig::default()
        }));
        let mut seed_rng = Pcg32::seed_from_u64(config.seed);
        let masks = if config.silicon_rng {
            let mut rng = CciRng::fabricate(&CciRngConfig::default(), &mut seed_rng)?;
            rng.calibrate(2000);
            MaskSource::SramRng(Box::new(rng))
        } else {
            MaskSource::Pseudorandom(seed_rng)
        };
        Ok(Self {
            qnet,
            backend,
            masks,
            config,
            ws: ForwardWorkspace::new(),
            mask_sets: Vec::new(),
            flat_masks: Vec::new(),
        })
    }

    /// The quantized network.
    pub fn qnet(&self) -> &QuantizedMlp {
        &self.qnet
    }

    /// Macro operation counters.
    pub fn macro_stats(&self) -> MacroStats {
        self.backend.cim().stats()
    }

    /// Dropout bits drawn so far from the silicon RNG (`None` for the
    /// software PRNG source) — snapshot this around a prediction to
    /// price the RNG term of a frame's inference energy.
    pub fn silicon_bits(&self) -> Option<u64> {
        self.masks.silicon_bits()
    }

    /// The pipeline configuration.
    pub fn config(&self) -> &VoPipelineConfig {
        &self.config
    }

    /// One MC-Dropout prediction: `mc_iterations` stochastic passes on the
    /// frame features, with optional greedy iteration ordering.
    ///
    /// Owned-output adapter over `Self::predict_into`; frame loops that
    /// want the zero-alloc path should reuse one [`McPrediction`] there
    /// instead.
    pub fn predict(&mut self, features: &[f64]) -> McPrediction {
        let mut pred = McPrediction::default();
        self.predict_into(features, &mut pred);
        pred
    }

    /// [`Self::predict`] into a caller-pooled [`McPrediction`]: the mask
    /// sets, the flattened ordering inputs, the forward scratch *and* the
    /// per-iteration sample vectors all live in reused buffers, so a
    /// steady-state frame loop performs no heap allocation beyond the
    /// greedy ordering's permutation. Arithmetic and RNG consumption are
    /// identical to [`Self::predict`].
    fn predict_into(&mut self, features: &[f64], pred: &mut McPrediction) {
        self.predict_n_into(features, self.config.mc_iterations, pred);
    }

    /// Variable-depth pooled prediction: `iterations` overrides the
    /// configured `mc_iterations` for this call — the compute-adaptive
    /// knob an [`AdaptiveMcPolicy`] drives per frame. All scratch
    /// (mask sets, flattened orderings, MC sample slots) is kept at its
    /// lifetime high-water mark: shrinking the depth deallocates
    /// nothing, growing allocates only past the widest call so far.
    /// With `iterations == config.mc_iterations` this is bit-identical
    /// to `Self::predict_into`.
    ///
    /// # Panics
    ///
    /// Panics for fewer than 2 iterations (the predictive variance needs
    /// at least two samples).
    pub fn predict_n_into(&mut self, features: &[f64], iterations: usize, pred: &mut McPrediction) {
        assert!(iterations >= 2, "mc-dropout requires at least 2 iterations");
        let t = iterations;
        if self.mask_sets.len() < t {
            self.mask_sets.resize_with(t, Vec::new);
        }
        for set in &mut self.mask_sets[..t] {
            self.qnet.sample_masks_into(self.masks.rng_mut(), set);
        }
        let order: Vec<usize> = if self.config.order_samples {
            if self.flat_masks.len() < t {
                self.flat_masks.resize_with(t, Vec::new);
            }
            for (flat, set) in self.flat_masks[..t].iter_mut().zip(&self.mask_sets[..t]) {
                flatten_iteration_into(set, flat);
            }
            greedy_order(&self.flat_masks[..t]).expect("mask sets are non-empty and uniform")
        } else {
            (0..t).collect()
        };
        self.backend.reset();
        pred.resize_samples(t);
        pred.resize_logit_samples(t);
        for ((slot, logit_slot), &i) in pred
            .samples
            .iter_mut()
            .zip(pred.logit_samples.iter_mut())
            .zip(&order)
        {
            self.qnet.forward_with_masks_logits_into(
                &mut self.backend,
                features,
                &self.mask_sets[i],
                &mut self.ws,
                slot,
                logit_slot,
            );
        }
        mc_moments_in_place(pred);
    }

    /// Deterministic quantized prediction (no dropout at inference).
    fn predict_deterministic(&mut self, features: &[f64]) -> Vec<f64> {
        self.backend.reset();
        let mut y = Vec::with_capacity(self.qnet.out_dim());
        self.qnet
            .forward_with_masks_into(&mut self.backend, features, &[], &mut self.ws, &mut y);
        y
    }

    /// Runs MC-Dropout VO over a dataset at the configured fixed depth,
    /// integrating the predicted mean deltas into an absolute trajectory.
    ///
    /// One code path serves both depth modes: this is
    /// `Self::run_trajectory_adaptive` with a policy pinned at
    /// `config.mc_iterations` (a pinned policy grants that depth on
    /// every frame, so the runs are bit-identical — regression-tested).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidArgument`] for datasets without
    /// samples or a configured depth below 2.
    pub fn run_trajectory(&mut self, dataset: &VoDataset) -> Result<VoRun> {
        let mut pinned = AdaptiveMcPolicy::fixed(self.config.mc_iterations)?;
        self.run_trajectory_adaptive(dataset, &mut pinned)
    }

    /// [`Self::run_trajectory`] with compute-adaptive depth: every
    /// frame's MC-Dropout iteration count comes from `policy`, driven by
    /// the *previous* frame's total predictive variance (the paper
    /// Section III knob). With a pinned policy
    /// ([`AdaptiveMcPolicy::fixed`] at `config.mc_iterations`) the run is
    /// bit-identical to [`Self::run_trajectory`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidArgument`] for datasets without samples.
    fn run_trajectory_adaptive(
        &mut self,
        dataset: &VoDataset,
        policy: &mut AdaptiveMcPolicy,
    ) -> Result<VoRun> {
        if dataset.samples.is_empty() {
            return Err(CoreError::InvalidArgument(
                "vo dataset has no frame pairs".into(),
            ));
        }
        let n = dataset.samples.len();
        let mut deltas = Vec::with_capacity(n);
        let mut per_step_error = Vec::with_capacity(n);
        let mut per_step_variance = Vec::with_capacity(n);
        let mut per_step_iterations = Vec::with_capacity(n);
        let mut pred = McPrediction::default();
        let mut prev_variance = None;
        for sample in &dataset.samples {
            let t = policy.next_iterations(prev_variance);
            self.predict_n_into(&sample.features, t, &mut pred);
            prev_variance = Some(pred.total_variance());
            let (d, err) = delta_and_error(&pred.mean, &sample.target);
            per_step_error.push(err);
            per_step_variance.push(pred.total_variance());
            per_step_iterations.push(t);
            deltas.push(d);
        }
        let estimates = integrate_deltas(dataset.frames[0].pose, &deltas);
        let truths: Vec<Pose> = dataset.frames.iter().map(|f| f.pose).collect();
        let trajectory = trajectory_error(&estimates, &truths);
        Ok(VoRun {
            estimates,
            truths,
            per_step_error,
            per_step_variance,
            per_step_iterations,
            trajectory,
            macro_stats: self.macro_stats(),
            silicon_bits: self.masks.silicon_bits(),
        })
    }

    /// Runs deterministic quantized VO (the point-estimate baseline of
    /// Fig. 3(c–e)).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidArgument`] for datasets without samples.
    pub fn run_trajectory_deterministic(&mut self, dataset: &VoDataset) -> Result<VoRun> {
        if dataset.samples.is_empty() {
            return Err(CoreError::InvalidArgument(
                "vo dataset has no frame pairs".into(),
            ));
        }
        let mut deltas = Vec::with_capacity(dataset.samples.len());
        let mut per_step_error = Vec::with_capacity(dataset.samples.len());
        for sample in &dataset.samples {
            let y = self.predict_deterministic(&sample.features);
            let (d, err) = delta_and_error(&y, &sample.target);
            per_step_error.push(err);
            deltas.push(d);
        }
        let estimates = integrate_deltas(dataset.frames[0].pose, &deltas);
        let truths: Vec<Pose> = dataset.frames.iter().map(|f| f.pose).collect();
        let trajectory = trajectory_error(&estimates, &truths);
        Ok(VoRun {
            estimates,
            truths,
            per_step_error,
            per_step_variance: Vec::new(),
            per_step_iterations: Vec::new(),
            trajectory,
            macro_stats: self.macro_stats(),
            silicon_bits: self.masks.silicon_bits(),
        })
    }
}

/// Converts a predicted 6-DoF mean `[dx, dy, dz, roll·S, pitch·S,
/// yaw·S]` (rotation components carrying the `ROT_TARGET_SCALE`
/// training weight `S`) into the relative [`Pose`] it encodes — the
/// odometry control a closed-loop particle filter composes into its
/// motion model, and the inverse of the target construction in
/// `navicim_scene::dataset::make_samples`.
///
/// # Panics
///
/// Panics when `mean` has fewer than 6 components.
pub fn delta_pose_from_mean(mean: &[f64]) -> Pose {
    assert!(
        mean.len() >= 6,
        "a 6-DoF delta needs 6 components, got {}",
        mean.len()
    );
    Pose::from_position_euler(
        navicim_math::geom::Vec3::new(mean[0], mean[1], mean[2]),
        mean[3] / ROT_TARGET_SCALE,
        mean[4] / ROT_TARGET_SCALE,
        mean[5] / ROT_TARGET_SCALE,
    )
}

/// Undoes the rotation-target scaling on a predicted 6-DoF mean and
/// computes its translation error against the sample target — the shared
/// accumulation step of every trajectory runner (identical arithmetic
/// across fixed, adaptive, deterministic and full-precision paths).
fn delta_and_error(mean: &[f64], target: &[f64; 6]) -> ([f64; 6], f64) {
    let mut d = [0.0; 6];
    d.copy_from_slice(mean);
    for r in &mut d[3..6] {
        *r /= ROT_TARGET_SCALE;
    }
    let err =
        ((d[0] - target[0]).powi(2) + (d[1] - target[1]).powi(2) + (d[2] - target[2]).powi(2))
            .sqrt();
    (d, err)
}

/// Runs the full-precision deterministic reference trajectory (Fig. 3's
/// "deterministic network" line).
pub fn run_fp_trajectory(net: &mut Mlp, dataset: &VoDataset) -> VoRun {
    let mut rng = Pcg32::seed_from_u64(0);
    let mut deltas = Vec::with_capacity(dataset.samples.len());
    let mut per_step_error = Vec::with_capacity(dataset.samples.len());
    for sample in &dataset.samples {
        let y = net.forward(&sample.features, Mode::Deterministic, &mut rng);
        let (d, err) = delta_and_error(&y, &sample.target);
        per_step_error.push(err);
        deltas.push(d);
    }
    let estimates = integrate_deltas(dataset.frames[0].pose, &deltas);
    let truths: Vec<Pose> = dataset.frames.iter().map(|f| f.pose).collect();
    let trajectory = trajectory_error(&estimates, &truths);
    VoRun {
        estimates,
        truths,
        per_step_error,
        per_step_variance: Vec::new(),
        per_step_iterations: Vec::new(),
        trajectory,
        macro_stats: MacroStats::default(),
        silicon_bits: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use navicim_scene::dataset::{VoConfig, VoTrajectory};
    use navicim_scene::noise::DepthNoise;

    fn tiny_dataset(seed: u64) -> VoDataset {
        VoDataset::generate(
            &VoConfig {
                image_width: 24,
                image_height: 18,
                grid_width: 4,
                grid_height: 3,
                frames: 30,
                trajectory: VoTrajectory::Waypoints(4),
                noise: DepthNoise::none(),
                ..VoConfig::default()
            },
            seed,
        )
        .unwrap()
    }

    fn tiny_train_config() -> VoTrainConfig {
        VoTrainConfig {
            hidden1: 24,
            hidden2: 12,
            epochs: 60,
            ..VoTrainConfig::default()
        }
    }

    fn calibration(ds: &VoDataset) -> Vec<Vec<f64>> {
        ds.samples
            .iter()
            .take(8)
            .map(|s| s.features.clone())
            .collect()
    }

    #[test]
    fn build_rejects_fewer_than_two_mc_iterations() {
        let ds = tiny_dataset(12);
        let config = VoTrainConfig {
            epochs: 1,
            ..tiny_train_config()
        };
        let net = train_vo_network(&ds.samples, ds.feature_dim(), &config).unwrap();
        for mc_iterations in [0, 1] {
            let built = BayesianVo::build(
                &net,
                &calibration(&ds),
                VoPipelineConfig {
                    mc_iterations,
                    ..VoPipelineConfig::default()
                },
            );
            assert!(
                matches!(built, Err(CoreError::InvalidArgument(_))),
                "mc_iterations {mc_iterations}"
            );
        }
        let two = VoPipelineConfig {
            mc_iterations: 2,
            ..VoPipelineConfig::default()
        };
        assert!(BayesianVo::build(&net, &calibration(&ds), two).is_ok());
    }

    #[test]
    fn training_reduces_loss_and_pipeline_runs() {
        let ds = tiny_dataset(1);
        let net = train_vo_network(&ds.samples, ds.feature_dim(), &tiny_train_config()).unwrap();
        let mut vo = BayesianVo::build(
            &net,
            &calibration(&ds),
            VoPipelineConfig {
                weight_bits: 8,
                act_bits: 8,
                mc_iterations: 10,
                ..VoPipelineConfig::default()
            },
        )
        .unwrap();
        let run = vo.run_trajectory(&ds).unwrap();
        assert_eq!(run.estimates.len(), ds.frames.len());
        assert_eq!(run.per_step_variance.len(), ds.samples.len());
        assert!(run.per_step_variance.iter().all(|&v| v >= 0.0));
        assert!(run.trajectory.ate_rmse.is_finite());
        assert!(run.macro_stats.macs_executed > 0);
        // MC-dropout variance is non-degenerate.
        assert!(run.per_step_variance.iter().sum::<f64>() > 0.0);
    }

    #[test]
    fn reuse_cuts_executed_macs() {
        let ds = tiny_dataset(2);
        let net = train_vo_network(&ds.samples, ds.feature_dim(), &tiny_train_config()).unwrap();
        let run_with = |reuse: bool| {
            let mut vo = BayesianVo::build(
                &net,
                &calibration(&ds),
                VoPipelineConfig {
                    reuse,
                    order_samples: false,
                    mc_iterations: 12,
                    ..VoPipelineConfig::default()
                },
            )
            .unwrap();
            let _ = vo.predict(&ds.samples[0].features);
            vo.macro_stats()
        };
        let with = run_with(true);
        let without = run_with(false);
        assert_eq!(with.macs_full_equivalent, without.macs_full_equivalent);
        assert!(
            with.macs_executed < without.macs_executed,
            "reuse {} vs full {}",
            with.macs_executed,
            without.macs_executed
        );
    }

    #[test]
    fn ordering_does_not_hurt_and_usually_helps() {
        let ds = tiny_dataset(3);
        let net = train_vo_network(&ds.samples, ds.feature_dim(), &tiny_train_config()).unwrap();
        let macs = |order: bool| {
            let mut vo = BayesianVo::build(
                &net,
                &calibration(&ds),
                VoPipelineConfig {
                    order_samples: order,
                    mc_iterations: 16,
                    ..VoPipelineConfig::default()
                },
            )
            .unwrap();
            let _ = vo.predict(&ds.samples[0].features);
            vo.macro_stats().macs_executed
        };
        let ordered = macs(true);
        let unordered = macs(false);
        assert!(
            ordered <= unordered + unordered / 20,
            "ordered {ordered} vs unordered {unordered}"
        );
    }

    #[test]
    fn deterministic_paths_agree_at_high_precision() {
        let ds = tiny_dataset(4);
        let mut net =
            train_vo_network(&ds.samples, ds.feature_dim(), &tiny_train_config()).unwrap();
        let fp = run_fp_trajectory(&mut net, &ds);
        let mut vo = BayesianVo::build(
            &net,
            &calibration(&ds),
            VoPipelineConfig {
                weight_bits: 12,
                act_bits: 12,
                adc_bits: 0,
                ..VoPipelineConfig::default()
            },
        )
        .unwrap();
        let q = vo.run_trajectory_deterministic(&ds).unwrap();
        assert!(
            (q.trajectory.ate_rmse - fp.trajectory.ate_rmse).abs()
                < 0.1 * (1.0 + fp.trajectory.ate_rmse),
            "fp {} vs quant {}",
            fp.trajectory.ate_rmse,
            q.trajectory.ate_rmse
        );
    }

    #[test]
    fn pooled_predictions_match_owned() {
        // Reusing one McPrediction across frames (the run_trajectory
        // path) must be bit-identical to fresh predictions per frame.
        let ds = tiny_dataset(7);
        let net = train_vo_network(&ds.samples, ds.feature_dim(), &tiny_train_config()).unwrap();
        let config = VoPipelineConfig {
            mc_iterations: 8,
            ..VoPipelineConfig::default()
        };
        let mut owned_vo = BayesianVo::build(&net, &calibration(&ds), config.clone()).unwrap();
        let mut pooled_vo = BayesianVo::build(&net, &calibration(&ds), config).unwrap();
        let mut pooled = McPrediction::default();
        for sample in ds.samples.iter().take(5) {
            let owned = owned_vo.predict(&sample.features);
            pooled_vo.predict_into(&sample.features, &mut pooled);
            assert_eq!(owned, pooled);
        }
    }

    #[test]
    fn logit_variance_survives_narrow_quantization() {
        // Regression: at the default 4-bit precision the quantized MC
        // samples of different dropout masks frequently round onto
        // identical output codes, collapsing `total_variance()` to
        // numerical dust (~1e-19) — which starved the noise-inflation
        // and gating consumers. The pre-quantization shadow logits must
        // carry a live spread on every frame.
        let ds = tiny_dataset(9);
        let net = train_vo_network(&ds.samples, ds.feature_dim(), &tiny_train_config()).unwrap();
        let mut vo = BayesianVo::build(
            &net,
            &calibration(&ds),
            VoPipelineConfig {
                mc_iterations: 16,
                ..VoPipelineConfig::default()
            },
        )
        .unwrap();
        for sample in ds.samples.iter().take(5) {
            let pred = vo.predict(&sample.features);
            assert_eq!(pred.logit_samples.len(), pred.samples.len());
            let logit_var = pred
                .total_logit_variance()
                .expect("quantized path captures logits");
            assert!(
                logit_var.is_finite() && logit_var > 1e-8,
                "logit variance degenerate: {logit_var} (quantized: {})",
                pred.total_variance()
            );
        }
    }

    #[test]
    fn adaptive_policy_validation() {
        let bad = |min, max, lo, hi, dwell| {
            AdaptiveMcPolicy::new(AdaptiveMcConfig {
                min_iterations: min,
                max_iterations: max,
                var_low: lo,
                var_high: hi,
                dwell,
            })
            .is_err()
        };
        assert!(bad(1, 30, 0.1, 0.2, 1)); // min below 2
        assert!(bad(10, 5, 0.1, 0.2, 1)); // inverted bounds
        assert!(bad(5, 30, 0.2, 0.1, 1)); // inverted band
        assert!(bad(5, 30, -0.1, 0.2, 1)); // negative threshold
        assert!(bad(5, 30, 0.1, f64::INFINITY, 1)); // non-finite
        assert!(bad(5, 30, 0.1, 0.2, 0)); // zero dwell
        assert!(AdaptiveMcPolicy::fixed(30).is_ok());
        assert!(AdaptiveMcPolicy::fixed(1).is_err());
    }

    #[test]
    fn adaptive_policy_hysteresis_and_dwell() {
        let mut p = AdaptiveMcPolicy::new(AdaptiveMcConfig {
            min_iterations: 8,
            max_iterations: 30,
            var_low: 0.1,
            var_high: 0.3,
            dwell: 1,
        })
        .unwrap();
        // First frame: no history, maximum depth.
        assert_eq!(p.next_iterations(None), 30);
        // Confident: drop to the floor.
        assert_eq!(p.next_iterations(Some(0.05)), 8);
        // Dead zone: hold.
        assert_eq!(p.next_iterations(Some(0.2)), 8);
        // Uncertain: back to the ceiling.
        assert_eq!(p.next_iterations(Some(0.5)), 30);
        // Non-finite variance: hold.
        assert_eq!(p.next_iterations(Some(f64::NAN)), 30);
        assert_eq!(p.changes(), 2);
        p.reset();
        assert_eq!(p.changes(), 0);
        assert_eq!(p.next_iterations(Some(0.01)), 30, "first frame after reset");

        // Dwell 3 locks the depth for three frames after a change.
        let mut dwelled = AdaptiveMcPolicy::new(AdaptiveMcConfig {
            min_iterations: 8,
            max_iterations: 30,
            var_low: 0.1,
            var_high: 0.3,
            dwell: 3,
        })
        .unwrap();
        dwelled.next_iterations(None);
        let depths: Vec<usize> = [0.01, 0.5, 0.5, 0.5, 0.01]
            .iter()
            .map(|&v| dwelled.next_iterations(Some(v)))
            .collect();
        // No change can land within 3 frames of the previous one.
        let mut last_change = None;
        let mut prev = 30;
        for (i, &d) in depths.iter().enumerate() {
            if d != prev {
                if let Some(l) = last_change {
                    assert!(i - l >= 3, "changes at {l} and {i} under dwell 3");
                }
                last_change = Some(i);
            }
            prev = d;
        }
    }

    #[test]
    fn fixed_policy_is_pinned() {
        let mut p = AdaptiveMcPolicy::fixed(12).unwrap();
        assert!(p.is_fixed());
        assert_eq!(p.name(), "fixed-mc12");
        for v in [None, Some(0.0), Some(1e9), Some(f64::NAN)] {
            assert_eq!(p.next_iterations(v), 12);
        }
        assert_eq!(p.changes(), 0);
        let adaptive = AdaptiveMcPolicy::new(AdaptiveMcConfig {
            min_iterations: 4,
            max_iterations: 16,
            var_low: 0.1,
            var_high: 0.2,
            dwell: 2,
        })
        .unwrap();
        assert_eq!(adaptive.name(), "adaptive-mc[4..16]");
    }

    #[test]
    fn variable_depth_prediction_matches_fixed_at_config_depth() {
        // predict_n_into at the configured depth is the fixed path —
        // bit-identical samples, moments and RNG stream.
        let ds = tiny_dataset(8);
        let net = train_vo_network(&ds.samples, ds.feature_dim(), &tiny_train_config()).unwrap();
        let config = VoPipelineConfig {
            mc_iterations: 10,
            ..VoPipelineConfig::default()
        };
        let mut fixed = BayesianVo::build(&net, &calibration(&ds), config.clone()).unwrap();
        let mut variable = BayesianVo::build(&net, &calibration(&ds), config).unwrap();
        let mut fixed_pred = McPrediction::default();
        let mut var_pred = McPrediction::default();
        for sample in ds.samples.iter().take(4) {
            fixed.predict_into(&sample.features, &mut fixed_pred);
            variable.predict_n_into(&sample.features, 10, &mut var_pred);
            assert_eq!(fixed_pred, var_pred);
        }
        assert_eq!(fixed.macro_stats(), variable.macro_stats());
    }

    #[test]
    fn shrinking_depth_cuts_macro_work() {
        let ds = tiny_dataset(9);
        let net = train_vo_network(&ds.samples, ds.feature_dim(), &tiny_train_config()).unwrap();
        let config = VoPipelineConfig {
            mc_iterations: 24,
            ..VoPipelineConfig::default()
        };
        let mut vo = BayesianVo::build(&net, &calibration(&ds), config).unwrap();
        let mut pred = McPrediction::default();
        vo.predict_n_into(&ds.samples[0].features, 24, &mut pred);
        let deep = vo.macro_stats();
        assert_eq!(pred.samples.len(), 24);
        vo.predict_n_into(&ds.samples[1].features, 4, &mut pred);
        let shallow = vo.macro_stats().delta_since(&deep);
        assert_eq!(pred.samples.len(), 4);
        // A 4-pass frame executes a fraction of the 24-pass workload.
        assert!(
            shallow.macs_full_equivalent * 4 < deep.macs_full_equivalent,
            "shallow {} vs deep {}",
            shallow.macs_full_equivalent,
            deep.macs_full_equivalent
        );
    }

    #[test]
    fn adaptive_trajectory_with_pinned_policy_matches_fixed() {
        let ds = tiny_dataset(10);
        let net = train_vo_network(&ds.samples, ds.feature_dim(), &tiny_train_config()).unwrap();
        let config = VoPipelineConfig {
            mc_iterations: 8,
            ..VoPipelineConfig::default()
        };
        let fixed_run = BayesianVo::build(&net, &calibration(&ds), config.clone())
            .unwrap()
            .run_trajectory(&ds)
            .unwrap();
        let mut policy = AdaptiveMcPolicy::fixed(8).unwrap();
        let pinned_run = BayesianVo::build(&net, &calibration(&ds), config)
            .unwrap()
            .run_trajectory_adaptive(&ds, &mut policy)
            .unwrap();
        assert_eq!(fixed_run, pinned_run);
        assert_eq!(pinned_run.per_step_iterations, vec![8; ds.samples.len()]);
    }

    #[test]
    fn adaptive_trajectory_varies_depth_and_stays_in_bounds() {
        let ds = tiny_dataset(11);
        let net = train_vo_network(&ds.samples, ds.feature_dim(), &tiny_train_config()).unwrap();
        let config = VoPipelineConfig {
            mc_iterations: 20,
            ..VoPipelineConfig::default()
        };
        // Thresholds straddling the observed variance scale: probe with a
        // fixed run first.
        let probe = BayesianVo::build(&net, &calibration(&ds), config.clone())
            .unwrap()
            .run_trajectory(&ds)
            .unwrap();
        let mut sorted = probe.per_step_variance.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mid = sorted[sorted.len() / 2];
        let mc_config = AdaptiveMcConfig {
            min_iterations: 4,
            max_iterations: 20,
            var_low: mid,
            var_high: mid * 4.0 + 1e-9,
            dwell: 1,
        };
        let run = |ds: &VoDataset| {
            let mut policy = AdaptiveMcPolicy::new(mc_config).unwrap();
            BayesianVo::build(&net, &calibration(ds), config.clone())
                .unwrap()
                .run_trajectory_adaptive(ds, &mut policy)
                .unwrap()
        };
        let adaptive = run(&ds);
        assert!(adaptive
            .per_step_iterations
            .iter()
            .all(|&t| (4..=20).contains(&t)));
        assert_eq!(adaptive.per_step_iterations[0], 20, "starts at max depth");
        assert!(
            adaptive.per_step_iterations.iter().any(|&d| d < 20),
            "depth adapted: {:?}",
            adaptive.per_step_iterations
        );
        // Fewer passes → strictly less macro work than the fixed run.
        assert!(adaptive.macro_stats.macs_full_equivalent < probe.macro_stats.macs_full_equivalent);
        // Deterministic across repeats.
        assert_eq!(run(&ds), adaptive);
    }

    #[test]
    fn silicon_rng_source_works() {
        let ds = tiny_dataset(5);
        let net = train_vo_network(&ds.samples, ds.feature_dim(), &tiny_train_config()).unwrap();
        let mut vo = BayesianVo::build(
            &net,
            &calibration(&ds),
            VoPipelineConfig {
                silicon_rng: true,
                mc_iterations: 8,
                ..VoPipelineConfig::default()
            },
        )
        .unwrap();
        let pred = vo.predict(&ds.samples[0].features);
        assert!(pred.total_variance() > 0.0);
        let bits = vo.masks.silicon_bits().unwrap();
        assert!(bits > 0, "silicon rng consumed {bits} bits");
    }

    #[test]
    fn empty_dataset_rejected() {
        let ds = tiny_dataset(6);
        let net = train_vo_network(&ds.samples, ds.feature_dim(), &tiny_train_config()).unwrap();
        let mut vo =
            BayesianVo::build(&net, &calibration(&ds), VoPipelineConfig::default()).unwrap();
        let empty = VoDataset {
            frames: ds.frames.clone(),
            samples: vec![],
            grid: ds.grid,
            camera: ds.camera,
        };
        assert!(vo.run_trajectory(&empty).is_err());
    }
}
