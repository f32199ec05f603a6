//! The generic predict/weight/resample particle-filter loop.

use crate::particle::{ParticleSet, ResampleBuffers};
use crate::Result;
use navicim_math::rng::Rng64;
use navicim_math::sample::ResampleScheme;

/// A stochastic motion model `p(x_t | u_t, x_{t-1})` (paper Eq. 1a).
pub trait Motion<S, U> {
    /// Samples a successor state given the previous state and control.
    fn sample(&self, state: &S, control: &U, rng: &mut dyn Rng64) -> S;

    /// [`Motion::sample`] with the model's noise standard deviations
    /// multiplied by `noise_scale` — the hook an odometry source with a
    /// live uncertainty estimate (MC-Dropout VO predictive variance)
    /// uses to widen the proposal when its control is untrustworthy,
    /// instead of silently biasing the filter with a confident wrong
    /// delta.
    ///
    /// Implementations must be bit-identical to [`Motion::sample`] at
    /// `noise_scale == 1.0` (the provided default ignores the factor
    /// entirely, which trivially satisfies that for models without a
    /// noise term to scale).
    fn sample_scaled(&self, state: &S, control: &U, noise_scale: f64, rng: &mut dyn Rng64) -> S {
        let _ = noise_scale;
        self.sample(state, control, rng)
    }
}

/// A measurement model `p(z_t | x_t)` (paper Eq. 1b), in log space.
///
/// Takes `&mut self` because hardware-backed implementations (the CIM
/// engine) consume noise-source state per evaluation.
///
/// The filter weighs whole particle sets through
/// [`Measurement::log_likelihood_batch`]; the provided implementation
/// loops over scalar calls, so existing scalar models keep working
/// unchanged, while batch-capable sensors (the `dyn MapBackend` maps in
/// `navicim-core`) override it to amortize per-evaluation overhead across
/// the frame.
pub trait Measurement<S, Z> {
    /// Log-likelihood of observation `obs` under state hypothesis `state`.
    fn log_likelihood(&mut self, state: &S, obs: &Z) -> f64;

    /// Log-likelihood of `obs` under every hypothesis in `states`,
    /// written to `out` in order.
    ///
    /// Implementations must be bit-identical to evaluating the states
    /// one by one with [`Measurement::log_likelihood`] (the provided
    /// implementation trivially is). The contract permits internal
    /// threading: stateful backends satisfy it by deriving per-evaluation
    /// randomness from a counter-based stream indexed by the absolute
    /// evaluation number (see `navicim_backend::par`), so the weight step
    /// scales across cores without perturbing a single particle weight.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != states.len()`.
    fn log_likelihood_batch(&mut self, states: &[S], obs: &Z, out: &mut [f64]) {
        assert_eq!(
            states.len(),
            out.len(),
            "output buffer must hold one log-likelihood per state"
        );
        for (o, s) in out.iter_mut().zip(states) {
            *o = self.log_likelihood(s, obs);
        }
    }
}

impl<S, U, F> Motion<S, U> for F
where
    F: Fn(&S, &U, &mut dyn Rng64) -> S,
{
    fn sample(&self, state: &S, control: &U, rng: &mut dyn Rng64) -> S {
        self(state, control, rng)
    }
}

/// Closure measurement models: any `FnMut(&S, &Z) -> f64` is a
/// [`Measurement`], mirroring the closure [`Motion`] impl, so tests and
/// examples can plug in ad-hoc sensors without a wrapper type.
impl<S, Z, F> Measurement<S, Z> for F
where
    F: FnMut(&S, &Z) -> f64,
{
    fn log_likelihood(&mut self, state: &S, obs: &Z) -> f64 {
        self(state, obs)
    }
}

/// Configuration of the particle-filter loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FilterConfig {
    /// Resampling scheme.
    pub scheme: ResampleScheme,
    /// Resample when `ESS < ess_fraction · N` (1.0 = always resample).
    pub ess_fraction: f64,
}

impl Default for FilterConfig {
    fn default() -> Self {
        Self {
            scheme: ResampleScheme::Systematic,
            ess_fraction: 0.5,
        }
    }
}

/// The sequential Monte-Carlo filter over a [`ParticleSet`].
#[derive(Debug, Clone)]
pub struct ParticleFilter<S> {
    particles: ParticleSet<S>,
    config: FilterConfig,
    resample_count: u64,
    step_count: u64,
    /// Reused per-update log-likelihood buffer (one slot per particle).
    ll_scratch: Vec<f64>,
    /// Reused resampling buffers (index/weight/state staging), so a
    /// warmed filter resamples without touching the heap.
    resample_scratch: ResampleBuffers<S>,
    /// Mean log-likelihood of the most recent measurement update.
    last_mean_ll: Option<f64>,
    /// ESS fraction of the most recent update, measured before any
    /// resampling.
    last_pre_resample_ess_fraction: Option<f64>,
}

impl<S: Clone> ParticleFilter<S> {
    /// Creates a filter from an initial particle set.
    pub fn new(particles: ParticleSet<S>, config: FilterConfig) -> Self {
        Self {
            particles,
            config,
            resample_count: 0,
            step_count: 0,
            ll_scratch: Vec::new(),
            resample_scratch: ResampleBuffers::default(),
            last_mean_ll: None,
            last_pre_resample_ess_fraction: None,
        }
    }

    /// The current particle set.
    pub fn particles(&self) -> &ParticleSet<S> {
        &self.particles
    }

    /// Mutable access (e.g. for reinitialization).
    pub fn particles_mut(&mut self) -> &mut ParticleSet<S> {
        &mut self.particles
    }

    /// Number of predict/update steps performed.
    pub fn steps(&self) -> u64 {
        self.step_count
    }

    /// Current cloud spread: the square root of the weighted covariance
    /// trace of a 3-vector projection of the state (for poses, the
    /// positional "1σ radius"). Allocation-free, so it can be sampled
    /// every frame — it is the uncertainty signal the gated localization
    /// pipeline arbitrates backends on.
    pub fn spread<F: Fn(&S) -> [f64; 3]>(&self, project: F) -> f64 {
        self.particles.weighted_covariance_trace(project).sqrt()
    }

    /// Effective sample size of the current weights (allocation-free;
    /// delegates to [`ParticleSet::ess`]).
    pub fn ess(&self) -> f64 {
        self.particles.ess()
    }

    /// Effective sample size as a fraction of the particle count, in
    /// (0, 1] — the scale-free form the uncertainty bus carries so gate
    /// thresholds do not depend on the configured population size.
    /// Clamped at 1: the true ESS cannot exceed the population, only
    /// its floating-point estimate can (by an ulp, on uniform weights).
    pub fn ess_fraction(&self) -> f64 {
        (self.particles.ess() / self.particles.len() as f64).min(1.0)
    }

    /// ESS fraction of the most recent measurement update, measured
    /// *after* reweighting but *before* any resampling (`None` before
    /// the first update). This is the weight-degeneracy signal a
    /// downstream consumer actually needs: the resampler resets
    /// collapsed weights to uniform on the spot, so the live
    /// [`Self::ess_fraction`] can never read below the configured
    /// resample threshold at frame boundaries.
    pub fn last_pre_resample_ess_fraction(&self) -> Option<f64> {
        self.last_pre_resample_ess_fraction
    }

    /// Mean log-likelihood of the last measurement update (`None` before
    /// the first update), averaged over the hypotheses that scored
    /// *finite* — stray `-inf` particles from hard-gating sensors do not
    /// blind the frame (a frame with no finite hypothesis reads `-inf`).
    /// Recorded before reweighting, so it is available even for a frame
    /// that ends in [`crate::FilterError::Degenerate`] — it is the raw
    /// per-frame map-agreement signal the likelihood innovation is
    /// computed from.
    pub fn last_mean_log_likelihood(&self) -> Option<f64> {
        self.last_mean_ll
    }

    /// Number of resampling events triggered.
    pub fn resamples(&self) -> u64 {
        self.resample_count
    }

    /// Prediction step: propagates every particle through the motion model.
    pub fn predict<U, M, R>(&mut self, control: &U, motion: &M, rng: &mut R)
    where
        M: Motion<S, U>,
        R: Rng64,
    {
        for s in self.particles.states_mut() {
            *s = motion.sample(s, control, rng);
        }
    }

    /// [`Self::predict`] with the motion noise scaled by `noise_scale`
    /// (through [`Motion::sample_scaled`]) — the per-frame covariance
    /// inflation hook of a closed odometry loop: an uncertain control
    /// widens the proposal instead of narrowing in on a biased delta.
    /// Bit-identical to [`Self::predict`] at `noise_scale == 1.0`.
    pub fn predict_scaled<U, M, R>(
        &mut self,
        control: &U,
        motion: &M,
        noise_scale: f64,
        rng: &mut R,
    ) where
        M: Motion<S, U>,
        R: Rng64,
    {
        for s in self.particles.states_mut() {
            *s = motion.sample_scaled(s, control, noise_scale, rng);
        }
    }

    /// Measurement update: weighs the whole particle set through the
    /// sensor's batch API, then resamples if the effective sample size
    /// dropped below the threshold.
    ///
    /// # Errors
    ///
    /// Propagates [`crate::FilterError::Degenerate`] when all weights
    /// vanish.
    pub fn update<Z, M, R>(&mut self, obs: &Z, sensor: &mut M, rng: &mut R) -> Result<()>
    where
        M: Measurement<S, Z>,
        R: Rng64,
    {
        // Borrow juggling: reweight needs &mut particles while the
        // scratch buffer is detached, so take it out for the call.
        let mut lls = std::mem::take(&mut self.ll_scratch);
        lls.resize(self.particles.len(), 0.0);
        sensor.log_likelihood_batch(self.particles.states(), obs, &mut lls);
        let absorbed = self.absorb_log_likelihoods(&lls, rng);
        self.ll_scratch = lls;
        absorbed
    }

    /// Absorbs one frame's externally computed per-particle
    /// log-likelihoods: records the innovation signal, reweights, tracks
    /// pre-resample ESS and resamples on degeneracy.
    ///
    /// This is exactly the post-sensor half of [`Self::update`] (which
    /// delegates here), split out so a caller can evaluate the sensor
    /// batch elsewhere — e.g. the pipeline's staged frame batch on its
    /// map backend — and feed the results back bit-identically.
    ///
    /// # Errors
    ///
    /// Propagates [`crate::FilterError::Degenerate`] when all weights
    /// vanish.
    ///
    /// # Panics
    ///
    /// Panics if `lls.len()` differs from the particle count.
    pub fn absorb_log_likelihoods<R>(&mut self, lls: &[f64], rng: &mut R) -> Result<()>
    where
        R: Rng64,
    {
        assert_eq!(
            lls.len(),
            self.particles.len(),
            "one log-likelihood per particle"
        );
        // Mean over the *finite* log-likelihoods only: a hard-gating
        // sensor may score a few out-of-support hypotheses at -inf
        // while the frame is otherwise fully informative, and one such
        // particle must not blind the innovation signal for the whole
        // frame. A frame with no finite hypothesis at all records -inf.
        let mut sum = 0.0;
        let mut finite = 0usize;
        for &ll in lls {
            if ll.is_finite() {
                sum += ll;
                finite += 1;
            }
        }
        self.last_mean_ll = Some(if finite == 0 {
            f64::NEG_INFINITY
        } else {
            sum / finite as f64
        });
        self.particles.reweight_log(lls)?;
        self.step_count += 1;
        let n = self.particles.len() as f64;
        let ess = self.particles.ess();
        // Record degeneracy as measured *before* resampling: the
        // resampler immediately resets collapsed weights to uniform, so
        // a post-resample reading can never show the collapse a gate's
        // ESS rescue needs to see.
        self.last_pre_resample_ess_fraction = Some((ess / n).min(1.0));
        if ess < self.config.ess_fraction * n {
            self.particles.resample_with_scratch(
                self.config.scheme,
                rng,
                &mut self.resample_scratch,
            );
            self.resample_count += 1;
        }
        Ok(())
    }

    /// Combined predict + update step.
    ///
    /// # Errors
    ///
    /// Propagates measurement-update errors.
    pub fn step<U, Z, MM, MS, R>(
        &mut self,
        control: &U,
        obs: &Z,
        motion: &MM,
        sensor: &mut MS,
        rng: &mut R,
    ) -> Result<()>
    where
        MM: Motion<S, U>,
        MS: Measurement<S, Z>,
        R: Rng64,
    {
        self.predict(control, motion, rng);
        self.update(obs, sensor, rng)
    }

    /// Combined predict + update step with the motion noise scaled by
    /// `noise_scale` — see [`Self::predict_scaled`]. Bit-identical to
    /// [`Self::step`] at `noise_scale == 1.0`.
    ///
    /// # Errors
    ///
    /// Propagates measurement-update errors.
    pub fn step_scaled<U, Z, MM, MS, R>(
        &mut self,
        control: &U,
        obs: &Z,
        motion: &MM,
        noise_scale: f64,
        sensor: &mut MS,
        rng: &mut R,
    ) -> Result<()>
    where
        MM: Motion<S, U>,
        MS: Measurement<S, Z>,
        R: Rng64,
    {
        self.predict_scaled(control, motion, noise_scale, rng);
        self.update(obs, sensor, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use navicim_math::rng::{Pcg32, SampleExt};
    use navicim_math::stats::normal_logpdf;

    /// 1-D random-walk localization: state is a scalar position, control is
    /// the commanded step, observation is a noisy position measurement.
    struct GaussianSensor {
        sigma: f64,
    }

    impl Measurement<f64, f64> for GaussianSensor {
        fn log_likelihood(&mut self, state: &f64, obs: &f64) -> f64 {
            normal_logpdf(*obs, *state, self.sigma)
        }
    }

    fn walk_motion() -> impl Motion<f64, f64> {
        |state: &f64, control: &f64, rng: &mut dyn Rng64| {
            state + control + rng.sample_normal(0.0, 0.05)
        }
    }

    #[test]
    fn tracks_a_moving_target() {
        let mut rng = Pcg32::seed_from_u64(1);
        let init: Vec<f64> = (0..500).map(|_| rng.sample_uniform(-10.0, 10.0)).collect();
        let mut pf = ParticleFilter::new(
            ParticleSet::from_states(init).unwrap(),
            FilterConfig::default(),
        );
        let mut sensor = GaussianSensor { sigma: 0.3 };
        let motion = walk_motion();
        let mut truth = 0.0;
        for step in 0..30 {
            let control = 0.2;
            truth += control;
            let obs = truth + rng.sample_normal(0.0, 0.3);
            pf.step(&control, &obs, &motion, &mut sensor, &mut rng)
                .unwrap();
            if step > 5 {
                let est = pf.particles().weighted_mean(|s| *s);
                assert!(
                    (est - truth).abs() < 0.5,
                    "step {step}: est {est} truth {truth}"
                );
            }
        }
        assert!(pf.steps() == 30);
    }

    #[test]
    fn uncertainty_shrinks_with_measurements() {
        let mut rng = Pcg32::seed_from_u64(2);
        let init: Vec<f64> = (0..1000).map(|_| rng.sample_uniform(-10.0, 10.0)).collect();
        let mut pf = ParticleFilter::new(
            ParticleSet::from_states(init).unwrap(),
            FilterConfig::default(),
        );
        let mut sensor = GaussianSensor { sigma: 0.5 };
        let motion = walk_motion();
        let var_before = pf.particles().weighted_variance(|s| *s);
        for _ in 0..10 {
            pf.step(&0.0, &3.0, &motion, &mut sensor, &mut rng).unwrap();
        }
        let var_after = pf.particles().weighted_variance(|s| *s);
        assert!(var_after < var_before * 0.05, "{var_before} -> {var_after}");
        let est = pf.particles().weighted_mean(|s| *s);
        assert!((est - 3.0).abs() < 0.3);
    }

    #[test]
    fn resampling_triggered_by_skewed_weights() {
        let mut rng = Pcg32::seed_from_u64(3);
        let init: Vec<f64> = (0..200).map(|_| rng.sample_uniform(-10.0, 10.0)).collect();
        let mut pf = ParticleFilter::new(
            ParticleSet::from_states(init).unwrap(),
            FilterConfig {
                ess_fraction: 0.5,
                ..FilterConfig::default()
            },
        );
        let mut sensor = GaussianSensor { sigma: 0.1 }; // sharp likelihood
        let motion = walk_motion();
        pf.step(&0.0, &0.0, &motion, &mut sensor, &mut rng).unwrap();
        assert!(pf.resamples() >= 1);
    }

    #[test]
    fn no_resampling_when_threshold_zero() {
        let mut rng = Pcg32::seed_from_u64(4);
        let init: Vec<f64> = (0..100).map(|_| rng.sample_uniform(-5.0, 5.0)).collect();
        let mut pf = ParticleFilter::new(
            ParticleSet::from_states(init).unwrap(),
            FilterConfig {
                ess_fraction: 0.0,
                ..FilterConfig::default()
            },
        );
        let mut sensor = GaussianSensor { sigma: 0.1 };
        let motion = walk_motion();
        for _ in 0..5 {
            pf.step(&0.0, &1.0, &motion, &mut sensor, &mut rng).unwrap();
        }
        assert_eq!(pf.resamples(), 0);
    }

    #[test]
    fn closure_measurement_model_works() {
        // Mirrors `walk_motion`: both models supplied as plain closures.
        let mut rng = Pcg32::seed_from_u64(6);
        let init: Vec<f64> = (0..300).map(|_| rng.sample_uniform(-10.0, 10.0)).collect();
        let mut pf = ParticleFilter::new(
            ParticleSet::from_states(init).unwrap(),
            FilterConfig::default(),
        );
        let motion = walk_motion();
        let mut sensor = |state: &f64, obs: &f64| normal_logpdf(*obs, *state, 0.4);
        for _ in 0..10 {
            pf.step(&0.0, &2.0, &motion, &mut sensor, &mut rng).unwrap();
        }
        let est = pf.particles().weighted_mean(|s| *s);
        assert!((est - 2.0).abs() < 0.3, "estimate {est}");
    }

    #[test]
    fn default_batch_adapter_matches_scalar_loop() {
        let states: Vec<f64> = vec![-1.0, 0.0, 0.5, 2.0];
        let mut sensor = GaussianSensor { sigma: 0.7 };
        let obs = 0.25;
        let scalar: Vec<f64> = states
            .iter()
            .map(|s| sensor.log_likelihood(s, &obs))
            .collect();
        let mut batched = vec![0.0; states.len()];
        sensor.log_likelihood_batch(&states, &obs, &mut batched);
        assert_eq!(scalar, batched);
    }

    #[test]
    fn ess_fraction_and_mean_ll_signals() {
        let mut rng = Pcg32::seed_from_u64(7);
        let init: Vec<f64> = (0..50).map(|_| rng.sample_uniform(-1.0, 1.0)).collect();
        let mut pf = ParticleFilter::new(
            ParticleSet::from_states(init).unwrap(),
            FilterConfig::default(),
        );
        // Before any update: uniform weights, no likelihood history.
        assert!((pf.ess() - 50.0).abs() < 1e-9);
        assert!((pf.ess_fraction() - 1.0).abs() < 1e-12);
        assert_eq!(pf.last_mean_log_likelihood(), None);
        let mut sensor = GaussianSensor { sigma: 0.3 };
        let motion = walk_motion();
        pf.step(&0.0, &0.2, &motion, &mut sensor, &mut rng).unwrap();
        assert!(pf.ess_fraction() > 0.0 && pf.ess_fraction() <= 1.0);
        let mean_ll = pf.last_mean_log_likelihood().expect("update recorded");
        // A Gaussian sensor over a bounded cloud yields finite means.
        assert!(mean_ll.is_finite());
    }

    #[test]
    fn degenerate_all_equal_weights_keep_full_ess() {
        // An uninformative measurement (identical log-likelihood for every
        // hypothesis) must leave the weights — and the ESS fraction —
        // untouched.
        let mut rng = Pcg32::seed_from_u64(8);
        let init: Vec<f64> = (0..40).map(|i| i as f64).collect();
        let mut pf = ParticleFilter::new(
            ParticleSet::from_states(init).unwrap(),
            FilterConfig {
                ess_fraction: 0.0,
                ..FilterConfig::default()
            },
        );
        let mut flat = |_s: &f64, _o: &f64| -5.0;
        pf.update(&0.0, &mut flat, &mut rng).unwrap();
        assert!((pf.ess_fraction() - 1.0).abs() < 1e-9);
        assert_eq!(pf.last_mean_log_likelihood(), Some(-5.0));
    }

    #[test]
    fn single_particle_set_signals_are_well_defined() {
        let mut rng = Pcg32::seed_from_u64(9);
        let mut pf = ParticleFilter::new(
            ParticleSet::from_states(vec![1.5f64]).unwrap(),
            FilterConfig::default(),
        );
        assert!((pf.ess() - 1.0).abs() < 1e-12);
        assert!((pf.ess_fraction() - 1.0).abs() < 1e-12);
        // A one-particle cloud has zero covariance trace, hence spread 0.
        assert_eq!(pf.spread(|&s| [s, 0.0, 0.0]), 0.0);
        let mut sensor = GaussianSensor { sigma: 0.5 };
        let motion = walk_motion();
        pf.step(&0.0, &1.5, &motion, &mut sensor, &mut rng).unwrap();
        assert!((pf.ess_fraction() - 1.0).abs() < 1e-12);
        assert!(pf.last_mean_log_likelihood().unwrap().is_finite());
    }

    #[test]
    fn stray_neg_inf_particles_do_not_blind_the_mean_ll() {
        // A hard-gating sensor scores one out-of-support hypothesis at
        // -inf; the frame's mean must average the remaining finite
        // hypotheses instead of collapsing to -inf.
        let mut rng = Pcg32::seed_from_u64(11);
        let mut pf = ParticleFilter::new(
            ParticleSet::from_states(vec![0.0f64, 1.0, 2.0, 50.0]).unwrap(),
            FilterConfig {
                ess_fraction: 0.0,
                ..FilterConfig::default()
            },
        );
        let mut gating = |state: &f64, _obs: &f64| {
            if *state > 10.0 {
                f64::NEG_INFINITY
            } else {
                -*state
            }
        };
        pf.update(&0.0, &mut gating, &mut rng).unwrap();
        // Mean of {-0, -1, -2}; the -inf particle is excluded.
        assert_eq!(pf.last_mean_log_likelihood(), Some(-1.0));
    }

    #[test]
    fn mean_ll_recorded_even_for_degenerate_frames() {
        let mut rng = Pcg32::seed_from_u64(10);
        let mut pf = ParticleFilter::new(
            ParticleSet::from_states(vec![0.0f64; 5]).unwrap(),
            FilterConfig::default(),
        );
        let mut killer = |_s: &f64, _o: &f64| f64::NEG_INFINITY;
        let motion = walk_motion();
        assert!(pf.step(&0.0, &0.0, &motion, &mut killer, &mut rng).is_err());
        // The signal survived the failed reweight.
        assert_eq!(pf.last_mean_log_likelihood(), Some(f64::NEG_INFINITY));
    }

    #[test]
    fn degenerate_measurement_propagates_error() {
        let mut rng = Pcg32::seed_from_u64(5);
        let init = vec![0.0f64; 10];
        let mut pf = ParticleFilter::new(
            ParticleSet::from_states(init).unwrap(),
            FilterConfig::default(),
        );
        struct Killer;
        impl Measurement<f64, f64> for Killer {
            fn log_likelihood(&mut self, _: &f64, _: &f64) -> f64 {
                f64::NEG_INFINITY
            }
        }
        let motion = walk_motion();
        assert!(pf.step(&0.0, &0.0, &motion, &mut Killer, &mut rng).is_err());
    }
}
