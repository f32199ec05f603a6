//! The pluggable map-backend registry.
//!
//! The localization pipeline used to hard-wire its map backends in a
//! closed enum, which meant a new backend (a learned NN map, a remote
//! map service, a test double) required editing `navicim-core`. This
//! module dissolves that enum into open trait-based serving:
//!
//! - [`MapBackend`] — what the particle filter's weight step needs from a
//!   map: batched log-likelihood evaluation (the
//!   [`LikelihoodBackend`] supertrait) plus a name, a component count and
//!   trait-level [`BackendStats`],
//! - [`BackendRegistry`] — named factories producing
//!   `Box<dyn MapBackend>` from a [`MapFitContext`] (the dataset's point
//!   cloud, fit settings and one shared diagonal fit); the paper's two
//!   backends, the digital GMM and the analog CIM engine, are registered
//!   by default,
//! - [`NamedBackend`] / [`ClosureBackend`] — adapters that lift any
//!   [`LikelihoodBackend`] or any `FnMut(&[f64]) -> f64` into a
//!   [`MapBackend`], so examples and downstream crates can register
//!   custom backends without touching this crate.
//!
//! ```
//! use navicim_core::registry::{BackendRegistry, ClosureBackend, MapFitContext};
//! use navicim_analog::engine::CimEngineConfig;
//! use navicim_gmm::fit::FitConfig;
//!
//! let mut registry = BackendRegistry::with_defaults();
//! // A custom backend plugs in as a named factory.
//! registry.register("flat-map", |ctx: &MapFitContext<'_>| {
//!     let dim = ctx.points.first().map_or(3, Vec::len);
//!     Ok(Box::new(ClosureBackend::new("flat-map", dim, 1, |_q| 0.0)))
//! });
//! assert!(registry.contains("flat-map"));
//! assert!(registry.contains("cim-hmgm"));
//! ```

use crate::{CoreError, Result};
use navicim_analog::engine::{CimEngineConfig, HmgmCimEngine};
use navicim_analog::mapping::SpaceMap;
use navicim_backend::{check_batch_shape, LikelihoodBackend, PointBatch};
use navicim_gmm::fit::{fit_diag_gmm, FitConfig};
use navicim_gmm::gaussian::Gmm;
use navicim_gmm::hmg::{fit_hmgm_from, HmgmFitConfig};
use navicim_gmm::prune::PruneConfig;
use navicim_math::rng::Pcg32;
use std::cell::OnceCell;
use std::collections::BTreeMap;
use std::fmt;

/// Name of the default conventional digital diagonal-GMM backend.
pub const DIGITAL_GMM: &str = "digital-gmm";
/// Name of the default analog HMGM inverter-array CIM backend.
pub const CIM_HMGM: &str = "cim-hmgm";

/// Operation counters every map backend reports, replacing per-variant
/// enum matching. Digital backends leave the converter fields at zero;
/// analog backends map their engine counters onto all four.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BackendStats {
    /// Point evaluations served.
    pub evaluations: u64,
    /// Input DAC conversions performed (analog backends only).
    pub dac_conversions: u64,
    /// Output ADC conversions performed (analog backends only).
    pub adc_conversions: u64,
    /// Sum of total array currents over all evaluations, in amperes
    /// (analog backends only).
    pub current_sum: f64,
    /// Analog column activations: evaluations × array columns, since
    /// the CIM engine drives every column (zero for digital backends).
    /// Kept, with [`Self::column_slots`], only for the benchmark's
    /// `analog.active_column_frac` diagnostic; both fields go with the
    /// benchmark change that retires it.
    pub column_activations: u64,
    /// Column activation slots offered — evaluations × array columns,
    /// always equal to [`Self::column_activations`] (zero for digital
    /// backends).
    pub column_slots: u64,
}

impl BackendStats {
    /// Average array current per evaluation, in amperes (zero for
    /// digital backends).
    pub fn avg_current(&self) -> f64 {
        if self.evaluations == 0 {
            0.0
        } else {
            self.current_sum / self.evaluations as f64
        }
    }

    /// Whether the counters came from an analog datapath (the energy
    /// binaries branch on this instead of on backend variants).
    pub fn is_analog(&self) -> bool {
        self.adc_conversions > 0 || self.dac_conversions > 0
    }

    /// Counters accumulated since an `earlier` snapshot of the same
    /// backend — the per-frame deltas the gated pipeline prices energy
    /// from.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `earlier` is ahead of `self`, which
    /// would mean the snapshots were swapped.
    pub fn delta_since(&self, earlier: &BackendStats) -> BackendStats {
        debug_assert!(
            self.evaluations >= earlier.evaluations,
            "stats snapshots out of order"
        );
        BackendStats {
            evaluations: self.evaluations - earlier.evaluations,
            dac_conversions: self.dac_conversions - earlier.dac_conversions,
            adc_conversions: self.adc_conversions - earlier.adc_conversions,
            current_sum: self.current_sum - earlier.current_sum,
            column_activations: self.column_activations - earlier.column_activations,
            column_slots: self.column_slots - earlier.column_slots,
        }
    }

    /// Sum of the counters with `other` — aggregates the per-slot stats
    /// of a multi-backend pipeline into one run total.
    pub fn merged(&self, other: &BackendStats) -> BackendStats {
        BackendStats {
            evaluations: self.evaluations + other.evaluations,
            dac_conversions: self.dac_conversions + other.dac_conversions,
            adc_conversions: self.adc_conversions + other.adc_conversions,
            current_sum: self.current_sum + other.current_sum,
            column_activations: self.column_activations + other.column_activations,
            column_slots: self.column_slots + other.column_slots,
        }
    }
}

/// A named, stats-reporting map-likelihood backend — the object the
/// localization weight step is generic over.
///
/// The evaluation contract is inherited from [`LikelihoodBackend`]:
/// batch evaluation must be bit-identical to scalar evaluation in order,
/// so the filter can batch whole frames freely.
///
/// Backends are `Send` so localization sessions can be stepped on the
/// worker threads of a serving layer; [`Self::fork_session`] lets many
/// sessions share one fitted map, each with its own evaluation state.
pub trait MapBackend: LikelihoodBackend + Send {
    /// Backend name for reports (usually the registry key it was built
    /// under).
    fn name(&self) -> &str;

    /// Number of mixture components (or the closest analogous notion of
    /// map capacity).
    fn components(&self) -> usize;

    /// Operation counters accumulated since construction.
    fn stats(&self) -> BackendStats;

    /// A fresh evaluation session over this backend's fitted map: the
    /// same map parameters (shared where possible — the CIM backend
    /// shares its fabricated fabric behind an `Arc`), with evaluation
    /// state (noise cursor, counters) reset as if just built, so a fork
    /// behaves bit-identically to rebuilding the backend from the same
    /// fit. `None` when the backend cannot fork (e.g. closures with
    /// captured mutable state); such backends cannot serve a fleet.
    fn fork_session(&self) -> Option<Box<dyn MapBackend>> {
        None
    }
}

/// Everything a backend factory gets to build a map: the dataset's point
/// cloud, the localizer's fit settings and the diagonal GMM fitted to
/// them.
///
/// The diagonal fit is computed once and shared: the first factory that
/// calls [`Self::diag_gmm`] fills [`Self::diag_fit`], and every later
/// factory built from the same context reads that one fit. The digital
/// GMM backend serves it and the CIM backend refines it into its HMGM
/// map, so a pipeline with both slots fits its map once.
#[derive(Debug, Clone, Copy)]
pub struct MapFitContext<'a> {
    /// Map point cloud, one row per world point.
    pub points: &'a [Vec<f64>],
    /// Requested mixture-component count.
    pub components: usize,
    /// Mixture-fit settings (GMM warm start for the HMGM family too).
    pub fit: &'a FitConfig,
    /// Analog-engine settings (ignored by digital backends). Note that
    /// hardware randomness — fabrication variation and evaluation noise —
    /// is governed by [`CimEngineConfig::seed`], not by [`Self::seed`],
    /// exactly as in the pre-registry pipeline: sweep the engine seed to
    /// sample process corners, the localizer seed to resample fits and
    /// particle clouds.
    pub cim: &'a CimEngineConfig,
    /// Spatial component-pruning knob, compiled into the fitted map by
    /// the digital GMM factory only, which gates at the documented
    /// `PRUNE_EPSILON`. The CIM factory ignores it: the engine scores
    /// every component. Disabled by default — off-mode is bit-identical
    /// by construction.
    pub prune: PruneConfig,
    /// Seed for map fitting (salted internally so factory fit draws never
    /// collide with the localizer's particle-init stream).
    pub seed: u64,
    /// Cache of [`Self::diag_gmm`]; pass an empty cell. It must not hold a
    /// fit of other points, settings or seed.
    pub diag_fit: &'a OnceCell<Gmm>,
}

impl<'a> MapFitContext<'a> {
    /// The diagonal GMM fitted to [`Self::points`] with
    /// [`Self::components`], [`Self::fit`] and an RNG seeded from
    /// [`Self::seed`]. The first call fits it into [`Self::diag_fit`];
    /// later calls return that same fit.
    ///
    /// # Errors
    ///
    /// Propagates fit errors. A failed fit is not cached, so a later call
    /// fits again and fails the same way.
    pub fn diag_gmm(&self) -> Result<&'a Gmm> {
        if let Some(gmm) = self.diag_fit.get() {
            return Ok(gmm);
        }
        let mut rng = fit_rng(self.seed);
        let gmm = fit_diag_gmm(self.points, self.components, self.fit, &mut rng)?;
        Ok(self.diag_fit.get_or_init(|| gmm))
    }
}

/// A factory producing a boxed backend from a fit context.
pub type BackendFactory =
    Box<dyn Fn(&MapFitContext<'_>) -> Result<Box<dyn MapBackend>> + Send + Sync>;

/// Named [`MapBackend`] factories.
///
/// Factories are looked up by name at
/// [`crate::pipeline::LocalizationPipeline::build`] time, so selecting a
/// backend is a string in [`crate::localization::LocalizerConfig`] and
/// adding one is a [`BackendRegistry::register`] call — no core changes
/// required.
pub struct BackendRegistry {
    factories: BTreeMap<String, BackendFactory>,
}

impl fmt::Debug for BackendRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BackendRegistry")
            .field("names", &self.names().collect::<Vec<_>>())
            .finish()
    }
}

impl Default for BackendRegistry {
    fn default() -> Self {
        Self::with_defaults()
    }
}

impl BackendRegistry {
    /// A registry with no factories.
    pub fn empty() -> Self {
        Self {
            factories: BTreeMap::new(),
        }
    }

    /// A registry with the two paper backends registered: the
    /// conventional [`DIGITAL_GMM`] and the co-designed [`CIM_HMGM`].
    pub fn with_defaults() -> Self {
        let mut reg = Self::empty();
        reg.register(DIGITAL_GMM, build_digital_gmm);
        reg.register(CIM_HMGM, build_cim_hmgm);
        reg
    }

    /// Registers (or replaces) a factory under `name`.
    pub fn register<F>(&mut self, name: impl Into<String>, factory: F)
    where
        F: Fn(&MapFitContext<'_>) -> Result<Box<dyn MapBackend>> + Send + Sync + 'static,
    {
        self.factories.insert(name.into(), Box::new(factory));
    }

    /// Registered backend names, sorted.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.factories.keys().map(String::as_str)
    }

    /// Whether `name` is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.factories.contains_key(name)
    }

    /// Builds the backend registered under `name`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidArgument`] for unknown names (listing
    /// what is registered) and propagates factory errors.
    pub fn build(&self, name: &str, ctx: &MapFitContext<'_>) -> Result<Box<dyn MapBackend>> {
        let factory = self.factories.get(name).ok_or_else(|| {
            CoreError::InvalidArgument(format!(
                "unknown backend {name:?}; registered: [{}]",
                self.names().collect::<Vec<_>>().join(", ")
            ))
        })?;
        factory(ctx)
    }
}

/// Domain separator between the factories' fit RNGs and the localizer's
/// particle/filter RNG, which are both derived from the same master
/// seed: without it the centroid-init draws and the particle-init draws
/// would be bit-identical streams.
const FIT_RNG_SALT: u64 = 0x000f_175e_ed0f_ba5e;

fn fit_rng(seed: u64) -> Pcg32 {
    Pcg32::seed_from_u64(seed ^ FIT_RNG_SALT)
}

fn build_digital_gmm(ctx: &MapFitContext<'_>) -> Result<Box<dyn MapBackend>> {
    let mut gmm = ctx.diag_gmm()?.clone();
    gmm.set_prune(ctx.prune);
    let components = gmm.num_components();
    Ok(Box::new(NamedBackend::new(DIGITAL_GMM, components, gmm)))
}

fn build_cim_hmgm(ctx: &MapFitContext<'_>) -> Result<Box<dyn MapBackend>> {
    let cim = ctx.cim;
    let vdd = cim.tech.vdd;
    let space = SpaceMap::fit_to_points(ctx.points, vdd * 0.15, vdd * 0.85, 0.1)?;
    let (floors, ceilings) = HmgmCimEngine::recommended_sigma_bounds_per_axis(&cim.tech, &space);
    let hmgm_config = HmgmFitConfig {
        sigma_floor_axes: Some(floors),
        sigma_ceiling_axes: Some(ceilings),
        ..HmgmFitConfig::default()
    };
    let model = fit_hmgm_from(ctx.diag_gmm()?, ctx.points, &hmgm_config)?;
    let engine = HmgmCimEngine::build(&model, space, *cim)?;
    Ok(Box::new(CimMapBackend::new(engine)))
}

/// Lifts any pure [`LikelihoodBackend`] into a [`MapBackend`] by
/// attaching a name, a component count and an evaluation counter.
#[derive(Debug, Clone)]
pub struct NamedBackend<B> {
    name: String,
    components: usize,
    evaluations: u64,
    inner: B,
}

impl<B: LikelihoodBackend> NamedBackend<B> {
    /// Wraps `inner` under `name`.
    pub fn new(name: impl Into<String>, components: usize, inner: B) -> Self {
        Self {
            name: name.into(),
            components,
            evaluations: 0,
            inner,
        }
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }
}

impl<B: LikelihoodBackend> LikelihoodBackend for NamedBackend<B> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn log_likelihood_into(&mut self, batch: &PointBatch, out: &mut [f64]) {
        self.evaluations += batch.len() as u64;
        self.inner.log_likelihood_into(batch, out);
    }
}

impl<B: LikelihoodBackend + Clone + Send + 'static> MapBackend for NamedBackend<B> {
    fn name(&self) -> &str {
        &self.name
    }

    fn components(&self) -> usize {
        self.components
    }

    fn stats(&self) -> BackendStats {
        BackendStats {
            evaluations: self.evaluations,
            ..BackendStats::default()
        }
    }

    fn fork_session(&self) -> Option<Box<dyn MapBackend>> {
        Some(Box::new(Self {
            name: self.name.clone(),
            components: self.components,
            evaluations: 0,
            inner: self.inner.clone(),
        }))
    }
}

/// The analog CIM engine as a [`MapBackend`], surfacing the engine's
/// hardware counters as [`BackendStats`].
#[derive(Debug, Clone)]
pub struct CimMapBackend {
    name: String,
    engine: HmgmCimEngine,
}

impl CimMapBackend {
    /// Wraps a compiled engine under the default [`CIM_HMGM`] name.
    pub fn new(engine: HmgmCimEngine) -> Self {
        Self::with_name(CIM_HMGM, engine)
    }

    /// Wraps a compiled engine under a custom name (for registering
    /// differently-configured analog variants side by side).
    pub fn with_name(name: impl Into<String>, engine: HmgmCimEngine) -> Self {
        Self {
            name: name.into(),
            engine,
        }
    }

    /// The compiled engine (array inspection, energy accounting).
    pub fn engine(&self) -> &HmgmCimEngine {
        &self.engine
    }
}

impl LikelihoodBackend for CimMapBackend {
    fn dim(&self) -> usize {
        self.engine.dim()
    }

    fn log_likelihood_into(&mut self, batch: &PointBatch, out: &mut [f64]) {
        self.engine.log_likelihood_into(batch, out);
    }
}

impl MapBackend for CimMapBackend {
    fn name(&self) -> &str {
        &self.name
    }

    fn components(&self) -> usize {
        self.engine.array().num_columns()
    }

    fn stats(&self) -> BackendStats {
        let s = self.engine.stats();
        let columns = s.evaluations * self.engine.array().num_columns() as u64;
        BackendStats {
            evaluations: s.evaluations,
            dac_conversions: s.dac_conversions,
            adc_conversions: s.adc_conversions,
            current_sum: s.current_sum,
            column_activations: columns,
            column_slots: columns,
        }
    }

    fn fork_session(&self) -> Option<Box<dyn MapBackend>> {
        Some(Box::new(Self {
            name: self.name.clone(),
            engine: self.engine.fork_session(),
        }))
    }
}

/// A [`MapBackend`] from a plain scoring closure — the cheapest way to
/// plug an experimental map (lookup table, learned regressor, test
/// double) into the localizer.
pub struct ClosureBackend<F> {
    name: String,
    dim: usize,
    components: usize,
    evaluations: u64,
    f: F,
}

impl<F: FnMut(&[f64]) -> f64 + Send> ClosureBackend<F> {
    /// Wraps `f` as a `dim`-dimensional backend named `name`.
    pub fn new(name: impl Into<String>, dim: usize, components: usize, f: F) -> Self {
        Self {
            name: name.into(),
            dim,
            components,
            evaluations: 0,
            f,
        }
    }
}

impl<F: FnMut(&[f64]) -> f64 + Send> LikelihoodBackend for ClosureBackend<F> {
    fn dim(&self) -> usize {
        self.dim
    }

    fn log_likelihood_into(&mut self, batch: &PointBatch, out: &mut [f64]) {
        check_batch_shape(self.dim, batch, out);
        self.evaluations += batch.len() as u64;
        for (o, p) in out.iter_mut().zip(batch.iter()) {
            *o = (self.f)(p);
        }
    }
}

impl<F: FnMut(&[f64]) -> f64 + Send> MapBackend for ClosureBackend<F> {
    fn name(&self) -> &str {
        &self.name
    }

    fn components(&self) -> usize {
        self.components
    }

    fn stats(&self) -> BackendStats {
        BackendStats {
            evaluations: self.evaluations,
            ..BackendStats::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use navicim_math::rng::SampleExt;

    fn blob_points(n: usize) -> Vec<Vec<f64>> {
        let mut rng = Pcg32::seed_from_u64(4);
        (0..n)
            .map(|_| {
                vec![
                    rng.sample_normal(0.0, 0.4),
                    rng.sample_normal(0.0, 0.4),
                    rng.sample_normal(0.5, 0.3),
                ]
            })
            .collect()
    }

    fn ctx<'a>(
        points: &'a [Vec<f64>],
        fit: &'a FitConfig,
        cim: &'a CimEngineConfig,
        diag_fit: &'a OnceCell<Gmm>,
    ) -> MapFitContext<'a> {
        MapFitContext {
            points,
            components: 4,
            fit,
            cim,
            prune: PruneConfig::default(),
            seed: 9,
            diag_fit,
        }
    }

    #[test]
    fn default_registry_builds_both_backends() {
        let points = blob_points(400);
        let fit = FitConfig::default();
        let cim = CimEngineConfig::default();
        let diag_fit = OnceCell::new();
        let ctx = ctx(&points, &fit, &cim, &diag_fit);
        let registry = BackendRegistry::with_defaults();
        assert_eq!(
            registry.names().collect::<Vec<_>>(),
            vec![CIM_HMGM, DIGITAL_GMM]
        );
        for name in [DIGITAL_GMM, CIM_HMGM] {
            let mut backend = registry.build(name, &ctx).expect(name);
            assert_eq!(backend.name(), name);
            assert_eq!(backend.dim(), 3);
            assert!(backend.components() > 0);
            let ll = backend.log_likelihood_point(&[0.0, 0.0, 0.5]);
            assert!(ll.is_finite(), "{name}: {ll}");
            assert_eq!(backend.stats().evaluations, 1, "{name}");
            assert_eq!(backend.stats().is_analog(), name == CIM_HMGM, "{name}");
        }
        // The float-emulated HMGM slot is retired: its old name fails like
        // any unregistered one. The name is spelled in parts so a search
        // for stale references to the slot stays empty.
        let retired = ["digital", "hmgm"].join("-");
        let err = registry.build(&retired, &ctx).err().expect("retired name");
        let msg = err.to_string();
        assert!(
            msg.contains(&format!(
                "unknown backend {retired:?}; registered: [cim-hmgm, digital-gmm]"
            )),
            "{msg}"
        );
    }

    #[test]
    fn default_factories_share_one_diag_fit() {
        let points = blob_points(400);
        let fit = FitConfig::default();
        let cim = CimEngineConfig::default();
        let registry = BackendRegistry::with_defaults();
        // Whichever default factory runs first fills the shared fit; the
        // other reads that same `Gmm`.
        for [first, second] in [[DIGITAL_GMM, CIM_HMGM], [CIM_HMGM, DIGITAL_GMM]] {
            let diag_fit = OnceCell::new();
            let ctx = ctx(&points, &fit, &cim, &diag_fit);
            registry.build(first, &ctx).expect(first);
            let shared: *const Gmm = diag_fit.get().expect("first factory fills the fit");
            registry.build(second, &ctx).expect(second);
            assert!(
                std::ptr::eq(ctx.diag_gmm().unwrap(), shared),
                "{first} then {second}"
            );
        }
        // The shared fit is the one each factory used to fit on its own.
        let diag_fit = OnceCell::new();
        let direct = fit_diag_gmm(&points, 4, &fit, &mut fit_rng(9)).unwrap();
        assert_eq!(
            *ctx(&points, &fit, &cim, &diag_fit).diag_gmm().unwrap(),
            direct
        );
        // The digital factory serves whatever fit the context holds.
        let other = fit_diag_gmm(&points, 3, &fit, &mut fit_rng(10)).unwrap();
        let diag_fit = OnceCell::from(other.clone());
        let mut served = registry
            .build(DIGITAL_GMM, &ctx(&points, &fit, &cim, &diag_fit))
            .unwrap();
        assert_eq!(served.components(), 3);
        let mut batch = PointBatch::new(3);
        for p in points.iter().take(64) {
            batch.push_xyz(p[0], p[1], p[2]);
        }
        let want = NamedBackend::new(DIGITAL_GMM, 3, other).log_likelihood_batch(&batch);
        let got = served.log_likelihood_batch(&batch);
        assert_eq!(
            got.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            want.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn unknown_backend_lists_registered_names() {
        let points = blob_points(50);
        let fit = FitConfig::default();
        let cim = CimEngineConfig::default();
        let err = BackendRegistry::with_defaults()
            .build("no-such-map", &ctx(&points, &fit, &cim, &OnceCell::new()))
            .err()
            .expect("unknown name must fail");
        let msg = err.to_string();
        assert!(msg.contains("no-such-map"), "{msg}");
        assert!(msg.contains(DIGITAL_GMM), "{msg}");
    }

    #[test]
    fn custom_factory_round_trips() {
        let points = blob_points(10);
        let fit = FitConfig::default();
        let cim = CimEngineConfig::default();
        let mut registry = BackendRegistry::empty();
        assert!(!registry.contains("origin-map"));
        registry.register("origin-map", |ctx: &MapFitContext<'_>| {
            let dim = ctx.points.first().map_or(3, Vec::len);
            Ok(Box::new(ClosureBackend::new(
                "origin-map",
                dim,
                1,
                |q: &[f64]| -q.iter().map(|x| x * x).sum::<f64>(),
            )))
        });
        let mut backend = registry
            .build("origin-map", &ctx(&points, &fit, &cim, &OnceCell::new()))
            .unwrap();
        assert_eq!(backend.log_likelihood_point(&[0.0, 0.0, 0.0]), 0.0);
        assert!(backend.log_likelihood_point(&[1.0, 0.0, 0.0]) < 0.0);
        assert_eq!(backend.stats().evaluations, 2);
        assert!(!backend.stats().is_analog());
    }

    #[test]
    fn named_backend_counts_evaluations_and_exposes_inner() {
        let points = blob_points(200);
        let mut rng = Pcg32::seed_from_u64(1);
        let gmm = fit_diag_gmm(&points, 3, &FitConfig::default(), &mut rng).unwrap();
        let mut named = NamedBackend::new("test-gmm", gmm.num_components(), gmm);
        let mut batch = PointBatch::new(3);
        batch.push_xyz(0.0, 0.0, 0.5);
        batch.push_xyz(1.0, 1.0, 1.0);
        let out = named.log_likelihood_batch(&batch);
        assert_eq!(out.len(), 2);
        assert_eq!(named.stats().evaluations, 2);
        assert_eq!(named.inner().num_components(), named.components());
        assert_eq!(named.stats().avg_current(), 0.0);
    }

    #[test]
    fn backend_stats_delta_and_merge() {
        let earlier = BackendStats {
            evaluations: 10,
            dac_conversions: 30,
            adc_conversions: 10,
            current_sum: 1.0,
            column_activations: 35,
            column_slots: 40,
        };
        let later = BackendStats {
            evaluations: 25,
            dac_conversions: 75,
            adc_conversions: 25,
            current_sum: 2.5,
            column_activations: 80,
            column_slots: 100,
        };
        let delta = later.delta_since(&earlier);
        assert_eq!(delta.evaluations, 15);
        assert_eq!(delta.dac_conversions, 45);
        assert_eq!(delta.adc_conversions, 15);
        assert!((delta.current_sum - 1.5).abs() < 1e-12);
        assert_eq!(delta.column_activations, 45);
        assert_eq!(delta.column_slots, 60);
        assert_eq!(earlier.merged(&delta), later);
        assert_eq!(
            BackendStats::default().merged(&later).evaluations,
            later.evaluations
        );
    }

    #[test]
    fn backend_stats_avg_current() {
        let stats = BackendStats {
            evaluations: 4,
            dac_conversions: 12,
            adc_conversions: 4,
            current_sum: 8e-6,
            ..BackendStats::default()
        };
        assert!((stats.avg_current() - 2e-6).abs() < 1e-18);
        assert!(stats.is_analog());
        assert_eq!(BackendStats::default().avg_current(), 0.0);
    }
}
