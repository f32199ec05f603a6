//! Drone localization on the analog CIM backend, end to end.
//!
//! The scenario of the paper's introduction: an insect-scale drone flying
//! an indoor scene must continuously estimate its pose from depth scans
//! against a pre-built map, on a microwatt power budget. This example
//! builds the scene, fits both map models, runs the particle filter on
//! each backend and prices the map-evaluation energy.
//!
//! It also demonstrates the *pluggable* backend registry: a custom map
//! backend — here a plain closure scoring distance to a subsampled point
//! cloud — is registered under a name and driven by the same localizer,
//! with no change to `navicim-core` — and the *uncertainty-gated*
//! streaming pipeline, which arbitrates digital↔analog per frame on the
//! particle spread and reports the blended flight energy.
//!
//! Run: `cargo run --release --example drone_localization`

use navicim::core::localization::LocalizerConfig;
use navicim::core::pipeline::{GateConfig, HysteresisConfig, LocalizationPipeline, DIGITAL_SLOT};
use navicim::core::registry::{
    BackendRegistry, ClosureBackend, MapFitContext, CIM_HMGM, DIGITAL_GMM,
};
use navicim::core::reportfmt::{fmt_pct, Table};
use navicim::energy::analog::AnalogCimProfile;
use navicim::energy::digital::DigitalProfile;
use navicim::scene::dataset::{LocalizationConfig, LocalizationDataset};

fn main() {
    println!("drone localization: digital GMM vs analog HMGM-CIM\n");

    let dataset = LocalizationDataset::generate(
        &LocalizationConfig {
            image_width: 40,
            image_height: 30,
            map_points: 1600,
            frames: 24,
            ..LocalizationConfig::default()
        },
        2024,
    )
    .expect("dataset generates");
    println!(
        "scene: {} shapes, {} map points, {} frames\n",
        dataset.scene.len(),
        dataset.map_points.len(),
        dataset.frames.len()
    );

    let config = |backend: &str| LocalizerConfig {
        num_particles: 300,
        components: 12,
        pixel_stride: 9,
        backend: backend.into(),
        seed: 99,
        ..LocalizerConfig::default()
    };

    // The default registry serves the paper's backends; a custom
    // kernel-density backend registers alongside them. The factory gets
    // the dataset's point cloud through the fit context and returns any
    // Box<dyn MapBackend> — here the ClosureBackend adapter over a plain
    // scoring closure.
    let mut registry = BackendRegistry::with_defaults();
    registry.register("point-cloud-kde", |ctx: &MapFitContext<'_>| {
        let anchors: Vec<Vec<f64>> = ctx.points.iter().step_by(11).cloned().collect();
        let inv_two_sigma_sq = 1.0 / (2.0 * 0.25f64.powi(2));
        let components = anchors.len();
        Ok(Box::new(ClosureBackend::new(
            "point-cloud-kde",
            3,
            components,
            move |q: &[f64]| {
                // Max-kernel approximation of a KDE log-density: the
                // nearest anchor dominates the sum.
                let mut best = f64::MIN;
                for a in &anchors {
                    let d2: f64 = a.iter().zip(q).map(|(ai, qi)| (ai - qi).powi(2)).sum();
                    best = best.max(-d2 * inv_two_sigma_sq);
                }
                best
            },
        )))
    });

    let run_backend = |name: &str| {
        LocalizationPipeline::build_with_registry(&dataset, config(name), &registry)
            .unwrap_or_else(|e| panic!("{name} localizer builds: {e}"))
            .run(&dataset)
            .unwrap_or_else(|e| panic!("{name} run completes: {e}"))
    };
    let digital_run = run_backend(DIGITAL_GMM);
    let cim_run = run_backend(CIM_HMGM);
    let kde_run = run_backend("point-cloud-kde");

    println!("per-frame tracking error (m):");
    let mut table = Table::new(vec!["frame", "digital GMM", "analog CIM", "custom KDE"]);
    for (i, ((d, c), k)) in digital_run
        .frames
        .iter()
        .zip(&cim_run.frames)
        .zip(&kde_run.frames)
        .enumerate()
    {
        table.row(vec![
            format!("{}", i + 1),
            format!("{:.4}", d.summary.error),
            format!("{:.4}", c.summary.error),
            format!("{:.4}", k.summary.error),
        ]);
    }
    println!("{table}");

    // Energy for the map evaluations both paper filters performed. The
    // trait-level BackendStats carry the analog counters; digital
    // backends report zero converter activity.
    let digital_profile = DigitalProfile::paper_calibrated_gmm_asic();
    let analog_profile = AnalogCimProfile::paper_45nm();
    let digital_pj = digital_profile
        .gmm_point_pj(3, 12, 8)
        .expect("digital energy prices")
        * digital_run.merged_stats().evaluations as f64;
    let stats = cim_run.merged_stats();
    assert!(stats.is_analog(), "cim backend reports analog counters");
    let cim_pj = analog_profile
        .likelihood_eval_report(stats.avg_current(), 3, 4, 4)
        .expect("analog energy prices")
        .total_pj()
        * stats.evaluations as f64;

    println!("map-evaluation energy over the whole flight:");
    println!(
        "  digital GMM : {:.2} uJ  (steady-state error {:.3} m)",
        digital_pj / 1e6,
        digital_run.steady_state_error()
    );
    println!(
        "  analog CIM  : {:.2} uJ  (steady-state error {:.3} m)",
        cim_pj / 1e6,
        cim_run.steady_state_error()
    );
    println!(
        "  custom KDE  : (digital closure backend, {} evaluations, steady-state error {:.3} m)",
        kde_run.merged_stats().evaluations,
        kde_run.steady_state_error()
    );
    println!(
        "  -> the co-designed map evaluation costs {:.0}x less energy",
        digital_pj / cim_pj
    );

    // The gated pipeline: per-frame digital<->analog arbitration on the
    // particle spread, priced frame by frame. The same registry serves
    // both slots.
    let gated_config = LocalizerConfig {
        gate: GateConfig::gated(DIGITAL_GMM, CIM_HMGM).with_hysteresis(HysteresisConfig {
            analog_enter: 0.07,
            digital_enter: 0.12,
            dwell: 2,
            start: DIGITAL_SLOT,
        }),
        // Low-precision converters: the analog path's energy advantage
        // comes from the Walden-scaled ADC term.
        cim: navicim::analog::engine::CimEngineConfig {
            dac_bits: 6,
            adc_bits: 6,
            ..navicim::analog::engine::CimEngineConfig::default()
        },
        ..config(DIGITAL_GMM)
    };
    let gated_run = LocalizationPipeline::build_with_registry(&dataset, gated_config, &registry)
        .expect("gated pipeline builds")
        .run(&dataset)
        .expect("gated run completes");
    println!("\nuncertainty-gated flight (hysteresis on particle spread):");
    println!("{}", gated_run.summary_table());
    println!(
        "  {} of frames on the analog array, steady-state error {:.3} m, \
         total map energy {:.2} uJ (always-digital: {:.2} uJ)",
        fmt_pct(gated_run.analog_fraction()),
        gated_run.steady_state_error(),
        gated_run.total_energy_pj() / 1e6,
        digital_pj / 1e6
    );

    // Every frame logs the full uncertainty bus the gate saw — spread,
    // ESS fraction and the likelihood innovation (mean log-likelihood
    // vs. its running EWMA); `PipelineRun::to_csv()` exports the same
    // columns as training data for learned gates.
    println!("\n  per-frame uncertainty bus (first 5 frames):");
    for f in gated_run.frames.iter().take(5) {
        println!(
            "    frame {:>2}: spread {:.4} m, ess {:.3}, innovation {} -> {}",
            f.frame + 1,
            f.signals.spread,
            f.signals.ess_fraction,
            // Warm-up frames have no innovation reading yet.
            f.signals
                .innovation
                .map_or("  (n/a)".to_string(), |i| format!("{i:+.3}")),
            gated_run.backends[f.slot]
        );
    }
    let csv = gated_run.to_csv();
    println!(
        "  to_csv(): {} rows x {} columns of gate training data",
        csv.len(),
        csv.to_string()
            .lines()
            .next()
            .map_or(0, |h| h.split(',').count())
    );
}
