//! Quickstart: a five-minute tour of the navicim workspace.
//!
//! Builds each layer of the stack bottom-up — device, kernel, map, filter,
//! SRAM macro — and prints what it produces, ending with one step of each
//! of the paper's two pipelines.
//!
//! Run: `cargo run --release --example quickstart`

use navicim::core::localization::LocalizerConfig;
use navicim::core::pipeline::{GateConfig, LocalizationPipeline, ANALOG_SLOT, DIGITAL_SLOT};
use navicim::core::registry::{CIM_HMGM, DIGITAL_GMM};
use navicim::core::vo::{train_vo_network, BayesianVo, VoPipelineConfig, VoTrainConfig};
use navicim::device::inverter::GaussianLikeCell;
use navicim::device::params::TechParams;
use navicim::filter::filter::{FilterConfig, ParticleFilter};
use navicim::filter::particle::ParticleSet;
use navicim::gmm::hmg::HmgKernel;
use navicim::math::rng::{Pcg32, Rng64, SampleExt};
use navicim::math::stats::normal_logpdf;
use navicim::scene::dataset::{
    LocalizationConfig, LocalizationDataset, VoConfig, VoDataset, VoTrajectory,
};
use navicim::sram::rng::{CciRng, CciRngConfig};

fn main() {
    println!("navicim quickstart\n==================\n");

    // 1. A floating-gate inverter cell: programmable Gaussian-like bell.
    let tech = TechParams::cmos_45nm();
    let cell = GaussianLikeCell::with_center(&tech, 0.55);
    println!(
        "1. device: inverter cell programmed to 0.55 V; peak current {:.2} uA, \
         effective sigma {:.0} mV",
        cell.peak_current() * 1e6,
        cell.effective_sigma() * 1e3
    );

    // 2. The kernel family that cell evaluates natively.
    let kernel = HmgKernel::new(vec![0.0, 0.0, 0.75], vec![0.3, 0.3, 0.2], 1.0)
        .expect("kernel parameters are valid");
    println!(
        "2. kernel: HMG value at its mean {:.3}, at 0.5 m offset {:.3}",
        kernel.eval(&[0.0, 0.0, 0.75]),
        kernel.eval(&[0.5, 0.0, 0.75])
    );

    // 3. Pipeline A: localize a drone in a synthetic tabletop scene.
    println!("\n3. localization pipeline (Section II):");
    let dataset = LocalizationDataset::generate(
        &LocalizationConfig {
            image_width: 32,
            image_height: 24,
            map_points: 1200,
            frames: 12,
            ..LocalizationConfig::default()
        },
        7,
    )
    .expect("dataset generates");
    let mut localizer = LocalizationPipeline::build(
        &dataset,
        LocalizerConfig {
            num_particles: 250,
            components: 10,
            backend: CIM_HMGM.into(),
            ..LocalizerConfig::default()
        },
    )
    .expect("localizer builds");
    let run = localizer.run(&dataset).expect("localization runs");
    println!(
        "   tracked {} frames on the analog CIM backend; steady-state error \
         {:.3} m, {} analog likelihood evaluations",
        run.frames.len(),
        run.steady_state_error(),
        run.merged_stats().evaluations
    );

    // 3b. The uncertainty-gated pipeline: the particle spread drives the
    //     compute substrate per frame — wide cloud on the accurate
    //     digital path, collapsed cloud on the cheap analog array.
    let mut gated = LocalizationPipeline::build(
        &dataset,
        LocalizerConfig {
            num_particles: 250,
            components: 10,
            gate: GateConfig::gated(DIGITAL_GMM, CIM_HMGM),
            ..LocalizerConfig::default()
        },
    )
    .expect("gated pipeline builds");
    let gated_run = gated.run(&dataset).expect("gated run completes");
    println!(
        "\n3b. gated pipeline: {} frames digital / {} frames analog, \
         steady-state error {:.3} m, map energy {:.1} nJ",
        gated_run.frames_on(DIGITAL_SLOT),
        gated_run.frames_on(ANALOG_SLOT),
        gated_run.steady_state_error(),
        gated_run.total_energy_pj() / 1e3
    );

    // 3c. Ad-hoc filtering: both the motion and the measurement model can
    //     be plain closures — no wrapper types needed.
    let mut rng = Pcg32::seed_from_u64(3);
    let init: Vec<f64> = (0..400).map(|_| rng.sample_uniform(-5.0, 5.0)).collect();
    let mut pf = ParticleFilter::new(
        ParticleSet::from_states(init).expect("non-empty cloud"),
        FilterConfig::default(),
    );
    let motion = |s: &f64, u: &f64, rng: &mut dyn Rng64| s + u + rng.sample_normal(0.0, 0.05);
    let mut sensor = |s: &f64, z: &f64| normal_logpdf(*z, *s, 0.3);
    for step in 0..15 {
        let truth = 0.2 * step as f64;
        pf.step(&0.2, &truth, &motion, &mut sensor, &mut rng)
            .expect("filter step");
    }
    println!(
        "\n3c. closure models: 1-D tracker estimate {:.2} (truth 2.80) after 15 steps",
        pf.particles().weighted_mean(|s| *s)
    );

    // 4. The SRAM-embedded RNG that feeds dropout bits.
    let mut fab = Pcg32::seed_from_u64(1);
    let mut rng = CciRng::fabricate(&CciRngConfig::default(), &mut fab).expect("rng fabricates");
    let report = rng.calibrate(2000);
    println!(
        "\n4. sram rng: bias {:.3} -> {:.3} after trim calibration ({} bits spent)",
        report.bias_before, report.bias_after, report.bits_used
    );

    // 5. Pipeline B: Bayesian VO on the SRAM CIM macro.
    println!("\n5. visual-odometry pipeline (Section III):");
    let vo_data = VoDataset::generate(
        &VoConfig {
            image_width: 24,
            image_height: 18,
            grid_width: 4,
            grid_height: 3,
            frames: 30,
            trajectory: VoTrajectory::Waypoints(4),
            ..VoConfig::default()
        },
        9,
    )
    .expect("vo dataset generates");
    let net = train_vo_network(
        &vo_data.samples,
        vo_data.feature_dim(),
        &VoTrainConfig {
            hidden1: 24,
            hidden2: 12,
            epochs: 60,
            ..VoTrainConfig::default()
        },
    )
    .expect("network trains");
    let calib: Vec<Vec<f64>> = vo_data
        .samples
        .iter()
        .take(8)
        .map(|s| s.features.clone())
        .collect();
    let mut vo =
        BayesianVo::build(&net, &calib, VoPipelineConfig::default()).expect("pipeline builds");
    let pred = vo.predict(&vo_data.samples[0].features);
    println!(
        "   4-bit MC-Dropout x30 on the macro: delta mean [{:.3}, {:.3}, {:.3}] m, \
         total predictive variance {:.5}",
        pred.mean[0],
        pred.mean[1],
        pred.mean[2],
        pred.total_variance()
    );
    let stats = vo.macro_stats();
    println!(
        "   macro executed {} of {} full-equivalent MACs ({:.0}% saved by reuse \
         and gating)",
        stats.macs_executed,
        stats.macs_full_equivalent,
        (1.0 - stats.workload_fraction()) * 100.0
    );

    println!("\nsee examples/drone_localization.rs and examples/uncertain_vo.rs for depth.");
}
