//! Ablation: particle count and mixture-component sweeps for the
//! localization pipeline (the Section II workload-scaling claim).
//!
//! Run: `cargo run --release -p navicim-bench --bin abl_pf_sweep`

use navicim_bench::small_localization_dataset;
use navicim_core::localization::LocalizerConfig;
use navicim_core::pipeline::LocalizationPipeline;
use navicim_core::registry::{CIM_HMGM, DIGITAL_GMM};
use navicim_core::reportfmt::Table;
use navicim_energy::analog::AnalogCimProfile;
use navicim_energy::digital::DigitalProfile;

fn main() {
    println!("# Ablation — particle-count and component-count sweeps\n");
    let dataset = small_localization_dataset(51);
    let analog = AnalogCimProfile::paper_45nm();
    let digital = DigitalProfile::paper_calibrated_gmm_asic();

    println!("## steady-state error vs particle count (16 components, CIM backend)");
    let mut p_table = Table::new(vec![
        "particles",
        "steady-state error (m)",
        "point evals",
        "CIM energy/frame (pJ)",
    ]);
    for &particles in &[50usize, 100, 250, 500, 1000] {
        let config = LocalizerConfig {
            num_particles: particles,
            components: 16,
            pixel_stride: 11,
            backend: CIM_HMGM.into(),
            seed: 5,
            ..LocalizerConfig::default()
        };
        let mut loc = LocalizationPipeline::build(&dataset, config).expect("localizer builds");
        let run = loc.run(&dataset).expect("run completes");
        let stats = run.merged_stats();
        let per_eval = analog
            .likelihood_eval_report(stats.avg_current(), 3, 4, 4)
            .expect("prices")
            .total_pj();
        let frames = run.frames.len() as f64;
        p_table.row(vec![
            format!("{particles}"),
            format!("{:.4}", run.steady_state_error()),
            format!("{}", stats.evaluations),
            format!("{:.1}", per_eval * stats.evaluations as f64 / frames),
        ]);
    }
    println!("{p_table}");

    println!("## steady-state error vs mixture components (400 particles)");
    let mut k_table = Table::new(vec![
        "components K",
        "gmm error (m)",
        "cim error (m)",
        "digital energy/eval (fJ)",
        "cim evals",
    ]);
    for &k in &[4usize, 8, 16, 32] {
        let base = LocalizerConfig {
            num_particles: 400,
            components: k,
            pixel_stride: 11,
            seed: 6,
            ..LocalizerConfig::default()
        };
        let mut gmm_loc = LocalizationPipeline::build(
            &dataset,
            LocalizerConfig {
                backend: DIGITAL_GMM.into(),
                ..base.clone()
            },
        )
        .expect("gmm localizer builds");
        let gmm_run = gmm_loc.run(&dataset).expect("gmm run");
        let mut cim_loc = LocalizationPipeline::build(
            &dataset,
            LocalizerConfig {
                backend: CIM_HMGM.into(),
                ..base
            },
        )
        .expect("cim localizer builds");
        let cim_run = cim_loc.run(&dataset).expect("cim run");
        let digital_fj = digital.gmm_point_pj(3, k, 8).expect("prices") * 1e3;
        k_table.row(vec![
            format!("{k}"),
            format!("{:.4}", gmm_run.steady_state_error()),
            format!("{:.4}", cim_run.steady_state_error()),
            format!("{digital_fj:.1}"),
            format!("{}", cim_run.merged_stats().evaluations),
        ]);
    }
    println!("{k_table}");
    println!(
        "shape: error saturates with enough particles/components while digital \
         energy grows linearly in K — the workload argument motivating the \
         analog mixture evaluation."
    );
}
