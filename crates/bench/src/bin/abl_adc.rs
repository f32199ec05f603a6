//! Ablation: log-ADC resolution and process-variation severity of the
//! analog likelihood engine (robustness of the Section II co-design).
//!
//! Run: `cargo run --release -p navicim-bench --bin abl_adc`

use navicim_analog::engine::CimEngineConfig;
use navicim_bench::small_localization_dataset;
use navicim_core::localization::LocalizerConfig;
use navicim_core::pipeline::LocalizationPipeline;
use navicim_core::registry::CIM_HMGM;
use navicim_core::reportfmt::Table;

fn main() {
    println!("# Ablation — ADC resolution and device variation\n");
    let dataset = small_localization_dataset(61);
    let base = LocalizerConfig {
        num_particles: 300,
        components: 12,
        pixel_stride: 11,
        seed: 7,
        ..LocalizerConfig::default()
    };

    println!("## steady-state error vs log-ADC bits (nominal variation)");
    let mut adc_table = Table::new(vec!["adc bits", "steady-state error (m)"]);
    for &bits in &[2u32, 3, 4, 6, 8] {
        let config = LocalizerConfig {
            backend: CIM_HMGM.into(),
            cim: CimEngineConfig {
                adc_bits: bits,
                ..CimEngineConfig::default()
            },
            ..base.clone()
        };
        let mut loc = LocalizationPipeline::build(&dataset, config).expect("localizer builds");
        let run = loc.run(&dataset).expect("run completes");
        adc_table.row(vec![
            format!("{bits}"),
            format!("{:.4}", run.steady_state_error()),
        ]);
    }
    println!("{adc_table}");

    println!("## steady-state error vs process-variation severity (8-bit ADC)");
    let mut var_table = Table::new(vec![
        "variation severity (x nominal)",
        "steady-state error (m)",
    ]);
    for &sev in &[0.0, 0.5, 1.0, 2.0, 4.0] {
        let config = LocalizerConfig {
            backend: CIM_HMGM.into(),
            cim: CimEngineConfig {
                variation_severity: sev,
                ..CimEngineConfig::default()
            },
            ..base.clone()
        };
        let mut loc = LocalizationPipeline::build(&dataset, config).expect("localizer builds");
        let run = loc.run(&dataset).expect("run completes");
        var_table.row(vec![
            format!("{sev:.1}"),
            format!("{:.4}", run.steady_state_error()),
        ]);
    }
    println!("{var_table}");
    println!(
        "shape: accuracy degrades gracefully at very low ADC resolution and \
         under exaggerated device variation — the probabilistic filter absorbs \
         moderate hardware non-ideality (the paper's Fig. 1 argument)."
    );
}
