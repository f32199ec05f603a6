//! The SRAM-embedded cross-coupled-inverter RNG (paper Fig. 3(b)).
//!
//! Equal numbers of SRAM columns discharge the two ends of a cross-coupled
//! inverter pair; at the clock edge the CCI regenerates the sign of the
//! differential into a full-swing dropout bit. The decision variable is
//!
//! `Δ = (ΣI_leak,L − ΣI_leak,R) + V_os·C/t + noise`
//!
//! where the static leakage imbalance and comparator offset `V_os` bias
//! the generator, and the cycle noise provides the entropy. A trim DAC
//! nulls the static part after a serial-bit calibration, exactly as the
//! paper describes.

use crate::cell::{PortStats, SramColumn};
use crate::{Result, SramError};
use navicim_math::rng::{Pcg32, Rng64};

/// Configuration of one CCI RNG instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CciRngConfig {
    /// SRAM columns connected to each side of the CCI.
    pub columns_per_side: usize,
    /// Cells per column.
    pub cells_per_column: usize,
    /// Port statistics (technology dependent).
    pub port: PortStats,
    /// Comparator (CCI) input-referred offset σ, expressed as an
    /// equivalent current in amperes.
    pub comparator_offset_sigma: f64,
    /// Trim-DAC resolution in bits.
    pub trim_bits: u32,
    /// Trim-DAC full-scale range as an equivalent current in amperes.
    pub trim_range: f64,
}

impl Default for CciRngConfig {
    fn default() -> Self {
        Self {
            columns_per_side: 4,
            cells_per_column: 64,
            port: PortStats::node_16nm(),
            comparator_offset_sigma: 20e-12,
            trim_bits: 10,
            trim_range: 1.5e-9,
        }
    }
}

/// Report of a calibration run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibrationReport {
    /// Ones-fraction before calibration.
    pub bias_before: f64,
    /// Ones-fraction after calibration.
    pub bias_after: f64,
    /// Final trim-DAC code.
    pub trim_code: i64,
    /// Bits spent on calibration.
    pub bits_used: u64,
}

/// The modeled CCI RNG.
///
/// Implements [`Rng64`], so it can drive dropout-mask sampling directly.
#[derive(Debug, Clone)]
pub struct CciRng {
    leak_imbalance: f64,
    comparator_offset: f64,
    noise_rms: f64,
    trim_step: f64,
    trim_code: i64,
    trim_max: i64,
    noise_rng: Pcg32,
    bits_generated: u64,
}

impl CciRng {
    /// "Fabricates" one RNG instance: draws the per-column leakage and the
    /// comparator offset once from the process model.
    ///
    /// # Errors
    ///
    /// Returns [`SramError::InvalidArgument`] for zero-sized arrays or a
    /// zero trim range.
    pub fn fabricate<R: Rng64 + ?Sized>(config: &CciRngConfig, rng: &mut R) -> Result<Self> {
        if config.columns_per_side == 0 || config.cells_per_column == 0 {
            return Err(SramError::InvalidArgument(
                "rng requires at least one column and one cell".into(),
            ));
        }
        if !(config.trim_range > 0.0) || config.trim_bits == 0 || config.trim_bits > 16 {
            return Err(SramError::InvalidArgument(
                "trim dac requires positive range and 1..=16 bits".into(),
            ));
        }
        let side = |rng: &mut R| -> (f64, f64) {
            let mut leak = 0.0;
            let mut noise_var = 0.0;
            for _ in 0..config.columns_per_side {
                let col = SramColumn::fabricate(config.cells_per_column, &config.port, rng);
                leak += col.total_leakage();
                noise_var += col.noise_rms() * col.noise_rms();
            }
            (leak, noise_var)
        };
        let (leak_l, nv_l) = side(rng);
        let (leak_r, nv_r) = side(rng);
        use navicim_math::rng::SampleExt;
        let v_os = rng.sample_normal(0.0, config.comparator_offset_sigma);
        let trim_max = (1i64 << (config.trim_bits - 1)) - 1;
        Ok(Self {
            leak_imbalance: leak_l - leak_r,
            comparator_offset: v_os,
            noise_rms: (nv_l + nv_r).sqrt(),
            trim_step: config.trim_range / (1u64 << config.trim_bits) as f64,
            trim_code: 0,
            trim_max,
            noise_rng: Pcg32::new(rng.next_u64(), 0x5ead),
            bits_generated: 0,
        })
    }

    /// The comparator offset alone as a z-score against the cycle noise.
    ///
    /// This is the quantity the paper's column parallelism attacks: the
    /// offset is a fixed property of the CCI, while the aggregated cycle
    /// noise grows with `√(columns · cells)`, so the ratio shrinks as the
    /// array scales.
    pub fn comparator_offset_z(&self) -> f64 {
        self.comparator_offset / self.noise_rms
    }

    /// Total bits generated so far (calibration included).
    pub fn bits_generated(&self) -> u64 {
        self.bits_generated
    }

    /// Current trim code.
    pub fn trim_code(&self) -> i64 {
        self.trim_code
    }

    /// Generates one raw dropout bit.
    pub fn next_bit(&mut self) -> bool {
        use navicim_math::rng::SampleExt;
        self.bits_generated += 1;
        let noise = self.noise_rng.sample_normal(0.0, self.noise_rms);
        (self.leak_imbalance + self.comparator_offset - self.trim_code as f64 * self.trim_step)
            + noise
            > 0.0
    }

    /// Generates `n` raw bits.
    pub fn bits(&mut self, n: usize) -> Vec<bool> {
        (0..n).map(|_| self.next_bit()).collect()
    }

    /// Estimates the ones-fraction from `n` serial bits (the paper's
    /// calibration measurement).
    fn estimate_bias(&mut self, n: usize) -> f64 {
        let ones = (0..n).filter(|_| self.next_bit()).count();
        ones as f64 / n.max(1) as f64
    }

    /// Calibrates the trim DAC: a binary (SAR-style) search on the trim
    /// code, measuring `samples_per_step` bits per comparison.
    pub fn calibrate(&mut self, samples_per_step: usize) -> CalibrationReport {
        let bits_before = self.bits_generated;
        self.trim_code = 0;
        let bias_before = self.estimate_bias(samples_per_step);
        let (mut lo, mut hi) = (-self.trim_max, self.trim_max);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            self.trim_code = mid;
            let bias = self.estimate_bias(samples_per_step);
            if bias > 0.5 {
                // Too many ones: offset still positive, trim harder.
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        self.trim_code = lo;
        let bias_after = self.estimate_bias(samples_per_step * 4);
        CalibrationReport {
            bias_before,
            bias_after,
            trim_code: self.trim_code,
            bits_used: self.bits_generated - bits_before,
        }
    }

    /// Von Neumann whitening: consumes raw bit pairs, emitting one
    /// unbiased bit per discordant pair.
    pub fn next_bit_whitened(&mut self) -> bool {
        loop {
            let a = self.next_bit();
            let b = self.next_bit();
            if a != b {
                return a;
            }
        }
    }
}

impl Rng64 for CciRng {
    fn next_u64(&mut self) -> u64 {
        let mut word = 0u64;
        for i in 0..64 {
            word |= (self.next_bit() as u64) << i;
        }
        word
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use navicim_math::randtest;
    use navicim_math::rng::Pcg32;

    fn fab(seed: u64, config: &CciRngConfig) -> CciRng {
        let mut rng = Pcg32::seed_from_u64(seed);
        CciRng::fabricate(config, &mut rng).unwrap()
    }

    #[test]
    fn validation() {
        let mut rng = Pcg32::seed_from_u64(1);
        let bad = CciRngConfig {
            columns_per_side: 0,
            ..CciRngConfig::default()
        };
        assert!(CciRng::fabricate(&bad, &mut rng).is_err());
        let bad_trim = CciRngConfig {
            trim_bits: 0,
            ..CciRngConfig::default()
        };
        assert!(CciRng::fabricate(&bad_trim, &mut rng).is_err());
    }

    #[test]
    fn calibration_removes_bias() {
        // Across several fabricated instances, calibration pulls the
        // ones-fraction close to 0.5.
        let config = CciRngConfig::default();
        for seed in 0..8 {
            let mut rng = fab(seed, &config);
            let report = rng.calibrate(2000);
            assert!(
                (report.bias_after - 0.5).abs() < 0.04,
                "seed {seed}: bias {} -> {}",
                report.bias_before,
                report.bias_after
            );
        }
    }

    #[test]
    fn some_instances_start_biased() {
        // With a realistic comparator offset, at least some dies come out
        // of fabrication visibly biased (motivating calibration).
        let config = CciRngConfig::default();
        let mut worst: f64 = 0.0;
        for seed in 0..12 {
            let mut rng = fab(seed, &config);
            let bias = rng.estimate_bias(4000);
            worst = worst.max((bias - 0.5).abs());
        }
        assert!(worst > 0.05, "worst initial bias {worst}");
    }

    #[test]
    fn calibrated_stream_passes_randomness_battery() {
        let mut rng = fab(3, &CciRngConfig::default());
        rng.calibrate(4000);
        let bits = rng.bits(16_384);
        for outcome in randtest::battery(&bits) {
            assert!(outcome.pass, "{outcome:?}");
        }
    }

    #[test]
    fn whitening_fixes_residual_bias() {
        // Deliberately skip calibration: raw bits may be biased, whitened
        // bits must not be.
        let mut rng = fab(5, &CciRngConfig::default());
        let whitened: Vec<bool> = (0..8192).map(|_| rng.next_bit_whitened()).collect();
        assert!(randtest::monobit(&whitened).pass);
    }

    #[test]
    fn more_columns_reduce_comparator_offset_impact() {
        // The paper's argument: scaling the number of parallel columns
        // amplifies the aggregated cycle noise against the *fixed*
        // comparator offset — its z-score falls as 1/√(total cells).
        let small = CciRngConfig {
            columns_per_side: 1,
            cells_per_column: 16,
            ..CciRngConfig::default()
        };
        let large = CciRngConfig {
            columns_per_side: 16,
            cells_per_column: 256,
            ..CciRngConfig::default()
        };
        let mean_abs_z = |config: &CciRngConfig| -> f64 {
            let mut total = 0.0;
            for seed in 100..140 {
                let rng = fab(seed, config);
                total += rng.comparator_offset_z().abs();
            }
            total / 40.0
        };
        let z_small = mean_abs_z(&small);
        let z_large = mean_abs_z(&large);
        // 16·256 cells vs 1·16 cells: noise ratio = √256 = 16.
        assert!(
            z_large < z_small * 0.1,
            "comparator z: small {z_small}, large {z_large}"
        );
    }

    #[test]
    fn rng64_packing_usable_for_masks() {
        use navicim_math::rng::SampleExt;
        let mut rng = fab(7, &CciRngConfig::default());
        rng.calibrate(2000);
        let kept = (0..20_000).filter(|_| !rng.sample_bool(0.5)).count();
        let frac = kept as f64 / 20_000.0;
        assert!((frac - 0.5).abs() < 0.03, "keep fraction {frac}");
    }

    #[test]
    fn bit_counter_tracks_generation() {
        let mut rng = fab(9, &CciRngConfig::default());
        let before = rng.bits_generated();
        rng.bits(100);
        assert_eq!(rng.bits_generated() - before, 100);
    }
}
