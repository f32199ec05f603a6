//! Statistical model of 8T-SRAM write-port leakage and noise.
//!
//! During inference the write wordlines are held low, so every write port
//! on a bitline injects only subthreshold leakage plus thermal noise. The
//! per-port leakage varies exponentially with the port transistor's
//! threshold mismatch; the per-cycle noise is white. These are the raw
//! statistics the RNG of [`crate::rng`] harvests.

use navicim_math::rng::{Rng64, SampleExt};

/// Statistics of one write port.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PortStats {
    /// Nominal (zero-mismatch) leakage current in amperes.
    pub i_leak_nominal: f64,
    /// Threshold-voltage mismatch σ in volts.
    pub sigma_vth: f64,
    /// Subthreshold slope factor times thermal voltage, in volts
    /// (`n · U_T` ≈ 36 mV at room temperature).
    pub n_ut: f64,
    /// RMS noise current per evaluation cycle, in amperes.
    pub i_noise_rms: f64,
}

impl PortStats {
    /// Representative 16 nm values: ~5 pA leakage, 28 mV mismatch σ,
    /// thermal-dominated cycle noise.
    pub fn node_16nm() -> Self {
        Self {
            i_leak_nominal: 5e-12,
            sigma_vth: 0.028,
            n_ut: 1.3 * 0.02585,
            i_noise_rms: 2e-12,
        }
    }

    /// Draws one port's static leakage current (log-normal in the
    /// threshold mismatch).
    fn sample_leakage<R: Rng64 + ?Sized>(&self, rng: &mut R) -> f64 {
        let dvth = rng.sample_normal(0.0, self.sigma_vth);
        self.i_leak_nominal * (dvth / self.n_ut).exp()
    }
}

/// A column of `cells` write ports: its static total leakage (drawn at
/// "fabrication") and its aggregated per-cycle noise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SramColumn {
    total_leakage: f64,
    noise_rms: f64,
    cells: usize,
}

impl SramColumn {
    /// Fabricates a column: draws every port's leakage once.
    ///
    /// # Panics
    ///
    /// Panics if `cells` is zero.
    pub fn fabricate<R: Rng64 + ?Sized>(cells: usize, stats: &PortStats, rng: &mut R) -> Self {
        assert!(cells > 0, "a column needs at least one cell");
        let total_leakage = (0..cells).map(|_| stats.sample_leakage(rng)).sum();
        Self {
            total_leakage,
            noise_rms: stats.i_noise_rms * (cells as f64).sqrt(),
            cells,
        }
    }

    /// Static total leakage of the column in amperes.
    pub fn total_leakage(&self) -> f64 {
        self.total_leakage
    }

    /// Aggregated RMS noise per cycle (√cells scaling: independent ports).
    pub fn noise_rms(&self) -> f64 {
        self.noise_rms
    }

    /// Number of cells.
    pub fn cells(&self) -> usize {
        self.cells
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use navicim_math::rng::Pcg32;
    use navicim_math::stats;

    /// Mean leakage including the log-normal bias `exp(σ²/2η²)`.
    fn mean_leakage(s: &PortStats) -> f64 {
        let r = s.sigma_vth / s.n_ut;
        s.i_leak_nominal * (0.5 * r * r).exp()
    }

    /// Standard deviation of one port's leakage.
    fn leakage_std(s: &PortStats) -> f64 {
        let r = s.sigma_vth / s.n_ut;
        let m2 = (2.0 * r * r).exp();
        let m1 = (0.5 * r * r).exp();
        s.i_leak_nominal * (m2 - m1 * m1).max(0.0).sqrt()
    }

    #[test]
    fn leakage_statistics_match_lognormal_theory() {
        let stats_model = PortStats::node_16nm();
        let mut rng = Pcg32::seed_from_u64(1);
        let draws: Vec<f64> = (0..100_000)
            .map(|_| stats_model.sample_leakage(&mut rng))
            .collect();
        let mean = stats::mean(&draws);
        assert!(
            (mean / mean_leakage(&stats_model) - 1.0).abs() < 0.02,
            "mean {mean} vs {}",
            mean_leakage(&stats_model)
        );
        let sd = stats::std_dev(&draws);
        assert!(
            (sd / leakage_std(&stats_model) - 1.0).abs() < 0.05,
            "sd {sd} vs {}",
            leakage_std(&stats_model)
        );
    }

    #[test]
    fn column_aggregation_scalings() {
        // Relative leakage spread falls as 1/√M; noise grows as √M — the
        // paper's core observation about parallel ports.
        let stats_model = PortStats::node_16nm();
        let mut rng = Pcg32::seed_from_u64(2);
        let rel_spread = |cells: usize, rng: &mut Pcg32| {
            let totals: Vec<f64> = (0..2000)
                .map(|_| SramColumn::fabricate(cells, &stats_model, rng).total_leakage())
                .collect();
            stats::std_dev(&totals) / stats::mean(&totals)
        };
        let r16 = rel_spread(16, &mut rng);
        let r256 = rel_spread(256, &mut rng);
        assert!(
            (r16 / r256 - 4.0).abs() < 0.8,
            "expected ~4x reduction, got {r16} vs {r256}"
        );
        let c16 = SramColumn::fabricate(16, &stats_model, &mut rng);
        let c256 = SramColumn::fabricate(256, &stats_model, &mut rng);
        assert!((c256.noise_rms() / c16.noise_rms() - 4.0).abs() < 1e-9);
    }
}
