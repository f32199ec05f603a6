//! Energy costs of the analog inverter-array likelihood engine
//! (Section II, Fig. 2(i)).

use crate::report::EnergyReport;
use crate::{EnergyError, Result};

/// Cost profile of the analog CIM likelihood path.
///
/// The array energy is computed from the *measured* average array current
/// of the simulated engine (`E = I_avg · V_DD · t_eval`), so the model
/// tracks the actual workload; `current_scale` maps our strong-inversion
/// device model onto the paper's deep-subthreshold design point and is
/// CALIBRATED against the 374 fJ anchor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalogCimProfile {
    /// Supply voltage in volts.
    pub vdd: f64,
    /// Evaluation window per likelihood query, in seconds.
    pub eval_time_s: f64,
    /// CALIBRATED current scale mapping modeled currents to the paper's
    /// subthreshold-biased design.
    pub current_scale: f64,
    /// DAC conversion energy at 4 bits, in femtojoules (scales linearly
    /// with bits).
    pub dac4_fj: f64,
    /// ADC Walden figure of merit, in femtojoules per conversion step.
    pub adc_fom_fj_per_step: f64,
}

impl AnalogCimProfile {
    /// The paper's 45 nm operating point.
    pub fn paper_45nm() -> Self {
        Self {
            vdd: 1.0,
            eval_time_s: 1e-9,
            current_scale: 30.0, // CALIBRATED (374 fJ anchor)
            dac4_fj: 20.0,
            adc_fom_fj_per_step: 8.0,
        }
    }

    /// Array conduction energy for one evaluation, in pJ, from the average
    /// total array current in amperes.
    ///
    /// # Errors
    ///
    /// Returns [`EnergyError::InvalidArgument`] for negative currents.
    pub fn array_pj(&self, avg_current_a: f64) -> Result<f64> {
        if avg_current_a < 0.0 {
            return Err(EnergyError::InvalidArgument(
                "average current must be non-negative".into(),
            ));
        }
        Ok(avg_current_a * self.current_scale * self.vdd * self.eval_time_s * 1e12)
    }

    /// Energy of one DAC conversion at the given resolution, in pJ.
    pub fn dac_pj(&self, bits: u32) -> f64 {
        self.dac4_fj * bits as f64 / 4.0 * 1e-3
    }

    /// Energy of one ADC conversion at the given resolution, in pJ
    /// (Walden scaling: per-step FoM × 2^bits).
    pub fn adc_pj(&self, bits: u32) -> f64 {
        self.adc_fom_fj_per_step * (1u64 << bits) as f64 * 1e-3
    }

    /// Total energy of one likelihood evaluation in pJ — the sum of the
    /// [`Self::likelihood_eval_report`] items without building the
    /// itemized report, so per-frame pricing loops (the gated pipeline
    /// prices every frame) stay allocation-free.
    ///
    /// # Errors
    ///
    /// Propagates [`Self::array_pj`] validation.
    pub fn likelihood_eval_pj(
        &self,
        avg_current_a: f64,
        dims: usize,
        dac_bits: u32,
        adc_bits: u32,
    ) -> Result<f64> {
        Ok(self.array_pj(avg_current_a)?
            + dims as f64 * self.dac_pj(dac_bits)
            + self.adc_pj(adc_bits))
    }

    /// Full breakdown of one likelihood evaluation: `dims` DAC conversions,
    /// one array read, one log-ADC conversion.
    ///
    /// # Errors
    ///
    /// Propagates [`Self::array_pj`] validation.
    pub fn likelihood_eval_report(
        &self,
        avg_current_a: f64,
        dims: usize,
        dac_bits: u32,
        adc_bits: u32,
    ) -> Result<EnergyReport> {
        let mut report = EnergyReport::new("analog CIM likelihood evaluation");
        report.push("inverter array conduction", self.array_pj(avg_current_a)?);
        report.push("input DACs", dims as f64 * self.dac_pj(dac_bits));
        report.push("log-ADC conversion", self.adc_pj(adc_bits));
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn array_energy_is_q_times_v() {
        let p = AnalogCimProfile {
            current_scale: 1.0,
            ..AnalogCimProfile::paper_45nm()
        };
        // 1 µA for 1 ns at 1 V = 1 fJ = 1e-3 pJ.
        let e = p.array_pj(1e-6).unwrap();
        assert!((e - 1e-3).abs() < 1e-15);
        assert!(p.array_pj(-1.0).is_err());
    }

    #[test]
    fn adc_walden_scaling() {
        let p = AnalogCimProfile::paper_45nm();
        assert!((p.adc_pj(5) / p.adc_pj(4) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn paper_anchor_in_range() {
        // At a representative simulated average array current of ~4 µA
        // (500 subthreshold columns, few conducting), the 4-bit evaluation
        // should land near the paper's 374 fJ anchor.
        let p = AnalogCimProfile::paper_45nm();
        let report = p.likelihood_eval_report(4e-6, 3, 4, 4).unwrap();
        let total = report.total_pj();
        assert!(
            (0.15..0.75).contains(&total),
            "total {total} pJ should be in the few-hundred-fJ range"
        );
    }

    #[test]
    fn breakdown_has_three_items() {
        let p = AnalogCimProfile::paper_45nm();
        let report = p.likelihood_eval_report(1e-6, 3, 4, 8).unwrap();
        assert_eq!(report.items().len(), 3);
        assert!(report.total_pj() > 0.0);
    }

    #[test]
    fn eval_pj_matches_report_total() {
        let p = AnalogCimProfile::paper_45nm();
        let report = p.likelihood_eval_report(2.5e-6, 3, 4, 6).unwrap();
        let total = p.likelihood_eval_pj(2.5e-6, 3, 4, 6).unwrap();
        assert_eq!(total, report.total_pj());
        assert!(p.likelihood_eval_pj(-1.0, 3, 4, 6).is_err());
    }
}
