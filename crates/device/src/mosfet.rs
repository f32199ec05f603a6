//! Continuous MOSFET drain-current model (EKV-style).
//!
//! The Gaussian-like inverter bell of the paper arises from the *product of
//! conduction regimes*: the NMOS current rises exponentially below threshold
//! and quadratically above, while the PMOS current falls symmetrically. A
//! model that is continuous across the subthreshold/saturation boundary is
//! therefore essential; we use the EKV forward-current interpolation
//!
//! `I = 2 n β U_T² · ln²(1 + exp((V_GS − V_TH) / (2 n U_T)))`
//!
//! which tends to `β/2·(V_GS−V_TH)²` above threshold and to an exponential
//! below it.

use crate::params::TechParams;

/// A single MOSFET with its effective parameters (after floating-gate
/// programming and process variation have been applied).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mosfet {
    /// Effective threshold voltage magnitude in volts.
    vth: f64,
    /// Effective transconductance factor β = k·(W/L) in A/V².
    beta: f64,
    /// Subthreshold slope factor.
    slope_n: f64,
    /// Thermal voltage.
    u_t: f64,
    /// Leakage floor in amperes.
    i_leak: f64,
}

impl Mosfet {
    /// Creates a nominal NMOS device for the given technology.
    pub fn nmos(tech: &TechParams) -> Self {
        Self {
            vth: tech.vth_n,
            beta: tech.k_n,
            slope_n: tech.slope_n,
            u_t: tech.u_t,
            i_leak: tech.i_leak,
        }
    }

    /// Creates a nominal PMOS device for the given technology.
    pub fn pmos(tech: &TechParams) -> Self {
        Self {
            vth: tech.vth_p,
            beta: tech.k_p,
            slope_n: tech.slope_n,
            u_t: tech.u_t,
            i_leak: tech.i_leak,
        }
    }

    /// Returns a copy with the threshold shifted by `delta` volts
    /// (floating-gate programming or mismatch).
    pub fn with_vth_shift(mut self, delta: f64) -> Self {
        self.vth += delta;
        self
    }

    /// Returns a copy with the transconductance scaled by `factor`
    /// (sizing or mismatch).
    ///
    /// # Panics
    ///
    /// Panics in debug builds for non-positive factors.
    pub fn with_beta_scale(mut self, factor: f64) -> Self {
        debug_assert!(factor > 0.0, "beta scale must be positive");
        self.beta *= factor;
        self
    }

    /// Saturation drain current for an effective gate overdrive.
    ///
    /// For NMOS the overdrive is `V_GS`; for PMOS pass `V_SG` (source-gate),
    /// i.e. the amount by which the gate is pulled *below* the source. The
    /// EKV interpolation keeps the expression smooth through threshold, and
    /// the technology leakage floor is always added so currents never reach
    /// exactly zero (which would break harmonic-mean composition).
    pub fn saturation_current(&self, v_gate_drive: f64) -> f64 {
        let x = (v_gate_drive - self.vth) / (2.0 * self.slope_n * self.u_t);
        // ln(1+e^x) computed stably for large |x|.
        let softplus = if x > 30.0 { x } else { x.exp().ln_1p() };
        let i_f = 2.0 * self.slope_n * self.beta * self.u_t * self.u_t * softplus * softplus;
        i_f + self.i_leak
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nmos() -> Mosfet {
        Mosfet::nmos(&TechParams::cmos_45nm())
    }

    #[test]
    fn current_is_monotone_in_gate_drive() {
        let d = nmos();
        let mut prev = 0.0;
        for i in 0..100 {
            let v = i as f64 / 100.0;
            let i_d = d.saturation_current(v);
            assert!(i_d > prev, "current must increase with gate drive");
            prev = i_d;
        }
    }

    #[test]
    fn subthreshold_is_exponential() {
        // Ratio of currents for a fixed ΔV in deep subthreshold should be
        // exp(ΔV / (n U_T)).
        let tech = TechParams::cmos_45nm();
        let d = nmos();
        let v1 = 0.10;
        let dv = 0.03;
        let ratio = d.saturation_current(v1 + dv) / d.saturation_current(v1);
        let expect = (dv / (tech.slope_n * tech.u_t)).exp();
        assert!(
            (ratio / expect - 1.0).abs() < 0.05,
            "ratio {ratio} vs {expect}"
        );
    }

    #[test]
    fn strong_inversion_is_quadratic() {
        // Far above threshold the current approaches β/2·(V−Vth)² within the
        // EKV asymptote (which carries the slope factor n).
        let tech = TechParams::cmos_45nm();
        let d = nmos();
        let v = tech.vth_n + 0.5;
        let i_d = d.saturation_current(v);
        let quad = 0.5 * tech.k_n / tech.slope_n * (v - tech.vth_n).powi(2);
        assert!((i_d / quad - 1.0).abs() < 0.25, "i {i_d} vs quad {quad}");
    }

    #[test]
    fn vth_shift_moves_curve() {
        let d = nmos();
        let shifted = d.with_vth_shift(0.1);
        // Same current at a 0.1 V higher drive.
        let a = d.saturation_current(0.4);
        let b = shifted.saturation_current(0.5);
        assert!((a / b - 1.0).abs() < 1e-9);
    }

    #[test]
    fn beta_scale_scales_current() {
        let d = nmos();
        let doubled = d.with_beta_scale(2.0);
        let v = 0.6;
        let ratio = (doubled.saturation_current(v) - 1e-12) / (d.saturation_current(v) - 1e-12);
        assert!((ratio - 2.0).abs() < 1e-6);
    }

    #[test]
    fn leakage_floor_present() {
        let d = nmos();
        // Even with the gate at 0 the current never drops to zero.
        assert!(d.saturation_current(0.0) >= 1e-12);
    }

    #[test]
    fn pmos_uses_pmos_beta() {
        let tech = TechParams::cmos_45nm();
        let n = Mosfet::nmos(&tech);
        let p = Mosfet::pmos(&tech);
        assert!(n.saturation_current(0.8) > p.saturation_current(0.8));
        assert_eq!(p.beta, tech.k_p);
    }
}
