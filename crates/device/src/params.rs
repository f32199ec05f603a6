//! Technology parameters for the modeled CMOS processes.
//!
//! Two operating points from the paper are provided: the 45 nm node used by
//! the inverter-array likelihood engine of Section II and the 16 nm node
//! used by the SRAM MC-Dropout macro of Section III. Values are
//! representative textbook/PTM-class numbers — the co-design results depend
//! on their *ratios* and functional shapes, not the absolute decimals.

/// Boltzmann constant over electron charge at 300 K: the thermal voltage
/// `U_T = kT/q` in volts.
const THERMAL_VOLTAGE_300K: f64 = 0.02585;

/// Electron charge in coulombs, used by the shot-noise model.
pub const ELECTRON_CHARGE: f64 = 1.602_176_634e-19;

/// Boltzmann constant in J/K, used by the thermal-noise model.
pub const BOLTZMANN: f64 = 1.380_649e-23;

/// Process/technology parameter bundle shared by all devices on a die.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TechParams {
    /// Human-readable node name (e.g. "45nm").
    pub node: &'static str,
    /// Supply voltage in volts.
    pub vdd: f64,
    /// Nominal NMOS threshold voltage in volts.
    pub vth_n: f64,
    /// Nominal PMOS threshold voltage magnitude in volts.
    pub vth_p: f64,
    /// NMOS transconductance factor `k_n = μ_n C_ox W/L` in A/V².
    pub k_n: f64,
    /// PMOS transconductance factor in A/V².
    pub k_p: f64,
    /// Subthreshold slope factor `n` (dimensionless, ≥ 1).
    pub slope_n: f64,
    /// Thermal voltage `U_T` in volts (temperature dependent).
    pub u_t: f64,
    /// Off-state leakage floor per device in amperes, keeping harmonic-mean
    /// compositions finite.
    pub i_leak: f64,
    /// Standard deviation of threshold-voltage mismatch in volts
    /// (Pelgrom-style, for minimum-size devices).
    pub sigma_vth: f64,
    /// Relative standard deviation of the transconductance factor.
    pub sigma_beta: f64,
}

impl TechParams {
    /// 45 nm CMOS operating point used by the Section II inverter array.
    pub fn cmos_45nm() -> Self {
        Self {
            node: "45nm",
            vdd: 1.0,
            vth_n: 0.35,
            vth_p: 0.35,
            k_n: 300e-6,
            k_p: 150e-6,
            slope_n: 1.4,
            u_t: THERMAL_VOLTAGE_300K,
            i_leak: 1e-12,
            sigma_vth: 0.020,
            sigma_beta: 0.03,
        }
    }

    /// 16 nm CMOS operating point (0.85 V) used by the Section III SRAM
    /// macro.
    pub fn cmos_16nm() -> Self {
        Self {
            node: "16nm",
            vdd: 0.85,
            vth_n: 0.30,
            vth_p: 0.30,
            k_n: 500e-6,
            k_p: 280e-6,
            slope_n: 1.3,
            u_t: THERMAL_VOLTAGE_300K,
            i_leak: 5e-12,
            sigma_vth: 0.028,
            sigma_beta: 0.04,
        }
    }

    /// Returns a copy adjusted to the given temperature in kelvin.
    ///
    /// Models the first-order effects: thermal voltage scales linearly and
    /// thresholds drop ~2 mV/K.
    ///
    /// # Panics
    ///
    /// Panics in debug builds for non-positive temperatures.
    pub fn at_temperature(mut self, kelvin: f64) -> Self {
        debug_assert!(kelvin > 0.0, "temperature must be positive kelvin");
        self.u_t = THERMAL_VOLTAGE_300K * kelvin / 300.0;
        let dvth = -0.002 * (kelvin - 300.0);
        self.vth_n = (self.vth_n + dvth).max(0.05);
        self.vth_p = (self.vth_p + dvth).max(0.05);
        self
    }
}

impl Default for TechParams {
    fn default() -> Self {
        Self::cmos_45nm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nodes_are_distinct() {
        let a = TechParams::cmos_45nm();
        let b = TechParams::cmos_16nm();
        assert_ne!(a.node, b.node);
        assert!(b.vdd < a.vdd);
    }

    #[test]
    fn temperature_scaling() {
        let hot = TechParams::cmos_45nm().at_temperature(400.0);
        let cold = TechParams::cmos_45nm().at_temperature(250.0);
        assert!(hot.u_t > cold.u_t);
        assert!(hot.vth_n < cold.vth_n);
    }

    #[test]
    fn default_is_45nm() {
        assert_eq!(TechParams::default().node, "45nm");
    }
}
