//! Output analog-to-digital converter models.
//!
//! The paper converts the summed column current to the digital domain with
//! a *logarithmic* ADC, so that the produced code is directly proportional
//! to the log-likelihood needed by the particle filter — one more workload
//! reduction from co-design.

use crate::{AnalogError, Result};

/// Logarithmic current-input ADC: codes are uniform in `ln(I)` between
/// `i_min` and `i_max`.
///
/// ```
/// use navicim_analog::adc::LogAdc;
/// let adc = LogAdc::new(8, 1e-12, 1e-4).unwrap();
/// let code = adc.code_for(1e-8);
/// let back = adc.log_current(code);
/// assert!((back - (1e-8f64).ln()).abs() < 0.1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogAdc {
    bits: u32,
    ln_min: f64,
    ln_max: f64,
}

impl LogAdc {
    /// Creates a log-ADC covering currents `[i_min, i_max]`.
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::InvalidArgument`] unless `1 <= bits <= 16`
    /// and `0 < i_min < i_max`.
    pub fn new(bits: u32, i_min: f64, i_max: f64) -> Result<Self> {
        if !(1..=16).contains(&bits) {
            return Err(AnalogError::InvalidArgument(format!(
                "adc bits must be in [1, 16], got {bits}"
            )));
        }
        if !(i_min > 0.0 && i_min < i_max && i_max.is_finite()) {
            return Err(AnalogError::InvalidArgument(format!(
                "adc range requires 0 < i_min < i_max, got [{i_min}, {i_max}]"
            )));
        }
        Ok(Self {
            bits,
            ln_min: i_min.ln(),
            ln_max: i_max.ln(),
        })
    }

    /// Resolution in bits.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Number of codes (`2^bits`).
    pub fn levels(&self) -> u64 {
        1u64 << self.bits
    }

    /// The covered log-current interval `(ln i_min, ln i_max)`.
    pub fn ln_range(&self) -> (f64, f64) {
        (self.ln_min, self.ln_max)
    }

    /// Log-domain step per code.
    pub fn log_lsb(&self) -> f64 {
        (self.ln_max - self.ln_min) / (self.levels() - 1) as f64
    }

    /// Code for a current (clamped into range): the code nearest
    /// [`Self::code_coord`] of `ln(current)`.
    pub fn code_for(&self, current: f64) -> u64 {
        let coord = self.code_coord(current.max(1e-300).ln());
        (coord.round() as u64).min(self.levels() - 1)
    }

    /// Fractional code coordinate `ŷ = (clamp(ln I) − ln_min)/(ln_max −
    /// ln_min)·(2^bits − 1)` of a log current `ln_i`; [`Self::code_for`]
    /// returns the code nearest it.
    pub fn code_coord(&self, ln_i: f64) -> f64 {
        let ln_i = ln_i.clamp(self.ln_min, self.ln_max);
        let frac = (ln_i - self.ln_min) / (self.ln_max - self.ln_min);
        frac * (self.levels() - 1) as f64
    }

    /// Reconstructed `ln(I)` for a code.
    ///
    /// # Panics
    ///
    /// Panics if `code` exceeds the code range.
    pub fn log_current(&self, code: u64) -> f64 {
        assert!(code < self.levels(), "code out of range");
        self.ln_min + code as f64 * self.log_lsb()
    }

    /// One-step conversion: current → reconstructed `ln(I)`.
    pub fn convert(&self, current: f64) -> f64 {
        self.log_current(self.code_for(current))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_adc_validation() {
        assert!(LogAdc::new(0, 1e-12, 1e-4).is_err());
        assert!(LogAdc::new(8, 0.0, 1e-4).is_err());
        assert!(LogAdc::new(8, 1e-4, 1e-12).is_err());
    }

    #[test]
    fn log_adc_roundtrip_error_bounded() {
        let adc = LogAdc::new(8, 1e-12, 1e-4).unwrap();
        for k in 0..100 {
            let i = 1e-12 * 10f64.powf(k as f64 * 8.0 / 100.0);
            let err = (adc.convert(i) - i.ln()).abs();
            assert!(err <= adc.log_lsb() * 0.5 + 1e-12, "err {err} at {i}");
        }
    }

    #[test]
    fn log_adc_clamps() {
        let adc = LogAdc::new(6, 1e-10, 1e-5).unwrap();
        assert_eq!(adc.code_for(1e-20), 0);
        assert_eq!(adc.code_for(1.0), adc.levels() - 1);
    }

    #[test]
    fn log_adc_resolution_improves_with_bits() {
        let a4 = LogAdc::new(4, 1e-12, 1e-4).unwrap();
        let a8 = LogAdc::new(8, 1e-12, 1e-4).unwrap();
        assert!(a8.log_lsb() < a4.log_lsb());
    }

    #[test]
    fn log_adc_codes_monotone_in_current() {
        let adc = LogAdc::new(6, 1e-12, 1e-4).unwrap();
        let mut prev = 0;
        for k in 0..50 {
            let i = 1e-12 * 10f64.powf(k as f64 * 8.0 / 50.0);
            let code = adc.code_for(i);
            assert!(code >= prev);
            prev = code;
        }
    }
}
