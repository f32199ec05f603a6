//! Input digital-to-analog converter model.
//!
//! Query coordinates reach the inverter gates through per-axis DACs. The
//! model captures the two effects that matter for the co-design study:
//! finite resolution (uniform code quantization across the output span)
//! and static nonlinearity (INL), modeled as a smooth bowed error profile.

use crate::{AnalogError, Result};

/// A voltage-output DAC.
///
/// ```
/// use navicim_analog::dac::Dac;
/// let dac = Dac::new(8, 0.0, 1.0).unwrap();
/// let v = dac.convert(0.5);
/// assert!((v - 0.5).abs() <= dac.lsb());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dac {
    bits: u32,
    v_lo: f64,
    v_hi: f64,
    /// Peak integral nonlinearity in LSBs.
    inl_lsb: f64,
}

impl Dac {
    /// Creates an ideal DAC with the given resolution and output span.
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::InvalidArgument`] unless `1 <= bits <= 16`
    /// and `v_lo < v_hi`.
    pub fn new(bits: u32, v_lo: f64, v_hi: f64) -> Result<Self> {
        if !(1..=16).contains(&bits) {
            return Err(AnalogError::InvalidArgument(format!(
                "dac bits must be in [1, 16], got {bits}"
            )));
        }
        if !(v_lo < v_hi) {
            return Err(AnalogError::InvalidArgument(format!(
                "dac span requires v_lo < v_hi, got [{v_lo}, {v_hi}]"
            )));
        }
        Ok(Self {
            bits,
            v_lo,
            v_hi,
            inl_lsb: 0.0,
        })
    }

    /// Returns a copy with the given peak INL (in LSBs).
    // lint: allow(unused-pub) no caller outside its unit tests; removal deferred to a follow-up sweep
    pub fn with_inl(mut self, inl_lsb: f64) -> Self {
        self.inl_lsb = inl_lsb;
        self
    }

    /// Resolution in bits.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Output step size in volts.
    pub fn lsb(&self) -> f64 {
        (self.v_hi - self.v_lo) / (self.levels() - 1) as f64
    }

    /// Number of output levels (`2^bits`).
    pub fn levels(&self) -> u64 {
        1u64 << self.bits
    }

    /// Output span `(v_lo, v_hi)` in volts (before the INL bow).
    pub fn range(&self) -> (f64, f64) {
        (self.v_lo, self.v_hi)
    }

    /// Code corresponding to a target voltage (clamped to the span).
    pub fn code_for(&self, v_target: f64) -> u64 {
        let v = v_target.clamp(self.v_lo, self.v_hi);
        let frac = (v - self.v_lo) / (self.v_hi - self.v_lo);
        ((frac * (self.levels() - 1) as f64).round() as u64).min(self.levels() - 1)
    }

    /// Output voltage for a code, including the INL bow.
    ///
    /// # Panics
    ///
    /// Panics if `code` exceeds the DAC's code range.
    pub fn output(&self, code: u64) -> f64 {
        assert!(code < self.levels(), "code out of range");
        let frac = code as f64 / (self.levels() - 1) as f64;
        let ideal = self.v_lo + frac * (self.v_hi - self.v_lo);
        // Parabolic INL bow peaking mid-scale.
        let inl = self.inl_lsb * self.lsb() * 4.0 * frac * (1.0 - frac);
        ideal + inl
    }

    /// One-step conversion: target voltage → quantized output voltage.
    pub fn convert(&self, v_target: f64) -> f64 {
        self.output(self.code_for(v_target))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation() {
        assert!(Dac::new(0, 0.0, 1.0).is_err());
        assert!(Dac::new(17, 0.0, 1.0).is_err());
        assert!(Dac::new(8, 1.0, 1.0).is_err());
    }

    #[test]
    fn endpoints_exact_for_ideal_dac() {
        let dac = Dac::new(6, 0.2, 0.9).unwrap();
        assert!((dac.convert(0.2) - 0.2).abs() < 1e-12);
        assert!((dac.convert(0.9) - 0.9).abs() < 1e-12);
        // Out-of-span targets clamp.
        assert!((dac.convert(-1.0) - 0.2).abs() < 1e-12);
        assert!((dac.convert(2.0) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn quantization_error_bounded_by_half_lsb() {
        let dac = Dac::new(8, 0.0, 1.0).unwrap();
        for i in 0..1000 {
            let v = i as f64 / 999.0;
            assert!((dac.convert(v) - v).abs() <= dac.lsb() * 0.5 + 1e-12);
        }
    }

    #[test]
    fn more_bits_smaller_lsb() {
        let d4 = Dac::new(4, 0.0, 1.0).unwrap();
        let d8 = Dac::new(8, 0.0, 1.0).unwrap();
        assert!(d8.lsb() < d4.lsb());
        assert!((d4.lsb() / d8.lsb() - 17.0).abs() < 1.0); // (2^8-1)/(2^4-1) = 17
    }

    #[test]
    fn inl_bows_midscale_only() {
        let dac = Dac::new(8, 0.0, 1.0).unwrap().with_inl(2.0);
        // Endpoints unaffected.
        assert_eq!(dac.output(0), 0.0);
        assert_eq!(dac.output(dac.levels() - 1), 1.0);
        // Mid-scale shifted by ~2 LSB.
        let mid = dac.levels() / 2;
        let ideal = mid as f64 / (dac.levels() - 1) as f64;
        assert!((dac.output(mid) - ideal) > 1.5 * dac.lsb());
    }

    #[test]
    fn codes_are_monotone() {
        let dac = Dac::new(5, 0.0, 1.0).unwrap().with_inl(0.5);
        let mut prev = f64::NEG_INFINITY;
        for code in 0..dac.levels() {
            let v = dac.output(code);
            assert!(v > prev);
            prev = v;
        }
    }
}
