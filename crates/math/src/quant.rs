//! Fixed-point quantization used to model low-precision CIM datapaths.
//!
//! The paper evaluates its CIM macros at 4-, 6- and 8-bit precision. This
//! module provides a symmetric uniform [`Quantizer`] (signed two's-complement
//! codes).

use crate::{MathError, Result};

/// Symmetric uniform quantizer mapping `f64` values to signed integer codes
/// of a configurable bit-width.
///
/// Codes span `[-(2^(bits-1) - 1), 2^(bits-1) - 1]`; the most negative code
/// is unused so the grid is symmetric around zero (standard practice for
/// weight quantization).
///
/// ```
/// use navicim_math::quant::Quantizer;
/// let q = Quantizer::new(4, 1.0).unwrap();
/// assert_eq!(q.max_code(), 7);
/// assert_eq!(q.quantize_all(&[1.0, -1.0, 0.0]), [7, -7, 0]);
/// assert_eq!(q.fake_quantize(2.0), 1.0); // saturates
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantizer {
    bits: u32,
    scale: f64,
    max_code: i64,
}

impl Quantizer {
    /// Creates a quantizer with the given bit-width covering `[-range, range]`.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::InvalidArgument`] unless `2 <= bits <= 31` and
    /// `range > 0`.
    pub fn new(bits: u32, range: f64) -> Result<Self> {
        if !(2..=31).contains(&bits) {
            return Err(MathError::InvalidArgument(format!(
                "quantizer bits must be in [2, 31], got {bits}"
            )));
        }
        if !(range > 0.0 && range.is_finite()) {
            return Err(MathError::InvalidArgument(format!(
                "quantizer range must be positive and finite, got {range}"
            )));
        }
        let max_code = (1i64 << (bits - 1)) - 1;
        Ok(Self {
            bits,
            scale: range / max_code as f64,
            max_code,
        })
    }

    /// Creates a quantizer whose range covers the maximum absolute value of
    /// `data` (falling back to 1.0 for all-zero data).
    ///
    /// # Errors
    ///
    /// Returns [`MathError::InvalidArgument`] for an unsupported bit-width.
    pub fn fit(bits: u32, data: &[f64]) -> Result<Self> {
        let max_abs = data.iter().fold(0.0f64, |m, x| m.max(x.abs()));
        Self::new(bits, if max_abs > 0.0 { max_abs } else { 1.0 })
    }

    /// Bit-width of the codes.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Quantization step size (LSB) in input units.
    pub fn step(&self) -> f64 {
        self.scale
    }

    /// Largest representable code magnitude.
    pub fn max_code(&self) -> i64 {
        self.max_code
    }

    /// Quantizes one value to its integer code (round-to-nearest, saturate).
    fn quantize(&self, x: f64) -> i64 {
        let code = (x / self.scale).round() as i64;
        code.clamp(-self.max_code, self.max_code)
    }

    /// Reconstructs the real value of a code.
    fn dequantize(&self, code: i64) -> f64 {
        code as f64 * self.scale
    }

    /// Quantize-dequantize round trip ("fake quantization").
    pub fn fake_quantize(&self, x: f64) -> f64 {
        self.dequantize(self.quantize(x))
    }

    /// Quantizes a slice into codes.
    pub fn quantize_all(&self, xs: &[f64]) -> Vec<i64> {
        xs.iter().map(|&x| self.quantize(x)).collect()
    }

    /// Quantizes a slice into a reused code buffer (allocation-free once
    /// the buffer has warmed up to the layer width).
    pub fn quantize_all_into(&self, xs: &[f64], codes: &mut Vec<i64>) {
        codes.clear();
        codes.extend(xs.iter().map(|&x| self.quantize(x)));
    }

    /// Worst-case quantization error (half a step, before saturation).
    pub fn max_round_error(&self) -> f64 {
        self.scale * 0.5
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{Pcg32, SampleExt};

    #[test]
    fn quantizer_rejects_bad_args() {
        assert!(Quantizer::new(1, 1.0).is_err());
        assert!(Quantizer::new(32, 1.0).is_err());
        assert!(Quantizer::new(8, 0.0).is_err());
        assert!(Quantizer::new(8, f64::NAN).is_err());
    }

    #[test]
    fn four_bit_codes() {
        let q = Quantizer::new(4, 1.0).unwrap();
        assert_eq!(q.max_code(), 7);
        assert_eq!(q.quantize(1.0), 7);
        assert_eq!(q.quantize(-1.0), -7);
        assert_eq!(q.quantize(2.0), 7); // saturation
        assert_eq!(q.quantize(0.07), 0); // below half step (step = 1/7)
        assert_eq!(q.quantize(0.08), 1);
    }

    #[test]
    fn dequantize_roundtrip_on_grid() {
        let q = Quantizer::new(6, 2.0).unwrap();
        for code in -q.max_code()..=q.max_code() {
            let x = q.dequantize(code);
            assert_eq!(q.quantize(x), code);
        }
    }

    #[test]
    fn fit_covers_data() {
        let data = [0.5, -3.0, 1.0];
        let q = Quantizer::fit(8, &data).unwrap();
        assert_eq!(q.quantize(-3.0), -q.max_code());
        // In-range values stay unsaturated.
        assert!(q.quantize(1.0).abs() < q.max_code());
    }

    #[test]
    fn fit_all_zero_data() {
        let q = Quantizer::fit(8, &[0.0, 0.0]).unwrap();
        assert_eq!(q.quantize(0.0), 0);
    }

    #[test]
    fn error_bounded_by_half_step() {
        let q = Quantizer::new(5, 1.5).unwrap();
        let mut rng = Pcg32::seed_from_u64(1);
        for _ in 0..1000 {
            let x = rng.sample_uniform(-1.5, 1.5);
            assert!((x - q.fake_quantize(x)).abs() <= q.max_round_error() + 1e-12);
        }
    }

    #[test]
    fn sqnr_improves_with_bits() {
        let mut rng = Pcg32::seed_from_u64(2);
        let data: Vec<f64> = (0..2000).map(|_| rng.sample_uniform(-1.0, 1.0)).collect();
        let q4 = Quantizer::new(4, 1.0).unwrap();
        let q8 = Quantizer::new(8, 1.0).unwrap();
        let sqnr_db = |q: &Quantizer| {
            let signal: f64 = data.iter().map(|x| x * x).sum();
            let noise: f64 = data.iter().map(|&x| (x - q.fake_quantize(x)).powi(2)).sum();
            10.0 * (signal / noise).log10()
        };
        let (s4, s8) = (sqnr_db(&q4), sqnr_db(&q8));
        // ~6 dB per bit: expect roughly 24 dB improvement.
        assert!(s8 - s4 > 18.0, "s4={s4}, s8={s8}");
    }

    #[test]
    fn mse_decreases_with_bits() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64 / 50.0) - 1.0).collect();
        let q4 = Quantizer::new(4, 1.0).unwrap();
        let q6 = Quantizer::new(6, 1.0).unwrap();
        let mse = |q: &Quantizer| {
            data.iter()
                .map(|&x| (x - q.fake_quantize(x)).powi(2))
                .sum::<f64>()
                / data.len() as f64
        };
        assert!(mse(&q6) < mse(&q4));
    }
}
