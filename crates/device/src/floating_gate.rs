//! Non-volatile floating-gate threshold programming.
//!
//! The paper programs each inverter's switching threshold by adjusting the
//! charge density on a floating gate (charge-trap transistor mechanism,
//! ref. \[17\] of the paper). This module models the practical limitations of
//! that write path: a bounded programming window, finite write resolution
//! (program/verify quantization), write noise, and slow retention drift
//! back toward the neutral state.

use crate::{DeviceError, Result};
use navicim_math::rng::{Rng64, SampleExt};

/// Configuration of a floating-gate programming path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FloatingGateConfig {
    /// Maximum threshold shift magnitude achievable, in volts.
    pub max_shift: f64,
    /// Number of program/verify levels across the `[-max_shift, max_shift]`
    /// window (write quantization).
    pub levels: u32,
    /// Standard deviation of residual write noise in volts.
    pub write_noise: f64,
    /// Fractional charge loss per year of retention (drift toward zero
    /// shift).
    pub drift_per_year: f64,
}

impl Default for FloatingGateConfig {
    fn default() -> Self {
        Self {
            max_shift: 0.4,
            levels: 256,
            write_noise: 1e-3,
            drift_per_year: 0.01,
        }
    }
}

/// One programmable floating gate holding a threshold-voltage shift.
///
/// ```
/// use navicim_device::floating_gate::{FloatingGate, FloatingGateConfig};
/// use navicim_math::rng::Pcg32;
///
/// let mut fg = FloatingGate::new(FloatingGateConfig::default());
/// let mut rng = Pcg32::seed_from_u64(1);
/// fg.program(0.2, &mut rng).unwrap();
/// assert!((fg.shift() - 0.2).abs() < 0.01);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FloatingGate {
    config: FloatingGateConfig,
    shift: f64,
}

impl FloatingGate {
    /// Creates an erased (zero-shift) floating gate.
    pub fn new(config: FloatingGateConfig) -> Self {
        Self { config, shift: 0.0 }
    }

    /// Currently stored threshold shift in volts.
    pub fn shift(&self) -> f64 {
        self.shift
    }

    /// Programming configuration.
    pub fn config(&self) -> &FloatingGateConfig {
        &self.config
    }

    /// Programs a target threshold shift through the quantized, noisy write
    /// path. The achieved shift is returned.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::VoltageOutOfRange`] when the target lies
    /// outside the programming window.
    pub fn program<R: Rng64 + ?Sized>(&mut self, target: f64, rng: &mut R) -> Result<f64> {
        let w = self.config.max_shift;
        if !(-w..=w).contains(&target) {
            return Err(DeviceError::VoltageOutOfRange {
                value: target,
                low: -w,
                high: w,
            });
        }
        let step = 2.0 * w / (self.config.levels.max(2) - 1) as f64;
        let quantized = (target / step).round() * step;
        self.shift = (quantized + rng.sample_normal(0.0, self.config.write_noise)).clamp(-w, w);
        Ok(self.shift)
    }

    /// Erases the gate back to zero shift.
    pub fn erase(&mut self) {
        self.shift = 0.0;
    }

    /// Applies retention drift for the given number of years: the stored
    /// charge decays exponentially toward zero.
    ///
    /// # Panics
    ///
    /// Panics in debug builds for negative durations.
    pub fn age(&mut self, years: f64) {
        debug_assert!(years >= 0.0, "age requires a non-negative duration");
        let keep = (1.0 - self.config.drift_per_year).max(0.0).powf(years);
        self.shift *= keep;
    }

    /// Worst-case programming error: half a quantization step plus 3σ of
    /// write noise.
    pub fn worst_case_error(&self) -> f64 {
        let step = 2.0 * self.config.max_shift / (self.config.levels.max(2) - 1) as f64;
        0.5 * step + 3.0 * self.config.write_noise
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use navicim_math::rng::Pcg32;

    #[test]
    fn program_hits_target_within_tolerance() {
        let mut fg = FloatingGate::new(FloatingGateConfig::default());
        let mut rng = Pcg32::seed_from_u64(1);
        for &target in &[-0.35, -0.1, 0.0, 0.05, 0.39] {
            fg.program(target, &mut rng).unwrap();
            assert!(
                (fg.shift() - target).abs() <= fg.worst_case_error(),
                "target {target} got {}",
                fg.shift()
            );
        }
    }

    #[test]
    fn out_of_window_rejected() {
        let mut fg = FloatingGate::new(FloatingGateConfig::default());
        let mut rng = Pcg32::seed_from_u64(2);
        assert!(matches!(
            fg.program(0.9, &mut rng),
            Err(DeviceError::VoltageOutOfRange { .. })
        ));
        // Failed write leaves state untouched.
        assert_eq!(fg.shift(), 0.0);
    }

    #[test]
    fn quantization_limits_resolution() {
        let config = FloatingGateConfig {
            levels: 8,
            write_noise: 0.0,
            ..FloatingGateConfig::default()
        };
        let mut fg = FloatingGate::new(config);
        let mut rng = Pcg32::seed_from_u64(3);
        fg.program(0.111, &mut rng).unwrap();
        // With 8 levels over [-0.4, 0.4], step is ~0.114.
        let step = 0.8 / 7.0;
        let on_grid = (fg.shift() / step).round() * step;
        assert!((fg.shift() - on_grid).abs() < 1e-12);
    }

    #[test]
    fn erase_and_age() {
        let mut fg = FloatingGate::new(FloatingGateConfig::default());
        let mut rng = Pcg32::seed_from_u64(4);
        fg.program(0.3, &mut rng).unwrap();
        let before = fg.shift();
        fg.age(10.0);
        assert!(fg.shift().abs() < before.abs());
        assert!(fg.shift() * before >= 0.0, "drift keeps sign");
        fg.erase();
        assert_eq!(fg.shift(), 0.0);
    }

    #[test]
    fn aging_zero_years_is_identity() {
        let mut fg = FloatingGate::new(FloatingGateConfig::default());
        let mut rng = Pcg32::seed_from_u64(5);
        fg.program(0.2, &mut rng).unwrap();
        let s = fg.shift();
        fg.age(0.0);
        assert_eq!(fg.shift(), s);
    }
}
