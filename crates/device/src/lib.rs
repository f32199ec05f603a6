//! Analog device models for the navicim compute-in-memory substrate.
//!
//! The paper's Section II builds its likelihood engine out of six-transistor
//! CMOS inverters whose *switching current* traces a Gaussian-like bell as a
//! function of the input voltage (Fig. 2(b)), with the peak position made
//! programmable through floating-gate threshold-voltage shifts (modelled
//! here as the programmed centre voltage). This crate models that stack
//! from first principles:
//!
//! - [`mosfet`] — a continuous EKV-style MOSFET current model valid from
//!   subthreshold through saturation,
//! - [`inverter`] — the Gaussian-like cell (NMOS/PMOS series conduction) and
//!   the multi-input inverter whose current composes as the harmonic mean of
//!   its per-input cells, exactly the paper's
//!   `1/(1/I_1 + 1/I_2 + 1/I_3)` expression,
//! - [`variation`] — process-variation sampling (threshold and
//!   transconductance mismatch),
//! - [`noise`] — thermal/shot current-noise models used by both the analog
//!   likelihood engine and the SRAM-embedded RNG.
//!
//! # Example
//!
//! ```
//! use navicim_device::inverter::GaussianLikeCell;
//! use navicim_device::params::TechParams;
//!
//! let tech = TechParams::cmos_45nm();
//! let cell = GaussianLikeCell::with_center(&tech, 0.5);
//! // The switching current peaks at the programmed center voltage.
//! let peak = cell.current(0.5);
//! assert!(peak > cell.current(0.2));
//! assert!(peak > cell.current(0.8));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod inverter;
pub mod mosfet;
pub mod noise;
pub mod params;
pub mod variation;

use std::error::Error;
use std::fmt;

/// Error type for device-model construction and programming.
#[derive(Debug, Clone, PartialEq)]
pub enum DeviceError {
    /// A voltage was outside the supply rails or another valid interval.
    VoltageOutOfRange {
        /// The offending value.
        value: f64,
        /// Lower bound of the valid interval.
        low: f64,
        /// Upper bound of the valid interval.
        high: f64,
    },
    /// A model parameter was non-physical (negative width, zero slope, …).
    InvalidParameter(String),
}

impl fmt::Display for DeviceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceError::VoltageOutOfRange { value, low, high } => {
                write!(f, "voltage {value} outside valid range [{low}, {high}]")
            }
            DeviceError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
        }
    }
}

impl Error for DeviceError {}

/// Crate-local result alias.
pub type Result<T> = std::result::Result<T, DeviceError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = DeviceError::VoltageOutOfRange {
            value: 1.5,
            low: 0.0,
            high: 1.0,
        };
        assert!(e.to_string().contains("1.5"));
        let e = DeviceError::InvalidParameter("width".into());
        assert!(e.to_string().contains("width"));
    }
}
