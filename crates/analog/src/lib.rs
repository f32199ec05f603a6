//! Analog compute-in-memory likelihood engine (paper Section II).
//!
//! This crate compiles a Harmonic-Mean-of-Gaussian mixture map
//! ([`navicim_gmm::hmg::HmgmModel`]) onto an array of floating-gate
//! multi-input inverters and evaluates map likelihoods in the analog
//! domain:
//!
//! 1. a query point is mapped to gate voltages ([`mapping`]) and quantized
//!    by the input DACs ([`dac`]),
//! 2. every programmed column conducts its kernel current simultaneously;
//!    the per-column currents sum on a shared line by Kirchhoff's current
//!    law ([`mod@array`]),
//! 3. the summed current — proportional to the mixture likelihood — is
//!    digitized by a logarithmic ADC ([`adc`]), yielding the log-likelihood
//!    directly,
//! 4. [`engine::HmgmCimEngine`] wires the steps together and keeps the
//!    operation counts needed by the energy model.
//!
//! [`diagnostics`] provides the Gaussian-fit and contour-shape analyses
//! behind the paper's Fig. 2(b–d).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod adc;
pub mod array;
pub mod dac;
pub mod diagnostics;
pub mod engine;
pub mod mapping;

use std::error::Error;
use std::fmt;

/// Error type for analog-CIM construction and programming.
#[derive(Debug, Clone, PartialEq)]
pub enum AnalogError {
    /// An argument was outside its valid domain.
    InvalidArgument(String),
    /// A kernel could not be realized on the device (e.g. sigma outside the
    /// programmable window after mapping).
    Unrealizable(String),
    /// Propagated device-model error.
    Device(navicim_device::DeviceError),
}

impl fmt::Display for AnalogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalogError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
            AnalogError::Unrealizable(msg) => write!(f, "kernel not realizable: {msg}"),
            AnalogError::Device(e) => write!(f, "device error: {e}"),
        }
    }
}

impl Error for AnalogError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            AnalogError::Device(e) => Some(e),
            _ => None,
        }
    }
}

#[doc(hidden)]
impl From<navicim_device::DeviceError> for AnalogError {
    fn from(e: navicim_device::DeviceError) -> Self {
        AnalogError::Device(e)
    }
}

/// Crate-local result alias.
pub type Result<T> = std::result::Result<T, AnalogError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_and_source() {
        use std::error::Error as _;
        let e = AnalogError::Unrealizable("sigma too small".into());
        assert!(e.to_string().contains("sigma too small"));
        let d: AnalogError = navicim_device::DeviceError::InvalidParameter("x".into()).into();
        assert!(d.source().is_some());
    }
}
