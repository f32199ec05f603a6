//! A from-scratch neural-network library for Bayesian visual odometry
//! (paper Section III).
//!
//! The paper accelerates *MC-Dropout* — the variational-inference
//! approximation of Gal & Ghahramani — on an SRAM CIM macro. This crate
//! provides everything up to the hardware boundary:
//!
//! - [`mlp`] — multilayer perceptrons from [`dense::Dense`],
//!   [`activation::Activation`] and [`dropout::Dropout`] layers, with
//!   manual backpropagation,
//! - [`loss`] / [`optim`] / [`train`] — MSE/Huber losses, Adam,
//!   and a shuffling epoch trainer,
//! - [`mc`] — MC-Dropout inference: repeated stochastic forward passes
//!   yielding predictive mean *and* variance,
//! - [`quant`] — the quantized inference path: weights/activations
//!   quantized to 4/6/8 bits, all matrix-vector products delegated to a
//!   pluggable [`quant::QuantBackend`] so that the SRAM CIM model (crate
//!   `navicim-sram`) can execute them with bitline/ADC effects and
//!   compute reuse.
//!
//! # Example
//!
//! ```
//! use navicim_nn::mlp::Mlp;
//! use navicim_nn::Mode;
//! use navicim_math::rng::Pcg32;
//!
//! let mut rng = Pcg32::seed_from_u64(1);
//! let mut net = Mlp::builder(2)
//!     .dense(8)
//!     .relu()
//!     .dropout(0.5)
//!     .dense(1)
//!     .build(&mut rng)
//!     .unwrap();
//! let y = net.forward(&[0.5, -0.5], Mode::Deterministic, &mut rng);
//! assert_eq!(y.len(), 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod activation;
pub mod dense;
pub mod dropout;
pub mod loss;
pub mod mc;
pub mod mlp;
pub mod optim;
pub mod quant;
pub mod train;

use std::error::Error;
use std::fmt;

/// Forward-pass mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Training: dropout active, caches kept for backprop.
    Train,
    /// Deterministic inference: dropout layers are identity.
    Deterministic,
    /// One MC-Dropout sample: dropout active, no caches needed.
    McSample,
}

impl Mode {
    /// Whether dropout layers sample masks in this mode.
    pub fn dropout_active(self) -> bool {
        matches!(self, Mode::Train | Mode::McSample)
    }
}

/// Error type for network construction and training.
#[derive(Debug, Clone, PartialEq)]
pub enum NnError {
    /// An argument was outside its valid domain.
    InvalidArgument(String),
    /// Layer shapes are incompatible.
    ShapeMismatch {
        /// Expected input dimension.
        expected: usize,
        /// Provided dimension.
        found: usize,
    },
    /// The network has no layers or no trainable parameters.
    EmptyNetwork,
}

impl fmt::Display for NnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NnError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
            NnError::ShapeMismatch { expected, found } => {
                write!(
                    f,
                    "shape mismatch: expected dimension {expected}, found {found}"
                )
            }
            NnError::EmptyNetwork => write!(f, "network has no layers"),
        }
    }
}

impl Error for NnError {}

/// Crate-local result alias.
pub type Result<T> = std::result::Result<T, NnError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_dropout_activity() {
        assert!(Mode::Train.dropout_active());
        assert!(Mode::McSample.dropout_active());
        assert!(!Mode::Deterministic.dropout_active());
    }

    #[test]
    fn error_display() {
        let e = NnError::ShapeMismatch {
            expected: 4,
            found: 3,
        };
        assert!(e.to_string().contains('4'));
    }
}
