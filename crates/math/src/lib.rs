//! Numerical foundation for the navicim workspace.
//!
//! This crate provides the dependency-free mathematical substrate used by
//! every other navicim crate:
//!
//! - [`linalg`] — dense matrices with LU solves (used by the device
//!   and readout curve fits),
//! - [`geom`] — 3-D geometry: [`geom::Vec3`], [`geom::Quat`], rigid
//!   poses and rays (used by the scene simulator and
//!   the localization pipelines),
//! - [`stats`] — descriptive statistics, correlation and Gaussian densities,
//! - [`rng`] — small deterministic PRNGs ([`rng::SplitMix64`],
//!   [`rng::Pcg32`]) and a sampling extension trait (normal, multinomial,
//!   systematic resampling indices, …),
//! - [`quant`] — fixed-point quantization used to model low-precision CIM
//!   datapaths,
//! - [`metrics`] — trajectory/error metrics (RMSE, ATE, …),
//! - [`randtest`] — a lightweight randomness test battery for the
//!   SRAM-embedded RNG of the paper's Section III,
//! - [`simd`] — branch-free `exp`, `ln` and `cos` that keep the
//!   likelihood hot paths' tile loops vectorizable (stable Rust, no
//!   intrinsics).
//!
//! # Example
//!
//! ```
//! use navicim_math::rng::{Pcg32, SampleExt};
//! use navicim_math::stats;
//!
//! let mut rng = Pcg32::seed_from_u64(7);
//! let xs: Vec<f64> = (0..1000).map(|_| rng.sample_normal(0.0, 2.0)).collect();
//! let sd = stats::std_dev(&xs);
//! assert!((sd - 2.0).abs() < 0.25);
//! ```

#![warn(missing_docs)]
// The crate is `unsafe`-free except for the opt-in counting allocator
// behind the `alloc-audit` feature, whose `GlobalAlloc` impl is the one
// place the language forces `unsafe` on us. `forbid` (unoverridable)
// stays the default; the feature downgrades it to `deny` so the audit
// module alone may opt out, with `// SAFETY:` comments on every block.
#![cfg_attr(not(feature = "alloc-audit"), forbid(unsafe_code))]
#![cfg_attr(feature = "alloc-audit", deny(unsafe_code))]

#[cfg(feature = "alloc-audit")]
pub mod alloc_audit;
pub mod geom;
pub mod linalg;
pub mod metrics;
pub mod quant;
pub mod randtest;
pub mod rng;
pub mod sample;
pub mod simd;
pub mod stats;

use std::error::Error;
use std::fmt;

/// Error type for fallible numerical routines in this crate.
#[derive(Debug, Clone, PartialEq)]
pub enum MathError {
    /// Operand dimensions are incompatible for the requested operation.
    DimensionMismatch {
        /// Human-readable description of what was expected.
        expected: String,
        /// Human-readable description of what was found.
        found: String,
    },
    /// A matrix required to be invertible was (numerically) singular.
    Singular,
    /// A matrix required to be positive definite was not.
    NotPositiveDefinite,
    /// An argument was outside its valid domain.
    InvalidArgument(String),
    /// An iterative routine failed to converge within its iteration budget.
    NoConvergence {
        /// Number of iterations performed before giving up.
        iterations: usize,
    },
}

impl fmt::Display for MathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MathError::DimensionMismatch { expected, found } => {
                write!(f, "dimension mismatch: expected {expected}, found {found}")
            }
            MathError::Singular => write!(f, "matrix is singular"),
            MathError::NotPositiveDefinite => write!(f, "matrix is not positive definite"),
            MathError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
            MathError::NoConvergence { iterations } => {
                write!(f, "no convergence after {iterations} iterations")
            }
        }
    }
}

impl Error for MathError {}

/// Crate-local result alias.
pub type Result<T> = std::result::Result<T, MathError>;

/// Returns `true` when `a` and `b` are within `tol` of each other.
///
/// Uses a combined absolute/relative criterion so it behaves sensibly for
/// both tiny and large magnitudes.
///
/// ```
/// assert!(navicim_math::approx_eq(1.0, 1.0 + 1e-12, 1e-9));
/// assert!(!navicim_math::approx_eq(1.0, 1.1, 1e-9));
/// ```
pub fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
    let diff = (a - b).abs();
    diff <= tol || diff <= tol * a.abs().max(b.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_absolute_and_relative() {
        assert!(approx_eq(0.0, 0.0, 1e-12));
        assert!(approx_eq(1e9, 1e9 + 1.0, 1e-8));
        assert!(!approx_eq(1.0, 2.0, 1e-3));
    }

    #[test]
    fn math_error_display_is_lowercase_and_meaningful() {
        let e = MathError::Singular;
        assert_eq!(e.to_string(), "matrix is singular");
        let e = MathError::DimensionMismatch {
            expected: "3x3".into(),
            found: "2x3".into(),
        };
        assert!(e.to_string().contains("expected 3x3"));
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MathError>();
    }
}
