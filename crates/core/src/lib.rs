//! The navicim co-design pipelines — the paper's two headline systems.
//!
//! - [`localization`] — Section II: the configuration and scan
//!   measurement model of Monte-Carlo localization of a drone in a
//!   procedural RGB-D scene, with the map-likelihood backend switchable
//!   between the conventional digital GMM and the co-designed HMGM
//!   inverter-array CIM engine (Fig. 2(e–h)).
//! - [`vo`] — Section III: MC-Dropout Bayesian visual odometry executed on
//!   the SRAM CIM macro, with dropout bits from the modeled CCI RNG,
//!   compute reuse and sample ordering, and uncertainty-vs-error
//!   diagnostics (Fig. 3(c–f)) plus TOPS/W accounting.
//! - [`pipeline`] — the localizer itself, [`pipeline::LocalizationPipeline`]:
//!   one or more live backends from the registry, a per-frame
//!   [`pipeline::UncertaintySignals`] bus (spread, ESS fraction,
//!   likelihood innovation, VO predictive variance) feeding a
//!   [`pipeline::GatePolicy`] that arbitrates digital↔analog, an
//!   optional [`pipeline::VoStage`] whose MC-Dropout depth adapts to
//!   predictive variance ([`vo::AdaptiveMcPolicy`] — the second gated
//!   compute axis), and [`pipeline::FrameReport`] joint map+VO energy
//!   accounting (Fig. 2(i)). Single-backend and gated runs alike return
//!   one [`pipeline::PipelineRun`].
//! - [`registry`] — the pluggable map-backend registry: named
//!   `Box<dyn MapBackend>` factories (digital GMM, digital HMGM and the
//!   analog CIM engine by default) through which [`pipeline`] selects
//!   its backends, and through which downstream crates register custom
//!   backends without touching this crate.
//! - [`uncertainty`] — calibration utilities shared by both pipelines.
//! - [`reportfmt`] — markdown table helpers used by the experiment
//!   binaries in `navicim-bench`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod localization;
pub mod pipeline;
pub mod registry;
pub mod reportfmt;
pub mod uncertainty;
pub mod vo;

use std::error::Error;
use std::fmt;

/// Error type aggregating the pipeline dependencies.
#[derive(Debug)]
pub enum CoreError {
    /// Scene/dataset generation failed.
    Scene(navicim_scene::SceneError),
    /// Mixture-model fitting failed.
    Gmm(navicim_gmm::GmmError),
    /// Analog-engine compilation failed.
    Analog(navicim_analog::AnalogError),
    /// Particle-filter update failed.
    Filter(navicim_filter::FilterError),
    /// Network construction/training failed.
    Nn(navicim_nn::NnError),
    /// SRAM-macro operation failed.
    Sram(navicim_sram::SramError),
    /// Energy-model construction failed.
    Energy(navicim_energy::EnergyError),
    /// An argument was outside its valid domain.
    InvalidArgument(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Scene(e) => write!(f, "scene error: {e}"),
            CoreError::Gmm(e) => write!(f, "mixture error: {e}"),
            CoreError::Analog(e) => write!(f, "analog error: {e}"),
            CoreError::Filter(e) => write!(f, "filter error: {e}"),
            CoreError::Nn(e) => write!(f, "network error: {e}"),
            CoreError::Sram(e) => write!(f, "sram error: {e}"),
            CoreError::Energy(e) => write!(f, "energy error: {e}"),
            CoreError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Scene(e) => Some(e),
            CoreError::Gmm(e) => Some(e),
            CoreError::Analog(e) => Some(e),
            CoreError::Filter(e) => Some(e),
            CoreError::Nn(e) => Some(e),
            CoreError::Sram(e) => Some(e),
            CoreError::Energy(e) => Some(e),
            CoreError::InvalidArgument(_) => None,
        }
    }
}

macro_rules! from_err {
    ($variant:ident, $ty:ty) => {
        #[doc(hidden)]
        impl From<$ty> for CoreError {
            fn from(e: $ty) -> Self {
                CoreError::$variant(e)
            }
        }
    };
}

from_err!(Scene, navicim_scene::SceneError);
from_err!(Gmm, navicim_gmm::GmmError);
from_err!(Analog, navicim_analog::AnalogError);
from_err!(Filter, navicim_filter::FilterError);
from_err!(Nn, navicim_nn::NnError);
from_err!(Sram, navicim_sram::SramError);
from_err!(Energy, navicim_energy::EnergyError);

/// Crate-local result alias.
pub type Result<T> = std::result::Result<T, CoreError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_conversion_and_source() {
        use std::error::Error as _;
        let e: CoreError = navicim_gmm::GmmError::InconsistentDimensions.into();
        assert!(e.to_string().contains("mixture"));
        assert!(e.source().is_some());
    }
}
