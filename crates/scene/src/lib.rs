//! Procedural RGB-D scene simulator.
//!
//! The paper evaluates both of its frameworks on the RGB-D Scenes Dataset
//! v2 (Kinect scans of tabletop scenes). Since that data is not
//! redistributable here, this crate provides the substitution documented in
//! `DESIGN.md`: procedurally generated tabletop/room scenes rendered
//! through the same pinhole depth-camera model a Kinect uses, with exact
//! ground-truth poses.
//!
//! - [`primitives`] — analytic shapes with ray intersection and surface
//!   sampling,
//! - [`scene`] — the scene container and procedural generators,
//! - [`camera`] — pinhole intrinsics, ray-cast depth rendering,
//!   back-projection,
//! - [`noise`] — Kinect-style depth noise and pixel dropout,
//! - [`trajectory`] — smooth camera trajectories (orbit, waypoint),
//! - [`dataset`] — bundled localization and visual-odometry datasets.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod camera;
pub mod dataset;
pub mod noise;
pub mod primitives;
pub mod scene;
pub mod trajectory;

use std::error::Error;
use std::fmt;

/// Error type for scene construction and rendering.
#[derive(Debug, Clone, PartialEq)]
pub enum SceneError {
    /// An argument was outside its valid domain.
    InvalidArgument(String),
    /// A generator produced an empty result (e.g. no visible surface).
    Empty(String),
}

impl fmt::Display for SceneError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SceneError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
            SceneError::Empty(msg) => write!(f, "empty result: {msg}"),
        }
    }
}

impl Error for SceneError {}

/// Crate-local result alias.
pub type Result<T> = std::result::Result<T, SceneError>;
