//! # navicim — Uncertainty-Aware Compute-in-Memory Autonomy for Edge Robotics
//!
//! Umbrella crate re-exporting the full navicim workspace, a reproduction of
//! *"Navigating the Unknown: Uncertainty-Aware Compute-in-Memory Autonomy of
//! Edge Robotics"* (Darabi et al., DATE 2024).
//!
//! The workspace implements, from scratch:
//!
//! - an analog compute-in-memory (CIM) substrate built from floating-gate
//!   6-T inverters whose Gaussian-like switching current evaluates
//!   Harmonic-Mean-of-Gaussian kernels ([`analog`], [`device`]),
//! - Monte-Carlo (particle-filter) localization with map models co-designed
//!   for that substrate ([`filter`], [`gmm`], [`core`]),
//! - an SRAM CIM macro with an embedded stochastic dropout-bit generator and
//!   compute-reuse MC-Dropout Bayesian inference ([`sram`], [`nn`]),
//! - a procedural RGB-D scene simulator standing in for the paper's Kinect
//!   datasets ([`scene`]),
//! - parametric energy models reproducing the paper's efficiency claims
//!   ([`energy`]),
//! - a batched likelihood backend layer ([`backend`]) through which every
//!   map/sensor backend serves whole particle sets per frame instead of
//!   scalar queries — the scaling substrate for the stack.
//!
//! # Quickstart
//!
//! See `examples/quickstart.rs` for an end-to-end tour; the two headline
//! pipelines are [`core::pipeline::LocalizationPipeline`] and
//! [`core::vo::BayesianVo`].

pub use navicim_analog as analog;
pub use navicim_backend as backend;
pub use navicim_core as core;
pub use navicim_device as device;
pub use navicim_energy as energy;
pub use navicim_filter as filter;
pub use navicim_gmm as gmm;
pub use navicim_math as math;
pub use navicim_nn as nn;
pub use navicim_scenario as scenario;
pub use navicim_scene as scene;
pub use navicim_serve as serve;
pub use navicim_sram as sram;
