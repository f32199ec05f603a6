//! # navicim-serve — fleet-scale localization serving
//!
//! Runs hundreds-to-thousands of concurrent
//! [`LocalizationPipeline`](navicim_core::pipeline::LocalizationPipeline)
//! sessions over one shared pool of fitted map backends:
//! the [`Fleet`] forks one session per agent off a prototype (shared
//! read-only maps / CIM fabric behind `Arc`) and advances them in
//! bulk-synchronous frame rounds, each session through its own `step`,
//! spread over scoped worker threads in contiguous chunks.
//!
//! The headline property, enforced by the serve-level tests: every
//! session's outputs are **bit-identical** to running that session
//! alone, for any worker count — sessions share no mutable state, and
//! analog evaluation noise is a pure function of (stream seed, stream
//! index) on each session's own stream.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod fleet;

pub use fleet::{Fleet, FleetConfig, ServeError};
