//! # navicim-serve — fleet-scale localization serving
//!
//! Runs hundreds-to-thousands of concurrent
//! [`LocalizationPipeline`](navicim_core::pipeline::LocalizationPipeline)
//! sessions over one shared pool of fitted map backends:
//!
//! - [`fleet`] — the [`Fleet`]: per-agent sessions forked
//!   off one prototype (shared read-only maps / CIM fabric behind `Arc`),
//!   bulk-synchronous frame rounds, and the cross-agent batcher that
//!   coalesces every session's per-frame likelihood evaluation into a
//!   single large `PointBatch` call per backend slot,
//! - [`steal`] — the in-repo work-stealing executor (std threads, no
//!   external dependencies, no unsafe) that schedules the per-session
//!   phases of each round.
//!
//! The headline property, enforced by audit
//! (`navicim_device::noise::StreamAudit`) and property tests: every
//! session's outputs are **bit-identical** to running that session alone,
//! for any worker count, any task interleaving, coalescing on or off —
//! because analog evaluation noise is a pure function of (stream seed,
//! stream index) and digital evaluation is deterministic, batching
//! across agents changes *where* likelihoods are computed, never their
//! values.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod fleet;
pub mod steal;

pub use fleet::{Fleet, FleetConfig, ServeError, TaskOrder};
