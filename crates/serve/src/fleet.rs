//! The fleet: many localization sessions over shared map backends.
//!
//! # Round structure
//!
//! [`Fleet::step_round`] advances every session one frame in a
//! bulk-synchronous round: each session runs its own
//! [`LocalizationPipeline::step`] (gate, VO, motion prediction, scan
//! staging, its own backend's batch evaluation, reweight/resample,
//! pricing) and writes its result into a preallocated per-agent slot.
//! With one worker the round is an inline loop in session order — the
//! allocation-free steady state. With more, the sessions are split into
//! `⌈agents / workers⌉`-sized contiguous chunks, each stepped in order on
//! its own scoped thread.
//!
//! # Determinism contract
//!
//! Per-session outputs are **bit-identical** to running that session
//! alone, for any worker count. Sessions fork with per-session
//! RNG/filter/VO/noise state ([`LocalizationPipeline::fork_session`])
//! and share only read-only fitted maps, so a session's step never reads
//! another session's state; which thread steps it is unobservable.

use navicim_core::pipeline::{FrameReport, LocalizationPipeline};
use navicim_core::CoreError;
use navicim_math::geom::Pose;
use navicim_scene::camera::DepthImage;
use navicim_scene::dataset::LocalizationDataset;
use std::fmt;
use std::time::Instant;

/// A serving-layer failure.
#[derive(Debug)]
pub enum ServeError {
    /// A session's pipeline step failed.
    Core(CoreError),
    /// The fleet configuration or round input cannot be served (e.g. no
    /// agents, or per-agent inputs of the wrong length).
    Unsupported(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Core(e) => write!(f, "session step failed: {e}"),
            Self::Unsupported(msg) => write!(f, "unsupported fleet configuration: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Core(e) => Some(e),
            Self::Unsupported(_) => None,
        }
    }
}

impl From<CoreError> for ServeError {
    fn from(e: CoreError) -> Self {
        Self::Core(e)
    }
}

/// Serving-layer result.
pub type Result<T> = std::result::Result<T, ServeError>;

/// Fleet serving configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetConfig {
    /// Worker threads per round, clamped to `1..=agents`; `1` steps the
    /// sessions inline on the caller's thread.
    pub workers: usize,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self { workers: 1 }
    }
}

/// One round's inputs: either a single `(control, depth, truth)` triple
/// broadcast to every session, or one triple per agent (fault-injection
/// sweeps, heterogeneous fleets). Internal — the round is written
/// against `get(idx)` and never knows which shape it serves.
enum RoundInputs<'a> {
    Shared {
        control: &'a Pose,
        depth: &'a DepthImage,
        truth: Pose,
    },
    PerAgent {
        controls: &'a [Pose],
        depths: &'a [DepthImage],
        truths: &'a [Pose],
    },
}

impl RoundInputs<'_> {
    fn get(&self, idx: usize) -> (&Pose, &DepthImage, Pose) {
        match self {
            Self::Shared {
                control,
                depth,
                truth,
            } => (control, depth, *truth),
            Self::PerAgent {
                controls,
                depths,
                truths,
            } => (&controls[idx], &depths[idx], truths[idx]),
        }
    }
}

/// Hundreds-to-thousands of concurrent localization sessions over one
/// shared set of fitted map backends.
///
/// Built by forking a pristine prototype pipeline once per agent; the
/// forks share the read-only fitted maps / CIM fabric.
pub struct Fleet {
    sessions: Vec<LocalizationPipeline>,
    config: FleetConfig,
    /// Per-agent service time of the last round, nanoseconds spent in
    /// that agent's own `step`.
    last_service_ns: Vec<u64>,
    /// Per-agent result slots, one per session, rewritten every round.
    results: Vec<Option<navicim_core::Result<FrameReport>>>,
    /// Reused session-order report buffer the round entry points hand
    /// out.
    reports: Vec<FrameReport>,
}

impl fmt::Debug for Fleet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Fleet")
            .field("agents", &self.sessions.len())
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl Fleet {
    /// Forks `agents` sessions off `prototype` (which must be pristine —
    /// see [`LocalizationPipeline::fork_session`]) with seeds
    /// `seed_base + i`.
    ///
    /// # Errors
    ///
    /// Propagates fork failures (including backends that cannot fork)
    /// and rejects `agents == 0`.
    pub fn new(
        prototype: &LocalizationPipeline,
        agents: usize,
        seed_base: u64,
        config: FleetConfig,
    ) -> Result<Self> {
        if agents == 0 {
            return Err(ServeError::Unsupported(
                "fleet requires at least one agent".into(),
            ));
        }
        let sessions = (0..agents)
            .map(|i| prototype.fork_session(seed_base.wrapping_add(i as u64)))
            .collect::<navicim_core::Result<Vec<_>>>()?;
        Ok(Self {
            sessions,
            config,
            last_service_ns: vec![0; agents],
            results: (0..agents).map(|_| None).collect(),
            reports: Vec::with_capacity(agents),
        })
    }

    /// Number of agents.
    pub fn num_agents(&self) -> usize {
        self.sessions.len()
    }

    /// The serving configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// The session serving agent `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn session(&self, i: usize) -> &LocalizationPipeline {
        &self.sessions[i]
    }

    /// Per-agent service time of the last round: the nanoseconds agent
    /// `i`'s own `step` took, measured on the thread that ran it.
    pub fn last_service_ns(&self) -> &[u64] {
        &self.last_service_ns
    }

    /// Advances every session one frame on a shared `(control, depth,
    /// truth)` broadcast, returning the frame reports in session order.
    /// The returned slice borrows a fleet-owned buffer reused across
    /// rounds (clone what must outlive the next round).
    ///
    /// # Errors
    ///
    /// Every session steps; the first failure by session index is
    /// returned. The fleet should be discarded after an error — the
    /// failed session's state is whatever its `step` left.
    pub fn step_round(
        &mut self,
        control: &Pose,
        depth: &DepthImage,
        truth: Pose,
    ) -> Result<&[FrameReport]> {
        self.step_inputs(&RoundInputs::Shared {
            control,
            depth,
            truth,
        })
    }

    /// Advances every session one frame on **per-agent** `(control,
    /// depth, truth)` triples — agent `i` consumes `controls[i]`,
    /// `depths[i]`, `truths[i]`. This is the fault-injection entry
    /// point: a scenario sweep feeds faulted inputs to a subset of
    /// agents while the rest fly clean, and the determinism contract
    /// (bit-identity to solo runs for any worker count) holds per agent
    /// exactly as for [`Fleet::step_round`].
    ///
    /// # Errors
    ///
    /// Rejects input slices whose length differs from the agent count;
    /// otherwise as [`Fleet::step_round`].
    pub fn step_round_each(
        &mut self,
        controls: &[Pose],
        depths: &[DepthImage],
        truths: &[Pose],
    ) -> Result<&[FrameReport]> {
        let n = self.sessions.len();
        if controls.len() != n || depths.len() != n || truths.len() != n {
            return Err(ServeError::Unsupported(format!(
                "per-agent round needs {n} controls/depths/truths, got {}/{}/{}",
                controls.len(),
                depths.len(),
                truths.len()
            )));
        }
        self.step_inputs(&RoundInputs::PerAgent {
            controls,
            depths,
            truths,
        })
    }

    /// One round: every session steps once, in contiguous chunks of
    /// `⌈agents / workers⌉` sessions — inline for one worker, one scoped
    /// thread per chunk otherwise.
    fn step_inputs(&mut self, inputs: &RoundInputs<'_>) -> Result<&[FrameReport]> {
        let n = self.sessions.len();
        let workers = self.config.workers.clamp(1, n);
        if workers == 1 {
            step_chunk(
                inputs,
                0,
                &mut self.sessions,
                &mut self.results,
                &mut self.last_service_ns,
            );
        } else {
            let chunk = n.div_ceil(workers);
            let chunks = self
                .sessions
                .chunks_mut(chunk)
                .zip(self.results.chunks_mut(chunk))
                .zip(self.last_service_ns.chunks_mut(chunk));
            std::thread::scope(|s| {
                for (c, ((sessions, results), service_ns)) in chunks.enumerate() {
                    s.spawn(move || step_chunk(inputs, c * chunk, sessions, results, service_ns));
                }
            });
        }
        self.reports.clear();
        for result in self.results.iter_mut().filter_map(Option::take) {
            // lint: allow(hot-path-alloc) push into the report buffer cleared each round; capacity is retained
            self.reports.push(result?);
        }
        Ok(&self.reports)
    }

    /// Streams the whole dataset, broadcasting each frame to every
    /// session. Returns per-session frame reports,
    /// `reports[session][frame]`.
    ///
    /// # Errors
    ///
    /// Propagates round failures.
    pub fn run(&mut self, dataset: &LocalizationDataset) -> Result<Vec<Vec<FrameReport>>> {
        let controls = dataset.control_deltas();
        let mut per_session: Vec<Vec<FrameReport>> =
            (0..self.sessions.len()).map(|_| Vec::new()).collect();
        for (t, control) in controls.iter().enumerate() {
            let truth = dataset.frames[t + 1].pose;
            let reports = self.step_round(control, &dataset.frames[t + 1].depth, truth)?;
            for (s, report) in reports.iter().enumerate() {
                per_session[s].push(report.clone());
            }
        }
        Ok(per_session)
    }
}

/// Steps the sessions of agents `first..first + sessions.len()` in
/// order, writing each one's result and the time its own `step` took
/// into that agent's slots.
fn step_chunk(
    inputs: &RoundInputs<'_>,
    first: usize,
    sessions: &mut [LocalizationPipeline],
    results: &mut [Option<navicim_core::Result<FrameReport>>],
    service_ns: &mut [u64],
) {
    for (i, ((session, result), ns)) in sessions.iter_mut().zip(results).zip(service_ns).enumerate()
    {
        let (control, depth, truth) = inputs.get(first + i);
        let t0 = Instant::now();
        *result = Some(session.step(control, depth, truth));
        *ns = t0.elapsed().as_nanos() as u64;
    }
}
