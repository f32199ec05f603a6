//! The fleet: many localization sessions over shared map backends, with
//! optional cross-agent likelihood batching.
//!
//! # Round structure
//!
//! [`Fleet::step_round`] advances every session one frame in a
//! bulk-synchronous round:
//!
//! 1. **Phase A** (work-stealing parallel): each session runs
//!    [`LocalizationPipeline::begin_frame`] — gate, VO, motion
//!    prediction — and stages its frame-wide scan batch without
//!    evaluating it.
//! 2. **Coalesce** (coordinator): the staged batches are concatenated in
//!    session-index order into one mega-batch per backend slot. Each
//!    analog session contributes a [`NoiseSegment`] carrying its own
//!    counter-based noise stream, and its claim on that stream is
//!    audited for contiguity ([`StreamAudit`]). Each slot's mega-batch
//!    is evaluated once through a fleet-owned evaluator backend
//!    ([`MapBackend::serve_segments`], which also reports each segment's
//!    column activations), amortizing per-call overheads (and, with the
//!    `parallel` feature, crossing the chunking threshold small
//!    per-session batches never reach).
//! 3. **Phase B** (work-stealing parallel): each session commits its
//!    slice and activation count ([`MapBackend::absorb_served`]) and
//!    completes the frame ([`LocalizationPipeline::finish_frame`]).
//!
//! With coalescing off, each session runs its own
//! [`LocalizationPipeline::step`] instead — the same begin → evaluate →
//! finish path with its own backend evaluating — the
//! N-independent-pipelines baseline.
//!
//! # Determinism contract
//!
//! Per-session outputs are **bit-identical** across all of: coalescing
//! on/off, any worker count, and any task ordering. The chain: sessions
//! fork with per-session RNG/filter/VO/noise state
//! ([`LocalizationPipeline::fork_session`]); the analog noise value for
//! a point is a pure function of (stream seed, stream index) via
//! `NoiseStream::at`, so a session's slice of a mega-batch draws exactly
//! the values its solo evaluation would; digital evaluations are pure,
//! so any batch split is bit-identical by the `LikelihoodBackend`
//! contract; and [`MapBackend::absorb_served`] replays exactly the
//! bookkeeping a solo evaluation performs.

use crate::steal::run_tasks;
use navicim_analog::engine::NoiseSegment;
use navicim_backend::PointBatch;
use navicim_core::pipeline::{FrameReport, LocalizationPipeline, PendingFrame};
use navicim_core::registry::MapBackend;
use navicim_core::CoreError;
use navicim_device::noise::{StreamAudit, StreamAuditError};
use navicim_math::geom::Pose;
use navicim_math::rng::{Pcg32, Rng64};
use navicim_scene::camera::DepthImage;
use navicim_scene::dataset::LocalizationDataset;
use std::fmt;
use std::time::Instant;

/// A serving-layer failure.
#[derive(Debug)]
pub enum ServeError {
    /// A session's pipeline step failed.
    Core(CoreError),
    /// A session's noise-stream claim failed the contiguity audit — the
    /// bit-identity guarantee would be void, so the round aborts.
    Audit {
        /// Session whose claim failed.
        session: usize,
        /// Backend slot the claim was for.
        slot: usize,
        /// The audit failure.
        source: StreamAuditError,
    },
    /// The fleet configuration cannot be served (e.g. coalescing over a
    /// backend without serving support).
    Unsupported(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Core(e) => write!(f, "session step failed: {e}"),
            Self::Audit {
                session,
                slot,
                source,
            } => write!(
                f,
                "noise audit failed for session {session} slot {slot}: {source}"
            ),
            Self::Unsupported(msg) => write!(f, "unsupported fleet configuration: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Core(e) => Some(e),
            Self::Audit { source, .. } => Some(source),
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

/// The order sessions are fed to the work-stealing executor — outputs
/// are bit-identical for every variant (property-tested); the knob
/// exists to drive interleaving robustness tests and scheduling
/// experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TaskOrder {
    /// Session-index order.
    #[default]
    Forward,
    /// Reverse session-index order.
    Reverse,
    /// A deterministic Fisher–Yates shuffle of the given seed.
    Shuffled(u64),
}

impl TaskOrder {
    /// The session visitation order for `n` sessions.
    fn permutation(self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        match self {
            Self::Forward => {}
            Self::Reverse => order.reverse(),
            Self::Shuffled(seed) => {
                let mut rng = Pcg32::seed_from_u64(seed);
                for i in (1..n).rev() {
                    let j = (rng.next_u64() % (i as u64 + 1)) as usize;
                    order.swap(i, j);
                }
            }
        }
        order
    }
}

/// Fleet serving configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetConfig {
    /// Worker threads for the per-session phases (clamped to ≥ 1).
    pub workers: usize,
    /// Coalesce per-session likelihood batches into one evaluation per
    /// backend slot per round. Off = the N-independent-pipelines
    /// baseline (each session runs its own step).
    pub coalesce: bool,
    /// Order sessions are fed to the executor.
    pub order: TaskOrder,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            workers: 1,
            coalesce: true,
            order: TaskOrder::Forward,
        }
    }
}

/// One round's inputs: either a single `(control, depth, truth)` triple
/// broadcast to every session, or one triple per agent (fault-injection
/// sweeps, heterogeneous fleets). Internal — the round paths below are
/// written against `get(idx)` and never know which shape they serve.
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

/// Per-slot round scratch: the coalesced batch, its noise segments and
/// the evaluation outputs, reused across rounds so the steady state
/// allocates nothing.
#[derive(Debug)]
struct SlotScratch {
    batch: PointBatch,
    segments: Vec<NoiseSegment>,
    /// Session index behind each entry of `segments`, for routing the
    /// per-segment column-activation counts back to their owners.
    seg_sessions: Vec<usize>,
    /// Column activations per segment, from the counted serve.
    seg_acts: Vec<u64>,
    lls: Vec<f64>,
    currents: Vec<f64>,
}

impl Default for SlotScratch {
    fn default() -> Self {
        Self {
            batch: PointBatch::new(3),
            segments: Vec::new(),
            seg_sessions: Vec::new(),
            seg_acts: Vec::new(),
            lls: Vec::new(),
            currents: Vec::new(),
        }
    }
}

/// Hundreds-to-thousands of concurrent localization sessions over one
/// shared set of fitted map backends.
///
/// Built by forking a pristine prototype pipeline once per agent
/// (sharing the read-only fitted maps / CIM fabric) plus one fleet-owned
/// *evaluator* fork per backend slot, used only to execute coalesced
/// batches — its own state is never committed; sessions commit their own
/// slices.
pub struct Fleet {
    sessions: Vec<LocalizationPipeline>,
    evaluators: Vec<Box<dyn MapBackend>>,
    /// `[session][slot]` noise-stream auditors (`None` for digital
    /// slots, which consume no stream).
    audits: Vec<Vec<Option<StreamAudit>>>,
    slots: Vec<SlotScratch>,
    /// `(start, count)` of each session's slice within its slot batch,
    /// reused across rounds (clear-don't-drop).
    spans: Vec<(usize, usize)>,
    /// Per-session column activations of the last coalesced round.
    session_acts: Vec<u64>,
    config: FleetConfig,
    /// Per-agent latency of the last round, nanoseconds from round start
    /// to that agent's frame completion.
    last_latencies_ns: Vec<u64>,
    /// Cached session visitation order — a pure function of the
    /// immutable `config.order`, computed once instead of per round.
    order: Vec<usize>,
    /// Reused per-round pending-frame staging of the sequential
    /// coalesced path, indexed by session.
    pendings: Vec<Option<PendingFrame>>,
    /// Reused per-round result staging, indexed by session.
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
    /// `seed_base + i`, plus one evaluator fork per backend slot.
    ///
    /// # Errors
    ///
    /// Propagates fork failures; rejects `agents == 0` and, when
    /// coalescing is on, backends without coalesced-serving support.
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
        if config.coalesce {
            for slot in 0..prototype.num_backends() {
                if !prototype.backend(slot).supports_coalesced_serving() {
                    return Err(ServeError::Unsupported(format!(
                        "backend '{}' (slot {slot}) does not support coalesced serving",
                        prototype.backend_names()[slot]
                    )));
                }
            }
        }
        let mut sessions = Vec::with_capacity(agents);
        for i in 0..agents {
            sessions.push(prototype.fork_session(seed_base.wrapping_add(i as u64))?);
        }
        let mut evaluators = Vec::with_capacity(prototype.num_backends());
        for slot in 0..prototype.num_backends() {
            evaluators.push(prototype.backend(slot).fork_session().ok_or_else(|| {
                ServeError::Unsupported(format!(
                    "backend '{}' (slot {slot}) does not support session forking",
                    prototype.backend_names()[slot]
                ))
            })?);
        }
        let audits = sessions
            .iter()
            .map(|s| {
                (0..s.num_backends())
                    .map(|slot| {
                        s.backend(slot)
                            .noise_stream()
                            .map(|ns| StreamAudit::begin(&ns))
                    })
                    .collect()
            })
            .collect();
        let slots = (0..prototype.num_backends())
            .map(|_| SlotScratch::default())
            .collect();
        Ok(Self {
            sessions,
            evaluators,
            audits,
            slots,
            spans: Vec::with_capacity(agents),
            session_acts: vec![0; agents],
            config,
            last_latencies_ns: vec![0; agents],
            order: config.order.permutation(agents),
            pendings: Vec::with_capacity(agents),
            results: Vec::with_capacity(agents),
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

    /// Per-agent latency of the last round, in nanoseconds from round
    /// start to that agent's frame completion (in coalesced rounds every
    /// agent completes at the round barrier).
    pub fn last_latencies_ns(&self) -> &[u64] {
        &self.last_latencies_ns
    }

    /// Advances every session one frame on a shared `(control, depth,
    /// truth)` broadcast, returning the frame reports in session order.
    /// The returned slice borrows a fleet-owned buffer reused across
    /// rounds (clone what must outlive the next round).
    ///
    /// # Errors
    ///
    /// Propagates the first session failure and audit violations. The
    /// fleet should be discarded after an error — sessions may have
    /// diverged mid-round.
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
    /// (bit-identity across coalescing on/off, worker count, and task
    /// order) holds per agent exactly as for [`Fleet::step_round`].
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

    fn step_inputs(&mut self, inputs: &RoundInputs<'_>) -> Result<&[FrameReport]> {
        if self.config.coalesce {
            self.step_round_coalesced(inputs)
        } else {
            self.step_round_independent(inputs)
        }
    }

    /// The baseline: every session runs its own step — inline in
    /// permutation order with one worker (the allocation-free steady
    /// state), or scheduled over the worker pool.
    fn step_round_independent(&mut self, inputs: &RoundInputs<'_>) -> Result<&[FrameReport]> {
        let t0 = Instant::now();
        let n = self.sessions.len();
        if self.config.workers <= 1 {
            self.results.clear();
            self.results.resize_with(n, || None);
            for &idx in &self.order {
                let (control, depth, truth) = inputs.get(idx);
                let report = self.sessions[idx].step(control, depth, truth);
                self.last_latencies_ns[idx] = t0.elapsed().as_nanos() as u64;
                self.results[idx] = Some(report);
            }
            return self.collect_reports();
        }
        // Threaded round: sessions are staged out by value for the
        // work-stealing pool (allocates by design — so does thread
        // spawning). Outputs are bit-identical to the inline path.
        let order = &self.order;
        let mut tasks: Vec<Option<(usize, LocalizationPipeline)>> =
            std::mem::take(&mut self.sessions)
                .into_iter()
                .enumerate()
                .map(Some)
                .collect(); // lint: allow(hot-path-alloc) threaded staging collects sessions by value; threaded rounds allocate by design
        let tasks: Vec<(usize, LocalizationPipeline)> = order
            .iter()
            .map(|&i| {
                tasks[i]
                    .take()
                    .expect("permutation visited a session twice")
            })
            .collect(); // lint: allow(hot-path-alloc) threaded staging collects sessions by value; threaded rounds allocate by design
        let done = run_tasks(self.config.workers, tasks, |_, (idx, mut session)| {
            let (control, depth, truth) = inputs.get(idx);
            let report = session.step(control, depth, truth);
            (idx, session, report, t0.elapsed().as_nanos() as u64)
        });
        self.absorb_done(done);
        self.collect_reports()
    }

    /// Puts threaded-phase results back in session order: restores the
    /// session vector and stages each session's result and latency.
    fn absorb_done(
        &mut self,
        done: Vec<(
            usize,
            LocalizationPipeline,
            navicim_core::Result<FrameReport>,
            u64,
        )>,
    ) {
        let n = done.len();
        self.results.clear();
        self.results.resize_with(n, || None);
        let mut sessions: Vec<Option<LocalizationPipeline>> = (0..n).map(|_| None).collect(); // lint: allow(hot-path-alloc) threaded staging collects sessions by value; threaded rounds allocate by design
        for (idx, session, report, latency_ns) in done {
            sessions[idx] = Some(session);
            self.results[idx] = Some(report);
            self.last_latencies_ns[idx] = latency_ns;
        }
        self.sessions = sessions
            .into_iter()
            .map(|s| s.expect("round lost a session"))
            .collect(); // lint: allow(hot-path-alloc) threaded staging collects sessions by value; threaded rounds allocate by design
    }

    /// Drains the staged per-session results into the reused report
    /// buffer, surfacing the first per-session error (by session index,
    /// matching the former collect-based behavior).
    fn collect_reports(&mut self) -> Result<&[FrameReport]> {
        self.reports.clear();
        for r in self.results.iter_mut() {
            match r.take().expect("round lost a report") {
                Ok(report) => self.reports.push(report),
                Err(e) => return Err(ServeError::from(e)),
            }
        }
        Ok(&self.reports)
    }

    /// The coalesced fast path: begin / merge-evaluate / finish. With
    /// one worker both per-session phases run inline in permutation
    /// order through the reused staging buffers — the allocation-free
    /// steady state; threaded rounds stage sessions by value for the
    /// work-stealing pool. Outputs are bit-identical either way.
    fn step_round_coalesced(&mut self, inputs: &RoundInputs<'_>) -> Result<&[FrameReport]> {
        let t0 = Instant::now();
        let n = self.sessions.len();
        if self.config.workers <= 1 {
            // Phase A inline: gate + VO + motion prediction + staging.
            self.pendings.clear();
            self.pendings.resize_with(n, || None);
            let mut first_err: Option<ServeError> = None;
            for &idx in &self.order {
                let (control, depth, _) = inputs.get(idx);
                match self.sessions[idx].begin_frame(control, depth) {
                    Ok(p) => self.pendings[idx] = Some(p),
                    Err(e) => {
                        first_err.get_or_insert(ServeError::from(e));
                    }
                }
            }
            if let Some(e) = first_err {
                return Err(e);
            }
            self.coalesce_and_serve()?;
            // Phase B inline: commit slices and finish frames.
            self.results.clear();
            self.results.resize_with(n, || None);
            for &idx in &self.order {
                let pending = self.pendings[idx].take().expect("pending missing");
                let (_, _, truth) = inputs.get(idx);
                let (start, count) = self.spans[idx];
                let slot = pending.slot();
                let scratch = &self.slots[slot];
                let lls = &scratch.lls[start..start + count];
                let currents = &scratch.currents[start..start + count];
                let session = &mut self.sessions[idx];
                session
                    .backend_mut(slot)
                    .absorb_served(currents, self.session_acts[idx]);
                self.results[idx] = Some(session.finish_frame(pending, lls, truth));
            }
            // Coalesced rounds complete every agent's frame at the
            // barrier.
            let round_ns = t0.elapsed().as_nanos() as u64;
            self.last_latencies_ns.fill(round_ns);
            return self.collect_reports();
        }

        // Phase A (threaded): gate + VO + motion prediction + staging.
        let order = &self.order;
        let mut tasks: Vec<Option<(usize, LocalizationPipeline)>> =
            std::mem::take(&mut self.sessions)
                .into_iter()
                .enumerate()
                .map(Some)
                .collect(); // lint: allow(hot-path-alloc) threaded staging collects sessions by value; threaded rounds allocate by design
        let tasks: Vec<(usize, LocalizationPipeline)> = order
            .iter()
            .map(|&i| {
                tasks[i]
                    .take()
                    .expect("permutation visited a session twice")
            })
            .collect(); // lint: allow(hot-path-alloc) threaded staging collects sessions by value; threaded rounds allocate by design
        let begun = run_tasks(self.config.workers, tasks, |_, (idx, mut session)| {
            let (control, depth, _) = inputs.get(idx);
            let pending = session.begin_frame(control, depth);
            (idx, session, pending)
        });
        let mut sessions: Vec<Option<LocalizationPipeline>> = (0..n).map(|_| None).collect(); // lint: allow(hot-path-alloc) threaded staging collects sessions by value; threaded rounds allocate by design
        self.pendings.clear();
        self.pendings.resize_with(n, || None);
        let mut first_err: Option<ServeError> = None;
        for (idx, session, pending) in begun {
            sessions[idx] = Some(session);
            match pending {
                Ok(p) => self.pendings[idx] = Some(p),
                Err(e) => {
                    first_err.get_or_insert(ServeError::from(e));
                }
            }
        }
        self.sessions = sessions
            .into_iter()
            .map(|s| s.expect("round lost a session"))
            .collect(); // lint: allow(hot-path-alloc) threaded staging collects sessions by value; threaded rounds allocate by design
        if let Some(e) = first_err {
            return Err(e);
        }
        self.coalesce_and_serve()?;

        // Phase B (threaded): commit slices and finish frames, work-
        // stealing again. Tasks borrow their slices straight out of the
        // slot scratch — the executor's scope outlives the round, and
        // the scratch is read-only until every task has joined.
        let slots = &self.slots;
        type PhaseBTask<'a> = (
            usize,
            LocalizationPipeline,
            PendingFrame,
            &'a [f64],
            &'a [f64],
            u64,
        );
        let mut tasks: Vec<Option<PhaseBTask<'_>>> = Vec::with_capacity(n); // lint: allow(hot-path-alloc) threaded Phase B stages borrowed tasks; threaded rounds allocate by design
        for (idx, session) in self.sessions.drain(..).enumerate() {
            let pending = self.pendings[idx].take().expect("pending missing");
            let (start, count) = self.spans[idx];
            let scratch = &slots[pending.slot()];
            let lls = &scratch.lls[start..start + count];
            let currents = &scratch.currents[start..start + count];
            // lint: allow(hot-path-alloc) threaded Phase B stages borrowed tasks; threaded rounds allocate by design
            tasks.push(Some((
                idx,
                session,
                pending,
                lls,
                currents,
                self.session_acts[idx],
            )));
        }
        let tasks: Vec<PhaseBTask<'_>> = self
            .order
            .iter()
            .map(|&i| {
                tasks[i]
                    .take()
                    .expect("permutation visited a session twice")
            })
            .collect(); // lint: allow(hot-path-alloc) threaded staging collects sessions by value; threaded rounds allocate by design
        let done = run_tasks(
            self.config.workers,
            tasks,
            |_, (idx, mut session, pending, lls, currents, acts)| {
                let (_, _, truth) = inputs.get(idx);
                session
                    .backend_mut(pending.slot())
                    .absorb_served(currents, acts);
                let report = session.finish_frame(pending, lls, truth);
                (idx, session, report, 0u64)
            },
        );
        self.absorb_done(done);
        // Coalesced rounds complete every agent's frame at the barrier.
        let round_ns = t0.elapsed().as_nanos() as u64;
        self.last_latencies_ns.fill(round_ns);
        self.collect_reports()
    }

    /// Coalesces every session's staged batch into one mega-batch per
    /// slot — segments in session-index order so every session's slice
    /// draws its own noise indices — and serves each through the fleet
    /// evaluator, routing per-segment column-activation counts back to
    /// the sessions that staged them (so Phase B commits exactly the
    /// accounting a solo evaluation would have recorded).
    fn coalesce_and_serve(&mut self) -> Result<()> {
        for slot_scratch in &mut self.slots {
            slot_scratch.batch.clear();
            slot_scratch.segments.clear();
            slot_scratch.seg_sessions.clear();
        }
        self.spans.clear();
        self.session_acts.fill(0);
        for (idx, session) in self.sessions.iter().enumerate() {
            let slot = self.pendings[idx].as_ref().expect("pending missing").slot();
            let staged = session.staged_batch();
            let count = staged.len();
            let scratch = &mut self.slots[slot];
            let start = scratch.batch.len();
            // lint: allow(hot-path-alloc) amortized push into a buffer cleared each round; capacity is retained
            self.spans.push((start, count));
            if count == 0 {
                continue;
            }
            if let Some(stream) = session.backend(slot).noise_stream() {
                let audit = self.audits[idx][slot]
                    .as_mut()
                    .expect("analog slot lost its auditor");
                if let Err(source) = audit.claim(&stream, count as u64) {
                    return Err(ServeError::Audit {
                        session: idx,
                        slot,
                        source,
                    });
                }
                // lint: allow(hot-path-alloc) amortized push into a buffer cleared each round; capacity is retained
                scratch.segments.push(NoiseSegment { start, stream });
                // lint: allow(hot-path-alloc) amortized push into a buffer cleared each round; capacity is retained
                scratch.seg_sessions.push(idx);
            }
            scratch.batch.extend_from_batch(staged);
        }
        for (slot, scratch) in self.slots.iter_mut().enumerate() {
            let total = scratch.batch.len();
            if total == 0 {
                continue;
            }
            scratch.lls.resize(total, 0.0);
            scratch.currents.resize(total, 0.0);
            scratch.seg_acts.clear();
            scratch.seg_acts.resize(scratch.segments.len(), 0);
            self.evaluators[slot].serve_segments(
                &scratch.batch,
                &scratch.segments,
                &mut scratch.lls,
                &mut scratch.currents,
                &mut scratch.seg_acts,
            );
            for (&sidx, &acts) in scratch.seg_sessions.iter().zip(&scratch.seg_acts) {
                self.session_acts[sidx] = acts;
            }
        }
        Ok(())
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

#[cfg(test)]
mod tests {
    use super::*;
    use navicim_core::localization::LocalizerConfig;
    use navicim_core::pipeline::{GateConfig, GateKind, LocalizationPipeline, ANALOG_SLOT};
    use navicim_core::registry::{CIM_HMGM, DIGITAL_GMM};
    use navicim_scene::dataset::{LocalizationConfig, LocalizationDataset};

    /// Clear-don't-drop across rounds: after one full pass over the
    /// dataset has sized every buffer to the fleet's working set, further
    /// rounds must not grow any round-scratch allocation — the coalesced
    /// steady state is allocation-free.
    #[test]
    fn coalesced_round_scratch_reaches_allocation_steady_state() {
        let ds = LocalizationDataset::generate(
            &LocalizationConfig {
                image_width: 24,
                image_height: 18,
                map_points: 500,
                frames: 6,
                ..LocalizationConfig::default()
            },
            11,
        )
        .expect("dataset generates");
        let config = LocalizerConfig {
            num_particles: 100,
            pixel_stride: 7,
            components: 8,
            // Pinned to the analog slot so every round routes the same
            // mega-batch through the counted CIM serve path.
            gate: GateConfig {
                backends: vec![DIGITAL_GMM.into(), CIM_HMGM.into()],
                policy: GateKind::Always(ANALOG_SLOT),
            },
            seed: 5,
            ..LocalizerConfig::default()
        };
        let prototype = LocalizationPipeline::build(&ds, config).expect("prototype builds");
        let mut fleet = Fleet::new(
            &prototype,
            3,
            900,
            FleetConfig {
                workers: 2,
                coalesce: true,
                order: TaskOrder::Forward,
            },
        )
        .expect("fleet builds");
        let footprint = |f: &Fleet| {
            let mut v = vec![f.spans.capacity(), f.session_acts.capacity()];
            for s in &f.slots {
                v.extend([
                    s.batch.capacity(),
                    s.segments.capacity(),
                    s.seg_sessions.capacity(),
                    s.seg_acts.capacity(),
                    s.lls.capacity(),
                    s.currents.capacity(),
                ]);
            }
            v
        };
        // Warm-up pass: every frame's working set is seen once.
        let controls = ds.control_deltas();
        for (t, control) in controls.iter().enumerate() {
            fleet
                .step_round(control, &ds.frames[t + 1].depth, ds.frames[t + 1].pose)
                .expect("warm-up round");
        }
        let warm = footprint(&fleet);
        assert!(
            warm.iter().sum::<usize>() > 0,
            "warm-up should have sized the scratch"
        );
        // Second pass over the same observations: same per-round working
        // sets, so every capacity must hold exactly.
        for (t, control) in controls.iter().enumerate() {
            fleet
                .step_round(control, &ds.frames[t + 1].depth, ds.frames[t + 1].pose)
                .expect("steady-state round");
            assert_eq!(
                footprint(&fleet),
                warm,
                "round {t} of the second pass grew the round scratch"
            );
        }
    }
}
