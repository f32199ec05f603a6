//! Chunked batch execution, optionally spread across threads.
//!
//! A batch is split into contiguous chunks and each chunk is processed by
//! a closure that receives the chunk's *start index* in the full buffer.
//! The splitting is *result-transparent*: every chunk writes a disjoint
//! region of the output buffer with the same per-element math, so chunked,
//! threaded and sequential execution produce bit-identical results.
//!
//! Two kinds of backend use this module:
//!
//! - **Pure backends** (digital GMM, math HMGM) compute each element from
//!   the query alone — [`for_each_chunk_policy`] spreads them across threads with
//!   no further ceremony.
//! - **Stateful backends** (the analog CIM engine, whose evaluations
//!   consume noise) are parallelized by making the hidden state
//!   *splittable*: the engine's noise comes from a counter-based stream
//!   (`navicim_device::noise::NoiseStream`), so a chunk starting at index
//!   `s` perturbs evaluation `s + k` with `stream.at(base + s + k)` —
//!   the same value a sequential pass would draw. Per-evaluation
//!   statistics are written into a second buffer via [`zip_chunks_policy`] and
//!   merged by the caller *in index order* afterwards, which keeps even
//!   floating-point accumulators (current sums) bit-identical across
//!   chunkings and thread counts.
//!
//! With the `parallel` feature disabled (the default), every entry point
//! degrades to a plain sequential loop over the same chunks. With it
//! enabled, chunks are dispatched over [`std::thread::scope`] workers when
//! the host has more than one core and the batch is large enough to
//! amortize thread startup. [`ChunkPolicy`] pins the chunk length and
//! worker count explicitly — benches use it to sweep thread counts and
//! the property tests use it to prove chunking invariance.

/// Minimum number of points per chunk before threading is worthwhile.
///
/// Retuned for the vectorized kernels (see `BENCH_kernels.json`): the
/// SIMD + LUT campaign cut per-point cost by roughly 2–5×
/// (a 1024-point CIM-engine batch now evaluates in the tens of
/// microseconds), so the old threshold of 256 points no longer amortizes
/// the ~10 µs cost of spawning scoped worker threads. 1024 points keeps
/// the slowest kernel's chunk comfortably above that break-even while
/// still splitting the particle-filter-scale batches threading exists
/// for. Benchmarks can override it per policy through
/// [`ChunkPolicy::min_chunk`].
///
/// To re-tune on a new host, run `cargo run --release -p navicim-bench
/// --features parallel --bin bench_kernels -- --threads`: its sweep pins
/// `(chunk_len, workers)` per batch size with the gate bypassed, and the
/// batch size where multi-worker rows first beat the single-worker row
/// is the new break-even.
pub const MIN_CHUNK: usize = 1024;

/// Number of worker threads the host can usefully run.
pub fn worker_count() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// How a batch is split into chunks and distributed over workers.
///
/// The default ([`ChunkPolicy::auto`]) picks one contiguous chunk per
/// worker and gates threading on [`MIN_CHUNK`], which is the right call
/// for production batches. Explicit values bypass the gate — they exist
/// so tests can prove bit-identical results for any `(chunk_len,
/// workers)` pair and benches can sweep thread counts on a fixed host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChunkPolicy {
    /// Chunk length (`None` = one contiguous chunk per worker).
    pub chunk_len: Option<usize>,
    /// Worker-thread cap (`None` = all available, gated by the threading
    /// threshold; ignored without the `parallel` feature).
    pub workers: Option<usize>,
    /// Threading threshold override (`None` = [`MIN_CHUNK`]): the minimum
    /// points per chunk before auto worker resolution adds threads.
    /// Benches sweep this to locate the threading break-even.
    pub min_chunk: Option<usize>,
}

impl ChunkPolicy {
    /// The production policy: one chunk per worker, threading only when
    /// the batch amortizes it.
    pub fn auto() -> Self {
        Self::default()
    }

    /// An explicit policy with a fixed chunk length and worker cap.
    pub fn exact(chunk_len: usize, workers: usize) -> Self {
        Self {
            chunk_len: Some(chunk_len),
            workers: Some(workers),
            min_chunk: None,
        }
    }

    /// Resolves the policy for a batch of `n` elements into a concrete
    /// `(chunk_len, workers)` pair (both at least 1). Without the
    /// `parallel` feature workers is always 1 — execution is sequential,
    /// so only the chunk length matters — and no thread-count syscall is
    /// made.
    fn resolve(self, n: usize) -> (usize, usize) {
        #[cfg(not(feature = "parallel"))]
        let workers = 1usize;
        #[cfg(feature = "parallel")]
        let workers = match self.workers {
            Some(w) => w.max(1),
            None => {
                let min_chunk = self.min_chunk.unwrap_or(MIN_CHUNK).max(1);
                worker_count().min(n.div_ceil(min_chunk)).max(1)
            }
        };
        let chunk_len = self.chunk_len.unwrap_or(n.div_ceil(workers)).max(1);
        (chunk_len, workers)
    }

    /// Whether this policy would execute a batch of `n` elements as one
    /// contiguous chunk on the calling thread. Stateful backends use this
    /// to route the common case through their reused scratch buffers
    /// instead of per-chunk ones.
    pub fn is_single_chunk(self, n: usize) -> bool {
        self.resolve(n).0 >= n
    }
}

/// Runs `work(start, out_chunk)` over contiguous chunks of `out` under
/// `policy`, where `start` is the index of the chunk's first element in
/// the full buffer.
///
/// The closure must compute elements purely from the chunk bounds (no
/// hidden sequential state) — that is what makes threaded and sequential
/// execution bit-identical.
pub fn for_each_chunk_policy<F>(policy: ChunkPolicy, out: &mut [f64], work: F)
where
    F: Fn(usize, &mut [f64]) + Sync,
{
    let n = out.len();
    let (chunk_len, workers) = policy.resolve(n);
    // Single-chunk fast path: no chunk-descriptor collection, no thread
    // dispatch — the whole cost of the call is the work itself (this is
    // the only path non-`parallel` builds with the auto policy take).
    if chunk_len >= n {
        work(0, out);
        return;
    }
    let chunks = out
        .chunks_mut(chunk_len)
        .enumerate()
        .map(|(i, c)| (i * chunk_len, c));
    run_chunks(workers, chunks.collect(), &|(start, chunk)| {
        work(start, chunk)
    });
}

/// Runs `work(start, a_chunk, b_chunk)` over matching contiguous chunks of
/// two equal-length buffers under `policy`.
///
/// This is the stateful-backend entry point: `a` receives the results and
/// `b` receives per-element merge data (e.g. the pre-noise array current
/// of each evaluation), which the caller folds into its counters in index
/// order after the call — giving chunking-independent statistics on top
/// of chunking-independent results.
///
/// # Panics
///
/// Panics if `a.len() != b.len()`.
pub fn zip_chunks_policy<F>(policy: ChunkPolicy, a: &mut [f64], b: &mut [f64], work: F)
where
    F: Fn(usize, &mut [f64], &mut [f64]) + Sync,
{
    assert_eq!(a.len(), b.len(), "zipped buffers must have equal length");
    let n = a.len();
    let (chunk_len, workers) = policy.resolve(n);
    if chunk_len >= n {
        work(0, a, b);
        return;
    }
    let chunks = a
        .chunks_mut(chunk_len)
        .zip(b.chunks_mut(chunk_len))
        .enumerate()
        .map(|(i, (ca, cb))| (i * chunk_len, ca, cb));
    run_chunks(workers, chunks.collect(), &|(start, ca, cb)| {
        work(start, ca, cb)
    });
}

/// Dispatches a list of prepared chunks over up to `workers` scoped
/// threads (contiguous runs of chunks per worker, so low-index chunks
/// stay on the first worker).
#[cfg(feature = "parallel")]
fn run_chunks<C: Send>(workers: usize, mut chunks: Vec<C>, work: &(dyn Fn(C) + Sync)) {
    if workers <= 1 || chunks.len() <= 1 {
        for c in chunks {
            work(c);
        }
        return;
    }
    let per_worker = chunks.len().div_ceil(workers.min(chunks.len()));
    std::thread::scope(|scope| {
        while !chunks.is_empty() {
            let take = per_worker.min(chunks.len());
            let group: Vec<C> = chunks.drain(..take).collect();
            scope.spawn(move || {
                for c in group {
                    work(c);
                }
            });
        }
    });
}

/// Sequential dispatch used when the `parallel` feature is disabled: the
/// same chunks, in index order, on the calling thread.
#[cfg(not(feature = "parallel"))]
fn run_chunks<C>(_workers: usize, chunks: Vec<C>, work: &(dyn Fn(C) + Sync)) {
    for c in chunks {
        work(c);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_every_element_exactly_once() {
        for n in [0usize, 1, 7, MIN_CHUNK, 4 * MIN_CHUNK + 3] {
            let mut out = vec![0.0; n];
            for_each_chunk_policy(ChunkPolicy::auto(), &mut out, |start, chunk| {
                for (i, v) in chunk.iter_mut().enumerate() {
                    *v += (start + i) as f64;
                }
            });
            for (i, v) in out.iter().enumerate() {
                assert_eq!(*v, i as f64, "element {i} of {n}");
            }
        }
    }

    #[test]
    fn explicit_policies_match_auto() {
        let n = 3 * MIN_CHUNK + 11;
        let fill = |policy: ChunkPolicy| {
            let mut out = vec![0.0; n];
            for_each_chunk_policy(policy, &mut out, |start, chunk| {
                for (i, v) in chunk.iter_mut().enumerate() {
                    *v = ((start + i) as f64).sin();
                }
            });
            out
        };
        let auto = fill(ChunkPolicy::auto());
        for chunk_len in [1usize, 7, 64, n] {
            for workers in [1usize, 2, 4] {
                assert_eq!(
                    fill(ChunkPolicy::exact(chunk_len, workers)),
                    auto,
                    "chunk_len {chunk_len}, workers {workers}"
                );
            }
        }
    }

    #[test]
    fn zip_chunks_fills_both_buffers() {
        for n in [0usize, 1, 13, MIN_CHUNK + 5] {
            for policy in [ChunkPolicy::auto(), ChunkPolicy::exact(3, 4)] {
                let mut a = vec![0.0; n];
                let mut b = vec![0.0; n];
                zip_chunks_policy(policy, &mut a, &mut b, |start, ca, cb| {
                    for (i, (va, vb)) in ca.iter_mut().zip(cb.iter_mut()).enumerate() {
                        *va = (start + i) as f64;
                        *vb = -((start + i) as f64);
                    }
                });
                for i in 0..n {
                    assert_eq!(a[i], i as f64, "{policy:?}");
                    assert_eq!(b[i], -(i as f64), "{policy:?}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn zip_chunks_rejects_length_mismatch() {
        let mut a = vec![0.0; 3];
        let mut b = vec![0.0; 4];
        zip_chunks_policy(ChunkPolicy::auto(), &mut a, &mut b, |_, _, _| {});
    }

    #[test]
    fn worker_count_positive() {
        assert!(worker_count() >= 1);
    }

    #[test]
    fn policy_resolution_is_sane() {
        // Explicit chunk lengths are honored (floored at 1); auto
        // derives a chunk per worker. Worker counts only bite with the
        // `parallel` feature — without it execution is sequential.
        assert_eq!(ChunkPolicy::exact(7, 2).resolve(100).0, 7);
        #[cfg(feature = "parallel")]
        assert_eq!(ChunkPolicy::exact(7, 2).resolve(100).1, 2);
        assert_eq!(ChunkPolicy::exact(0, 0).resolve(100), (1, 1));
        let (len, workers) = ChunkPolicy::auto().resolve(10);
        assert_eq!(workers, 1, "small batches stay sequential");
        assert_eq!(len, 10);
        assert!(ChunkPolicy::auto().is_single_chunk(10));
        assert!(!ChunkPolicy::exact(3, 1).is_single_chunk(10));
    }

    #[test]
    fn min_chunk_override_moves_threading_gate() {
        // Lowering the threshold lets auto resolution add workers for
        // batches the default gate keeps sequential (observable only
        // with the `parallel` feature on a multi-core host); resolution
        // floors a zero override instead of dividing by zero.
        let with_min_chunk = |min_chunk| ChunkPolicy {
            min_chunk: Some(min_chunk),
            ..ChunkPolicy::auto()
        };
        assert!(with_min_chunk(0).resolve(64).1 >= 1);
        let low = with_min_chunk(4);
        #[cfg(feature = "parallel")]
        assert_eq!(
            low.resolve(64).1,
            worker_count().min(16),
            "64 points / min_chunk 4 caps workers at 16"
        );
        #[cfg(not(feature = "parallel"))]
        assert_eq!(low.resolve(64).1, 1);
        // Results stay identical whatever the gate says.
        let mut a = vec![0.0; 64];
        for_each_chunk_policy(low, &mut a, |start, chunk| {
            for (i, v) in chunk.iter_mut().enumerate() {
                *v = (start + i) as f64;
            }
        });
        let mut b = vec![0.0; 64];
        for_each_chunk_policy(ChunkPolicy::auto(), &mut b, |start, chunk| {
            for (i, v) in chunk.iter_mut().enumerate() {
                *v = (start + i) as f64;
            }
        });
        assert_eq!(a, b);
    }
}
