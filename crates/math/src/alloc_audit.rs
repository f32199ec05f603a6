//! Counting global allocator: the runtime half of the workspace's
//! zero-alloc contract.
//!
//! The hot paths of this workspace — `LocalizationPipeline::step`,
//! `Fleet::step_round`, and the three batch likelihood kernels — claim an
//! allocation-free steady state: after a warm-up pass has sized every
//! reusable buffer, further frames must not touch the heap. The static
//! side of that contract is checked by `navicim-lint` (rule
//! `hot-path-alloc`); this module is the *runtime* side: a counting
//! wrapper around the system allocator that lets a test assert, to the
//! exact event, that a region of code performed zero heap operations.
//!
//! Compiled only under the `alloc-audit` feature, which registers the
//! counter as the process-wide `#[global_allocator]`. The counters are
//! **thread-local and armed only inside [`audited`]**: a heap event is
//! tallied only when it happens on the thread running the audited
//! closure, while that closure runs. Other threads — concurrently
//! running tests, the test harness's own bookkeeping — can allocate
//! freely without being charged to the audited region, so audited tests
//! need no serialization. The flip side: work an audited region hands to
//! *another* thread is not counted (spawning that thread is, on the
//! caller), so the zero-alloc contract is asserted on sequential paths.
//!
//! The counters are const-initialized `Cell`s with no destructor, so
//! reading or bumping them never allocates and never re-enters the
//! allocator. Overhead is one thread-local flag check per heap event, so
//! the full test suite can run under the audit allocator unchanged.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Heap events of one thread while armed, split by kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocCounts {
    /// `alloc` + `alloc_zeroed` calls.
    pub allocs: u64,
    /// `realloc` calls (growth *and* shrink — either may move or split a
    /// heap block, so a zero-alloc region admits neither).
    pub reallocs: u64,
    /// `dealloc` calls.
    pub deallocs: u64,
}

impl AllocCounts {
    /// Total heap events: allocations, reallocations and frees.
    pub fn total(&self) -> u64 {
        self.allocs + self.reallocs + self.deallocs
    }

    /// Events that acquire or resize heap memory (frees excluded) — the
    /// quantity a *zero-alloc* steady state pins to zero. Frees are
    /// reported separately: a steady state that frees without
    /// allocating is shrinking, which is legal but worth seeing.
    pub fn acquisitions(&self) -> u64 {
        self.allocs + self.reallocs
    }

    /// Component-wise difference against an earlier snapshot.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `earlier` is ahead of `self` (swapped
    /// snapshots).
    fn since(&self, earlier: &AllocCounts) -> AllocCounts {
        debug_assert!(
            self.allocs >= earlier.allocs
                && self.reallocs >= earlier.reallocs
                && self.deallocs >= earlier.deallocs,
            "allocation snapshots out of order"
        );
        AllocCounts {
            allocs: self.allocs - earlier.allocs,
            reallocs: self.reallocs - earlier.reallocs,
            deallocs: self.deallocs - earlier.deallocs,
        }
    }
}

thread_local! {
    /// Whether this thread is inside [`audited`]; events are tallied
    /// only while it is set.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static REALLOCS: Cell<u64> = const { Cell::new(0) };
    static DEALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Bumps `counter` if this thread is armed. `try_with` cannot fail for
/// these destructor-less cells, and ignoring a failure only drops a
/// count; neither path allocates.
fn tally(counter: &'static std::thread::LocalKey<Cell<u64>>) {
    if ARMED.try_with(Cell::get).unwrap_or(false) {
        let _ = counter.try_with(|c| c.set(c.get() + 1));
    }
}

/// The counting allocator: delegates every operation to [`System`] and
/// tallies it. Registered as the global allocator by this module, so
/// simply enabling the `alloc-audit` feature puts the whole process
/// under audit.
struct CountingAllocator;

// SAFETY: every method delegates verbatim to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a thread-local counter
// bump, which neither allocates nor observes the returned memory.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: counter bump then verbatim delegation; `layout` obligations pass through to `System`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally(&ALLOCS);
        // SAFETY: forwarded unchanged; caller guarantees `layout` has
        // non-zero size per the `GlobalAlloc` contract.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: counter bump then verbatim delegation; same contract as `alloc`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally(&ALLOCS);
        // SAFETY: forwarded unchanged; same contract as `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: counter bump then verbatim delegation; `ptr`/`layout`/`new_size` obligations pass through to `System`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally(&REALLOCS);
        // SAFETY: forwarded unchanged; caller guarantees `ptr` was
        // allocated with `layout` by this allocator and `new_size` is
        // non-zero.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: counter bump then verbatim delegation; `ptr`/`layout` obligations pass through to `System`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        tally(&DEALLOCS);
        // SAFETY: forwarded unchanged; caller guarantees `ptr`/`layout`
        // match the original allocation.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Snapshot of this thread's armed heap-event counters. They move only
/// inside [`audited`] on this thread, so outside it two snapshots agree.
pub fn counts() -> AllocCounts {
    AllocCounts {
        allocs: ALLOCS.with(Cell::get),
        reallocs: REALLOCS.with(Cell::get),
        deallocs: DEALLOCS.with(Cell::get),
    }
}

/// Runs `f` with this thread's counters armed and returns the heap events
/// it performed on this thread. Other threads' traffic is never counted,
/// so audited regions may run alongside anything. Nesting is allowed:
/// an inner call's events also count toward the enclosing one.
pub fn audited<T>(f: impl FnOnce() -> T) -> (T, AllocCounts) {
    let before = counts();
    let was_armed = ARMED.with(|a| a.replace(true));
    let out = f();
    ARMED.with(|a| a.set(was_armed));
    (out, counts().since(&before))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_a_boxed_allocation_and_free() {
        let ((), delta) = audited(|| {
            let b = Box::new([0u8; 64]);
            std::hint::black_box(&b);
        });
        assert!(delta.allocs >= 1, "Box::new must count as an allocation");
        assert!(delta.deallocs >= 1, "drop must count as a free");
    }

    #[test]
    fn counts_vec_growth_as_acquisition() {
        let mut v: Vec<u64> = Vec::new();
        let ((), delta) = audited(|| {
            for i in 0..1000 {
                v.push(i);
            }
        });
        assert!(delta.acquisitions() >= 1, "growth must be visible");
        drop(v);
    }

    #[test]
    fn disarmed_and_foreign_thread_events_are_not_counted() {
        const WORKER_ALLOCS: u64 = 1000;
        let before = counts();
        drop(std::hint::black_box(vec![0u8; 32]));
        assert_eq!(counts(), before, "events outside `audited` must not count");
        let (worker, caller) = audited(|| {
            std::thread::scope(|scope| {
                scope
                    .spawn(|| {
                        audited(|| {
                            for i in 0..WORKER_ALLOCS {
                                drop(std::hint::black_box(Box::new(i)));
                            }
                        })
                        .1
                    })
                    .join()
            })
        });
        let worker = worker.expect("worker thread completes");
        assert_eq!(
            worker.allocs, WORKER_ALLOCS,
            "a worker counts its own events"
        );
        // The caller is charged for spawning the worker, never for the
        // worker's own allocations.
        assert!(
            caller.allocs < WORKER_ALLOCS,
            "worker events leaked into the caller: {caller:?}"
        );
    }
}
