//! Statistics and host probes: nearest-rank percentiles, the
//! `/proc/thread-self/schedstat` and `/proc/self/status` parsers, the
//! heap counter behind `peak_heap_mb`, and the fixed reference kernel
//! interleaved with frame blocks.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::time::Instant;

/// Nearest-rank percentile of `sorted` (ascending): the value at 1-based
/// rank `ceil(p / 100 · n)`, so every reported value is one that was
/// actually measured. `p` is clamped to `(0, 100]`; an empty slice gives
/// `NaN`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let n = sorted.len();
    let rank = ((p.clamp(0.0, 100.0) / 100.0) * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// Sorts `values` (NaN last) and returns their nearest-rank median.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile(values, 50.0)
}

/// Arithmetic mean (`NaN` for an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Time waiting on a run queue, in nanoseconds: field 2 of a
/// `schedstat` line (`<on-cpu ns> <run-queue wait ns> <timeslices>`).
pub fn parse_schedstat_wait_ns(text: &str) -> Option<u64> {
    let mut fields = text.split_whitespace();
    fields.next()?.parse::<u64>().ok()?;
    let wait = fields.next()?.parse().ok()?;
    fields.next()?.parse::<u64>().ok()?;
    Some(wait)
}

/// This thread's cumulative run-queue wait, when the kernel exposes it.
pub fn runqueue_wait_ns() -> Option<u64> {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|t| parse_schedstat_wait_ns(&t))
}

/// A `<field>:  <n> kB` line of a `/proc/<pid>/status` file, in KiB.
pub fn parse_status_kib(status: &str, field: &str) -> Option<u64> {
    let line = status
        .lines()
        .find(|l| l.strip_prefix(field).is_some_and(|r| r.starts_with(':')))?;
    let mut fields = line[field.len() + 1..].split_whitespace();
    let kib = fields.next()?.parse().ok()?;
    (fields.next() == Some("kB")).then_some(kib)
}

/// A memory field of this process's `/proc/self/status` in MiB:
/// `VmRSS` (resident now) or `VmHWM` (peak resident).
pub fn status_mb(field: &str) -> Option<f64> {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_status_kib(&s, field))
        .map(|kib| kib as f64 / 1024.0)
}

/// The system allocator, counting the bytes the process holds on the
/// heap and the most it has held since [`HeapCounter::reset_peak`].
/// Unlike the resident set, these counts do not depend on how the
/// allocator lays out and reuses its pages.
///
/// The counters use plain loads and stores: the benchmark runs the
/// program on one thread, and with `fetch_add`/`fetch_max` on every
/// allocation set-up read about 10 % slower (medians of four paired
/// runs). Allocations racing on several threads may be miscounted.
pub struct HeapCounter {
    live: AtomicUsize,
    peak: AtomicUsize,
}

impl HeapCounter {
    /// A counter at zero.
    pub const fn new() -> Self {
        Self {
            live: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
        }
    }

    fn grow(&self, bytes: usize) {
        let live = self.live.load(Relaxed) + bytes;
        self.live.store(live, Relaxed);
        if live > self.peak.load(Relaxed) {
            self.peak.store(live, Relaxed);
        }
    }

    fn shrink(&self, bytes: usize) {
        let live = self.live.load(Relaxed).saturating_sub(bytes);
        self.live.store(live, Relaxed);
    }

    /// Heap bytes held now.
    pub fn live_bytes(&self) -> usize {
        self.live.load(Relaxed)
    }

    /// Most heap bytes held at once since the last reset.
    pub fn peak_bytes(&self) -> usize {
        self.peak.load(Relaxed)
    }

    /// Restarts the peak from the bytes held now.
    pub fn reset_peak(&self) {
        self.peak.store(self.live.load(Relaxed), Relaxed);
    }
}

// SAFETY: every method forwards its arguments to `System` unchanged and
// returns its result; the counters only record the sizes.
unsafe impl GlobalAlloc for HeapCounter {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` contract is passed on as is.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            self.grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` contract is passed on as is.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            self.grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        self.shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` with `layout`; the caller
        // guarantees `new_size` is valid for its alignment.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            if new_size >= layout.size() {
                self.grow(new_size - layout.size());
            } else {
                self.shrink(layout.size() - new_size);
            }
        }
        new
    }
}

/// Time of one [`RefKernel::run`] on the nominal host, ms: the host
/// speed the normalized timing metrics are expressed at.
pub const REF_NOMINAL_MS: f64 = 1.6;

/// A fixed, bench-owned stand-in for the program's hot loop: the
/// log-likelihood of a 480 KB point batch under an 8-component diagonal
/// Gaussian mixture (about 1.5 ms on a 2 GHz x86-64 core). Timed between
/// frame blocks it shows how fast the host ran at that moment, with the
/// same mix of `exp`, FMA and cache traffic as the map kernels, and
/// independent of any change to the program under test.
pub struct RefKernel {
    points: Vec<[f64; 3]>,
    means: [[f64; 3]; 8],
    inv_var: [[f64; 3]; 8],
    log_norm: [f64; 8],
}

impl RefKernel {
    /// Points in the batch.
    pub const POINTS: usize = 20_000;

    /// Builds the fixed batch and mixture from a constant LCG stream.
    pub fn new() -> Self {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let points = (0..Self::POINTS)
            .map(|_| [next() * 4.0 - 2.0, next() * 4.0 - 2.0, next() * 2.0])
            .collect();
        let mut means = [[0.0; 3]; 8];
        let mut inv_var = [[0.0; 3]; 8];
        let mut log_norm = [0.0; 8];
        for k in 0..8 {
            let mut log_det = 0.0;
            for d in 0..3 {
                means[k][d] = next() * 3.0 - 1.5;
                let var = 0.05 + next() * 0.5;
                inv_var[k][d] = 1.0 / var;
                log_det += var.ln();
            }
            log_norm[k] =
                (1.0f64 / 8.0).ln() - 0.5 * (log_det + 3.0 * (2.0 * std::f64::consts::PI).ln());
        }
        Self {
            points,
            means,
            inv_var,
            log_norm,
        }
    }

    /// Summed mixture log-likelihood of the batch.
    pub fn run(&self) -> f64 {
        let mut total = 0.0;
        for p in black_box(&self.points) {
            let mut sum = 0.0;
            for ((mean, inv_var), log_norm) in
                self.means.iter().zip(&self.inv_var).zip(&self.log_norm)
            {
                let mut q = 0.0;
                for ((x, m), iv) in p.iter().zip(mean).zip(inv_var) {
                    let z = x - m;
                    q = (z * z).mul_add(*iv, q);
                }
                sum += (log_norm - 0.5 * q).exp();
            }
            total += (sum + 1e-300).ln();
        }
        black_box(total)
    }

    /// The process-wide instance.
    pub fn shared() -> &'static Self {
        static KERNEL: std::sync::OnceLock<RefKernel> = std::sync::OnceLock::new();
        KERNEL.get_or_init(Self::new)
    }

    /// Wall time of one [`Self::run`] with the batch already in cache,
    /// in milliseconds. The first, untimed run warms the cache, so the
    /// program's own cache footprint does not leak into the sample.
    pub fn time_ms(&self) -> f64 {
        black_box(self.run());
        let t0 = Instant::now();
        black_box(self.run());
        t0.elapsed().as_secs_f64() * 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_measured_values() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 91.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 1.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn median_sorts_and_takes_lower_middle() {
        let mut v = [3.0, 1.0, 4.0, 2.0];
        assert_eq!(median(&mut v), 2.0);
        assert_eq!(v, [1.0, 2.0, 3.0, 4.0]);
        let mut odd = [9.0, 5.0, 7.0];
        assert_eq!(median(&mut odd), 7.0);
    }

    #[test]
    fn infinite_samples_sort_last() {
        let mut v = [2.0, f64::INFINITY, 1.0, 3.0];
        assert_eq!(median(&mut v), 2.0);
        assert_eq!(percentile(&v, 100.0), f64::INFINITY);
    }

    #[test]
    fn schedstat_wait_is_the_second_field() {
        assert_eq!(parse_schedstat_wait_ns("123456789 4242 17\n"), Some(4242));
        assert_eq!(parse_schedstat_wait_ns("1 0 1"), Some(0));
        assert_eq!(parse_schedstat_wait_ns("1 2"), None);
        assert_eq!(parse_schedstat_wait_ns("1 x 3"), None);
        assert_eq!(parse_schedstat_wait_ns(""), None);
    }

    #[test]
    fn status_fields_are_read_in_kib() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  90000 kB\nVmHWM:\t   51200 kB\nVmRSS:\t 40000 kB\n";
        assert_eq!(parse_status_kib(status, "VmHWM"), Some(51200));
        assert_eq!(parse_status_kib(status, "VmRSS"), Some(40000));
        assert_eq!(parse_status_kib("VmHWM:\t12 MB\n", "VmHWM"), None);
        assert_eq!(parse_status_kib("VmRSS:\t12 kB\n", "VmHWM"), None);
        assert_eq!(parse_status_kib("VmHWMx:\t12 kB\n", "VmHWM"), None);
    }

    #[test]
    fn heap_counter_tracks_live_and_peak_bytes() {
        const MB: usize = 1 << 20;
        let heap = HeapCounter::new();
        let small = Layout::from_size_align(8 * MB, 8).expect("valid layout");
        let large = Layout::from_size_align(16 * MB, 8).expect("valid layout");
        // SAFETY: `small` has a non-zero size, and each pointer is given
        // back to `heap` with the layout it currently has.
        unsafe {
            let ptr = heap.alloc(small);
            assert!(!ptr.is_null());
            assert_eq!((heap.live_bytes(), heap.peak_bytes()), (8 * MB, 8 * MB));
            let ptr = heap.realloc(ptr, small, 16 * MB);
            assert!(!ptr.is_null());
            assert_eq!((heap.live_bytes(), heap.peak_bytes()), (16 * MB, 16 * MB));
            let ptr = heap.realloc(ptr, large, MB);
            assert!(!ptr.is_null());
            assert_eq!((heap.live_bytes(), heap.peak_bytes()), (MB, 16 * MB));
            heap.reset_peak();
            assert_eq!(heap.peak_bytes(), MB);
            heap.dealloc(ptr, Layout::from_size_align(MB, 8).expect("valid layout"));
        }
        assert_eq!((heap.live_bytes(), heap.peak_bytes()), (0, MB));
    }

    #[test]
    fn reference_kernel_is_deterministic_and_finite() {
        let a = RefKernel::new().run();
        assert!(a.is_finite());
        assert_eq!(a.to_bits(), RefKernel::new().run().to_bits());
    }
}
