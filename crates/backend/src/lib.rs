//! The batched likelihood backend layer.
//!
//! Every navicim map/likelihood backend — the digital GMM, the analog
//! HMGM CIM engine and the quantized MC-Dropout regressor — is throughput
//! bound on likelihood evaluation: a particle-filter frame weighs hundreds
//! to thousands of hypotheses, each scoring dozens of projected depth
//! pixels. The seed evaluated all of that one scalar call at a time; this
//! crate defines the shared batch-evaluation contract the whole stack is
//! refactored onto:
//!
//! - [`PointBatch`] — a flat, dimension-tagged buffer of query points that
//!   can be filled once per frame and reused across frames without
//!   reallocating,
//! - [`LikelihoodBackend`] — the batch-first trait (`log_likelihood_into`)
//!   with a scalar adapter, implemented by the two served map backends,
//!   `navicim_gmm::gaussian::Gmm` and
//!   `navicim_analog::engine::HmgmCimEngine`,
//! - [`par`] — chunked execution helpers that spread a batch across
//!   threads behind the `parallel` feature.
//!
//! Pure backends use [`par::for_each_chunk`] directly. Backends whose
//! evaluation consumes hidden state (the CIM engine's noise) stay
//! *bit-identical* across batch sizes, chunk sizes and thread counts by
//! making that state splittable: noise comes from a counter-based stream
//! indexed by the absolute evaluation number, and per-evaluation
//! statistics flow through [`par::zip_chunks`]'s second buffer so the
//! caller can merge them in index order afterwards.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod par;

/// A flat batch of fixed-dimension query points.
///
/// Points are stored contiguously (`len × dim` doubles) so backends can
/// stream them without pointer chasing, and the buffer can be cleared and
/// refilled every frame without freeing its allocation.
///
/// ```
/// use navicim_backend::PointBatch;
/// let mut batch = PointBatch::new(3);
/// batch.push(&[0.0, 1.0, 2.0]);
/// batch.push(&[3.0, 4.0, 5.0]);
/// assert_eq!(batch.len(), 2);
/// assert_eq!(batch.point(1), &[3.0, 4.0, 5.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PointBatch {
    data: Vec<f64>,
    dim: usize,
}

impl PointBatch {
    /// Creates an empty batch of `dim`-dimensional points.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is zero.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "point batch requires a positive dimension");
        Self {
            data: Vec::new(),
            dim,
        }
    }

    /// Creates an empty batch with room for `capacity` points.
    pub fn with_capacity(dim: usize, capacity: usize) -> Self {
        let mut batch = Self::new(dim);
        batch.data.reserve(capacity * dim);
        batch
    }

    /// Builds a `dim`-dimensional batch from row vectors. An empty row
    /// list yields a valid empty batch of the requested dimension (the
    /// dimension is explicit precisely so "no queries this frame" cannot
    /// silently produce a batch of the wrong shape).
    ///
    /// # Panics
    ///
    /// Panics if any row's length differs from `dim`.
    pub fn from_rows(dim: usize, rows: &[Vec<f64>]) -> Self {
        let mut batch = Self::with_capacity(dim, rows.len());
        for row in rows {
            batch.push(row);
        }
        batch
    }

    /// Point dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of points in the batch.
    pub fn len(&self) -> usize {
        self.data.len() / self.dim
    }

    /// Number of points the batch can hold without reallocating —
    /// the steady-state-allocation probe for buffer-reuse tests.
    pub fn capacity(&self) -> usize {
        self.data.capacity() / self.dim
    }

    /// Whether the batch holds no points.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Appends one point.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn push(&mut self, point: &[f64]) {
        assert_eq!(point.len(), self.dim, "point dimension mismatch");
        self.data.extend_from_slice(point);
    }

    /// Appends one 3-D point from coordinates.
    ///
    /// # Panics
    ///
    /// Panics unless the batch is 3-dimensional.
    pub fn push_xyz(&mut self, x: f64, y: f64, z: f64) {
        assert_eq!(self.dim, 3, "push_xyz requires a 3-d batch");
        self.data.extend_from_slice(&[x, y, z]);
    }

    /// Appends `n` zeroed points and returns their flat storage
    /// (`n × dim` doubles) for the caller to fill in place — the bulk
    /// path for writers that produce many points at once.
    ///
    /// When the batch must grow, its capacity becomes the next power of
    /// two of the new flat length: the same sizes one-point-at-a-time
    /// pushes settle into, so a batch refilled every frame reaches the
    /// same steady-state capacity either way.
    pub fn extend_zeroed(&mut self, n: usize) -> &mut [f64] {
        let start = self.data.len();
        let end = start + n * self.dim;
        if end > self.data.capacity() {
            self.data.reserve_exact(end.next_power_of_two() - start);
        }
        self.data.resize(end, 0.0);
        &mut self.data[start..end]
    }

    /// Appends every point of `other`, preserving order — the bulk path
    /// for copying a staged batch (a single flat copy instead of a
    /// per-point push).
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn extend_from_batch(&mut self, other: &PointBatch) {
        assert_eq!(
            other.dim, self.dim,
            "cannot extend a {}-d batch from a {}-d batch",
            self.dim, other.dim
        );
        // Exact reservation: the incoming span size is known here, so
        // growing by amortized doubling would only overshoot the
        // steady-state capacity a reused buffer settles into.
        self.data.reserve_exact(other.data.len());
        self.data.extend_from_slice(&other.data);
    }

    /// The `i`-th point.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn point(&self, i: usize) -> &[f64] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Iterates over the points as slices.
    pub fn iter(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.dim)
    }

    /// The underlying flat storage (`len × dim` doubles).
    pub fn as_flat(&self) -> &[f64] {
        &self.data
    }

    /// Removes all points, keeping the allocation.
    pub fn clear(&mut self) {
        self.data.clear();
    }

    /// Splits the batch into `(points-in-range,)` sub-slices for chunked
    /// evaluation: returns the flat storage for points `range`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn flat_range(&self, start: usize, end: usize) -> &[f64] {
        &self.data[start * self.dim..end * self.dim]
    }
}

/// A likelihood backend with a first-class batch API.
///
/// The batch method is the primitive; `log_likelihood_point` is a
/// convenience adapter evaluating a batch of one, so implementing the
/// batch path once gives both. Implementations must guarantee that
/// evaluating a batch is *bit-identical* to evaluating its points one by
/// one in order (including any internal RNG consumption), which is what
/// lets callers pick batch sizes freely for performance.
pub trait LikelihoodBackend {
    /// Query dimensionality accepted by the backend.
    fn dim(&self) -> usize;

    /// Evaluates the log-likelihood of every point in `batch`, writing
    /// results to `out` (one value per point, in order).
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != batch.len()` or on dimension mismatch.
    fn log_likelihood_into(&mut self, batch: &PointBatch, out: &mut [f64]);

    /// Batch evaluation into a fresh vector.
    fn log_likelihood_batch(&mut self, batch: &PointBatch) -> Vec<f64> {
        let mut out = vec![0.0; batch.len()];
        self.log_likelihood_into(batch, &mut out);
        out
    }

    /// Scalar adapter: evaluates a single point through the batch path.
    fn log_likelihood_point(&mut self, point: &[f64]) -> f64 {
        let mut batch = PointBatch::new(point.len());
        batch.push(point);
        let mut out = [0.0];
        self.log_likelihood_into(&batch, &mut out);
        out[0]
    }
}

impl<B: LikelihoodBackend + ?Sized> LikelihoodBackend for &mut B {
    fn dim(&self) -> usize {
        (**self).dim()
    }

    fn log_likelihood_into(&mut self, batch: &PointBatch, out: &mut [f64]) {
        (**self).log_likelihood_into(batch, out)
    }
}

/// Asserts the `(batch, out)` pair is consistent for a backend of
/// dimension `dim`; shared by backend implementations.
pub fn check_batch_shape(dim: usize, batch: &PointBatch, out: &[f64]) {
    assert_eq!(batch.dim(), dim, "batch dimension mismatch");
    assert_eq!(
        out.len(),
        batch.len(),
        "output buffer must hold one value per point"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    struct SumBackend;

    impl LikelihoodBackend for SumBackend {
        fn dim(&self) -> usize {
            2
        }

        fn log_likelihood_into(&mut self, batch: &PointBatch, out: &mut [f64]) {
            check_batch_shape(self.dim(), batch, out);
            for (o, p) in out.iter_mut().zip(batch.iter()) {
                *o = p.iter().sum();
            }
        }
    }

    #[test]
    fn batch_storage_roundtrip() {
        let mut b = PointBatch::with_capacity(2, 4);
        assert!(b.is_empty());
        b.push(&[1.0, 2.0]);
        b.push(&[3.0, 4.0]);
        assert_eq!(b.len(), 2);
        assert_eq!(b.point(0), &[1.0, 2.0]);
        assert_eq!(b.as_flat(), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(b.flat_range(1, 2), &[3.0, 4.0]);
        let rows: Vec<&[f64]> = b.iter().collect();
        assert_eq!(rows.len(), 2);
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.dim(), 2);
    }

    #[test]
    fn from_rows_builds() {
        let b = PointBatch::from_rows(3, &[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        assert_eq!(b.dim(), 3);
        assert_eq!(b.len(), 2);
        // Empty rows keep the requested dimension.
        let empty = PointBatch::from_rows(3, &[]);
        assert_eq!(empty.dim(), 3);
        assert!(empty.is_empty());
    }

    #[test]
    fn extend_from_batch_concatenates() {
        let a = PointBatch::from_rows(2, &[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = PointBatch::from_rows(2, &[vec![5.0, 6.0]]);
        let mut merged = PointBatch::new(2);
        merged.extend_from_batch(&a);
        merged.extend_from_batch(&b);
        assert_eq!(merged.len(), 3);
        assert_eq!(merged.as_flat(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "cannot extend")]
    fn extend_from_batch_rejects_dim_mismatch() {
        let mut a = PointBatch::new(2);
        a.extend_from_batch(&PointBatch::new(3));
    }

    #[test]
    fn xyz_push() {
        let mut b = PointBatch::new(3);
        b.push_xyz(1.0, 2.0, 3.0);
        assert_eq!(b.point(0), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn extend_zeroed_appends_and_grows_to_powers_of_two() {
        let mut b = PointBatch::new(3);
        b.push_xyz(1.0, 2.0, 3.0);
        let out = b.extend_zeroed(2);
        assert_eq!(out.len(), 6);
        out.copy_from_slice(&[4.0, 5.0, 6.0, 7.0, 8.0, 9.0]);
        assert_eq!(b.len(), 3);
        assert_eq!(b.point(0), &[1.0, 2.0, 3.0]);
        assert_eq!(b.point(2), &[7.0, 8.0, 9.0]);
        assert!(b.extend_zeroed(0).is_empty());
        // Growth lands on the next power of two of the flat length (the
        // capacity probe counts whole points: 32 doubles hold 10 points).
        b.clear();
        b.extend_zeroed(7);
        assert_eq!(b.capacity(), 32 / 3);
        // Refilling within capacity keeps the allocation.
        b.clear();
        b.extend_zeroed(10);
        assert_eq!(b.capacity(), 32 / 3);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dim_mismatch_panics() {
        let mut b = PointBatch::new(2);
        b.push(&[1.0]);
    }

    #[test]
    fn scalar_adapter_matches_batch() {
        let mut backend = SumBackend;
        let mut batch = PointBatch::new(2);
        batch.push(&[1.0, 2.0]);
        batch.push(&[5.0, -1.0]);
        let out = backend.log_likelihood_batch(&batch);
        assert_eq!(out, vec![3.0, 4.0]);
        assert_eq!(backend.log_likelihood_point(&[1.0, 2.0]), 3.0);
        // Through a mutable reference, too.
        let by_ref: &mut SumBackend = &mut backend;
        assert_eq!(by_ref.dim(), 2);
        assert_eq!(by_ref.log_likelihood_point(&[0.0, 0.5]), 0.5);
    }
}
