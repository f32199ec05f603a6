//! k-means clustering with k-means++ seeding.
//!
//! Used to initialize both the GMM and HMGM fitters.

use crate::{check_dims, GmmError, Result};
use navicim_math::linalg::dist_sq;
use navicim_math::rng::{Rng64, SampleExt};

/// Result of a k-means run.
#[derive(Debug, Clone, PartialEq)]
pub struct KmeansResult {
    /// Cluster centroids, one `dim`-vector per cluster.
    pub centroids: Vec<Vec<f64>>,
    /// Per-point cluster assignment.
    pub assignments: Vec<usize>,
    /// Final within-cluster sum of squared distances.
    pub inertia: f64,
    /// Number of Lloyd iterations performed.
    pub iterations: usize,
}

/// Runs k-means++ seeding followed by Lloyd iterations.
///
/// # Errors
///
/// Returns [`GmmError::TooFewPoints`] when `points.len() < k`,
/// [`GmmError::InconsistentDimensions`] for ragged data and
/// [`GmmError::InvalidArgument`] for `k == 0`.
pub fn kmeans<R: Rng64 + ?Sized>(
    points: &[Vec<f64>],
    k: usize,
    max_iters: usize,
    rng: &mut R,
) -> Result<KmeansResult> {
    if k == 0 {
        return Err(GmmError::InvalidArgument("k must be positive".into()));
    }
    let dim = check_dims(points)?;
    if points.len() < k {
        return Err(GmmError::TooFewPoints {
            points: points.len(),
            components: k,
        });
    }

    let mut centroids = plus_plus_seeds(points, k, rng);
    let mut assignments = vec![0usize; points.len()];
    let mut inertia = f64::INFINITY;
    let mut iterations = 0;
    let mut sums = vec![0.0; k * dim];
    let mut counts = vec![0usize; k];

    for iter in 0..max_iters {
        iterations = iter + 1;
        // Assignment step.
        let mut new_inertia = 0.0;
        for (i, p) in points.iter().enumerate() {
            let (best, d) = nearest(p, &centroids);
            assignments[i] = best;
            new_inertia += d;
        }
        // Update step.
        sums.fill(0.0);
        counts.fill(0);
        for (p, &a) in points.iter().zip(&assignments) {
            counts[a] += 1;
            for (s, &x) in sums[a * dim..(a + 1) * dim].iter_mut().zip(p) {
                *s += x;
            }
        }
        for (c, (sum, &count)) in centroids
            .iter_mut()
            .zip(sums.chunks_exact(dim).zip(&counts))
        {
            if count > 0 {
                for (ci, &s) in c.iter_mut().zip(sum) {
                    *ci = s / count as f64;
                }
            } else {
                // Re-seed an empty cluster at a random point.
                c.copy_from_slice(&points[rng.sample_index(points.len())]);
            }
        }
        // Convergence: inertia stopped improving.
        if (inertia - new_inertia).abs() < 1e-10 * (1.0 + inertia.abs()) {
            inertia = new_inertia;
            break;
        }
        inertia = new_inertia;
    }

    Ok(KmeansResult {
        centroids,
        assignments,
        inertia,
        iterations,
    })
}

/// k-means++ seeding: the first centroid is uniform, each subsequent one is
/// drawn with probability proportional to its squared distance from the
/// nearest existing centroid.
fn plus_plus_seeds<R: Rng64 + ?Sized>(points: &[Vec<f64>], k: usize, rng: &mut R) -> Vec<Vec<f64>> {
    let mut centroids = Vec::with_capacity(k);
    centroids.push(points[rng.sample_index(points.len())].clone());
    let mut d2: Vec<f64> = points.iter().map(|p| dist_sq(p, &centroids[0])).collect();
    while centroids.len() < k {
        let total: f64 = d2.iter().sum();
        let idx = if total <= 0.0 {
            rng.sample_index(points.len())
        } else {
            rng.sample_weighted(&d2)
        };
        centroids.push(points[idx].clone());
        let newest = centroids.last().expect("just pushed");
        for (d, p) in d2.iter_mut().zip(points) {
            *d = d.min(dist_sq(p, newest));
        }
    }
    centroids
}

fn nearest(p: &[f64], centroids: &[Vec<f64>]) -> (usize, f64) {
    let mut best = 0;
    let mut best_d = f64::INFINITY;
    for (i, c) in centroids.iter().enumerate() {
        let d = dist_sq(p, c);
        if d < best_d {
            best_d = d;
            best = i;
        }
    }
    (best, best_d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use navicim_math::rng::Pcg32;

    fn two_blobs(n: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = Pcg32::seed_from_u64(seed);
        let mut pts = Vec::with_capacity(2 * n);
        for _ in 0..n {
            pts.push(vec![
                rng.sample_normal(0.0, 0.3),
                rng.sample_normal(0.0, 0.3),
            ]);
            pts.push(vec![
                rng.sample_normal(10.0, 0.3),
                rng.sample_normal(10.0, 0.3),
            ]);
        }
        pts
    }

    #[test]
    fn separates_two_blobs() {
        let pts = two_blobs(100, 1);
        let mut rng = Pcg32::seed_from_u64(2);
        let res = kmeans(&pts, 2, 50, &mut rng).unwrap();
        let mut centers = res.centroids.clone();
        centers.sort_by(|a, b| a[0].partial_cmp(&b[0]).unwrap());
        assert!(centers[0][0].abs() < 0.5, "{centers:?}");
        assert!((centers[1][0] - 10.0).abs() < 0.5, "{centers:?}");
        // All points in the same blob share an assignment.
        let a0 = res.assignments[0];
        let a1 = res.assignments[1];
        assert_ne!(a0, a1);
        for i in (0..pts.len()).step_by(2) {
            assert_eq!(res.assignments[i], a0);
            assert_eq!(res.assignments[i + 1], a1);
        }
    }

    #[test]
    fn k_equals_n_gives_zero_inertia() {
        let pts = vec![vec![0.0], vec![1.0], vec![2.0]];
        let mut rng = Pcg32::seed_from_u64(3);
        let res = kmeans(&pts, 3, 20, &mut rng).unwrap();
        assert!(res.inertia < 1e-18);
    }

    #[test]
    fn rejects_bad_inputs() {
        let mut rng = Pcg32::seed_from_u64(4);
        assert!(kmeans(&[vec![1.0]], 2, 10, &mut rng).is_err());
        assert!(kmeans(&[vec![1.0]], 0, 10, &mut rng).is_err());
        assert!(kmeans(&[vec![1.0], vec![1.0, 2.0]], 1, 10, &mut rng).is_err());
    }

    #[test]
    fn inertia_decreases_with_more_clusters() {
        let pts = two_blobs(100, 5);
        let mut rng = Pcg32::seed_from_u64(6);
        let r2 = kmeans(&pts, 2, 50, &mut rng).unwrap();
        let r8 = kmeans(&pts, 8, 50, &mut rng).unwrap();
        assert!(r8.inertia < r2.inertia);
    }

    #[test]
    fn deterministic_given_seed() {
        let pts = two_blobs(50, 7);
        let mut a = Pcg32::seed_from_u64(8);
        let mut b = Pcg32::seed_from_u64(8);
        let ra = kmeans(&pts, 3, 30, &mut a).unwrap();
        let rb = kmeans(&pts, 3, 30, &mut b).unwrap();
        assert_eq!(ra.centroids, rb.centroids);
    }

    #[test]
    fn duplicate_points_handled() {
        let pts = vec![vec![1.0, 1.0]; 10];
        let mut rng = Pcg32::seed_from_u64(9);
        let res = kmeans(&pts, 3, 10, &mut rng).unwrap();
        assert!(res.inertia < 1e-18);
    }
}
