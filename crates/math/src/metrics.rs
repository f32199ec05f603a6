//! Trajectory error metrics (ATE, rotation RMSE, drift).
//!
//! Used by the localization and visual-odometry experiments to score
//! estimated trajectories against ground truth.

use crate::geom::Pose;

/// Summary of a trajectory comparison.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TrajectoryError {
    /// Absolute trajectory error: RMSE over per-frame translation errors.
    pub ate_rmse: f64,
    /// Mean per-frame translation error.
    pub ate_mean: f64,
    /// Maximum per-frame translation error.
    pub ate_max: f64,
    /// RMSE over per-frame rotation geodesic angles (radians).
    pub rot_rmse: f64,
    /// Final-frame translation error (odometry drift).
    pub final_drift: f64,
}

/// Computes the absolute trajectory error between estimated and ground-truth
/// pose sequences.
///
/// # Panics
///
/// Panics if the sequences have different lengths or are empty.
pub fn trajectory_error(estimates: &[Pose], truths: &[Pose]) -> TrajectoryError {
    assert_eq!(
        estimates.len(),
        truths.len(),
        "trajectory_error requires equal lengths"
    );
    assert!(!estimates.is_empty(), "trajectory_error requires poses");
    let mut sum_sq = 0.0;
    let mut sum = 0.0;
    let mut max = 0.0f64;
    let mut rot_sum_sq = 0.0;
    for (e, t) in estimates.iter().zip(truths) {
        let d = e.translation_distance(*t);
        sum_sq += d * d;
        sum += d;
        max = max.max(d);
        let a = e.rotation_distance(*t);
        rot_sum_sq += a * a;
    }
    let n = estimates.len() as f64;
    TrajectoryError {
        ate_rmse: (sum_sq / n).sqrt(),
        ate_mean: sum / n,
        ate_max: max,
        rot_rmse: (rot_sum_sq / n).sqrt(),
        final_drift: estimates
            .last()
            .expect("non-empty")
            .translation_distance(*truths.last().expect("non-empty")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;
    use crate::geom::Vec3;

    #[test]
    fn trajectory_error_identity() {
        let poses: Vec<Pose> = (0..5)
            .map(|i| Pose::from_position_euler(Vec3::new(i as f64, 0.0, 0.0), 0.0, 0.0, 0.1))
            .collect();
        let e = trajectory_error(&poses, &poses);
        assert_eq!(e.ate_rmse, 0.0);
        assert_eq!(e.final_drift, 0.0);
        assert_eq!(e.rot_rmse, 0.0);
    }

    #[test]
    fn trajectory_error_constant_offset() {
        let truths: Vec<Pose> = (0..4)
            .map(|i| Pose::from_position_euler(Vec3::new(i as f64, 0.0, 0.0), 0.0, 0.0, 0.0))
            .collect();
        let estimates: Vec<Pose> = truths
            .iter()
            .map(|p| Pose::new(p.rotation, p.translation + Vec3::new(0.0, 3.0, 4.0)))
            .collect();
        let e = trajectory_error(&estimates, &truths);
        assert!(approx_eq(e.ate_rmse, 5.0, 1e-12));
        assert!(approx_eq(e.ate_mean, 5.0, 1e-12));
        assert!(approx_eq(e.ate_max, 5.0, 1e-12));
        assert!(approx_eq(e.final_drift, 5.0, 1e-12));
    }
}
