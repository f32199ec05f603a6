//! Trajectory and regression error metrics (RMSE, MAE, ATE, drift).
//!
//! Used by the localization and visual-odometry experiments to score
//! estimated trajectories against ground truth.

use crate::geom::Pose;

/// Root-mean-square error between two equal-length sequences.
///
/// # Panics
///
/// Panics if the slices have different lengths.
// lint: allow(unused-pub) no caller outside its unit tests; removal deferred to a follow-up sweep
pub fn rmse(estimates: &[f64], truths: &[f64]) -> f64 {
    assert_eq!(estimates.len(), truths.len(), "rmse requires equal lengths");
    if estimates.is_empty() {
        return 0.0;
    }
    let sum_sq: f64 = estimates
        .iter()
        .zip(truths)
        .map(|(e, t)| (e - t) * (e - t))
        .sum();
    (sum_sq / estimates.len() as f64).sqrt()
}

/// Mean absolute error between two equal-length sequences.
///
/// # Panics
///
/// Panics if the slices have different lengths.
// lint: allow(unused-pub) no caller outside its unit tests; removal deferred to a follow-up sweep
pub fn mae(estimates: &[f64], truths: &[f64]) -> f64 {
    assert_eq!(estimates.len(), truths.len(), "mae requires equal lengths");
    if estimates.is_empty() {
        return 0.0;
    }
    estimates
        .iter()
        .zip(truths)
        .map(|(e, t)| (e - t).abs())
        .sum::<f64>()
        / estimates.len() as f64
}

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

/// Per-frame translation errors between two pose sequences.
///
/// # Panics
///
/// Panics if the sequences have different lengths.
// lint: allow(unused-pub) no caller outside its unit tests; removal deferred to a follow-up sweep
pub fn per_frame_errors(estimates: &[Pose], truths: &[Pose]) -> Vec<f64> {
    assert_eq!(
        estimates.len(),
        truths.len(),
        "per_frame_errors requires equal lengths"
    );
    estimates
        .iter()
        .zip(truths)
        .map(|(e, t)| e.translation_distance(*t))
        .collect()
}

/// Relative pose error: translation error of consecutive-frame deltas,
/// which isolates odometry quality from accumulated drift.
///
/// Returns an empty vector for sequences shorter than 2.
///
/// # Panics
///
/// Panics if the sequences have different lengths.
// lint: allow(unused-pub) no caller outside its unit tests; removal deferred to a follow-up sweep
pub fn relative_pose_errors(estimates: &[Pose], truths: &[Pose]) -> Vec<f64> {
    assert_eq!(
        estimates.len(),
        truths.len(),
        "relative_pose_errors requires equal lengths"
    );
    if estimates.len() < 2 {
        return Vec::new();
    }
    (1..estimates.len())
        .map(|i| {
            let est_delta = estimates[i - 1].delta_to(estimates[i]);
            let true_delta = truths[i - 1].delta_to(truths[i]);
            est_delta.translation_distance(true_delta)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;
    use crate::geom::Vec3;

    #[test]
    fn rmse_and_mae_basics() {
        let est = [1.0, 2.0, 3.0];
        let truth = [1.0, 2.0, 3.0];
        assert_eq!(rmse(&est, &truth), 0.0);
        assert_eq!(mae(&est, &truth), 0.0);
        let est2 = [2.0, 2.0, 5.0];
        assert!(approx_eq(rmse(&est2, &truth), (5.0f64 / 3.0).sqrt(), 1e-12));
        assert!(approx_eq(mae(&est2, &truth), 1.0, 1e-12));
    }

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

    #[test]
    fn relative_errors_ignore_global_offset() {
        // A rigid offset applied to the whole estimated trajectory leaves
        // consecutive deltas unchanged.
        let truths: Vec<Pose> = (0..6)
            .map(|i| {
                Pose::from_position_euler(
                    Vec3::new(i as f64, (i * i) as f64 * 0.1, 0.0),
                    0.0,
                    0.0,
                    0.0,
                )
            })
            .collect();
        let estimates: Vec<Pose> = truths
            .iter()
            .map(|p| Pose::new(p.rotation, p.translation + Vec3::new(10.0, -5.0, 2.0)))
            .collect();
        for e in relative_pose_errors(&estimates, &truths) {
            assert!(e < 1e-10);
        }
    }

    #[test]
    fn per_frame_errors_lengths() {
        let poses = vec![Pose::IDENTITY; 3];
        assert_eq!(per_frame_errors(&poses, &poses).len(), 3);
        assert_eq!(relative_pose_errors(&poses, &poses).len(), 2);
        let single = vec![Pose::IDENTITY];
        assert!(relative_pose_errors(&single, &single).is_empty());
    }
}
