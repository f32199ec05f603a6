//! Point estimates and spread measures over pose particle sets.

use crate::particle::ParticleSet;
use navicim_math::geom::{Pose, Quat, Vec3};

/// Weighted mean pose of a particle set.
///
/// The translation is the weighted arithmetic mean. The rotation is the
/// weighted chordal mean: quaternions are sign-aligned to the
/// highest-weight particle, averaged componentwise and renormalized — the
/// standard first-order approximation valid when particles agree to within
/// a hemisphere.
pub fn mean_pose(particles: &ParticleSet<Pose>) -> Pose {
    let translation = Vec3::new(
        particles.weighted_mean(|p| p.translation.x),
        particles.weighted_mean(|p| p.translation.y),
        particles.weighted_mean(|p| p.translation.z),
    );
    let (_, reference) = particles.map_estimate();
    let ref_q = reference.rotation;
    let mut acc = [0.0f64; 4];
    for (pose, &w) in particles.states().iter().zip(particles.weights()) {
        let mut q = pose.rotation.normalized();
        let dot = q.w * ref_q.w + q.x * ref_q.x + q.y * ref_q.y + q.z * ref_q.z;
        if dot < 0.0 {
            q = Quat::new(-q.w, -q.x, -q.y, -q.z);
        }
        acc[0] += w * q.w;
        acc[1] += w * q.x;
        acc[2] += w * q.y;
        acc[3] += w * q.z;
    }
    let rotation = Quat::new(acc[0], acc[1], acc[2], acc[3]);
    let rotation = if rotation.norm() < 1e-12 {
        ref_q
    } else {
        rotation.normalized()
    };
    Pose::new(rotation, translation)
}

/// Weighted positional spread: the root of the summed per-axis weighted
/// variances (a scalar "1σ radius" of the particle cloud).
pub fn position_spread(particles: &ParticleSet<Pose>) -> f64 {
    particles
        .weighted_covariance_trace(|p| p.translation.to_array())
        .sqrt()
}

/// Variance floor for [`position_nees`], in m²: axes the cloud has
/// collapsed below this (σ < 1 µm) are treated as claiming that
/// certainty, so any realized error there reads as inconsistency.
const NEES_VAR_FLOOR: f64 = 1e-12;

/// Diagonal NEES (normalized estimation error squared) of the cloud's
/// positional belief against the true position: per axis, squared
/// mean-estimate error over the weighted particle variance, summed.
///
/// A consistent filter holds this near the position dimension (3);
/// values far above it mean the filter is *overconfident* — its
/// covariance no longer explains its realized error — which is the
/// per-frame trust metric faults and attacks show up in even while the
/// raw error still looks plausible. Collapsed axes price their variance
/// at `NEES_VAR_FLOOR`, so the result is finite for every cloud.
pub fn position_nees(particles: &ParticleSet<Pose>, truth: Pose) -> f64 {
    let (mean, var) = particles.weighted_moments(|p| p.translation.to_array());
    let t = truth.translation.to_array();
    let mut nees = 0.0;
    for axis in 0..3 {
        let e = mean[axis] - t[axis];
        nees += e * e / var[axis].max(NEES_VAR_FLOOR);
    }
    nees
}

#[cfg(test)]
mod tests {
    use super::*;
    use navicim_math::rng::{Pcg32, SampleExt};

    fn cloud(center: Vec3, yaw: f64, spread: f64, n: usize, seed: u64) -> ParticleSet<Pose> {
        let mut rng = Pcg32::seed_from_u64(seed);
        let states: Vec<Pose> = (0..n)
            .map(|_| {
                Pose::from_position_euler(
                    center
                        + Vec3::new(
                            rng.sample_normal(0.0, spread),
                            rng.sample_normal(0.0, spread),
                            rng.sample_normal(0.0, spread),
                        ),
                    0.0,
                    0.0,
                    yaw + rng.sample_normal(0.0, 0.05),
                )
            })
            .collect();
        ParticleSet::from_states(states).unwrap()
    }

    #[test]
    fn mean_pose_recovers_cloud_center() {
        let center = Vec3::new(1.0, -2.0, 0.5);
        let set = cloud(center, 0.8, 0.1, 2000, 1);
        let est = mean_pose(&set);
        assert!(est.translation.distance(center) < 0.01);
        let (_, _, yaw) = est.rotation.to_euler();
        assert!((yaw - 0.8).abs() < 0.01);
    }

    #[test]
    fn mean_pose_handles_quaternion_double_cover() {
        // Two identical orientations with opposite quaternion signs must
        // average to the same orientation, not cancel out.
        let q = Quat::from_euler(0.0, 0.0, 1.0);
        let neg_q = Quat::new(-q.w, -q.x, -q.y, -q.z);
        let set =
            ParticleSet::from_states(vec![Pose::new(q, Vec3::ZERO), Pose::new(neg_q, Vec3::ZERO)])
                .unwrap();
        let est = mean_pose(&set);
        assert!(est.rotation.angle_to(q) < 1e-9);
    }

    #[test]
    fn spread_tracks_cloud_size() {
        let tight = cloud(Vec3::ZERO, 0.0, 0.05, 1000, 2);
        let wide = cloud(Vec3::ZERO, 0.0, 0.5, 1000, 3);
        let s_tight = position_spread(&tight);
        let s_wide = position_spread(&wide);
        assert!(s_wide > 5.0 * s_tight);
        // For isotropic σ per axis, spread ≈ σ√3.
        assert!((s_tight / (0.05 * 3f64.sqrt()) - 1.0).abs() < 0.1);
    }

    #[test]
    fn nees_is_small_when_truth_sits_inside_the_cloud() {
        let center = Vec3::new(1.0, -2.0, 0.5);
        let set = cloud(center, 0.0, 0.1, 2000, 4);
        // Truth at the cloud center: NEES well under the dimension.
        assert!(position_nees(&set, Pose::from_position_euler(center, 0.0, 0.0, 0.0)) < 3.0);
        // Truth one σ off per axis: NEES near 3.
        let off = center + Vec3::new(0.1, 0.1, 0.1);
        let nees = position_nees(&set, Pose::from_position_euler(off, 0.0, 0.0, 0.0));
        assert!(nees > 1.0 && nees < 6.0, "nees = {nees}");
    }

    #[test]
    fn nees_explodes_for_an_overconfident_cloud() {
        let center = Vec3::new(1.0, -2.0, 0.5);
        let tight = cloud(center, 0.0, 0.01, 500, 5);
        let truth = Pose::from_position_euler(center + Vec3::new(0.5, 0.0, 0.0), 0.0, 0.0, 0.0);
        // 50σ of realized error against a 1 cm cloud: wildly inconsistent.
        assert!(position_nees(&tight, truth) > 1e3);
    }

    #[test]
    fn nees_is_finite_for_a_collapsed_cloud() {
        let pose = Pose::from_position_euler(Vec3::new(3.0, 1.0, 2.0), 0.0, 0.0, 0.0);
        let set = ParticleSet::from_states(vec![pose]).unwrap();
        // Zero error on a zero-variance cloud: exactly consistent.
        assert_eq!(position_nees(&set, pose), 0.0);
        // Any error on a zero-variance cloud: huge but finite (floored).
        let off = Pose::from_position_euler(Vec3::new(3.1, 1.0, 2.0), 0.0, 0.0, 0.0);
        let nees = position_nees(&set, off);
        assert!(nees.is_finite() && nees > 1e6);
    }

    #[test]
    fn single_particle_is_its_own_mean() {
        let pose = Pose::from_position_euler(Vec3::new(3.0, 1.0, 2.0), 0.1, 0.2, 0.3);
        let set = ParticleSet::from_states(vec![pose]).unwrap();
        let est = mean_pose(&set);
        assert!(est.translation_distance(pose) < 1e-12);
        assert!(est.rotation_distance(pose) < 1e-9);
        assert_eq!(position_spread(&set), 0.0);
    }
}
