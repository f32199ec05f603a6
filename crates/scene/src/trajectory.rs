//! Camera/drone trajectory generators.
//!
//! All generators return dense pose sequences with the camera oriented
//! toward a gaze target, mimicking how the RGB-D Scenes v2 sequences orbit
//! their tabletop scenes.

use crate::{Result, SceneError};
use navicim_math::geom::{Pose, Vec3};
use navicim_math::rng::{Rng64, SampleExt};

/// An orbit around `center` at the given radius and height, gazing at the
/// centre. `turns` may be fractional.
///
/// # Errors
///
/// Returns [`SceneError::InvalidArgument`] for a non-positive radius or
/// fewer than 2 frames.
pub fn orbit(
    center: Vec3,
    radius: f64,
    height: f64,
    turns: f64,
    frames: usize,
) -> Result<Vec<Pose>> {
    if radius <= 0.0 {
        return Err(SceneError::InvalidArgument(
            "orbit radius must be positive".into(),
        ));
    }
    if frames < 2 {
        return Err(SceneError::InvalidArgument(
            "orbit requires at least 2 frames".into(),
        ));
    }
    Ok((0..frames)
        .map(|i| {
            let theta = turns * 2.0 * std::f64::consts::PI * i as f64 / (frames - 1) as f64;
            let eye = center + Vec3::new(radius * theta.cos(), radius * theta.sin(), height);
            Pose::looking_at(eye, center, Vec3::Z)
        })
        .collect())
}

/// A smooth random walk through an axis-aligned flight box, gazing at
/// `gaze`: random waypoints connected by Catmull-Rom-interpolated arcs.
///
/// # Errors
///
/// Returns [`SceneError::InvalidArgument`] for degenerate parameters.
pub fn random_waypoints<R: Rng64 + ?Sized>(
    box_min: Vec3,
    box_max: Vec3,
    waypoints: usize,
    frames_per_segment: usize,
    gaze: Vec3,
    rng: &mut R,
) -> Result<Vec<Pose>> {
    if waypoints < 2 || frames_per_segment < 1 {
        return Err(SceneError::InvalidArgument(
            "need at least 2 waypoints and 1 frame per segment".into(),
        ));
    }
    if !(box_min.x < box_max.x && box_min.y < box_max.y && box_min.z < box_max.z) {
        return Err(SceneError::InvalidArgument(
            "flight box must be non-degenerate".into(),
        ));
    }
    let sample_point = |rng: &mut R| {
        Vec3::new(
            rng.sample_uniform(box_min.x, box_max.x),
            rng.sample_uniform(box_min.y, box_max.y),
            rng.sample_uniform(box_min.z, box_max.z),
        )
    };
    let pts: Vec<Vec3> = (0..waypoints).map(|_| sample_point(rng)).collect();
    // Catmull-Rom needs phantom endpoints.
    let mut ctrl = Vec::with_capacity(waypoints + 2);
    ctrl.push(pts[0] + (pts[0] - pts[1]));
    ctrl.extend_from_slice(&pts);
    ctrl.push(pts[waypoints - 1] + (pts[waypoints - 1] - pts[waypoints - 2]));

    let mut poses = Vec::new();
    for seg in 0..(waypoints - 1) {
        let (p0, p1, p2, p3) = (ctrl[seg], ctrl[seg + 1], ctrl[seg + 2], ctrl[seg + 3]);
        for f in 0..frames_per_segment {
            let t = f as f64 / frames_per_segment as f64;
            let eye = catmull_rom(p0, p1, p2, p3, t);
            poses.push(Pose::looking_at(eye, gaze, Vec3::Z));
        }
    }
    // Close with the final waypoint.
    poses.push(Pose::looking_at(pts[waypoints - 1], gaze, Vec3::Z));
    Ok(poses)
}

fn catmull_rom(p0: Vec3, p1: Vec3, p2: Vec3, p3: Vec3, t: f64) -> Vec3 {
    let t2 = t * t;
    let t3 = t2 * t;
    (p1 * 2.0
        + (p2 - p0) * t
        + (p0 * 2.0 - p1 * 5.0 + p2 * 4.0 - p3) * t2
        + (p1 * 3.0 - p0 - p2 * 3.0 + p3) * t3)
        * 0.5
}

#[cfg(test)]
mod tests {
    use super::*;
    use navicim_math::rng::Pcg32;

    #[test]
    fn orbit_stays_on_circle_and_gazes_center() {
        let center = Vec3::new(0.0, 0.0, 0.75);
        let poses = orbit(center, 2.0, 1.0, 1.0, 60).unwrap();
        assert_eq!(poses.len(), 60);
        for p in &poses {
            let dxy = ((p.translation.x - center.x).powi(2) + (p.translation.y - center.y).powi(2))
                .sqrt();
            assert!((dxy - 2.0).abs() < 1e-9);
            // Gaze: center on the optical axis.
            let cam = p.inverse_transform_point(center);
            assert!(cam.x.abs() < 1e-9 && cam.y.abs() < 1e-9 && cam.z > 0.0);
        }
    }

    #[test]
    fn orbit_full_turn_closes() {
        let poses = orbit(Vec3::ZERO, 1.0, 0.5, 1.0, 30).unwrap();
        let first = poses.first().unwrap().translation;
        let last = poses.last().unwrap().translation;
        assert!(first.distance(last) < 1e-9);
    }

    #[test]
    fn random_waypoints_stay_near_box() {
        let mut rng = Pcg32::seed_from_u64(1);
        let lo = Vec3::new(-1.0, -1.0, 0.5);
        let hi = Vec3::new(1.0, 1.0, 1.5);
        let poses = random_waypoints(lo, hi, 5, 10, Vec3::ZERO, &mut rng).unwrap();
        assert_eq!(poses.len(), 41);
        // Catmull-Rom can overshoot slightly; allow a margin.
        for p in &poses {
            let t = p.translation;
            assert!(t.x > -1.6 && t.x < 1.6, "{t:?}");
            assert!(t.z > -0.2 && t.z < 2.2, "{t:?}");
        }
    }

    #[test]
    fn trajectories_are_smooth() {
        let mut rng = Pcg32::seed_from_u64(2);
        let poses = random_waypoints(
            Vec3::new(-1.0, -1.0, 0.5),
            Vec3::new(1.0, 1.0, 1.5),
            4,
            20,
            Vec3::ZERO,
            &mut rng,
        )
        .unwrap();
        // Consecutive steps should be small relative to the box size.
        for w in poses.windows(2) {
            let step = w[0].translation.distance(w[1].translation);
            assert!(step < 0.5, "step {step}");
        }
    }

    #[test]
    fn invalid_parameters_rejected() {
        let mut rng = Pcg32::seed_from_u64(3);
        assert!(orbit(Vec3::ZERO, 0.0, 1.0, 1.0, 10).is_err());
        assert!(orbit(Vec3::ZERO, 1.0, 1.0, 1.0, 1).is_err());
        assert!(random_waypoints(Vec3::ZERO, Vec3::ZERO, 3, 5, Vec3::ZERO, &mut rng).is_err());
    }
}
