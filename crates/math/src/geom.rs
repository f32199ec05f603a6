//! 3-D geometry primitives: vectors, quaternions, rigid poses (SE(3)) and
//! rays.
//!
//! These types are the lingua franca between the synthetic scene simulator,
//! the camera projection model and the localization pipelines.

use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};

/// A 3-component vector / point.
///
/// ```
/// use navicim_math::geom::Vec3;
/// let v = Vec3::new(1.0, 2.0, 2.0);
/// assert_eq!(v.norm(), 3.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec3 {
    /// X component.
    pub x: f64,
    /// Y component.
    pub y: f64,
    /// Z component.
    pub z: f64,
}

impl Vec3 {
    /// The zero vector.
    pub const ZERO: Vec3 = Vec3 {
        x: 0.0,
        y: 0.0,
        z: 0.0,
    };

    /// Unit vector along +X.
    pub const X: Vec3 = Vec3 {
        x: 1.0,
        y: 0.0,
        z: 0.0,
    };

    /// Unit vector along +Y.
    // lint: allow(unused-pub) one of the X/Y/Z unit-axis triple; X and Z have callers
    pub const Y: Vec3 = Vec3 {
        x: 0.0,
        y: 1.0,
        z: 0.0,
    };

    /// Unit vector along +Z.
    pub const Z: Vec3 = Vec3 {
        x: 0.0,
        y: 0.0,
        z: 1.0,
    };

    /// Creates a vector from components.
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Self { x, y, z }
    }

    /// Creates a vector with all components equal to `v`.
    pub const fn splat(v: f64) -> Self {
        Self { x: v, y: v, z: v }
    }

    /// Dot product.
    pub fn dot(self, other: Vec3) -> f64 {
        self.x * other.x + self.y * other.y + self.z * other.z
    }

    /// Cross product.
    fn cross(self, other: Vec3) -> Vec3 {
        Vec3::new(
            self.y * other.z - self.z * other.y,
            self.z * other.x - self.x * other.z,
            self.x * other.y - self.y * other.x,
        )
    }

    /// Euclidean norm.
    pub fn norm(self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Squared Euclidean norm.
    pub fn norm_sq(self) -> f64 {
        self.dot(self)
    }

    /// Returns the unit vector in this direction.
    ///
    /// # Panics
    ///
    /// Panics in debug builds when called on a (near-)zero vector.
    pub fn normalized(self) -> Vec3 {
        let n = self.norm();
        debug_assert!(n > 1e-300, "cannot normalize a zero vector");
        self / n
    }

    /// Distance to another point.
    pub fn distance(self, other: Vec3) -> f64 {
        (self - other).norm()
    }

    /// Component-wise minimum.
    pub fn min(self, other: Vec3) -> Vec3 {
        Vec3::new(
            self.x.min(other.x),
            self.y.min(other.y),
            self.z.min(other.z),
        )
    }

    /// Component-wise maximum.
    pub fn max(self, other: Vec3) -> Vec3 {
        Vec3::new(
            self.x.max(other.x),
            self.y.max(other.y),
            self.z.max(other.z),
        )
    }

    /// Components as a `[x, y, z]` array.
    pub fn to_array(self) -> [f64; 3] {
        [self.x, self.y, self.z]
    }

    /// Returns `true` when every component is finite.
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite() && self.z.is_finite()
    }
}

impl Add for Vec3 {
    type Output = Vec3;
    fn add(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x + o.x, self.y + o.y, self.z + o.z)
    }
}

impl Sub for Vec3 {
    type Output = Vec3;
    fn sub(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x - o.x, self.y - o.y, self.z - o.z)
    }
}

impl Mul<f64> for Vec3 {
    type Output = Vec3;
    fn mul(self, s: f64) -> Vec3 {
        Vec3::new(self.x * s, self.y * s, self.z * s)
    }
}

impl Div<f64> for Vec3 {
    type Output = Vec3;
    fn div(self, s: f64) -> Vec3 {
        Vec3::new(self.x / s, self.y / s, self.z / s)
    }
}

impl Neg for Vec3 {
    type Output = Vec3;
    fn neg(self) -> Vec3 {
        Vec3::new(-self.x, -self.y, -self.z)
    }
}

impl fmt::Display for Vec3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.4}, {:.4}, {:.4})", self.x, self.y, self.z)
    }
}

/// Unit quaternion representing a 3-D rotation (scalar-first `w, x, y, z`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quat {
    /// Scalar part.
    pub w: f64,
    /// Vector part, x.
    pub x: f64,
    /// Vector part, y.
    pub y: f64,
    /// Vector part, z.
    pub z: f64,
}

impl Quat {
    /// The identity rotation.
    pub const IDENTITY: Quat = Quat {
        w: 1.0,
        x: 0.0,
        y: 0.0,
        z: 0.0,
    };

    /// Creates a quaternion from components (not normalized).
    pub const fn new(w: f64, x: f64, y: f64, z: f64) -> Self {
        Self { w, x, y, z }
    }

    /// Rotation of `angle` radians about the (not necessarily unit) `axis`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds for a zero axis.
    pub fn from_axis_angle(axis: Vec3, angle: f64) -> Self {
        let axis = axis.normalized();
        let (s, c) = (angle * 0.5).sin_cos();
        Self::new(c, axis.x * s, axis.y * s, axis.z * s)
    }

    /// Rotation from intrinsic yaw (Z), pitch (Y), roll (X) Euler angles.
    pub fn from_euler(roll: f64, pitch: f64, yaw: f64) -> Self {
        let (sr, cr) = (roll * 0.5).sin_cos();
        let (sp, cp) = (pitch * 0.5).sin_cos();
        let (sy, cy) = (yaw * 0.5).sin_cos();
        Self::new(
            cr * cp * cy + sr * sp * sy,
            sr * cp * cy - cr * sp * sy,
            cr * sp * cy + sr * cp * sy,
            cr * cp * sy - sr * sp * cy,
        )
    }

    /// Extracts `(roll, pitch, yaw)` Euler angles.
    pub fn to_euler(self) -> (f64, f64, f64) {
        let q = self.normalized();
        let sinr_cosp = 2.0 * (q.w * q.x + q.y * q.z);
        let cosr_cosp = 1.0 - 2.0 * (q.x * q.x + q.y * q.y);
        let roll = sinr_cosp.atan2(cosr_cosp);
        let sinp = 2.0 * (q.w * q.y - q.z * q.x);
        let pitch = if sinp.abs() >= 1.0 {
            std::f64::consts::FRAC_PI_2.copysign(sinp)
        } else {
            sinp.asin()
        };
        let siny_cosp = 2.0 * (q.w * q.z + q.x * q.y);
        let cosy_cosp = 1.0 - 2.0 * (q.y * q.y + q.z * q.z);
        let yaw = siny_cosp.atan2(cosy_cosp);
        (roll, pitch, yaw)
    }

    /// Quaternion norm.
    pub fn norm(self) -> f64 {
        (self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z).sqrt()
    }

    /// Returns the normalized (unit) quaternion.
    ///
    /// # Panics
    ///
    /// Panics in debug builds for a zero quaternion.
    pub fn normalized(self) -> Quat {
        let n = self.norm();
        debug_assert!(n > 1e-300, "cannot normalize a zero quaternion");
        Quat::new(self.w / n, self.x / n, self.y / n, self.z / n)
    }

    /// The inverse rotation (conjugate, assuming unit norm).
    fn conjugate(self) -> Quat {
        Quat::new(self.w, -self.x, -self.y, -self.z)
    }

    /// Hamilton product `self * other` (apply `other` first).
    pub fn mul_quat(self, o: Quat) -> Quat {
        Quat::new(
            self.w * o.w - self.x * o.x - self.y * o.y - self.z * o.z,
            self.w * o.x + self.x * o.w + self.y * o.z - self.z * o.y,
            self.w * o.y - self.x * o.z + self.y * o.w + self.z * o.x,
            self.w * o.z + self.x * o.y - self.y * o.x + self.z * o.w,
        )
    }

    /// Rotates a vector by this quaternion.
    pub fn rotate(self, v: Vec3) -> Vec3 {
        // v' = v + 2 u × (u × v + w v)  with u the vector part.
        let u = Vec3::new(self.x, self.y, self.z);
        let t = u.cross(v) * 2.0;
        v + t * self.w + u.cross(t)
    }

    /// Builds a quaternion from the rows of a rotation matrix (Shepperd's
    /// method).
    fn from_mat3(m: [[f64; 3]; 3]) -> Quat {
        let t = m[0][0] + m[1][1] + m[2][2];
        let q = if t > 0.0 {
            let s = (t + 1.0).sqrt() * 2.0;
            Quat::new(
                0.25 * s,
                (m[2][1] - m[1][2]) / s,
                (m[0][2] - m[2][0]) / s,
                (m[1][0] - m[0][1]) / s,
            )
        } else if m[0][0] > m[1][1] && m[0][0] > m[2][2] {
            let s = (1.0 + m[0][0] - m[1][1] - m[2][2]).sqrt() * 2.0;
            Quat::new(
                (m[2][1] - m[1][2]) / s,
                0.25 * s,
                (m[0][1] + m[1][0]) / s,
                (m[0][2] + m[2][0]) / s,
            )
        } else if m[1][1] > m[2][2] {
            let s = (1.0 + m[1][1] - m[0][0] - m[2][2]).sqrt() * 2.0;
            Quat::new(
                (m[0][2] - m[2][0]) / s,
                (m[0][1] + m[1][0]) / s,
                0.25 * s,
                (m[1][2] + m[2][1]) / s,
            )
        } else {
            let s = (1.0 + m[2][2] - m[0][0] - m[1][1]).sqrt() * 2.0;
            Quat::new(
                (m[1][0] - m[0][1]) / s,
                (m[0][2] + m[2][0]) / s,
                (m[1][2] + m[2][1]) / s,
                0.25 * s,
            )
        };
        q.normalized()
    }

    /// Geodesic angle (radians) between two rotations.
    pub fn angle_to(self, other: Quat) -> f64 {
        let a = self.normalized();
        let b = other.normalized();
        let dot = (a.w * b.w + a.x * b.x + a.y * b.y + a.z * b.z)
            .abs()
            .min(1.0);
        2.0 * dot.acos()
    }
}

impl Default for Quat {
    fn default() -> Self {
        Self::IDENTITY
    }
}

/// A rigid-body pose: rotation + translation (an element of SE(3)).
///
/// The convention throughout navicim is *body-to-world*: `transform_point`
/// maps a point expressed in the body/camera frame into the world frame.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Pose {
    /// Rotation (body to world).
    pub rotation: Quat,
    /// Translation: the body origin expressed in world coordinates.
    pub translation: Vec3,
}

impl Pose {
    /// The identity pose.
    pub const IDENTITY: Pose = Pose {
        rotation: Quat::IDENTITY,
        translation: Vec3::ZERO,
    };

    /// Creates a pose from rotation and translation.
    pub fn new(rotation: Quat, translation: Vec3) -> Self {
        Self {
            rotation,
            translation,
        }
    }

    /// Creates a pose from a position and yaw/pitch/roll Euler angles.
    pub fn from_position_euler(position: Vec3, roll: f64, pitch: f64, yaw: f64) -> Self {
        Self::new(Quat::from_euler(roll, pitch, yaw), position)
    }

    /// Builds a camera pose at `eye` looking toward `target`.
    ///
    /// Uses the computer-vision camera convention: body +Z is the viewing
    /// direction, +X points right and +Y points down, with `up` giving the
    /// world's up direction.
    ///
    /// # Panics
    ///
    /// Panics in debug builds when `eye == target` or the view direction is
    /// parallel to `up`.
    pub fn looking_at(eye: Vec3, target: Vec3, up: Vec3) -> Pose {
        let z_c = (target - eye).normalized();
        let x_c = z_c.cross(up.normalized());
        debug_assert!(
            x_c.norm() > 1e-9,
            "view direction must not be parallel to up"
        );
        let x_c = x_c.normalized();
        let y_c = z_c.cross(x_c);
        let m = [
            [x_c.x, y_c.x, z_c.x],
            [x_c.y, y_c.y, z_c.y],
            [x_c.z, y_c.z, z_c.z],
        ];
        Pose::new(Quat::from_mat3(m), eye)
    }

    /// Maps a body-frame point into the world frame.
    pub fn transform_point(self, p: Vec3) -> Vec3 {
        self.rotation.rotate(p) + self.translation
    }

    /// Maps a world-frame point into the body frame.
    pub fn inverse_transform_point(self, p: Vec3) -> Vec3 {
        self.rotation.conjugate().rotate(p - self.translation)
    }

    /// Composition: `self ∘ other` (apply `other` in `self`'s frame).
    pub fn compose(self, other: Pose) -> Pose {
        Pose::new(
            self.rotation.mul_quat(other.rotation).normalized(),
            self.transform_point(other.translation),
        )
    }

    /// The inverse pose.
    pub fn inverse(self) -> Pose {
        let inv_rot = self.rotation.conjugate();
        Pose::new(inv_rot, inv_rot.rotate(-self.translation))
    }

    /// Relative pose taking `self` to `other`: `self.compose(delta) == other`.
    pub fn delta_to(self, other: Pose) -> Pose {
        self.inverse().compose(other)
    }

    /// Euclidean distance between the translations of two poses.
    pub fn translation_distance(self, other: Pose) -> f64 {
        self.translation.distance(other.translation)
    }

    /// Geodesic rotation angle between two poses, in radians.
    pub fn rotation_distance(self, other: Pose) -> f64 {
        self.rotation.angle_to(other.rotation)
    }
}

impl fmt::Display for Pose {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (roll, pitch, yaw) = self.rotation.to_euler();
        write!(
            f,
            "t={} rpy=({:.3}, {:.3}, {:.3})",
            self.translation, roll, pitch, yaw
        )
    }
}

/// A ray with origin and (unit) direction, used for depth rendering.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ray {
    /// Ray origin.
    pub origin: Vec3,
    /// Unit direction.
    pub dir: Vec3,
}

impl Ray {
    /// Creates a ray, normalizing the direction.
    ///
    /// # Panics
    ///
    /// Panics in debug builds for a zero direction.
    pub fn new(origin: Vec3, dir: Vec3) -> Self {
        Self {
            origin,
            dir: dir.normalized(),
        }
    }

    /// Point at parameter `t` along the ray.
    pub fn at(self, t: f64) -> Vec3 {
        self.origin + self.dir * t
    }
}

/// Axis-aligned bounding box.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aabb {
    /// Minimum corner.
    pub min: Vec3,
    /// Maximum corner.
    pub max: Vec3,
}

impl Aabb {
    /// Creates a box from two corners (components are sorted).
    pub fn new(a: Vec3, b: Vec3) -> Self {
        Self {
            min: a.min(b),
            max: a.max(b),
        }
    }

    /// Box center.
    pub fn center(self) -> Vec3 {
        (self.min + self.max) * 0.5
    }

    /// Box extents (full side lengths).
    pub fn size(self) -> Vec3 {
        self.max - self.min
    }

    /// Returns `true` when `p` lies inside (inclusive).
    pub fn contains(self, p: Vec3) -> bool {
        p.x >= self.min.x
            && p.x <= self.max.x
            && p.y >= self.min.y
            && p.y <= self.max.y
            && p.z >= self.min.z
            && p.z <= self.max.z
    }

    /// Grows the box to include `p`.
    pub fn expand(self, p: Vec3) -> Aabb {
        Aabb {
            min: self.min.min(p),
            max: self.max.max(p),
        }
    }

    /// Slab-method ray intersection; returns the entry distance if hit.
    pub fn intersect_ray(self, ray: Ray) -> Option<f64> {
        let mut tmin = 0.0f64;
        let mut tmax = f64::INFINITY;
        for axis in 0..3 {
            let (o, d, lo, hi) = match axis {
                0 => (ray.origin.x, ray.dir.x, self.min.x, self.max.x),
                1 => (ray.origin.y, ray.dir.y, self.min.y, self.max.y),
                _ => (ray.origin.z, ray.dir.z, self.min.z, self.max.z),
            };
            if d.abs() < 1e-12 {
                if o < lo || o > hi {
                    return None;
                }
            } else {
                let inv = 1.0 / d;
                let (mut t0, mut t1) = ((lo - o) * inv, (hi - o) * inv);
                if t0 > t1 {
                    std::mem::swap(&mut t0, &mut t1);
                }
                tmin = tmin.max(t0);
                tmax = tmax.min(t1);
                if tmin > tmax {
                    return None;
                }
            }
        }
        Some(tmin)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;
    use std::f64::consts::{FRAC_PI_2, PI};

    fn vec_close(a: Vec3, b: Vec3, tol: f64) -> bool {
        approx_eq(a.x, b.x, tol) && approx_eq(a.y, b.y, tol) && approx_eq(a.z, b.z, tol)
    }

    #[test]
    fn vec3_arithmetic() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(4.0, 5.0, 6.0);
        assert_eq!(a + b, Vec3::new(5.0, 7.0, 9.0));
        assert_eq!(b - a, Vec3::splat(3.0));
        assert_eq!(a * 2.0, Vec3::new(2.0, 4.0, 6.0));
        assert_eq!(a.dot(b), 32.0);
        assert_eq!(Vec3::X.cross(Vec3::Y), Vec3::Z);
        assert_eq!(-a, Vec3::new(-1.0, -2.0, -3.0));
    }

    #[test]
    fn vec3_norm_and_lerp() {
        assert_eq!(Vec3::new(3.0, 4.0, 0.0).norm(), 5.0);
    }

    #[test]
    fn quat_axis_angle_matches_mat3() {
        let q = Quat::from_axis_angle(Vec3::Z, FRAC_PI_2);
        let v = q.rotate(Vec3::X);
        assert!(vec_close(v, Vec3::Y, 1e-12));
    }

    #[test]
    fn quat_euler_roundtrip() {
        let (roll, pitch, yaw) = (0.3, -0.4, 1.2);
        let q = Quat::from_euler(roll, pitch, yaw);
        let (r2, p2, y2) = q.to_euler();
        assert!(approx_eq(roll, r2, 1e-10));
        assert!(approx_eq(pitch, p2, 1e-10));
        assert!(approx_eq(yaw, y2, 1e-10));
    }

    #[test]
    fn quat_composition_order() {
        // Rotate about Z then about the new X: `qx` applies first.
        let qz = Quat::from_axis_angle(Vec3::Z, 0.5);
        let qx = Quat::from_axis_angle(Vec3::X, 0.25);
        let q = qz.mul_quat(qx);
        let v = Vec3::new(0.3, -1.0, 2.0);
        assert!(vec_close(q.rotate(v), qz.rotate(qx.rotate(v)), 1e-12));
    }

    #[test]
    fn quat_conjugate_inverts() {
        let q = Quat::from_euler(0.1, 0.2, 0.3);
        let v = Vec3::new(1.0, 2.0, 3.0);
        assert!(vec_close(q.conjugate().rotate(q.rotate(v)), v, 1e-12));
    }

    #[test]
    fn pose_transform_roundtrip() {
        let pose = Pose::from_position_euler(Vec3::new(1.0, 2.0, 3.0), 0.1, 0.2, 0.3);
        let p = Vec3::new(-0.5, 0.7, 2.0);
        let world = pose.transform_point(p);
        let back = pose.inverse_transform_point(world);
        assert!(vec_close(back, p, 1e-12));
        // inverse() agrees with inverse_transform_point.
        let inv = pose.inverse();
        assert!(vec_close(inv.transform_point(world), p, 1e-12));
    }

    #[test]
    fn pose_compose_and_delta() {
        let a = Pose::from_position_euler(Vec3::new(1.0, 0.0, 0.0), 0.0, 0.0, 0.4);
        let b = Pose::from_position_euler(Vec3::new(2.0, 1.0, -1.0), 0.1, -0.2, 0.9);
        let delta = a.delta_to(b);
        let recon = a.compose(delta);
        assert!(vec_close(recon.translation, b.translation, 1e-12));
        assert!(approx_eq(recon.rotation_distance(b), 0.0, 1e-9));
    }

    #[test]
    fn pose_distances() {
        let a = Pose::IDENTITY;
        let b = Pose::from_position_euler(Vec3::new(3.0, 4.0, 0.0), 0.0, 0.0, PI / 2.0);
        assert!(approx_eq(a.translation_distance(b), 5.0, 1e-12));
        assert!(approx_eq(a.rotation_distance(b), PI / 2.0, 1e-9));
    }

    #[test]
    fn quat_from_mat3_roundtrip() {
        for q in [
            Quat::from_euler(0.3, -0.4, 1.2),
            Quat::from_euler(3.0, 0.1, -2.9),
            Quat::from_axis_angle(Vec3::new(1.0, 1.0, 1.0), 2.5),
            Quat::IDENTITY,
        ] {
            // Columns are the rotated basis vectors.
            let (x, y, z) = (q.rotate(Vec3::X), q.rotate(Vec3::Y), q.rotate(Vec3::Z));
            let m = [[x.x, y.x, z.x], [x.y, y.y, z.y], [x.z, y.z, z.z]];
            let q2 = Quat::from_mat3(m);
            assert!(q.angle_to(q2) < 1e-9, "roundtrip failed for {q:?}");
        }
    }

    #[test]
    fn looking_at_convention() {
        // Camera at origin looking along +X with world up +Z:
        // body +Z (forward) maps to world +X, body +Y (down) to world -Z.
        let pose = Pose::looking_at(Vec3::ZERO, Vec3::X, Vec3::Z);
        assert!(vec_close(pose.rotation.rotate(Vec3::Z), Vec3::X, 1e-12));
        assert!(vec_close(pose.rotation.rotate(Vec3::Y), -Vec3::Z, 1e-12));
        // A point straight ahead in camera frame lands in front of the eye.
        let p = pose.transform_point(Vec3::new(0.0, 0.0, 2.0));
        assert!(vec_close(p, Vec3::new(2.0, 0.0, 0.0), 1e-12));
    }

    #[test]
    fn looking_at_keeps_target_centered() {
        let eye = Vec3::new(1.0, -2.0, 3.0);
        let target = Vec3::new(-2.0, 4.0, 0.5);
        let pose = Pose::looking_at(eye, target, Vec3::Z);
        let cam = pose.inverse_transform_point(target);
        // Target lies on the optical axis (+Z), at the right distance.
        assert!(cam.x.abs() < 1e-9 && cam.y.abs() < 1e-9);
        assert!(approx_eq(cam.z, eye.distance(target), 1e-9));
    }

    #[test]
    fn ray_at() {
        let r = Ray::new(Vec3::ZERO, Vec3::new(0.0, 0.0, 2.0));
        assert!(vec_close(r.at(3.0), Vec3::new(0.0, 0.0, 3.0), 1e-12));
    }

    #[test]
    fn aabb_contains_and_ray() {
        let b = Aabb::new(Vec3::ZERO, Vec3::splat(1.0));
        assert!(b.contains(Vec3::splat(0.5)));
        assert!(!b.contains(Vec3::splat(1.5)));
        let r = Ray::new(Vec3::new(0.5, 0.5, -1.0), Vec3::Z);
        let t = b.intersect_ray(r).unwrap();
        assert!(approx_eq(t, 1.0, 1e-12));
        let miss = Ray::new(Vec3::new(5.0, 5.0, -1.0), Vec3::Z);
        assert!(b.intersect_ray(miss).is_none());
    }

    #[test]
    fn aabb_ray_from_inside_hits_at_zero() {
        let b = Aabb::new(Vec3::ZERO, Vec3::splat(2.0));
        let r = Ray::new(Vec3::splat(1.0), Vec3::X);
        assert_eq!(b.intersect_ray(r), Some(0.0));
    }
}
