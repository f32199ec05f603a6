//! Pinhole depth camera: intrinsics, ray-cast rendering, back-projection.
//!
//! The camera follows the computer-vision convention (`+Z` forward, `+X`
//! right, `+Y` down); poses are body-to-world as everywhere in navicim.

use crate::scene::Scene;
use crate::{Result, SceneError};
use navicim_math::geom::{Pose, Ray, Vec3};

/// Pinhole camera intrinsics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CameraIntrinsics {
    /// Image width in pixels.
    pub width: usize,
    /// Image height in pixels.
    pub height: usize,
    /// Focal length in pixels (X).
    pub fx: f64,
    /// Focal length in pixels (Y).
    pub fy: f64,
    /// Principal point X.
    pub cx: f64,
    /// Principal point Y.
    pub cy: f64,
}

impl CameraIntrinsics {
    /// A Kinect-like VGA sensor downscaled to the given resolution,
    /// preserving the ~57° horizontal field of view.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn kinect_like(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "image dimensions must be positive");
        // Kinect v1: 640x480 with fx ≈ fy ≈ 575.
        let fx = 575.0 * width as f64 / 640.0;
        let fy = 575.0 * height as f64 / 480.0;
        Self {
            width,
            height,
            fx,
            fy,
            cx: width as f64 * 0.5 - 0.5,
            cy: height as f64 * 0.5 - 0.5,
        }
    }

    /// Camera-frame unit ray direction through pixel `(u, v)`.
    fn pixel_ray(&self, u: usize, v: usize) -> Vec3 {
        Vec3::new(
            (u as f64 - self.cx) / self.fx,
            (v as f64 - self.cy) / self.fy,
            1.0,
        )
        .normalized()
    }

    /// Back-projects pixel `(u, v)` with *Z-depth* `depth` to a camera-frame
    /// point.
    pub fn backproject(&self, u: usize, v: usize, depth: f64) -> Vec3 {
        Vec3::new(
            (u as f64 - self.cx) / self.fx * depth,
            (v as f64 - self.cy) / self.fy * depth,
            depth,
        )
    }
}

/// A rendered depth image. Values are *Z-depths* in metres; `0.0` marks a
/// missing return (out of range or dropout).
#[derive(Debug, Clone, PartialEq)]
pub struct DepthImage {
    width: usize,
    height: usize,
    data: Vec<f64>,
}

impl DepthImage {
    /// Creates an all-missing image.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "image dimensions must be positive");
        Self {
            width,
            height,
            data: vec![0.0; width * height],
        }
    }

    /// Image width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Depth at `(u, v)`; `0.0` means missing.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds coordinates.
    pub fn depth(&self, u: usize, v: usize) -> f64 {
        assert!(u < self.width && v < self.height, "pixel out of bounds");
        self.data[v * self.width + u]
    }

    /// Sets the depth at `(u, v)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds coordinates.
    pub fn set_depth(&mut self, u: usize, v: usize, depth: f64) {
        assert!(u < self.width && v < self.height, "pixel out of bounds");
        self.data[v * self.width + u] = depth;
    }

    /// Flat row-major view of the depths.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Whether a depth reading is a return: finite and positive. `0.0`
    /// (missing), negative, `NaN` and `±inf` readings are all blind, so
    /// an all-`+inf` frame is blind exactly as an all-`NaN` one is.
    pub fn is_valid_depth(d: f64) -> bool {
        d.is_finite() && d > 0.0
    }

    /// Number of valid pixels ([`Self::is_valid_depth`]).
    pub fn valid_count(&self) -> usize {
        self.data
            .iter()
            .filter(|&&d| Self::is_valid_depth(d))
            .count()
    }

    /// Iterates over `(u, v, depth)` for valid pixels
    /// ([`Self::is_valid_depth`]) only.
    pub fn valid_pixels(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        let w = self.width;
        self.data.iter().enumerate().filter_map(move |(i, &d)| {
            if Self::is_valid_depth(d) {
                Some((i % w, i / w, d))
            } else {
                None
            }
        })
    }

    /// Mean depth over a `gw × gh` grid of cells (0.0 where a cell has no
    /// valid pixel) — the feature extraction used by the VO network.
    ///
    /// # Panics
    ///
    /// Panics if either grid dimension is zero.
    pub fn grid_means(&self, gw: usize, gh: usize) -> Vec<f64> {
        let mut out = Vec::new();
        self.grid_means_into(gw, gh, &mut out);
        out
    }

    /// [`Self::grid_means`] into a caller-reused buffer (cleared and
    /// refilled), plus an internal count pass folded into the output —
    /// the allocation-free form the per-frame VO stage of the streaming
    /// pipeline extracts features with.
    ///
    /// # Panics
    ///
    /// Panics if either grid dimension is zero.
    pub fn grid_means_into(&self, gw: usize, gh: usize, out: &mut Vec<f64>) {
        assert!(gw > 0 && gh > 0, "grid dimensions must be positive");
        let cells = gw * gh;
        // The buffer's upper half carries the per-cell pixel counts
        // during accumulation (exact in f64 for any realistic image) and
        // is truncated away before returning.
        out.clear();
        out.resize(2 * cells, 0.0);
        for (u, v, d) in self.valid_pixels() {
            let gu = (u * gw / self.width).min(gw - 1);
            let gv = (v * gh / self.height).min(gh - 1);
            out[gv * gw + gu] += d;
            out[cells + gv * gw + gu] += 1.0;
        }
        for i in 0..cells {
            let c = out[cells + i];
            out[i] = if c > 0.0 { out[i] / c } else { 0.0 };
        }
        out.truncate(cells);
    }
}

/// A depth camera: intrinsics plus a maximum sensing range.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DepthCamera {
    /// Pinhole intrinsics.
    pub intrinsics: CameraIntrinsics,
    /// Maximum sensing range in metres (Kinect: ~4.5 m).
    pub max_range: f64,
    /// Minimum sensing range in metres (Kinect: ~0.4 m).
    pub min_range: f64,
}

impl DepthCamera {
    /// A Kinect-like depth camera at the given resolution.
    pub fn kinect_like(width: usize, height: usize) -> Self {
        Self {
            intrinsics: CameraIntrinsics::kinect_like(width, height),
            max_range: 4.5,
            min_range: 0.3,
        }
    }

    /// Renders a depth image of `scene` from `pose` by ray casting.
    ///
    /// # Errors
    ///
    /// Returns [`SceneError::Empty`] for an empty scene.
    pub fn render(&self, scene: &Scene, pose: Pose) -> Result<DepthImage> {
        if scene.is_empty() {
            return Err(SceneError::Empty("cannot render an empty scene".into()));
        }
        let intr = self.intrinsics;
        let mut img = DepthImage::new(intr.width, intr.height);
        for v in 0..intr.height {
            for u in 0..intr.width {
                let dir_cam = intr.pixel_ray(u, v);
                let dir_world = pose.rotation.rotate(dir_cam);
                let ray = Ray::new(pose.translation, dir_world);
                if let Some((t, _)) = scene.intersect(ray) {
                    // Convert range along the ray to Z-depth.
                    let z = t * dir_cam.z;
                    if z >= self.min_range && z <= self.max_range {
                        img.set_depth(u, v, z);
                    }
                }
            }
        }
        Ok(img)
    }

    /// Projects the valid pixels of a depth image into world coordinates
    /// under a *hypothesized* pose — the scan projection of the
    /// particle-filter measurement model, one hypothesis at a time.
    /// `stride` keeps the pixels whose row-major index is a multiple of
    /// it.
    ///
    /// # Panics
    ///
    /// Panics if `stride` is zero.
    pub fn project_to_world(&self, image: &DepthImage, pose: Pose, stride: usize) -> Vec<Vec3> {
        assert!(stride > 0, "stride must be positive");
        image
            .valid_pixels()
            .filter(|&(u, v, _)| (u + v * image.width()).is_multiple_of(stride))
            .map(|(u, v, d)| pose.transform_point(self.intrinsics.backproject(u, v, d)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::primitives::Shape;
    use navicim_math::geom::Aabb;

    fn wall_scene() -> Scene {
        // A wall at z = 2 (in front of a camera at the origin looking +Z
        // ... in world terms: wall spanning x,y at distance 2 along +X).
        let mut scene = Scene::new();
        scene.add(Shape::Cuboid(Aabb::new(
            Vec3::new(2.0, -5.0, -5.0),
            Vec3::new(2.1, 5.0, 5.0),
        )));
        scene
    }

    fn camera_pose_looking_x() -> Pose {
        Pose::looking_at(Vec3::ZERO, Vec3::X, Vec3::Z)
    }

    #[test]
    fn center_pixel_depth_matches_distance() {
        let cam = DepthCamera::kinect_like(32, 24);
        let img = cam.render(&wall_scene(), camera_pose_looking_x()).unwrap();
        let (cu, cv) = (16, 12);
        let d = img.depth(cu, cv);
        assert!((d - 2.0).abs() < 0.05, "depth {d}");
    }

    #[test]
    fn depth_increases_off_axis_for_flat_wall() {
        // Z-depth stays equal across a fronto-parallel wall (that is the
        // point of Z-depth), so all valid depths should be ~2.0.
        let cam = DepthCamera::kinect_like(32, 24);
        let img = cam.render(&wall_scene(), camera_pose_looking_x()).unwrap();
        for (_, _, d) in img.valid_pixels() {
            assert!((d - 2.0).abs() < 0.1, "depth {d}");
        }
        assert!(img.valid_count() > 100);
    }

    #[test]
    fn out_of_range_returns_missing() {
        let cam = DepthCamera {
            max_range: 1.0,
            ..DepthCamera::kinect_like(16, 12)
        };
        let img = cam.render(&wall_scene(), camera_pose_looking_x()).unwrap();
        assert_eq!(img.valid_count(), 0);
    }

    #[test]
    fn backproject_project_roundtrip() {
        let cam = DepthCamera::kinect_like(64, 48);
        let pose = Pose::looking_at(Vec3::new(0.5, -1.0, 1.0), Vec3::new(2.0, 0.0, 0.5), Vec3::Z);
        let img = {
            let mut scene = Scene::new();
            scene.add(Shape::Cuboid(Aabb::new(
                Vec3::new(3.0, -5.0, -5.0),
                Vec3::new(3.1, 5.0, 5.0),
            )));
            cam.render(&scene, pose).unwrap()
        };
        // Project pixels to world: they must land on the wall plane x≈3.
        let pts = cam.project_to_world(&img, pose, 1);
        assert!(!pts.is_empty());
        for p in pts {
            assert!((p.x - 3.0).abs() < 0.02, "{p:?}");
        }
    }

    #[test]
    fn projection_under_wrong_pose_misses_wall() {
        let cam = DepthCamera::kinect_like(32, 24);
        let true_pose = camera_pose_looking_x();
        let img = cam.render(&wall_scene(), true_pose).unwrap();
        let wrong = Pose::looking_at(Vec3::new(-1.0, 0.0, 0.0), Vec3::X, Vec3::Z);
        let pts = cam.project_to_world(&img, wrong, 1);
        // Same Z-depths (~2 m) re-projected from a camera 1 m farther back:
        // points land on the plane x ≈ 1, a full metre before the wall.
        for p in pts {
            assert!((p.x - 1.0).abs() < 0.1, "{p:?}");
        }
    }

    #[test]
    fn stride_subsamples() {
        let cam = DepthCamera::kinect_like(32, 24);
        let img = cam.render(&wall_scene(), camera_pose_looking_x()).unwrap();
        let all = cam.project_to_world(&img, camera_pose_looking_x(), 1).len();
        let some = cam.project_to_world(&img, camera_pose_looking_x(), 4).len();
        assert!(some < all);
        assert!(some >= all / 5);
    }

    #[test]
    fn grid_means_shape_and_values() {
        let mut img = DepthImage::new(8, 8);
        for u in 0..4 {
            for v in 0..8 {
                img.set_depth(u, v, 1.0);
            }
        }
        let g = img.grid_means(2, 2);
        assert_eq!(g.len(), 4);
        assert!((g[0] - 1.0).abs() < 1e-12); // left cells all 1.0
        assert_eq!(g[1], 0.0); // right cells empty
    }

    #[test]
    fn render_empty_scene_errors() {
        let cam = DepthCamera::kinect_like(8, 8);
        assert!(cam.render(&Scene::new(), Pose::IDENTITY).is_err());
    }
}
