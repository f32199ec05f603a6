//! Scene container and procedural generators.

use crate::primitives::Shape;
use crate::{Result, SceneError};
use navicim_math::geom::{Aabb, Ray, Vec3};
use navicim_math::rng::{Rng64, SampleExt};

/// A static scene: a collection of solid shapes.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Scene {
    shapes: Vec<Shape>,
}

impl Scene {
    /// Creates an empty scene.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a shape, returning `&mut self` for chaining.
    pub fn add(&mut self, shape: Shape) -> &mut Self {
        self.shapes.push(shape);
        self
    }

    /// Number of shapes.
    pub fn len(&self) -> usize {
        self.shapes.len()
    }

    /// Returns `true` when the scene has no shapes.
    pub fn is_empty(&self) -> bool {
        self.shapes.is_empty()
    }

    /// Nearest intersection of `ray` with any shape: `(distance, index)`.
    pub fn intersect(&self, ray: Ray) -> Option<(f64, usize)> {
        let mut best: Option<(f64, usize)> = None;
        for (i, s) in self.shapes.iter().enumerate() {
            if let Some(t) = s.intersect(ray) {
                if best.map(|(bt, _)| t < bt).unwrap_or(true) {
                    best = Some((t, i));
                }
            }
        }
        best
    }

    /// Bounding box of the whole scene.
    ///
    /// # Errors
    ///
    /// Returns [`SceneError::Empty`] for an empty scene.
    pub fn bounding_box(&self) -> Result<Aabb> {
        let mut iter = self.shapes.iter();
        let first = iter
            .next()
            .ok_or_else(|| SceneError::Empty("scene has no shapes".into()))?;
        let mut bb = first.bounding_box();
        for s in iter {
            let b = s.bounding_box();
            bb = bb.expand(b.min).expand(b.max);
        }
        Ok(bb)
    }

    /// Samples `n` points on scene surfaces, area-weighted across shapes —
    /// the synthetic stand-in for a registered Kinect point cloud.
    ///
    /// # Errors
    ///
    /// Returns [`SceneError::Empty`] for an empty scene.
    pub fn sample_surface_points<R: Rng64 + ?Sized>(
        &self,
        n: usize,
        rng: &mut R,
    ) -> Result<Vec<Vec3>> {
        if self.shapes.is_empty() {
            return Err(SceneError::Empty("scene has no shapes".into()));
        }
        let areas: Vec<f64> = self.shapes.iter().map(|s| s.surface_area()).collect();
        Ok((0..n)
            .map(|_| {
                let i = rng.sample_weighted(&areas);
                self.shapes[i].sample_surface(rng)
            })
            .collect())
    }
}

/// Parameters for the procedural tabletop scene generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TabletopParams {
    /// Room half-extent in X and Y (room spans ±this).
    pub room_half: f64,
    /// Room height.
    pub room_height: f64,
    /// Table top size (square side length).
    pub table_size: f64,
    /// Table height.
    pub table_height: f64,
    /// Number of objects placed on the table.
    pub num_objects: usize,
}

impl Default for TabletopParams {
    fn default() -> Self {
        Self {
            room_half: 2.5,
            room_height: 2.4,
            table_size: 1.2,
            table_height: 0.75,
            num_objects: 5,
        }
    }
}

/// Generates a tabletop scene in the spirit of the RGB-D Scenes v2 dataset:
/// a room (floor + three walls) containing a table with small objects
/// (boxes, cans, balls) on top.
///
/// # Errors
///
/// Returns [`SceneError::InvalidArgument`] for non-positive dimensions.
pub fn tabletop_scene<R: Rng64 + ?Sized>(params: &TabletopParams, rng: &mut R) -> Result<Scene> {
    if params.room_half <= 0.0
        || params.room_height <= 0.0
        || params.table_size <= 0.0
        || params.table_height <= 0.0
    {
        return Err(SceneError::InvalidArgument(
            "tabletop dimensions must be positive".into(),
        ));
    }
    let h = params.room_half;
    let mut scene = Scene::new();
    let wall = 0.05;
    // Floor.
    scene.add(Shape::Cuboid(Aabb::new(
        Vec3::new(-h, -h, -wall),
        Vec3::new(h, h, 0.0),
    )));
    // Three walls (one side left open so the camera can orbit in).
    scene.add(Shape::Cuboid(Aabb::new(
        Vec3::new(-h, h, 0.0),
        Vec3::new(h, h + wall, params.room_height),
    )));
    scene.add(Shape::Cuboid(Aabb::new(
        Vec3::new(-h - wall, -h, 0.0),
        Vec3::new(-h, h, params.room_height),
    )));
    scene.add(Shape::Cuboid(Aabb::new(
        Vec3::new(h, -h, 0.0),
        Vec3::new(h + wall, h, params.room_height),
    )));
    // Table: top slab + central pedestal.
    let ts = params.table_size * 0.5;
    let th = params.table_height;
    scene.add(Shape::Cuboid(Aabb::new(
        Vec3::new(-ts, -ts, th - 0.05),
        Vec3::new(ts, ts, th),
    )));
    scene.add(Shape::Cuboid(Aabb::new(
        Vec3::new(-0.08, -0.08, 0.0),
        Vec3::new(0.08, 0.08, th - 0.05),
    )));
    // Objects on the table.
    for _ in 0..params.num_objects {
        let x = rng.sample_uniform(-ts * 0.8, ts * 0.8);
        let y = rng.sample_uniform(-ts * 0.8, ts * 0.8);
        match rng.sample_index(3) {
            0 => {
                let r = rng.sample_uniform(0.03, 0.08);
                scene.add(Shape::Sphere {
                    center: Vec3::new(x, y, th + r),
                    radius: r,
                });
            }
            1 => {
                let r = rng.sample_uniform(0.03, 0.06);
                let height = rng.sample_uniform(0.08, 0.2);
                scene.add(Shape::Cylinder {
                    base: Vec3::new(x, y, th),
                    radius: r,
                    height,
                });
            }
            _ => {
                let sx = rng.sample_uniform(0.04, 0.12);
                let sy = rng.sample_uniform(0.04, 0.12);
                let sz = rng.sample_uniform(0.05, 0.2);
                scene.add(Shape::Cuboid(Aabb::new(
                    Vec3::new(x - sx * 0.5, y - sy * 0.5, th),
                    Vec3::new(x + sx * 0.5, y + sy * 0.5, th + sz),
                )));
            }
        }
    }
    Ok(scene)
}

#[cfg(test)]
mod tests {
    use super::*;
    use navicim_math::rng::Pcg32;

    #[test]
    fn tabletop_has_expected_structure() {
        let mut rng = Pcg32::seed_from_u64(1);
        let params = TabletopParams::default();
        let scene = tabletop_scene(&params, &mut rng).unwrap();
        // floor + 3 walls + tabletop + pedestal + objects
        assert_eq!(scene.len(), 6 + params.num_objects);
        let bb = scene.bounding_box().unwrap();
        assert!(bb.min.z <= 0.0 && bb.max.z >= params.table_height);
    }

    #[test]
    fn invalid_params_rejected() {
        let mut rng = Pcg32::seed_from_u64(2);
        let bad = TabletopParams {
            room_half: -1.0,
            ..TabletopParams::default()
        };
        assert!(tabletop_scene(&bad, &mut rng).is_err());
    }

    #[test]
    fn intersect_returns_nearest() {
        let mut scene = Scene::new();
        scene.add(Shape::Sphere {
            center: Vec3::new(0.0, 0.0, 5.0),
            radius: 1.0,
        });
        scene.add(Shape::Sphere {
            center: Vec3::new(0.0, 0.0, 10.0),
            radius: 1.0,
        });
        let (t, idx) = scene.intersect(Ray::new(Vec3::ZERO, Vec3::Z)).unwrap();
        assert_eq!(idx, 0);
        assert!((t - 4.0).abs() < 1e-12);
    }

    #[test]
    fn surface_points_lie_in_bounding_box() {
        let mut rng = Pcg32::seed_from_u64(3);
        let scene = tabletop_scene(&TabletopParams::default(), &mut rng).unwrap();
        let bb = scene.bounding_box().unwrap();
        let pts = scene.sample_surface_points(500, &mut rng).unwrap();
        assert_eq!(pts.len(), 500);
        for p in pts {
            assert!(bb.contains(p), "{p:?}");
        }
    }

    #[test]
    fn empty_scene_errors() {
        let scene = Scene::new();
        assert!(scene.bounding_box().is_err());
        let mut rng = Pcg32::seed_from_u64(4);
        assert!(scene.sample_surface_points(10, &mut rng).is_err());
        assert!(scene.is_empty());
    }

    #[test]
    fn generation_is_deterministic() {
        let mut a = Pcg32::seed_from_u64(6);
        let mut b = Pcg32::seed_from_u64(6);
        let sa = tabletop_scene(&TabletopParams::default(), &mut a).unwrap();
        let sb = tabletop_scene(&TabletopParams::default(), &mut b).unwrap();
        assert_eq!(sa, sb);
    }
}
