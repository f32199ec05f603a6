//! Affine mapping between world coordinates and gate voltages.
//!
//! The HMGM map lives in metres; the inverter array lives in volts. Each
//! axis gets an affine map chosen so the spatial extent of the flying
//! domain fills the usable voltage window, which in turn determines which
//! spatial kernel widths the device can realize.

use crate::{AnalogError, Result};

/// Affine map for one axis: `[x_lo, x_hi]` (world) ↔ `[v_lo, v_hi]` (gate).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AxisMap {
    x_lo: f64,
    x_hi: f64,
    v_lo: f64,
    v_hi: f64,
}

impl AxisMap {
    /// Creates an axis map.
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::InvalidArgument`] unless both intervals are
    /// non-degenerate and increasing.
    pub fn new(x_lo: f64, x_hi: f64, v_lo: f64, v_hi: f64) -> Result<Self> {
        if !(x_lo < x_hi && v_lo < v_hi) {
            return Err(AnalogError::InvalidArgument(format!(
                "axis map requires increasing intervals, got x:[{x_lo},{x_hi}] v:[{v_lo},{v_hi}]"
            )));
        }
        Ok(Self {
            x_lo,
            x_hi,
            v_lo,
            v_hi,
        })
    }

    /// Volts per metre.
    pub fn scale(&self) -> f64 {
        (self.v_hi - self.v_lo) / (self.x_hi - self.x_lo)
    }

    /// World interval covered by the map.
    pub fn world_range(&self) -> (f64, f64) {
        (self.x_lo, self.x_hi)
    }

    /// Voltage interval covered by the map.
    pub fn voltage_range(&self) -> (f64, f64) {
        (self.v_lo, self.v_hi)
    }

    /// World coordinate → gate voltage (clamped to the voltage window).
    pub fn to_voltage(&self, x: f64) -> f64 {
        (self.v_lo + (x - self.x_lo) * self.scale()).clamp(self.v_lo, self.v_hi)
    }

    /// Converts a spatial sigma (metres) to a voltage-domain sigma.
    pub fn sigma_to_voltage(&self, sigma_x: f64) -> f64 {
        sigma_x * self.scale()
    }

    /// Converts a voltage-domain sigma to a spatial sigma.
    pub fn sigma_to_world(&self, sigma_v: f64) -> f64 {
        sigma_v / self.scale()
    }
}

/// Per-axis maps for a full query space (typically 3-D).
#[derive(Debug, Clone, PartialEq)]
pub struct SpaceMap {
    axes: Vec<AxisMap>,
}

impl SpaceMap {
    /// Creates a space map from per-axis maps.
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::InvalidArgument`] for an empty axis list.
    pub fn new(axes: Vec<AxisMap>) -> Result<Self> {
        if axes.is_empty() {
            return Err(AnalogError::InvalidArgument(
                "space map requires at least one axis".into(),
            ));
        }
        Ok(Self { axes })
    }

    /// Builds a map covering the axis-aligned bounding box of `points`,
    /// with a margin, onto a common voltage window.
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::InvalidArgument`] for empty/degenerate data.
    pub fn fit_to_points(points: &[Vec<f64>], v_lo: f64, v_hi: f64, margin: f64) -> Result<Self> {
        let dim = points
            .first()
            .map(|p| p.len())
            .filter(|&d| d > 0)
            .ok_or_else(|| {
                AnalogError::InvalidArgument("fit_to_points requires non-empty data".into())
            })?;
        let mut axes = Vec::with_capacity(dim);
        for d in 0..dim {
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            for p in points {
                if p.len() != dim {
                    return Err(AnalogError::InvalidArgument(
                        "fit_to_points requires consistent dimensions".into(),
                    ));
                }
                lo = lo.min(p[d]);
                hi = hi.max(p[d]);
            }
            if !(lo < hi) {
                // Degenerate axis: widen artificially.
                lo -= 0.5;
                hi += 0.5;
            }
            let pad = (hi - lo) * margin;
            axes.push(AxisMap::new(lo - pad, hi + pad, v_lo, v_hi)?);
        }
        Self::new(axes)
    }

    /// Number of axes.
    pub fn dim(&self) -> usize {
        self.axes.len()
    }

    /// Per-axis maps.
    pub fn axes(&self) -> &[AxisMap] {
        &self.axes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use navicim_math::approx_eq;

    /// Gate voltage → world coordinate: the inverse of `to_voltage`
    /// inside the window.
    fn to_world(m: &AxisMap, v: f64) -> f64 {
        m.world_range().0 + m.sigma_to_world(v - m.voltage_range().0)
    }

    #[test]
    fn axis_roundtrip() {
        let m = AxisMap::new(-2.0, 6.0, 0.1, 0.9).unwrap();
        for &x in &[-2.0, 0.0, 3.3, 6.0] {
            assert!(approx_eq(to_world(&m, m.to_voltage(x)), x, 1e-12));
        }
    }

    #[test]
    fn axis_clamps_out_of_domain() {
        let m = AxisMap::new(0.0, 1.0, 0.2, 0.8).unwrap();
        assert_eq!(m.to_voltage(-10.0), 0.2);
        assert_eq!(m.to_voltage(10.0), 0.8);
    }

    #[test]
    fn sigma_scaling_consistent() {
        let m = AxisMap::new(0.0, 4.0, 0.0, 1.0).unwrap();
        assert!(approx_eq(m.scale(), 0.25, 1e-12));
        assert!(approx_eq(m.sigma_to_voltage(0.8), 0.2, 1e-12));
        assert!(approx_eq(m.sigma_to_world(0.2), 0.8, 1e-12));
    }

    #[test]
    fn validation() {
        assert!(AxisMap::new(1.0, 1.0, 0.0, 1.0).is_err());
        assert!(AxisMap::new(0.0, 1.0, 0.5, 0.5).is_err());
        assert!(SpaceMap::new(vec![]).is_err());
    }

    #[test]
    fn fit_to_points_covers_data() {
        let pts = vec![
            vec![0.0, -1.0, 5.0],
            vec![2.0, 3.0, 5.5],
            vec![1.0, 1.0, 4.5],
        ];
        let m = SpaceMap::fit_to_points(&pts, 0.1, 0.9, 0.1).unwrap();
        assert_eq!(m.dim(), 3);
        for p in &pts {
            for (a, &x) in m.axes().iter().zip(p) {
                let v = a.to_voltage(x);
                assert!(v > 0.1 && v < 0.9, "interior points avoid the rails");
                assert!(approx_eq(to_world(a, v), x, 1e-9));
            }
        }
    }

    #[test]
    fn degenerate_axis_widened() {
        let pts = vec![vec![1.0, 7.0], vec![2.0, 7.0]];
        let m = SpaceMap::fit_to_points(&pts, 0.0, 1.0, 0.05).unwrap();
        // The constant axis still yields a usable map.
        let (lo, hi) = m.axes()[1].world_range();
        assert!(lo < 7.0 && hi > 7.0);
    }

    #[test]
    fn fit_rejects_bad_input() {
        assert!(SpaceMap::fit_to_points(&[], 0.0, 1.0, 0.1).is_err());
        let ragged = vec![vec![1.0], vec![1.0, 2.0]];
        assert!(SpaceMap::fit_to_points(&ragged, 0.0, 1.0, 0.1).is_err());
    }
}
