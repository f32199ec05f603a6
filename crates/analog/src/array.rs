//! The inverter-column array and its Kirchhoff current summation.
//!
//! One column holds one multi-input inverter programmed to an HMG kernel;
//! mixture weights are realized by replicating a column (the paper's setup
//! uses 500 inverter columns to emulate 100 mixture components, i.e. up to
//! five replicas per component). All columns share the query voltages and
//! their output currents sum on a single line — the entire mixture
//! likelihood is produced in one analog step.

use crate::{AnalogError, Result};
use navicim_device::inverter::{GaussianLikeCell, MultiInputInverter};
use navicim_device::params::TechParams;
use navicim_device::variation::ProcessVariation;
use navicim_math::rng::Rng64;

/// Smallest programmable conduction-window width, in volts.
pub const MIN_OVERLAP: f64 = 0.05;

/// Effective sigma (volts) of a mid-rail cell with conduction window
/// `overlap`, which must lie in `[MIN_OVERLAP, vdd]`.
fn sigma_at(tech: &TechParams, overlap: f64) -> f64 {
    GaussianLikeCell::with_center_width(tech, tech.vdd * 0.5, overlap)
        .expect("overlap kept in [MIN_OVERLAP, vdd] by the callers")
        .effective_sigma()
}

/// Finds the conduction-window width (`overlap`) whose Gaussian-like cell
/// has the requested voltage-domain sigma, by bisection.
///
/// # Errors
///
/// Returns [`AnalogError::Unrealizable`] when the requested sigma is NaN
/// or lies outside the device's programmable range for this technology.
pub fn calibrate_overlap(tech: &TechParams, sigma_v: f64) -> Result<f64> {
    let (s_lo, s_hi) = device_sigma_range(tech);
    if !(s_lo..=s_hi).contains(&sigma_v) {
        return Err(AnalogError::Unrealizable(format!(
            "sigma {sigma_v:.4} V outside device range [{s_lo:.4}, {s_hi:.4}] V"
        )));
    }
    let (mut lo, mut hi) = (MIN_OVERLAP, tech.vdd);
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        if sigma_at(tech, mid) < sigma_v {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok(0.5 * (lo + hi))
}

/// Device-achievable voltage-domain sigma range for a technology.
pub fn device_sigma_range(tech: &TechParams) -> (f64, f64) {
    (sigma_at(tech, MIN_OVERLAP), sigma_at(tech, tech.vdd))
}

/// One programmed column: a multi-input inverter plus its replica count.
#[derive(Debug, Clone, PartialEq)]
pub struct CimColumn {
    inverter: MultiInputInverter,
    replicas: u32,
}

impl CimColumn {
    /// Creates a column from a programmed inverter and a replica count.
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::InvalidArgument`] for a zero replica count.
    pub fn new(inverter: MultiInputInverter, replicas: u32) -> Result<Self> {
        if replicas == 0 {
            return Err(AnalogError::InvalidArgument(
                "replica count must be at least 1".into(),
            ));
        }
        Ok(Self { inverter, replicas })
    }

    /// The programmed inverter.
    pub fn inverter(&self) -> &MultiInputInverter {
        &self.inverter
    }

    /// Number of physical replicas implementing the mixture weight.
    pub fn replicas(&self) -> u32 {
        self.replicas
    }

    /// Column output current at the given gate voltages.
    pub fn current(&self, voltages: &[f64]) -> f64 {
        self.replicas as f64 * self.inverter.current(voltages)
    }

    /// Peak column current (all inputs at their centres).
    pub fn peak_current(&self) -> f64 {
        self.replicas as f64 * self.inverter.peak_current()
    }
}

/// The full array: columns sharing input lines and an output current line.
#[derive(Debug, Clone, PartialEq)]
pub struct CimArray {
    columns: Vec<CimColumn>,
    num_inputs: usize,
}

impl CimArray {
    /// Assembles an array from programmed columns.
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::InvalidArgument`] for an empty column list or
    /// inconsistent input counts.
    pub fn new(columns: Vec<CimColumn>) -> Result<Self> {
        let num_inputs = columns
            .first()
            .map(|c| c.inverter.num_inputs())
            .ok_or_else(|| {
                AnalogError::InvalidArgument("array requires at least one column".into())
            })?;
        if columns
            .iter()
            .any(|c| c.inverter.num_inputs() != num_inputs)
        {
            return Err(AnalogError::InvalidArgument(
                "all columns must share the input count".into(),
            ));
        }
        Ok(Self {
            columns,
            num_inputs,
        })
    }

    /// Number of logical columns (mixture components).
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// Number of physical inverter columns, counting replicas — the
    /// paper's "500 columns for 100 components" figure of merit.
    pub fn num_physical_columns(&self) -> usize {
        self.columns.iter().map(|c| c.replicas as usize).sum()
    }

    /// Number of shared input lines.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Programmed columns.
    pub fn columns(&self) -> &[CimColumn] {
        &self.columns
    }

    /// Total output current for the shared gate voltages — the Kirchhoff
    /// sum over all columns, proportional to the mixture likelihood.
    ///
    /// # Panics
    ///
    /// Panics if `voltages.len()` differs from the input count.
    pub fn total_current(&self, voltages: &[f64]) -> f64 {
        assert_eq!(
            voltages.len(),
            self.num_inputs,
            "voltage count must match input lines"
        );
        self.columns.iter().map(|c| c.current(voltages)).sum()
    }

    /// Maximum possible output current (upper ADC range bound).
    pub fn max_current(&self) -> f64 {
        self.columns.iter().map(|c| c.peak_current()).sum()
    }

    /// Applies process variation to every cell of every column in place.
    pub fn apply_variation<R: Rng64 + ?Sized>(&mut self, pv: &ProcessVariation, rng: &mut R) {
        for col in &mut self.columns {
            let cells: Vec<GaussianLikeCell> = col
                .inverter
                .cells()
                .iter()
                .map(|&cell| pv.perturb_cell(cell, rng))
                .collect();
            col.inverter =
                MultiInputInverter::new(cells).expect("cell count preserved by perturbation");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use navicim_math::rng::Pcg32;

    fn tech() -> TechParams {
        TechParams::cmos_45nm()
    }

    fn simple_array() -> CimArray {
        let t = tech();
        let inv1 = MultiInputInverter::from_centers(&t, &[0.3, 0.5, 0.7], 0.3).unwrap();
        let inv2 = MultiInputInverter::from_centers(&t, &[0.6, 0.4, 0.5], 0.3).unwrap();
        CimArray::new(vec![
            CimColumn::new(inv1, 2).unwrap(),
            CimColumn::new(inv2, 1).unwrap(),
        ])
        .unwrap()
    }

    #[test]
    fn calibrate_overlap_roundtrip() {
        let t = tech();
        let (s_min, s_max) = device_sigma_range(&t);
        assert!(s_min < s_max);
        for frac in [0.2, 0.5, 0.8] {
            let target = s_min + frac * (s_max - s_min);
            let overlap = calibrate_overlap(&t, target).unwrap();
            let got = GaussianLikeCell::with_center_width(&t, 0.5, overlap)
                .unwrap()
                .effective_sigma();
            assert!(
                (got / target - 1.0).abs() < 0.02,
                "target {target} got {got}"
            );
        }
    }

    #[test]
    fn calibrate_rejects_out_of_range() {
        let t = tech();
        let (s_min, s_max) = device_sigma_range(&t);
        assert!(matches!(
            calibrate_overlap(&t, s_min * 0.5),
            Err(AnalogError::Unrealizable(_))
        ));
        assert!(matches!(
            calibrate_overlap(&t, s_max * 2.0),
            Err(AnalogError::Unrealizable(_))
        ));
        assert!(matches!(
            calibrate_overlap(&t, f64::NAN),
            Err(AnalogError::Unrealizable(_))
        ));
    }

    #[test]
    fn replicas_scale_current() {
        let t = tech();
        let inv = MultiInputInverter::from_centers(&t, &[0.5], 0.3).unwrap();
        let c1 = CimColumn::new(inv.clone(), 1).unwrap();
        let c3 = CimColumn::new(inv, 3).unwrap();
        let v = [0.5];
        assert!((c3.current(&v) / c1.current(&v) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn zero_replicas_rejected() {
        let t = tech();
        let inv = MultiInputInverter::from_centers(&t, &[0.5], 0.3).unwrap();
        assert!(CimColumn::new(inv, 0).is_err());
    }

    #[test]
    fn kirchhoff_sum() {
        let array = simple_array();
        let v = [0.45, 0.5, 0.55];
        let total = array.total_current(&v);
        let manual: f64 = array.columns().iter().map(|c| c.current(&v)).sum();
        assert_eq!(total, manual);
        assert!(total > 0.0);
    }

    #[test]
    fn physical_column_count() {
        let array = simple_array();
        assert_eq!(array.num_columns(), 2);
        assert_eq!(array.num_physical_columns(), 3);
    }

    #[test]
    fn max_current_bounds_outputs() {
        let array = simple_array();
        let max = array.max_current();
        for vset in [[0.3, 0.5, 0.7], [0.5, 0.5, 0.5], [0.1, 0.9, 0.5]] {
            assert!(array.total_current(&vset) <= max * 1.0001);
        }
    }

    #[test]
    fn inconsistent_inputs_rejected() {
        let t = tech();
        let a = MultiInputInverter::from_centers(&t, &[0.5], 0.3).unwrap();
        let b = MultiInputInverter::from_centers(&t, &[0.5, 0.5], 0.3).unwrap();
        let cols = vec![CimColumn::new(a, 1).unwrap(), CimColumn::new(b, 1).unwrap()];
        assert!(CimArray::new(cols).is_err());
        assert!(CimArray::new(vec![]).is_err());
    }

    #[test]
    fn variation_perturbs_currents() {
        let mut array = simple_array();
        let before = array.total_current(&[0.45, 0.5, 0.55]);
        let pv = ProcessVariation::from_tech(&tech());
        let mut rng = Pcg32::seed_from_u64(7);
        array.apply_variation(&pv, &mut rng);
        let after = array.total_current(&[0.45, 0.5, 0.55]);
        assert_ne!(before, after);
        // Perturbation is bounded: same order of magnitude.
        assert!((after / before) > 0.2 && (after / before) < 5.0);
    }
}
