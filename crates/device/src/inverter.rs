//! The six-transistor inverter and its Gaussian-like switching current.
//!
//! A CMOS inverter conducts a *switching* (short-circuit) current only while
//! both its NMOS and PMOS halves are on, i.e. for input voltages between the
//! two thresholds. The series composition makes the smaller of the two
//! device currents dominate:
//!
//! `I_cell(V) ≈ 1 / (1/I_n(V) + 1/I_p(V))`
//!
//! With the NMOS current rising (exponentially, then quadratically) in `V`
//! and the PMOS current falling symmetrically, `I_cell` traces a bell centred
//! where the two currents match — the paper's Fig. 2(b). Floating-gate
//! threshold programming moves the bell's centre and width, turning each
//! cell into a programmable 1-D kernel evaluator.
//!
//! Stacking one such cell per input (the paper's V_X, V_Y, V_Z) yields the
//! multi-input inverter whose current is the paper's harmonic composition
//! `1/(1/I_1 + 1/I_2 + 1/I_3)` — a Harmonic-Mean-of-Gaussian-like (HMG)
//! kernel with rectilinear (axis-aligned) tail contours rather than the
//! elliptical contours of a true multivariate Gaussian (Fig. 2(c,d)).

use crate::mosfet::Mosfet;
use crate::params::TechParams;
use crate::{DeviceError, Result};

/// Grid points per block of the half-power search in
/// [`GaussianLikeCell::effective_sigma`]: one current evaluation tests a
/// block, and about log₂ of it more locate the crossing inside it.
const HALF_POWER_BLOCK: usize = 64;

/// A single programmable Gaussian-like current cell: an NMOS/PMOS pair in
/// series, with both thresholds set by floating gates.
///
/// ```
/// use navicim_device::inverter::GaussianLikeCell;
/// use navicim_device::params::TechParams;
///
/// let tech = TechParams::cmos_45nm();
/// let cell = GaussianLikeCell::with_center(&tech, 0.6);
/// assert!((cell.center() - 0.6).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaussianLikeCell {
    nmos: Mosfet,
    pmos: Mosfet,
    vdd: f64,
    center: f64,
    overlap: f64,
}

impl GaussianLikeCell {
    /// Default conduction-window width (volts) when only a centre is given.
    const DEFAULT_OVERLAP: f64 = 0.3;

    /// Creates a cell with its bell centred at `center` volts and the
    /// default conduction window.
    ///
    /// Out-of-rail centres are clamped to `[0, V_DD]`.
    pub fn with_center(tech: &TechParams, center: f64) -> Self {
        Self::with_center_width(tech, center, Self::DEFAULT_OVERLAP)
            .expect("default overlap is always valid")
    }

    /// Creates a cell with a programmed centre and conduction-window width
    /// (`overlap`, volts). A larger overlap widens the bell.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::InvalidParameter`] when `overlap` is not in
    /// `(0, V_DD]`.
    pub fn with_center_width(tech: &TechParams, center: f64, overlap: f64) -> Result<Self> {
        if !(overlap > 0.0 && overlap <= tech.vdd) {
            return Err(DeviceError::InvalidParameter(format!(
                "overlap must be in (0, vdd], got {overlap}"
            )));
        }
        let center = center.clamp(0.0, tech.vdd);
        // Effective thresholds that place the conduction window of width
        // `overlap` symmetrically around `center`:
        //   vth_n' = center − overlap/2
        //   vth_p' = vdd − center − overlap/2
        let vth_n_eff = center - overlap * 0.5;
        let vth_p_eff = tech.vdd - center - overlap * 0.5;
        let nmos = Mosfet::nmos(tech).with_vth_shift(vth_n_eff - tech.vth_n);
        let pmos = Mosfet::pmos(tech)
            .with_vth_shift(vth_p_eff - tech.vth_p)
            // Match the weaker PMOS to the NMOS so the bell is symmetric.
            .with_beta_scale(tech.k_n / tech.k_p);
        Ok(Self {
            nmos,
            pmos,
            vdd: tech.vdd,
            center,
            overlap,
        })
    }

    /// Programmed bell centre in volts.
    pub fn center(&self) -> f64 {
        self.center
    }

    /// Programmed conduction-window width in volts.
    pub fn overlap(&self) -> f64 {
        self.overlap
    }

    /// Supply voltage.
    pub fn vdd(&self) -> f64 {
        self.vdd
    }

    /// Switching current at input voltage `v` (clamped to the rails), in
    /// amperes. Never returns zero thanks to the technology leakage floor.
    pub fn current(&self, v: f64) -> f64 {
        let v = v.clamp(0.0, self.vdd);
        let i_n = self.nmos.saturation_current(v);
        let i_p = self.pmos.saturation_current(self.vdd - v);
        1.0 / (1.0 / i_n + 1.0 / i_p)
    }

    /// Peak switching current (at the bell centre), in amperes.
    pub fn peak_current(&self) -> f64 {
        self.current(self.center)
    }

    /// Effective Gaussian σ (volts) of the bell, measured from its
    /// half-maximum width: `σ = FWHM / 2.3548`.
    ///
    /// Each half-power point is the first voltage of the grid
    /// `center, center ± 1e-4, center ± 2e-4, …` (every point the previous
    /// one plus the signed step, in floating point) that reaches the rail
    /// or where the current no longer exceeds half the peak. The grid is
    /// built 64 points at a time; the first block whose last point fails
    /// is bisected. That finds the same point as a scan of the whole grid
    /// only if the flank falls monotonically from the centre to the rail.
    /// The unit tests check that assumption on both technology nodes,
    /// several temperatures, mismatched cells, overlaps across the
    /// programmable range and centres at both rails.
    pub fn effective_sigma(&self) -> f64 {
        let half = self.peak_current() * 0.5;
        let right = self.half_power_point(half, 1e-4, |v| v < self.vdd);
        let left = self.half_power_point(half, -1e-4, |v| v > 0.0);
        (right - left) / 2.354_820_045
    }

    /// First grid point `center + m·step` (accumulated by repeated
    /// addition) where `inside(v) && current(v) > half` fails.
    fn half_power_point(&self, half: f64, step: f64, inside: impl Fn(f64) -> bool) -> f64 {
        let above = |v: f64| inside(v) && self.current(v) > half;
        let mut block = [0.0; HALF_POWER_BLOCK];
        let mut v = self.center;
        loop {
            for slot in &mut block {
                *slot = v;
                v += step;
            }
            if !above(block[HALF_POWER_BLOCK - 1]) {
                return block[block.partition_point(|&v| above(v))];
            }
        }
    }

    /// Applies per-device mismatch: threshold shifts (volts) and relative
    /// transconductance errors for the NMOS/PMOS halves.
    pub fn with_mismatch(mut self, dvth_n: f64, dvth_p: f64, dbeta_n: f64, dbeta_p: f64) -> Self {
        self.nmos = self
            .nmos
            .with_vth_shift(dvth_n)
            .with_beta_scale((1.0 + dbeta_n).max(0.01));
        self.pmos = self
            .pmos
            .with_vth_shift(dvth_p)
            .with_beta_scale((1.0 + dbeta_p).max(0.01));
        // The centre moves with the average threshold imbalance.
        self.center = (self.center + (dvth_n - dvth_p) * 0.5).clamp(0.0, self.vdd);
        self
    }
}

/// A multi-input inverter: one [`GaussianLikeCell`] per input dimension,
/// composed in series so the total current is the paper's harmonic
/// combination of the per-input bells.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiInputInverter {
    cells: Vec<GaussianLikeCell>,
}

impl MultiInputInverter {
    /// Creates a multi-input inverter from per-dimension cells.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::InvalidParameter`] for an empty cell list.
    pub fn new(cells: Vec<GaussianLikeCell>) -> Result<Self> {
        if cells.is_empty() {
            return Err(DeviceError::InvalidParameter(
                "multi-input inverter requires at least one cell".into(),
            ));
        }
        Ok(Self { cells })
    }

    /// Convenience constructor: one cell per centre voltage, shared width.
    ///
    /// # Errors
    ///
    /// Propagates cell-construction errors.
    pub fn from_centers(tech: &TechParams, centers: &[f64], overlap: f64) -> Result<Self> {
        let cells = centers
            .iter()
            .map(|&c| GaussianLikeCell::with_center_width(tech, c, overlap))
            .collect::<Result<Vec<_>>>()?;
        Self::new(cells)
    }

    /// Number of inputs.
    pub fn num_inputs(&self) -> usize {
        self.cells.len()
    }

    /// Per-dimension cells.
    pub fn cells(&self) -> &[GaussianLikeCell] {
        &self.cells
    }

    /// Series switching current for the given input voltages:
    /// `1 / Σᵢ 1/I_cell_i(vᵢ)`.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the number of cells.
    pub fn current(&self, inputs: &[f64]) -> f64 {
        assert_eq!(
            inputs.len(),
            self.cells.len(),
            "input count must match cell count"
        );
        let inv_sum: f64 = self
            .cells
            .iter()
            .zip(inputs)
            .map(|(cell, &v)| 1.0 / cell.current(v))
            .sum();
        1.0 / inv_sum
    }

    /// Peak current when every input sits at its cell centre.
    pub fn peak_current(&self) -> f64 {
        let centers: Vec<f64> = self.cells.iter().map(|c| c.center()).collect();
        self.current(&centers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use navicim_math::rng::{Pcg32, SampleExt};

    fn tech() -> TechParams {
        TechParams::cmos_45nm()
    }

    /// The half-power search as a linear scan in `1e-4` V steps: the
    /// reference [`GaussianLikeCell::effective_sigma`] must match bit for
    /// bit.
    fn effective_sigma_linear_scan(cell: &GaussianLikeCell) -> f64 {
        let half = cell.peak_current() * 0.5;
        let step = 1e-4;
        let mut right = cell.center;
        while right < cell.vdd && cell.current(right) > half {
            right += step;
        }
        let mut left = cell.center;
        while left > 0.0 && cell.current(left) > half {
            left -= step;
        }
        (right - left) / 2.354_820_045
    }

    /// Whether `inside(v) && current(v) > half` holds on a prefix of the
    /// grid `center + m·step` and fails on the rest up to the rail: the
    /// monotone flank the bisection relies on.
    fn flank_is_partitioned(
        cell: &GaussianLikeCell,
        step: f64,
        inside: impl Fn(f64) -> bool,
    ) -> bool {
        let half = cell.peak_current() * 0.5;
        let mut v = cell.center;
        let mut crossed = false;
        while inside(v) {
            let above = cell.current(v) > half;
            if above && crossed {
                return false;
            }
            crossed |= !above;
            v += step;
        }
        true
    }

    #[test]
    fn bell_peaks_at_programmed_center() {
        let t = tech();
        for &c in &[0.3, 0.5, 0.7] {
            let cell = GaussianLikeCell::with_center(&t, c);
            let peak = cell.current(c);
            for &v in &[c - 0.2, c - 0.1, c + 0.1, c + 0.2] {
                assert!(cell.current(v) < peak, "center {c}: I({v}) >= I({c})");
            }
        }
    }

    #[test]
    fn bell_is_symmetric_near_center() {
        let cell = GaussianLikeCell::with_center(&tech(), 0.5);
        for &dv in &[0.05, 0.1, 0.15] {
            let a = cell.current(0.5 + dv);
            let b = cell.current(0.5 - dv);
            assert!((a / b - 1.0).abs() < 0.05, "asymmetric at dv={dv}");
        }
    }

    #[test]
    fn current_decays_monotonically_from_center() {
        let cell = GaussianLikeCell::with_center(&tech(), 0.5);
        let mut prev = cell.current(0.5);
        let mut v = 0.5;
        while v < 0.95 {
            v += 0.02;
            let i = cell.current(v);
            assert!(i < prev, "non-monotone decay at {v}");
            prev = i;
        }
    }

    #[test]
    fn tails_are_orders_of_magnitude_below_peak() {
        let cell = GaussianLikeCell::with_center(&tech(), 0.5);
        let peak = cell.peak_current();
        assert!(cell.current(0.0) < peak * 1e-3);
        assert!(cell.current(1.0) < peak * 1e-3);
    }

    #[test]
    fn gaussian_fit_quality() {
        // Least-squares fit of log I to a parabola should explain nearly
        // all variance near the bell core ("Gaussian-like").
        let cell = GaussianLikeCell::with_center(&tech(), 0.5);
        let sigma = cell.effective_sigma();
        let points: Vec<(f64, f64)> = (0..61)
            .map(|k| {
                let v = 0.5 + (k as f64 - 30.0) / 30.0 * 1.5 * sigma;
                (v, cell.current(v).ln())
            })
            .collect();
        // Fit y = a + b v + c v² by normal equations.
        let n = points.len() as f64;
        let (mut sx, mut sx2, mut sx3, mut sx4) = (0.0, 0.0, 0.0, 0.0);
        let (mut sy, mut sxy, mut sx2y) = (0.0, 0.0, 0.0);
        for &(x, y) in &points {
            sx += x;
            sx2 += x * x;
            sx3 += x * x * x;
            sx4 += x * x * x * x;
            sy += y;
            sxy += x * y;
            sx2y += x * x * y;
        }
        use navicim_math::linalg::Matrix;
        let a = Matrix::from_rows(&[&[n, sx, sx2], &[sx, sx2, sx3], &[sx2, sx3, sx4]]).unwrap();
        let coef = a.solve(&[sy, sxy, sx2y]).unwrap();
        let mean_y = sy / n;
        let mut ss_res = 0.0;
        let mut ss_tot = 0.0;
        for &(x, y) in &points {
            let pred = coef[0] + coef[1] * x + coef[2] * x * x;
            ss_res += (y - pred) * (y - pred);
            ss_tot += (y - mean_y) * (y - mean_y);
        }
        let r2 = 1.0 - ss_res / ss_tot;
        assert!(r2 > 0.95, "log-quadratic fit R² = {r2}");
        assert!(coef[2] < 0.0, "parabola must open downward");
    }

    #[test]
    fn half_power_bisection_matches_linear_scan() {
        // Programmable overlaps run from the analog crate's smallest
        // window (0.05 V) up to the supply.
        const MIN_OVERLAP: f64 = 0.05;
        let techs = [
            TechParams::cmos_45nm(),
            TechParams::cmos_16nm(),
            TechParams::cmos_45nm().at_temperature(250.0),
            TechParams::cmos_45nm().at_temperature(380.0),
            TechParams::cmos_16nm().at_temperature(350.0),
        ];
        let mut rng = Pcg32::seed_from_u64(0x4a1f);
        let mut cases = 0;
        for t in &techs {
            let rail_centers = [0.0, 1e-5, 0.003, t.vdd - 0.003, t.vdd - 1e-5, t.vdd];
            for case in 0..48 {
                let overlap = match case {
                    0 => MIN_OVERLAP,
                    1 => t.vdd,
                    _ => rng.sample_uniform(MIN_OVERLAP, t.vdd),
                };
                let center = if case % 3 == 0 {
                    rail_centers[(case / 3) % rail_centers.len()]
                } else {
                    rng.sample_uniform(0.0, t.vdd)
                };
                let nominal = GaussianLikeCell::with_center_width(t, center, overlap).unwrap();
                let mismatched = nominal.with_mismatch(
                    rng.sample_uniform(-3.0, 3.0) * t.sigma_vth,
                    rng.sample_uniform(-3.0, 3.0) * t.sigma_vth,
                    rng.sample_uniform(-3.0, 3.0) * t.sigma_beta,
                    rng.sample_uniform(-3.0, 3.0) * t.sigma_beta,
                );
                for cell in [nominal, mismatched] {
                    let vdd = cell.vdd;
                    assert!(
                        flank_is_partitioned(&cell, 1e-4, |v| v < vdd)
                            && flank_is_partitioned(&cell, -1e-4, |v| v > 0.0),
                        "non-monotone flank: {cell:?}"
                    );
                    let got = cell.effective_sigma();
                    let want = effective_sigma_linear_scan(&cell);
                    assert_eq!(got.to_bits(), want.to_bits(), "{cell:?}: {got} vs {want}");
                    cases += 1;
                }
            }
        }
        assert_eq!(cases, techs.len() * 48 * 2);
    }

    #[test]
    fn overlap_controls_width() {
        let t = tech();
        let narrow = GaussianLikeCell::with_center_width(&t, 0.5, 0.2).unwrap();
        let wide = GaussianLikeCell::with_center_width(&t, 0.5, 0.5).unwrap();
        assert!(wide.effective_sigma() > narrow.effective_sigma());
    }

    #[test]
    fn invalid_overlap_rejected() {
        let t = tech();
        assert!(GaussianLikeCell::with_center_width(&t, 0.5, 0.0).is_err());
        assert!(GaussianLikeCell::with_center_width(&t, 0.5, 2.0).is_err());
    }

    #[test]
    fn mismatch_shifts_center() {
        let cell = GaussianLikeCell::with_center(&tech(), 0.5);
        let shifted = cell.with_mismatch(0.05, -0.05, 0.0, 0.0);
        assert!(shifted.center() > cell.center());
    }

    #[test]
    fn multi_input_harmonic_composition() {
        let t = tech();
        let inv = MultiInputInverter::from_centers(&t, &[0.4, 0.5, 0.6], 0.3).unwrap();
        let v = [0.45, 0.5, 0.55];
        let i = inv.current(&v);
        let expect = 1.0
            / inv
                .cells()
                .iter()
                .zip(&v)
                .map(|(c, &x)| 1.0 / c.current(x))
                .sum::<f64>();
        assert!((i / expect - 1.0).abs() < 1e-12);
    }

    #[test]
    fn multi_input_dominated_by_weakest_cell() {
        // When one input sits far in a tail, the total current collapses to
        // (slightly below) that cell's tail current — min-like behaviour
        // that produces the paper's rectilinear contours.
        let t = tech();
        let inv = MultiInputInverter::from_centers(&t, &[0.5, 0.5], 0.3).unwrap();
        let i = inv.current(&[0.5, 0.1]);
        let weak = inv.cells()[1].current(0.1);
        assert!(i <= weak);
        assert!(i > weak * 0.5);
    }

    #[test]
    fn multi_input_peak_at_centers() {
        let t = tech();
        let inv = MultiInputInverter::from_centers(&t, &[0.3, 0.6], 0.3).unwrap();
        let peak = inv.peak_current();
        assert!(peak > inv.current(&[0.3, 0.5]));
        assert!(peak > inv.current(&[0.4, 0.6]));
    }

    #[test]
    fn empty_cell_list_rejected() {
        assert!(MultiInputInverter::new(vec![]).is_err());
    }

    #[test]
    fn rails_clamping() {
        let cell = GaussianLikeCell::with_center(&tech(), 0.5);
        assert_eq!(cell.current(-5.0), cell.current(0.0));
        assert_eq!(cell.current(5.0), cell.current(1.0));
    }
}
