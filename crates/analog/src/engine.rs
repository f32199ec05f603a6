//! The end-to-end analog likelihood engine.
//!
//! [`HmgmCimEngine`] programs a fitted HMG mixture onto a [`CimArray`] and
//! serves log-likelihood queries through the DAC → array → log-ADC chain,
//! while counting the operations the energy model needs.
//!
//! The engine is split into two layers so many sessions can share one
//! fabricated substrate:
//!
//! - [`CimCompute`] is the immutable compiled fabric (array, DACs, ADC,
//!   space map, noise model, code LUT) held behind an `Arc`. It is `Sync`
//!   and evaluates batches purely — every mutable bit of an evaluation
//!   (noise index, counters) is passed in.
//! - [`HmgmCimEngine`] is one *session* over that fabric: it owns the
//!   counter-based [`NoiseStream`] cursor and the [`EngineStats`].
//!   [`HmgmCimEngine::fork_session`] spawns additional sessions that share
//!   the `Arc`'d fabric, and a serving layer can coalesce many sessions'
//!   queries into one [`CimCompute::eval_segments`] call (each segment
//!   carrying its own stream) with bit-identical per-session results.
//!
//! # The evaluation chain, exact and 4-wide
//!
//! The direct path ([`HmgmCimEngine::with_direct_eval`]) is the physical
//! reference: per point, DAC voltages feed the device model, the array
//! sums its column currents, a counter-indexed standard normal
//! ([`NoiseStream::at`]) perturbs the total, and the log-ADC converts it
//! with libm `ln`. The default LUT path reproduces it **bit for bit** and
//! runs every group of four points through one lane body, gated or not:
//!
//! 1. **DAC codes.** The constants of `AxisMap::to_voltage` and
//!    `Dac::code_for` are hoisted per axis at build; each lane repeats the
//!    scalar clamps, division, `round` and `min` exactly.
//! 2. **Currents.** The per-code reciprocal table is column-contiguous
//!    (`recips[(axis·levels + code)·K + column]`), so a point's per-column
//!    reciprocal sums, `1/Σ` and `replicas·` are 4-wide loads over
//!    columns, added into the total one column at a time in column order.
//! 3. **Noise + log-ADC.** The ADC emits only an integer code, so the
//!    lanes compute its coordinate `ŷ = (clamp(ln Î) − ln_min)/(ln_max −
//!    ln_min)·(2^bits − 1)` with bounded-error lane approximations of the
//!    Box–Muller `ln`/`cos` and of the ADC `ln`
//!    ([`navicim_math::simd::ln_fast`],
//!    [`navicim_math::simd::cos_turns_fast`]) and a one-root noise scale.
//!    The code `round(ŷ)` is emitted only when `ŷ` is farther than
//!    [`ADC_GUARD_CODES`] from a rounding boundary *and* the lane's
//!    worst-case deviation from the exact `ŷ` — the ADC `ln` error plus
//!    the noise error [`Z_FAST_MAX_ABS_ERR`]` · rms / Î` — provably stays
//!    within [`GUARD_DEVIATION_SHARE`] of that budget. Then the exact
//!    chain rounds to the same code, so the output `ln_min + code · lsb`
//!    is the exact one. Every other lane, every non-finite lane and every
//!    lane of a short remainder group runs the exact scalar chain with
//!    `stream.at(index)`.
//!
//! The pre-noise current — and with it [`EngineStats`] and energy — never
//! goes through an approximation.

use std::sync::Arc;

use crate::adc::LogAdc;
use crate::array::{calibrate_overlap, device_sigma_range, CimArray, CimColumn};
use crate::dac::Dac;
use crate::mapping::{AxisMap, SpaceMap};
use crate::{AnalogError, Result};
use navicim_backend::{check_batch_shape, par, LikelihoodBackend, PointBatch};
use navicim_device::inverter::{GaussianLikeCell, MultiInputInverter};
use navicim_device::noise::{NoiseModel, NoiseStream};
use navicim_device::params::TechParams;
use navicim_device::variation::ProcessVariation;
use navicim_gmm::hmg::HmgmModel;
use navicim_gmm::prune::{PruneConfig, PruneIndex, PruneScratch, PRUNE_TILE};
use navicim_math::rng::Pcg32;
use navicim_math::simd::{F64x4, COS_TURNS_FAST_MAX_ABS_ERR, LANES, LN_FAST_MAX_ULP};
use std::sync::atomic::{AtomicU64, Ordering};

/// Device slack (nats) in the CIM column-gating margin, which totals
/// `ln K +` this value (see
/// [`PruneIndex::for_hmg_parts_with_margin`]).
///
/// The index bounds the *mathematical* replica-weighted HMG mixture, but
/// the array evaluates its device realization — process variation,
/// DAC/ADC quantization and inverter-bell shape mismatch all perturb
/// per-column contributions. The log-ADC resolves ~0.08-nat steps, so a
/// column is visible only when its relative contribution reaches ~4%;
/// with this slack the summed dropped columns stay below `e⁻¹² ≈ 6·10⁻⁶`
/// relative, leaving ~3 decades of head-room for device-induced swing
/// while still gating on device-constrained sigma floors (the minimum
/// programmable kernel width is a fixed fraction of the map span, so
/// margins in the digital `ln(K/ε)` regime would rarely gate anything).
/// One residual: gated far columns stop conducting their leakage-level
/// currents, so deep-tail evaluations — where the total current is
/// itself near the leakage floor — may shift by an ADC step;
/// likelihoods there are floor-dominated noise either way. Gating
/// defaults off.
pub const CIM_PRUNE_SLACK_NATS: f64 = 12.0;

/// Configuration of a CIM likelihood engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CimEngineConfig {
    /// Technology node parameters.
    pub tech: TechParams,
    /// Input DAC resolution in bits (the paper operates at 4 bits).
    pub dac_bits: u32,
    /// Log-ADC resolution in bits.
    pub adc_bits: u32,
    /// Maximum replica count available per component for weight encoding.
    pub max_replicas: u32,
    /// Process-variation severity (0 = ideal, 1 = nominal process).
    pub variation_severity: f64,
    /// Evaluation bandwidth for the noise model, in hertz.
    pub noise_bandwidth: f64,
    /// Seed for variation sampling and per-evaluation noise.
    pub seed: u64,
}

impl Default for CimEngineConfig {
    fn default() -> Self {
        Self {
            tech: TechParams::cmos_45nm(),
            dac_bits: 4,
            adc_bits: 8,
            max_replicas: 5,
            variation_severity: 1.0,
            noise_bandwidth: 1e8,
            seed: 0x5eed_c1a0,
        }
    }
}

/// Operation counters exposed to the energy model.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EngineStats {
    /// Likelihood evaluations served.
    pub evaluations: u64,
    /// Input DAC conversions performed (one per axis per evaluation).
    pub dac_conversions: u64,
    /// ADC conversions performed (one per evaluation).
    pub adc_conversions: u64,
    /// Sum of total array currents over all evaluations, in amperes
    /// (divide by `evaluations` for the average conduction current).
    pub current_sum: f64,
    /// Analog column activations actually driven. Column gating skips
    /// the DAC→array drive of pruned columns, so this falls below
    /// [`Self::column_slots`] exactly by the skipped activations.
    pub column_activations: u64,
    /// Column activation slots offered (evaluations × array columns);
    /// equals [`Self::column_activations`] whenever gating is off.
    pub column_slots: u64,
}

impl EngineStats {
    /// Average total array current per evaluation, in amperes.
    pub fn avg_current(&self) -> f64 {
        if self.evaluations == 0 {
            0.0
        } else {
            self.current_sum / self.evaluations as f64
        }
    }

    /// Fraction of offered column slots actually driven — the factor the
    /// energy model scales per-evaluation DAC drive energy by. `1.0`
    /// when no slots were offered (ungated or idle engines).
    pub fn active_column_fraction(&self) -> f64 {
        if self.column_slots == 0 {
            1.0
        } else {
            self.column_activations as f64 / self.column_slots as f64
        }
    }
}

/// Domain separator between the build-time variation RNG and the
/// evaluation noise stream, both derived from [`CimEngineConfig::seed`].
const NOISE_STREAM_SALT: u64 = 0xa0a1_0c1a_77ab_1e5e;

/// Error budget of the guarded fast ADC decision, in ADC code units.
///
/// The 4-wide readout computes the code coordinate `ŷ` with lane
/// approximations and emits `round(ŷ)` only when `|frac(ŷ) − ½|` exceeds
/// this budget *and* the lane's worst-case deviation from the exact
/// chain's `ŷ` provably stays within [`GUARD_DEVIATION_SHARE`] of it —
/// half for the ADC `ln`, half for the noise sample (see
/// [`Z_FAST_MAX_ABS_ERR`]). The exact `ŷ` then rounds to the same code.
/// Every other lane runs the exact libm chain; only a `~2·10⁻⁶` share of
/// lanes lands inside the budget and pays for it.
pub const ADC_GUARD_CODES: f64 = 1e-6;

/// Share of [`ADC_GUARD_CODES`] a decided lane's worst-case deviation may
/// use. Keeping the bound a thousand times inside the budget leaves the
/// guard ≥ 1000× the worst deviation any decided lane can carry.
pub const GUARD_DEVIATION_SHARE: f64 = 1e-3;

/// Bound on the fast chain's noise-sample deviation from the exact one,
/// in units of the exact noise RMS: `|rms_f·z_f − rms_e·z_e| ≤
/// Z_FAST_MAX_ABS_ERR · rms_e`, where `z_e` is [`NoiseStream::at`].
///
/// The radius `r = √(−2·ln u)` is below `√(2·53·ln 2) < 8.58` because
/// `u ≥ 2⁻⁵³`, and so is `|z|`. `ln_fast` is within [`LN_FAST_MAX_ULP`]
/// ulp, a relative `LN_FAST_MAX_ULP·ε`, which the square root halves; the
/// roundings of `−2·ln u` and `√` add `ε` relative; `cos_turns_fast` is
/// within [`COS_TURNS_FAST_MAX_ABS_ERR`]; `r·cos` and `rms·z` round once
/// each in both chains (`2·ε/2·r`); and the one-root noise scale
/// ([`NoiseModel::variance_per_amp`]) is within `4·ε` relative of
/// [`NoiseModel::total_rms`].
pub const Z_FAST_MAX_ABS_ERR: f64 =
    8.58 * ((LN_FAST_MAX_ULP as f64 + 6.0) * f64::EPSILON + COS_TURNS_FAST_MAX_ABS_ERR);

/// Per-DAC-code reciprocal cell currents, laid out column-contiguous.
///
/// The DAC quantizes every axis to `2^dac_bits` output voltages, so the
/// device model's EKV exponentials only ever see a finite set of inputs.
/// This table caches `1/I_cell(dac.output(code))` for every
/// `(axis, code, column)` triple after process variation is applied —
/// the *exact* reciprocal the direct path divides by, so replaying the
/// direct path's summation order over table entries reproduces its
/// total current bit for bit while skipping all per-evaluation device
/// math. Built once per engine; disabled (falling back to the direct
/// path) when the code space is too large to cache.
///
/// Layout: `recips[(axis·levels + code)·K + column]`. A point's DAC code
/// on an axis selects one *row* of `K` consecutive columns, so the
/// per-column reciprocal sums, `1/Σ` and `replicas·` of a point run over
/// contiguous 4-wide loads (see [`Self::totals`]).
#[derive(Debug, Clone)]
struct CodeLut {
    /// `1/I_cell`, index `(axis·levels + code)·K + column`.
    recips: Vec<f64>,
    /// Per-column replica counts as f64 — the exact factor
    /// `CimColumn::current` multiplies by.
    replicas: Vec<f64>,
    levels: usize,
}

/// A set of array columns a LUT evaluation drives, in ascending order:
/// every column ([`AllColumns`]) or a gated survivor list (`&[u32]`).
/// Monomorphized, so the ungated loop loads contiguously and the gated
/// one gathers, with no per-column dispatch.
trait ColumnSet: Copy {
    /// Number of columns in the set.
    fn len(self) -> usize;
    /// The `i`-th column of the set.
    fn col(self, i: usize) -> usize;
    /// `table[row + col(i + l)]` for lanes `l = 0..4`.
    fn load4(self, table: &[f64], row: usize, i: usize) -> F64x4;
}

/// Every one of the array's `K` columns.
#[derive(Debug, Clone, Copy)]
struct AllColumns(usize);

impl ColumnSet for AllColumns {
    #[inline(always)]
    fn len(self) -> usize {
        self.0
    }
    #[inline(always)]
    fn col(self, i: usize) -> usize {
        i
    }
    #[inline(always)]
    fn load4(self, table: &[f64], row: usize, i: usize) -> F64x4 {
        F64x4::load(&table[row + i..])
    }
}

impl ColumnSet for &[u32] {
    #[inline(always)]
    fn len(self) -> usize {
        <[u32]>::len(self)
    }
    #[inline(always)]
    fn col(self, i: usize) -> usize {
        self[i] as usize
    }
    #[inline(always)]
    fn load4(self, table: &[f64], row: usize, i: usize) -> F64x4 {
        F64x4::new([
            table[row + self[i] as usize],
            table[row + self[i + 1] as usize],
            table[row + self[i + 2] as usize],
            table[row + self[i + 3] as usize],
        ])
    }
}

impl CodeLut {
    /// Cap on cached entries (8 MiB of f64): a 4-bit DAC over 100
    /// components × 3 axes needs just 4.8 k entries, but a 16-bit DAC
    /// would need ~20 M — past the cap the direct path wins on locality.
    const MAX_ENTRIES: usize = 1 << 20;

    fn build(array: &CimArray, dacs: &[Dac]) -> Option<Self> {
        let dim = array.num_inputs();
        let k = array.num_columns();
        let levels = dacs.first()?.levels() as usize;
        if dacs.len() != dim || dacs.iter().any(|d| d.levels() as usize != levels) {
            return None;
        }
        let entries = k.checked_mul(dim)?.checked_mul(levels)?;
        if entries > Self::MAX_ENTRIES {
            return None;
        }
        let mut recips = vec![0.0; entries];
        for (j, col) in array.columns().iter().enumerate() {
            for (axis, cell) in col.inverter().cells().iter().enumerate() {
                for code in 0..levels {
                    recips[(axis * levels + code) * k + j] =
                        1.0 / cell.current(dacs[axis].output(code as u64));
                }
            }
        }
        let replicas = array
            .columns()
            .iter()
            .map(|c| c.replicas() as f64)
            .collect();
        Some(Self {
            recips,
            replicas,
            levels,
        })
    }

    /// Offset of the row holding `code` on `axis`.
    #[inline(always)]
    fn row(&self, axis: usize, code: usize) -> usize {
        (axis * self.levels + code) * self.replicas.len()
    }

    /// Total array currents of four points over the column set `cols`;
    /// point `p`'s row offsets (one per axis, see [`Self::row`]) are
    /// `rows[p·dim..(p + 1)·dim]`.
    ///
    /// Reproduces `CimArray::total_current` per point exactly: per-column
    /// reciprocal sum in axis order from 0.0, `replicas · (1/Σ)` per
    /// column, column-order total from 0.0 — mul *then* add. Four columns
    /// at a time share one vector of sums, reciprocals and products; the
    /// total then adds their lanes one column at a time, so no column
    /// order changes. Over the full set this is bit-identical to the
    /// direct path; over a gated subset, to the same subset evaluated one
    /// column at a time.
    #[inline(always)]
    fn totals<S: ColumnSet>(&self, rows: &[usize], cols: S) -> [f64; LANES] {
        let dim = rows.len() / LANES;
        let n = cols.len();
        let mut totals = [0.0; LANES];
        let mut i = 0;
        while i + LANES <= n {
            let repl = cols.load4(&self.replicas, 0, i);
            for (p, total) in totals.iter_mut().enumerate() {
                let mut inv_sum = F64x4::splat(0.0);
                for &row in &rows[p * dim..(p + 1) * dim] {
                    inv_sum = inv_sum + cols.load4(&self.recips, row, i);
                }
                for term in (repl * (F64x4::splat(1.0) / inv_sum)).to_array() {
                    *total += term;
                }
            }
            i += LANES;
        }
        for i in i..n {
            let j = cols.col(i);
            for (p, total) in totals.iter_mut().enumerate() {
                let mut inv_sum = 0.0;
                for &row in &rows[p * dim..(p + 1) * dim] {
                    inv_sum += self.recips[row + j];
                }
                *total += self.replicas[j] * (1.0 / inv_sum);
            }
        }
        totals
    }
}

/// One axis's world → DAC-code conversion with every constant of
/// [`AxisMap::to_voltage`] and [`Dac::code_for`] hoisted out of the
/// per-point loop: the same clamps, the same division, `round` and `min`,
/// operation for operation, so the code is the one
/// `dac.code_for(axis.to_voltage(x))` returns for every `x` (`NaN`
/// included, which lands on code 0).
#[derive(Debug, Clone, Copy)]
struct AxisCode {
    x_lo: f64,
    scale: f64,
    v_lo: f64,
    v_hi: f64,
    dac_lo: f64,
    dac_hi: f64,
    dac_span: f64,
    top: f64,
    top_code: u64,
}

impl AxisCode {
    fn new(axis: &AxisMap, dac: &Dac) -> Self {
        let (v_lo, v_hi) = axis.voltage_range();
        let (dac_lo, dac_hi) = dac.range();
        Self {
            x_lo: axis.world_range().0,
            scale: axis.scale(),
            v_lo,
            v_hi,
            dac_lo,
            dac_hi,
            dac_span: dac_hi - dac_lo,
            top: (dac.levels() - 1) as f64,
            top_code: dac.levels() - 1,
        }
    }

    #[inline(always)]
    fn code(&self, x: f64) -> usize {
        let v = (self.v_lo + (x - self.x_lo) * self.scale).clamp(self.v_lo, self.v_hi);
        let frac = (v.clamp(self.dac_lo, self.dac_hi) - self.dac_lo) / self.dac_span;
        ((frac * self.top).round() as u64).min(self.top_code) as usize
    }

    /// [`Self::code`] of four lanes, written out so the lanes vectorize.
    #[inline(always)]
    fn code4(&self, x: [f64; LANES]) -> [usize; LANES] {
        [
            self.code(x[0]),
            self.code(x[1]),
            self.code(x[2]),
            self.code(x[3]),
        ]
    }
}

/// The per-evaluation noise + log-ADC readout, shared by every
/// evaluation path: the exact scalar chain ([`Self::finish`]) and the
/// guarded 4-wide one ([`Self::finish4`]).
#[derive(Debug, Clone, Copy)]
struct Readout {
    noise: NoiseModel,
    adc: LogAdc,
    /// Floor the noisy current is clamped to (1% of the leakage current).
    i_floor: f64,
    /// `n·U_T`: the subthreshold transconductance estimate is `I/(n·U_T)`.
    gm_denom: f64,
    /// [`NoiseModel::variance_per_amp`] at that transconductance, so the
    /// fast chain's noise scale is one `√(I·var_per_amp)`.
    var_per_amp: f64,
    /// Smallest `|frac(ŷ) − ½|` a fast lane is decided at:
    /// [`ADC_GUARD_CODES`], or `+inf` (no fast decisions) for an ADC
    /// whose `ln` error alone could exceed half the deviation share.
    margin_min: f64,
    /// Noise admission: a lane whose noisy current `Î` clears its floor
    /// is decided only if `rms · rms_gain ≤ Î`, which holds the noise
    /// sample's effect on `ŷ` to half the deviation share.
    rms_gain: f64,
    /// `ln i_min`, `ln i_max`, the log step and its inverse
    /// `(2^bits − 1)/(ln i_max − ln i_min)`, hoisted from [`LogAdc`].
    ln_min: f64,
    ln_max: f64,
    log_lsb: f64,
    codes_per_nat: f64,
}

impl Readout {
    fn new(noise: NoiseModel, adc: LogAdc, tech: &TechParams) -> Self {
        let gm_denom = tech.slope_n * tech.u_t;
        let (ln_min, ln_max) = adc.ln_range();
        let top = (adc.levels() - 1) as f64;
        let per_nat = top / (ln_max - ln_min);
        let cap = ADC_GUARD_CODES * GUARD_DEVIATION_SHARE;
        // Log part: ln_fast's error where it can matter — currents whose
        // log lies inside the ADC window (outside it both chains clamp to
        // the same edge) — the relative rounding of the noisy sum, and the
        // roundings of both chains' coordinates (the fast one multiplies
        // by a rounded `per_nat` where the exact one divides).
        let ln_mag = ln_min.abs().max(ln_max.abs()) + 1.0;
        let log_part = per_nat
            * (LN_FAST_MAX_ULP as f64 * ln_mag * f64::EPSILON + 2.0 * f64::EPSILON)
            + 8.0 * f64::EPSILON * top;
        let margin_min = if log_part <= cap / 2.0 {
            ADC_GUARD_CODES
        } else {
            f64::INFINITY
        };
        // Noise part: the noisy sums differ by at most rms·Z, so while
        // rms·Z ≤ Î/2, |Δ ln Î| ≤ 2·rms·Z/Î; holding that to cap/2 codes
        // gives the gain.
        let rms_gain = 4.0 * per_nat * Z_FAST_MAX_ABS_ERR / cap;
        Self {
            noise,
            adc,
            i_floor: tech.i_leak * 0.01,
            gm_denom,
            var_per_amp: noise.variance_per_amp(1.0 / gm_denom),
            margin_min,
            rms_gain,
            ln_min,
            ln_max,
            log_lsb: adc.log_lsb(),
            codes_per_nat: per_nat,
        }
    }

    /// The exact chain: noise from the counter-based `z` scaled by the
    /// device model's RMS at the subthreshold transconductance estimate,
    /// then the log-ADC with libm `ln`.
    #[inline]
    fn finish(&self, i_total: f64, z: f64) -> f64 {
        let gm = i_total / self.gm_denom;
        let i_noisy = (i_total + self.noise.sample_with_z(gm, i_total, z)).max(self.i_floor);
        self.adc.convert(i_noisy)
    }

    /// The fast chain for four lanes: Box–Muller with
    /// [`ln_fast`](navicim_math::simd::ln_fast) and
    /// [`cos_turns_fast`](navicim_math::simd::cos_turns_fast), the noise
    /// scale with one square root, and the log-ADC code coordinate with
    /// `ln_fast` (scaled by a multiply where [`LogAdc::code_coord`]
    /// divides). Returns `(ŷ, rms, s)` — the coordinates, the noise scale
    /// and the noisy sum before its floor clamp.
    #[inline(always)]
    fn approx_coords(&self, i_total: F64x4, u: F64x4, v: F64x4) -> (F64x4, F64x4, F64x4) {
        let z = (F64x4::splat(-2.0) * u.ln()).sqrt() * v.cos_turns();
        let rms = (i_total * F64x4::splat(self.var_per_amp)).sqrt();
        let sum = i_total + rms * z;
        let i_noisy = sum.max(F64x4::splat(self.i_floor));
        let ln_i = i_noisy.max(F64x4::splat(1e-300)).ln();
        let clamped = ln_i
            .max(F64x4::splat(self.ln_min))
            .min(F64x4::splat(self.ln_max));
        let y = (clamped - F64x4::splat(self.ln_min)) * F64x4::splat(self.codes_per_nat);
        (y, rms, sum)
    }

    /// The fast chain's code coordinates where the guard can decide the
    /// code from them, `NaN` elsewhere (including every non-finite lane).
    #[inline(always)]
    fn guarded_coords(&self, i_total: F64x4, u: F64x4, v: F64x4) -> [f64; LANES] {
        let (y, rms, sum) = self.approx_coords(i_total, u, v);
        let margin = (y - y.floor() - F64x4::splat(0.5)).abs().to_array();
        let noise_bound = (rms * F64x4::splat(self.rms_gain)).to_array();
        // Floor admission: a noisy sum at least twice its worst noise
        // error below the floor reads `Î = i_floor` in both chains.
        let floor_reach = (sum + rms * F64x4::splat(2.0 * Z_FAST_MAX_ABS_ERR)).to_array();
        let i_noisy = sum.max(F64x4::splat(self.i_floor)).to_array();
        let mut y = y.to_array();
        for p in 0..LANES {
            // Non-short-circuit `&`/`|`: a branch-free select per lane.
            let decided = (margin[p] > self.margin_min)
                & ((noise_bound[p] <= i_noisy[p]) | (floor_reach[p] <= self.i_floor))
                & (i_noisy[p] <= f64::MAX);
            y[p] = if decided { y[p] } else { f64::NAN };
        }
        y
    }

    /// Four evaluations' outputs from their pre-noise currents and noise
    /// draws; bit-identical to [`Self::finish`] with `stream.at(index)`
    /// per lane.
    #[inline(always)]
    fn finish4(&self, i_total: [f64; LANES], draws: &[(NoiseStream, u64); LANES], out: &mut [f64]) {
        let mut u = [0.0; LANES];
        let mut v = [0.0; LANES];
        for p in 0..LANES {
            let (stream, index) = draws[p];
            (u[p], v[p]) = stream.uniforms(index);
        }
        let coords = self.guarded_coords(F64x4::new(i_total), F64x4::new(u), F64x4::new(v));
        // A decided coordinate lies in [0, 2^bits − 1], so its rounding
        // is exactly the code `LogAdc::code_for` picks, and this is
        // `LogAdc::log_current` of it.
        let codes = F64x4::new(coords).round();
        let decided = (F64x4::splat(self.ln_min) + codes * F64x4::splat(self.log_lsb)).to_array();
        for p in 0..LANES {
            out[p] = if coords[p].is_nan() {
                let (stream, index) = draws[p];
                self.finish(i_total[p], stream.at(index))
            } else {
                decided[p]
            };
        }
    }
}

/// One session's slice of a coalesced batch: points
/// `[start, next segment's start)` draw their noise from `stream`,
/// session-locally — point `start + k` uses stream index `cursor + k`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NoiseSegment {
    /// Batch index at which this segment begins.
    pub start: usize,
    /// The owning session's noise stream, cursor positioned at the
    /// segment's first evaluation.
    pub stream: NoiseStream,
}

/// Resolves batch point `idx` to its `(stream, absolute index)` noise
/// draw through a monotone segment cursor: every evaluation path consumes
/// its chunk's indices in increasing order, so after one binary search at
/// the chunk's first point the cursor only ever steps forward — O(1)
/// amortized per point, where a per-point `partition_point` becomes a
/// visible share of noise lookup once a coalesced batch carries many
/// sessions' segments. The lookup stays pure in (segments, idx), so chunk
/// boundaries and thread counts remain unobservable in the output bits.
struct SegCursor<'a> {
    segments: &'a [NoiseSegment],
    pos: usize,
}

impl<'a> SegCursor<'a> {
    fn new(segments: &'a [NoiseSegment], idx: usize) -> Self {
        Self {
            segments,
            pos: segments.partition_point(|s| s.start <= idx) - 1,
        }
    }

    #[inline(always)]
    fn draw(&mut self, idx: usize) -> (NoiseStream, u64) {
        while self.pos + 1 < self.segments.len() && self.segments[self.pos + 1].start <= idx {
            self.pos += 1;
        }
        let seg = &self.segments[self.pos];
        (seg.stream, seg.stream.cursor() + (idx - seg.start) as u64)
    }
}

/// Reusable scratch for [`CimCompute::eval_segments`] (sequential
/// single-chunk path only; threaded chunks carry their own).
#[derive(Debug, Default)]
pub struct EvalScratch {
    /// DAC output voltages of one point (direct path).
    voltages: Vec<f64>,
    /// LUT row offsets of one lane group, `LANES × dim`.
    rows: Vec<usize>,
    prune: PruneScratch,
    /// Per-segment column-activation tallies of the gated LUT path,
    /// zeroed each call (atomics: one segment's tiles may land in
    /// concurrently-running chunks).
    acts: Vec<AtomicU64>,
}

// Manual impl: `AtomicU64` is not `Clone`; snapshot the tallies.
impl Clone for EvalScratch {
    fn clone(&self) -> Self {
        Self {
            voltages: self.voltages.clone(),
            rows: self.rows.clone(),
            prune: self.prune.clone(),
            acts: self
                .acts
                .iter()
                .map(|a| AtomicU64::new(a.load(Ordering::Relaxed)))
                .collect(),
        }
    }
}

/// Column-gating state compiled alongside the fabric: the spatial index
/// over the *programmed* columns plus the query conditioning that maps
/// tile AABBs onto what the DACs actually evaluate.
#[derive(Debug, Clone)]
struct CimPrune {
    /// Culling index over the column centers, weighted by replica counts
    /// (the factors the array multiplies by), at a `ln K +`
    /// [`CIM_PRUNE_SLACK_NATS`] total margin.
    index: PruneIndex,
    /// Per-axis world ranges of the space map — the window the DAC input
    /// clamp folds every query into before conversion.
    ranges: Vec<(f64, f64)>,
    /// Per-axis pad of one DAC step in world units, absorbing input
    /// quantization after the clamp.
    pad: Vec<f64>,
}

/// The immutable compiled CIM fabric: fabricated array, converters, the
/// world→voltage map and the per-code current table.
///
/// Every field is fixed at build time (process variation is drawn once in
/// [`HmgmCimEngine::build`]), so a `CimCompute` is freely shared across
/// threads behind an `Arc` — sessions own only their noise cursor and
/// counters. Evaluation is pure: the caller passes the noise assignment
/// ([`NoiseSegment`]s) and receives pre-noise currents for its own
/// bookkeeping.
#[derive(Debug, Clone)]
pub struct CimCompute {
    array: CimArray,
    dacs: Vec<Dac>,
    map: SpaceMap,
    /// Per-axis hoisted world → DAC-code constants of the LUT path.
    axis_codes: Vec<AxisCode>,
    /// Noise model, log-ADC and the fast-path guard.
    readout: Readout,
    /// Per-DAC-code reciprocal current table; `None` forces the direct
    /// device-model path (see [`HmgmCimEngine::with_direct_eval`]). Both
    /// paths produce bit-identical outputs.
    lut: Option<CodeLut>,
    /// Column gating (see [`HmgmCimEngine::build_with_pruning`]); `None`
    /// drives every column. Gating applies only on the LUT path — the
    /// direct device-model path always evaluates the full array, serving
    /// as the physical reference the gate approximates.
    prune: Option<CimPrune>,
    /// Seed every session's evaluation [`NoiseStream`] starts from
    /// (`config.seed ^ NOISE_STREAM_SALT`).
    noise_seed: u64,
}

impl CimCompute {
    /// Query dimensionality.
    pub fn dim(&self) -> usize {
        self.map.dim()
    }

    /// The compiled array (for inspection and energy accounting).
    pub fn array(&self) -> &CimArray {
        &self.array
    }

    /// The output ADC.
    pub fn adc(&self) -> &LogAdc {
        &self.readout.adc
    }

    /// The seed sessions forked from this fabric start their noise
    /// streams on.
    pub fn noise_seed(&self) -> u64 {
        self.noise_seed
    }

    /// Evaluates a (possibly multi-session) batch against the fabric.
    ///
    /// `segments` assigns noise: the points of `[seg.start, next.start)`
    /// belong to the session whose stream is `seg.stream`, and point
    /// `seg.start + k` draws `seg.stream.at(cursor + k)`. With a single
    /// segment this is exactly the engine's own batch evaluation; with
    /// many, each segment's outputs are bit-identical to the owning
    /// session evaluating its sub-batch alone — the invariant the serving
    /// layer's cross-agent batcher is built on. Pre-noise currents land in
    /// `currents`, and per-segment column activations in `seg_activations`
    /// when given (same length as `segments`), so each session can fold
    /// its slice into its stats in index order and price its gated DAC
    /// drive (see [`HmgmCimEngine::absorb_served_evals`]). Without gating
    /// every segment reports `len × columns`.
    ///
    /// Segments must start at 0, be strictly increasing, and lie inside
    /// the batch. Nothing in `self` mutates; `scratch` is buffer reuse
    /// only.
    ///
    /// Column gating, when compiled in ([`HmgmCimEngine::build_with_pruning`])
    /// and on the LUT path, works in fixed tiles of [`PRUNE_TILE`]
    /// consecutive points anchored at each segment's start: the tile's
    /// clamped+padded AABB is intersected with the culling index and only
    /// surviving columns are driven. Anchoring at segment starts makes
    /// the gating decisions — and therefore the output bits — invariant
    /// under chunk policy *and* under coalescing (a segment's points see
    /// the same tiles whether served solo or inside a mega-batch), while
    /// noise draws stay tied to per-session absolute indices as always.
    /// A tile containing any non-finite coordinate falls back to the
    /// full column set, bit-identical to the ungated path.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch, output/current length mismatch, an
    /// invalid segment list, or a `seg_activations` of the wrong length.
    #[allow(clippy::too_many_arguments)]
    pub fn eval_segments(
        &self,
        batch: &PointBatch,
        segments: &[NoiseSegment],
        out: &mut [f64],
        currents: &mut [f64],
        policy: par::ChunkPolicy,
        scratch: &mut EvalScratch,
        seg_activations: Option<&mut [u64]>,
    ) {
        check_batch_shape(self.map.dim(), batch, out);
        assert_eq!(
            out.len(),
            currents.len(),
            "currents scratch must match batch length"
        );
        let n = batch.len();
        if n == 0 {
            if let Some(acts_out) = seg_activations {
                acts_out.fill(0);
            }
            return;
        }
        assert!(
            !segments.is_empty() && segments[0].start == 0,
            "segments must cover the batch from index 0"
        );
        assert!(
            segments.windows(2).all(|w| w[0].start < w[1].start),
            "segment starts must be strictly increasing"
        );
        assert!(
            segments[segments.len() - 1].start < n,
            "segment start past the end of the batch"
        );
        if let Some(acts_out) = seg_activations.as_deref() {
            assert_eq!(acts_out.len(), segments.len(), "seg_activations length");
        }
        let dim = self.dacs.len();
        let k_cols = self.array.num_columns();
        scratch.voltages.resize(dim, 0.0);
        scratch.rows.resize(LANES * dim, 0);
        let Some(lut) = self.lut.as_ref() else {
            // Direct device-model path: the parity reference every LUT
            // path is bit-identical to.
            let run_direct = |start: usize,
                              out_chunk: &mut [f64],
                              cur_chunk: &mut [f64],
                              voltages: &mut [f64]| {
                let mut cursor = SegCursor::new(segments, start);
                for (i, (o, cur)) in out_chunk.iter_mut().zip(cur_chunk).enumerate() {
                    let idx = start + i;
                    for ((v, &x), (axis, dac)) in voltages
                        .iter_mut()
                        .zip(batch.point(idx))
                        .zip(self.map.axes().iter().zip(&self.dacs))
                    {
                        *v = dac.convert(axis.to_voltage(x));
                    }
                    *cur = self.array.total_current(voltages);
                    let (stream, index) = cursor.draw(idx);
                    *o = self.readout.finish(*cur, stream.at(index));
                }
            };
            if policy.is_single_chunk(n) {
                // Sequential path: reuse the caller's scratch — zero
                // allocation per batch.
                run_direct(0, out, currents, &mut scratch.voltages);
            } else {
                par::zip_chunks_policy(policy, out, currents, |start, out_chunk, cur_chunk| {
                    // lint: allow(hot-path-alloc) threaded chunk closures own their scratch
                    let mut voltages = vec![0.0; dim];
                    run_direct(start, out_chunk, cur_chunk, &mut voltages);
                });
            }
            if let Some(acts_out) = seg_activations {
                ungated_activations(segments, n, k_cols, acts_out);
            }
            return;
        };
        // LUT path, gated or not. Column gating splits each chunk into
        // pieces (chunk ∩ segment ∩ tile, tiles anchored at segment
        // starts; see the method docs), each evaluated over the full
        // tile's survivor set so chunk and segment geometry never leak
        // into the gating decision. Activations are counted per segment
        // through atomics because one segment's tiles may land in
        // concurrently-running chunks; the sums are exact u64 counts, so
        // the tally is deterministic regardless of interleaving. The
        // per-segment tallies live in the reusable scratch so the steady
        // state stays allocation-free once it has grown to the segment
        // count.
        let gate = self.prune.as_ref();
        if gate.is_some() {
            scratch.acts.clear();
            scratch
                .acts
                .resize_with(segments.len(), || AtomicU64::new(0));
        }
        let acts = &scratch.acts;
        let run_lut = |start: usize,
                       out_chunk: &mut [f64],
                       cur_chunk: &mut [f64],
                       rows: &mut [usize],
                       pscratch: &mut PruneScratch| {
            let mut cursor = SegCursor::new(segments, start);
            let Some(gate) = gate else {
                self.eval_lut(
                    lut,
                    AllColumns(k_cols),
                    batch,
                    start,
                    &mut cursor,
                    out_chunk,
                    cur_chunk,
                    rows,
                );
                return;
            };
            let end = start + out_chunk.len();
            let mut si = segments.partition_point(|s| s.start <= start) - 1;
            let mut pos = start;
            while pos < end {
                let seg_start = segments[si].start;
                let seg_end = segments.get(si + 1).map_or(n, |s| s.start);
                let tile_lo = seg_start + ((pos - seg_start) / PRUNE_TILE) * PRUNE_TILE;
                let tile_hi = (tile_lo + PRUNE_TILE).min(seg_end);
                let piece_end = end.min(tile_hi);
                let piece = pos - start..piece_end - start;
                let cands = gate.index.candidates_for_points_clamped(
                    batch.flat_range(tile_lo, tile_hi),
                    &gate.pad,
                    &gate.ranges,
                    pscratch,
                );
                let driven = cands.map_or(k_cols, <[u32]>::len) as u64;
                acts[si].fetch_add(piece.len() as u64 * driven, Ordering::Relaxed);
                let (out_piece, cur_piece) = (&mut out_chunk[piece.clone()], &mut cur_chunk[piece]);
                match cands {
                    Some(cols) => self.eval_lut(
                        lut,
                        cols,
                        batch,
                        pos,
                        &mut cursor,
                        out_piece,
                        cur_piece,
                        rows,
                    ),
                    // Non-finite tile: full-array evaluation, bit-identical
                    // to the ungated path.
                    None => self.eval_lut(
                        lut,
                        AllColumns(k_cols),
                        batch,
                        pos,
                        &mut cursor,
                        out_piece,
                        cur_piece,
                        rows,
                    ),
                }
                pos = piece_end;
                if pos >= seg_end {
                    si += 1;
                }
            }
        };
        if policy.is_single_chunk(n) {
            run_lut(0, out, currents, &mut scratch.rows, &mut scratch.prune);
        } else {
            par::zip_chunks_policy(policy, out, currents, |start, out_chunk, cur_chunk| {
                // lint: allow(hot-path-alloc) threaded chunk closures own their scratch
                let mut rows = vec![0usize; LANES * dim];
                let mut pscratch = PruneScratch::default();
                run_lut(start, out_chunk, cur_chunk, &mut rows, &mut pscratch);
            });
        }
        if let Some(acts_out) = seg_activations {
            if gate.is_some() {
                for (o, a) in acts_out.iter_mut().zip(acts) {
                    *o = a.load(Ordering::Relaxed);
                }
            } else {
                ungated_activations(segments, n, k_cols, acts_out);
            }
        }
    }

    /// LUT evaluation of the batch points `start..start + out.len()` over
    /// one column set, in groups of four lanes.
    ///
    /// Each group computes its DAC codes and table rows, its four total
    /// currents ([`CodeLut::totals`]) and its readout
    /// ([`Readout::finish4`]); a short remainder group repeats its last
    /// point in the spare lanes (their results are dropped) and reads out
    /// through the exact scalar chain. Every lane's arithmetic is the
    /// scalar/direct path's, so grouping, chunk boundaries, thread counts
    /// and the LUT toggle are all unobservable in the output bits, and
    /// noise stays tied to per-session absolute indices.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn eval_lut<S: ColumnSet>(
        &self,
        lut: &CodeLut,
        cols: S,
        batch: &PointBatch,
        start: usize,
        cursor: &mut SegCursor<'_>,
        out: &mut [f64],
        cur: &mut [f64],
        rows: &mut [usize],
    ) {
        let dim = self.axis_codes.len();
        let flat = batch.as_flat();
        let mut draws = [(NoiseStream::new(0), 0u64); LANES];
        let mut i = 0;
        while i < out.len() {
            let m = (out.len() - i).min(LANES);
            let last = start + i + m - 1;
            let lanes = [
                &flat[(start + i) * dim..],
                &flat[(start + i + 1).min(last) * dim..],
                &flat[(start + i + 2).min(last) * dim..],
                &flat[last * dim..],
            ];
            for (axis, ac) in self.axis_codes.iter().enumerate() {
                let x = [
                    lanes[0][axis],
                    lanes[1][axis],
                    lanes[2][axis],
                    lanes[3][axis],
                ];
                let codes = ac.code4(x);
                for p in 0..LANES {
                    rows[p * dim + axis] = lut.row(axis, codes[p]);
                }
            }
            let totals = lut.totals(rows, cols);
            for (p, draw) in draws[..m].iter_mut().enumerate() {
                *draw = cursor.draw(start + i + p);
            }
            if m == LANES {
                self.readout.finish4(totals, &draws, &mut out[i..i + LANES]);
            } else {
                for p in 0..m {
                    let (stream, index) = draws[p];
                    out[i + p] = self.readout.finish(totals[p], stream.at(index));
                }
            }
            cur[i..i + m].copy_from_slice(&totals[..m]);
            i += m;
        }
    }
}

/// Ungated (or direct-path) activations: every evaluation drives every
/// column, so segment `s` reports `len(s) × K`.
fn ungated_activations(segments: &[NoiseSegment], n: usize, k_cols: usize, acts_out: &mut [u64]) {
    for (si, o) in acts_out.iter_mut().enumerate() {
        let seg_len = segments.get(si + 1).map_or(n, |s| s.start) - segments[si].start;
        *o = seg_len as u64 * k_cols as u64;
    }
}

/// An HMG mixture compiled onto an inverter array.
///
/// One value of this type is one evaluation *session*: the compiled
/// fabric lives in a shared [`CimCompute`] behind an `Arc` (see
/// [`Self::fork_session`]), while the session owns its noise cursor,
/// operation counters and scratch.
#[derive(Debug, Clone)]
pub struct HmgmCimEngine {
    compute: Arc<CimCompute>,
    /// Counter-based evaluation noise: evaluation `i` (over the session's
    /// lifetime) is perturbed by `noise_stream.at(i)` regardless of how
    /// queries are batched, chunked or threaded.
    noise_stream: NoiseStream,
    stats: EngineStats,
    /// Reused per-evaluation array-current scratch (stats are merged from
    /// it in index order after each batch).
    currents: Vec<f64>,
    /// Reused DAC scratch for the sequential single-chunk path.
    scratch: EvalScratch,
}

impl HmgmCimEngine {
    /// Compiles `model` onto an inverter array using the world→voltage
    /// `map`, applying programming calibration and process variation.
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::InvalidArgument`] on dimension mismatch and
    /// [`AnalogError::Unrealizable`] when a kernel sigma falls outside the
    /// device's programmable range (constrain the fit with
    /// [`Self::recommended_sigma_bounds`] to avoid this).
    pub fn build(model: &HmgmModel, map: SpaceMap, config: CimEngineConfig) -> Result<Self> {
        if model.dim() != map.dim() {
            return Err(AnalogError::InvalidArgument(format!(
                "model dim {} does not match map dim {}",
                model.dim(),
                map.dim()
            )));
        }
        let tech = config.tech;
        let mut rng = Pcg32::seed_from_u64(config.seed);

        // Program one column per mixture component.
        // lint: reduction-order max-fold is order-insensitive up to NaN, excluded by model validation
        let w_max = model
            .weights()
            .iter()
            .cloned()
            .fold(f64::MIN, f64::max)
            .max(1e-300);
        let mut columns = Vec::with_capacity(model.num_components());
        for (w, kernel) in model.weights().iter().zip(model.kernels()) {
            let mut cells = Vec::with_capacity(kernel.dim());
            for axis in 0..kernel.dim() {
                let center_v = map.axes()[axis].to_voltage(kernel.means()[axis]);
                let sigma_v = map.axes()[axis].sigma_to_voltage(kernel.sigmas()[axis]);
                let overlap = calibrate_overlap(&tech, sigma_v)?;
                cells.push(GaussianLikeCell::with_center_width(
                    &tech, center_v, overlap,
                )?);
            }
            let inverter = MultiInputInverter::new(cells)?;
            let replicas = ((w / w_max * config.max_replicas as f64).round() as u32)
                .clamp(1, config.max_replicas.max(1));
            columns.push(CimColumn::new(inverter, replicas)?);
        }
        let mut array = CimArray::new(columns)?;

        // Fabrication: draw the process-variation corner once.
        if config.variation_severity > 0.0 {
            let pv = ProcessVariation::from_tech(&tech).with_severity(config.variation_severity);
            array.apply_variation(&pv, &mut rng);
        }

        // ADC range: from the deepest plausible tail to the summed peak.
        let i_max = array.max_current() * 1.1;
        let i_min = (i_max * 1e-9).max(tech.i_leak * 0.1);
        let adc = LogAdc::new(config.adc_bits, i_min, i_max)?;
        let dacs = map
            .axes()
            .iter()
            .map(|a| {
                let (lo, hi) = a.voltage_range();
                Dac::new(config.dac_bits, lo, hi)
            })
            .collect::<Result<Vec<_>>>()?;

        // Cache per-code cell currents (post-variation) for the fast
        // evaluation path; exact, so no behavior change.
        let lut = CodeLut::build(&array, &dacs);
        let axis_codes = map
            .axes()
            .iter()
            .zip(&dacs)
            .map(|(axis, dac)| AxisCode::new(axis, dac))
            .collect();
        let noise = NoiseModel::room_temperature(config.noise_bandwidth);

        // The evaluation-noise seed comes from the config seed directly
        // (not from `rng`), so the noise sequence does not depend on how
        // many draws fabrication-time variation consumed.
        let noise_seed = config.seed ^ NOISE_STREAM_SALT;
        Ok(Self {
            compute: Arc::new(CimCompute {
                array,
                dacs,
                map,
                axis_codes,
                readout: Readout::new(noise, adc, &tech),
                lut,
                prune: None,
                noise_seed,
            }),
            noise_stream: NoiseStream::new(noise_seed),
            stats: EngineStats::default(),
            currents: Vec::new(),
            scratch: EvalScratch::default(),
        })
    }

    /// As [`Self::build`], compiling a column-gating index alongside the
    /// fabric when `prune` is enabled.
    ///
    /// The index is built over the *programmed* columns — kernel
    /// geometry from the model, weights replaced by the replica counts
    /// the array actually multiplies by — at a `ln K +`
    /// [`CIM_PRUNE_SLACK_NATS`] total margin tuned to log-ADC visibility
    /// rather than the digital gate. At evaluation time (LUT path only),
    /// tiles of
    /// [`PRUNE_TILE`] points are intersected with the index after
    /// clamping their AABB to each axis's world range (mirroring the DAC
    /// input clamp) and padding by one DAC step (absorbing input
    /// quantization); gated columns are simply not driven, and the
    /// skipped activations are reported through [`EngineStats`] for
    /// energy pricing. With `prune` disabled this is exactly
    /// [`Self::build`].
    pub fn build_with_pruning(
        model: &HmgmModel,
        map: SpaceMap,
        config: CimEngineConfig,
        prune: PruneConfig,
    ) -> Result<Self> {
        let mut engine = Self::build(model, map, config)?;
        if prune.enabled {
            let compute = Arc::make_mut(&mut engine.compute);
            let replica_weights: Vec<f64> = compute
                .array
                .columns()
                .iter()
                .map(|c| c.replicas() as f64)
                .collect();
            if let Some(index) = PruneIndex::for_hmg_parts_with_margin(
                &replica_weights,
                model.kernels(),
                prune,
                (model.num_components() as f64).ln() + CIM_PRUNE_SLACK_NATS,
            ) {
                let ranges = compute.map.axes().iter().map(|a| a.world_range()).collect();
                let pad = compute
                    .map
                    .axes()
                    .iter()
                    .zip(&compute.dacs)
                    .map(|(a, d)| a.sigma_to_world(d.lsb()))
                    .collect();
                compute.prune = Some(CimPrune { index, ranges, pad });
            }
        }
        Ok(engine)
    }

    /// Disables the per-code current table, forcing every evaluation
    /// through the direct DAC → device-model → Kirchhoff-sum path.
    ///
    /// The table caches the *exact* per-code reciprocal currents, so both
    /// paths are bit-identical — this hook exists for parity tests and as
    /// the pre-optimization baseline of the kernel benchmarks.
    ///
    /// Copy-on-write: if the fabric is shared with forked sessions, they
    /// keep the table.
    pub fn with_direct_eval(mut self) -> Self {
        Arc::make_mut(&mut self.compute).lut = None;
        self
    }

    /// A fresh evaluation session over the same compiled fabric.
    ///
    /// Shares the fabricated array / converters / LUT via `Arc` and
    /// resets the session state (noise cursor to the stream's origin,
    /// counters to zero) — bit-identical to building a new engine from
    /// the same model, map and config, without re-fabrication. This is
    /// how a serving layer runs many agents on one substrate.
    pub fn fork_session(&self) -> Self {
        Self {
            compute: Arc::clone(&self.compute),
            noise_stream: NoiseStream::new(self.compute.noise_seed),
            stats: EngineStats::default(),
            currents: Vec::new(),
            scratch: EvalScratch::default(),
        }
    }

    /// The shared compiled fabric this session evaluates on.
    pub fn compute(&self) -> &Arc<CimCompute> {
        &self.compute
    }

    /// The session's noise stream (seed + cursor), e.g. for building the
    /// [`NoiseSegment`] of a coalesced batch.
    pub fn noise_stream(&self) -> NoiseStream {
        self.noise_stream
    }

    /// Evaluates a coalesced multi-session batch against the shared
    /// fabric, reporting per-segment column activations (see
    /// [`CimCompute::eval_segments`]). This instance acts as the
    /// *evaluator* — its own cursor and counters are untouched; each
    /// owning session commits its slice of `currents` and its activation
    /// count through [`Self::absorb_served_evals`] afterwards.
    pub fn serve_segments(
        &mut self,
        batch: &PointBatch,
        segments: &[NoiseSegment],
        out: &mut [f64],
        currents: &mut [f64],
        policy: par::ChunkPolicy,
        seg_activations: &mut [u64],
    ) {
        self.compute.eval_segments(
            batch,
            segments,
            out,
            currents,
            policy,
            &mut self.scratch,
            Some(seg_activations),
        );
    }

    /// Commits `currents.len()` externally served evaluations (this
    /// session's slice of a coalesced batch) into the session state:
    /// advances the noise cursor past the served range and folds the
    /// pre-noise currents into the stats in index order — exactly the
    /// bookkeeping [`Self::log_likelihood_into_chunked`] performs after
    /// evaluating the same points itself, so a served session's state
    /// stays bit-identical to a solo run. `column_activations` is the
    /// served range's count from [`Self::serve_segments`], so gated
    /// sessions price only the columns actually driven.
    pub fn absorb_served_evals(&mut self, currents: &[f64], column_activations: u64) {
        let n = currents.len();
        // lint: allow(noise-stream-seq) post-batch cursor commit: the batch already drew .at(cursor + k); advance only publishes the watermark
        self.noise_stream.advance(n as u64);
        // Index-order merge: the same left-to-right association scalar
        // calls would produce, independent of how chunks were assigned.
        for &i_total in currents {
            self.stats.current_sum += i_total;
        }
        self.stats.evaluations += n as u64;
        self.stats.dac_conversions += (n * self.compute.dacs.len()) as u64;
        self.stats.adc_conversions += n as u64;
        self.stats.column_slots += n as u64 * self.compute.array.num_columns() as u64;
        self.stats.column_activations += column_activations;
    }

    /// Per-axis `(floors, ceilings)` in *world* units for a given map —
    /// each axis has its own voltage scale, so thin kernels remain
    /// realizable on short axes even when long axes cannot support them.
    pub fn recommended_sigma_bounds_per_axis(
        tech: &TechParams,
        map: &SpaceMap,
    ) -> (Vec<f64>, Vec<f64>) {
        let (s_lo_v, s_hi_v) = device_sigma_range(tech);
        let floors = map
            .axes()
            .iter()
            .map(|a| a.sigma_to_world(s_lo_v) * 1.05)
            .collect();
        let ceilings = map
            .axes()
            .iter()
            .map(|a| a.sigma_to_world(s_hi_v) * 0.95)
            .collect();
        (floors, ceilings)
    }

    /// Suggested `(sigma_floor, sigma_ceiling)` in *world* units for a
    /// given map, so HMGM fitting stays within the device's range.
    pub fn recommended_sigma_bounds(tech: &TechParams, map: &SpaceMap) -> (f64, f64) {
        let (s_lo_v, s_hi_v) = device_sigma_range(tech);
        // The most restrictive axis decides (largest floor, smallest ceiling).
        let mut floor = f64::MIN;
        let mut ceil = f64::MAX;
        for axis in map.axes() {
            floor = floor.max(axis.sigma_to_world(s_lo_v));
            ceil = ceil.min(axis.sigma_to_world(s_hi_v));
        }
        // Keep a safety margin against variation-induced width changes.
        (floor * 1.05, ceil * 0.95)
    }

    /// Serves one log-likelihood query: DAC conversion of the mapped
    /// voltages, array read with sampled noise, log-ADC conversion.
    ///
    /// The returned value is `ln(I_total)` as reconstructed by the ADC —
    /// proportional (up to an additive constant) to the map log-likelihood,
    /// which is all a particle filter needs.
    ///
    /// Scalar adapter over [`Self::log_likelihood_into`]: a single-point
    /// batch consumes exactly the same noise-RNG stream, so mixing scalar
    /// and batch queries is bit-reproducible.
    ///
    /// # Panics
    ///
    /// Panics if `point.len()` differs from the engine dimension.
    pub fn log_likelihood(&mut self, point: &[f64]) -> f64 {
        let mut batch = PointBatch::new(self.compute.dim());
        batch.push(point);
        let mut out = [0.0];
        self.log_likelihood_into(&batch, &mut out);
        out[0]
    }

    /// Serves a whole batch of log-likelihood queries.
    ///
    /// Delegates to [`Self::log_likelihood_into_chunked`] with the auto
    /// [`par::ChunkPolicy`], which spreads the batch across worker
    /// threads when the `parallel` feature is enabled and the batch is
    /// large enough to amortize them.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch or if `out.len() != batch.len()`.
    pub fn log_likelihood_into(&mut self, batch: &PointBatch, out: &mut [f64]) {
        self.log_likelihood_into_chunked(batch, out, par::ChunkPolicy::auto());
    }

    /// Serves a batch under an explicit chunking policy.
    ///
    /// The result — outputs *and* [`EngineStats`] — is bit-identical for
    /// every `(chunk_len, workers)` pair, to each other and to one-by-one
    /// scalar queries:
    ///
    /// - evaluation `i` of the batch claims absolute index `base + i` of
    ///   the engine's counter-based [`NoiseStream`], so its noise value
    ///   does not depend on which chunk or thread serves it (and matches
    ///   the value the pre-batch sequential draw at the same evaluation
    ///   count would deliver from this stream);
    /// - each evaluation writes its pre-noise array current into a
    ///   per-evaluation scratch slot, and the stats are folded from that
    ///   scratch *in index order* after all chunks complete, so even the
    ///   floating-point `current_sum` association is chunking-invariant.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch or if `out.len() != batch.len()`.
    pub fn log_likelihood_into_chunked(
        &mut self,
        batch: &PointBatch,
        out: &mut [f64],
        policy: par::ChunkPolicy,
    ) {
        let n = batch.len();
        self.currents.resize(n, 0.0);
        let mut currents = std::mem::take(&mut self.currents);
        // A solo batch is a one-segment coalesced batch: this session's
        // stream covers everything from index 0.
        let segments = [NoiseSegment {
            start: 0,
            stream: self.noise_stream,
        }];
        let mut seg_acts = [0u64];
        self.compute.eval_segments(
            batch,
            &segments,
            out,
            &mut currents,
            policy,
            &mut self.scratch,
            Some(&mut seg_acts),
        );
        self.absorb_served_evals(&currents, seg_acts[0]);
        self.currents = currents;
    }

    /// Sum of per-point log-likelihoods for a scan (batch-evaluated; an
    /// empty scan sums to zero).
    pub fn scan_log_likelihood(&mut self, points: &[Vec<f64>]) -> f64 {
        let batch = PointBatch::from_rows(self.compute.dim(), points);
        self.log_likelihood_batch(&batch).iter().sum()
    }

    /// Query dimensionality.
    pub fn dim(&self) -> usize {
        self.compute.dim()
    }

    /// The compiled array (for inspection and energy accounting).
    pub fn array(&self) -> &CimArray {
        &self.compute.array
    }

    /// The output ADC.
    pub fn adc(&self) -> &LogAdc {
        self.compute.adc()
    }

    /// Operation counters accumulated since construction or the last
    /// [`Self::reset_stats`].
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Clears the operation counters.
    pub fn reset_stats(&mut self) {
        self.stats = EngineStats::default();
    }
}

impl LikelihoodBackend for HmgmCimEngine {
    fn dim(&self) -> usize {
        HmgmCimEngine::dim(self)
    }

    fn log_likelihood_into(&mut self, batch: &PointBatch, out: &mut [f64]) {
        HmgmCimEngine::log_likelihood_into(self, batch, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use navicim_gmm::hmg::{fit_hmgm, HmgKernel, HmgmFitConfig};
    use navicim_math::rng::SampleExt;

    fn test_map() -> SpaceMap {
        let pts = vec![vec![-1.0, -1.0, -1.0], vec![1.0, 1.0, 1.0]];
        SpaceMap::fit_to_points(&pts, 0.15, 0.85, 0.2).unwrap()
    }

    fn test_model(map: &SpaceMap) -> HmgmModel {
        let tech = TechParams::cmos_45nm();
        let (floor, ceil) = HmgmCimEngine::recommended_sigma_bounds(&tech, map);
        let sigma = (floor * 2.0).min(ceil);
        let k1 = HmgKernel::new(vec![-0.5, 0.0, 0.2], vec![sigma; 3], 1.0).unwrap();
        let k2 = HmgKernel::new(vec![0.6, 0.3, -0.4], vec![sigma; 3], 1.0).unwrap();
        HmgmModel::new(vec![1.0, 0.5], vec![k1, k2]).unwrap()
    }

    #[test]
    fn build_and_query() {
        let map = test_map();
        let model = test_model(&map);
        let mut engine = HmgmCimEngine::build(&model, map, CimEngineConfig::default()).unwrap();
        // Likelihood at a kernel centre beats a far-away point.
        let near = engine.log_likelihood(&[-0.5, 0.0, 0.2]);
        let far = engine.log_likelihood(&[1.0, -1.0, 1.0]);
        assert!(near > far, "near {near} vs far {far}");
    }

    #[test]
    fn engine_tracks_model_ordering() {
        // CIM log-likelihood ordering should agree with the mathematical
        // HMGM model on clearly separated queries.
        let map = test_map();
        let model = test_model(&map);
        let config = CimEngineConfig {
            variation_severity: 0.0,
            dac_bits: 8,
            adc_bits: 12,
            ..CimEngineConfig::default()
        };
        let mut engine = HmgmCimEngine::build(&model, map, config).unwrap();
        let queries: Vec<Vec<f64>> = vec![
            vec![-0.5, 0.0, 0.2],
            vec![-0.3, 0.1, 0.1],
            vec![0.6, 0.3, -0.4],
            vec![0.9, 0.9, 0.9],
        ];
        let cim: Vec<f64> = queries.iter().map(|q| engine.log_likelihood(q)).collect();
        let math: Vec<f64> = queries.iter().map(|q| model.log_likelihood(q)).collect();
        let r = navicim_math::stats::spearman(&cim, &math).unwrap();
        assert!(r > 0.99, "rank correlation {r}");
    }

    #[test]
    fn stats_count_operations() {
        let map = test_map();
        let model = test_model(&map);
        let mut engine = HmgmCimEngine::build(&model, map, CimEngineConfig::default()).unwrap();
        let _ = engine.log_likelihood(&[0.0, 0.0, 0.0]);
        let _ = engine.scan_log_likelihood(&[vec![0.1, 0.0, 0.0], vec![0.2, 0.0, 0.0]]);
        let s = engine.stats();
        assert_eq!(s.evaluations, 3);
        assert_eq!(s.adc_conversions, 3);
        assert_eq!(s.dac_conversions, 9);
        engine.reset_stats();
        assert_eq!(engine.stats().evaluations, 0);
    }

    #[test]
    fn replica_counts_encode_weights() {
        let map = test_map();
        let model = test_model(&map); // weights 1.0 and 0.5
        let engine = HmgmCimEngine::build(&model, map, CimEngineConfig::default()).unwrap();
        let reps: Vec<u32> = engine
            .array()
            .columns()
            .iter()
            .map(|c| c.replicas())
            .collect();
        assert_eq!(reps, vec![5, 3]); // 5·(1.0/1.0)=5, round(5·0.5)=3 (ties-away)
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let map = test_map();
        let bad = HmgmModel::new(
            vec![1.0],
            vec![HmgKernel::new(vec![0.0], vec![0.1], 1.0).unwrap()],
        )
        .unwrap();
        assert!(HmgmCimEngine::build(&bad, map, CimEngineConfig::default()).is_err());
    }

    #[test]
    fn unrealizable_sigma_rejected() {
        let map = test_map();
        let too_narrow = HmgmModel::new(
            vec![1.0],
            vec![HmgKernel::new(vec![0.0, 0.0, 0.0], vec![1e-6; 3], 1.0).unwrap()],
        )
        .unwrap();
        assert!(matches!(
            HmgmCimEngine::build(&too_narrow, map, CimEngineConfig::default()),
            Err(AnalogError::Unrealizable(_))
        ));
    }

    #[test]
    fn batch_matches_sequential_scalar_bit_for_bit() {
        // The batch path must consume the identical noise-RNG stream and
        // arithmetic as one-by-one scalar queries.
        let map = test_map();
        let model = test_model(&map);
        let config = CimEngineConfig::default();
        let mut scalar_engine = HmgmCimEngine::build(&model, map.clone(), config).unwrap();
        let mut batch_engine = HmgmCimEngine::build(&model, map, config).unwrap();
        let mut rng = Pcg32::seed_from_u64(99);
        let mut batch = PointBatch::new(3);
        for _ in 0..64 {
            batch.push(&[
                rng.sample_uniform(-1.0, 1.0),
                rng.sample_uniform(-1.0, 1.0),
                rng.sample_uniform(-1.0, 1.0),
            ]);
        }
        let scalar: Vec<f64> = batch
            .iter()
            .map(|p| scalar_engine.log_likelihood(p))
            .collect();
        let batched = batch_engine.log_likelihood_batch(&batch);
        assert_eq!(scalar, batched);
        assert_eq!(scalar_engine.stats(), batch_engine.stats());
        assert_eq!(batch_engine.stats().evaluations, 64);
        assert_eq!(batch_engine.stats().dac_conversions, 64 * 3);
    }

    #[test]
    fn chunked_evaluation_is_bit_identical() {
        // Any (chunk_len, workers) policy — and any split of the batch
        // into consecutive sub-batches — produces the same outputs and
        // the same EngineStats as the auto policy.
        let map = test_map();
        let model = test_model(&map);
        let config = CimEngineConfig::default();
        let mut rng = Pcg32::seed_from_u64(5);
        let mut batch = PointBatch::new(3);
        for _ in 0..97 {
            batch.push(&[
                rng.sample_uniform(-1.0, 1.0),
                rng.sample_uniform(-1.0, 1.0),
                rng.sample_uniform(-1.0, 1.0),
            ]);
        }
        let mut reference = HmgmCimEngine::build(&model, map.clone(), config).unwrap();
        let mut expected = vec![0.0; batch.len()];
        reference.log_likelihood_into(&batch, &mut expected);
        for chunk_len in [1usize, 7, 64, batch.len()] {
            for workers in [1usize, 2, 4] {
                let mut engine = HmgmCimEngine::build(&model, map.clone(), config).unwrap();
                let mut out = vec![0.0; batch.len()];
                engine.log_likelihood_into_chunked(
                    &batch,
                    &mut out,
                    par::ChunkPolicy::exact(chunk_len, workers),
                );
                assert_eq!(out, expected, "chunk {chunk_len}, workers {workers}");
                assert_eq!(engine.stats(), reference.stats());
            }
        }
        // Splitting into two consecutive batch calls consumes consecutive
        // stream ranges, so the concatenation matches one big call.
        let mut split_engine = HmgmCimEngine::build(&model, map, config).unwrap();
        let mut first = PointBatch::new(3);
        let mut second = PointBatch::new(3);
        for (i, p) in batch.iter().enumerate() {
            if i < 40 {
                first.push(p);
            } else {
                second.push(p);
            }
        }
        let mut out = split_engine.log_likelihood_batch(&first);
        out.extend(split_engine.log_likelihood_batch(&second));
        assert_eq!(out, expected);
        assert_eq!(split_engine.stats(), reference.stats());
    }

    #[test]
    fn lut_and_direct_paths_are_bit_identical() {
        // The per-code current table must be a pure cache: outputs and
        // stats agree bitwise with the direct device-model path for every
        // batch size around the lane width.
        let map = test_map();
        let model = test_model(&map);
        let config = CimEngineConfig::default();
        for n in [1usize, 3, 4, 5, 7, 64] {
            let mut fast = HmgmCimEngine::build(&model, map.clone(), config).unwrap();
            assert!(
                fast.compute.lut.is_some(),
                "default config should build the LUT"
            );
            let mut direct = HmgmCimEngine::build(&model, map.clone(), config)
                .unwrap()
                .with_direct_eval();
            let mut rng = Pcg32::seed_from_u64(31 + n as u64);
            let mut batch = PointBatch::new(3);
            for _ in 0..n {
                batch.push(&[
                    rng.sample_uniform(-1.0, 1.0),
                    rng.sample_uniform(-1.0, 1.0),
                    rng.sample_uniform(-1.0, 1.0),
                ]);
            }
            assert_eq!(
                fast.log_likelihood_batch(&batch),
                direct.log_likelihood_batch(&batch),
                "n = {n}"
            );
            assert_eq!(fast.stats(), direct.stats(), "n = {n}");
        }
    }

    /// Many well-separated kernels on the test map, so a tight particle
    /// cloud's tile AABB excludes most columns by a wide margin.
    fn spread_model(map: &SpaceMap, k: usize) -> HmgmModel {
        let tech = TechParams::cmos_45nm();
        let (floor, _ceil) = HmgmCimEngine::recommended_sigma_bounds(&tech, map);
        let sigma = floor;
        let mut rng = Pcg32::seed_from_u64(41);
        let mut kernels = Vec::new();
        let mut weights = Vec::new();
        for _ in 0..k {
            let mean = vec![
                rng.sample_uniform(-0.95, 0.95),
                rng.sample_uniform(-0.95, 0.95),
                rng.sample_uniform(-0.95, 0.95),
            ];
            kernels.push(HmgKernel::new(mean, vec![sigma; 3], 1.0).unwrap());
            weights.push(rng.sample_uniform(0.2, 1.0));
        }
        HmgmModel::new(weights, kernels).unwrap()
    }

    fn clustered_batch(center: &[f64], n: usize, spread: f64, seed: u64) -> PointBatch {
        let mut rng = Pcg32::seed_from_u64(seed);
        let mut batch = PointBatch::new(center.len());
        let mut p = vec![0.0; center.len()];
        for _ in 0..n {
            for (v, &c) in p.iter_mut().zip(center) {
                *v = rng.sample_normal(c, spread);
            }
            batch.push(&p);
        }
        batch
    }

    #[test]
    fn prune_off_build_is_the_plain_build() {
        let map = test_map();
        let model = test_model(&map);
        let config = CimEngineConfig::default();
        let mut plain = HmgmCimEngine::build(&model, map.clone(), config).unwrap();
        let mut off =
            HmgmCimEngine::build_with_pruning(&model, map, config, PruneConfig::default()).unwrap();
        assert!(off.compute.prune.is_none());
        let batch = clustered_batch(&[-0.5, 0.0, 0.2], 40, 0.1, 50);
        assert_eq!(
            plain.log_likelihood_batch(&batch),
            off.log_likelihood_batch(&batch)
        );
        assert_eq!(plain.stats(), off.stats());
        assert_eq!(plain.stats().column_activations, 40 * 2);
        assert_eq!(plain.stats().column_slots, 40 * 2);
    }

    #[test]
    fn gated_with_all_columns_surviving_is_bit_identical() {
        // Two near kernels and a huge margin: nothing ever prunes, so the
        // gated engine must reproduce the ungated one bit for bit —
        // outputs, noise consumption and stats.
        let map = test_map();
        let model = test_model(&map);
        let config = CimEngineConfig::default();
        let mut plain = HmgmCimEngine::build(&model, map.clone(), config).unwrap();
        let mut gated =
            HmgmCimEngine::build_with_pruning(&model, map, config, PruneConfig::enabled()).unwrap();
        assert!(gated.compute.prune.is_some());
        let mut rng = Pcg32::seed_from_u64(51);
        let mut batch = PointBatch::new(3);
        for _ in 0..300 {
            batch.push(&[
                rng.sample_uniform(-1.0, 1.0),
                rng.sample_uniform(-1.0, 1.0),
                rng.sample_uniform(-1.0, 1.0),
            ]);
        }
        assert_eq!(
            plain.log_likelihood_batch(&batch),
            gated.log_likelihood_batch(&batch)
        );
        assert_eq!(plain.stats(), gated.stats());
        assert_eq!(gated.stats().column_activations, 300 * 2);
    }

    #[test]
    fn gating_drops_columns_and_stays_accurate() {
        let map = test_map();
        let model = spread_model(&map, 24);
        let config = CimEngineConfig::default();
        let mut plain = HmgmCimEngine::build(&model, map.clone(), config).unwrap();
        let mut gated =
            HmgmCimEngine::build_with_pruning(&model, map, config, PruneConfig::enabled()).unwrap();
        // Tight cloud around one kernel center: far columns gate out.
        let center = model.kernels()[0].means().to_vec();
        let batch = clustered_batch(&center, 200, 0.01, 52);
        let full = plain.log_likelihood_batch(&batch);
        let pruned = gated.log_likelihood_batch(&batch);
        let slots = gated.stats().column_slots;
        let acts = gated.stats().column_activations;
        assert_eq!(slots, 200 * 24);
        assert!(acts < slots, "expected gating: {acts} of {slots} slots");
        assert!(acts >= 200, "survivor set is never empty");
        // Near a peak the gated current differs from the full current by
        // far less than one log-ADC step, so outputs agree to within a
        // single code boundary flip.
        let step = gated.adc().log_lsb();
        for (i, (p, f)) in pruned.iter().zip(&full).enumerate() {
            assert!(
                (p - f).abs() <= step * 1.5 + 1e-12,
                "point {i}: gated {p} vs full {f} (step {step})"
            );
        }
        // Ungated counters are untouched by gating.
        assert_eq!(plain.stats().evaluations, gated.stats().evaluations);
        assert_eq!(plain.stats().dac_conversions, gated.stats().dac_conversions);
    }

    #[test]
    fn gated_outputs_are_chunking_invariant() {
        let map = test_map();
        let model = spread_model(&map, 24);
        let config = CimEngineConfig::default();
        let prune = PruneConfig::enabled();
        let center = model.kernels()[0].means().to_vec();
        let mut batch = clustered_batch(&center, 300, 0.01, 53);
        // A few far outliers so tiles mix survivor sets.
        let mut rng = Pcg32::seed_from_u64(54);
        for _ in 0..17 {
            batch.push(&[
                rng.sample_uniform(-1.0, 1.0),
                rng.sample_uniform(-1.0, 1.0),
                rng.sample_uniform(-1.0, 1.0),
            ]);
        }
        let mut reference =
            HmgmCimEngine::build_with_pruning(&model, map.clone(), config, prune).unwrap();
        let mut expected = vec![0.0; batch.len()];
        reference.log_likelihood_into(&batch, &mut expected);
        for chunk_len in [1usize, 7, 64, batch.len()] {
            for workers in [1usize, 2, 4] {
                let mut engine =
                    HmgmCimEngine::build_with_pruning(&model, map.clone(), config, prune).unwrap();
                let mut out = vec![0.0; batch.len()];
                engine.log_likelihood_into_chunked(
                    &batch,
                    &mut out,
                    par::ChunkPolicy::exact(chunk_len, workers),
                );
                assert_eq!(out, expected, "chunk {chunk_len}, workers {workers}");
                assert_eq!(engine.stats(), reference.stats());
            }
        }
    }

    #[test]
    fn gated_coalesced_segments_match_solo_sessions() {
        // Noise-index invariance under gating: a coalesced two-session
        // mega-batch reproduces each session's solo gated run bit for
        // bit — tiles anchor at segment starts and noise draws address
        // per-session absolute indices, so neither coalescing nor gating
        // perturbs the other.
        let map = test_map();
        let model = spread_model(&map, 24);
        let config = CimEngineConfig::default();
        let root =
            HmgmCimEngine::build_with_pruning(&model, map, config, PruneConfig::enabled()).unwrap();
        let c0 = model.kernels()[0].means().to_vec();
        let c1 = model.kernels()[1].means().to_vec();
        let a = clustered_batch(&c0, 300, 0.01, 55);
        let b = clustered_batch(&c1, 277, 0.01, 56);
        // Solo runs on fresh sessions.
        let mut solo_a = root.fork_session();
        let mut solo_b = root.fork_session();
        let want_a = solo_a.log_likelihood_batch(&a);
        let want_b = solo_b.log_likelihood_batch(&b);
        // Coalesced run: one mega-batch, two noise segments.
        let mut sess_a = root.fork_session();
        let mut sess_b = root.fork_session();
        let mut evaluator = root.fork_session();
        let mut mega = PointBatch::new(3);
        for p in a.iter() {
            mega.push(p);
        }
        for p in b.iter() {
            mega.push(p);
        }
        let segments = [
            NoiseSegment {
                start: 0,
                stream: sess_a.noise_stream(),
            },
            NoiseSegment {
                start: a.len(),
                stream: sess_b.noise_stream(),
            },
        ];
        let mut out = vec![0.0; mega.len()];
        let mut currents = vec![0.0; mega.len()];
        let mut acts = [0u64; 2];
        evaluator.serve_segments(
            &mega,
            &segments,
            &mut out,
            &mut currents,
            par::ChunkPolicy::exact(37, 3),
            &mut acts,
        );
        assert_eq!(&out[..a.len()], &want_a[..]);
        assert_eq!(&out[a.len()..], &want_b[..]);
        sess_a.absorb_served_evals(&currents[..a.len()], acts[0]);
        sess_b.absorb_served_evals(&currents[a.len()..], acts[1]);
        assert_eq!(sess_a.stats(), solo_a.stats());
        assert_eq!(sess_b.stats(), solo_b.stats());
        assert!(sess_a.stats().column_activations < sess_a.stats().column_slots);
    }

    #[test]
    fn fitted_model_compiles_end_to_end() {
        // Fit an HMGM on synthetic data with device-derived sigma bounds,
        // then compile and query — the full Section II flow.
        let mut rng = Pcg32::seed_from_u64(11);
        let mut pts = Vec::new();
        for _ in 0..300 {
            pts.push(vec![
                rng.sample_normal(0.0, 0.3),
                rng.sample_normal(0.5, 0.25),
                rng.sample_normal(-0.5, 0.3),
            ]);
            pts.push(vec![
                rng.sample_normal(2.0, 0.3),
                rng.sample_normal(-1.0, 0.25),
                rng.sample_normal(0.5, 0.3),
            ]);
        }
        let map = SpaceMap::fit_to_points(&pts, 0.15, 0.85, 0.15).unwrap();
        let tech = TechParams::cmos_45nm();
        let (floor, ceil) = HmgmCimEngine::recommended_sigma_bounds(&tech, &map);
        let config = HmgmFitConfig {
            sigma_floor: floor,
            sigma_ceiling: Some(ceil),
            ..HmgmFitConfig::default()
        };
        let mut rng2 = Pcg32::seed_from_u64(12);
        let model = fit_hmgm(&pts, 4, &config, &mut rng2).unwrap();
        let mut engine = HmgmCimEngine::build(&model, map, CimEngineConfig::default()).unwrap();
        let on_data = engine.log_likelihood(&[0.0, 0.5, -0.5]);
        let off_data = engine.log_likelihood(&[1.0, 2.0, 2.0]);
        assert!(on_data > off_data);
    }

    #[test]
    fn hoisted_dac_codes_match_scalar_chain() {
        // The hoisted per-axis constants reproduce
        // `dac.code_for(axis.to_voltage(x))` for every input, including
        // NaN, ±inf and coordinates outside the map window.
        let map = test_map();
        let model = test_model(&map);
        for dac_bits in [1, 4, 6, 12] {
            let config = CimEngineConfig {
                dac_bits,
                ..CimEngineConfig::default()
            };
            let engine = HmgmCimEngine::build(&model, map.clone(), config).unwrap();
            let c = &engine.compute;
            for ((axis, dac), ac) in c.map.axes().iter().zip(&c.dacs).zip(&c.axis_codes) {
                let mut xs: Vec<f64> = (0..=4000).map(|k| -2.0 + k as f64 * 1e-3).collect();
                xs.extend([f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e300, -1e300]);
                for x in xs {
                    let want = dac.code_for(axis.to_voltage(x)) as usize;
                    assert_eq!(ac.code(x), want, "x = {x}, {dac_bits} bits");
                    assert_eq!(ac.code4([x; LANES]), [want; LANES]);
                }
            }
        }
    }

    /// The exact chain's code coordinate for a current and stream draw,
    /// written out from `Readout::finish` and `LogAdc::code_for`.
    fn exact_coord(r: &Readout, i_total: f64, z: f64) -> f64 {
        let gm = i_total / r.gm_denom;
        let i_noisy = (i_total + r.noise.sample_with_z(gm, i_total, z)).max(r.i_floor);
        r.adc.code_coord(i_noisy.max(1e-300).ln())
    }

    /// Engines spanning the readout regimes: the default 8-bit ADC, the
    /// benchmark's 6-bit / 10 MHz setting and a 16-bit ADC.
    fn guard_engines() -> Vec<HmgmCimEngine> {
        let map = test_map();
        let model = test_model(&map);
        let configs = [
            CimEngineConfig::default(),
            CimEngineConfig {
                dac_bits: 6,
                adc_bits: 6,
                variation_severity: 0.3,
                noise_bandwidth: 1e7,
                ..CimEngineConfig::default()
            },
            CimEngineConfig {
                adc_bits: 16,
                ..CimEngineConfig::default()
            },
        ];
        configs
            .iter()
            .map(|&c| HmgmCimEngine::build(&model, map.clone(), c).unwrap())
            .collect()
    }

    #[test]
    fn adc_guard_budget_covers_measured_error() {
        // Sweep pre-noise currents from below the noise floor to past the
        // ADC range against many stream draws: the fast coordinate never
        // strays more than 1/1000 of the guard budget from the exact one,
        // the noise sample stays within its documented bound, and every
        // lane — decided fast or sent to the exact chain — reads out the
        // exact chain's bits.
        let stream = NoiseStream::new(0xadc);
        for engine in guard_engines() {
            let r = &engine.compute.readout;
            let i_max = engine.array().max_current() * 2.0;
            let (lo, hi) = ((r.i_floor * 0.1).ln(), i_max.ln());
            let (mut worst_coord, mut worst_noise) = (0.0f64, 0.0f64);
            let mut fallbacks = 0;
            let n = 2048;
            for k in 0..n {
                let i_total = (lo + (hi - lo) * k as f64 / (n - 1) as f64).exp();
                let base = 64 * k as u64;
                let draws: [(NoiseStream, u64); LANES] = [0, 1, 2, 3].map(|p| (stream, base + p));
                let it = F64x4::splat(i_total);
                let uv = draws.map(|(s, index)| s.uniforms(index));
                let (u, v) = (F64x4::new(uv.map(|x| x.0)), F64x4::new(uv.map(|x| x.1)));
                let (y, rms, _) = r.approx_coords(it, u, v);
                let coords = r.guarded_coords(it, u, v);
                let mut out = [0.0; LANES];
                r.finish4([i_total; LANES], &draws, &mut out);
                // The fast noise sample, as `approx_coords` draws it.
                let z_f = (F64x4::splat(-2.0) * u.ln()).sqrt() * v.cos_turns();
                for p in 0..LANES {
                    let z = stream.at(base + p as u64);
                    let rms_e = r.noise.total_rms(i_total / r.gm_denom, i_total);
                    let noise_f = rms.lane(p) * z_f.lane(p);
                    worst_noise = worst_noise.max((noise_f - rms_e * z).abs() / rms_e);
                    if !coords[p].is_nan() {
                        let d = (y.lane(p) - exact_coord(r, i_total, z)).abs();
                        worst_coord = worst_coord.max(d);
                    }
                    fallbacks += usize::from(coords[p].is_nan());
                    assert_eq!(
                        out[p].to_bits(),
                        r.finish(i_total, z).to_bits(),
                        "I = {i_total:e}, lane {p}"
                    );
                }
            }
            assert!(
                ADC_GUARD_CODES >= 1000.0 * worst_coord,
                "worst coordinate error {worst_coord:e} codes"
            );
            assert!(
                worst_noise <= Z_FAST_MAX_ABS_ERR,
                "worst noise error {worst_noise:e} rms"
            );
            // Fallbacks are rare wherever the noise is not far above the
            // signal; the 16-bit ADC's tighter noise admission sends the
            // noise-dominated low end of this sweep to the exact chain.
            let allowed = if r.adc.bits() <= 8 { 0.001 } else { 0.1 };
            assert!(
                (fallbacks as f64) < allowed * (n * LANES) as f64,
                "{fallbacks} fallbacks of {} at {} bits",
                n * LANES,
                r.adc.bits()
            );
        }
    }

    #[test]
    fn adc_guard_forces_exact_fallback_at_code_boundary() {
        // With zero noise bandwidth the noisy current is the pre-noise
        // one. A current exactly between two ADC codes puts `ŷ` on a
        // rounding boundary: the guard must send the lane to the exact
        // chain, whose code is `LogAdc::code_for`.
        let map = test_map();
        let model = test_model(&map);
        let config = CimEngineConfig {
            noise_bandwidth: 0.0,
            ..CimEngineConfig::default()
        };
        let engine = HmgmCimEngine::build(&model, map, config).unwrap();
        let r = &engine.compute.readout;
        let adc = engine.adc();
        let (ln_min, _) = adc.ln_range();
        let stream = NoiseStream::new(3);
        for c in [0u64, 1, 17, 100, adc.levels() - 3] {
            let i_boundary = (ln_min + (c as f64 + 0.5) * adc.log_lsb()).exp();
            let i_inside = (ln_min + (c as f64 + 0.25) * adc.log_lsb()).exp();
            let it = [i_boundary, i_inside, i_boundary, i_inside];
            let draws = [0, 1, 2, 3].map(|p| (stream, 10 * c + p));
            let uv = draws.map(|(s, index)| s.uniforms(index));
            let coords = r.guarded_coords(
                F64x4::new(it),
                F64x4::new(uv.map(|x| x.0)),
                F64x4::new(uv.map(|x| x.1)),
            );
            assert!(
                coords[0].is_nan() && coords[2].is_nan(),
                "code {c}: {coords:?}"
            );
            assert_eq!(coords[1].round() as u64, c, "code {c}: {coords:?}");
            let mut out = [0.0; LANES];
            r.finish4(it, &draws, &mut out);
            for (p, &i) in it.iter().enumerate() {
                assert_eq!(
                    out[p],
                    adc.log_current(adc.code_for(i)),
                    "code {c}, lane {p}"
                );
            }
        }
    }
}
