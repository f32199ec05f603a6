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
//!   the `Arc`'d fabric; each evaluates its batches through
//!   [`CimCompute::eval_stream`] on its own stream.
//!
//! # The evaluation chain, exact and tile-major
//!
//! The direct path ([`HmgmCimEngine::with_direct_eval`]) is the physical
//! reference: per point, DAC voltages feed the device model, the array
//! sums its column currents, a counter-indexed standard normal
//! ([`NoiseStream::at`]) perturbs the total, and the log-ADC converts it
//! with libm `ln`. The default LUT path reproduces it **bit for bit** and
//! runs the batch in tiles of [`CIM_TILE`] points, one tile body over
//! every column of the array:
//!
//! 1. **DAC codes.** The constants of `AxisMap::to_voltage` and
//!    `Dac::code_for` are hoisted per axis at build; each point repeats
//!    the scalar clamps, division, `round` and `min` exactly, one axis
//!    across the whole tile at a time.
//! 2. **Column terms.** The per-code reciprocal table is
//!    column-contiguous (`recips[(axis·levels + code)·K + column]`), so a
//!    point's per-column reciprocal sums, `1/Σ` and `replicas·` run over
//!    eight-column register blocks of contiguous loads (a scalar tail
//!    takes `K mod 8`). The terms land column-major in a `K × CIM_TILE`
//!    scratch.
//! 3. **Fold.** Each point's total adds its terms from 0.0 in column
//!    order — the direct path's order — while the loop runs across the
//!    tile's points.
//! 4. **Noise + log-ADC.** The ADC emits only an integer code, so each
//!    point computes its coordinate `ŷ = (clamp(ln Î) − ln_min)/(ln_max −
//!    ln_min)·(2^bits − 1)` with bounded-error, branch-free
//!    approximations of the Box–Muller `ln`/`cos` and of the ADC `ln`
//!    ([`navicim_math::simd::ln_fast`],
//!    [`navicim_math::simd::cos_turns_fast`]) and a one-root noise scale.
//!    The code `round(ŷ)` is emitted only when `ŷ` is farther than
//!    `ADC_GUARD_CODES` from a rounding boundary *and* the point's
//!    worst-case deviation from the exact `ŷ` — the ADC `ln` error plus
//!    the noise error `Z_FAST_MAX_ABS_ERR`` · rms / Î` — provably stays
//!    within `GUARD_DEVIATION_SHARE` of that budget. Then the exact
//!    chain rounds to the same code, so the output `ln_min + code · lsb`
//!    is the exact one. Every other point, non-finite ones included,
//!    runs the exact scalar chain with `stream.at(index)`.
//!
//! A short last tile repeats its last point in the spare slots and drops
//! their results. The pre-noise current — and with it [`EngineStats`]
//! and energy — never goes through an approximation.

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
use navicim_math::rng::Pcg32;
use navicim_math::simd::{cos_turns_fast, ln_fast, COS_TURNS_FAST_MAX_ABS_ERR, LN_FAST_MAX_ULP};

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
}

/// Domain separator between the build-time variation RNG and the
/// evaluation noise stream, both derived from [`CimEngineConfig::seed`].
const NOISE_STREAM_SALT: u64 = 0xa0a1_0c1a_77ab_1e5e;

/// Error budget of the guarded fast ADC decision, in ADC code units.
///
/// The tiled readout computes each point's code coordinate `ŷ` with
/// bounded-error approximations and emits `round(ŷ)` only when
/// `|frac(ŷ) − ½|` exceeds this budget *and* the point's worst-case
/// deviation from the exact chain's `ŷ` provably stays within
/// [`GUARD_DEVIATION_SHARE`] of it — half for the ADC `ln`, half for the
/// noise sample (see [`Z_FAST_MAX_ABS_ERR`]). The exact `ŷ` then rounds
/// to the same code. Every other point runs the exact libm chain; only a
/// `~2·10⁻⁶` share of points lands inside the budget and pays for it.
const ADC_GUARD_CODES: f64 = 1e-6;

/// Share of [`ADC_GUARD_CODES`] a decided point's worst-case deviation
/// may use. Keeping the bound a thousand times inside the budget leaves
/// the guard ≥ 1000× the worst deviation any decided point can carry.
const GUARD_DEVIATION_SHARE: f64 = 1e-3;

/// Points per tile of the LUT evaluation body: codes, column terms, the
/// fold and the readout each run across this many points at a time.
pub const CIM_TILE: usize = 16;

/// Columns per register block of the column-term step.
const COL_BLOCK: usize = 8;

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
const Z_FAST_MAX_ABS_ERR: f64 =
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
/// contiguous register blocks of columns (see [`CimCompute::eval_lut`]).
#[derive(Debug, Clone)]
struct CodeLut {
    /// `1/I_cell`, index `(axis·levels + code)·K + column`.
    recips: Vec<f64>,
    /// Per-column replica counts as f64 — the exact factor
    /// `CimColumn::current` multiplies by.
    replicas: Vec<f64>,
    levels: usize,
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
}

/// One axis's world → DAC-code conversion with every constant of
/// [`AxisMap::to_voltage`] and [`Dac::code_for`] hoisted out of the
/// per-point loop: the same clamps, the same division, `round` and `min`,
/// operation for operation, so the code is the one
/// `dac.code_for(axis.to_voltage(x))` returns for every `x` (`NaN`
/// included, which lands on code 0).
///
/// Only the float → integer step differs in form: the rounded
/// coordinate is an integer in `[0, 2^16 − 1]` or `NaN`, so adding
/// `2^52` places it exactly in the low mantissa bits, with `NaN`
/// selected to 0 first — the value `as u64` gives, but with no
/// saturating scalar conversion, so a loop of codes vectorizes.
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
        let v = self.v_lo + (x - self.x_lo) * self.scale;
        let v = clamp(v, self.v_lo, self.v_hi);
        let frac = (clamp(v, self.dac_lo, self.dac_hi) - self.dac_lo) / self.dac_span;
        const MANTISSA_MAGIC: f64 = 4_503_599_627_370_496.0; // 2^52
        let y = (frac * self.top).round();
        let y = if y >= 0.0 { y } else { 0.0 };
        ((y + MANTISSA_MAGIC).to_bits() - MANTISSA_MAGIC.to_bits()).min(self.top_code) as usize
    }
}

/// [`f64::clamp`] without its `lo <= hi` assertion — the same two
/// compares, `NaN` passing through — so a loop of [`AxisCode::code`]
/// carries no panic branch and vectorizes. Every range it sees is
/// validated at build.
#[inline(always)]
fn clamp(x: f64, lo: f64, hi: f64) -> f64 {
    let x = if x < lo { lo } else { x };
    if x > hi {
        hi
    } else {
        x
    }
}

/// The per-evaluation noise + log-ADC readout, shared by every
/// evaluation path: the exact scalar chain ([`Self::finish`]) and the
/// guarded fast one of a tile ([`Self::finish_tile`]).
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
    /// Smallest `|frac(ŷ) − ½|` a fast point is decided at:
    /// [`ADC_GUARD_CODES`], or `+inf` (no fast decisions) for an ADC
    /// whose `ln` error alone could exceed half the deviation share.
    margin_min: f64,
    /// Noise admission: a point whose noisy current `Î` clears its floor
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

    /// The fast chain's code coordinate for one point where the guard can
    /// decide the code from it, `NaN` elsewhere (including every
    /// non-finite point).
    ///
    /// Box–Muller with [`ln_fast`] and [`cos_turns_fast`], the noise scale
    /// with one square root, and the log-ADC code coordinate with
    /// `ln_fast` (scaled by a multiply where [`LogAdc::code_coord`]
    /// divides). Branch-free, so mapping it over a tile vectorizes.
    #[inline(always)]
    fn guarded_coord(&self, i_total: f64, u: f64, v: f64) -> f64 {
        let z = (-2.0 * ln_fast(u)).sqrt() * cos_turns_fast(v);
        let rms = (i_total * self.var_per_amp).sqrt();
        let sum = i_total + rms * z;
        let i_noisy = sum.max(self.i_floor);
        let clamped = ln_fast(i_noisy.max(1e-300))
            .max(self.ln_min)
            .min(self.ln_max);
        let y = (clamped - self.ln_min) * self.codes_per_nat;
        let margin = (y - y.floor() - 0.5).abs();
        // Floor admission: a noisy sum at least twice its worst noise
        // error below the floor reads `Î = i_floor` in both chains.
        let floor_reach = sum + rms * (2.0 * Z_FAST_MAX_ABS_ERR);
        // Non-short-circuit `&`/`|`: a branch-free select.
        let decided = (margin > self.margin_min)
            & ((rms * self.rms_gain <= i_noisy) | (floor_reach <= self.i_floor))
            & (i_noisy <= f64::MAX);
        if decided {
            y
        } else {
            f64::NAN
        }
    }

    /// The outputs of one tile's points from their pre-noise currents:
    /// point `p` draws noise index `first + p` of `stream` and lands in
    /// `out[p]`, bit-identical to [`Self::finish`] with
    /// `stream.at(first + p)`. Slots past `out.len()` (a short last
    /// tile's spare slots) are computed and dropped.
    #[inline(always)]
    fn finish_tile(
        &self,
        totals: &[f64; CIM_TILE],
        stream: NoiseStream,
        first: u64,
        out: &mut [f64],
    ) {
        let mut u = [0.0; CIM_TILE];
        let mut v = [0.0; CIM_TILE];
        for (p, (u, v)) in u.iter_mut().zip(&mut v).enumerate() {
            (*u, *v) = stream.uniforms(first + p as u64);
        }
        let mut coords = [0.0; CIM_TILE];
        for (p, y) in coords.iter_mut().enumerate() {
            *y = self.guarded_coord(totals[p], u[p], v[p]);
        }
        // A decided coordinate lies in [0, 2^bits − 1], so its rounding
        // is exactly the code `LogAdc::code_for` picks, and this is
        // `LogAdc::log_current` of it.
        for (p, o) in out.iter_mut().enumerate() {
            *o = if coords[p].is_nan() {
                self.finish(totals[p], stream.at(first + p as u64))
            } else {
                self.ln_min + coords[p].round() * self.log_lsb
            };
        }
    }
}

/// Reusable scratch for [`CimCompute::eval_stream`] (sequential
/// single-chunk path only; threaded chunks carry their own).
#[derive(Debug, Clone, Default)]
pub struct EvalScratch {
    /// DAC output voltages of one point (direct path).
    voltages: Vec<f64>,
    /// LUT row offsets of one tile's points, one array per axis.
    rows: Vec<[usize; CIM_TILE]>,
    /// Column terms `replicas·(1/Σ)` of one tile's points, one array per
    /// column (`terms[j][p]`).
    terms: Vec<[f64; CIM_TILE]>,
}

/// The immutable compiled CIM fabric: fabricated array, converters, the
/// world→voltage map and the per-code current table.
///
/// Every field is fixed at build time (process variation is drawn once in
/// [`HmgmCimEngine::build`]), so a `CimCompute` is freely shared across
/// threads behind an `Arc` — sessions own only their noise cursor and
/// counters. Evaluation is pure: the caller passes its noise stream and
/// receives pre-noise currents for its own bookkeeping.
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

    /// Evaluates one session's batch against the fabric.
    ///
    /// Point `i` of the batch draws its noise from `stream.at(cursor +
    /// i)`, where `cursor` is `stream`'s cursor — the same value it would
    /// draw in any other split of the session's evaluations into calls.
    /// Pre-noise currents land in `currents`, so the session can fold them
    /// into its stats in index order. Every point drives every column of
    /// the array. Nothing in `self` mutates; `scratch` is buffer reuse
    /// only.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch or output/current length mismatch.
    pub fn eval_stream(
        &self,
        batch: &PointBatch,
        stream: NoiseStream,
        out: &mut [f64],
        currents: &mut [f64],
        policy: par::ChunkPolicy,
        scratch: &mut EvalScratch,
    ) {
        check_batch_shape(self.map.dim(), batch, out);
        assert_eq!(
            out.len(),
            currents.len(),
            "currents scratch must match batch length"
        );
        let n = batch.len();
        if n == 0 {
            return;
        }
        let dim = self.dacs.len();
        let base = stream.cursor();
        let Some(lut) = self.lut.as_ref() else {
            // Direct device-model path: the parity reference every LUT
            // path is bit-identical to.
            let run_direct = |start: usize,
                              out_chunk: &mut [f64],
                              cur_chunk: &mut [f64],
                              voltages: &mut [f64]| {
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
                    *o = self.readout.finish(*cur, stream.at(base + idx as u64));
                }
            };
            if policy.is_single_chunk(n) {
                // Sequential path: reuse the caller's scratch — zero
                // allocation per batch.
                scratch.voltages.resize(dim, 0.0);
                run_direct(0, out, currents, &mut scratch.voltages);
            } else {
                par::zip_chunks_policy(policy, out, currents, |start, out_chunk, cur_chunk| {
                    // lint: allow(hot-path-alloc) threaded chunk closures own their scratch
                    let mut voltages = vec![0.0; dim];
                    run_direct(start, out_chunk, cur_chunk, &mut voltages);
                });
            }
            return;
        };
        if policy.is_single_chunk(n) {
            self.eval_lut(lut, batch, 0, stream, out, currents, scratch);
        } else {
            par::zip_chunks_policy(policy, out, currents, |start, out_chunk, cur_chunk| {
                // lint: allow(hot-path-alloc) threaded chunk closures own their scratch
                let mut scratch = EvalScratch::default();
                self.eval_lut(
                    lut,
                    batch,
                    start,
                    stream,
                    out_chunk,
                    cur_chunk,
                    &mut scratch,
                );
            });
        }
    }

    /// LUT evaluation of the batch points `start..start + out.len()` over
    /// every column, [`CIM_TILE`] points at a time.
    ///
    /// Each tile computes its DAC codes axis by axis, its column terms in
    /// [`COL_BLOCK`]-column register blocks, its totals by a column-order
    /// fold across the tile and its readout ([`Readout::finish_tile`]). A
    /// short last tile repeats its last point in the spare slots and
    /// drops their results. Per point this is exactly the direct path's
    /// arithmetic — reciprocal sums in axis order from 0.0, `replicas ·
    /// (1/Σ)`, the total from 0.0 in column order — so tiling, chunk
    /// boundaries, thread counts and the LUT toggle are all unobservable
    /// in the output bits: batch point `j` always draws `stream.at(cursor
    /// + j)`.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn eval_lut(
        &self,
        lut: &CodeLut,
        batch: &PointBatch,
        start: usize,
        stream: NoiseStream,
        out: &mut [f64],
        cur: &mut [f64],
        scratch: &mut EvalScratch,
    ) {
        let dim = self.axis_codes.len();
        let k_cols = lut.replicas.len();
        let blocked = k_cols - k_cols % COL_BLOCK;
        if scratch.rows.len() < dim {
            scratch.rows.resize(dim, [0; CIM_TILE]);
        }
        if scratch.terms.len() < k_cols {
            scratch.terms.resize(k_cols, [0.0; CIM_TILE]);
        }
        let rows = &mut scratch.rows[..dim];
        let terms = &mut scratch.terms[..k_cols];
        let flat = &batch.as_flat()[start * dim..];
        for (t, (out, cur)) in out
            .chunks_mut(CIM_TILE)
            .zip(cur.chunks_mut(CIM_TILE))
            .enumerate()
        {
            let tile = &flat[t * CIM_TILE * dim..];
            let last = out.len() - 1;
            for (axis, (ac, rows)) in self.axis_codes.iter().zip(rows.iter_mut()).enumerate() {
                let mut xs = [0.0; CIM_TILE];
                for (p, x) in xs.iter_mut().enumerate() {
                    *x = tile[p.min(last) * dim + axis];
                }
                for (row, &x) in rows.iter_mut().zip(&xs) {
                    *row = lut.row(axis, ac.code(x));
                }
            }
            for j in (0..blocked).step_by(COL_BLOCK) {
                // Each point's block lands in its own contiguous row of
                // `q` before the rows are scattered into the block's
                // columns: `1/Σ` and `replicas·` then run as vector ops,
                // where a strided store straight into `terms` keeps them
                // scalar.
                let replicas = &lut.replicas[j..][..COL_BLOCK];
                let mut q = [[0.0; COL_BLOCK]; CIM_TILE];
                for (p, q) in q.iter_mut().enumerate() {
                    let mut inv_sum = [0.0; COL_BLOCK];
                    for rows in rows.iter() {
                        let recips = &lut.recips[rows[p] + j..][..COL_BLOCK];
                        for (s, &r) in inv_sum.iter_mut().zip(recips) {
                            *s += r;
                        }
                    }
                    for ((t, &repl), &s) in q.iter_mut().zip(replicas).zip(&inv_sum) {
                        *t = repl * (1.0 / s);
                    }
                }
                let cols = &mut terms[j..j + COL_BLOCK];
                for (p, q) in q.iter().enumerate() {
                    for (col, &t) in cols.iter_mut().zip(q) {
                        col[p] = t;
                    }
                }
            }
            for (j, col) in terms.iter_mut().enumerate().skip(blocked) {
                for (p, c) in col.iter_mut().enumerate() {
                    let mut inv_sum = 0.0;
                    for rows in rows.iter() {
                        inv_sum += lut.recips[rows[p] + j];
                    }
                    *c = lut.replicas[j] * (1.0 / inv_sum);
                }
            }
            // lint: reduction-order per-point total in the direct path's column order
            let mut totals = [0.0; CIM_TILE];
            for col in terms.iter() {
                for (total, &term) in totals.iter_mut().zip(col) {
                    *total += term;
                }
            }
            let first = stream.cursor() + (start + t * CIM_TILE) as u64;
            self.readout.finish_tile(&totals, stream, first, out);
            cur.copy_from_slice(&totals[..cur.len()]);
        }
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
                noise_seed,
            }),
            noise_stream: NoiseStream::new(noise_seed),
            stats: EngineStats::default(),
            currents: Vec::new(),
            scratch: EvalScratch::default(),
        })
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
        self.compute.eval_stream(
            batch,
            self.noise_stream,
            out,
            &mut self.currents,
            policy,
            &mut self.scratch,
        );
        // lint: allow(noise-stream-seq) post-batch cursor commit: the batch already drew .at(cursor + k); advance only publishes the watermark
        self.noise_stream.advance(n as u64);
        // Index-order merge: the same left-to-right association scalar
        // calls would produce, independent of how chunks were assigned.
        for &i_total in &self.currents {
            self.stats.current_sum += i_total;
        }
        self.stats.evaluations += n as u64;
        self.stats.dac_conversions += (n * self.compute.dacs.len()) as u64;
        self.stats.adc_conversions += n as u64;
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

    /// Operation counters accumulated since construction.
    pub fn stats(&self) -> EngineStats {
        self.stats
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
        let scan = PointBatch::from_rows(3, &[vec![0.1, 0.0, 0.0], vec![0.2, 0.0, 0.0]]);
        let _ = engine.log_likelihood_batch(&scan);
        let s = engine.stats();
        assert_eq!(s.evaluations, 3);
        assert_eq!(s.adc_conversions, 3);
        assert_eq!(s.dac_conversions, 9);
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
        // batch size around the tile width.
        let map = test_map();
        let model = test_model(&map);
        let config = CimEngineConfig::default();
        for n in [1usize, 3, 15, 16, 17, 31, 3 * CIM_TILE + 5] {
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
        // point — decided fast or sent to the exact chain — reads out the
        // exact chain's bits.
        let stream = NoiseStream::new(0xadc);
        for engine in guard_engines() {
            let r = &engine.compute.readout;
            let i_max = engine.array().max_current() * 2.0;
            let (lo, hi) = ((r.i_floor * 0.1).ln(), i_max.ln());
            let (mut worst_coord, mut worst_noise) = (0.0f64, 0.0f64);
            let mut fallbacks = 0;
            let n = 512;
            for k in 0..n {
                let i_total = (lo + (hi - lo) * k as f64 / (n - 1) as f64).exp();
                let base = 64 * k as u64;
                let mut out = [0.0; CIM_TILE];
                r.finish_tile(&[i_total; CIM_TILE], stream, base, &mut out);
                for (p, &o) in out.iter().enumerate() {
                    let idx = base + p as u64;
                    let (u, v) = stream.uniforms(idx);
                    let y = r.guarded_coord(i_total, u, v);
                    // The fast noise sample, as `guarded_coord` draws it.
                    let z_f = (-2.0 * ln_fast(u)).sqrt() * cos_turns_fast(v);
                    let noise_f = (i_total * r.var_per_amp).sqrt() * z_f;
                    let z = stream.at(idx);
                    let rms_e = r.noise.total_rms(i_total / r.gm_denom, i_total);
                    worst_noise = worst_noise.max((noise_f - rms_e * z).abs() / rms_e);
                    if !y.is_nan() {
                        worst_coord = worst_coord.max((y - exact_coord(r, i_total, z)).abs());
                    }
                    fallbacks += usize::from(y.is_nan());
                    assert_eq!(
                        o.to_bits(),
                        r.finish(i_total, z).to_bits(),
                        "I = {i_total:e}, slot {p}"
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
                (fallbacks as f64) < allowed * (n * CIM_TILE) as f64,
                "{fallbacks} fallbacks of {} at {} bits",
                n * CIM_TILE,
                r.adc.bits()
            );
        }
    }

    #[test]
    fn adc_guard_forces_exact_fallback_at_code_boundary() {
        // With zero noise bandwidth the noisy current is the pre-noise
        // one. A current exactly between two ADC codes puts `ŷ` on a
        // rounding boundary: the guard must send the point to the exact
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
            // Boundary and inside currents alternate across the tile.
            let it: [f64; CIM_TILE] =
                std::array::from_fn(|p| if p % 2 == 0 { i_boundary } else { i_inside });
            let base = 100 * c;
            let coords: Vec<f64> = (0..CIM_TILE)
                .map(|p| {
                    let (u, v) = stream.uniforms(base + p as u64);
                    r.guarded_coord(it[p], u, v)
                })
                .collect();
            for (p, &y) in coords.iter().enumerate() {
                if p % 2 == 0 {
                    assert!(y.is_nan(), "code {c}, slot {p}: {coords:?}");
                } else {
                    assert_eq!(y.round() as u64, c, "code {c}, slot {p}: {coords:?}");
                }
            }
            // A short tile: the spare slots are computed and dropped.
            for m in [CIM_TILE, 5] {
                let mut out = vec![0.0; m];
                r.finish_tile(&it, stream, base, &mut out);
                for (p, &o) in out.iter().enumerate() {
                    assert_eq!(
                        o,
                        adc.log_current(adc.code_for(it[p])),
                        "code {c}, slot {p} of {m}"
                    );
                }
            }
        }
    }
}
