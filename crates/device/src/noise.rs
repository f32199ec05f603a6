//! Electronic noise-current models and the splittable evaluation noise
//! stream.
//!
//! Two consumers in the workspace need physically grounded noise:
//!
//! - the analog likelihood engine (Section II), where noise perturbs the
//!   summed column current before ADC conversion, and
//! - the SRAM-embedded RNG (Section III), which *harvests* per-port noise
//!   currents as its entropy source.
//!
//! The model covers thermal (Johnson–Nyquist channel) noise `4kT·γ·g_m·Δf`
//! and shot noise `2q·I·Δf`, both white over the evaluation bandwidth.
//!
//! [`NoiseStream`] supplies the per-evaluation standard normals the
//! likelihood engine scales through [`NoiseModel::sample_with_z`]. It is
//! *counter-based*: sample `i` is a pure function of `(seed, i)`, so any
//! chunk of a batch can be evaluated on any thread, in any order, and
//! still perturb evaluation `i` with exactly the value a sequential pass
//! would have used.

use crate::params::{BOLTZMANN, ELECTRON_CHARGE};
use navicim_math::rng::{Rng64, SampleExt};

/// White-noise model for a device biased at a given operating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseModel {
    /// Absolute temperature in kelvin.
    pub temperature: f64,
    /// Excess-noise factor γ (≈ 2/3 long channel, ≈ 1–2 short channel).
    pub gamma: f64,
    /// Evaluation bandwidth in hertz (sets the integrated noise power).
    pub bandwidth: f64,
}

impl NoiseModel {
    /// Room-temperature model with short-channel excess noise and the given
    /// bandwidth.
    pub fn room_temperature(bandwidth: f64) -> Self {
        Self {
            temperature: 300.0,
            gamma: 1.5,
            bandwidth,
        }
    }

    /// RMS thermal noise current for a device with transconductance `gm`.
    pub fn thermal_rms(&self, gm: f64) -> f64 {
        (4.0 * BOLTZMANN * self.temperature * self.gamma * gm * self.bandwidth).sqrt()
    }

    /// RMS shot noise current for a bias current `i_bias`.
    pub fn shot_rms(&self, i_bias: f64) -> f64 {
        (2.0 * ELECTRON_CHARGE * i_bias.abs() * self.bandwidth).sqrt()
    }

    /// Combined RMS noise current (thermal ⊕ shot, uncorrelated).
    pub fn total_rms(&self, gm: f64, i_bias: f64) -> f64 {
        let t = self.thermal_rms(gm);
        let s = self.shot_rms(i_bias);
        (t * t + s * s).sqrt()
    }

    /// Total noise variance per ampere of bias, `(4kTγ·g + 2q)·Δf`, for a
    /// device whose transconductance tracks its bias current as
    /// `g_m = g·I` (the subthreshold estimate `g = 1/(n·U_T)`).
    ///
    /// `√(I · variance_per_amp(g))` is [`Self::total_rms`]`(g·I, I)` for
    /// any `I ≥ 0` with one square root instead of three; the two differ
    /// only by rounding, at most `4·ε` relative (`ε = f64::EPSILON`).
    pub fn variance_per_amp(&self, gm_per_amp: f64) -> f64 {
        (4.0 * BOLTZMANN * self.temperature * self.gamma * gm_per_amp + 2.0 * ELECTRON_CHARGE)
            * self.bandwidth
    }

    /// Draws one integrated noise-current sample for the operating point.
    pub fn sample<R: Rng64 + ?Sized>(&self, gm: f64, i_bias: f64, rng: &mut R) -> f64 {
        self.sample_with_z(gm, i_bias, rng.sample_standard_normal())
    }

    /// Noise-current sample from a pre-drawn standard-normal `z`.
    ///
    /// Batch evaluators take their standard normals from a [`NoiseStream`]
    /// and scale them per operating point through this method, so the
    /// noise formula lives here in the device model rather than being
    /// re-derived by each caller. `sample` delegates here, keeping the two
    /// paths identical.
    pub fn sample_with_z(&self, gm: f64, i_bias: f64, z: f64) -> f64 {
        self.total_rms(gm, i_bias) * z
    }
}

/// SplitMix64 increment (Steele, Lea, Flood 2014).
const SM64_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The `k`-th output word of a SplitMix64 generator seeded with `seed`,
/// computed directly from the counter (SplitMix64's state after `k + 1`
/// steps is `seed + (k + 1)·γ`, so any word is random-access).
#[inline(always)]
fn splitmix_word(seed: u64, k: u64) -> u64 {
    let mut z = seed.wrapping_add(SM64_GAMMA.wrapping_mul(k.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform `[0, 1)` from the high 53 bits of a word (the same mapping
/// `Rng64::next_f64` uses).
#[inline(always)]
fn unit_f64(word: u64) -> f64 {
    (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A counter-based, splittable stream of standard-normal samples.
///
/// [`NoiseStream::at`] is a pure function of `(seed, index)`: it consumes
/// words `2·index` and `2·index + 1` of a SplitMix64 sequence and pushes
/// them through the same Box–Muller transform as
/// [`SampleExt::sample_standard_normal`]. Two consequences:
///
/// - **Chunk/thread invariance.** A batch evaluator that assigns each
///   evaluation its absolute stream index produces bit-identical noise no
///   matter how the batch is chunked or which thread serves which chunk —
///   the property the `parallel` feature of `navicim-backend` relies on.
/// - **Sequential equivalence.** Drawing indices `0, 1, 2, …` reproduces
///   exactly the sequence a `SplitMix64`-backed
///   [`SampleExt::sample_standard_normal`] sampler would emit.
///
/// The stream also carries a `cursor` so stateful consumers (the CIM
/// engine) can hand out disjoint index ranges to successive batches:
/// batch `k` covers `[cursor, cursor + len)` and then advances the
/// cursor, which keeps scalar-call and batch-call histories aligned.
///
/// ```
/// use navicim_device::noise::NoiseStream;
/// let s = NoiseStream::new(42);
/// let mut t = NoiseStream::new(42);
/// // Random access agrees with sequential draws.
/// let seq: Vec<f64> = (0..4).map(|_| t.next_z()).collect();
/// let random: Vec<f64> = (0..4).map(|i| s.at(i)).collect();
/// assert_eq!(seq, random);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NoiseStream {
    seed: u64,
    cursor: u64,
}

impl NoiseStream {
    /// Creates a stream from a 64-bit seed with the cursor at zero.
    pub fn new(seed: u64) -> Self {
        Self { seed, cursor: 0 }
    }

    /// Recreates a stream at an explicit cursor position, e.g. to replay
    /// the index range a session claimed earlier.
    pub fn with_cursor(seed: u64, cursor: u64) -> Self {
        Self { seed, cursor }
    }

    /// The stream's seed. Streams with equal seeds index into one shared
    /// noise sequence.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The standard-normal sample at absolute stream index `index`,
    /// independent of the cursor and of any other draw: the Box–Muller
    /// transform `√(−2·ln u)·cos(2π·v)` of [`Self::uniforms`]`(index)`,
    /// with libm `ln` and `cos`.
    ///
    /// This is the one exact definition of the sample. The CIM engine's
    /// vectorized ADC path evaluates the same transform of the same
    /// uniforms with bounded-error lane approximations, but only to
    /// decide codes it can prove equal to the ones this value yields;
    /// every other lane calls `at` (see `navicim_analog::engine`).
    pub fn at(&self, index: u64) -> f64 {
        let (u, v) = self.uniforms(index);
        (-2.0 * u.ln()).sqrt() * (2.0 * std::f64::consts::PI * v).cos()
    }

    /// The Box–Muller uniforms behind [`Self::at`]`(index)`: `u ∈ [2⁻⁵³, 1]`
    /// (the radius draw, never zero) from word `2·index` and
    /// `v ∈ [0, 1)` (the angle in turns) from word `2·index + 1`.
    #[inline(always)]
    pub fn uniforms(&self, index: u64) -> (f64, f64) {
        let u = 1.0 - unit_f64(splitmix_word(self.seed, 2 * index));
        let v = unit_f64(splitmix_word(self.seed, 2 * index + 1));
        (u, v)
    }

    /// Draws the sample at the cursor and advances it by one.
    pub fn next_z(&mut self) -> f64 {
        let z = self.at(self.cursor);
        self.cursor += 1;
        z
    }

    /// The index the next sequential draw will consume.
    pub fn cursor(&self) -> u64 {
        self.cursor
    }

    /// Advances the cursor past `n` samples (a batch evaluator claims its
    /// index range up front and commits it once the batch completes).
    pub fn advance(&mut self, n: u64) {
        self.cursor += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use navicim_math::rng::Pcg32;
    use navicim_math::stats;

    #[test]
    fn thermal_noise_scales_with_sqrt_gm() {
        let m = NoiseModel::room_temperature(1e9);
        let a = m.thermal_rms(1e-4);
        let b = m.thermal_rms(4e-4);
        assert!((b / a - 2.0).abs() < 1e-9);
    }

    #[test]
    fn shot_noise_scales_with_sqrt_current() {
        let m = NoiseModel::room_temperature(1e9);
        let a = m.shot_rms(1e-6);
        let b = m.shot_rms(4e-6);
        assert!((b / a - 2.0).abs() < 1e-9);
    }

    #[test]
    fn noise_magnitudes_are_physical() {
        // A 100 µA/V device at 1 GHz bandwidth: thermal noise should land in
        // the nA–µA range, far below the µA-scale signal currents.
        let m = NoiseModel::room_temperature(1e9);
        let rms = m.thermal_rms(1e-4);
        assert!(rms > 1e-9 && rms < 1e-5, "rms = {rms}");
    }

    #[test]
    fn samples_match_requested_rms() {
        let m = NoiseModel::room_temperature(1e8);
        let mut rng = Pcg32::seed_from_u64(1);
        let rms = m.total_rms(1e-4, 1e-6);
        let xs: Vec<f64> = (0..20_000)
            .map(|_| m.sample(1e-4, 1e-6, &mut rng))
            .collect();
        assert!((stats::std_dev(&xs) / rms - 1.0).abs() < 0.05);
        assert!(stats::mean(&xs).abs() < rms * 0.05);
    }

    #[test]
    fn total_combines_quadratically() {
        let m = NoiseModel::room_temperature(1e9);
        let t = m.thermal_rms(1e-4);
        let s = m.shot_rms(1e-5);
        let tot = m.total_rms(1e-4, 1e-5);
        assert!((tot * tot - (t * t + s * s)).abs() < 1e-24);
    }

    #[test]
    fn stream_matches_sequential_splitmix_sampler() {
        // NoiseStream::at is random access into the exact sequence a
        // sequential SplitMix64-backed Box-Muller sampler produces.
        use navicim_math::rng::SplitMix64;
        let stream = NoiseStream::new(0xfeed);
        let mut rng = SplitMix64::seed_from_u64(0xfeed);
        for i in 0..64 {
            assert_eq!(stream.at(i), rng.sample_standard_normal(), "index {i}");
        }
    }

    #[test]
    fn variance_per_amp_matches_total_rms_to_rounding() {
        for bw in [1e6, 1e7, 1e8, 1e10] {
            let m = NoiseModel::room_temperature(bw);
            // The CIM engine's transconductance estimate g_m = I/(n·U_T).
            let n_ut = 1.4 * 0.025852;
            let vpa = m.variance_per_amp(1.0 / n_ut);
            for k in 0..400 {
                let i = 1e-16 * 10f64.powf(k as f64 * 0.03);
                let exact = m.total_rms(i / n_ut, i);
                let fast = (i * vpa).sqrt();
                assert!(
                    (fast - exact).abs() <= 4.0 * f64::EPSILON * exact,
                    "bw {bw}, I {i}: {fast} vs {exact}"
                );
            }
        }
    }

    #[test]
    fn uniforms_feed_box_muller_and_stay_in_range() {
        let s = NoiseStream::new(0x5eed);
        for i in 0..4096 {
            let (u, v) = s.uniforms(i);
            assert!((f64::EPSILON / 2.0..=1.0).contains(&u), "u = {u}");
            assert!((0.0..1.0).contains(&v), "v = {v}");
            let z = (-2.0 * u.ln()).sqrt() * (2.0 * std::f64::consts::PI * v).cos();
            assert_eq!(s.at(i).to_bits(), z.to_bits(), "index {i}");
        }
    }

    #[test]
    fn stream_order_independent() {
        let s = NoiseStream::new(7);
        let forward: Vec<f64> = (0..16).map(|i| s.at(i)).collect();
        let backward: Vec<f64> = (0..16).rev().map(|i| s.at(i)).collect();
        let reversed: Vec<f64> = backward.into_iter().rev().collect();
        assert_eq!(forward, reversed);
    }

    #[test]
    fn stream_cursor_tracks_draws() {
        let mut s = NoiseStream::new(3);
        assert_eq!(s.cursor(), 0);
        let a = s.next_z();
        assert_eq!(s.cursor(), 1);
        s.advance(9);
        assert_eq!(s.cursor(), 10);
        assert_eq!(a, NoiseStream::new(3).at(0));
    }

    #[test]
    fn stream_samples_are_standard_normal() {
        let s = NoiseStream::new(11);
        let xs: Vec<f64> = (0..20_000).map(|i| s.at(i)).collect();
        assert!(stats::mean(&xs).abs() < 0.02);
        assert!((stats::std_dev(&xs) - 1.0).abs() < 0.02);
    }

    #[test]
    fn distinct_seeds_give_distinct_streams() {
        let a = NoiseStream::new(1);
        let b = NoiseStream::new(2);
        let same = (0..64).filter(|&i| a.at(i) == b.at(i)).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn with_cursor_replays_a_claimed_range() {
        let mut live = NoiseStream::new(0xabcd);
        let drawn: Vec<f64> = (0..8).map(|_| live.next_z()).collect();
        let replay = NoiseStream::with_cursor(0xabcd, 0);
        let replayed: Vec<f64> = (0..8).map(|i| replay.at(i)).collect();
        assert_eq!(drawn, replayed);
        assert_eq!(live.seed(), replay.seed());
        assert_eq!(NoiseStream::with_cursor(0xabcd, 8), live);
    }

    #[test]
    fn higher_temperature_more_thermal_noise() {
        let cold = NoiseModel {
            temperature: 250.0,
            gamma: 1.5,
            bandwidth: 1e9,
        };
        let hot = NoiseModel {
            temperature: 400.0,
            gamma: 1.5,
            bandwidth: 1e9,
        };
        assert!(hot.thermal_rms(1e-4) > cold.thermal_rms(1e-4));
    }
}
