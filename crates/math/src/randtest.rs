//! Lightweight randomness test battery for hardware bitstreams.
//!
//! The SRAM-embedded RNG of the paper's Section III must produce unbiased,
//! uncorrelated dropout bits. This module implements the classical tests
//! used to validate such generators: monobit frequency, runs, serial
//! (overlapping pairs), block frequency and lag autocorrelation — each
//! returning a p-value-style statistic.

use crate::stats::normal_cdf;

/// Outcome of one randomness test.
#[derive(Debug, Clone, PartialEq)]
pub struct TestOutcome {
    /// Test name.
    pub name: &'static str,
    /// Test statistic (z-score or χ²-like, see each test).
    pub statistic: f64,
    /// Two-sided p-value; small values indicate non-randomness.
    pub p_value: f64,
    /// Pass at the 1% significance level.
    pub pass: bool,
}

impl TestOutcome {
    fn from_z(name: &'static str, z: f64) -> Self {
        let p = 2.0 * (1.0 - normal_cdf(z.abs()));
        Self {
            name,
            statistic: z,
            p_value: p,
            pass: p > 0.01,
        }
    }
}

/// Fraction of ones in a bitstream.
///
/// Returns `0.5` for an empty stream (unbiased by convention).
fn ones_fraction(bits: &[bool]) -> f64 {
    if bits.is_empty() {
        return 0.5;
    }
    bits.iter().filter(|&&b| b).count() as f64 / bits.len() as f64
}

/// Monobit frequency test (NIST SP 800-22 §2.1).
///
/// # Panics
///
/// Panics if the stream is empty.
pub fn monobit(bits: &[bool]) -> TestOutcome {
    assert!(!bits.is_empty(), "monobit requires bits");
    let n = bits.len() as f64;
    let s: f64 = bits.iter().map(|&b| if b { 1.0 } else { -1.0 }).sum();
    TestOutcome::from_z("monobit", s / n.sqrt())
}

/// Runs test (NIST SP 800-22 §2.3): counts maximal runs of identical bits
/// and compares with the expectation under independence.
///
/// # Panics
///
/// Panics if the stream has fewer than 2 bits.
pub fn runs(bits: &[bool]) -> TestOutcome {
    assert!(bits.len() >= 2, "runs test requires at least 2 bits");
    let n = bits.len() as f64;
    let pi = ones_fraction(bits);
    // Degenerate streams (all equal) fail outright.
    if pi == 0.0 || pi == 1.0 {
        return TestOutcome {
            name: "runs",
            statistic: f64::INFINITY,
            p_value: 0.0,
            pass: false,
        };
    }
    let v = 1 + bits.windows(2).filter(|w| w[0] != w[1]).count();
    let expected = 2.0 * n * pi * (1.0 - pi) + 1.0;
    let sd = (2.0 * n * pi * (1.0 - pi) * (2.0 * n * pi * (1.0 - pi) - 1.0) / (n - 1.0)).sqrt();
    let z = (v as f64 - expected) / sd;
    TestOutcome::from_z("runs", z)
}

/// Lag-`k` autocorrelation test: correlation between the stream and a
/// shifted copy of itself.
///
/// # Panics
///
/// Panics unless `0 < lag < bits.len()`.
fn autocorrelation(bits: &[bool], lag: usize) -> TestOutcome {
    assert!(lag > 0 && lag < bits.len(), "lag must be in (0, n)");
    let n = bits.len() - lag;
    // Count agreements between b[i] and b[i+lag]; expect n/2.
    let agree = (0..n).filter(|&i| bits[i] == bits[i + lag]).count() as f64;
    let z = (2.0 * agree - n as f64) / (n as f64).sqrt();
    TestOutcome::from_z("autocorrelation", z)
}

/// Serial (overlapping 2-bit pattern) test: checks that the four patterns
/// 00/01/10/11 occur with equal frequency. The statistic is a χ² with 2
/// degrees of freedom mapped through a normal approximation.
///
/// # Panics
///
/// Panics if the stream has fewer than 3 bits.
fn serial_pairs(bits: &[bool]) -> TestOutcome {
    assert!(bits.len() >= 3, "serial test requires at least 3 bits");
    let n = (bits.len() - 1) as f64;
    let mut counts = [0.0f64; 4];
    for w in bits.windows(2) {
        let idx = (w[0] as usize) << 1 | (w[1] as usize);
        counts[idx] += 1.0;
    }
    let expected = n / 4.0;
    let chi2: f64 = counts
        .iter()
        .map(|c| (c - expected) * (c - expected) / expected)
        .sum();
    // Wilson–Hilferty cube-root normal approximation for χ²(k=3).
    let k = 3.0;
    let z = ((chi2 / k).powf(1.0 / 3.0) - (1.0 - 2.0 / (9.0 * k))) / (2.0 / (9.0 * k)).sqrt();
    TestOutcome::from_z("serial", z)
}

/// Block frequency test: splits into blocks of `block_len` bits and checks
/// the per-block ones-fraction.
///
/// # Panics
///
/// Panics unless the stream contains at least one full block.
fn block_frequency(bits: &[bool], block_len: usize) -> TestOutcome {
    assert!(block_len > 0, "block_len must be positive");
    let nblocks = bits.len() / block_len;
    assert!(nblocks > 0, "stream shorter than one block");
    let mut chi2 = 0.0;
    for b in 0..nblocks {
        let pi = ones_fraction(&bits[b * block_len..(b + 1) * block_len]);
        chi2 += 4.0 * block_len as f64 * (pi - 0.5) * (pi - 0.5);
    }
    let k = nblocks as f64;
    let z = ((chi2 / k).powf(1.0 / 3.0) - (1.0 - 2.0 / (9.0 * k))) / (2.0 / (9.0 * k)).sqrt();
    TestOutcome::from_z("block_frequency", z)
}

/// Runs the full battery with standard parameters and returns all outcomes.
///
/// # Panics
///
/// Panics if the stream has fewer than 128 bits (too short for meaningful
/// statistics).
pub fn battery(bits: &[bool]) -> Vec<TestOutcome> {
    assert!(bits.len() >= 128, "battery requires at least 128 bits");
    vec![
        monobit(bits),
        runs(bits),
        serial_pairs(bits),
        block_frequency(bits, 32),
        autocorrelation(bits, 1),
        autocorrelation(bits, 2),
        autocorrelation(bits, 8),
    ]
}

/// Returns `true` when every test in the battery passes at 1%.
pub fn battery_passes(bits: &[bool]) -> bool {
    battery(bits).iter().all(|o| o.pass)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{Pcg32, Rng64, SampleExt};

    fn random_bits(n: usize, seed: u64) -> Vec<bool> {
        let mut rng = Pcg32::seed_from_u64(seed);
        (0..n).map(|_| rng.next_f64() < 0.5).collect()
    }

    #[test]
    fn good_generator_passes_battery() {
        let bits = random_bits(8192, 42);
        for outcome in battery(&bits) {
            assert!(outcome.pass, "{outcome:?}");
        }
    }

    #[test]
    fn constant_stream_fails() {
        let bits = vec![true; 4096];
        assert!(!monobit(&bits).pass);
        assert!(!runs(&bits).pass);
        assert!(!battery_passes(&bits));
    }

    #[test]
    fn alternating_stream_fails_runs_and_autocorr() {
        let bits: Vec<bool> = (0..4096).map(|i| i % 2 == 0).collect();
        // Perfectly balanced, so monobit passes...
        assert!(monobit(&bits).pass);
        // ...but structure is detected elsewhere.
        assert!(!runs(&bits).pass);
        assert!(!autocorrelation(&bits, 1).pass);
        assert!(!serial_pairs(&bits).pass);
    }

    #[test]
    fn biased_stream_fails_monobit() {
        let mut rng = Pcg32::seed_from_u64(3);
        let bits: Vec<bool> = (0..4096).map(|_| rng.sample_bool(0.6)).collect();
        assert!(!monobit(&bits).pass);
    }

    #[test]
    fn slightly_biased_long_stream_detected() {
        // 52% ones is invisible in 100 bits but obvious in 100k bits.
        let mut rng = Pcg32::seed_from_u64(4);
        let bits: Vec<bool> = (0..100_000).map(|_| rng.sample_bool(0.52)).collect();
        assert!(!monobit(&bits).pass);
    }

    #[test]
    fn ones_fraction_counts() {
        assert_eq!(ones_fraction(&[true, true, false, false]), 0.5);
        assert_eq!(ones_fraction(&[]), 0.5);
        assert_eq!(ones_fraction(&[true]), 1.0);
    }

    #[test]
    fn lagged_copy_fails_autocorrelation_at_that_lag() {
        // Stream where bit i == bit i-4: strong lag-4 correlation.
        let mut rng = Pcg32::seed_from_u64(5);
        let mut bits = Vec::with_capacity(4096);
        for i in 0..4096 {
            if i < 4 {
                bits.push(rng.sample_bool(0.5));
            } else {
                let prev: bool = bits[i - 4];
                bits.push(if rng.sample_bool(0.9) { prev } else { !prev });
            }
        }
        assert!(!autocorrelation(&bits, 4).pass);
        // Other lags remain plausible.
        assert!(autocorrelation(&bits, 3).p_value > 1e-4);
    }

    #[test]
    fn battery_outcome_count() {
        let bits = random_bits(1024, 9);
        assert_eq!(battery(&bits).len(), 7);
    }
}
