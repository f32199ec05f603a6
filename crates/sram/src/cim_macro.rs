//! The weight-stationary SRAM CIM macro.
//!
//! Weight codes are programmed once per layer; each `matvec` call streams
//! activation codes through the array. The model captures:
//!
//! - **partial-sum ADC quantization**: every row accumulator is digitized
//!   by an ADC whose range is sized statistically
//!   (`range ≈ factor · √cols · |w|_max · |x|_max`), saturating beyond it,
//! - **row gating**: rows masked by output-dropout are never evaluated
//!   (the paper's RL AND-gating),
//! - **compute reuse**: with reuse enabled, the macro keeps the previous
//!   input codes and exact accumulators per layer, and only applies
//!   delta-MACs where codes changed — the generalization of the paper's
//!   `P_i = P_{i-1} + W·I_A_i − W·I_D_i`,
//! - **operation accounting** for the energy model: executed vs
//!   full-equivalent MACs, ADC conversions, row activations.

use crate::{Result, SramError};
use std::collections::BTreeMap;

/// Macro configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MacroConfig {
    /// Partial-sum ADC resolution in bits (0 disables ADC modeling,
    /// yielding exact accumulation).
    pub adc_bits: u32,
    /// ADC range as a multiple of `√cols · |w|_max · |x|_max`.
    pub adc_range_factor: f64,
    /// Enables the compute-reuse scheme.
    pub reuse: bool,
}

impl Default for MacroConfig {
    fn default() -> Self {
        Self {
            adc_bits: 12,
            adc_range_factor: 4.0,
            reuse: true,
        }
    }
}

/// Operation counters for the energy model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MacroStats {
    /// Scalar multiply-accumulates actually executed (after gating and
    /// reuse).
    pub macs_executed: u64,
    /// MACs a dense full recompute would have executed (rows × cols per
    /// call), the paper's baseline workload.
    pub macs_full_equivalent: u64,
    /// Row-accumulator ADC conversions.
    pub adc_conversions: u64,
    /// Rows skipped by output-dropout gating.
    pub rows_gated: u64,
    /// Matrix-vector calls served.
    pub matvec_calls: u64,
}

impl MacroStats {
    /// Fraction of the full-recompute workload actually executed.
    pub fn workload_fraction(&self) -> f64 {
        if self.macs_full_equivalent == 0 {
            return 0.0;
        }
        self.macs_executed as f64 / self.macs_full_equivalent as f64
    }

    /// Counters accumulated since an `earlier` snapshot of the same
    /// macro — the per-frame deltas the gated pipeline prices VO
    /// inference energy from.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `earlier` is ahead of `self`, which
    /// would mean the snapshots were swapped.
    pub fn delta_since(&self, earlier: &MacroStats) -> MacroStats {
        debug_assert!(
            self.macs_executed >= earlier.macs_executed
                && self.matvec_calls >= earlier.matvec_calls,
            "stats snapshots out of order"
        );
        MacroStats {
            macs_executed: self.macs_executed - earlier.macs_executed,
            macs_full_equivalent: self.macs_full_equivalent - earlier.macs_full_equivalent,
            adc_conversions: self.adc_conversions - earlier.adc_conversions,
            rows_gated: self.rows_gated - earlier.rows_gated,
            matvec_calls: self.matvec_calls - earlier.matvec_calls,
        }
    }
}

#[derive(Debug, Clone)]
struct LayerState {
    codes: Vec<i64>,
    rows: usize,
    cols: usize,
    w_max: i64,
    /// Previous input codes (valid only when `has_prev`; the buffer is
    /// kept across frames so steady-state matvecs allocate nothing).
    prev_input: Vec<i64>,
    has_prev: bool,
    prev_acc: Vec<i64>,
}

/// The programmed macro.
#[derive(Debug, Clone)]
pub struct SramCimMacro {
    config: MacroConfig,
    /// Ordered by layer id: iteration order (e.g. [`Self::reset_reuse`])
    /// must not depend on hash state.
    layers: BTreeMap<usize, LayerState>,
    stats: MacroStats,
    /// Reused changed-column index scratch for the delta path.
    changed: Vec<usize>,
}

impl SramCimMacro {
    /// Creates an empty macro.
    pub fn new(config: MacroConfig) -> Self {
        Self {
            config,
            layers: BTreeMap::new(),
            stats: MacroStats::default(),
            changed: Vec::new(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &MacroConfig {
        &self.config
    }

    /// Programs (or reprograms) the weight array for `layer_id`.
    ///
    /// # Errors
    ///
    /// Returns [`SramError::ShapeMismatch`] when `codes.len() != rows*cols`
    /// and [`SramError::InvalidArgument`] for empty shapes.
    pub fn program_layer(
        &mut self,
        layer_id: usize,
        codes: &[i64],
        rows: usize,
        cols: usize,
    ) -> Result<()> {
        if rows == 0 || cols == 0 {
            return Err(SramError::InvalidArgument(
                "layer shape must be non-zero".into(),
            ));
        }
        if codes.len() != rows * cols {
            return Err(SramError::ShapeMismatch {
                expected: rows * cols,
                found: codes.len(),
            });
        }
        let w_max = codes.iter().map(|c| c.abs()).max().unwrap_or(0).max(1);
        self.layers.insert(
            layer_id,
            LayerState {
                codes: codes.to_vec(),
                rows,
                cols,
                w_max,
                prev_input: Vec::new(),
                has_prev: false,
                prev_acc: vec![0; rows],
            },
        );
        Ok(())
    }

    /// Returns `true` when a layer is programmed.
    pub fn has_layer(&self, layer_id: usize) -> bool {
        self.layers.contains_key(&layer_id)
    }

    /// Executes one quantized matrix-vector product into a fresh vector.
    ///
    /// Allocating wrapper over [`Self::matvec_into`].
    ///
    /// # Errors
    ///
    /// Returns [`SramError::UnknownLayer`] for unprogrammed ids and
    /// [`SramError::ShapeMismatch`] for wrong input/mask lengths.
    pub fn matvec(
        &mut self,
        layer_id: usize,
        input: &[i64],
        out_mask: &[bool],
    ) -> Result<Vec<i64>> {
        let mut out = Vec::new();
        self.matvec_into(layer_id, input, out_mask, &mut out)?;
        Ok(out)
    }

    /// Executes one quantized matrix-vector product into a reused output
    /// buffer (cleared first; one value per row).
    ///
    /// Masked rows (`out_mask[o] == false`) yield 0 without being
    /// evaluated. The accumulators carry the ADC quantization of the
    /// configured resolution. In steady state — layers programmed, reuse
    /// caches warm, `out` at capacity — the call performs no heap
    /// allocation: the previous-input and changed-column scratch buffers
    /// are retained inside the macro.
    ///
    /// # Errors
    ///
    /// Returns [`SramError::UnknownLayer`] for unprogrammed ids and
    /// [`SramError::ShapeMismatch`] for wrong input/mask lengths.
    pub fn matvec_into(
        &mut self,
        layer_id: usize,
        input: &[i64],
        out_mask: &[bool],
        out: &mut Vec<i64>,
    ) -> Result<()> {
        let reuse = self.config.reuse;
        let layer = self
            .layers
            .get_mut(&layer_id)
            .ok_or(SramError::UnknownLayer(layer_id))?;
        if input.len() != layer.cols {
            return Err(SramError::ShapeMismatch {
                expected: layer.cols,
                found: input.len(),
            });
        }
        if out_mask.len() != layer.rows {
            return Err(SramError::ShapeMismatch {
                expected: layer.rows,
                found: out_mask.len(),
            });
        }
        self.stats.matvec_calls += 1;
        self.stats.macs_full_equivalent += (layer.rows * layer.cols) as u64;
        let active_rows = out_mask.iter().filter(|&&m| m).count() as u64;
        self.stats.rows_gated += layer.rows as u64 - active_rows;

        if reuse && layer.has_prev {
            // Delta path: only columns whose input code changed are
            // re-evaluated; accumulators update incrementally.
            self.changed.clear();
            self.changed
                .extend((0..layer.cols).filter(|&i| layer.prev_input[i] != input[i]));
            for o in 0..layer.rows {
                // Note: accumulators for *all* rows are kept current so
                // later iterations with different row masks stay exact.
                let row = &layer.codes[o * layer.cols..(o + 1) * layer.cols];
                let mut acc = layer.prev_acc[o];
                for &i in &self.changed {
                    acc += row[i] * (input[i] - layer.prev_input[i]);
                }
                layer.prev_acc[o] = acc;
            }
            self.stats.macs_executed += self.changed.len() as u64 * layer.rows as u64;
        } else {
            for o in 0..layer.rows {
                let row = &layer.codes[o * layer.cols..(o + 1) * layer.cols];
                layer.prev_acc[o] = row.iter().zip(input).map(|(&w, &x)| w * x).sum();
            }
            self.stats.macs_executed += (layer.rows * layer.cols) as u64;
        }
        layer.prev_input.clear();
        layer.prev_input.extend_from_slice(input);
        layer.has_prev = true;

        // Read out active rows through the partial-sum ADC.
        let x_max = input.iter().map(|x| x.abs()).max().unwrap_or(0).max(1);
        let range = self.config.adc_range_factor
            * (layer.cols as f64).sqrt()
            * layer.w_max as f64
            * x_max as f64;
        out.clear();
        out.extend((0..layer.rows).map(|o| {
            if !out_mask[o] {
                return 0;
            }
            self.stats.adc_conversions += 1;
            quantize_adc(layer.prev_acc[o], self.config.adc_bits, range)
        }));
        Ok(())
    }

    /// Clears the per-layer reuse caches (new input frame), keeping their
    /// allocations.
    pub fn reset_reuse(&mut self) {
        for layer in self.layers.values_mut() {
            layer.has_prev = false;
            layer.prev_acc.iter_mut().for_each(|a| *a = 0);
        }
    }

    /// Accumulated operation counters.
    pub fn stats(&self) -> MacroStats {
        self.stats
    }
}

/// Quantizes an exact accumulator through an `adc_bits` ADC spanning
/// `[-range, range]`; `adc_bits == 0` bypasses the ADC.
fn quantize_adc(acc: i64, adc_bits: u32, range: f64) -> i64 {
    if adc_bits == 0 {
        return acc;
    }
    let max_code = (1i64 << (adc_bits - 1)) - 1;
    let step = range / max_code as f64;
    if step <= 0.0 {
        return acc;
    }
    let code = (acc as f64 / step).round() as i64;
    let code = code.clamp(-max_code, max_code);
    (code as f64 * step).round() as i64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn programmed(config: MacroConfig) -> SramCimMacro {
        let mut m = SramCimMacro::new(config);
        // 2x3 layer: W = [[1, -2, 3], [4, 5, -6]].
        m.program_layer(0, &[1, -2, 3, 4, 5, -6], 2, 3).unwrap();
        m
    }

    fn exact_config() -> MacroConfig {
        MacroConfig {
            adc_bits: 0,
            ..MacroConfig::default()
        }
    }

    #[test]
    fn exact_matvec_values() {
        let mut m = programmed(exact_config());
        let y = m.matvec(0, &[1, 1, 1], &[true, true]).unwrap();
        assert_eq!(y, vec![2, 3]);
        let y = m.matvec(0, &[2, 0, -1], &[true, true]).unwrap();
        assert_eq!(y, vec![-1, 14]);
    }

    #[test]
    fn unknown_layer_and_shape_errors() {
        let mut m = programmed(exact_config());
        assert!(matches!(
            m.matvec(7, &[1, 1, 1], &[true, true]),
            Err(SramError::UnknownLayer(7))
        ));
        assert!(m.matvec(0, &[1, 1], &[true, true]).is_err());
        assert!(m.matvec(0, &[1, 1, 1], &[true]).is_err());
        assert!(m.program_layer(1, &[1, 2], 2, 2).is_err());
    }

    #[test]
    fn row_gating_skips_work() {
        let mut m = programmed(exact_config());
        let y = m.matvec(0, &[1, 1, 1], &[false, true]).unwrap();
        assert_eq!(y[0], 0);
        assert_eq!(y[1], 3);
        assert_eq!(m.stats().rows_gated, 1);
        // ADC runs only for the active row.
        assert_eq!(m.stats().adc_conversions, 1);
    }

    #[test]
    fn reuse_matches_full_recompute() {
        // Identical results with and without reuse, for a random-ish
        // sequence of masked inputs.
        let seqs: Vec<Vec<i64>> = vec![
            vec![3, 0, -2],
            vec![3, 1, -2], // one change
            vec![3, 1, -2], // no change
            vec![0, 1, 5],  // all change
        ];
        let mut with = programmed(exact_config());
        let mut without = programmed(MacroConfig {
            reuse: false,
            ..exact_config()
        });
        for x in &seqs {
            let a = with.matvec(0, x, &[true, true]).unwrap();
            let b = without.matvec(0, x, &[true, true]).unwrap();
            assert_eq!(a, b, "input {x:?}");
        }
        // Reuse executed strictly fewer MACs.
        assert!(with.stats().macs_executed < without.stats().macs_executed);
        assert_eq!(
            with.stats().macs_full_equivalent,
            without.stats().macs_full_equivalent
        );
    }

    #[test]
    fn reuse_cost_proportional_to_changes() {
        let mut m = programmed(exact_config());
        m.matvec(0, &[1, 1, 1], &[true, true]).unwrap();
        let before = m.stats().macs_executed;
        assert_eq!(before, 6); // first call: full 2x3
                               // One changed input: 1 column × 2 rows = 2 MACs.
        m.matvec(0, &[1, 2, 1], &[true, true]).unwrap();
        assert_eq!(m.stats().macs_executed - before, 2);
        // Unchanged input: zero MACs.
        m.matvec(0, &[1, 2, 1], &[true, true]).unwrap();
        assert_eq!(m.stats().macs_executed - before, 2);
    }

    #[test]
    fn reset_reuse_forces_recompute() {
        let mut m = programmed(exact_config());
        m.matvec(0, &[1, 1, 1], &[true, true]).unwrap();
        m.reset_reuse();
        let before = m.stats().macs_executed;
        m.matvec(0, &[1, 1, 1], &[true, true]).unwrap();
        assert_eq!(m.stats().macs_executed - before, 6);
    }

    #[test]
    fn adc_quantization_bounds_error() {
        let config = MacroConfig {
            adc_bits: 8,
            adc_range_factor: 4.0,
            reuse: false,
        };
        let mut m = programmed(config);
        let exact = [2i64, 3];
        let y = m.matvec(0, &[1, 1, 1], &[true, true]).unwrap();
        // range = 4·√3·6·1 ≈ 41.6; step ≈ 0.33 → error ≤ 1 LSB-ish.
        for (a, b) in y.iter().zip(&exact) {
            assert!((a - b).abs() <= 1, "quantized {a} vs exact {b}");
        }
    }

    #[test]
    fn adc_saturates_large_accumulators() {
        let mut m = SramCimMacro::new(MacroConfig {
            adc_bits: 4,
            adc_range_factor: 0.5,
            reuse: false,
        });
        m.program_layer(0, &[100], 1, 1).unwrap();
        // range = 0.5·1·100·50 = 2500; acc = 5000 → saturates below.
        let y = m.matvec(0, &[50], &[true]).unwrap();
        assert!(y[0] < 5000);
    }

    #[test]
    fn workload_fraction() {
        let mut m = programmed(exact_config());
        m.matvec(0, &[1, 1, 1], &[true, true]).unwrap();
        m.matvec(0, &[1, 1, 1], &[true, true]).unwrap();
        // Full first call (6) + zero-delta second call (0) of 12 total.
        assert!((m.stats().workload_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn stats_delta_since_subtracts_fieldwise() {
        let earlier = MacroStats {
            macs_executed: 10,
            macs_full_equivalent: 100,
            adc_conversions: 4,
            rows_gated: 2,
            matvec_calls: 1,
        };
        let later = MacroStats {
            macs_executed: 35,
            macs_full_equivalent: 300,
            adc_conversions: 10,
            rows_gated: 5,
            matvec_calls: 4,
        };
        let delta = later.delta_since(&earlier);
        assert_eq!(delta.macs_executed, 25);
        assert_eq!(delta.macs_full_equivalent, 200);
        assert_eq!(delta.adc_conversions, 6);
        assert_eq!(delta.rows_gated, 3);
        assert_eq!(delta.matvec_calls, 3);
        // A snapshot against itself is the zero delta.
        assert_eq!(later.delta_since(&later), MacroStats::default());
    }

    #[test]
    fn reuse_stays_exact_under_changing_row_masks() {
        // Rows masked in one iteration must still be correct later: the
        // accumulator state is maintained for every row.
        let mut m = programmed(exact_config());
        m.matvec(0, &[1, 1, 1], &[false, true]).unwrap();
        let y = m.matvec(0, &[1, 1, 1], &[true, false]).unwrap();
        assert_eq!(y[0], 2);
        let y = m.matvec(0, &[2, 1, 1], &[true, true]).unwrap();
        assert_eq!(y, vec![3, 7]);
    }
}
