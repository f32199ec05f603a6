//! Quantized inference with a pluggable MAC backend.
//!
//! The paper's SRAM CIM macro executes dense-layer matrix-vector products
//! on quantized weights and activations (4/6/8 bits), with dropout bits
//! AND-gated onto the lines and partial sums digitized by ADCs. This
//! module provides:
//!
//! - [`QuantMatrix`] — a weight matrix quantized to signed codes,
//! - [`QuantBackend`] — the execution interface; `navicim-sram` implements
//!   it with bitline/ADC effects and the compute-reuse scheduler, while
//!   [`ExactBackend`] is the ideal software reference,
//! - [`QuantizedMlp`] — a trained [`Mlp`] exported to the quantized
//!   representation (activation ranges calibrated on sample data), able to
//!   run deterministic or MC-Dropout inference through any backend,
//! - [`ForwardWorkspace`] — caller-owned scratch making the per-frame
//!   inference path allocation-free after warmup
//!   ([`QuantizedMlp::forward_with_masks_into`]).
//!
//! Dropout masks are folded into the activation *codes* (dropped units
//! quantize to zero). Because the inverted-dropout scale is constant, a
//! kept unit produces the same code in every MC iteration whenever its
//! upstream values are unchanged — which is exactly what makes the paper's
//! `P_i = P_{i-1} + W·I_A_i − W·I_D_i` compute reuse effective on the
//! first layer (fixed frame, changing masks). Backends discover reusable
//! work by diffing consecutive input codes per layer, which generalizes
//! that expression.

use crate::activation::Activation;
use crate::mc::McPrediction;
use crate::mlp::{Layer, Mlp};
use crate::{Mode, NnError, Result};
use navicim_math::quant::Quantizer;
use navicim_math::rng::{Rng64, SampleExt};

/// A weight matrix quantized to signed integer codes.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantMatrix {
    rows: usize,
    cols: usize,
    codes: Vec<i64>,
    step: f64,
    bits: u32,
}

impl QuantMatrix {
    /// Quantizes a row-major `rows × cols` weight slice.
    ///
    /// # Errors
    ///
    /// Propagates quantizer-construction errors and rejects shape
    /// mismatches.
    pub fn from_weights(weights: &[f64], rows: usize, cols: usize, bits: u32) -> Result<Self> {
        if weights.len() != rows * cols {
            return Err(NnError::InvalidArgument(format!(
                "expected {} weights, got {}",
                rows * cols,
                weights.len()
            )));
        }
        let q =
            Quantizer::fit(bits, weights).map_err(|e| NnError::InvalidArgument(e.to_string()))?;
        Ok(Self {
            rows,
            cols,
            codes: q.quantize_all(weights),
            step: q.step(),
            bits,
        })
    }

    /// Number of rows (outputs).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (inputs).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Weight bit-width.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Quantization step (code → weight scale factor).
    pub fn step(&self) -> f64 {
        self.step
    }

    /// Row `r` of codes.
    ///
    /// # Panics
    ///
    /// Panics when `r` is out of bounds.
    pub fn row(&self, r: usize) -> &[i64] {
        assert!(r < self.rows, "row out of bounds");
        &self.codes[r * self.cols..(r + 1) * self.cols]
    }

    /// All codes, row-major.
    pub fn codes(&self) -> &[i64] {
        &self.codes
    }
}

/// Executes quantized matrix-vector products — the hardware boundary.
///
/// [`QuantBackend::matvec_into`] is the primitive: it writes into a
/// caller-reused accumulator buffer, which is what lets the per-frame
/// inference path run allocation-free. [`QuantBackend::matvec`] is the
/// provided allocating convenience wrapper.
pub trait QuantBackend {
    /// Computes `acc[o] = Σᵢ W[o,i]·x[i]` over integer codes for every row
    /// with `out_mask[o]` set (masked rows yield 0), writing one value per
    /// row into `acc` (cleared first). `layer_id` identifies the weight
    /// array so stateful backends can cache per-layer state.
    fn matvec_into(
        &mut self,
        layer_id: usize,
        matrix: &QuantMatrix,
        input: &[i64],
        out_mask: &[bool],
        acc: &mut Vec<i64>,
    );

    /// Allocating wrapper over [`QuantBackend::matvec_into`].
    fn matvec(
        &mut self,
        layer_id: usize,
        matrix: &QuantMatrix,
        input: &[i64],
        out_mask: &[bool],
    ) -> Vec<i64> {
        let mut acc = Vec::with_capacity(matrix.rows());
        self.matvec_into(layer_id, matrix, input, out_mask, &mut acc);
        acc
    }

    /// Marks the beginning of one MC-Dropout iteration.
    fn begin_pass(&mut self) {}

    /// Marks the arrival of a new input frame (stateful backends clear
    /// their reuse caches).
    fn reset(&mut self) {}
}

/// Ideal software backend: exact integer arithmetic, full recompute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExactBackend {
    /// Total scalar multiply-accumulates executed.
    pub macs: u64,
}

impl ExactBackend {
    /// Creates a zero-counter backend.
    pub fn new() -> Self {
        Self::default()
    }
}

impl QuantBackend for ExactBackend {
    fn matvec_into(
        &mut self,
        _layer_id: usize,
        matrix: &QuantMatrix,
        input: &[i64],
        out_mask: &[bool],
        acc: &mut Vec<i64>,
    ) {
        assert_eq!(input.len(), matrix.cols(), "input length mismatch");
        assert_eq!(out_mask.len(), matrix.rows(), "mask length mismatch");
        acc.clear();
        acc.extend((0..matrix.rows()).map(|o| {
            if !out_mask[o] {
                return 0;
            }
            self.macs += matrix.cols() as u64;
            matrix
                .row(o)
                .iter()
                .zip(input)
                .map(|(&w, &x)| w * x)
                .sum::<i64>()
        }));
    }
}

/// Reusable per-inference scratch for [`QuantizedMlp`] forward passes.
///
/// Holds the activation ping-pong buffers, the quantized input codes, the
/// backend accumulator and the row mask. After one pass has grown each
/// buffer to its layer's width, subsequent passes through
/// [`QuantizedMlp::forward_with_masks_into`] allocate nothing — the
/// per-frame invariant `bench_mcdropout` tracks.
#[derive(Debug, Clone, Default)]
pub struct ForwardWorkspace {
    /// Current activations.
    h: Vec<f64>,
    /// Next-layer activations (swapped with `h` after each dense layer).
    h_next: Vec<f64>,
    /// Quantized input codes of the current dense layer.
    codes: Vec<i64>,
    /// Backend accumulator output.
    acc: Vec<i64>,
    /// Lookahead row mask of the current dense layer.
    out_mask: Vec<bool>,
}

impl ForwardWorkspace {
    /// An empty workspace (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }
}

/// One layer of a [`QuantizedMlp`].
#[derive(Debug, Clone, PartialEq)]
pub enum QuantLayer {
    /// Quantized dense layer with its input-activation quantizer.
    Dense {
        /// Quantized weights.
        matrix: QuantMatrix,
        /// Full-precision biases (added after dequantization, as done by
        /// the digital periphery).
        bias: Vec<f64>,
        /// Calibrated quantizer for this layer's input activations.
        act_quant: Quantizer,
    },
    /// Elementwise activation, evaluated by the digital periphery.
    Activation(Activation),
    /// Dropout with the given probability.
    Dropout {
        /// Drop probability.
        p: f64,
    },
}

/// A trained network exported to quantized form.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedMlp {
    layers: Vec<QuantLayer>,
    in_dim: usize,
    out_dim: usize,
    weight_bits: u32,
    act_bits: u32,
}

impl QuantizedMlp {
    /// Exports `net` at the given precisions, calibrating activation
    /// ranges on `calibration` inputs run in deterministic mode.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidArgument`] for an empty calibration set
    /// or unsupported precision, and propagates shape errors.
    pub fn from_mlp(
        net: &Mlp,
        weight_bits: u32,
        act_bits: u32,
        calibration: &[Vec<f64>],
    ) -> Result<Self> {
        if calibration.is_empty() {
            return Err(NnError::InvalidArgument(
                "calibration requires at least one input".into(),
            ));
        }
        // Gather per-dense-layer input |max| by replaying the stack.
        let mut net_clone = net.clone();
        let mut max_abs: Vec<f64> = Vec::new();
        for x in calibration {
            if x.len() != net.in_dim() {
                return Err(NnError::ShapeMismatch {
                    expected: net.in_dim(),
                    found: x.len(),
                });
            }
            let mut h = x.clone();
            let mut dense_idx = 0;
            for layer in net_clone.layers_mut() {
                match layer {
                    Layer::Dense(d) => {
                        if max_abs.len() <= dense_idx {
                            max_abs.push(0.0);
                        }
                        let m = h.iter().fold(0.0f64, |m, v| m.max(v.abs()));
                        max_abs[dense_idx] = max_abs[dense_idx].max(m);
                        dense_idx += 1;
                        h = d.forward(&h, false);
                    }
                    Layer::Activation(a) => h = a.forward(&h, false),
                    Layer::Dropout(d) => h = d.forward_identity(&h),
                }
            }
        }

        let mut layers = Vec::with_capacity(net.layers().len());
        let mut dense_idx = 0;
        for layer in net.layers() {
            match layer {
                Layer::Dense(d) => {
                    let matrix = QuantMatrix::from_weights(
                        d.weights(),
                        d.out_dim(),
                        d.in_dim(),
                        weight_bits,
                    )?;
                    let range = max_abs[dense_idx].max(1e-9);
                    let act_quant = Quantizer::new(act_bits, range)
                        .map_err(|e| NnError::InvalidArgument(e.to_string()))?;
                    layers.push(QuantLayer::Dense {
                        matrix,
                        bias: d.biases().to_vec(),
                        act_quant,
                    });
                    dense_idx += 1;
                }
                Layer::Activation(a) => layers.push(QuantLayer::Activation(a.kind())),
                Layer::Dropout(d) => layers.push(QuantLayer::Dropout { p: d.probability() }),
            }
        }
        Ok(Self {
            layers,
            in_dim: net.in_dim(),
            out_dim: net.out_dim(),
            weight_bits,
            act_bits,
        })
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Weight precision in bits.
    pub fn weight_bits(&self) -> u32 {
        self.weight_bits
    }

    /// Activation precision in bits.
    pub fn act_bits(&self) -> u32 {
        self.act_bits
    }

    /// The quantized layer stack.
    pub fn layers(&self) -> &[QuantLayer] {
        &self.layers
    }

    /// Number of dropout layers (one mask each per MC pass).
    fn num_dropout_layers(&self) -> usize {
        self.layers
            .iter()
            .filter(|l| matches!(l, QuantLayer::Dropout { .. }))
            .count()
    }

    /// Dimensions at each dropout layer, in order.
    fn dropout_dims(&self) -> Vec<usize> {
        let mut dims = Vec::new();
        let mut dim = self.in_dim;
        for layer in &self.layers {
            match layer {
                QuantLayer::Dense { matrix, .. } => dim = matrix.rows(),
                QuantLayer::Dropout { .. } => dims.push(dim),
                QuantLayer::Activation(_) => {}
            }
        }
        dims
    }

    /// Samples one set of dropout masks (`true` = keep) for a pass.
    pub fn sample_masks<R: Rng64 + ?Sized>(&self, rng: &mut R) -> Vec<Vec<bool>> {
        let mut masks = Vec::new();
        self.sample_masks_into(rng, &mut masks);
        masks
    }

    /// Samples one set of dropout masks into a reused buffer (outer and
    /// inner allocations are kept across calls). The RNG consumption is
    /// identical to [`Self::sample_masks`].
    pub fn sample_masks_into<R: Rng64 + ?Sized>(&self, rng: &mut R, masks: &mut Vec<Vec<bool>>) {
        masks.resize_with(self.num_dropout_layers(), Vec::new);
        let mut dims = self.dropout_dims().into_iter();
        let mut slot = masks.iter_mut();
        for layer in &self.layers {
            if let QuantLayer::Dropout { p } = layer {
                let d = dims.next().expect("dims align with dropout layers");
                let mask = slot.next().expect("buffer sized above");
                mask.clear();
                mask.extend((0..d).map(|_| !rng.sample_bool(*p)));
            }
        }
    }

    /// Runs one forward pass with explicit dropout masks (one per dropout
    /// layer; pass an empty slice for deterministic inference).
    ///
    /// Allocating wrapper over [`Self::forward_with_masks_into`]; hot
    /// callers hold a [`ForwardWorkspace`] instead.
    ///
    /// # Panics
    ///
    /// Panics on input/mask shape mismatches.
    pub fn forward_with_masks<B: QuantBackend>(
        &self,
        backend: &mut B,
        x: &[f64],
        masks: &[Vec<bool>],
    ) -> Vec<f64> {
        let mut ws = ForwardWorkspace::default();
        let mut out = Vec::with_capacity(self.out_dim);
        self.forward_with_masks_into(backend, x, masks, &mut ws, &mut out);
        out
    }

    /// Runs one forward pass through caller-owned scratch buffers,
    /// writing the output activations into `out`.
    ///
    /// After the first call has warmed the workspace up to the network's
    /// layer widths, the pass performs **no heap allocation**: activation
    /// codes, accumulators, row masks and the activation ping-pong all
    /// live in `ws`, and every [`QuantBackend`] receives its accumulator
    /// buffer through [`QuantBackend::matvec_into`]. Results are
    /// bit-identical to [`Self::forward_with_masks`].
    ///
    /// # Panics
    ///
    /// Panics on input/mask shape mismatches.
    pub fn forward_with_masks_into<B: QuantBackend>(
        &self,
        backend: &mut B,
        x: &[f64],
        masks: &[Vec<bool>],
        ws: &mut ForwardWorkspace,
        out: &mut Vec<f64>,
    ) {
        self.forward_impl(backend, x, masks, ws, out, None);
    }

    /// [`Self::forward_with_masks_into`] that additionally captures the
    /// output layer's **pre-quantization logits**: the final dense
    /// product recomputed from the full-precision input activations
    /// (dequantized weights, same row mask and bias, no activation-code
    /// rounding).
    ///
    /// At narrow activation widths the quantized outputs of different
    /// dropout masks often collapse onto the same codes, flattening the
    /// MC-Dropout predictive variance to numerical dust; the shadow
    /// logits keep the mask-induced spread visible, which is what the
    /// uncertainty consumers (VO noise inflation, gating) need. The
    /// quantized output in `out` is bit-identical to
    /// [`Self::forward_with_masks_into`] — the shadow product touches no
    /// backend or workspace state used by the quantized path.
    pub fn forward_with_masks_logits_into<B: QuantBackend>(
        &self,
        backend: &mut B,
        x: &[f64],
        masks: &[Vec<bool>],
        ws: &mut ForwardWorkspace,
        out: &mut Vec<f64>,
        logits: &mut Vec<f64>,
    ) {
        self.forward_impl(backend, x, masks, ws, out, Some(logits));
    }

    fn forward_impl<B: QuantBackend>(
        &self,
        backend: &mut B,
        x: &[f64],
        masks: &[Vec<bool>],
        ws: &mut ForwardWorkspace,
        out: &mut Vec<f64>,
        mut logits: Option<&mut Vec<f64>>,
    ) {
        assert_eq!(x.len(), self.in_dim, "input dimension mismatch");
        let last_dense_li = self
            .layers
            .iter()
            .rposition(|l| matches!(l, QuantLayer::Dense { .. }));
        let deterministic = masks.is_empty();
        if !deterministic {
            assert_eq!(
                masks.len(),
                self.num_dropout_layers(),
                "one mask required per dropout layer"
            );
        }
        backend.begin_pass();
        ws.h.clear();
        ws.h.extend_from_slice(x);
        let mut dense_idx = 0;
        let mut dropout_idx = 0;
        for (li, layer) in self.layers.iter().enumerate() {
            match layer {
                QuantLayer::Dense {
                    matrix,
                    bias,
                    act_quant,
                } => {
                    act_quant.quantize_all_into(&ws.h, &mut ws.codes);
                    self.lookahead_mask_into(
                        li,
                        matrix.rows(),
                        masks,
                        dropout_idx,
                        &mut ws.out_mask,
                    );
                    // Shadow the output layer in full precision before
                    // the quantized product overwrites `ws.h`.
                    if Some(li) == last_dense_li {
                        if let Some(logits) = logits.as_deref_mut() {
                            logits.clear();
                            let w_step = matrix.step();
                            for (r, (&b, &keep)) in bias.iter().zip(&ws.out_mask).enumerate() {
                                if keep {
                                    let acc: f64 = matrix
                                        .row(r)
                                        .iter()
                                        .zip(&ws.h)
                                        .map(|(&c, &h)| c as f64 * h)
                                        .sum();
                                    logits.push(acc * w_step + b);
                                } else {
                                    logits.push(0.0);
                                }
                            }
                        }
                    }
                    backend.matvec_into(dense_idx, matrix, &ws.codes, &ws.out_mask, &mut ws.acc);
                    let scale = matrix.step() * act_quant.step();
                    ws.h_next.clear();
                    ws.h_next.extend(
                        ws.acc
                            .iter()
                            .zip(bias)
                            .zip(&ws.out_mask)
                            .map(|((&a, &b), &keep)| if keep { a as f64 * scale + b } else { 0.0 }),
                    );
                    std::mem::swap(&mut ws.h, &mut ws.h_next);
                    dense_idx += 1;
                }
                QuantLayer::Activation(a) => a.apply_in_place(&mut ws.h),
                QuantLayer::Dropout { p } => {
                    if !deterministic {
                        let mask = &masks[dropout_idx];
                        assert_eq!(mask.len(), ws.h.len(), "dropout mask length mismatch");
                        let s = 1.0 / (1.0 - p);
                        for (v, &keep) in ws.h.iter_mut().zip(mask) {
                            *v = if keep { *v * s } else { 0.0 };
                        }
                    }
                    dropout_idx += 1;
                }
            }
        }
        out.clear();
        out.extend_from_slice(&ws.h);
    }

    /// Runs one forward pass in the given mode, sampling masks from `rng`
    /// when dropout is active.
    pub fn forward<B: QuantBackend, R: Rng64 + ?Sized>(
        &self,
        backend: &mut B,
        x: &[f64],
        mode: Mode,
        rng: &mut R,
    ) -> Vec<f64> {
        if mode.dropout_active() {
            let masks = self.sample_masks(rng);
            self.forward_with_masks(backend, x, &masks)
        } else {
            self.forward_with_masks(backend, x, &[])
        }
    }

    /// MC-Dropout prediction through the backend: `iterations` stochastic
    /// passes on one input frame (the backend's reuse cache is reset
    /// first).
    ///
    /// # Panics
    ///
    /// Panics if `iterations < 2`.
    pub fn mc_predict<B: QuantBackend, R: Rng64 + ?Sized>(
        &self,
        backend: &mut B,
        x: &[f64],
        iterations: usize,
        rng: &mut R,
    ) -> McPrediction {
        assert!(iterations >= 2, "mc_predict requires at least 2 iterations");
        backend.reset();
        // One workspace and mask buffer serve every iteration; only the
        // returned samples themselves are allocated.
        let mut ws = ForwardWorkspace::default();
        let mut masks: Vec<Vec<bool>> = Vec::new();
        let samples: Vec<Vec<f64>> = (0..iterations)
            .map(|_| {
                self.sample_masks_into(rng, &mut masks);
                let mut y = Vec::with_capacity(self.out_dim);
                self.forward_with_masks_into(backend, x, &masks, &mut ws, &mut y);
                y
            })
            .collect();
        crate::mc::mc_moments(samples)
    }

    /// The output mask for the dense layer at stack position `li`: the mask
    /// of the next dropout layer separated only by elementwise layers
    /// (whose dropped rows need not be computed at all — the paper's
    /// row-line gating), or all-true. Written into the reused `out`
    /// buffer.
    fn lookahead_mask_into(
        &self,
        li: usize,
        rows: usize,
        masks: &[Vec<bool>],
        dropout_idx: usize,
        out: &mut Vec<bool>,
    ) {
        out.clear();
        if !masks.is_empty() {
            for layer in &self.layers[li + 1..] {
                match layer {
                    QuantLayer::Activation(_) => continue,
                    QuantLayer::Dropout { .. } => {
                        let m = &masks[dropout_idx];
                        if m.len() == rows {
                            out.extend_from_slice(m);
                            return;
                        }
                        break;
                    }
                    QuantLayer::Dense { .. } => break,
                }
            }
        }
        out.resize(rows, true);
    }

    /// Dense-layer MAC count of one full (non-reused, unmasked) pass.
    // lint: allow(unused-pub) no caller outside its unit tests; removal deferred to a follow-up sweep
    pub fn macs_per_pass(&self) -> u64 {
        self.layers
            .iter()
            .map(|l| match l {
                QuantLayer::Dense { matrix, .. } => (matrix.rows() * matrix.cols()) as u64,
                _ => 0,
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use navicim_math::rng::Pcg32;

    fn trained_like_net(seed: u64) -> Mlp {
        let mut rng = Pcg32::seed_from_u64(seed);
        Mlp::builder(4)
            .dense(8)
            .relu()
            .dropout(0.5)
            .dense(3)
            .build(&mut rng)
            .unwrap()
    }

    fn calib() -> Vec<Vec<f64>> {
        vec![
            vec![0.5, -0.5, 0.25, 1.0],
            vec![-1.0, 0.3, 0.8, -0.2],
            vec![0.1, 0.9, -0.7, 0.4],
        ]
    }

    #[test]
    fn logit_capture_leaves_quantized_output_bit_identical() {
        let net = trained_like_net(31);
        let q = QuantizedMlp::from_mlp(&net, 4, 4, &calib()).unwrap();
        let mut rng = Pcg32::seed_from_u64(7);
        let masks = q.sample_masks(&mut rng);
        let x = [0.5, -0.5, 0.25, 1.0];
        let mut plain_backend = ExactBackend::new();
        let mut shadow_backend = ExactBackend::new();
        let mut plain_ws = ForwardWorkspace::default();
        let mut shadow_ws = ForwardWorkspace::default();
        let (mut plain, mut shadowed, mut logits) = (Vec::new(), Vec::new(), Vec::new());
        q.forward_with_masks_into(&mut plain_backend, &x, &masks, &mut plain_ws, &mut plain);
        q.forward_with_masks_logits_into(
            &mut shadow_backend,
            &x,
            &masks,
            &mut shadow_ws,
            &mut shadowed,
            &mut logits,
        );
        assert_eq!(
            plain, shadowed,
            "the shadow must not perturb the quantized path"
        );
        assert_eq!(logits.len(), q.out_dim());
        // The shadow is the same dense product minus input-activation
        // rounding, so it lands near the quantized output.
        for (l, o) in logits.iter().zip(&plain) {
            assert!(l.is_finite());
            assert!(
                (l - o).abs() < 1.0,
                "logit {l} far from quantized output {o}"
            );
        }
    }

    #[test]
    fn quant_matrix_roundtrip() {
        let w = [0.5, -1.0, 0.25, 0.75];
        let m = QuantMatrix::from_weights(&w, 2, 2, 8).unwrap();
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 2);
        for (code, &orig) in m.codes().iter().zip(&w) {
            assert!((*code as f64 * m.step() - orig).abs() < m.step());
        }
    }

    #[test]
    fn exact_backend_counts_macs() {
        let w = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let m = QuantMatrix::from_weights(&w, 2, 3, 8).unwrap();
        let mut backend = ExactBackend::new();
        let out = backend.matvec(0, &m, &[1, 1, 1], &[true, true]);
        assert_eq!(out.len(), 2);
        assert_eq!(backend.macs, 6);
        // Masked row skips its MACs and returns zero.
        let out2 = backend.matvec(0, &m, &[1, 1, 1], &[true, false]);
        assert_eq!(out2[1], 0);
        assert_eq!(backend.macs, 9);
    }

    #[test]
    fn high_precision_matches_float_network() {
        let mut net = trained_like_net(1);
        let qnet = QuantizedMlp::from_mlp(&net, 12, 12, &calib()).unwrap();
        let mut backend = ExactBackend::new();
        let mut rng = Pcg32::seed_from_u64(2);
        for x in calib() {
            let y_fp = net.forward(&x, Mode::Deterministic, &mut rng);
            let y_q = qnet.forward(&mut backend, &x, Mode::Deterministic, &mut rng);
            for (a, b) in y_fp.iter().zip(&y_q) {
                assert!((a - b).abs() < 0.01, "fp {a} vs quant {b}");
            }
        }
    }

    #[test]
    fn lower_precision_increases_error() {
        let mut net = trained_like_net(3);
        let mut rng = Pcg32::seed_from_u64(4);
        let x = vec![0.5, -0.5, 0.25, 1.0];
        let y_fp = net.forward(&x, Mode::Deterministic, &mut rng);
        let mut err_at = |bits: u32| {
            let qnet = QuantizedMlp::from_mlp(&net, bits, bits, &calib()).unwrap();
            let mut backend = ExactBackend::new();
            let y = qnet.forward(&mut backend, &x, Mode::Deterministic, &mut rng);
            y.iter()
                .zip(&y_fp)
                .map(|(a, b): (&f64, &f64)| (a - b).abs())
                .fold(0.0f64, f64::max)
        };
        let e4 = err_at(4);
        let e10 = err_at(10);
        assert!(e10 < e4, "4-bit error {e4} vs 10-bit {e10}");
    }

    #[test]
    fn masks_gate_rows_and_inputs() {
        let net = trained_like_net(5);
        let qnet = QuantizedMlp::from_mlp(&net, 8, 8, &calib()).unwrap();
        assert_eq!(qnet.num_dropout_layers(), 1);
        assert_eq!(qnet.dropout_dims(), vec![8]);
        let mut backend = ExactBackend::new();
        // All-dropped mask: hidden layer fully gated, output = bias-only
        // path through the second dense.
        let mask = vec![vec![false; 8]];
        let y = qnet.forward_with_masks(&mut backend, &[0.5, 0.5, 0.5, 0.5], &mask);
        assert_eq!(y.len(), 3);
        // First dense layer computed nothing (all rows masked).
        // Second dense still ran on the zero vector.
        assert_eq!(backend.macs, 3 * 8);
    }

    #[test]
    fn mc_predict_through_backend() {
        let net = trained_like_net(6);
        let qnet = QuantizedMlp::from_mlp(&net, 6, 6, &calib()).unwrap();
        let mut backend = ExactBackend::new();
        let mut rng = Pcg32::seed_from_u64(7);
        let pred = qnet.mc_predict(&mut backend, &[0.5, -0.5, 0.25, 1.0], 20, &mut rng);
        assert_eq!(pred.mean.len(), 3);
        assert!(pred.total_variance() > 0.0);
        assert_eq!(pred.samples.len(), 20);
    }

    #[test]
    fn macs_per_pass_accounting() {
        let net = trained_like_net(8);
        let qnet = QuantizedMlp::from_mlp(&net, 8, 8, &calib()).unwrap();
        assert_eq!(qnet.macs_per_pass(), (4 * 8 + 8 * 3) as u64);
    }

    #[test]
    fn calibration_validation() {
        let net = trained_like_net(9);
        assert!(QuantizedMlp::from_mlp(&net, 8, 8, &[]).is_err());
        assert!(QuantizedMlp::from_mlp(&net, 8, 8, &[vec![1.0]]).is_err());
    }

    #[test]
    fn workspace_path_matches_allocating_path() {
        // forward_with_masks_into through one long-lived workspace is
        // bit-identical to forward_with_masks, pass after pass, including
        // backend MAC accounting.
        let net = trained_like_net(11);
        let qnet = QuantizedMlp::from_mlp(&net, 6, 6, &calib()).unwrap();
        let mut rng = Pcg32::seed_from_u64(12);
        let mut ws = ForwardWorkspace::new();
        let mut b_ws = ExactBackend::new();
        let mut b_alloc = ExactBackend::new();
        let mut y = Vec::new();
        for x in calib() {
            let masks = qnet.sample_masks(&mut rng);
            qnet.forward_with_masks_into(&mut b_ws, &x, &masks, &mut ws, &mut y);
            let expected = qnet.forward_with_masks(&mut b_alloc, &x, &masks);
            assert_eq!(y, expected);
            assert_eq!(b_ws.macs, b_alloc.macs);
            // Deterministic pass through the same workspace.
            qnet.forward_with_masks_into(&mut b_ws, &x, &[], &mut ws, &mut y);
            assert_eq!(y, qnet.forward_with_masks(&mut b_alloc, &x, &[]));
        }
    }

    #[test]
    fn sample_masks_into_matches_sample_masks() {
        let net = trained_like_net(12);
        let qnet = QuantizedMlp::from_mlp(&net, 6, 6, &calib()).unwrap();
        let mut rng_a = Pcg32::seed_from_u64(3);
        let mut rng_b = Pcg32::seed_from_u64(3);
        let mut reused = Vec::new();
        for _ in 0..5 {
            qnet.sample_masks_into(&mut rng_a, &mut reused);
            assert_eq!(reused, qnet.sample_masks(&mut rng_b));
        }
        assert_eq!(rng_a, rng_b, "identical RNG consumption");
    }

    #[test]
    fn workspace_buffers_stop_growing_after_warmup() {
        // After one pass the workspace holds every layer's width; later
        // passes must not grow any buffer (the zero-alloc invariant).
        let net = trained_like_net(13);
        let qnet = QuantizedMlp::from_mlp(&net, 6, 6, &calib()).unwrap();
        let mut ws = ForwardWorkspace::new();
        let mut backend = ExactBackend::new();
        let mut rng = Pcg32::seed_from_u64(14);
        let mut y = Vec::new();
        let masks = qnet.sample_masks(&mut rng);
        qnet.forward_with_masks_into(&mut backend, &calib()[0], &masks, &mut ws, &mut y);
        let caps = (
            ws.h.capacity(),
            ws.h_next.capacity(),
            ws.codes.capacity(),
            ws.acc.capacity(),
            ws.out_mask.capacity(),
        );
        for x in calib() {
            let masks = qnet.sample_masks(&mut rng);
            qnet.forward_with_masks_into(&mut backend, &x, &masks, &mut ws, &mut y);
        }
        assert_eq!(
            caps,
            (
                ws.h.capacity(),
                ws.h_next.capacity(),
                ws.codes.capacity(),
                ws.acc.capacity(),
                ws.out_mask.capacity(),
            )
        );
    }

    #[test]
    fn kept_codes_stable_across_iterations() {
        // The property compute reuse relies on: with a fixed input frame,
        // the first dense layer's input codes are identical across MC
        // iterations (dropout only zeroes them).
        let net = trained_like_net(10);
        let qnet = QuantizedMlp::from_mlp(&net, 6, 6, &calib()).unwrap();
        // Input layer has no dropout before it, so codes are trivially
        // stable; verify via two identical deterministic passes.
        let mut b1 = ExactBackend::new();
        let mut b2 = ExactBackend::new();
        let x = vec![0.3, 0.1, -0.2, 0.7];
        let y1 = qnet.forward_with_masks(&mut b1, &x, &[]);
        let y2 = qnet.forward_with_masks(&mut b2, &x, &[]);
        assert_eq!(y1, y2);
    }
}
