//! Workspace-level property-based tests on the core invariants that the
//! paper's co-design relies on.

use navicim::analog::engine::{CimEngineConfig, EvalScratch, HmgmCimEngine, CIM_TILE};
use navicim::analog::mapping::SpaceMap;
use navicim::backend::par::ChunkPolicy;
use navicim::backend::{LikelihoodBackend, PointBatch};
use navicim::core::localization::LocalizerConfig;
use navicim::core::pipeline::{
    ControlSource, GateConfig, GateContext, HysteresisConfig, HysteresisGate, LocalizationPipeline,
    MultiSignalConfig, MultiSignalGate, NoiseInflation, PeriodicRefresh, PeriodicRefreshConfig,
    UncertaintySignals, VoStage, ANALOG_SLOT, DIGITAL_SLOT,
};
use navicim::core::registry::{CIM_HMGM, DIGITAL_GMM};
use navicim::core::vo::{AdaptiveMcConfig, AdaptiveMcPolicy, BayesianVo, VoPipelineConfig};
use navicim::device::inverter::GaussianLikeCell;
use navicim::device::noise::NoiseStream;
use navicim::device::params::TechParams;
use navicim::gmm::gaussian::{Gmm, GMM_TILE};
use navicim::gmm::hmg::{HmgKernel, HmgmModel};
use navicim::gmm::prune::{PruneConfig, PruneScratch, PRUNE_TILE};
use navicim::math::geom::{Pose, Quat, Vec3};
use navicim::math::quant::Quantizer;
use navicim::math::rng::Pcg32;
use navicim::math::sample::{effective_sample_size, ResampleScheme};
use navicim::nn::quant::QuantMatrix;
use navicim::sram::cim_macro::{MacroConfig, SramCimMacro};
use navicim::sram::reuse::{greedy_order, hamming, path_cost};
use proptest::prelude::*;

/// A CIM parity fixture: the unit-cube map and a `k`-component HMG
/// mixture with random centers, device-realizable widths and weights
/// spread so the programmed replica counts span 1–5.
fn cim_parity_model(k: usize, rng: &mut Pcg32) -> (SpaceMap, HmgmModel) {
    use navicim::math::rng::SampleExt;
    let pts = vec![vec![-1.0, -1.0, -1.0], vec![1.0, 1.0, 1.0]];
    let space = SpaceMap::fit_to_points(&pts, 0.15, 0.85, 0.2).expect("map fits");
    let tech = TechParams::cmos_45nm();
    let (floor, ceil) = HmgmCimEngine::recommended_sigma_bounds(&tech, &space);
    let mut weights = Vec::with_capacity(k);
    let mut kernels = Vec::with_capacity(k);
    for j in 0..k {
        let mean = [0; 3].map(|_| rng.sample_uniform(-0.9, 0.9));
        let sigma = rng.sample_uniform(floor * 1.2, (floor * 4.0).min(ceil));
        kernels.push(HmgKernel::new(mean.to_vec(), vec![sigma; 3], 1.0).expect("kernel"));
        // Cycle the weight through the five replica bands.
        weights.push(0.2 * (j % 5) as f64 + rng.sample_uniform(0.01, 0.09));
    }
    let model = HmgmModel::new(weights, kernels).expect("model");
    (space, model)
}

/// `n` query points, mostly inside the map window, with ~5% of the
/// coordinates replaced by NaN, ±inf or values far outside the window.
fn cim_parity_batch(rng: &mut Pcg32, n: usize) -> PointBatch {
    use navicim::math::rng::SampleExt;
    let mut batch = PointBatch::new(3);
    for _ in 0..n {
        let p = [0; 3].map(|_| {
            let x = rng.sample_uniform(-1.6, 1.6);
            match (rng.sample_uniform(0.0, 100.0)) as u32 {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => f64::NEG_INFINITY,
                3 => x * 1e6,
                4 => -5.0,
                _ => x,
            }
        });
        batch.push(&p);
    }
    batch
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The inverter bell peaks at its programmed centre for any on-rail
    /// centre and realizable width.
    #[test]
    fn inverter_peak_at_center(
        center in 0.2f64..0.8,
        overlap in 0.1f64..0.6,
        offset in 0.05f64..0.2,
    ) {
        let tech = TechParams::cmos_45nm();
        let cell = GaussianLikeCell::with_center_width(&tech, center, overlap)
            .expect("valid overlap");
        let peak = cell.current(center);
        prop_assert!(peak > cell.current(center - offset));
        prop_assert!(peak > cell.current(center + offset));
    }

    /// HMG kernels never exceed their amplitude and are maximal at the
    /// mean.
    #[test]
    fn hmg_bounded_by_amplitude(
        mx in -2.0f64..2.0,
        my in -2.0f64..2.0,
        sx in 0.05f64..1.0,
        sy in 0.05f64..1.0,
        amp in 0.1f64..10.0,
        qx in -3.0f64..3.0,
        qy in -3.0f64..3.0,
    ) {
        let k = HmgKernel::new(vec![mx, my], vec![sx, sy], amp).expect("valid kernel");
        let v = k.eval(&[qx, qy]);
        prop_assert!(v > 0.0);
        prop_assert!(v <= amp * (1.0 + 1e-12));
        prop_assert!(k.eval(&[mx, my]) >= v);
        // Harmonic mean dominates the product everywhere.
        prop_assert!(v >= k.eval_product(&[qx, qy]) - 1e-15);
    }

    /// Pose composition with the inverse is the identity for arbitrary
    /// poses.
    #[test]
    fn pose_inverse_roundtrip(
        x in -10.0f64..10.0,
        y in -10.0f64..10.0,
        z in -10.0f64..10.0,
        roll in -3.0f64..3.0,
        pitch in -1.4f64..1.4,
        yaw in -3.0f64..3.0,
    ) {
        let pose = Pose::from_position_euler(Vec3::new(x, y, z), roll, pitch, yaw);
        let ident = pose.compose(pose.inverse());
        prop_assert!(ident.translation.norm() < 1e-9);
        prop_assert!(ident.rotation.angle_to(Quat::IDENTITY) < 1e-9);
    }

    /// Quantize/dequantize stays within half a step inside the range.
    #[test]
    fn quantizer_error_bound(
        bits in 2u32..12,
        range in 0.1f64..100.0,
        frac in -1.0f64..1.0,
    ) {
        let q = Quantizer::new(bits, range).expect("valid quantizer");
        let x = frac * range;
        prop_assert!((x - q.fake_quantize(x)).abs() <= q.max_round_error() + 1e-12);
    }

    /// Resampling preserves particle count and only selects valid indices,
    /// and ESS never exceeds the population size.
    #[test]
    fn resampling_invariants(
        seed in 0u64..1000,
        n in 2usize..100,
        scheme_idx in 0usize..4,
    ) {
        let mut rng = Pcg32::seed_from_u64(seed);
        use navicim::math::rng::{Rng64, SampleExt};
        let weights: Vec<f64> = (0..n).map(|_| rng.next_f64() + 1e-9).collect();
        prop_assert!(effective_sample_size(&weights) <= n as f64 + 1e-9);
        let scheme = ResampleScheme::ALL[scheme_idx];
        let idx = scheme.resample(&weights, &mut rng);
        prop_assert_eq!(idx.len(), n);
        prop_assert!(idx.iter().all(|&i| i < n));
        let _ = rng.sample_index(n);
    }

    /// The macro's compute reuse is exact for arbitrary code sequences.
    #[test]
    fn macro_reuse_exactness(
        seed in 0u64..500,
        rows in 1usize..8,
        cols in 1usize..8,
        steps in 1usize..6,
    ) {
        let mut rng = Pcg32::seed_from_u64(seed);
        use navicim::math::rng::SampleExt;
        let codes: Vec<i64> = (0..rows * cols)
            .map(|_| rng.sample_index(15) as i64 - 7)
            .collect();
        let config = MacroConfig { adc_bits: 0, reuse: true, ..MacroConfig::default() };
        let mut with = SramCimMacro::new(config);
        with.program_layer(0, &codes, rows, cols).expect("programs");
        let mut without = SramCimMacro::new(MacroConfig {
            adc_bits: 0,
            reuse: false,
            ..MacroConfig::default()
        });
        without.program_layer(0, &codes, rows, cols).expect("programs");
        let mask = vec![true; rows];
        for _ in 0..steps {
            let input: Vec<i64> = (0..cols)
                .map(|_| rng.sample_index(15) as i64 - 7)
                .collect();
            let a = with.matvec(0, &input, &mask).expect("matvec");
            let b = without.matvec(0, &input, &mask).expect("matvec");
            prop_assert_eq!(a, b);
        }
        prop_assert!(with.stats().macs_executed <= without.stats().macs_executed);
    }

    /// Greedy mask ordering is a permutation and never costs more than
    /// twice the identity order's switching (sanity bound; in practice it
    /// is below it).
    #[test]
    fn ordering_invariants(seed in 0u64..500, t in 2usize..20, len in 4usize..64) {
        let mut rng = Pcg32::seed_from_u64(seed);
        use navicim::math::rng::SampleExt;
        let masks: Vec<Vec<bool>> = (0..t)
            .map(|_| (0..len).map(|_| rng.sample_bool(0.5)).collect())
            .collect();
        let order = greedy_order(&masks).expect("orders");
        let mut sorted = order.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..t).collect::<Vec<_>>());
        let identity: Vec<usize> = (0..t).collect();
        prop_assert!(path_cost(&masks, &order) <= 2 * path_cost(&masks, &identity).max(1));
        prop_assert!(hamming(&masks[0], &masks[0]) == 0);
    }

    /// The digital GMM batch path is bit-identical to sequential scalar
    /// evaluation for random diagonal mixtures and random query batches.
    /// Batch lengths run over several tiles and every short-tail width.
    #[test]
    fn gmm_batch_equals_scalar(
        seed in 0u64..500,
        k in 1usize..8,
        n in 1usize..4 * GMM_TILE,
    ) {
        let mut rng = Pcg32::seed_from_u64(seed);
        use navicim::math::rng::SampleExt;
        let dim = 3;
        let mut weights: Vec<f64> = (0..k).map(|_| rng.sample_uniform(0.1, 1.0)).collect();
        let total: f64 = weights.iter().sum();
        weights.iter_mut().for_each(|w| *w /= total);
        // Renormalize exactly enough for the constructor's tolerance.
        let means: Vec<Vec<f64>> = (0..k)
            .map(|_| (0..dim).map(|_| rng.sample_uniform(-3.0, 3.0)).collect())
            .collect();
        let vars: Vec<Vec<f64>> = (0..k)
            .map(|_| (0..dim).map(|_| rng.sample_uniform(0.05, 2.0)).collect())
            .collect();
        let mut gmm = Gmm::new(weights, means, vars).expect("valid gmm");
        let mut batch = PointBatch::new(dim);
        for _ in 0..n {
            let p: Vec<f64> = (0..dim).map(|_| rng.sample_uniform(-4.0, 4.0)).collect();
            batch.push(&p);
        }
        let scalar: Vec<f64> = batch.iter().map(|p| gmm.log_pdf(p)).collect();
        let batched = gmm.log_likelihood_batch(&batch);
        prop_assert_eq!(scalar, batched);
    }

    /// The analog CIM engine's batch path is bit-identical to sequential
    /// scalar queries — including the noise-RNG stream and the
    /// EngineStats counters — for arbitrary batch sizes.
    #[test]
    fn cim_engine_batch_equals_scalar(seed in 0u64..100, n in 1usize..48) {
        let mut rng = Pcg32::seed_from_u64(seed);
        use navicim::math::rng::SampleExt;
        let pts = vec![vec![-1.0, -1.0, -1.0], vec![1.0, 1.0, 1.0]];
        let space = SpaceMap::fit_to_points(&pts, 0.15, 0.85, 0.2).expect("map fits");
        let tech = TechParams::cmos_45nm();
        let (floor, ceil) = HmgmCimEngine::recommended_sigma_bounds(&tech, &space);
        let sigma = (floor * 2.0).min(ceil);
        let model = HmgmModel::new(
            vec![1.0, 0.5],
            vec![
                HmgKernel::new(vec![-0.5, 0.0, 0.2], vec![sigma; 3], 1.0).expect("kernel"),
                HmgKernel::new(vec![0.6, 0.3, -0.4], vec![sigma; 3], 1.0).expect("kernel"),
            ],
        )
        .expect("model");
        let config = CimEngineConfig { seed, ..CimEngineConfig::default() };
        let mut scalar_engine =
            HmgmCimEngine::build(&model, space.clone(), config).expect("engine builds");
        let mut batch_engine = HmgmCimEngine::build(&model, space, config).expect("engine builds");
        let mut batch = PointBatch::new(3);
        for _ in 0..n {
            batch.push(&[
                rng.sample_uniform(-1.0, 1.0),
                rng.sample_uniform(-1.0, 1.0),
                rng.sample_uniform(-1.0, 1.0),
            ]);
        }
        let scalar: Vec<f64> = batch.iter().map(|p| scalar_engine.log_likelihood(p)).collect();
        let batched = LikelihoodBackend::log_likelihood_batch(&mut batch_engine, &batch);
        prop_assert_eq!(scalar, batched);
        prop_assert_eq!(scalar_engine.stats(), batch_engine.stats());
    }

    /// Analog batch evaluation is invariant under chunk size and worker
    /// count: for every (chunk_len, workers) pair — 1/2/4 workers ×
    /// chunk sizes 1, 7, 64 and the batch length — outputs AND
    /// EngineStats totals are bit-identical to the auto policy, and
    /// splitting the batch into consecutive sub-batch calls changes
    /// nothing either (the counter-based noise stream assigns each
    /// evaluation its absolute index). A stream parked at an arbitrary
    /// `cursor` evaluates bit-identically (outputs and pre-noise
    /// currents) on the LUT fabric under every explicit policy — chunk
    /// lengths 1, 7, 23 (past one `CIM_TILE` and off its grid, so chunks
    /// start mid-tile), 64 and the batch length — and on the direct
    /// device-model path. Under `--features parallel` the multi-worker
    /// cases genuinely run on threads.
    #[test]
    fn cim_engine_chunking_and_threading_invariant(
        seed in 0u64..40,
        n in 1usize..140,
        cursor in 0u64..10_000,
    ) {
        let mut rng = Pcg32::seed_from_u64(seed ^ 0xc0de);
        use navicim::math::rng::SampleExt;
        let pts = vec![vec![-1.0, -1.0, -1.0], vec![1.0, 1.0, 1.0]];
        let space = SpaceMap::fit_to_points(&pts, 0.15, 0.85, 0.2).expect("map fits");
        let tech = TechParams::cmos_45nm();
        let (floor, ceil) = HmgmCimEngine::recommended_sigma_bounds(&tech, &space);
        let sigma = (floor * 2.0).min(ceil);
        let model = HmgmModel::new(
            vec![1.0, 0.5],
            vec![
                HmgKernel::new(vec![-0.5, 0.0, 0.2], vec![sigma; 3], 1.0).expect("kernel"),
                HmgKernel::new(vec![0.6, 0.3, -0.4], vec![sigma; 3], 1.0).expect("kernel"),
            ],
        )
        .expect("model");
        let config = CimEngineConfig { seed, ..CimEngineConfig::default() };
        let mut batch = PointBatch::new(3);
        for _ in 0..n {
            batch.push(&[
                rng.sample_uniform(-1.0, 1.0),
                rng.sample_uniform(-1.0, 1.0),
                rng.sample_uniform(-1.0, 1.0),
            ]);
        }
        let mut reference =
            HmgmCimEngine::build(&model, space.clone(), config).expect("engine builds");
        let mut expected = vec![0.0; n];
        reference.log_likelihood_into(&batch, &mut expected);
        for chunk_len in [1usize, 7, 64, n] {
            for workers in [1usize, 2, 4] {
                let mut engine =
                    HmgmCimEngine::build(&model, space.clone(), config).expect("engine builds");
                let mut out = vec![0.0; n];
                engine.log_likelihood_into_chunked(
                    &batch,
                    &mut out,
                    ChunkPolicy::exact(chunk_len, workers),
                );
                prop_assert_eq!(&out, &expected);
                prop_assert_eq!(engine.stats(), reference.stats());
            }
        }
        // Consecutive sub-batch calls cover consecutive stream ranges.
        let split = n / 2;
        let mut split_engine =
            HmgmCimEngine::build(&model, space, config).expect("engine builds");
        let mut head = PointBatch::new(3);
        let mut tail = PointBatch::new(3);
        for (i, p) in batch.iter().enumerate() {
            if i < split { head.push(p) } else { tail.push(p) }
        }
        let mut out = Vec::with_capacity(n);
        if !head.is_empty() {
            out.extend(LikelihoodBackend::log_likelihood_batch(&mut split_engine, &head));
        }
        out.extend(LikelihoodBackend::log_likelihood_batch(&mut split_engine, &tail));
        prop_assert_eq!(out, expected);
        prop_assert_eq!(split_engine.stats(), reference.stats());

        // A stream at a nonzero cursor, straight through the fabric.
        let stream = NoiseStream::with_cursor(reference.compute().noise_seed(), cursor);
        let direct = reference.clone().with_direct_eval();
        let (mut want, mut want_cur) = (vec![0.0; n], vec![0.0; n]);
        direct.compute().eval_stream(
            &batch,
            stream,
            &mut want,
            &mut want_cur,
            ChunkPolicy::auto(),
            &mut EvalScratch::default(),
        );
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for chunk_len in [1usize, 7, 23, 64, n] {
            for workers in [1usize, 2, 4] {
                let (mut got, mut cur) = (vec![0.0; n], vec![0.0; n]);
                reference.compute().eval_stream(
                    &batch,
                    stream,
                    &mut got,
                    &mut cur,
                    ChunkPolicy::exact(chunk_len, workers),
                    &mut EvalScratch::default(),
                );
                prop_assert_eq!(bits(&got), bits(&want));
                prop_assert_eq!(bits(&cur), bits(&want_cur));
            }
        }
    }

    /// The hysteresis gate switches at most once per dwell window for
    /// arbitrary spread signals: consecutive switch frames are at least
    /// `dwell` apart, selections stay within the two slots, and the
    /// gate's own switch counter agrees with the observed transitions.
    #[test]
    fn hysteresis_gate_respects_dwell(
        seed in 0u64..10_000,
        dwell in 1usize..6,
        frames in 8usize..64,
    ) {
        let mut rng = Pcg32::seed_from_u64(seed ^ 0x6a7e);
        use navicim::math::rng::SampleExt;
        let mut gate = HysteresisGate::new(HysteresisConfig {
            analog_enter: 0.08,
            digital_enter: 0.16,
            dwell,
            start: DIGITAL_SLOT,
        })
        .expect("valid gate");
        let mut current = DIGITAL_SLOT;
        let mut last_switch: Option<usize> = None;
        let mut observed = 0u64;
        for frame in 0..frames {
            let spread = rng.sample_uniform(0.0, 0.3);
            let next = gate.select(&GateContext {
                frame,
                signals: UncertaintySignals::from_spread(spread),
            });
            prop_assert!(next == DIGITAL_SLOT || next == ANALOG_SLOT);
            if next != current {
                observed += 1;
                if let Some(prev) = last_switch {
                    prop_assert!(
                        frame - prev >= dwell,
                        "switched at {} and {} with dwell {}",
                        prev,
                        frame,
                        dwell
                    );
                }
                last_switch = Some(frame);
            }
            current = next;
        }
        prop_assert_eq!(observed, gate.switches());
    }

    /// Adaptive-MC depth selection stays within `[min, max]`, starts at
    /// the maximum, respects the dwell lock between depth changes, and is
    /// a deterministic function of the variance sequence (two policies
    /// fed the same stream agree decision for decision).
    #[test]
    fn adaptive_mc_depth_bounded_dwelled_and_deterministic(
        seed in 0u64..10_000,
        min_it in 2usize..12,
        extra in 0usize..24,
        dwell in 1usize..5,
        frames in 4usize..64,
    ) {
        let mut rng = Pcg32::seed_from_u64(seed ^ 0xadaf);
        use navicim::math::rng::SampleExt;
        let max_it = min_it + extra;
        let config = AdaptiveMcConfig {
            min_iterations: min_it,
            max_iterations: max_it,
            var_low: 0.05,
            var_high: 0.15,
            dwell,
        };
        let mut a = AdaptiveMcPolicy::new(config).expect("valid policy");
        let mut b = AdaptiveMcPolicy::new(config).expect("valid policy");
        let mut last_change: Option<usize> = None;
        let mut prev_depth = None;
        let mut observed_changes = 0u64;
        for frame in 0..frames {
            let variance = if frame == 0 {
                None
            } else {
                Some(rng.sample_uniform(0.0, 0.3))
            };
            let depth = a.next_iterations(variance);
            prop_assert_eq!(depth, b.next_iterations(variance));
            prop_assert!((min_it..=max_it).contains(&depth), "depth {} out of bounds", depth);
            if frame == 0 {
                prop_assert_eq!(depth, max_it);
            }
            if let Some(prev) = prev_depth {
                if depth != prev {
                    observed_changes += 1;
                    if let Some(l) = last_change {
                        prop_assert!(
                            frame - l >= dwell,
                            "depth changed at {} and {} under dwell {}",
                            l, frame, dwell
                        );
                    }
                    last_change = Some(frame);
                }
            }
            prev_depth = Some(depth);
        }
        prop_assert_eq!(observed_changes, a.changes());
    }

    /// The periodic-refresh gate is a pure schedule: slot choice depends
    /// only on the frame index (never on the uncertainty bus), digital
    /// runs are exactly `refresh_len` long and analog runs exactly
    /// `period` long.
    #[test]
    fn periodic_refresh_schedule_invariants(
        seed in 0u64..10_000,
        period in 1usize..9,
        refresh_len in 1usize..4,
        frames in 4usize..80,
    ) {
        let mut rng = Pcg32::seed_from_u64(seed ^ 0x9e81);
        use navicim::math::rng::SampleExt;
        let gate = PeriodicRefresh::new(PeriodicRefreshConfig { period, refresh_len })
            .expect("valid schedule");
        let cycle = period + refresh_len;
        for frame in 0..frames {
            // Arbitrary bus contents must not influence the schedule.
            let spread = rng.sample_uniform(0.0, 10.0);
            let slot = gate.select(&GateContext {
                frame,
                signals: UncertaintySignals::from_spread(spread),
            });
            let expected = if frame % cycle < refresh_len {
                DIGITAL_SLOT
            } else {
                ANALOG_SLOT
            };
            prop_assert_eq!(slot, expected);
        }
    }

    /// Variable-depth VO prediction at the configured depth is the fixed
    /// path: `predict_n_into(t = mc_iterations)` must be bit-identical to
    /// `predict` — samples, moments, macro counters and mask-RNG stream —
    /// for arbitrary depths and repeated pool reuse across shrink/grow
    /// cycles.
    #[test]
    fn vo_variable_depth_matches_fixed_at_config_depth(
        seed in 0u64..300,
        iters in 2usize..16,
    ) {
        use navicim::nn::mc::McPrediction;
        let mut rng = Pcg32::seed_from_u64(seed ^ 0x7a11);
        use navicim::math::rng::SampleExt;
        // Untrained net: bit-identity does not need a good regressor.
        let net = navicim::nn::mlp::Mlp::builder(6)
            .dense(10)
            .relu()
            .dropout(0.5)
            .dense(6)
            .build(&mut rng)
            .expect("net builds");
        let calib: Vec<Vec<f64>> = (0..3)
            .map(|_| (0..6).map(|_| rng.sample_uniform(-1.0, 1.0)).collect())
            .collect();
        let config = VoPipelineConfig {
            mc_iterations: iters,
            seed,
            ..VoPipelineConfig::default()
        };
        let mut fixed = BayesianVo::build(&net, &calib, config.clone()).expect("builds");
        let mut variable = BayesianVo::build(&net, &calib, config).expect("builds");
        let mut pooled = McPrediction::default();
        for k in 0..4u64 {
            let features: Vec<f64> = (0..6)
                .map(|i| ((seed + k) as f64 * 0.01 + i as f64 * 0.1).sin())
                .collect();
            let owned = fixed.predict(&features);
            variable.predict_n_into(&features, iters, &mut pooled);
            prop_assert_eq!(&owned, &pooled);
        }
        prop_assert_eq!(fixed.macro_stats(), variable.macro_stats());
    }

    /// The closed-loop noise inflation is total and bounded: for ANY
    /// variance input — absent, negative, huge, `NaN`, `±inf` — the
    /// returned motion-noise scale is finite and inside the configured
    /// `[floor, ceiling]`, so one degenerate VO frame can never collapse
    /// or explode the filter's proposal.
    #[test]
    fn noise_inflation_scale_always_bounded(
        gain in 0.0f64..1e9,
        floor in 0.01f64..10.0,
        extra in 0.0f64..10.0,
        variance_case in 0usize..7,
        variance in -1e12f64..1e12,
    ) {
        let ceiling = floor + extra;
        let inflation = NoiseInflation::new(gain, floor, ceiling).expect("valid bounds");
        let input = match variance_case {
            0 => None,
            1 => Some(f64::NAN),
            2 => Some(f64::INFINITY),
            3 => Some(f64::NEG_INFINITY),
            4 => Some(f64::MAX),
            5 => Some(-variance.abs()),
            _ => Some(variance),
        };
        let scale = inflation.scale(input);
        prop_assert!(scale.is_finite(), "scale {scale} for {input:?}");
        prop_assert!(
            (floor..=ceiling).contains(&scale),
            "scale {scale} outside [{floor}, {ceiling}] for {input:?}"
        );
        // Absent and non-finite variances price at the ceiling.
        if matches!(variance_case, 0..=3) {
            prop_assert_eq!(scale, ceiling);
        }
    }

    /// With a neutral bus (healthy ESS, no innovation reading) the
    /// multi-signal gate is decision-for-decision the spread-only
    /// hysteresis gate on ANY spread sequence; with arbitrary bus
    /// contents it stays within the two slots and never switches more
    /// than once per dwell window.
    #[test]
    fn multi_signal_gate_neutral_equivalence_and_dwell(
        seed in 0u64..10_000,
        dwell in 1usize..6,
        frames in 8usize..64,
    ) {
        let mut rng = Pcg32::seed_from_u64(seed ^ 0x3517);
        use navicim::math::rng::SampleExt;
        let spread_cfg = HysteresisConfig {
            analog_enter: 0.08,
            digital_enter: 0.16,
            dwell,
            start: DIGITAL_SLOT,
        };
        let ms_cfg = MultiSignalConfig {
            spread: spread_cfg,
            innovation_wake: -1.0,
            ess_wake: 0.1,
        };
        // Pass 1: neutral bus — exact hysteresis equivalence.
        let mut plain = HysteresisGate::new(spread_cfg).expect("valid gate");
        let mut multi = MultiSignalGate::new(ms_cfg).expect("valid gate");
        let spreads: Vec<f64> = (0..frames).map(|_| rng.sample_uniform(0.0, 0.3)).collect();
        for (frame, &s) in spreads.iter().enumerate() {
            let ctx = GateContext {
                frame,
                signals: UncertaintySignals::from_spread(s),
            };
            let a = plain.select(&ctx);
            let b = multi.select(&ctx);
            prop_assert_eq!(a, b);
        }
        prop_assert_eq!(plain.switches(), multi.switches());
        prop_assert_eq!(multi.rescues(), 0);
        // Pass 2: adversarial bus — slots stay valid, dwell holds.
        let mut gate = MultiSignalGate::new(ms_cfg).expect("valid gate");
        let mut cur = DIGITAL_SLOT;
        let mut last_switch: Option<usize> = None;
        for frame in 0..frames {
            let innovation = if rng.sample_bool(0.3) {
                None
            } else {
                Some(rng.sample_uniform(-5.0, 5.0))
            };
            let ctx = GateContext {
                frame,
                signals: UncertaintySignals {
                    spread: rng.sample_uniform(0.0, 0.3),
                    ess_fraction: rng.sample_uniform(0.001, 1.0),
                    innovation,
                    vo_variance: None,
                },
            };
            let next = gate.select(&ctx);
            prop_assert!(next == DIGITAL_SLOT || next == ANALOG_SLOT);
            if next != cur {
                if let Some(prev) = last_switch {
                    prop_assert!(
                        frame - prev >= dwell,
                        "switched at {} and {} under dwell {}",
                        prev,
                        frame,
                        dwell
                    );
                }
                last_switch = Some(frame);
            }
            cur = next;
        }
    }

    /// SIMD remainder handling and lane-position independence: batch
    /// lengths of 0–3 full [`GMM_TILE`]-point tiles plus a short tail of
    /// any width, with one query in a full tile and one in the padded
    /// tail optionally poisoned by a `NaN` or `-inf` coordinate, evaluate
    /// bit-identically between the digital GMM's batched path and
    /// sequential scalar calls. The bit-pattern comparison makes
    /// `NaN` lanes count as equal, so a non-finite query must produce the
    /// exact same bits no matter which tile slot or lane served it.
    #[test]
    fn simd_remainder_and_nonfinite_lane_parity(
        seed in 0u64..400,
        k in 1usize..8,
        tiles in 0usize..4,
        tail in 0usize..GMM_TILE,
        special_pos in 0usize..GMM_TILE,
        special_axis in 0usize..3,
        special_kind in 0usize..3,
        tail_kind in 0usize..3,
    ) {
        let n = tiles * GMM_TILE + tail;
        if n == 0 {
            return Ok(());
        }
        let mut rng = Pcg32::seed_from_u64(seed ^ 0x51d0);
        use navicim::math::rng::SampleExt;
        let dim = 3;
        let mut weights: Vec<f64> = (0..k).map(|_| rng.sample_uniform(0.1, 1.0)).collect();
        let total: f64 = weights.iter().sum();
        weights.iter_mut().for_each(|w| *w /= total);
        let means: Vec<Vec<f64>> = (0..k)
            .map(|_| (0..dim).map(|_| rng.sample_uniform(-3.0, 3.0)).collect())
            .collect();
        let vars: Vec<Vec<f64>> = (0..k)
            .map(|_| (0..dim).map(|_| rng.sample_uniform(0.05, 2.0)).collect())
            .collect();
        let mut gmm =
            Gmm::new(weights, means, vars).expect("valid gmm");
        let mut points: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..dim).map(|_| rng.sample_uniform(-4.0, 4.0)).collect())
            .collect();
        let poison = |kind: usize| match kind {
            1 => Some(f64::NAN),
            2 => Some(f64::NEG_INFINITY),
            _ => None,
        };
        if let (true, Some(v)) = (tiles > 0, poison(special_kind)) {
            points[special_pos % (tiles * GMM_TILE)][special_axis] = v;
        }
        if let (true, Some(v)) = (tail > 0, poison(tail_kind)) {
            points[tiles * GMM_TILE + special_pos % tail][special_axis] = v;
        }
        let mut batch = PointBatch::new(dim);
        for p in &points {
            batch.push(p);
        }
        let gmm_scalar: Vec<u64> =
            batch.iter().map(|p| gmm.log_pdf(p).to_bits()).collect();
        let gmm_batched: Vec<u64> = gmm
            .log_likelihood_batch(&batch)
            .iter()
            .map(|v| v.to_bits())
            .collect();
        prop_assert_eq!(gmm_scalar, gmm_batched);
    }

    /// The pruned digital GMM batch path is bit-identical to per-point
    /// `log_pdf_subset` over the candidate list that
    /// `PruneIndex::candidates_for_points` returns for each
    /// `PRUNE_TILE`-point tile, or to `log_pdf` where a non-finite point
    /// voids the tile's list. Components spread over a wide room and
    /// each prune tile's queries cluster, so the lists are usually
    /// strict subsets; batch lengths cross both `PRUNE_TILE` and
    /// `GMM_TILE` boundaries.
    #[test]
    fn gmm_pruned_batch_equals_subset_scalar(
        seed in 0u64..500,
        k in 1usize..24,
        n in 1usize..2 * PRUNE_TILE + 2 * GMM_TILE,
        poison_pos in 0usize..2 * PRUNE_TILE + 2 * GMM_TILE,
        poison_kind in 0usize..4,
    ) {
        let mut rng = Pcg32::seed_from_u64(seed ^ 0x9e37);
        use navicim::math::rng::SampleExt;
        let dim = 3;
        let mut weights: Vec<f64> = (0..k).map(|_| rng.sample_uniform(0.1, 1.0)).collect();
        let total: f64 = weights.iter().sum();
        weights.iter_mut().for_each(|w| *w /= total);
        let means: Vec<Vec<f64>> = (0..k)
            .map(|_| (0..dim).map(|_| rng.sample_uniform(-20.0, 20.0)).collect())
            .collect();
        let vars: Vec<Vec<f64>> = (0..k)
            .map(|_| (0..dim).map(|_| rng.sample_uniform(0.05, 1.0)).collect())
            .collect();
        let mut gmm = Gmm::new(weights, means, vars).expect("valid gmm");
        gmm.set_prune(PruneConfig::enabled());
        let mut batch = PointBatch::new(dim);
        let mut center = vec![0.0; dim];
        for i in 0..n {
            if i % PRUNE_TILE == 0 {
                center = (0..dim).map(|_| rng.sample_uniform(-22.0, 22.0)).collect();
            }
            let mut p: Vec<f64> =
                center.iter().map(|&c| c + rng.sample_uniform(-1.0, 1.0)).collect();
            match (i == poison_pos % n, poison_kind) {
                (true, 1) => p[0] = f64::NAN,
                (true, 2) => p[1] = f64::NEG_INFINITY,
                _ => {}
            }
            batch.push(&p);
        }
        let index = gmm.prune_index().expect("diagonal model builds an index");
        let plan = gmm.eval_plan();
        let (mut scratch, mut terms) = (PruneScratch::default(), Vec::new());
        let mut expected = Vec::with_capacity(n);
        for lo in (0..n).step_by(PRUNE_TILE) {
            let hi = (lo + PRUNE_TILE).min(n);
            let cands = index.candidates_for_points(batch.flat_range(lo, hi), &mut scratch);
            for i in lo..hi {
                let v = match cands {
                    Some(c) => plan.log_pdf_subset(batch.point(i), c, &mut terms),
                    None => plan.log_pdf(batch.point(i), &mut terms),
                };
                expected.push(v.to_bits());
            }
        }
        let batched: Vec<u64> = gmm
            .log_likelihood_batch(&batch)
            .iter()
            .map(|v| v.to_bits())
            .collect();
        prop_assert_eq!(expected, batched);
    }

    /// Far-field parity of the digital GMM kernel, which skips the
    /// `exp_fast` terms that are exactly zero in groups of 4 lanes. Two
    /// components sit 12 m apart with tight equal variances, and the
    /// rest spread over a room-sized box far from them. The first three
    /// 4-point groups of every tile are all dead for the far component,
    /// mixed (one lane on it), and in the subnormal band
    /// (`t − m ∈ [−746, −708]`, checked). The remaining groups draw one
    /// of those, random room points, or a lane with a `NaN`, `+inf` or
    /// `-inf` coordinate (an all-`-inf` column for the infinities).
    /// Pruned and unpruned batches of 0–3 full tiles plus every tail
    /// width equal `log_pdf` / `log_pdf_subset` bit for bit. This catches
    /// a wrong or dropped live group; a cutoff moved anywhere below
    /// about −37 nats cannot show here, because each sum holds the max
    /// term's `exp_fast(0) = 1`, so the unit test
    /// `live_group_sum_matches_the_dense_sum_bit_for_bit` pins the cutoff
    /// and the `NaN` lanes on raised maxima.
    #[test]
    fn gmm_far_field_tiles_equal_scalar(
        seed in 0u64..500,
        k in 2usize..24,
        tiles in 0usize..4,
        tail in 0usize..GMM_TILE,
        pruned in 0usize..2,
    ) {
        let n = tiles * GMM_TILE + tail;
        if n == 0 {
            return Ok(());
        }
        let mut rng = Pcg32::seed_from_u64(seed ^ 0xfa7f);
        use navicim::math::rng::SampleExt;
        let (var, gap) = (rng.sample_uniform(0.01, 0.03), 12.0);
        let (near, far) = ([0.0, -30.0, 1.0], [gap, -30.0, 1.0]);
        // With equal weights and variances, a point `a` along the axis
        // from `near` has `t_far − t_near = −(gap² − 2·gap·a) / (2·var)`;
        // this `a` puts it at −727, the middle of the subnormal band.
        let band = (gap * gap - 2.0 * 727.0 * var) / (2.0 * gap);
        let mut means = vec![near.to_vec(), far.to_vec()];
        let mut vars = vec![vec![var; 3]; 2];
        for _ in 2..k {
            means.push(vec![
                rng.sample_uniform(-6.0, 6.0),
                rng.sample_uniform(-6.0, 6.0),
                rng.sample_uniform(0.0, 3.0),
            ]);
            vars.push((0..3).map(|_| rng.sample_uniform(0.004, 0.05)).collect());
        }
        let mut gmm = Gmm::new(vec![1.0 / k as f64; k], means, vars).expect("valid gmm");
        if pruned == 1 {
            gmm.set_prune(PruneConfig::enabled());
        }
        let jitter = |rng: &mut Pcg32, p: [f64; 3]| p.map(|c| c + rng.sample_uniform(-0.05, 0.05));
        let mut batch = PointBatch::new(3);
        let mut band_points = Vec::new();
        let mut pattern = 0;
        for i in 0..n {
            let (group, lane) = ((i % GMM_TILE) / 4, i % 4);
            if lane == 0 {
                pattern = if group < 3 { group } else { rng.sample_index(5) };
            }
            let p = match pattern {
                0 => jitter(&mut rng, near),
                1 if lane == 3 => jitter(&mut rng, far),
                1 => jitter(&mut rng, near),
                2 => {
                    let mut p = jitter(&mut rng, near);
                    p[0] = band + rng.sample_uniform(-0.005, 0.005);
                    band_points.push(batch.len());
                    p
                }
                3 => [
                    rng.sample_uniform(-6.0, 6.0),
                    rng.sample_uniform(-6.0, 6.0),
                    rng.sample_uniform(0.0, 3.0),
                ],
                _ => {
                    let mut p = jitter(&mut rng, near);
                    p[rng.sample_index(3)] =
                        [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][rng.sample_index(3)];
                    p
                }
            };
            batch.push(&p);
        }
        let plan = gmm.eval_plan();
        let mut terms = Vec::new();
        for &i in &band_points {
            let x = batch.point(i);
            let t_near = plan.log_pdf_subset(x, &[0], &mut terms);
            let gap_nats = plan.log_pdf_subset(x, &[1], &mut terms) - t_near;
            prop_assert!((-746.0..=-708.0).contains(&gap_nats), "t − m = {}", gap_nats);
            for j in 2..k as u32 {
                prop_assert!(plan.log_pdf_subset(x, &[j], &mut terms) < t_near);
            }
        }
        let cands = match gmm.prune_index() {
            Some(index) => index
                .candidates_for_points(batch.flat_range(0, n), &mut PruneScratch::default())
                .map(<[u32]>::to_vec),
            None => None,
        };
        let expected: Vec<u64> = (0..n)
            .map(|i| match &cands {
                Some(c) => plan.log_pdf_subset(batch.point(i), c, &mut terms),
                None => plan.log_pdf(batch.point(i), &mut terms),
            })
            .map(f64::to_bits)
            .collect();
        let batched: Vec<u64> = gmm
            .log_likelihood_batch(&batch)
            .iter()
            .map(|v| v.to_bits())
            .collect();
        prop_assert_eq!(expected, batched);
    }

    /// `exp_fast` honours its documented accuracy contract on random
    /// inputs across the whole finite-result range: within
    /// `EXP_FAST_MAX_ULP` of the correctly rounded `f64::exp` wherever
    /// the true result is a normal number.
    #[test]
    fn exp_fast_ulp_gate_randomized(x in -745.0f64..709.7) {
        use navicim::math::simd::{exp_fast, ulp_distance, EXP_FAST_MAX_ULP};
        let reference = x.exp();
        if reference.is_normal() {
            let d = ulp_distance(exp_fast(x), reference);
            prop_assert!(
                d <= EXP_FAST_MAX_ULP,
                "exp_fast({x}) is {d} ulp from f64::exp"
            );
        }
    }

    /// `ln_fast` and `cos_turns_fast` honour their documented error
    /// bounds on random inputs: Box–Muller radii `u ∈ [2⁻⁵³, 1]`, log-ADC
    /// currents over twenty decades, and angles `v ∈ [0, 1)`.
    #[test]
    fn ln_fast_and_cos_turns_randomized(
        t in 0.0f64..1.0,
        decades in -20.0f64..0.0,
        v in 0.0f64..1.0,
    ) {
        use navicim::math::simd::{
            cos_turns_fast, ln_fast, ulp_distance, COS_TURNS_FAST_MAX_ABS_ERR, LN_FAST_MAX_ULP,
        };
        let u = (t * -36.7f64).exp().max(f64::EPSILON / 2.0);
        let i = 1e-3 * 10f64.powf(decades);
        for x in [u, i] {
            let d = ulp_distance(ln_fast(x), x.ln());
            prop_assert!(d <= LN_FAST_MAX_ULP, "ln_fast({x:e}) is {d} ulp from f64::ln");
        }
        let err = (cos_turns_fast(v) - (2.0 * std::f64::consts::PI * v).cos()).abs();
        prop_assert!(err <= COS_TURNS_FAST_MAX_ABS_ERR, "cos_turns_fast({v}) off by {err:e}");
    }

    /// Weight quantization reconstruction error is bounded by the step.
    #[test]
    fn quant_matrix_reconstruction(
        seed in 0u64..500,
        rows in 1usize..6,
        cols in 1usize..6,
        bits in 3u32..10,
    ) {
        let mut rng = Pcg32::seed_from_u64(seed);
        use navicim::math::rng::SampleExt;
        let w: Vec<f64> = (0..rows * cols).map(|_| rng.sample_uniform(-2.0, 2.0)).collect();
        let m = QuantMatrix::from_weights(&w, rows, cols, bits).expect("quantizes");
        for (code, &orig) in m.codes().iter().zip(&w) {
            prop_assert!((*code as f64 * m.step() - orig).abs() <= m.step() * 0.5 + 1e-12);
        }
    }

    /// Scan staging (per-frame backprojection, then a per-particle
    /// rotate + translate loop) equals, bit for bit, each particle's scan
    /// projected on its own with `DepthCamera::project_to_world`,
    /// concatenated in particle order — at every stride 1..=12, with
    /// varied point counts, under NaN/±inf/negative depths and non-unit
    /// quaternions. An all-invalid image stages nothing and scores every
    /// particle `BLIND_LL`.
    #[test]
    fn staged_scan_matches_per_particle_projection(
        seed in 0u64..1_000,
        width in 1usize..24,
        height in 1usize..10,
        particles in 1usize..6,
    ) {
        use navicim::core::localization::{
            reduce_scan_lls, stage_scan_batch, ScanScratch, BLIND_LL,
        };
        use navicim::math::rng::SampleExt;
        use navicim::scene::camera::{DepthCamera, DepthImage};
        let mut rng = Pcg32::seed_from_u64(seed ^ 0x57a6);
        let camera = DepthCamera::kinect_like(width, height);
        let mut image = DepthImage::new(width, height);
        let mut blank = DepthImage::new(width, height);
        for v in 0..height {
            for u in 0..width {
                let roll = rng.sample_uniform(0.0, 1.0);
                let d = if roll < 0.6 {
                    rng.sample_uniform(0.3, 5.0)
                } else if roll < 0.7 {
                    f64::INFINITY
                } else {
                    [0.0, f64::NAN, f64::NEG_INFINITY, -1.5][(roll * 40.0) as usize % 4]
                };
                image.set_depth(u, v, d);
                // Every invalid kind, so the blank image has no valid pixel.
                blank.set_depth(
                    u,
                    v,
                    [0.0, f64::NAN, f64::NEG_INFINITY, -0.25, f64::INFINITY][(u + v) % 5],
                );
            }
        }
        let states: Vec<Pose> = (0..particles)
            .map(|_| {
                let rotation = Quat {
                    w: rng.sample_uniform(-2.0, 2.0),
                    x: rng.sample_uniform(-2.0, 2.0),
                    y: rng.sample_uniform(-2.0, 2.0),
                    z: rng.sample_uniform(-2.0, 2.0),
                };
                let translation = Vec3::new(
                    rng.sample_uniform(-5.0, 5.0),
                    rng.sample_uniform(-5.0, 5.0),
                    rng.sample_uniform(-5.0, 5.0),
                );
                Pose::new(rotation, translation)
            })
            .collect();
        let mut scratch = ScanScratch::default();
        let mut remainders = [false; 4];
        for stride in 1..=12 {
            for trim in 0..4 {
                // Invalidating the last `trim` kept pixels walks the point
                // count through every remainder mod 4.
                let mut img = image.clone();
                let kept: Vec<usize> = (0..width * height)
                    .filter(|&i| i % stride == 0 && DepthImage::is_valid_depth(img.as_slice()[i]))
                    .collect();
                for &i in kept.iter().rev().take(trim) {
                    img.set_depth(i % width, i / width, 0.0);
                }
                stage_scan_batch(&camera, &img, stride, &states, &mut scratch);
                let mut expected = Vec::new();
                let mut n = 0;
                for state in &states {
                    let points = camera.project_to_world(&img, *state, stride);
                    n = points.len();
                    expected.extend(points.iter().flat_map(|p| [p.x, p.y, p.z]).map(f64::to_bits));
                }
                let staged: Vec<u64> =
                    scratch.batch().as_flat().iter().map(|v| v.to_bits()).collect();
                prop_assert_eq!(staged, expected);
                prop_assert_eq!(scratch.counts().len(), particles);
                prop_assert!(scratch.counts().iter().all(|&c| c == n));
                remainders[n % 4] = true;
            }
        }
        if image.valid_count() >= 3 {
            prop_assert_eq!(remainders, [true; 4]);
        }

        stage_scan_batch(&camera, &blank, 1, &states, &mut scratch);
        prop_assert!(scratch.batch().is_empty());
        prop_assert_eq!(scratch.counts().to_vec(), vec![0; particles]);
        let mut lls = vec![0.0; particles];
        reduce_scan_lls(4.0, scratch.counts(), &[], &mut lls);
        prop_assert!(lls.iter().all(|&ll| ll == BLIND_LL));
    }
}

// Direct device-model evaluation of hundreds of points over up to 24
// columns is slow in unoptimized test builds, so the widened CIM parity
// properties draw fewer, larger cases.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The CIM engine's LUT path (hoisted DAC codes, column-contiguous
    /// current table, tile-major column terms and guarded noise +
    /// log-ADC readout) is a pure acceleration: for 1–24 components with
    /// replica counts 1–5, consecutive calls whose lengths take every
    /// value mod `CIM_TILE` (each 0–2 full tiles plus that residue, one
    /// more for residue 0, in a seed-rotated order) and a last call of
    /// three full tiles plus 0–`CIM_TILE` points,
    /// coordinates that are NaN, ±inf or outside the map window, and a
    /// range of DAC/ADC resolutions and noise bandwidths, the LUT engine
    /// and a direct-evaluation engine built from the same config produce
    /// bit-identical outputs and EngineStats.
    #[test]
    fn cim_lut_matches_direct_eval(
        seed in 0u64..1_000,
        k in 1usize..25,
        dac_bits in 3u32..8,
        adc_bits in 4u32..11,
    ) {
        use navicim::math::rng::Rng64;
        let mut rng = Pcg32::seed_from_u64(seed ^ 0x1111);
        let (space, model) = cim_parity_model(k, &mut rng);
        let replicas = |e: &HmgmCimEngine| -> Vec<u32> {
            e.array().columns().iter().map(|c| c.replicas()).collect()
        };
        let config = CimEngineConfig {
            seed,
            dac_bits,
            adc_bits,
            noise_bandwidth: [1e6, 1e7, 1e8, 1e9][(seed % 4) as usize],
            ..CimEngineConfig::default()
        };
        let mut fast =
            HmgmCimEngine::build(&model, space.clone(), config).expect("engine builds");
        let mut direct = HmgmCimEngine::build(&model, space, config)
            .expect("engine builds")
            .with_direct_eval();
        prop_assert!(replicas(&fast).iter().all(|r| (1..=5).contains(r)));
        // One call per residue mod CIM_TILE (the residue-0 call is never
        // empty), then three full tiles plus a drawn 0–CIM_TILE-point
        // tail: every short-tile width runs, and a call spans several
        // full tiles.
        let rotate = seed as usize % CIM_TILE;
        let mut lens: Vec<usize> = (0..CIM_TILE)
            .map(|i| {
                let r = (rotate + i) % CIM_TILE;
                CIM_TILE * ((rng.next_u32() % 3) as usize + usize::from(r == 0)) + r
            })
            .collect();
        lens.push(3 * CIM_TILE + rng.next_u32() as usize % (CIM_TILE + 1));
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for &len in &lens {
            let batch = cim_parity_batch(&mut rng, len);
            let a = LikelihoodBackend::log_likelihood_batch(&mut fast, &batch);
            let b = LikelihoodBackend::log_likelihood_batch(&mut direct, &batch);
            prop_assert_eq!(a.len(), len);
            prop_assert_eq!(bits(&a), bits(&b));
            prop_assert_eq!(fast.stats(), direct.stats());
        }
        prop_assert_eq!(fast.stats().evaluations, lens.iter().sum::<usize>() as u64);
    }
}

// Full gated localization runs are expensive, so this block draws fewer
// cases than the kernel-level properties above.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Uncertainty-gated runs are deterministic: for a fixed seed, two
    /// independently built pipelines produce bit-identical PipelineRuns —
    /// same gate decisions, same estimates/errors, same per-frame energy
    /// and backend stats — even though the analog slot consumes noise
    /// only on the frames the gate hands it.
    #[test]
    fn gated_runs_bit_identical_across_repeats(seed in 0u64..1_000) {
        use navicim::scene::dataset::{LocalizationConfig, LocalizationDataset};
        let dataset = LocalizationDataset::generate(
            &LocalizationConfig {
                image_width: 24,
                image_height: 18,
                map_points: 600,
                frames: 8,
                ..LocalizationConfig::default()
            },
            7,
        )
        .expect("dataset generates");
        let config = || LocalizerConfig {
            num_particles: 150,
            pixel_stride: 7,
            components: 8,
            gate: GateConfig::gated(DIGITAL_GMM, CIM_HMGM).with_hysteresis(HysteresisConfig {
                analog_enter: 0.08,
                digital_enter: 0.15,
                dwell: 2,
                start: DIGITAL_SLOT,
            }),
            seed,
            ..LocalizerConfig::default()
        };
        let run1 = LocalizationPipeline::build(&dataset, config())
            .expect("pipeline builds")
            .run(&dataset)
            .expect("run completes");
        let run2 = LocalizationPipeline::build(&dataset, config())
            .expect("pipeline builds")
            .run(&dataset)
            .expect("run completes");
        prop_assert_eq!(&run1, &run2);
        // The per-frame stream is internally consistent.
        prop_assert_eq!(run1.frames.len(), 7);
        prop_assert_eq!(
            run1.total_evaluations(),
            run1.merged_stats().evaluations
        );
    }

    /// Attaching a VO stage never perturbs the fixed-config map path: the
    /// gated localization stream (slots, estimates, errors, map energy,
    /// backend stats) is bit-identical with and without the stage, and
    /// the adaptive-MC depths it logs stay within their configured
    /// bounds and repeat deterministically.
    #[test]
    fn vo_stage_is_a_pure_observer_of_the_map_path(seed in 0u64..1_000) {
        use navicim::scene::dataset::{make_samples, LocalizationConfig, LocalizationDataset};
        let dataset = LocalizationDataset::generate(
            &LocalizationConfig {
                image_width: 24,
                image_height: 18,
                map_points: 600,
                frames: 8,
                ..LocalizationConfig::default()
            },
            11,
        )
        .expect("dataset generates");
        let config = || LocalizerConfig {
            num_particles: 150,
            pixel_stride: 7,
            components: 8,
            gate: GateConfig::gated(DIGITAL_GMM, CIM_HMGM),
            seed,
            ..LocalizerConfig::default()
        };
        let stage = || {
            let mut rng = Pcg32::seed_from_u64(seed ^ 0x0b5e);
            let net = navicim::nn::mlp::Mlp::builder(36)
                .dense(12)
                .relu()
                .dropout(0.5)
                .dense(6)
                .build(&mut rng)
                .expect("net builds");
            let samples = make_samples(&dataset.frames, &dataset.camera, 4, 3);
            let calib: Vec<Vec<f64>> =
                samples.iter().take(3).map(|s| s.features.clone()).collect();
            let vo = BayesianVo::build(
                &net,
                &calib,
                VoPipelineConfig {
                    mc_iterations: 10,
                    seed,
                    ..VoPipelineConfig::default()
                },
            )
            .expect("vo builds");
            VoStage::new(
                vo,
                AdaptiveMcPolicy::new(AdaptiveMcConfig {
                    min_iterations: 4,
                    max_iterations: 10,
                    var_low: 1e-6,
                    var_high: 1e6,
                    dwell: 1,
                })
                .expect("policy builds"),
                &dataset.camera,
                &dataset.frames[0].depth,
                4,
                3,
            )
            .expect("stage builds")
        };
        let bare = LocalizationPipeline::build(&dataset, config())
            .expect("pipeline builds")
            .run(&dataset)
            .expect("run completes");
        let observed = LocalizationPipeline::build(&dataset, config())
            .expect("pipeline builds")
            .with_vo(stage())
            .run(&dataset)
            .expect("run completes");
        prop_assert_eq!(&observed.stats, &bare.stats);
        for (with_vo, without) in observed.frames.iter().zip(&bare.frames) {
            prop_assert_eq!(with_vo.slot, without.slot);
            prop_assert_eq!(&with_vo.summary, &without.summary);
            prop_assert_eq!(with_vo.map_energy_pj, without.map_energy_pj);
            prop_assert_eq!(with_vo.signals.spread, without.signals.spread);
            prop_assert_eq!(with_vo.signals.innovation, without.signals.innovation);
            let vo = with_vo.vo.expect("stage attached");
            prop_assert!((4..=10).contains(&vo.iterations));
        }
        // And the observed run itself repeats bit-identically.
        let repeat = LocalizationPipeline::build(&dataset, config())
            .expect("pipeline builds")
            .with_vo(stage())
            .run(&dataset)
            .expect("run completes");
        prop_assert_eq!(&observed, &repeat);
    }

    /// Closing the VO→filter loop is safe and reproducible:
    /// (a) ground-truth mode stays bit-identical to the bare pipeline
    ///     on the whole map side even with a VO stage attached, an
    ///     explicit `ControlSource::GroundTruth` and a custom inflation
    ///     config (the pre-closed-loop behavior survives untouched),
    /// (b) closed-loop runs repeat bit-identically for a fixed seed,
    /// (c) every closed-loop frame's applied noise scale equals the
    ///     bounded inflation of that frame's fresh VO variance.
    #[test]
    fn closed_loop_deterministic_and_gt_mode_bit_identical(seed in 0u64..1_000) {
        use navicim::scene::dataset::{make_samples, LocalizationConfig, LocalizationDataset};
        let dataset = LocalizationDataset::generate(
            &LocalizationConfig {
                image_width: 24,
                image_height: 18,
                map_points: 600,
                frames: 8,
                ..LocalizationConfig::default()
            },
            13,
        )
        .expect("dataset generates");
        let config = || LocalizerConfig {
            num_particles: 150,
            pixel_stride: 7,
            components: 8,
            gate: GateConfig::gated(DIGITAL_GMM, CIM_HMGM),
            seed,
            ..LocalizerConfig::default()
        };
        let stage = || {
            let mut rng = Pcg32::seed_from_u64(seed ^ 0xc105);
            let net = navicim::nn::mlp::Mlp::builder(36)
                .dense(12)
                .relu()
                .dropout(0.5)
                .dense(6)
                .build(&mut rng)
                .expect("net builds");
            let samples = make_samples(&dataset.frames, &dataset.camera, 4, 3);
            let calib: Vec<Vec<f64>> =
                samples.iter().take(3).map(|s| s.features.clone()).collect();
            let vo = BayesianVo::build(
                &net,
                &calib,
                VoPipelineConfig {
                    mc_iterations: 6,
                    seed,
                    ..VoPipelineConfig::default()
                },
            )
            .expect("vo builds");
            VoStage::new(
                vo,
                AdaptiveMcPolicy::fixed(6).expect("policy builds"),
                &dataset.camera,
                &dataset.frames[0].depth,
                4,
                3,
            )
            .expect("stage builds")
        };
        let inflation = NoiseInflation::new(1e6, 0.5, 3.0).expect("valid bounds");
        // (a) explicit ground-truth control + inflation config changes
        // nothing on the map side.
        let bare = LocalizationPipeline::build(&dataset, config())
            .expect("pipeline builds")
            .run(&dataset)
            .expect("run completes");
        let gt_mode = LocalizationPipeline::build(&dataset, config())
            .expect("pipeline builds")
            .with_vo(stage())
            .with_control(ControlSource::GroundTruth)
            .with_noise_inflation(inflation)
            .expect("valid inflation")
            .run(&dataset)
            .expect("run completes");
        prop_assert_eq!(&gt_mode.stats, &bare.stats);
        for (gt, plain) in gt_mode.frames.iter().zip(&bare.frames) {
            prop_assert_eq!(gt.slot, plain.slot);
            prop_assert_eq!(&gt.summary, &plain.summary);
            prop_assert_eq!(gt.map_energy_pj, plain.map_energy_pj);
            prop_assert_eq!(gt.signals.spread, plain.signals.spread);
            prop_assert_eq!(gt.control_source, ControlSource::GroundTruth);
            prop_assert_eq!(gt.noise_scale, 1.0);
        }
        // (b) + (c): the closed loop repeats bit-identically and applies
        // the bounded per-frame scale.
        let closed = || {
            LocalizationPipeline::build(&dataset, config())
                .expect("pipeline builds")
                .with_vo(stage())
                .with_control(ControlSource::VisualOdometry)
                .with_noise_inflation(inflation)
                .expect("valid inflation")
                .run(&dataset)
                .expect("closed-loop run completes")
        };
        let run1 = closed();
        let run2 = closed();
        prop_assert_eq!(&run1, &run2);
        for f in &run1.frames {
            prop_assert_eq!(f.control_source, ControlSource::VisualOdometry);
            let vo = f.vo.expect("stage attached");
            prop_assert_eq!(f.noise_scale, inflation.scale(Some(vo.variance)));
            prop_assert!((0.5..=3.0).contains(&f.noise_scale));
            prop_assert!(f.summary.error.is_finite());
        }
    }
}
