//! Timing: map-likelihood evaluation — digital GMM vs math HMGM vs the
//! device-backed CIM engine — on the scalar path; the two served
//! backends (digital GMM and CIM engine) also on the batched path; plus a
//! worker-count sweep of the analog batch path (the `parallel` feature's
//! multi-core speedup; without the feature the sweep rows coincide,
//! which is itself worth seeing on the chart).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use navicim_analog::engine::{CimEngineConfig, HmgmCimEngine};
use navicim_analog::mapping::SpaceMap;
use navicim_backend::par::ChunkPolicy;
use navicim_backend::{LikelihoodBackend, PointBatch};
use navicim_gmm::fit::{fit_diag_gmm, FitConfig};
use navicim_gmm::hmg::{fit_hmgm, HmgmFitConfig};
use navicim_math::rng::{Pcg32, SampleExt};

/// Batch sizes tracked in the perf trajectory.
const BATCH_SIZES: [usize; 3] = [64, 256, 1024];

fn blob_points(n: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = Pcg32::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            vec![
                rng.sample_normal(0.0, 0.5),
                rng.sample_normal(0.0, 0.5),
                rng.sample_normal(0.5, 0.3),
            ]
        })
        .collect()
}

fn bench_likelihood(c: &mut Criterion) {
    let points = blob_points(600, 1);
    let mut group = c.benchmark_group("likelihood_eval");
    group.sample_size(20);

    for &k in &[8usize, 32] {
        let mut rng = Pcg32::seed_from_u64(2);
        let gmm = fit_diag_gmm(&points, k, &FitConfig::default(), &mut rng).unwrap();
        group.bench_with_input(BenchmarkId::new("digital_gmm", k), &k, |b, _| {
            let mut i = 0usize;
            b.iter(|| {
                i = (i + 1) % points.len();
                std::hint::black_box(gmm.log_pdf(&points[i]))
            })
        });

        let space = SpaceMap::fit_to_points(&points, 0.15, 0.85, 0.1).unwrap();
        let tech = navicim_device::params::TechParams::cmos_45nm();
        let (floor, ceil) = HmgmCimEngine::recommended_sigma_bounds(&tech, &space);
        let mut rng2 = Pcg32::seed_from_u64(3);
        let model = fit_hmgm(
            &points,
            k,
            &HmgmFitConfig {
                sigma_floor: floor,
                sigma_ceiling: Some(ceil),
                ..HmgmFitConfig::default()
            },
            &mut rng2,
        )
        .unwrap();
        group.bench_with_input(BenchmarkId::new("math_hmgm", k), &k, |b, _| {
            let mut i = 0usize;
            b.iter(|| {
                i = (i + 1) % points.len();
                std::hint::black_box(model.log_likelihood(&points[i]))
            })
        });

        let mut engine = HmgmCimEngine::build(&model, space, CimEngineConfig::default()).unwrap();
        group.bench_with_input(BenchmarkId::new("cim_engine", k), &k, |b, _| {
            let mut i = 0usize;
            b.iter(|| {
                i = (i + 1) % points.len();
                std::hint::black_box(engine.log_likelihood(&points[i]))
            })
        });

        // Batched variants: one backend call per batch; reported time is
        // per whole batch (divide by the batch size for per-point cost).
        for &batch_size in &BATCH_SIZES {
            let mut batch = PointBatch::with_capacity(3, batch_size);
            for i in 0..batch_size {
                batch.push(&points[i % points.len()]);
            }
            let mut out = vec![0.0; batch_size];

            let mut gmm_b = gmm.clone();
            group.bench_with_input(
                BenchmarkId::new(format!("digital_gmm_batch{batch_size}"), k),
                &k,
                |b, _| {
                    b.iter(|| {
                        gmm_b.log_likelihood_into(&batch, &mut out);
                        std::hint::black_box(out[0])
                    })
                },
            );

            group.bench_with_input(
                BenchmarkId::new(format!("cim_engine_batch{batch_size}"), k),
                &k,
                |b, _| {
                    b.iter(|| {
                        engine.log_likelihood_into(&batch, &mut out);
                        std::hint::black_box(out[0])
                    })
                },
            );
        }

        // Thread-count sweep of the analog batch path at 1024 points:
        // the splittable noise stream makes each worker count produce
        // bit-identical output, so the rows differ only in wall clock.
        let threads_batch_size = 1024;
        let mut batch = PointBatch::with_capacity(3, threads_batch_size);
        for i in 0..threads_batch_size {
            batch.push(&points[i % points.len()]);
        }
        let mut out = vec![0.0; threads_batch_size];
        for workers in [1usize, 2, 4] {
            let policy = ChunkPolicy {
                chunk_len: Some(threads_batch_size.div_ceil(workers)),
                workers: Some(workers),
                min_chunk: None,
            };
            group.bench_with_input(
                BenchmarkId::new(format!("cim_engine_batch1024_threads{workers}"), k),
                &k,
                |b, _| {
                    b.iter(|| {
                        engine.log_likelihood_into_chunked(&batch, &mut out, policy);
                        std::hint::black_box(out[0])
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_likelihood);
criterion_main!(benches);
