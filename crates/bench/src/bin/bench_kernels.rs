//! Kernel micro-benchmarks with a machine-readable JSON trail.
//!
//! Times the two served likelihood hot paths — the digital
//! [`navicim_gmm::gaussian::GmmEvalPlan`] batch path and the analog CIM
//! engine — against in-binary reimplementations of their
//! **pre-vectorization scalar baselines**, so before/after live in one
//! honest run:
//!
//! - `gmm_plan` vs `gmm_plan_scalar_ref` — plain `quad += nhiv·d·d`
//!   accumulation and a `f64::exp` log-sum-exp, exactly the seed's loop;
//! - `cim_engine` vs `cim_engine_direct` — the engine with its per-code
//!   current table disabled ([`HmgmCimEngine::with_direct_eval`]), i.e.
//!   the seed's DAC → EKV device model → Kirchhoff sum per evaluation.
//!
//! Besides the blob-map rows, a `spread` row pair scores the `wide-map`
//! shape (32 tight components over an oversized room, scan-like
//! queries), where the digital kernel skips the exact-zero exponentials
//! of about 46 % of its 4-point groups.
//!
//! Each row pair is timed in alternating samples, so host noise falls
//! on both rows alike, and every row records the minimum (`ns_per_point`,
//! the headline) and the quartiles (`ns_q1`, `ns_median`, `ns_q3`) of its
//! samples.
//!
//! Every pairing is parity-checked inline: the analog pair must agree
//! *bitwise* (the code LUT is an exact cache); the digital pair carries
//! the documented `exp_fast` ulp-bounded tolerance and is gated at
//! [`DIGITAL_MAX_ULP`]. Parity failure exits non-zero so CI catches rot.
//!
//! Run: `cargo run --release -p navicim-bench --bin bench_kernels`
//!
//! Flags:
//! - `--smoke` — tiny rep counts and the small workload only (CI),
//! - `--threads` — additionally sweep worker counts per kernel under
//!   pinned [`ChunkPolicy::exact`] splits, emitting `variant: "threads"`
//!   rows whose `workers` field varies. This is the re-tune harness for
//!   [`par::MIN_CHUNK`]: run it with `--features parallel` on a ≥4-core
//!   host, read off the batch size where the multi-worker rows cross
//!   below the single-worker row, and move the constant. Without the
//!   feature the sweep still runs but every worker count collapses to
//!   one thread (noted in the output), so rows only measure chunking
//!   overhead.
//! - `--out PATH` — JSON snapshot path (default `BENCH_kernels.json`).

use navicim_analog::engine::{CimEngineConfig, HmgmCimEngine};
use navicim_analog::mapping::SpaceMap;
use navicim_backend::par::{self, ChunkPolicy};
use navicim_backend::{LikelihoodBackend, PointBatch};
use navicim_gmm::fit::{fit_diag_gmm, FitConfig};
use navicim_gmm::gaussian::Gmm;
use navicim_gmm::hmg::{fit_hmgm, HmgmFitConfig};
use navicim_gmm::prune::{PruneConfig, PRUNE_EPSILON};
use navicim_math::rng::{Pcg32, SampleExt};
use navicim_math::simd::ulp_distance;
use navicim_math::stats::{log_sum_exp, LN_2PI};
use std::time::Instant;

/// Batch sizes tracked in the perf trajectory (shared with
/// `benches/bench_likelihood.rs`).
const BATCH_SIZES: [usize; 3] = [64, 256, 1024];

/// Regression gate on the digital fast-vs-reference drift, in ulps of
/// the final log-likelihood. The per-call `exp_fast` bound is ≤ 4 ulp;
/// after the log-sum-exp reassociation through a ~1e1
/// dynamic range this lands in the tens of ulps, so a four-thousand-ulp
/// drift means a kernel broke, not that rounding moved.
const DIGITAL_MAX_ULP: u64 = 4096;

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

/// One row's timing in ns per point: the minimum and the quartiles of
/// its samples. The minimum is the headline: noise on a shared host only
/// ever adds time, so the fastest sample is the closest estimate of the
/// kernel's intrinsic cost. The quartiles show how noisy the run was.
#[derive(Debug, Clone, Copy)]
struct Timing {
    min: f64,
    q1: f64,
    median: f64,
    q3: f64,
}

impl Timing {
    /// Summarizes per-call samples as ns per point of an `n`-point call.
    fn per_point(mut samples: Vec<f64>, n: usize) -> Self {
        samples.sort_by(f64::total_cmp);
        let at = |p: f64| samples[((samples.len() - 1) as f64 * p).round() as usize] / n as f64;
        Self {
            min: at(0.0),
            q1: at(0.25),
            median: at(0.5),
            q3: at(0.75),
        }
    }
}

/// Mean ns per call of `f` over `iters` calls.
fn sample_ns(iters: usize, f: &mut impl FnMut()) -> f64 {
    let t = Instant::now();
    for _ in 0..iters {
        f();
    }
    t.elapsed().as_nanos() as f64 / iters as f64
}

/// Times two `n`-point calls against each other in alternating samples
/// (`a`, `b`, `a`, `b`, …), `reps` samples each of enough calls to run
/// at least `target_ns`, so the host's noise falls on both rows alike.
fn time_pair(
    reps: usize,
    target_ns: f64,
    n: usize,
    mut a: impl FnMut(),
    mut b: impl FnMut(),
) -> [Timing; 2] {
    let iters_a = calibrate_iters(target_ns, &mut a);
    let iters_b = calibrate_iters(target_ns, &mut b);
    let (mut sa, mut sb) = (Vec::new(), Vec::new());
    for _ in 0..reps.max(1) {
        sa.push(sample_ns(iters_a, &mut a));
        sb.push(sample_ns(iters_b, &mut b));
    }
    [Timing::per_point(sa, n), Timing::per_point(sb, n)]
}

/// Picks an iteration count so one timing sample runs ≥ `target_ns`
/// (the call it times also warms caches and branch predictors).
fn calibrate_iters(target_ns: f64, f: &mut impl FnMut()) -> usize {
    let once = sample_ns(1, f).max(1.0);
    ((target_ns / once).ceil() as usize).clamp(1, 1_000_000)
}

/// Pre-vectorization scalar GMM reference: hoisted diagonal plan with
/// plain multiply-accumulate and a `f64::exp` log-sum-exp — the seed's
/// exact per-point math.
struct GmmScalarRef {
    consts: Vec<f64>,
    neg_half_inv_vars: Vec<f64>,
    means: Vec<Vec<f64>>,
    dim: usize,
}

impl GmmScalarRef {
    fn new(gmm: &Gmm) -> Self {
        let vars = gmm.variances();
        let dim = gmm.dim();
        let mut consts = Vec::with_capacity(gmm.num_components());
        let mut neg_half_inv_vars = Vec::with_capacity(gmm.num_components() * dim);
        for (k, vk) in vars.iter().enumerate() {
            let mut c = gmm.weights()[k].max(1e-300).ln() - 0.5 * dim as f64 * LN_2PI;
            for &v in vk {
                c -= 0.5 * v.ln();
                neg_half_inv_vars.push(-0.5 / v);
            }
            consts.push(c);
        }
        Self {
            consts,
            neg_half_inv_vars,
            means: gmm.means().to_vec(),
            dim,
        }
    }

    fn log_pdf(&self, x: &[f64], terms: &mut Vec<f64>) -> f64 {
        terms.clear();
        for (k, &c) in self.consts.iter().enumerate() {
            let nhiv = &self.neg_half_inv_vars[k * self.dim..(k + 1) * self.dim];
            let mean = &self.means[k];
            let mut quad = 0.0;
            for i in 0..self.dim {
                let d = x[i] - mean[i];
                quad += nhiv[i] * d * d;
            }
            terms.push(c + quad);
        }
        log_sum_exp(terms)
    }
}

/// [`time_pair`] of the digital GMM batch kernel against the scalar
/// reference on one batch.
fn time_gmm_pair(
    reps: usize,
    target_ns: f64,
    gmm: &mut Gmm,
    gmm_ref: &GmmScalarRef,
    batch: &PointBatch,
) -> [Timing; 2] {
    let n = batch.len();
    let (mut out, mut out_ref) = (vec![0.0; n], vec![0.0; n]);
    time_pair(
        reps,
        target_ns,
        n,
        || {
            gmm.log_likelihood_into(batch, &mut out);
            std::hint::black_box(out[0]);
        },
        || {
            let mut terms = Vec::new();
            for (i, o) in out_ref.iter_mut().enumerate() {
                *o = gmm_ref.log_pdf(batch.point(i), &mut terms);
            }
            std::hint::black_box(out_ref[0]);
        },
    )
}

/// Worst ulp distance between the digital GMM batch kernel and the
/// scalar reference on `batch`.
fn gmm_parity_ulp(gmm: &mut Gmm, gmm_ref: &GmmScalarRef, batch: &PointBatch) -> u64 {
    let out = gmm.log_likelihood_batch(batch);
    let mut terms = Vec::new();
    out.iter()
        .enumerate()
        .map(|(i, &v)| ulp_distance(v, gmm_ref.log_pdf(batch.point(i), &mut terms)))
        .max()
        .unwrap_or(0)
}

/// The `wide-map` shape: 32 tight components spread over an oversized
/// room (12 × 12 × 3 m), scored by a scan-like batch of `n` points —
/// runs of 16 consecutive points drawn from one component, as
/// neighbouring pixels see one surface. Most components sit more than
/// 746 nats below a run's best one, so the digital kernel skips their
/// exact-zero exponentials.
fn spread_map(n: usize) -> (Gmm, PointBatch) {
    const K: usize = 32;
    let mut rng = Pcg32::seed_from_u64(26);
    let means: Vec<Vec<f64>> = (0..K)
        .map(|_| {
            vec![
                rng.sample_uniform(-6.0, 6.0),
                rng.sample_uniform(-6.0, 6.0),
                rng.sample_uniform(0.0, 3.0),
            ]
        })
        .collect();
    let vars: Vec<Vec<f64>> = (0..K)
        .map(|_| (0..3).map(|_| rng.sample_uniform(0.01, 0.05)).collect())
        .collect();
    let gmm = Gmm::new(vec![1.0 / K as f64; K], means, vars).unwrap();
    let mut batch = PointBatch::with_capacity(3, n);
    let mut sample = Vec::new();
    for i in 0..n {
        if i % 16 == 0 {
            sample = gmm.sample(&mut rng);
        }
        let p: Vec<f64> = sample
            .iter()
            .map(|&c| c + rng.sample_normal(0.0, 0.1))
            .collect();
        batch.push(&p);
    }
    (gmm, batch)
}

struct Row {
    kernel: &'static str,
    variant: &'static str,
    k: usize,
    n: usize,
    workers: usize,
    ns: Timing,
}

/// Component counts of the pruning sweep: wide mixtures are where the
/// spatial index pays, so the sweep starts past the localization
/// pipeline's defaults.
const PRUNE_COMPONENTS: [usize; 3] = [16, 64, 256];

/// Scattered 3-d diagonal GMM: components spread uniformly over a
/// ±10 box, each a tight blob — the map shape the prune index targets.
fn prune_spread_gmm(k: usize) -> Gmm {
    let mut rng = Pcg32::seed_from_u64(21);
    let means: Vec<Vec<f64>> = (0..k)
        .map(|_| (0..3).map(|_| rng.sample_uniform(-10.0, 10.0)).collect())
        .collect();
    let vars = vec![vec![0.2, 0.3, 0.25]; k];
    Gmm::new(vec![1.0 / k as f64; k], means, vars).unwrap()
}

/// Query batch clustered near one component — the localized scan the
/// index prunes against.
fn clustered_queries(center: &[f64], n: usize, seed: u64) -> PointBatch {
    let mut rng = Pcg32::seed_from_u64(seed);
    let mut batch = PointBatch::with_capacity(3, n);
    for _ in 0..n {
        batch.push(&[
            center[0] + rng.sample_normal(0.0, 0.3),
            center[1] + rng.sample_normal(0.0, 0.3),
            center[2] + rng.sample_normal(0.0, 0.3),
        ]);
    }
    batch
}

/// Worker count the auto [`ChunkPolicy`] resolves to for a batch of `n`
/// (mirrors its resolution rule), so rows timed through the production
/// entry points report the thread count actually used.
fn auto_workers(n: usize) -> usize {
    if cfg!(feature = "parallel") {
        par::worker_count().min(n.div_ceil(par::MIN_CHUNK)).max(1)
    } else {
        1
    }
}

fn json_escape_free(s: &str) -> &str {
    // All strings we emit are static identifiers/paths without quotes or
    // control characters; assert instead of escaping.
    assert!(!s.contains(['"', '\\', '\n']), "string needs escaping: {s}");
    s
}

fn row_json(r: &Row) -> String {
    format!(
        "    {{\"kernel\": \"{}\", \"variant\": \"{}\", \"components\": {}, \"batch_size\": {}, \"workers\": {}, \"ns_per_point\": {:.2}, \"ns_q1\": {:.2}, \"ns_median\": {:.2}, \"ns_q3\": {:.2}}}",
        json_escape_free(r.kernel),
        json_escape_free(r.variant),
        r.k,
        r.n,
        r.workers,
        r.ns.min,
        r.ns.q1,
        r.ns.median,
        r.ns.q3
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let threads = args.iter().any(|a| a == "--threads");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_kernels.json".to_string());

    let components: &[usize] = if smoke { &[8] } else { &[8, 32] };
    let batch_sizes: &[usize] = if smoke {
        &BATCH_SIZES[..2]
    } else {
        &BATCH_SIZES
    };
    let (reps, target_ns) = if smoke { (3, 2e5) } else { (9, 5e6) };

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Worker counts for the `--threads` sweep: the single-thread column
    // plus powers of two up to the host's cores.
    let mut worker_counts: Vec<usize> = vec![1];
    for w in [2usize, 4, 8] {
        if w <= cores {
            worker_counts.push(w);
        }
    }

    let points = blob_points(600, 1);
    let mut rows: Vec<Row> = Vec::new();
    let mut thread_rows: Vec<Row> = Vec::new();
    let mut gmm_max_ulp = 0u64;
    let mut cim_exact = true;

    for &k in components {
        let mut rng = Pcg32::seed_from_u64(2);
        let gmm = fit_diag_gmm(&points, k, &FitConfig::default(), &mut rng).unwrap();
        let gmm_ref = GmmScalarRef::new(&gmm);

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
        let mut engine =
            HmgmCimEngine::build(&model, space.clone(), CimEngineConfig::default()).unwrap();
        let mut engine_direct = HmgmCimEngine::build(&model, space, CimEngineConfig::default())
            .unwrap()
            .with_direct_eval();

        for &n in batch_sizes {
            let mut batch = PointBatch::with_capacity(3, n);
            for i in 0..n {
                batch.push(&points[i % points.len()]);
            }
            let mut out = vec![0.0; n];
            let mut out_ref = vec![0.0; n];

            // --- digital GMM plan ---
            let mut gmm_b = gmm.clone();
            gmm_max_ulp = gmm_max_ulp.max(gmm_parity_ulp(&mut gmm_b, &gmm_ref, &batch));
            let [simd_ns, ref_ns] = time_gmm_pair(reps, target_ns, &mut gmm_b, &gmm_ref, &batch);
            rows.push(Row {
                kernel: "gmm_plan",
                variant: "simd",
                k,
                n,
                workers: auto_workers(n),
                ns: simd_ns,
            });
            rows.push(Row {
                kernel: "gmm_plan",
                variant: "scalar_ref",
                k,
                n,
                workers: 1,
                ns: ref_ns,
            });

            // --- analog CIM engine (LUT vs direct device model) ---
            // Parity first, from aligned noise cursors: rebuild both so
            // evaluation i draws the same counter-based noise.
            {
                let mut a = HmgmCimEngine::build(
                    &model,
                    SpaceMap::fit_to_points(&points, 0.15, 0.85, 0.1).unwrap(),
                    CimEngineConfig::default(),
                )
                .unwrap();
                let mut b = HmgmCimEngine::build(
                    &model,
                    SpaceMap::fit_to_points(&points, 0.15, 0.85, 0.1).unwrap(),
                    CimEngineConfig::default(),
                )
                .unwrap()
                .with_direct_eval();
                a.log_likelihood_into(&batch, &mut out);
                b.log_likelihood_into(&batch, &mut out_ref);
                cim_exact &= out == out_ref;
            }
            let [simd_ns, ref_ns] = time_pair(
                reps,
                target_ns,
                n,
                || {
                    engine.log_likelihood_into(&batch, &mut out);
                    std::hint::black_box(out[0]);
                },
                || {
                    engine_direct.log_likelihood_into(&batch, &mut out_ref);
                    std::hint::black_box(out_ref[0]);
                },
            );
            rows.push(Row {
                kernel: "cim_engine",
                variant: "simd",
                k,
                n,
                workers: auto_workers(n),
                ns: simd_ns,
            });
            rows.push(Row {
                kernel: "cim_engine",
                variant: "scalar_ref",
                k,
                n,
                workers: auto_workers(n),
                ns: ref_ns,
            });
        }

        // --- worker-count sweep (--threads) ---
        // Raw scaling of each production batch kernel under pinned
        // `ChunkPolicy::exact` splits, bypassing the min-chunk gate so
        // every (n, workers) point is measured even below the production
        // threshold. Reading off where the multi-worker rows dip under
        // the single-worker row re-derives `par::MIN_CHUNK` on this host.
        if threads && k == components[0] {
            let mut sweep_sizes = batch_sizes.to_vec();
            if !smoke {
                // One size past the production threshold so the sweep
                // brackets the break-even instead of stopping at it.
                sweep_sizes.push(4 * par::MIN_CHUNK);
            }
            let mut gmm_t = gmm.clone();
            for &n in &sweep_sizes {
                let mut batch = PointBatch::with_capacity(3, n);
                for i in 0..n {
                    batch.push(&points[i % points.len()]);
                }
                let (mut out, mut out_cim) = (vec![0.0; n], vec![0.0; n]);
                for &w in &worker_counts {
                    let policy = ChunkPolicy::exact(n.div_ceil(w), w);
                    let timings = time_pair(
                        reps,
                        target_ns,
                        n,
                        || {
                            gmm_t.log_likelihood_into_policy(&batch, &mut out, policy);
                            std::hint::black_box(out[0]);
                        },
                        || {
                            engine.log_likelihood_into_chunked(&batch, &mut out_cim, policy);
                            std::hint::black_box(out_cim[0]);
                        },
                    );
                    for (kernel, ns) in ["gmm_plan", "cim_engine"].into_iter().zip(timings) {
                        thread_rows.push(Row {
                            kernel,
                            variant: "threads",
                            k,
                            n,
                            workers: w,
                            ns,
                        });
                    }
                }
            }
        }
    }

    // ---- the spread map ----
    // One row pair on the `wide-map` shape, where the digital kernel
    // skips its exact-zero exponentials; the blob rows above have few.
    let n = *batch_sizes.last().expect("at least one batch size");
    let (mut spread, spread_batch) = spread_map(n);
    let spread_ref = GmmScalarRef::new(&spread);
    gmm_max_ulp = gmm_max_ulp.max(gmm_parity_ulp(&mut spread, &spread_ref, &spread_batch));
    let timings = time_gmm_pair(reps, target_ns, &mut spread, &spread_ref, &spread_batch);
    for ((variant, workers), ns) in [("spread", auto_workers(n)), ("spread_scalar_ref", 1)]
        .into_iter()
        .zip(timings)
    {
        rows.push(Row {
            kernel: "gmm_plan",
            variant,
            k: spread.num_components(),
            n,
            workers,
            ns,
        });
    }

    // ---- spatial component pruning ----
    // Scattered components, clustered queries: the shape the prune index
    // is built for. Pruning reaches the digital GMM only; its rows are
    // parity-gated at the documented additive PRUNE_EPSILON and off-mode
    // must stay bit-identical. The CIM kernel always scores every
    // component.
    let mut prune_rows: Vec<Row> = Vec::new();
    let mut prune_digital_max_abs = 0.0f64;
    let mut prune_off_exact = true;
    for &k in &PRUNE_COMPONENTS {
        let gmm_full = prune_spread_gmm(k);
        let mut gmm_pruned = gmm_full.clone();
        gmm_pruned.set_prune(PruneConfig::enabled());

        for &n in batch_sizes {
            let batch = clustered_queries(&gmm_full.means()[0], n, 31);
            let mut out = vec![0.0; n];
            let mut out_full = vec![0.0; n];

            // Parity: epsilon bound on, bit-identity off.
            let mut gf = gmm_full.clone();
            gmm_pruned.log_likelihood_into(&batch, &mut out);
            gf.log_likelihood_into(&batch, &mut out_full);
            for (a, b) in out.iter().zip(&out_full) {
                prune_digital_max_abs = prune_digital_max_abs.max((a - b).abs());
            }
            let mut g_off = gmm_full.clone();
            g_off.set_prune(PruneConfig::enabled());
            g_off.set_prune(PruneConfig::default());
            g_off.log_likelihood_into(&batch, &mut out);
            prune_off_exact &= out
                .iter()
                .zip(&out_full)
                .all(|(a, b)| a.to_bits() == b.to_bits());

            // Timings: pruned row first, full row second (pairwise).
            let mut full = gmm_full.clone();
            let timings = time_pair(
                reps,
                target_ns,
                n,
                || {
                    gmm_pruned.log_likelihood_into(&batch, &mut out);
                    std::hint::black_box(out[0]);
                },
                || {
                    full.log_likelihood_into(&batch, &mut out_full);
                    std::hint::black_box(out_full[0]);
                },
            );
            for (variant, ns) in ["pruned", "full"].into_iter().zip(timings) {
                prune_rows.push(Row {
                    kernel: "gmm_plan",
                    variant,
                    k,
                    n,
                    workers: auto_workers(n),
                    ns,
                });
            }
        }
    }

    // ---- report ----
    let mut ok = true;
    println!("kernel:variant      k   n      scalar_ref  simd      speedup");
    let mut json_rows = String::new();
    for pair in rows.chunks(2) {
        let [simd, refr] = pair else { unreachable!() };
        let speedup = refr.ns.min / simd.ns.min;
        println!(
            "{:<18} {:>3} {:>5}  {:>8.1}ns {:>8.1}ns  {:>5.2}x",
            format!("{}:{}", simd.kernel, simd.variant),
            simd.k,
            simd.n,
            refr.ns.min,
            simd.ns.min,
            speedup
        );
        for r in [simd, refr] {
            if !json_rows.is_empty() {
                json_rows.push_str(",\n");
            }
            json_rows.push_str(&row_json(r));
        }
    }
    for r in &thread_rows {
        if !json_rows.is_empty() {
            json_rows.push_str(",\n");
        }
        json_rows.push_str(&row_json(r));
    }
    if threads {
        if !cfg!(feature = "parallel") {
            println!(
                "note: built without --features parallel; every worker count below runs \
                 single-threaded (rows measure chunking overhead only)"
            );
        }
        println!(
            "threads sweep (ChunkPolicy::exact, min-chunk gate bypassed; \
             production par::MIN_CHUNK = {})",
            par::MIN_CHUNK
        );
        println!("kernel      k   n     workers  ns/point  vs w=1");
        for r in &thread_rows {
            let base = thread_rows
                .iter()
                .find(|b| b.kernel == r.kernel && b.n == r.n && b.workers == 1)
                .expect("w=1 baseline row exists");
            println!(
                "{:<10} {:>3} {:>5} {:>8}  {:>7.1}ns {:>6.2}x",
                r.kernel,
                r.k,
                r.n,
                r.workers,
                r.ns.min,
                base.ns.min / r.ns.min
            );
        }
    }
    println!(
        "pruning sweep (spatial index, clustered queries; epsilon = {PRUNE_EPSILON:.0e} nats)"
    );
    println!("kernel      k   n      full      pruned    speedup");
    for pair in prune_rows.chunks(2) {
        let [pruned, full] = pair else { unreachable!() };
        println!(
            "{:<10} {:>3} {:>5}  {:>8.1}ns {:>8.1}ns  {:>5.2}x",
            pruned.kernel,
            pruned.k,
            pruned.n,
            full.ns.min,
            pruned.ns.min,
            full.ns.min / pruned.ns.min
        );
        for r in [pruned, full] {
            if !json_rows.is_empty() {
                json_rows.push_str(",\n");
            }
            json_rows.push_str(&row_json(r));
        }
    }
    println!("parity: gmm {gmm_max_ulp} ulp, cim exact: {cim_exact}");
    println!(
        "prune parity: digital max |diff| {prune_digital_max_abs:.2e} (gate {PRUNE_EPSILON:.0e}), \
         off-mode bit-identical: {prune_off_exact}"
    );
    if gmm_max_ulp > DIGITAL_MAX_ULP {
        eprintln!("FAIL: digital SIMD drift exceeds the {DIGITAL_MAX_ULP}-ulp gate");
        ok = false;
    }
    if !cim_exact {
        eprintln!("FAIL: CIM LUT path is not bit-identical to the direct path");
        ok = false;
    }
    if prune_digital_max_abs > PRUNE_EPSILON {
        eprintln!(
            "FAIL: pruned digital drift {prune_digital_max_abs:.3e} exceeds the \
             PRUNE_EPSILON gate {PRUNE_EPSILON:.0e}"
        );
        ok = false;
    }
    if !prune_off_exact {
        eprintln!("FAIL: prune-off evaluation is not bit-identical to a never-pruned model");
        ok = false;
    }

    let json = format!(
        "{{\n  \"bench\": \"kernels\",\n  \"smoke\": {smoke},\n  \"host\": {{\"arch\": \"{}\", \"os\": \"{}\", \"cores\": {cores}, \"target_cpu\": \"{}\"}},\n  \"config\": {{\"dim\": 3, \"reps\": {reps}, \"threads_sweep\": {threads}}},\n  \"parity\": {{\"gmm_max_ulp\": {gmm_max_ulp}, \"digital_ulp_gate\": {DIGITAL_MAX_ULP}, \"cim_bit_identical\": {cim_exact}}},\n  \"prune\": {{\"epsilon\": {PRUNE_EPSILON:e}, \"digital_max_abs\": {prune_digital_max_abs:e}, \"off_bit_identical\": {prune_off_exact}}},\n  \"rows\": [\n{json_rows}\n  ]\n}}\n",
        json_escape_free(std::env::consts::ARCH),
        json_escape_free(std::env::consts::OS),
        json_escape_free(navicim_bench::target_cpu_label()),
    );
    std::fs::write(&out_path, json).expect("write bench snapshot");
    println!("wrote {out_path}");

    if !ok {
        std::process::exit(1);
    }
}
