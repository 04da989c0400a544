//! `listing1-gauss-4k`: the paper's estimate → execute → feedback loop,
//! in-process and single-threaded, with inserts beside the reads.
//!
//! Each step inserts `INSERTS_PER_STEP` rows of the shifted stream into
//! the table and hands each to the estimator's reservoir path, estimates
//! the next pool query, executes it with `Table::count_in`, and feeds the
//! exact result back (Karma and RMSprop). Everything is deterministic for
//! a seed: the quality figures and replacement counts repeat bit for bit.

use crate::cli::Args;
use crate::inputs::{self, Inputs, DIMS};
use crate::probes;
use crate::report::{median, micros, quantile, Metrics, Outcome, Quality};
use crate::setup::{self, SetupStats, Trained};
use crate::trace::{Tracer, NONE};
use crate::Run;
use kdesel_device::{Backend, DeviceStats};
use kdesel_engine::AnyEstimator;
use kdesel_kde::{AdaptiveConfig, AdaptiveKde, KarmaConfig, KernelFn};
use kdesel_sample::ReservoirSampler;
use kdesel_storage::Table;
use kdesel_types::QueryFeedback;
use std::time::Instant;

const POINTS: usize = 4096;
const INSERTS_PER_STEP: usize = 4;
const WARM_STEPS: usize = 24;
const STEPS_PER_SECOND: usize = 220;
/// Steps replayed on a second model to check determinism.
const REPLAYED: usize = 64;

pub fn stream_rows(seconds: u32) -> usize {
    (WARM_STEPS + STEPS_PER_SECOND * seconds as usize) * INSERTS_PER_STEP
}

fn build(inputs: &Inputs, seed: u64) -> (AnyEstimator, Trained) {
    let (model, trained) = setup::train(inputs, seed, KernelFn::Gaussian, POINTS);
    let kde = AdaptiveKde::from_estimator(model, AdaptiveConfig::default(), KarmaConfig::default());
    let seen = inputs.table.row_count() as u64;
    let estimator = AnyEstimator::Adaptive {
        kde,
        reservoir: ReservoirSampler::new(POINTS, seen),
    };
    (estimator, trained)
}

fn uploads(estimator: &AnyEstimator) -> u64 {
    estimator.device().map_or(0, |d| d.stats().uploads)
}

fn device_stats(estimator: &AnyEstimator) -> DeviceStats {
    estimator.device().map(|d| d.stats()).unwrap_or_default()
}

/// What one run of the loop observed (measured steps only).
#[derive(Default)]
struct Pass {
    est_us: Vec<f64>,
    step_us: Vec<f64>,
    seconds: f64,
    quality: Quality,
    /// Every step's estimate, warm-up included, for the replay check.
    estimates: Vec<f64>,
    /// Cumulative `(reservoir, karma)` replacements after each step.
    replaced: Vec<(u64, u64)>,
    device: DeviceStats,
    rmsprop_updates: u64,
}

impl Pass {
    fn replacements(&self) -> (u64, u64) {
        self.replaced.last().copied().unwrap_or_default()
    }
}

/// Runs steps `0..steps`; steps before `WARM_STEPS` are not measured.
fn run_loop(
    estimator: &mut AnyEstimator,
    table: &mut Table,
    inputs: &Inputs,
    seed: u64,
    steps: usize,
    outcome: &mut Outcome,
    tracer: &mut Tracer,
) -> Pass {
    let mut rng = inputs::rng(seed, 4);
    let mut pass = Pass::default();
    let (mut reservoir, mut karma) = (0u64, 0u64);
    let mut device_before = DeviceStats::default();
    let mut measured_start = Instant::now();
    for i in 0..steps {
        if i == WARM_STEPS {
            device_before = device_stats(estimator);
            measured_start = Instant::now();
        }
        let op = i as u64;
        let q = &inputs.pool[i % inputs.pool.len()];
        let root = tracer.begin("listing1.step", op, NONE);
        let t0 = Instant::now();
        let up0 = uploads(estimator);
        for j in 0..INSERTS_PER_STEP {
            let at = (i * INSERTS_PER_STEP + j) * DIMS;
            let row = &inputs.stream[at..at + DIMS];
            tracer.span("storage.insert", op, root, || table.insert(row));
            tracer.span("engine.handle_insert", op, root, || {
                estimator.handle_insert(row, &mut rng)
            });
        }
        let up1 = uploads(estimator);
        let t1 = Instant::now();
        let estimate = tracer.span("engine.estimate", op, root, || {
            estimator.estimate(&q.region)
        });
        let t2 = Instant::now();
        let up2 = uploads(estimator);
        let count = tracer.span("storage.count_in", op, root, || table.count_in(&q.region));
        let rows = table.row_count();
        let valid = outcome.estimate(Ok::<f64, String>(estimate));
        if let Some(e) = valid {
            let fb = QueryFeedback::from_counts(q.region.clone(), e, count, rows as u64);
            tracer.span("engine.handle_feedback", op, root, || {
                estimator.handle_feedback(table, &fb, &mut rng)
            });
        }
        let up3 = uploads(estimator);
        let t3 = Instant::now();
        tracer.end(root);
        // A replacement is one sample-row write plus one Karma reset.
        reservoir += (up1 - up0) / 2;
        karma += (up3 - up2) / 2;
        pass.replaced.push((reservoir, karma));
        pass.estimates.push(estimate);
        if let (true, Some(e)) = (i >= WARM_STEPS, valid) {
            pass.est_us.push(micros(t2 - t1));
            pass.step_us.push(micros(t3 - t0));
            pass.quality.record(e, count as f64 / rows as f64, rows);
        }
    }
    pass.seconds = measured_start.elapsed().as_secs_f64();
    pass.device = device_stats(estimator).since(&device_before);
    if let AnyEstimator::Adaptive { kde, .. } = estimator {
        pass.rmsprop_updates = kde.updates_applied();
    }
    pass
}

pub fn run(inputs: Inputs, args: &Args) -> Run {
    let mut outcome = Outcome::default();
    let (mut models, setup) = SetupStats::run(|| build(&inputs, args.seed));
    setup.check(&mut outcome);
    let steps = WARM_STEPS + STEPS_PER_SECOND * args.seconds as usize;
    let mut estimator = models.pop().expect("REPS > 0");
    let mut replica = models.pop().expect("REPS > 1");
    drop(models);
    let mut table = inputs.table.clone();
    let mut replica_table = inputs.table.clone();

    let mut off = Tracer::new(false);
    let pass = run_loop(
        &mut estimator,
        &mut table,
        &inputs,
        args.seed,
        steps,
        &mut outcome,
        &mut off,
    );
    let mut metrics = Metrics::default();
    if !args.trace {
        // Replay a prefix on an identically built model and table.
        let replay = run_loop(
            &mut replica,
            &mut replica_table,
            &inputs,
            args.seed,
            REPLAYED,
            &mut outcome,
            &mut off,
        );
        check_replay(&pass, &replay, &mut outcome);
        metrics.put("setup_s", setup.setup_s(), "s");
        metrics.put("est_p50_us", median(&pass.est_us).unwrap_or(f64::NAN), "us");
        metrics.put(
            "query_p50_us",
            median(&pass.step_us).unwrap_or(f64::NAN),
            "us",
        );
        metrics.put(
            "throughput_qps",
            pass.step_us.len() as f64 / pass.seconds,
            "1/s",
        );
        metrics.put("abs_err_mean", pass.quality.abs_err_mean(), "fraction");
        metrics.put("qerror_p95", pass.quality.qerror_p95(), "ratio");
        return Run {
            metrics,
            outcome,
            tracer: off,
        };
    }
    // Traced pass on the second model: same inputs, same trajectory.
    let mut tracer = Tracer::new(true);
    let traced = run_loop(
        &mut replica,
        &mut replica_table,
        &inputs,
        args.seed,
        steps,
        &mut outcome,
        &mut tracer,
    );
    check_replay(&pass, &traced, &mut outcome);
    outcome.check(
        pass.quality.abs_err_mean().to_bits() == traced.quality.abs_err_mean().to_bits()
            && pass.quality.qerror_p95().to_bits() == traced.quality.qerror_p95().to_bits(),
        || "quality metrics differ between the untraced and traced passes".to_string(),
    );
    per_layer(&mut metrics, &pass, &traced, &tracer, &setup, &inputs);
    Run {
        metrics,
        outcome,
        tracer,
    }
}

/// The replayed steps must reproduce the recorded estimates and
/// replacement counts bit for bit.
fn check_replay(recorded: &Pass, replay: &Pass, outcome: &mut Outcome) {
    let n = replay.estimates.len();
    for i in 0..n {
        let (a, b) = (recorded.estimates[i], replay.estimates[i]);
        outcome.check(a.to_bits() == b.to_bits(), || {
            format!("step {i}: estimate {a:e} replayed as {b:e}")
        });
    }
    let (a, b) = (recorded.replaced[n - 1], replay.replaced[n - 1]);
    outcome.check(a == b, || {
        format!("after {n} steps: (reservoir, karma) replacements {a:?} replayed as {b:?}")
    });
}

fn per_layer(
    metrics: &mut Metrics,
    pass: &Pass,
    traced: &Pass,
    tracer: &Tracer,
    setup: &SetupStats,
    inputs: &Inputs,
) {
    let first = WARM_STEPS as u64;
    let p50 =
        |name: &str| median(&tracer.stage_per_op("listing1.step", name, first)).unwrap_or(0.0);
    let call_p50 = |name: &str| median(&tracer.durations(name, first)).unwrap_or(f64::NAN);
    let trained = setup.first();
    for (name, unit) in [
        ("serve.overhead_p50_us", "us"),
        ("serve.batch_mean_sync", "count"),
        ("serve.batch_mean_sat", "count"),
        ("serve.maintenance_applied", "count"),
        ("serve.flush_ms", "ms"),
        ("serve.est_p99_us", "us"),
    ] {
        // The loop runs in-process: the serving layer is idle.
        metrics.put(name, 0.0, unit);
    }
    probes::kde_and_par(metrics, trained, Backend::CpuSeq, inputs);
    metrics.put("kde.rmsprop_updates", pass.rmsprop_updates as f64, "count");
    let (reservoir, karma) = pass.replacements();
    metrics.put("kde.replacements", karma as f64, "count");
    probes::erf(metrics);
    probes::device_per_op(metrics, &pass.device, pass.step_us.len() as f64);
    metrics.put("storage.count_in_us", call_p50("storage.count_in"), "us");
    metrics.put("storage.insert_us", call_p50("storage.insert"), "us");
    metrics.put("sample.reservoir_replacements", reservoir as f64, "count");
    metrics.put(
        "engine.handle_feedback_us",
        call_p50("engine.handle_feedback"),
        "us",
    );
    metrics.put(
        "engine.handle_insert_us",
        call_p50("engine.handle_insert"),
        "us",
    );
    probes::solver(metrics, setup);
    let untraced_p50 = median(&pass.step_us).unwrap_or(f64::NAN);
    let traced_p50 = median(&traced.step_us).unwrap_or(f64::NAN);
    metrics.put(
        "telemetry.overhead_pct",
        (traced_p50 - untraced_p50) / untraced_p50 * 100.0,
        "%",
    );
    let stages: f64 = [
        "storage.insert",
        "engine.handle_insert",
        "engine.estimate",
        "storage.count_in",
        "engine.handle_feedback",
    ]
    .iter()
    .map(|s| p50(s))
    .sum();
    let steps = tracer.durations("listing1.step", first);
    metrics.put(
        "trace.coverage",
        stages / median(&steps).unwrap_or(f64::NAN),
        "ratio",
    );
    metrics.put(
        "trace.step_self_us",
        median(&tracer.self_times("listing1.step", first)).unwrap_or(f64::NAN),
        "us",
    );
    metrics.put(
        "trace.query_p99_us",
        quantile(&pass.step_us, 0.99).unwrap_or(f64::NAN),
        "us",
    );
}
