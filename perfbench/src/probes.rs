//! Per-layer probes of the traced run: the same public calls the serving
//! worker and the adaptive model make internally, timed from outside on
//! twins identical to the workload's model, plus device counters and the
//! solver's set-up figures.

use crate::inputs::{Inputs, DIMS};
use crate::report::{median, Metrics};
use crate::setup::{SetupStats, Trained};
use kdesel_device::{Backend, DeviceStats};
use kdesel_kde::{AdaptiveConfig, AdaptiveTuner, KarmaConfig, KarmaMaintenance, KdeEstimator};
use kdesel_types::{LabelledQuery, QueryFeedback};
use std::hint::black_box;
use std::time::Instant;

/// Single-query probes per figure.
const REPS: usize = 200;
/// 32-query batch probes per figure.
const BATCH_REPS: usize = 24;
const BATCH: usize = 32;

fn time_us(f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64() * 1e6
}

fn med(v: &[f64]) -> f64 {
    median(v).unwrap_or(f64::NAN)
}

fn feedback(q: &LabelledQuery, estimate: f64) -> QueryFeedback {
    QueryFeedback {
        region: q.region.clone(),
        estimate,
        actual: q.selectivity,
        cardinality: 0,
    }
}

/// Median µs of the sweep calls on one twin.
struct Sweep {
    /// `estimate_batch` of one region: the serving worker's launch.
    launch1_us: f64,
    estimate_us: f64,
    batch32_us: f64,
    with_gradient_us: f64,
}

impl Sweep {
    fn put(&self, metrics: &mut Metrics) {
        metrics.put("kde.estimate_us", self.estimate_us, "us");
        metrics.put("kde.estimate_batch32_us", self.batch32_us, "us");
        metrics.put("kde.estimate_with_gradient_us", self.with_gradient_us, "us");
    }
}

fn sweep(twin: &mut KdeEstimator, pool: &[LabelledQuery]) -> Sweep {
    let q = |r: usize| &pool[r % pool.len()].region;
    let mut launch1 = Vec::with_capacity(REPS);
    let mut single = Vec::with_capacity(REPS);
    let mut gradient = Vec::with_capacity(REPS);
    for r in 0..REPS {
        launch1.push(time_us(|| {
            black_box(twin.estimate_batch(std::slice::from_ref(q(r))));
        }));
        single.push(time_us(|| {
            black_box(twin.estimate(q(r)));
        }));
        gradient.push(time_us(|| {
            black_box(twin.estimate_with_gradient(q(r)));
        }));
    }
    let mut batch = Vec::with_capacity(BATCH_REPS);
    for r in 0..BATCH_REPS {
        let regions: Vec<_> = (0..BATCH).map(|i| q(r * BATCH + i).clone()).collect();
        batch.push(time_us(|| {
            black_box(twin.estimate_batch(&regions));
        }));
    }
    Sweep {
        launch1_us: med(&launch1),
        estimate_us: med(&single),
        batch32_us: med(&batch),
        with_gradient_us: med(&gradient),
    }
}

/// Median µs of the maintenance calls on one twin.
struct Maintenance {
    karma_us: f64,
    tuner_us: f64,
    replace_us: f64,
}

impl Maintenance {
    fn put(&self, metrics: &mut Metrics) {
        metrics.put("kde.karma_update_us", self.karma_us, "us");
        metrics.put("kde.tuner_observe_us", self.tuner_us, "us");
        metrics.put("kde.replace_point_us", self.replace_us, "us");
    }
}

/// Times `KarmaMaintenance::update`, `AdaptiveTuner::observe` and
/// `KdeEstimator::replace_point` as the adaptive model calls them: each
/// after the fused estimate+gradient sweep of the same query.
fn maintenance(trained: &Trained, backend: Backend, inputs: &Inputs) -> Maintenance {
    let mut twin = trained.twin(backend);
    let mut karma = KarmaMaintenance::new(&twin, KarmaConfig::default());
    let mut tuner = AdaptiveTuner::new(DIMS, AdaptiveConfig::default());
    let (mut karma_us, mut tuner_us, mut replace_us) = (
        Vec::with_capacity(REPS),
        Vec::with_capacity(REPS),
        Vec::with_capacity(REPS),
    );
    let size = twin.sample_size();
    let rows = inputs.table.row_count();
    for r in 0..REPS {
        let q = &inputs.pool[r % inputs.pool.len()];
        let (estimate, _) = twin.estimate_with_gradient(&q.region);
        let fb = feedback(q, estimate);
        karma_us.push(time_us(|| {
            black_box(karma.update(&twin, &fb));
        }));
        tuner_us.push(time_us(|| {
            black_box(tuner.observe(&mut twin, &fb));
        }));
        let row = inputs
            .table
            .row((r * 7919) % rows)
            .expect("generated tables have no deleted rows")
            .to_vec();
        let slot = (r * 104_729) % size;
        replace_us.push(time_us(|| twin.replace_point(slot, &row)));
    }
    Maintenance {
        karma_us: med(&karma_us),
        tuner_us: med(&tuner_us),
        replace_us: med(&replace_us),
    }
}

/// Sweep and maintenance figures of the model as staged on `backend`, and
/// the `CpuSeq`-over-`CpuPar` time ratios of the same calls on twins.
/// Returns the backend's one-region launch time in µs.
pub fn kde_and_par(
    metrics: &mut Metrics,
    trained: &Trained,
    backend: Backend,
    inputs: &Inputs,
) -> f64 {
    let seq = (
        sweep(&mut trained.twin(Backend::CpuSeq), &inputs.pool),
        maintenance(trained, Backend::CpuSeq, inputs),
    );
    let par = (
        sweep(&mut trained.twin(Backend::CpuPar), &inputs.pool),
        maintenance(trained, Backend::CpuPar, inputs),
    );
    let own = if backend == Backend::CpuPar {
        &par
    } else {
        &seq
    };
    own.0.put(metrics);
    own.1.put(metrics);
    metrics.put(
        "par.speedup_estimate",
        seq.0.estimate_us / par.0.estimate_us,
        "ratio",
    );
    metrics.put(
        "par.speedup_batch32",
        seq.0.batch32_us / par.0.batch32_us,
        "ratio",
    );
    metrics.put(
        "par.speedup_karma",
        seq.1.karma_us / par.1.karma_us,
        "ratio",
    );
    own.0.launch1_us
}

/// `kdesel_math::erf` per call, median of several blocks.
pub fn erf(metrics: &mut Metrics) {
    const CALLS: usize = 1 << 18;
    let mut blocks = Vec::new();
    for block in 0..7 {
        let start = Instant::now();
        let mut acc = 0.0;
        for i in 0..CALLS {
            let x = -4.0 + 8.0 * ((i * 7 + block) % CALLS) as f64 / CALLS as f64;
            acc += kdesel_math::erf(black_box(x));
        }
        black_box(acc);
        blocks.push(start.elapsed().as_secs_f64() * 1e9 / CALLS as f64);
    }
    metrics.put("math.erf_ns", med(&blocks), "ns");
}

/// Device counter deltas over `ops` measured operations.
pub fn device_per_op(metrics: &mut Metrics, delta: &DeviceStats, ops: f64) {
    let ops = ops.max(1.0);
    metrics.put("device.kernels_per_op", delta.kernels as f64 / ops, "count");
    metrics.put("device.uploads_per_op", delta.uploads as f64 / ops, "count");
    metrics.put("device.bytes_up_per_op", delta.bytes_up as f64 / ops, "B");
    metrics.put(
        "device.bytes_down_per_op",
        delta.bytes_down as f64 / ops,
        "B",
    );
    let acquisitions = (delta.pool_hits + delta.pool_misses).max(1);
    metrics.put(
        "device.pool_hit_ratio",
        delta.pool_hits as f64 / acquisitions as f64,
        "ratio",
    );
}

pub fn solver(metrics: &mut Metrics, setup: &SetupStats) {
    let first = setup.first();
    metrics.put("solver.batch_opt_s", setup.batch_opt_s(), "s");
    metrics.put("solver.setup_launches", first.launches as f64, "count");
    metrics.put("solver.training_loss", first.training_loss, "loss");
}
