//! The two served workloads: one client thread drives a `kdesel-serve`
//! service through its public handle, first synchronously (one request
//! outstanding), then saturated (`OUTSTANDING` requests in flight through
//! `submit`/`wait`).
//!
//! * `serve-epan-8k` — a static Epanechnikov model on `CpuSeq`, no
//!   feedback: the serving layer's gather window and batching dominate.
//! * `serve-adapt-gauss-4k` — the self-tuning Gaussian model with a
//!   tuple-refresh source; every estimate is followed by feedback
//!   carrying the query's exact label, and the saturated window closes
//!   after `flush`, so maintenance is inside the measured work.

use crate::cli::Args;
use crate::inputs::{self, Inputs};
use crate::probes;
use crate::report::{median, micros, quantile, Metrics, Outcome, Quality};
use crate::setup::{self, SetupStats, Trained};
use crate::trace::{Tracer, NONE};
use crate::Run;
use kdesel_device::{Backend, DeviceStats};
use kdesel_kde::{AdaptiveConfig, AdaptiveKde, KarmaConfig, KernelFn};
use kdesel_serve::{ModelKey, ServeConfig, ServeHandle, ServedModel, Service, WorkerReport};
use kdesel_storage::sampling;
use kdesel_types::{LabelledQuery, QueryFeedback};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

const OUTSTANDING: usize = 64;
/// Served estimates compared bitwise with a twin's direct launch.
const BITWISE_CHECKED: usize = 64;

#[derive(Debug, Clone, Copy)]
pub struct Shape {
    kernel: KernelFn,
    points: usize,
    backend: Backend,
    adaptive: bool,
    warm_sync: usize,
    warm_sat: usize,
    sync_per_second: usize,
    sat_per_second: usize,
}

pub const EPAN_8K: Shape = Shape {
    kernel: KernelFn::Epanechnikov,
    points: 8192,
    backend: Backend::CpuSeq,
    adaptive: false,
    warm_sync: 200,
    warm_sat: 640,
    sync_per_second: 1200,
    sat_per_second: 5000,
};

/// On `CpuSeq`: on `CpuPar` every 4096-point launch fans out to both
/// vCPUs, so host steal on either one stalls it, and the end-to-end
/// figures spread 60–90% across runs (see README.md).
pub const ADAPT_GAUSS_4K: Shape = Shape {
    kernel: KernelFn::Gaussian,
    points: 4096,
    backend: Backend::CpuSeq,
    adaptive: true,
    warm_sync: 32,
    warm_sat: 128,
    sync_per_second: 150,
    sat_per_second: 180,
};

fn key() -> ModelKey {
    ModelKey::new("forest", &["elevation", "hydro", "road", "fire"])
}

fn build(inputs: &Inputs, args: &Args, shape: Shape) -> (Service, Trained) {
    let (model, trained) = setup::train(inputs, args.seed, shape.kernel, shape.points);
    let served = if shape.adaptive {
        // Restage the optimized model on the serving backend.
        let kde = AdaptiveKde::from_estimator(
            trained.twin(shape.backend),
            AdaptiveConfig::default(),
            KarmaConfig::default(),
        );
        let table = Arc::new(inputs.table.clone());
        let mut rng = inputs::rng(args.seed, 5);
        ServedModel::adaptive_with_refresh(
            kde,
            Box::new(move |_slot| sampling::sample_one(&table, &mut rng)),
        )
    } else {
        ServedModel::fixed(model)
    };
    let service = Service::builder(ServeConfig::default())
        .register(key(), served)
        .build()
        .expect("a single model with the default config always builds");
    (service, trained)
}

/// What one measured pass observed.
#[derive(Default)]
struct Pass {
    est_us: Vec<f64>,
    query_us: Vec<f64>,
    sat_requests: usize,
    sat_seconds: f64,
    flush_ms: f64,
    quality: Quality,
    /// `(pool index, served estimate)` of the first synchronous requests.
    served: Vec<(usize, f64)>,
    sync_report: (u64, u64),
    sat_report: (u64, u64),
    sat_device: DeviceStats,
    maintenance_applied: u64,
    replacements: u64,
}

struct Client<'a> {
    handle: ServeHandle,
    key: ModelKey,
    pool: &'a [LabelledQuery],
    rows: usize,
    feedback: bool,
}

impl Client<'_> {
    fn report(&self, outcome: &mut Outcome) -> Option<WorkerReport> {
        outcome.op(self.handle.report(&self.key))
    }

    fn send_feedback(
        &self,
        index: usize,
        estimate: f64,
        outcome: &mut Outcome,
        tracer: &mut Tracer,
        root: usize,
    ) {
        if !self.feedback {
            return;
        }
        let q = &self.pool[index % self.pool.len()];
        let fb = QueryFeedback {
            region: q.region.clone(),
            estimate,
            actual: q.selectivity,
            cardinality: (q.selectivity * self.rows as f64).round() as u64,
        };
        let sent = tracer.span("serve.feedback", index as u64, root, || {
            self.handle.feedback(&self.key, fb)
        });
        outcome.op(sent);
    }

    /// One request outstanding; ops `first..first + n` of the pool cycle.
    fn sync(
        &self,
        first: usize,
        n: usize,
        mut pass: Option<&mut Pass>,
        outcome: &mut Outcome,
        tracer: &mut Tracer,
    ) {
        for i in first..first + n {
            let q = &self.pool[i % self.pool.len()];
            let root = tracer.begin("client.sync_step", i as u64, NONE);
            let t0 = Instant::now();
            let pending = tracer.span("serve.submit", i as u64, root, || {
                self.handle.submit(&self.key, &q.region)
            });
            let result = match pending {
                Ok(p) => tracer.span("serve.wait", i as u64, root, || p.wait()),
                Err(e) => Err(e),
            };
            let t1 = Instant::now();
            let estimate = outcome.estimate(result);
            if let Some(e) = estimate {
                self.send_feedback(i, e, outcome, tracer, root);
            }
            let t2 = Instant::now();
            tracer.end(root);
            if let (Some(p), Some(e)) = (pass.as_deref_mut(), estimate) {
                p.est_us.push(micros(t1 - t0));
                p.query_us.push(micros(t2 - t0));
                p.quality.record(e, q.selectivity, self.rows);
                if p.served.len() < BITWISE_CHECKED {
                    p.served.push((i % self.pool.len(), e));
                }
            }
        }
    }

    /// `OUTSTANDING` requests in flight; returns the window's seconds,
    /// closed after `flush` when feedback is on.
    fn saturated(
        &self,
        first: usize,
        n: usize,
        mut quality: Option<&mut Quality>,
        outcome: &mut Outcome,
        tracer: &mut Tracer,
    ) -> (f64, f64) {
        let mut inflight = VecDeque::with_capacity(OUTSTANDING);
        let start = Instant::now();
        let mut next = first;
        let end = first + n;
        loop {
            while next < end && inflight.len() < OUTSTANDING {
                let q = &self.pool[next % self.pool.len()];
                let root = tracer.begin("client.sat_request", next as u64, NONE);
                let submitted = tracer.span("serve.submit", next as u64, root, || {
                    self.handle.submit(&self.key, &q.region)
                });
                match submitted {
                    Ok(p) => inflight.push_back((next, p, root)),
                    Err(e) => {
                        outcome.estimate(Err(e));
                        tracer.end(root);
                    }
                }
                next += 1;
            }
            let Some((i, pending, root)) = inflight.pop_front() else {
                break;
            };
            let result = tracer.span("serve.wait", i as u64, root, || pending.wait());
            tracer.end(root);
            if let Some(e) = outcome.estimate(result) {
                self.send_feedback(i, e, outcome, tracer, root);
                let q = &self.pool[i % self.pool.len()];
                if let Some(quality) = quality.as_deref_mut() {
                    quality.record(e, q.selectivity, self.rows);
                }
            }
        }
        let mut flush_ms = 0.0;
        if self.feedback {
            let t = Instant::now();
            let flushed = tracer.span("serve.flush", end as u64, NONE, || {
                self.handle.flush(&self.key)
            });
            flush_ms = t.elapsed().as_secs_f64() * 1e3;
            outcome.op(flushed);
        }
        (start.elapsed().as_secs_f64(), flush_ms)
    }

    /// Warm-up, then the measured synchronous and saturated phases.
    fn pass(&self, shape: Shape, seconds: u32, outcome: &mut Outcome, tracer: &mut Tracer) -> Pass {
        let (n_sync, n_sat) = (
            shape.sync_per_second * seconds as usize,
            shape.sat_per_second * seconds as usize,
        );
        let mut off = Tracer::new(false);
        self.sync(0, shape.warm_sync, None, outcome, &mut off);
        self.saturated(shape.warm_sync, shape.warm_sat, None, outcome, &mut off);
        let mut pass = Pass::default();
        let first = shape.warm_sync + shape.warm_sat;
        let r0 = self.report(outcome);
        self.sync(first, n_sync, Some(&mut pass), outcome, tracer);
        let r1 = self.report(outcome);
        let (secs, flush_ms) = self.saturated(
            first + n_sync,
            n_sat,
            Some(&mut pass.quality),
            outcome,
            tracer,
        );
        let r2 = self.report(outcome);
        pass.sat_requests = n_sat;
        pass.sat_seconds = secs;
        pass.flush_ms = flush_ms;
        if let (Some(r0), Some(r1), Some(r2)) = (r0, r1, r2) {
            pass.sync_report = (r1.requests - r0.requests, r1.batches - r0.batches);
            pass.sat_report = (r2.requests - r1.requests, r2.batches - r1.batches);
            pass.sat_device = r2.device.since(&r1.device);
            pass.maintenance_applied = r2.maintenance_applied - r0.maintenance_applied;
            pass.replacements = r2.replacements - r0.replacements;
        }
        pass
    }
}

pub fn run(inputs: Inputs, args: &Args, shape: Shape) -> Run {
    let mut outcome = Outcome::default();
    let (mut services, setup) = SetupStats::run(|| build(&inputs, args, shape));
    setup.check(&mut outcome);
    // Serve from the last repetition; the others stop before measuring.
    let service = services.pop().expect("REPS > 0");
    for other in services {
        outcome.op(other.shutdown());
    }
    let client = Client {
        handle: service.handle(),
        key: key(),
        pool: &inputs.pool,
        rows: inputs.table.row_count(),
        feedback: shape.adaptive,
    };
    let mut tracer = Tracer::new(false);
    let pass = client.pass(shape, args.seconds, &mut outcome, &mut tracer);
    let mut traced = None;
    if args.trace {
        tracer = Tracer::new(true);
        traced = Some(client.pass(shape, args.seconds, &mut outcome, &mut tracer));
    }
    drop(client);
    outcome.op(service.shutdown());

    if !shape.adaptive {
        check_bitwise(&pass, &setup, &inputs, &mut outcome);
    }

    let mut metrics = Metrics::default();
    match traced {
        None => {
            metrics.put("setup_s", setup.setup_s(), "s");
            metrics.put("est_p50_us", median_or_nan(&pass.est_us), "us");
            metrics.put("query_p50_us", median_or_nan(&pass.query_us), "us");
            metrics.put(
                "throughput_qps",
                pass.sat_requests as f64 / pass.sat_seconds,
                "1/s",
            );
            metrics.put("abs_err_mean", pass.quality.abs_err_mean(), "fraction");
            metrics.put("qerror_p95", pass.quality.qerror_p95(), "ratio");
        }
        Some(traced) => {
            per_layer(
                &mut metrics,
                &pass,
                &traced,
                &tracer,
                &setup,
                &inputs,
                shape,
            );
        }
    }
    Run {
        metrics,
        outcome,
        tracer,
    }
}

fn median_or_nan(v: &[f64]) -> f64 {
    median(v).unwrap_or(f64::NAN)
}

/// Served estimates of a static model must equal a twin's direct
/// `estimate_batch` bit for bit.
fn check_bitwise(pass: &Pass, setup: &SetupStats, inputs: &Inputs, outcome: &mut Outcome) {
    let twin = setup.first().twin(Backend::CpuSeq);
    let regions: Vec<_> = pass
        .served
        .iter()
        .map(|(i, _)| inputs.pool[*i].region.clone())
        .collect();
    let direct = twin.estimate_batch(&regions);
    outcome.check(pass.served.len() == BITWISE_CHECKED, || {
        format!(
            "only {} of {BITWISE_CHECKED} bitwise-checked estimates were served",
            pass.served.len()
        )
    });
    for ((i, served), direct) in pass.served.iter().zip(direct) {
        outcome.check(served.to_bits() == direct.to_bits(), || {
            format!(
                "pool query {i}: served estimate {served:e} != direct estimate_batch {direct:e}"
            )
        });
    }
}

fn per_layer(
    metrics: &mut Metrics,
    pass: &Pass,
    traced: &Pass,
    tracer: &Tracer,
    setup: &SetupStats,
    inputs: &Inputs,
    shape: Shape,
) {
    let trained = setup.first();
    let launch1_us = probes::kde_and_par(metrics, trained, shape.backend, inputs);
    let est_p50 = median_or_nan(&pass.est_us);
    let query_p50 = median_or_nan(&pass.query_us);
    metrics.put("serve.overhead_p50_us", est_p50 - launch1_us, "us");
    metrics.put(
        "serve.batch_mean_sync",
        pass.sync_report.0 as f64 / pass.sync_report.1.max(1) as f64,
        "count",
    );
    metrics.put(
        "serve.batch_mean_sat",
        pass.sat_report.0 as f64 / pass.sat_report.1.max(1) as f64,
        "count",
    );
    metrics.put(
        "serve.maintenance_applied",
        pass.maintenance_applied as f64,
        "count",
    );
    metrics.put("serve.flush_ms", pass.flush_ms, "ms");
    metrics.put(
        "serve.est_p99_us",
        quantile(&pass.est_us, 0.99).unwrap_or(f64::NAN),
        "us",
    );
    let mini_batch = AdaptiveConfig::default().mini_batch as u64;
    metrics.put(
        "kde.rmsprop_updates",
        (pass.maintenance_applied / mini_batch) as f64,
        "count",
    );
    metrics.put("kde.replacements", pass.replacements as f64, "count");
    probes::erf(metrics);
    probes::device_per_op(metrics, &pass.sat_device, pass.sat_requests as f64);
    for name in [
        "storage.count_in_us",
        "storage.insert_us",
        "sample.reservoir_replacements",
        "engine.handle_feedback_us",
        "engine.handle_insert_us",
    ] {
        // The served workloads never execute queries or insert rows.
        metrics.put(
            name,
            0.0,
            if name.ends_with("_us") { "us" } else { "count" },
        );
    }
    probes::solver(metrics, setup);
    let traced_p50 = median_or_nan(&traced.query_us);
    metrics.put(
        "telemetry.overhead_pct",
        (traced_p50 - query_p50) / query_p50 * 100.0,
        "%",
    );
    let first = (shape.warm_sync + shape.warm_sat) as u64;
    let stages: f64 = ["serve.submit", "serve.wait", "serve.feedback"]
        .iter()
        .map(|s| median(&tracer.stage_per_op("client.sync_step", s, first)).unwrap_or(0.0))
        .sum();
    let steps = tracer.durations("client.sync_step", first);
    metrics.put("trace.coverage", stages / median_or_nan(&steps), "ratio");
    metrics.put(
        "trace.step_self_us",
        median_or_nan(&tracer.self_times("client.sync_step", first)),
        "us",
    );
    metrics.put(
        "trace.query_p99_us",
        quantile(&pass.query_us, 0.99).unwrap_or(f64::NAN),
        "us",
    );
}
