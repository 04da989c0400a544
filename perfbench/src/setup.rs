//! Timed set-up: from generated inputs to a ready model.
//!
//! Every repetition starts from the same inputs and an identically seeded
//! rng, so all repetitions do the same work and build bitwise-identical
//! models; `setup_s` is their median. The bandwidth optimizer always runs
//! on `CpuSeq` with a fixed, small iteration budget, so the solver does
//! about the same number of launches for every seed.

use crate::inputs::{self, Inputs, DIMS};
use crate::report::{median, Outcome};
use kdesel_device::{Backend, Device};
use kdesel_kde::{BatchConfig, BatchKde, KdeEstimator, KernelFn};
use kdesel_storage::sampling;
use std::time::Instant;

pub const REPS: usize = 3;

/// What a repetition's model is built from, kept to build twins later.
#[derive(Debug, Clone)]
pub struct Trained {
    pub kernel: KernelFn,
    pub sample: Vec<f64>,
    pub bandwidth: Vec<f64>,
    pub training_loss: f64,
    /// Wall time of `BatchKde::new`.
    pub opt_seconds: f64,
    /// Kernels the optimizer launched.
    pub launches: u64,
}

impl Trained {
    /// A model identical to the trained one, staged on `backend`.
    pub fn twin(&self, backend: Backend) -> KdeEstimator {
        let mut model = KdeEstimator::new(Device::new(backend), &self.sample, DIMS, self.kernel);
        model.set_bandwidth(self.bandwidth.clone());
        model
    }
}

fn batch_config() -> BatchConfig {
    let mut config = BatchConfig::default();
    config.multistart.rounds = 1;
    config.multistart.samples_per_round = 4;
    config.multistart.local.max_iterations = 8;
    config.multistart.local.gradient_tolerance = 0.0;
    config.multistart.local.value_tolerance = 0.0;
    config
}

/// Samples `points` rows and optimizes the bandwidth over the training
/// set on `CpuSeq`. Returns the optimized model and its provenance.
pub fn train(
    inputs: &Inputs,
    seed: u64,
    kernel: KernelFn,
    points: usize,
) -> (KdeEstimator, Trained) {
    let mut rng = inputs::rng(seed, 3);
    let sample = sampling::sample_rows(&inputs.table, points, &mut rng);
    let start = Instant::now();
    let batch = BatchKde::new(
        Device::new(Backend::CpuSeq),
        &sample,
        DIMS,
        kernel,
        &inputs.training,
        &batch_config(),
        &mut rng,
    );
    let opt_seconds = start.elapsed().as_secs_f64();
    let trained = Trained {
        kernel,
        bandwidth: batch.model().bandwidth().to_vec(),
        training_loss: batch.training_loss(),
        opt_seconds,
        launches: batch.model().device().stats().kernels,
        sample,
    };
    (batch.into_model(), trained)
}

/// Set-up times and solver figures over all repetitions.
#[derive(Debug)]
pub struct SetupStats {
    seconds: Vec<f64>,
    trained: Vec<Trained>,
}

impl SetupStats {
    /// Runs `build` [`REPS`] times, timing each call. `build` returns the
    /// ready artefact and its [`Trained`] record; all artefacts are kept
    /// (the caller decides which to use and when to drop the rest).
    pub fn run<T>(mut build: impl FnMut() -> (T, Trained)) -> (Vec<T>, Self) {
        let mut built = Vec::with_capacity(REPS);
        let mut stats = SetupStats {
            seconds: Vec::with_capacity(REPS),
            trained: Vec::with_capacity(REPS),
        };
        for _ in 0..REPS {
            let start = Instant::now();
            let (artefact, trained) = build();
            stats.seconds.push(start.elapsed().as_secs_f64());
            built.push(artefact);
            stats.trained.push(trained);
        }
        (built, stats)
    }

    pub fn setup_s(&self) -> f64 {
        median(&self.seconds).expect("REPS > 0")
    }

    pub fn first(&self) -> &Trained {
        &self.trained[0]
    }

    pub fn batch_opt_s(&self) -> f64 {
        let v: Vec<f64> = self.trained.iter().map(|t| t.opt_seconds).collect();
        median(&v).expect("REPS > 0")
    }

    /// Checks that the training loss is finite and that every repetition
    /// built the same model.
    pub fn check(&self, outcome: &mut Outcome) {
        let first = self.first();
        outcome.check(first.training_loss.is_finite(), || {
            format!(
                "BatchKde training loss {} is not finite",
                first.training_loss
            )
        });
        for (i, t) in self.trained.iter().enumerate().skip(1) {
            let same = t.bandwidth.len() == first.bandwidth.len()
                && t.bandwidth
                    .iter()
                    .zip(&first.bandwidth)
                    .all(|(a, b)| a.to_bits() == b.to_bits())
                && t.sample == first.sample;
            outcome.check(same, || {
                format!(
                    "set-up repetition {i} built a different model: bandwidth {:?} vs {:?}",
                    t.bandwidth, first.bandwidth
                )
            });
        }
    }
}
