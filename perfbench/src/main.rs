//! Wall-clock benchmark of kdesel, end to end and layer by layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Inputs come from the seed and are generated before set-up is timed.
//! With `--trace 0` the run prints the end-to-end metrics; with
//! `--trace 1` it runs the workload untraced and then traced, and prints
//! the per-layer metrics (spans go to `perfbench/out/`). The last line of
//! standard output is one JSON object; the exit code is non-zero when an
//! operation failed or an output check did not hold. See `README.md`.

mod cli;
mod inputs;
mod listing1;
mod probes;
mod report;
mod serve;
mod setup;
mod trace;

use cli::Args;
use inputs::Inputs;
use report::{Metrics, Outcome};
use std::collections::BTreeSet;
use std::process::ExitCode;
use trace::Tracer;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ServeEpan8k,
    Listing1Gauss4k,
    ServeAdaptGauss4k,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::ServeEpan8k,
        Workload::Listing1Gauss4k,
        Workload::ServeAdaptGauss4k,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeEpan8k => "serve-epan-8k",
            Workload::Listing1Gauss4k => "listing1-gauss-4k",
            Workload::ServeAdaptGauss4k => "serve-adapt-gauss-4k",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What a workload hands back: its metrics, operation counts and checks,
/// and the spans of its traced pass (empty when untraced).
pub struct Run {
    pub metrics: Metrics,
    pub outcome: Outcome,
    pub tracer: Tracer,
}

/// Every metric of an untraced run, `peak_rss_mb` included.
const END_TO_END: [&str; 7] = [
    "setup_s",
    "est_p50_us",
    "query_p50_us",
    "throughput_qps",
    "abs_err_mean",
    "qerror_p95",
    "peak_rss_mb",
];

/// Every metric of a traced run.
const PER_LAYER: [&str; 35] = [
    "serve.overhead_p50_us",
    "serve.batch_mean_sync",
    "serve.batch_mean_sat",
    "serve.maintenance_applied",
    "serve.flush_ms",
    "serve.est_p99_us",
    "kde.estimate_us",
    "kde.estimate_batch32_us",
    "kde.estimate_with_gradient_us",
    "kde.karma_update_us",
    "kde.tuner_observe_us",
    "kde.replace_point_us",
    "kde.rmsprop_updates",
    "kde.replacements",
    "math.erf_ns",
    "par.speedup_estimate",
    "par.speedup_batch32",
    "par.speedup_karma",
    "device.kernels_per_op",
    "device.uploads_per_op",
    "device.bytes_up_per_op",
    "device.bytes_down_per_op",
    "device.pool_hit_ratio",
    "storage.count_in_us",
    "storage.insert_us",
    "sample.reservoir_replacements",
    "engine.handle_feedback_us",
    "engine.handle_insert_us",
    "solver.batch_opt_s",
    "solver.setup_launches",
    "solver.training_loss",
    "telemetry.overhead_pct",
    "trace.coverage",
    "trace.step_self_us",
    "trace.query_p99_us",
];

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let started = std::time::Instant::now();
    let stream_rows = match args.workload {
        Workload::Listing1Gauss4k => listing1::stream_rows(args.seconds),
        _ => 0,
    };
    let inputs = Inputs::generate(args.seed, stream_rows);
    eprintln!(
        "{} seed {}: inputs ready in {:.2}s",
        args.workload.name(),
        args.seed,
        started.elapsed().as_secs_f64()
    );
    let Run {
        mut metrics,
        mut outcome,
        tracer,
    } = match args.workload {
        Workload::ServeEpan8k => serve::run(inputs, &args, serve::EPAN_8K),
        Workload::Listing1Gauss4k => listing1::run(inputs, &args),
        Workload::ServeAdaptGauss4k => serve::run(inputs, &args, serve::ADAPT_GAUSS_4K),
    };
    let expected: &[&str] = if args.trace {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!(
                "trace-{}-{}.jsonl",
                args.workload.name(),
                args.seed
            ));
        let written = tracer.write_jsonl(&path);
        outcome.check(written.is_ok(), || format!("writing spans: {written:?}"));
        eprintln!(
            "{} spans written to {}",
            tracer.spans().len(),
            path.display()
        );
        &PER_LAYER
    } else {
        match report::peak_rss_mb() {
            Ok(mb) => metrics.put("peak_rss_mb", mb, "MB"),
            Err(e) => outcome.check(false, || e),
        }
        &END_TO_END
    };
    let produced: BTreeSet<&str> = metrics.names().collect();
    let wanted: BTreeSet<&str> = expected.iter().copied().collect();
    outcome.check(produced == wanted, || {
        format!(
            "metric set mismatch: missing {:?}, unexpected {:?}",
            wanted.difference(&produced).collect::<Vec<_>>(),
            produced.difference(&wanted).collect::<Vec<_>>()
        )
    });
    let non_finite = metrics.non_finite();
    outcome.check(non_finite.is_empty(), || {
        format!("non-finite metrics: {non_finite:?}")
    });
    for problem in outcome.problems() {
        eprintln!("FAILED: {problem}");
    }
    print!("{}", metrics.table());
    println!("{}", metrics.result_line(&outcome));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
