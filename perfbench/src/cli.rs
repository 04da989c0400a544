//! Command-line arguments: `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.

use crate::Workload;

/// Parsed and checked arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    /// Measurement budget; every operation count scales with it.
    pub seconds: u32,
    /// Run the traced pass and report per-layer metrics instead of the
    /// end-to-end ones.
    pub trace: bool,
}

const USAGE: &str =
    "usage: kdesel-perfbench --workload <serve-epan-8k|listing1-gauss-4k|serve-adapt-gauss-4k> \
--seed <u64> --seconds <1..=600> --trace <0|1>";

impl Args {
    pub fn parse(mut args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = false;
        while let Some(flag) = args.next() {
            let value = args
                .next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::from_name(&value)
                            .ok_or_else(|| format!("unknown workload {value:?}\n{USAGE}"))?,
                    )
                }
                "--seed" => {
                    seed = Some(
                        value
                            .parse::<u64>()
                            .map_err(|e| format!("--seed {value:?}: {e}"))?,
                    )
                }
                "--seconds" => {
                    let s = value
                        .parse::<u32>()
                        .map_err(|e| format!("--seconds {value:?}: {e}"))?;
                    if !(1..=600).contains(&s) {
                        return Err(format!("--seconds {s} outside 1..=600"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                    }
                }
                _ => return Err(format!("unknown flag {flag:?}\n{USAGE}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or_else(|| format!("--workload is required\n{USAGE}"))?,
            seed: seed.ok_or_else(|| format!("--seed is required\n{USAGE}"))?,
            seconds: seconds.ok_or_else(|| format!("--seconds is required\n{USAGE}"))?,
            trace,
        })
    }
}
