//! Order statistics, estimate quality, failure accounting, peak memory and
//! the result line.

use std::fmt::Write as _;
use std::time::Duration;

/// The `q`-quantile (0 ≤ q ≤ 1) of `values` by linear interpolation
/// between closest ranks; `None` when empty.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

pub fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Estimate quality against exact selectivities: the paper's mean
/// absolute error and the q-error with both sides floored at one row.
#[derive(Debug, Default, Clone)]
pub struct Quality {
    abs_errors: Vec<f64>,
    qerrors: Vec<f64>,
}

impl Quality {
    pub fn record(&mut self, estimate: f64, actual: f64, rows: usize) {
        let floor = 1.0 / rows as f64;
        let (e, a) = (estimate.max(floor), actual.max(floor));
        self.abs_errors.push((estimate - actual).abs());
        self.qerrors.push((e / a).max(a / e));
    }

    pub fn abs_err_mean(&self) -> f64 {
        self.abs_errors.iter().sum::<f64>() / self.abs_errors.len().max(1) as f64
    }

    pub fn qerror_p95(&self) -> f64 {
        quantile(&self.qerrors, 0.95).unwrap_or(f64::NAN)
    }
}

/// Attempted/failed operation counts plus the named output checks.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed checks, each with what was expected and what was seen.
    check_failures: Vec<String>,
    first_failure: Option<String>,
}

impl Outcome {
    /// Counts one operation; an error counts as failed.
    pub fn op<T, E: std::fmt::Display>(&mut self, result: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        result.map_err(|err| self.fail(err.to_string())).ok()
    }

    /// Counts one estimate; an error or a value that is non-finite or
    /// outside `[0, 1]` counts as failed. Returns the estimate when valid.
    pub fn estimate<E: std::fmt::Display>(&mut self, result: Result<f64, E>) -> Option<f64> {
        let e = self.op(result)?;
        if e.is_finite() && (0.0..=1.0).contains(&e) {
            Some(e)
        } else {
            self.fail(format!("estimate {e} is not a selectivity"));
            None
        }
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        self.first_failure.get_or_insert(what);
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.check_failures.is_empty()
    }

    pub fn problems(&self) -> Vec<String> {
        let mut out = self.check_failures.clone();
        if let Some(first) = &self.first_failure {
            out.push(format!("{} failed operations, first: {first}", self.failed));
        }
        out
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Named metrics in report order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.0.iter().map(|(name, _, _)| name.as_str())
    }

    /// Human-readable table, one metric per line.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (name, value, unit) in &self.0 {
            let _ = writeln!(out, "{name:<34} {value:>16.4} {unit}");
        }
        out
    }

    /// Names of metrics whose value is not finite (JSON has no NaN).
    pub fn non_finite(&self) -> Vec<&str> {
        self.0
            .iter()
            .filter(|(_, v, _)| !v.is_finite())
            .map(|(n, _, _)| n.as_str())
            .collect()
    }

    /// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
    pub fn result_line(&self, outcome: &Outcome) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            outcome.correct(),
            outcome.attempted,
            outcome.failed
        );
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // Non-finite values never reach here: `non_finite` fails the
            // run first. Rust's `{}` float format is the shortest string
            // that round-trips, i.e. all measured digits.
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(4.0));
        assert_eq!(median(&v), Some(2.5));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn qerror_floors_empty_results_at_one_row() {
        let mut q = Quality::default();
        q.record(0.0, 0.0, 100);
        q.record(0.02, 0.01, 100);
        assert_eq!(q.qerrors, vec![1.0, 2.0]);
        assert!((q.abs_err_mean() - 0.005).abs() < 1e-15);
    }

    #[test]
    fn invalid_estimates_count_as_failures() {
        let mut o = Outcome::default();
        assert_eq!(o.estimate::<String>(Ok(0.5)), Some(0.5));
        assert_eq!(o.estimate::<String>(Ok(f64::NAN)), None);
        assert_eq!(o.estimate::<String>(Ok(1.5)), None);
        assert_eq!(o.estimate(Err("gone")), None);
        assert_eq!((o.attempted, o.failed), (4, 3));
        assert!(!o.correct());
    }

    #[test]
    fn result_line_is_one_json_object() {
        let mut m = Metrics::default();
        m.put("est_p50_us", 12.5, "us");
        let mut o = Outcome::default();
        o.op::<(), String>(Ok(()));
        assert_eq!(
            m.result_line(&o),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"est_p50_us\": {\"value\": 12.5, \"unit\": \"us\"}}}"
        );
    }
}
