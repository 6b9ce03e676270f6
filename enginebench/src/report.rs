//! Metric records and their text and JSON renderings.

use crate::{BenchResult, Options};
use std::fmt::Write as _;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// How the value was formed (sample count, base of a ratio).
    pub basis: String,
}

impl Metric {
    /// A metric; a non-finite value (an empty ratio) reads 0.
    pub fn new(
        name: &'static str,
        value: f64,
        unit: &'static str,
        basis: impl Into<String>,
    ) -> Metric {
        Metric {
            name,
            value: if value.is_finite() { value } else { 0.0 },
            unit,
            basis: basis.into(),
        }
    }
}

/// The human-readable report: one line per metric, then the checks.
pub fn render_text(opts: &Options, result: &BenchResult) -> String {
    let mut s = String::new();
    let mode = if opts.trace { "traced" } else { "untraced" };
    let _ = writeln!(
        s,
        "# {} seed={} seconds={} ({mode}, closed loop, 1 client)",
        opts.workload.name(),
        opts.seed,
        opts.seconds
    );
    for m in &result.metrics {
        let _ = writeln!(
            s,
            "{:<34} {:>16.6} {:<6} {}",
            m.name, m.value, m.unit, m.basis
        );
    }
    let c = &result.checks;
    let _ = writeln!(
        s,
        "{:<34} {:>16.6} {:<6} {} of {} runs failed their output check",
        "failed_frac",
        crate::stats::ratio(c.failed as f64, c.attempted as f64),
        "frac",
        c.failed,
        c.attempted
    );
    for msg in &c.messages {
        let _ = writeln!(s, "check failed: {msg}");
    }
    s
}

/// The one-line JSON result.
pub fn render_json(result: &BenchResult) -> String {
    let c = &result.checks;
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        c.failed == 0,
        c.attempted.max(1),
        c.failed
    );
    for (i, m) in result.metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Checks;

    #[test]
    fn json_line_parses_with_every_metric() {
        let result = BenchResult {
            checks: Checks {
                attempted: 3,
                failed: 0,
                messages: Vec::new(),
            },
            metrics: vec![
                Metric::new("latency_ms", 1.25, "ms", "n=3"),
                Metric::new("ratio", f64::NAN, "frac", "empty"),
            ],
        };
        let json = dim_obs::parse_json(&render_json(&result)).expect("valid JSON");
        assert_eq!(json.get("correct").and_then(|v| v.as_bool()), Some(true));
        let metrics = json.get("metrics").expect("metrics");
        assert_eq!(
            metrics
                .get("latency_ms")
                .and_then(|m| m.get("value"))
                .and_then(|v| v.as_f64()),
            Some(1.25)
        );
        assert_eq!(
            metrics
                .get("ratio")
                .and_then(|m| m.get("value"))
                .and_then(|v| v.as_f64()),
            Some(0.0)
        );
    }
}
