//! Order statistics, per-transaction normalisation and the result line.
//!
//! Everything here is pure: the benchmark's own self-tests pin the
//! arithmetic down against known vectors.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Nearest-rank percentile of `sorted` (ascending), `q` in `[0, 1]`:
/// the smallest sample with at least `q` of the samples at or below it.
/// `0.0` for an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `samples` ascending in place and returns them (NaN-free input).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("latency samples are never NaN"));
    samples
}

/// Median of `samples` (the mean of the two middle values for an even
/// count); `0.0` when empty.
pub fn median(samples: &[f64]) -> f64 {
    let s = sorted(samples.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Arithmetic mean; `0.0` when empty.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `total` spread over `txs` committed transactions; `0.0` when nothing
/// committed (a layer that did no work reads as zero, never as NaN).
pub fn per_tx(total: f64, txs: u64) -> f64 {
    if txs == 0 {
        0.0
    } else {
        total / txs as f64
    }
}

/// Whether `name` is a valid metric or workload name: starts with an
/// ASCII letter or digit, at most 64 characters of letters, digits,
/// `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: 1–16 characters of letters, digits,
/// `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Named metrics of one run, in insertion order.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Records `name` = `value` in `unit`.
    ///
    /// # Panics
    ///
    /// Panics on an invalid or repeated name, an invalid unit or a
    /// non-finite value: those are benchmark bugs, never run outcomes.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(valid_name(name), "invalid metric name {name:?}");
        assert!(valid_unit(unit), "invalid unit {unit:?} for {name}");
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(self.get(name).is_none(), "metric {name} recorded twice");
        self.entries.push((name.to_string(), value, unit));
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|(n, ..)| n == name)
            .map(|(_, v, _)| *v)
    }

    /// Metric names in insertion order.
    pub fn names(&self) -> Vec<&str> {
        self.entries.iter().map(|(n, ..)| n.as_str()).collect()
    }

    /// `(name, value, unit)` in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64, &'static str)> {
        self.entries.iter().map(|(n, v, u)| (n.as_str(), *v, *u))
    }
}

/// The run's final line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        );
    }
    out.push_str("}}");
    out
}

/// A finite `f64` as a JSON number with all its digits (Rust's shortest
/// round-trip form; integers keep a `.0`-free spelling).
pub fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "JSON has no spelling for {v}");
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Escapes `s` as a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A flat JSON object of string fields, in key order.
pub fn json_object(fields: &BTreeMap<String, String>) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {}", json_string(k), json_string(v)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.5], 0.99), 7.5);
        assert_eq!(percentile(&[], 0.5), 0.0);
        // Ten samples: p99 is the largest, p50 the fifth.
        let v = sorted(vec![9.0, 1.0, 8.0, 2.0, 7.0, 3.0, 6.0, 4.0, 5.0, 10.0]);
        assert_eq!(percentile(&v, 0.99), 10.0);
        assert_eq!(percentile(&v, 0.5), 5.0);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn per_tx_normalises_and_guards_zero() {
        assert_eq!(per_tx(1800.0, 100), 18.0);
        assert_eq!(per_tx(5.0, 0), 0.0);
        assert_eq!(per_tx(0.0, 10), 0.0);
    }

    #[test]
    fn metric_names_and_units() {
        for ok in ["tps", "tx_p50_us", "core.handle_us.start", "9lives", "a-b"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "has space", "ü", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
        for ok in ["ms", "us", "1/s", "%", "count", "bytes/tx"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "micro seconds", &"u".repeat(17)] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    #[should_panic(expected = "recorded twice")]
    fn metric_names_are_unique() {
        let mut m = Metrics::default();
        m.put("tps", 1.0, "1/s");
        m.put("tps", 2.0, "1/s");
    }

    #[test]
    fn result_line_shape() {
        let mut m = Metrics::default();
        m.put("latency_ms", 1.2034, "ms");
        m.put("setup_s", 2.0, "s");
        assert_eq!(
            result_json(true, 1000, 0, &m),
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 2, \"unit\": \"s\"}}}"
        );
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
