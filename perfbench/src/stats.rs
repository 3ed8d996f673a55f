//! Sample statistics and the result document: the percentile rule, metric
//! names, and the JSON line the benchmark ends with.

use std::fmt::Write as _;

/// Fewest samples that must lie beyond a reported percentile.
pub const TAIL_SAMPLES: usize = 10;

/// A percentile as reported: the value, the percentile actually used and
/// how many samples it was taken from.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Reported {
    pub value: f64,
    /// The percentile the value was taken at, in percent.
    pub percentile: f64,
    pub samples: usize,
}

/// The `target` percentile of `samples` (linear interpolation between the
/// closest ranks), lowered until at least [`TAIL_SAMPLES`] samples lie
/// beyond it, but never below the median. `None` without samples.
pub fn percentile(samples: &[f64], target: f64) -> Option<Reported> {
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let last = (n - 1) as f64;
    let mut p = target / 100.0;
    if p > 0.5 {
        // Samples beyond position h = p·(n-1): n - 1 - ceil(h).
        let cap = if n > 1 {
            (last - TAIL_SAMPLES as f64) / last
        } else {
            0.5
        };
        p = p.min(cap).max(0.5);
    }
    let h = p * last;
    let (lo, hi) = (h.floor() as usize, h.ceil() as usize);
    Some(Reported {
        value: sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo]),
        percentile: 100.0 * p,
        samples: n,
    })
}

/// The median of `samples`; `None` without samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0).map(|r| r.value)
}

/// Arithmetic mean; `None` without samples.
pub fn mean(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| samples.iter().sum::<f64>() / samples.len() as f64)
}

/// Whether `name` is a valid metric name: starts with a letter or digit,
/// at most 64 letters, digits, `_`, `.` and `-`.
pub fn valid_metric_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: at most 16 letters, digits, `_`, `/`,
/// `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// One reported metric.
#[derive(Clone, PartialEq, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// How the value was taken, for the header (sample count, percentile).
    pub note: String,
}

/// The metrics of one run, in the order they were added.
#[derive(Default, Debug)]
pub struct Metrics {
    items: Vec<Metric>,
}

impl Metrics {
    /// Adds a plain value.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str, note: impl Into<String>) {
        assert!(valid_metric_name(name), "metric name {name:?}");
        assert!(valid_unit(unit), "unit {unit:?}");
        assert!(
            self.items.iter().all(|m| m.name != name),
            "metric {name} reported twice"
        );
        self.items.push(Metric {
            name: name.to_string(),
            value,
            unit,
            note: note.into(),
        });
    }

    /// Adds a timing percentile under the percentile rule; records
    /// `f64::NAN` (which fails the run) when there are no samples.
    pub fn put_percentile(&mut self, name: &str, samples: &[f64], target: f64) {
        match percentile(samples, target) {
            Some(r) => self.put(
                name,
                r.value,
                "ms",
                format!(
                    "n={}, reported p{} (target p{target})",
                    r.samples,
                    trim(r.percentile)
                ),
            ),
            None => self.put(name, f64::NAN, "ms", "n=0"),
        }
    }

    pub fn items(&self) -> &[Metric] {
        &self.items
    }
}

fn trim(p: f64) -> String {
    let s = format!("{p:.2}");
    s.trim_end_matches('0').trim_end_matches('.').to_string()
}

/// The final result line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.items().iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        // `{}` prints the shortest representation that round-trips, so the
        // value keeps every digit it was measured with.
        let value = if m.value.is_finite() {
            format!("{}", m.value)
        } else {
            "null".to_string()
        };
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        // 1000 samples: p99 sits at 990, with exactly 10 beyond.
        let r = percentile(&seq(1000), 99.0).unwrap();
        assert!(close(r.value, 990.0), "{r:?}");
        assert!((r.percentile - 99.0).abs() < 0.01);
        // 500 samples: p99 would leave 5 beyond; the rule lowers it to
        // 490 (about p98), leaving 10.
        let r = percentile(&seq(500), 99.0).unwrap();
        assert!(close(r.value, 490.0), "{r:?}");
        assert!((r.percentile - 98.0).abs() < 0.01);
        // 101 samples: p90 interpolates nothing and keeps 10 beyond.
        assert!(close(percentile(&seq(101), 90.0).unwrap().value, 91.0));
        // 50 samples: p90 falls back to 40 (about p80).
        let r = percentile(&seq(50), 90.0).unwrap();
        assert!(close(r.value, 40.0), "{r:?}");
    }

    #[test]
    fn tail_never_drops_below_the_median() {
        let r = percentile(&seq(16), 90.0).unwrap();
        assert!(close(r.value, 8.5), "{r:?}");
        assert_eq!(r.percentile, 50.0);
        assert!(close(percentile(&seq(3), 99.0).unwrap().value, 2.0));
        assert!(close(percentile(&[7.0], 99.0).unwrap().value, 7.0));
        assert!(percentile(&[], 50.0).is_none());
    }

    #[test]
    fn median_interpolates_and_ignores_order() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn metric_names_follow_the_charset() {
        for ok in [
            "latency_p50_ms",
            "explore.sweep_cpu_ms",
            "cache.hit_ratio",
            "9x",
            "a-b",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        let long = "a".repeat(65);
        for bad in ["", "_x", ".x", "a b", "a/b", "p50%", long.as_str()] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
        for ok in ["ms", "s", "1/s", "count", "%", "MB", "ratio"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "m s", "seconds_per_op_xy", "µs"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn result_line_is_one_json_object() {
        let mut m = Metrics::default();
        m.put("setup_s", 0.125, "s", "");
        m.put_percentile("latency_p50_ms", &[1.5, 2.5, 3.5], 50.0);
        let line = result_line(true, 3, 0, &m);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 0.125, \"unit\": \"s\"}, \
             \"latency_p50_ms\": {\"value\": 2.5, \"unit\": \"ms\"}}}"
        );
    }
}
