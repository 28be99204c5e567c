//! Sample statistics and the result line.

use crate::trace::valid_metric_name;
use std::fmt::Write;

/// Median of `v` (mean of the middle pair for even lengths); 0 if empty.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of raw nanosecond samples, in µs.
pub fn pct_us(sorted_ns: &[u64], p: f64) -> f64 {
    hima_serve::percentile(sorted_ns, p).as_nanos() as f64 / 1e3
}

/// Times `f` in batches until `budget_ms` has passed (at least 5
/// batches); returns the median per-call time in ns.
pub fn time_per_call(budget_ms: u64, mut f: impl FnMut()) -> f64 {
    // Calibrate a batch to ~2 ms so timer overhead is negligible.
    let mut reps = 1u64;
    loop {
        let t = std::time::Instant::now();
        for _ in 0..reps {
            f();
        }
        if t.elapsed().as_micros() >= 2000 || reps >= 1 << 20 {
            break;
        }
        reps *= 2;
    }
    let start = std::time::Instant::now();
    let mut per_call = Vec::new();
    while per_call.len() < 5 || start.elapsed().as_millis() < budget_ms as u128 {
        let t = std::time::Instant::now();
        for _ in 0..reps {
            f();
        }
        per_call.push(t.elapsed().as_nanos() as f64 / reps as f64);
    }
    median(&mut per_call)
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Raw samples behind the value, where it is a statistic of samples.
    pub samples: Option<usize>,
}

/// An ordered set of metrics.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.add_n(name, value, unit, None);
    }

    pub fn add_n(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        samples: Option<usize>,
    ) {
        let name = name.into();
        assert!(valid_metric_name(&name), "invalid metric name {name:?}");
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(self.get(&name).is_none(), "metric {name} reported twice");
        self.0.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// Human-readable lines: name, value, unit and sample count.
    pub fn print(&self, heading: &str) {
        println!("== {heading}");
        for m in &self.0 {
            let n = m.samples.map_or(String::new(), |n| format!("  (n={n})"));
            println!("  {:<44} {:>14.4} {}{n}", m.name, m.value, m.unit);
        }
    }

    /// The `metrics` object of the result line, restricted to `names` in
    /// that order (every name must have been reported).
    pub fn json(&self, names: &[&str]) -> String {
        let mut s = String::from("{");
        for (i, name) in names.iter().enumerate() {
            let m = self.0.iter().find(|m| m.name == *name).unwrap_or_else(|| {
                panic!("metric {name} was not measured");
            });
            if i > 0 {
                s.push_str(", ");
            }
            write!(
                s,
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
            .expect("write to String");
        }
        s.push('}');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn json_keeps_every_digit() {
        let mut m = Metrics::default();
        m.add("a_us", 1.0 / 3.0, "us");
        m.add("b", 2.0, "count");
        assert_eq!(
            m.json(&["b", "a_us"]),
            "{\"b\": {\"value\": 2.0, \"unit\": \"count\"}, \
             \"a_us\": {\"value\": 0.3333333333333333, \"unit\": \"us\"}}"
        );
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn bad_names_are_refused() {
        Metrics::default().add("bad name", 1.0, "s");
    }
}
