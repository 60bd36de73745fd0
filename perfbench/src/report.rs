//! The benchmark's output: a readable table (with sample counts), then
//! one JSON result object as the last line of standard output.

use std::fmt::Write as _;

/// One named measurement.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// How many samples a percentile or median was taken over.
    pub samples: Option<usize>,
}

impl Metric {
    /// A metric without a sample count.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric { name: name.into(), value, unit, samples: None }
    }

    /// Records the sample count behind the value.
    pub fn samples(mut self, n: usize) -> Self {
        self.samples = Some(n);
        self
    }
}

/// Everything one run reports.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Operations attempted (pre-loaded or due transactions).
    pub attempted: u64,
    /// Operations that did not commit.
    pub failed: u64,
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Free-form context lines printed above the table.
    pub notes: Vec<String>,
}

impl Outcome {
    /// An outcome with no metrics yet.
    pub fn new(attempted: u64, failed: u64) -> Self {
        Outcome { attempted, failed, metrics: Vec::new(), notes: Vec::new() }
    }

    /// Appends a metric.
    pub fn push(&mut self, m: Metric) {
        self.metrics.push(m);
    }

    /// Appends a context line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Looks a metric up by name.
    #[cfg(test)]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// The readable table: one metric per line with unit and samples.
    pub fn table(&self) -> String {
        let mut s = String::new();
        for line in &self.notes {
            let _ = writeln!(s, "# {line}");
        }
        for m in &self.metrics {
            let samples = m.samples.map(|n| format!("  (n={n})")).unwrap_or_default();
            let _ = writeln!(s, "{:<36} {:>16.6} {}{samples}", m.name, m.value, m.unit);
        }
        s
    }

    /// The one-line JSON result.
    pub fn json(&self, correct: bool) -> String {
        let mut s = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let v = m.value;
            let sep = if i == 0 { "" } else { ", " };
            let _ =
                write!(s, "{sep}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}", m.name, m.unit);
        }
        s.push_str("}}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_contract_keys() {
        let mut o = Outcome::new(10, 1);
        o.push(Metric::new("latency_ms", 1.25, "ms").samples(9));
        assert_eq!(
            o.json(true),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, \"metrics\": {\
             \"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }
}
