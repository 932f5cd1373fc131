//! The run's report: human-readable lines on standard output, then one
//! JSON result line with the metrics `BENCHMARK.json` lists.

use crate::stats::Summary;

/// Metrics and report lines collected during a run.
#[derive(Default)]
pub struct Report {
    values: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// Prints a report line.
    pub fn line(&self, text: impl AsRef<str>) {
        println!("  {}", text.as_ref());
    }

    /// Records and prints one value.
    pub fn value(&mut self, name: &str, value: f64, unit: &'static str) {
        println!("  {name:<34} {value:.6} {unit}");
        self.values.push((name.to_string(), value, unit));
    }

    /// Prints a latency summary (its percentiles and sample count) and
    /// records `<name>_p50_<unit>`, `<name>_p90_<unit>` and
    /// `<name>_p99_<unit>` for the percentiles the count supports as such.
    pub fn latency(&mut self, name: &str, s: &Summary, unit: &'static str) {
        self.line(s.describe(name, unit));
        for want in crate::stats::REPORTED {
            if let Some(v) = s.exact(want) {
                let label = crate::stats::label(want);
                self.values
                    .push((format!("{name}_{label}_{unit}"), v, unit));
            }
        }
    }

    /// A recorded value by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .rev()
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, _)| v)
    }

    /// The JSON result line: `correct`, `attempted`, `failed`, and the
    /// metrics named in `wanted` with their units. Returns the names in
    /// `wanted` that the run did not produce.
    pub fn result_line(
        &self,
        correct: bool,
        attempted: usize,
        failed: usize,
        wanted: &[&str],
    ) -> (String, Vec<String>) {
        let mut missing = Vec::new();
        let mut fields = Vec::new();
        for &name in wanted {
            match self.values.iter().rev().find(|(n, _, _)| n == name) {
                Some((_, v, unit)) if v.is_finite() => fields.push(format!(
                    "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
                )),
                _ => missing.push(name.to_string()),
            }
        }
        let line = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            fields.join(", ")
        );
        (line, missing)
    }
}
