//! The one percentile rule every timing in the report goes through.
//!
//! A percentile is reported only when at least [`MIN_BEYOND`] samples lie
//! above it. When a sample set is too small for the percentile asked for,
//! the highest percentile it does support is reported under its own label
//! (`p98.3` instead of `p99`), never a value that a handful of samples
//! decide. Every summary carries its sample count.

/// Samples that must lie above a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The highest quantile `<= want` that leaves at least [`MIN_BEYOND`] of
/// `n` samples above its nearest-rank position, rounded down to a tenth
/// of a percent. `None` when `n` is too small for any quantile.
pub fn supported_quantile(n: usize, want: f64) -> Option<f64> {
    if n <= MIN_BEYOND {
        return None;
    }
    let ceiling = (n - MIN_BEYOND) as f64 / n as f64;
    let q = if want <= ceiling {
        want
    } else {
        (ceiling * 1000.0).floor() / 1000.0
    };
    (q > 0.0).then_some(q)
}

/// Nearest-rank quantile of an ascending slice: the smallest sample with
/// at least `q · n` samples at or below it.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    // The epsilon keeps float error in `q · n` from bumping an exact
    // integer rank up by one.
    let rank = ((q * sorted.len() as f64 - 1e-9).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// `p99`, `p50`, or `p98.3` for a quantile that had to be lowered.
pub fn label(q: f64) -> String {
    let pct = q * 100.0;
    if (pct - pct.round()).abs() < 1e-9 {
        format!("p{}", pct.round() as u32)
    } else {
        format!("p{pct:.1}")
    }
}

/// One percentile as the rule allows it.
#[derive(Debug, Clone, PartialEq)]
pub struct Quantile {
    /// The quantile actually reported (lower than asked when the sample
    /// set is small).
    pub q: f64,
    /// Its value, in the samples' unit.
    pub value: f64,
}

impl Quantile {
    /// Whether this is the quantile that was asked for, not a lowered one.
    pub fn is(&self, want: f64) -> bool {
        (self.q - want).abs() < 1e-12
    }
}

/// The percentiles every latency is reported at.
pub const REPORTED: [f64; 3] = [0.5, 0.9, 0.99];

/// A sample set reduced to the [`REPORTED`] percentiles, each lowered by
/// the rule when the count is short.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Samples summarised.
    pub n: usize,
    /// One entry per supported percentile of [`REPORTED`], ascending;
    /// lowered ones that coincide are kept once.
    pub quantiles: Vec<Quantile>,
}

impl Summary {
    /// Summarises `samples` (any order).
    pub fn of(samples: &[f64]) -> Self {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let mut quantiles: Vec<Quantile> = REPORTED
            .iter()
            .filter_map(|&want| supported_quantile(sorted.len(), want))
            .map(|q| Quantile {
                q,
                value: nearest_rank(&sorted, q),
            })
            .collect();
        quantiles.dedup_by(|a, b| a.q == b.q);
        Self {
            n: sorted.len(),
            quantiles,
        }
    }

    /// The value at `want` only when the count supports `want` itself.
    pub fn exact(&self, want: f64) -> Option<f64> {
        self.quantiles.iter().find(|q| q.is(want)).map(|q| q.value)
    }

    /// The median, when supported.
    pub fn median(&self) -> Option<f64> {
        self.exact(0.5)
    }

    /// One report line: `name p50=… p90=… p99=… unit (n=…)`.
    pub fn describe(&self, name: &str, unit: &str) -> String {
        let mut s = format!("{name:<34}");
        for q in &self.quantiles {
            s.push_str(&format!(" {}={:.3}", label(q.q), q.value));
        }
        if self.quantiles.is_empty() {
            s.push_str(" (too few samples for any percentile)");
        }
        s.push_str(&format!(" {unit} (n={})", self.n));
        s
    }
}

/// Median of a small set of repeated measurements (set-up repeats,
/// per-batch rebuild times): the middle value, or the lower middle for
/// an even count, so the value is always one that was measured.
pub fn median_of(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[(v.len() - 1) / 2])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: exactly 10 lie above the p99 rank.
        assert_eq!(supported_quantile(1000, 0.99), Some(0.99));
        let s = Summary::of(&ramp(1000));
        assert_eq!(s.exact(0.99), Some(990.0));
        assert_eq!(s.exact(0.9), Some(900.0));
        assert_eq!(s.median(), Some(500.0));
        assert_eq!(ramp(1000).iter().filter(|&&v| v > 990.0).count(), 10);
        // 999 samples cannot support p99.
        assert!(supported_quantile(999, 0.99).unwrap() < 0.99);
    }

    #[test]
    fn short_sets_report_the_highest_supported_percentile() {
        // A p99.9 over 5,000 samples would rest on 5 samples; the
        // highest percentile with 10 beyond it is p99.8.
        let q = supported_quantile(5_000, 0.999).unwrap();
        assert_eq!(label(q), "p99.8");
        let s = Summary::of(&ramp(500));
        let tail = s.quantiles.last().cloned().unwrap();
        assert_eq!(label(tail.q), "p98");
        assert_eq!(s.exact(0.99), None);
        assert_eq!(s.exact(0.9), Some(450.0));
        assert!(ramp(500).iter().filter(|&&v| v > tail.value).count() >= MIN_BEYOND);
        assert!(s.describe("x", "us").contains("p98="));
        assert!(s.describe("x", "us").contains("(n=500)"));
    }

    #[test]
    fn tiny_sets_report_only_their_count() {
        let s = Summary::of(&ramp(10));
        assert_eq!((s.n, s.quantiles.len()), (10, 0));
        assert!(s.describe("x", "us").contains("n=10"));
        // 20 samples support a true median and nothing above p50.
        let s = Summary::of(&ramp(20));
        assert_eq!(s.median(), Some(10.0));
        assert_eq!(s.quantiles.len(), 1);
    }

    #[test]
    fn every_reported_percentile_keeps_ten_samples_beyond() {
        for n in 11..3000 {
            for want in [0.5, 0.9, 0.99, 0.999] {
                let q = supported_quantile(n, want).unwrap();
                assert!(q <= want);
                let data = ramp(n);
                let v = nearest_rank(&data, q);
                let beyond = data.iter().filter(|&&x| x > v).count();
                assert!(beyond >= MIN_BEYOND, "n={n} want={want} q={q}");
            }
        }
    }

    #[test]
    fn median_of_repeats_is_a_measured_value() {
        assert_eq!(median_of(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median_of(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(median_of(&[]), None);
    }
}
