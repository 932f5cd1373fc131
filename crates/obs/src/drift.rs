//! Rating-distribution drift sensor for the self-healing refresh loop.
//!
//! The refresh policy in `cfsf-core::refresh` needs to know whether the
//! *incoming* rating stream still looks like the distribution the model
//! was fitted on. A [`DriftWindow`] keeps a bounded window of the most
//! recent ingested ratings bucketed into a fixed histogram, next to a
//! baseline histogram captured from the training matrix, and publishes
//! three gauges as it records:
//!
//! - `drift.hist_distance_pm` — total-variation distance (per mille)
//!   between the ingest-window histogram and the baseline;
//! - `drift.ingest.mean_milli` / `drift.ingest.stddev_milli` — first two
//!   moments of the window, milli-rating-units.
//!
//! Each model owns its window (the drift monitor in `cfsf-core` holds
//! one), so two models in one process never pool or reset each other's
//! samples. The gauges are process-wide and show the window that
//! recorded last. The window records whether or not telemetry is
//! enabled: it is model state, not a metric.

use std::collections::VecDeque;

/// Histogram buckets the rating scale is cut into. Eight is enough to
/// tell "everyone suddenly rates 1" from "everyone rates 5" on any scale
/// while keeping the distance numerically stable on small windows.
pub const BUCKETS: usize = 8;

/// Ratings the ingest window holds before the oldest rolls out.
pub const WINDOW: usize = 512;

/// A bounded ingest-rating window compared against a baseline
/// distribution.
#[derive(Debug, Clone)]
pub struct DriftWindow {
    /// Recent ratings with their bucket indices, oldest first.
    recent: VecDeque<(u8, f64)>,
    /// Per-bucket counts over `recent` (kept incrementally).
    counts: [u64; BUCKETS],
    /// Baseline per-bucket probabilities from the training matrix.
    baseline: Option<[f64; BUCKETS]>,
    /// Scale the bucketing maps onto (min, max).
    scale: (f64, f64),
}

impl Default for DriftWindow {
    fn default() -> Self {
        Self {
            recent: VecDeque::with_capacity(WINDOW),
            counts: [0; BUCKETS],
            baseline: None,
            scale: (1.0, 5.0),
        }
    }
}

fn bucket_of(rating: f64, min: f64, max: f64) -> usize {
    let span = (max - min).max(f64::MIN_POSITIVE);
    let t = ((rating - min) / span).clamp(0.0, 1.0);
    ((t * BUCKETS as f64) as usize).min(BUCKETS - 1)
}

impl DriftWindow {
    /// An empty window with no baseline: it never reports a distance.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty window measuring against the distribution of `ratings`
    /// (the *training* ratings) bucketed over `[scale_min, scale_max]`.
    /// The refresh loop builds one whenever it publishes a generation:
    /// drift is measured against the generation currently serving.
    pub fn with_baseline(
        ratings: impl IntoIterator<Item = f64>,
        scale_min: f64,
        scale_max: f64,
    ) -> Self {
        let mut counts = [0u64; BUCKETS];
        let mut total = 0u64;
        for r in ratings {
            if r.is_finite() {
                counts[bucket_of(r, scale_min, scale_max)] += 1;
                total += 1;
            }
        }
        Self {
            baseline: (total > 0).then(|| counts.map(|c| c as f64 / total as f64)),
            scale: (scale_min, scale_max),
            ..Self::default()
        }
    }

    /// Feeds one freshly ingested rating into the window and refreshes
    /// the `drift.*` gauges. Non-finite ratings are ignored (the ingest
    /// path validates before calling, so this is belt and braces).
    pub fn record(&mut self, rating: f64) {
        if !rating.is_finite() {
            return;
        }
        let b = bucket_of(rating, self.scale.0, self.scale.1);
        if self.recent.len() >= WINDOW {
            if let Some((old, _)) = self.recent.pop_front() {
                self.counts[old as usize] = self.counts[old as usize].saturating_sub(1);
            }
        }
        self.recent.push_back((b as u8, rating));
        self.counts[b] += 1;
        self.publish_gauges();
    }

    /// Total-variation distance (½ · L1), per mille, between the window
    /// and the baseline. `None` until both a baseline and at least one
    /// ingested rating exist — the policy layer treats "no signal yet"
    /// differently from "distance zero".
    pub fn hist_distance_pm(&self) -> Option<i64> {
        let baseline = self.baseline?;
        let total: u64 = self.counts.iter().sum();
        if total == 0 {
            return None;
        }
        let l1: f64 = self
            .counts
            .iter()
            .zip(&baseline)
            .map(|(c, b)| (*c as f64 / total as f64 - b).abs())
            .sum();
        Some(((l1 / 2.0) * 1000.0).round() as i64)
    }

    /// Mean and standard deviation of the ratings currently in the
    /// window; `None` while the window is empty.
    pub fn moments(&self) -> Option<(f64, f64)> {
        if self.recent.is_empty() {
            return None;
        }
        let n = self.recent.len() as f64;
        let mean = self.recent.iter().map(|&(_, r)| r).sum::<f64>() / n;
        let var = self
            .recent
            .iter()
            .map(|&(_, r)| (r - mean).powi(2))
            .sum::<f64>()
            / n;
        Some((mean, var.sqrt()))
    }

    /// Ratings currently in the window.
    pub fn len(&self) -> usize {
        self.recent.len()
    }

    /// Whether the window holds no ratings.
    pub fn is_empty(&self) -> bool {
        self.recent.is_empty()
    }

    fn publish_gauges(&self) {
        if !crate::enabled() {
            return;
        }
        if let Some(d) = self.hist_distance_pm() {
            crate::gauge!("drift.hist_distance_pm").set(d);
        }
        if let Some((mean, stddev)) = self.moments() {
            crate::gauge!("drift.ingest.mean_milli").set((mean * 1000.0).round() as i64);
            crate::gauge!("drift.ingest.stddev_milli").set((stddev * 1000.0).round() as i64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_distributions_measure_zero_distance() {
        let mut w = DriftWindow::with_baseline((0..100).map(|i| 1.0 + f64::from(i % 5)), 1.0, 5.0);
        for i in 0..100 {
            w.record(1.0 + f64::from(i % 5));
        }
        assert_eq!(w.hist_distance_pm(), Some(0));
    }

    #[test]
    fn shifted_distribution_is_visible_and_window_stays_bounded() {
        // Baseline: everyone rates mid-scale. Stream: everyone rates max.
        let mut w = DriftWindow::with_baseline(std::iter::repeat_n(3.0, 64), 1.0, 5.0);
        for _ in 0..(WINDOW * 2) {
            w.record(5.0);
        }
        assert_eq!(w.len(), WINDOW);
        // Disjoint buckets: total-variation distance is the full 1000 pm.
        assert_eq!(w.hist_distance_pm(), Some(1000));
        let (mean, stddev) = w.moments().unwrap();
        assert!((mean - 5.0).abs() < 1e-12);
        assert!(stddev < 1e-12);
    }

    #[test]
    fn no_signal_before_baseline_or_data() {
        let mut w = DriftWindow::new();
        assert_eq!(w.hist_distance_pm(), None);
        w.record(4.0); // no baseline installed → still no distance
        assert_eq!(w.hist_distance_pm(), None);
        let w = DriftWindow::with_baseline([3.0, 4.0], 1.0, 5.0);
        assert!(w.is_empty());
        assert_eq!(w.hist_distance_pm(), None, "baseline alone is no signal");
    }

    #[test]
    fn windows_are_independent() {
        let mut shifted = DriftWindow::with_baseline([3.0; 8], 1.0, 5.0);
        let mut steady = DriftWindow::with_baseline([3.0; 8], 1.0, 5.0);
        for _ in 0..10 {
            shifted.record(5.0);
            steady.record(3.0);
        }
        assert_eq!(shifted.hist_distance_pm(), Some(1000));
        assert_eq!(steady.hist_distance_pm(), Some(0));
        // Rebasing one (a published generation) leaves the other alone.
        shifted = DriftWindow::with_baseline([5.0; 8], 1.0, 5.0);
        assert!(shifted.is_empty());
        assert_eq!(steady.len(), 10);
    }
}
