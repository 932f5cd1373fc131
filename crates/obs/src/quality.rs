//! Rolling online prediction-quality and serving-health gauges.
//!
//! Aggregate counters tell us *what* the server did; this module derives
//! drift-visible gauges from them so the `/metrics` endpoint shows, on
//! one scrape, whether prediction quality or serving health is moving:
//!
//! - [`MaeWindow`] — a bounded window of recent absolute errors, fed when
//!   a ground-truth rating arrives for a (user, item) the model could
//!   already predict. Each self-healing model owns one (inside its drift
//!   monitor); every observation refreshes the **windowed online MAE**
//!   gauge (`online.quality.window_mae_milli`, milli-rating-units so the
//!   integer gauge keeps 3 decimals), which shows the window that
//!   observed last.
//! - [`refresh_derived_gauges`] — folds the global counters into rate
//!   gauges: neighbor-cache hit ratio, degradation fallback rate and
//!   per-rung serve rates, all per-mille. Called by the telemetry server
//!   before each scrape and by the CLI before `--stats` output, so the
//!   gauges are always coherent with the counters next to them.
//! - [`fallback_pm`] — the fallback rate read live off the ladder
//!   counters, for the drift monitor's per-tick signal. It is
//!   process-wide: the degradation-ladder counters are shared by every
//!   model in the process.

use std::collections::VecDeque;

/// Number of recent observations the MAE window holds.
pub const WINDOW: usize = 256;

/// A bounded window of recent |prediction − observed rating| errors.
#[derive(Debug, Clone, Default)]
pub struct MaeWindow {
    errors: VecDeque<f64>,
}

impl MaeWindow {
    /// An empty window.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one |prediction − observed rating| into the window and
    /// refreshes the `online.quality.window_mae_milli` gauge. Non-finite
    /// errors are counted (`online.quality.rejected`) but excluded from
    /// the window. The window records whether or not telemetry is
    /// enabled: it is model state, not a metric.
    pub fn observe(&mut self, abs_err: f64) {
        if !abs_err.is_finite() {
            crate::counter!("online.quality.rejected").inc();
            return;
        }
        crate::counter!("online.quality.observed").inc();
        if self.errors.len() >= WINDOW {
            self.errors.pop_front();
        }
        self.errors.push_back(abs_err.abs());
        if crate::enabled() {
            if let Some(mae) = self.mae() {
                crate::gauge!("online.quality.window_mae_milli").set((mae * 1000.0).round() as i64);
            }
        }
    }

    /// Observations currently in the window.
    pub fn len(&self) -> usize {
        self.errors.len()
    }

    /// Whether the window holds no observations.
    pub fn is_empty(&self) -> bool {
        self.errors.is_empty()
    }

    /// Mean absolute error over the window, or `None` while it is empty.
    /// The drift detector in `cfsf-core::refresh` compares this against
    /// the baseline MAE captured after the serving generation was
    /// published.
    pub fn mae(&self) -> Option<f64> {
        if self.errors.is_empty() {
            return None;
        }
        Some(self.errors.iter().sum::<f64>() / self.errors.len() as f64)
    }

    /// Empties the window (a new generation starts a new window).
    pub fn clear(&mut self) {
        self.errors.clear();
    }
}

fn per_mille(part: u64, whole: u64) -> i64 {
    if whole == 0 {
        0
    } else {
        ((part as f64 / whole as f64) * 1000.0).round() as i64
    }
}

/// The degradation-ladder rungs, best first (counter names are
/// `online.degrade.<rung>`).
pub const RUNGS: [&str; 6] = [
    "full",
    "partial_fusion",
    "single_estimator",
    "cluster_smoothed",
    "user_mean",
    "global_mean",
];
/// The rungs counted as the ladder's fallback region.
pub const FALLBACK_RUNGS: [&str; 3] = ["cluster_smoothed", "user_mean", "global_mean"];

/// Per mille of ladder serves that came from the fallback region, given
/// one count per rung in [`RUNGS`] order — the one formula behind the
/// `online.degrade.fallback_pm` gauge and [`fallback_pm`].
fn fallback_per_mille(counts: [u64; RUNGS.len()]) -> i64 {
    let total = counts.iter().sum();
    let fallback = RUNGS
        .iter()
        .zip(counts)
        .filter(|(rung, _)| FALLBACK_RUNGS.contains(rung))
        .map(|(_, n)| n)
        .sum();
    per_mille(fallback, total)
}

/// The process-wide degradation fallback rate (per mille), read live off
/// the six ladder counters — cheap enough for every drift-monitor tick,
/// where a registry snapshot is not.
pub fn fallback_pm() -> i64 {
    fallback_per_mille([
        crate::counter!("online.degrade.full").get(),
        crate::counter!("online.degrade.partial_fusion").get(),
        crate::counter!("online.degrade.single_estimator").get(),
        crate::counter!("online.degrade.cluster_smoothed").get(),
        crate::counter!("online.degrade.user_mean").get(),
        crate::counter!("online.degrade.global_mean").get(),
    ])
}

/// The derived gauge values implied by `snap`'s counters, as
/// `(name, per-mille value)` pairs — pure, so one counter pass can feed
/// both the registry and the scrape being rendered.
fn derived_from(snap: &crate::Snapshot) -> Vec<(String, i64)> {
    let c = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    let mut out = Vec::with_capacity(2 + RUNGS.len());

    let hits = c("online.neighbor_cache.hit");
    let misses = c("online.neighbor_cache.miss");
    out.push((
        "online.cache.hit_ratio_pm".to_string(),
        per_mille(hits, hits + misses),
    ));

    let counts = RUNGS.map(|r| c(&format!("online.degrade.{r}")));
    let total: u64 = counts.iter().sum();
    out.push((
        "online.degrade.fallback_pm".to_string(),
        fallback_per_mille(counts),
    ));
    for (rung, n) in RUNGS.iter().zip(counts) {
        out.push((
            format!("online.degrade.rate_pm.{rung}"),
            per_mille(n, total),
        ));
    }
    out
}

/// Computes the derived gauges from `snap`'s own counters and writes them
/// both into the global registry (so other readers stay fresh) and into
/// `snap.gauges` itself. Because the gauge values come from exactly the
/// counters in `snap`, a scrape rendered from it can never show a gauge
/// computed from a newer counter than the one printed next to it.
pub fn apply_derived_gauges(snap: &mut crate::Snapshot) {
    if !crate::enabled() {
        return;
    }
    for (name, v) in derived_from(snap) {
        crate::global().gauge(&name).set(v);
        snap.gauges.insert(name, v);
    }
}

/// One coherent scrape payload: a single counter pass with the derived
/// gauges recomputed from exactly those counters. The telemetry server
/// renders `/metrics` and `/stats.json` from this.
pub fn coherent_snapshot() -> crate::Snapshot {
    let mut snap = crate::global().snapshot();
    apply_derived_gauges(&mut snap);
    snap
}

/// Recomputes the derived health gauges from the global registry's
/// counters:
///
/// - `online.cache.hit_ratio_pm` — neighbor-cache hits per mille of
///   lookups,
/// - `online.degrade.fallback_pm` — requests served from the ladder's
///   fallback region per mille of predictions,
/// - `online.degrade.rate_pm.<rung>` — per-rung serve rates.
pub fn refresh_derived_gauges() {
    let mut snap = crate::global().snapshot();
    apply_derived_gauges(&mut snap);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_mae_tracks_recent_errors_and_stays_bounded() {
        let mut w = MaeWindow::new();
        w.observe(1.0);
        w.observe(0.5);
        assert_eq!(w.mae(), Some(0.75), "MAE of [1.0, 0.5]");

        for _ in 0..(WINDOW * 2) {
            w.observe(0.2);
        }
        assert_eq!(w.len(), WINDOW, "window must stay bounded");
        let mae = w.mae().unwrap();
        assert!((mae - 0.2).abs() < 1e-12, "old errors must have rolled out");
        w.clear();
        assert!(w.is_empty());
        assert_eq!(w.mae(), None);
    }

    #[test]
    fn non_finite_errors_are_rejected() {
        let mut w = MaeWindow::new();
        w.observe(f64::NAN);
        w.observe(f64::INFINITY);
        assert!(w.is_empty());
        assert!(crate::counter!("online.quality.rejected").get() >= 2);
    }

    #[test]
    fn fallback_rate_counts_only_the_fallback_rungs() {
        // full, partial_fusion, single_estimator, cluster_smoothed,
        // user_mean, global_mean
        assert_eq!(fallback_per_mille([5, 2, 1, 1, 0, 1]), 200);
        assert_eq!(fallback_per_mille([0; 6]), 0, "no serves, no rate");
        let mut snap = crate::Snapshot::default();
        for (rung, n) in RUNGS.iter().zip([5u64, 2, 1, 1, 0, 1]) {
            snap.counters.insert(format!("online.degrade.{rung}"), n);
        }
        let derived: std::collections::BTreeMap<_, _> = derived_from(&snap).into_iter().collect();
        assert_eq!(derived["online.degrade.fallback_pm"], 200);
        assert_eq!(derived["online.degrade.rate_pm.full"], 500);
    }

    #[test]
    fn coherent_snapshot_gauges_match_its_own_counters() {
        crate::counter!("online.degrade.full").add(5);
        crate::counter!("online.degrade.user_mean").add(2);
        let snap = coherent_snapshot();
        let c = |n: &str| snap.counters.get(n).copied().unwrap_or(0);
        let total: u64 = RUNGS
            .iter()
            .map(|r| c(&format!("online.degrade.{r}")))
            .sum();
        let fallback: u64 = FALLBACK_RUNGS
            .iter()
            .map(|r| c(&format!("online.degrade.{r}")))
            .sum();
        assert_eq!(
            snap.gauges["online.degrade.fallback_pm"],
            per_mille(fallback, total),
            "gauge must be derived from this snapshot's own counters"
        );
        assert_eq!(
            snap.gauges["online.degrade.rate_pm.full"],
            per_mille(c("online.degrade.full"), total)
        );
    }

    #[test]
    fn derived_gauges_compute_per_mille_rates() {
        // Shared global registry: add known deltas, then assert the gauge
        // values are consistent with the *current* counter totals (other
        // tests in this binary may also bump them).
        crate::counter!("online.neighbor_cache.hit").add(9);
        crate::counter!("online.neighbor_cache.miss").add(1);
        crate::counter!("online.degrade.full").add(3);
        crate::counter!("online.degrade.global_mean").add(1);
        refresh_derived_gauges();

        let snap = crate::global().snapshot();
        let hits = snap.counters["online.neighbor_cache.hit"];
        let misses = snap.counters["online.neighbor_cache.miss"];
        assert_eq!(
            snap.gauges["online.cache.hit_ratio_pm"],
            per_mille(hits, hits + misses)
        );
        assert!(snap.gauges["online.degrade.fallback_pm"] > 0);
        assert!(snap.gauges["online.degrade.rate_pm.full"] > 0);
        let covered = snap.gauges["online.degrade.rate_pm.partial_fusion"]
            + snap.gauges["online.degrade.rate_pm.full"]
            + snap.gauges["online.degrade.rate_pm.single_estimator"]
            + snap.gauges["online.degrade.fallback_pm"];
        assert!(
            (covered - 1000).abs() <= 3,
            "rung rates plus fallback must cover all predictions (±rounding): {covered}"
        );
    }
}
