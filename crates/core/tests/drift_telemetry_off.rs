//! Drift detection with telemetry switched off. The switch is
//! process-wide, so this test runs in its own process: the drift windows
//! are model state and must keep recording while metrics are off.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::time::Duration;

use cf_matrix::{ItemId, UserId};
use cfsf_core::{Cfsf, CfsfConfig, DriftConfig, SelfHealingCfsf};

/// Restores the telemetry switch, also on failure.
struct TelemetryOn;

impl Drop for TelemetryOn {
    fn drop(&mut self) {
        cf_obs::set_enabled(true);
    }
}

#[test]
fn drift_detection_works_with_telemetry_off() {
    let d = cf_data::SyntheticConfig::small().generate();
    let model = Cfsf::fit(&d.matrix, CfsfConfig::small()).unwrap();
    // Only the histogram signal is live.
    let cfg = DriftConfig {
        hist_trip_pm: 300,
        hist_clear_pm: 150,
        trip_windows: 1,
        min_observations: 32,
        cooldown: Duration::from_secs(3600),
        ..DriftConfig::manual()
    };
    let healing = SelfHealingCfsf::new(model, cfg).unwrap();
    let scale = d.matrix.scale();
    let cells: Vec<(UserId, ItemId)> = d
        .matrix
        .users()
        .flat_map(|u| d.matrix.items().map(move |i| (u, i)))
        .filter(|&(u, i)| d.matrix.get(u, i).is_none())
        .take(48)
        .collect();

    let _restore = TelemetryOn;
    cf_obs::set_enabled(false);
    for (user, item) in cells {
        healing.add_rating(user, item, scale.max).unwrap();
    }
    healing.wait_idle();
    cf_obs::set_enabled(true);

    assert_eq!(
        healing.generation(),
        1,
        "a fully shifted stream must trip the histogram signal with telemetry off"
    );
}
