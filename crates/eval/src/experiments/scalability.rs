//! Fig. 5 — online response time of CFSF vs SCBPCC as the testset grows.
//!
//! The paper fixes Given20, sweeps the evaluated fraction of the 200 test
//! users from 10% to 100% across ML_100/200/300, and reports wall-clock
//! response time of the online phase. The claims we check: response time
//! grows linearly in testset size, and CFSF is a small multiple faster
//! than SCBPCC (≈2.4× at the paper's largest point).

use crate::chart::{render_chart, Series};
use crate::table::{fmt_secs, Table};
use crate::timing::{best_of_alternating, time_predictions};

use super::{sweep_fractions, ExperimentContext, ExperimentOutput};

/// Runs the Fig. 5 measurement.
pub fn fig5(ctx: &ExperimentContext) -> ExperimentOutput {
    let mut table = Table::new(
        "Fig. 5 — response time at Given20 (seconds)",
        &[
            "training set",
            "testset %",
            "holdout cells",
            "CFSF",
            "SCBPCC",
        ],
    );
    let mut notes = Vec::new();
    let mut charts = Vec::new();

    for &train in &ctx.train_sizes() {
        // The training matrix is identical across fractions (the fraction
        // only selects which test users are *evaluated*), so fit once.
        let full = ctx.split_fraction(train, 1.0);
        let cfsf = ctx.fit_cfsf(&full.train);
        let scbpcc = ctx.fit_baseline("SCBPCC", &full.train);

        let mut sizes = Vec::new();
        let mut cfsf_times = Vec::new();
        let mut scb_times = Vec::new();
        for &fraction in &sweep_fractions(ctx.scale) {
            let split = ctx.split_fraction(train, fraction);
            // Cold start per run: Fig. 5 measures each testset size as
            // an independent serving run.
            let (t_cfsf, t_scb) = best_of_alternating(
                3,
                || {
                    cfsf.clear_caches();
                    time_predictions(&cfsf, &split.holdout)
                },
                || time_predictions(scbpcc.as_ref(), &split.holdout),
            );
            table.push_row(vec![
                train.label(),
                format!("{:.0}%", fraction * 100.0),
                split.holdout.len().to_string(),
                fmt_secs(t_cfsf),
                fmt_secs(t_scb),
            ]);
            sizes.push(split.holdout.len() as f64);
            cfsf_times.push(t_cfsf.as_secs_f64());
            scb_times.push(t_scb.as_secs_f64());
        }

        if train == ctx.largest_train() {
            charts.push(render_chart(
                &format!(
                    "Fig. 5 — response time vs holdout cells ({})",
                    train.label()
                ),
                &[
                    Series::new(
                        "CFSF",
                        sizes
                            .iter()
                            .copied()
                            .zip(cfsf_times.iter().copied())
                            .collect(),
                    ),
                    Series::new(
                        "SCBPCC",
                        sizes
                            .iter()
                            .copied()
                            .zip(scb_times.iter().copied())
                            .collect(),
                    ),
                ],
                60,
                14,
            ));
        }

        // Shape 1: linear growth — correlation of time vs size.
        let r_cfsf = pearson(&sizes, &cfsf_times);
        let r_scb = pearson(&sizes, &scb_times);
        notes.push(format!(
            "{}: time-vs-size correlation CFSF {:.3}, SCBPCC {:.3} (paper: linear growth)",
            train.label(),
            r_cfsf,
            r_scb
        ));
        // Shape 2: CFSF faster than SCBPCC at the full testset.
        let speedup =
            scb_times.last().expect("non-empty") / cfsf_times.last().expect("non-empty").max(1e-9);
        notes.push(format!(
            "{}: SCBPCC/CFSF time ratio at 100% = {:.1}x (paper: ~2.4x — CFSF faster)",
            train.label(),
            speedup
        ));
    }

    ExperimentOutput {
        id: "fig5".into(),
        title: "Fig. 5 — online scalability".into(),
        tables: vec![table],
        notes,
        charts,
    }
}

/// Pearson correlation of two equal-length series.
fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let mut dot = 0.0;
    let mut nx = 0.0;
    let mut ny = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        dot += (x - mx) * (y - my);
        nx += (x - mx) * (x - mx);
        ny += (y - my) * (y - my);
    }
    if nx <= 0.0 || ny <= 0.0 {
        return 0.0;
    }
    dot / (nx.sqrt() * ny.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pearson_detects_linearity() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&xs, &ys) - 1.0).abs() < 1e-12);
        let anti = [8.0, 6.0, 4.0, 2.0];
        assert!((pearson(&xs, &anti) + 1.0).abs() < 1e-12);
        let flat = [5.0, 5.0, 5.0, 5.0];
        assert_eq!(pearson(&xs, &flat), 0.0);
    }
}
