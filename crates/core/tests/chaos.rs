//! Deterministic fault-injection ("chaos") suite for the serving path.
//!
//! Run with `cargo test -p cfsf-core --features faultinject --test chaos`.
//! Every scenario arms one or more seeded `cf-faultinject` points,
//! exercises the public API, and asserts the three resilience
//! invariants:
//!
//! 1. no injected fault escapes as a panic from a public entry point,
//! 2. every prediction that is served is finite and inside the rating
//!    scale, and
//! 3. the observability counters move consistently with what was
//!    injected (faults are visible, not silent).
//!
//! Scenarios share one global registry and one silenced panic hook, so
//! they serialize on a mutex and disarm everything on scope exit — a
//! failing scenario cannot poison its neighbors.

#![cfg(feature = "faultinject")]
#![allow(
    clippy::disallowed_methods,
    reason = "the clock reads bound a test's wait, not a request"
)]

use std::sync::{MutexGuard, OnceLock};

use cf_faultinject as fi;
use cf_matrix::{ItemId, Predictor, UserId};
use cf_obs::sync::RecoverMutex;
use cfsf_core::{Cfsf, CfsfConfig, DegradeLevel, DriftConfig, DriftState, SelfHealingCfsf};

// --- scenario scaffolding ----------------------------------------------

static FAULTS: RecoverMutex<()> = RecoverMutex::new(());

/// Serializes a scenario against the global injection registry, silences
/// the panic hook (several scenarios *expect* caught panics), and
/// guarantees `disarm_all` on exit even when the scenario fails.
type PanicHook = Box<dyn Fn(&std::panic::PanicHookInfo<'_>) + Sync + Send>;

struct Scope {
    _lock: MutexGuard<'static, ()>,
    prev_hook: Option<PanicHook>,
}

fn scope() -> Scope {
    let lock = FAULTS.lock();
    fi::disarm_all();
    let prev = std::panic::take_hook();
    if std::env::var("CHAOS_LOUD").is_err() {
        std::panic::set_hook(Box::new(|_| {}));
    }
    Scope {
        _lock: lock,
        prev_hook: Some(prev),
    }
}

impl Drop for Scope {
    fn drop(&mut self) {
        fi::disarm_all();
        // Restoring the hook from a panicking thread aborts the process;
        // a failed scenario keeps the quiet hook, which is harmless.
        if !std::thread::panicking() {
            if let Some(hook) = self.prev_hook.take() {
                std::panic::set_hook(hook);
            }
        }
    }
}

fn model() -> &'static Cfsf {
    static MODEL: OnceLock<Cfsf> = OnceLock::new();
    MODEL.get_or_init(|| {
        let d = cf_data::SyntheticConfig::small().generate();
        Cfsf::fit(&d.matrix, CfsfConfig::small()).unwrap()
    })
}

fn fresh_model() -> Cfsf {
    let d = cf_data::SyntheticConfig::small().generate();
    Cfsf::fit(&d.matrix, CfsfConfig::small()).unwrap()
}

fn saved() -> Vec<u8> {
    let mut buf = Vec::new();
    model().save(&mut buf).unwrap();
    buf
}

fn counter(name: &str) -> u64 {
    cf_obs::global()
        .snapshot()
        .counters
        .get(name)
        .copied()
        .unwrap_or(0)
}

/// Byte range of the `n`-th (0-based) section payload in a V3 stream
/// (16-byte header: magic, version, generation).
fn section_payload(buf: &[u8], n: usize) -> std::ops::Range<usize> {
    let mut pos = 16; // magic + version + generation
    for _ in 0..n {
        let len = u64::from_le_bytes(buf[pos + 4..pos + 12].try_into().unwrap()) as usize;
        pos += 12 + len + 4;
    }
    let len = u64::from_le_bytes(buf[pos + 4..pos + 12].try_into().unwrap()) as usize;
    pos + 12..pos + 12 + len
}

fn assert_in_scale(m: &Cfsf, p: f64) {
    let scale = m.matrix().scale();
    assert!(p.is_finite(), "prediction {p} not finite");
    assert!(
        (scale.min..=scale.max).contains(&p),
        "prediction {p} outside [{}, {}]",
        scale.min,
        scale.max
    );
}

fn requests() -> Vec<(UserId, ItemId)> {
    (0..300)
        .map(|k| (UserId::new(k % 80), ItemId::new((k * 7) % 120)))
        .collect()
}

// --- scenario 1–3: persistence I/O faults -------------------------------

#[test]
fn save_io_errors_surface_as_errors() {
    let _s = scope();
    for fail_at in [0usize, 5, 64, 4096] {
        let mut w = fi::FailingWriter::new(Vec::new(), fail_at);
        let e = model().save(&mut w);
        assert!(e.is_err(), "write failing at byte {fail_at} must error");
    }
}

#[test]
fn load_io_errors_surface_as_errors() {
    let _s = scope();
    let buf = saved();
    for fail_at in [0usize, 6, 16, 200, buf.len() - 10] {
        let r = Cfsf::load(fi::FailingReader::new(buf.as_slice(), fail_at));
        assert!(r.is_err(), "read failing at byte {fail_at} must error");
        // The recovery path may rebuild what the matrix allows but must
        // never panic; a failure before the matrix section is an error.
        let rec = Cfsf::load_with_recovery(fi::FailingReader::new(buf.as_slice(), fail_at));
        if fail_at < 200 {
            assert!(rec.is_err(), "fail at {fail_at} precedes the matrix");
        }
    }
}

#[test]
fn truncation_at_any_depth_is_an_error_not_a_panic() {
    let _s = scope();
    let buf = saved();
    for cut in [
        0usize,
        3,
        8,
        12,
        20,
        100,
        buf.len() / 3,
        buf.len() / 2,
        buf.len() - 1,
    ] {
        let r = Cfsf::load(fi::TruncatedReader::new(buf.as_slice(), cut));
        assert!(r.is_err(), "cut at {cut} must error under strict load");
        // Recovery on a tail truncation may legitimately succeed by
        // rebuilding; whatever it returns must serve sound predictions.
        if let Ok((m, report)) =
            Cfsf::load_with_recovery(fi::TruncatedReader::new(buf.as_slice(), cut))
        {
            assert!(
                report.any(),
                "a truncated load can only succeed by rebuilding"
            );
            let p = m.predict(UserId::new(3), ItemId::new(7)).unwrap();
            assert_in_scale(&m, p);
        }
    }
}

// --- scenario 4–6: bit rot in each section ------------------------------

#[test]
fn matrix_corruption_is_unrecoverable() {
    let _s = scope();
    let mut buf = saved();
    let matrix = section_payload(&buf, 1);
    buf[matrix.start + matrix.len() / 2] ^= 0x40;
    assert!(Cfsf::load(buf.as_slice()).is_err());
    assert!(
        Cfsf::load_with_recovery(buf.as_slice()).is_err(),
        "the matrix is ground truth; recovery must refuse to invent it"
    );
}

#[test]
fn gis_corruption_recovers_with_identical_predictions() {
    let _s = scope();
    let mut buf = saved();
    let gis = section_payload(&buf, 2);
    let before = counter("persist.recovered.gis");
    buf[gis.start + 17] ^= 0xFF;
    assert!(Cfsf::load(buf.as_slice()).is_err());
    let (m, report) = Cfsf::load_with_recovery(buf.as_slice()).unwrap();
    assert!(report.gis_rebuilt && !report.clusters_rebuilt);
    assert_eq!(counter("persist.recovered.gis"), before + 1);
    for (u, i) in requests().into_iter().step_by(29) {
        assert_eq!(m.predict(u, i), model().predict(u, i), "({u:?},{i:?})");
    }
}

#[test]
fn cluster_corruption_recovers_with_identical_predictions() {
    let _s = scope();
    let mut buf = saved();
    let clusters = section_payload(&buf, 3);
    let before = counter("persist.recovered.clusters");
    buf[clusters.end - 2] ^= 0xFF;
    assert!(Cfsf::load(buf.as_slice()).is_err());
    let (m, report) = Cfsf::load_with_recovery(buf.as_slice()).unwrap();
    assert!(report.clusters_rebuilt && !report.gis_rebuilt);
    assert_eq!(counter("persist.recovered.clusters"), before + 1);
    for (u, i) in requests().into_iter().step_by(29) {
        assert_eq!(m.predict(u, i), model().predict(u, i), "({u:?},{i:?})");
    }
}

// --- scenario 7: poisoned input data ------------------------------------

#[test]
fn garbage_input_rows_are_quarantined_not_fatal() {
    let _s = scope();
    // A clean dataset rendered to u.data text, then vandalized.
    let d = cf_data::SyntheticConfig::small().generate();
    let mut text = Vec::new();
    cf_data::save_movielens(&d.matrix, &mut text).unwrap();
    let mut text = String::from_utf8(text).unwrap();
    text.push_str("1 1 NaN\n"); // non-finite rating
    text.push_str("2 2 999\n"); // out of scale
    text.push_str("3 potato 4\n"); // unparsable item
    text.push_str("4 4\n"); // missing rating
    text.push_str("0 5 3\n"); // 0 id in 1-based format

    let (vandalized, report) = cf_data::load_movielens_str_lenient(&text, "chaos").unwrap();
    assert!(report.malformed_lines >= 3);
    assert!(report.quarantine.non_finite >= 1);
    assert!(report.quarantine.out_of_scale >= 1);
    assert!(!report.is_clean());

    // The surviving data still fits and serves sound predictions.
    let m = Cfsf::fit(&vandalized.matrix, CfsfConfig::small()).unwrap();
    for (u, i) in requests().into_iter().step_by(17) {
        if let Some(p) = m.predict(u, i) {
            assert_in_scale(&m, p);
        }
    }
}

// --- scenario 8–10: online-phase faults ---------------------------------

#[test]
fn injected_empty_neighbor_selection_degrades_gracefully() {
    let _s = scope();
    let m = model();
    let (user, item) = (UserId::new(11), ItemId::new(23));
    m.clear_caches();
    let baseline = m.predict_with_breakdown(user, item).unwrap();

    fi::arm("online.empty_neighbors", fi::Policy::Always);
    m.clear_caches();
    let degraded = m.predict_with_breakdown(user, item).unwrap();
    assert!(fi::fired_count("online.empty_neighbors") > 0);
    assert_in_scale(m, degraded.fused);
    // No neighbors means no SUR'/SUIR': at most one estimator remains.
    assert!(
        degraded.level >= DegradeLevel::SingleEstimator,
        "level {:?} should reflect the missing neighbors",
        degraded.level
    );
    assert_eq!(degraded.k_used, 0);

    // Disarm: the degraded (empty) selection must not have been cached.
    fi::disarm("online.empty_neighbors");
    m.clear_caches();
    let healed = m.predict_with_breakdown(user, item).unwrap();
    assert_eq!(healed.fused, baseline.fused);
    assert_eq!(healed.level, baseline.level);
}

#[test]
fn injected_nan_estimator_is_dropped_not_served() {
    let _s = scope();
    let m = model();
    m.clear_caches();
    // A pair whose baseline SIR' exists, so the corruption has a target.
    let (user, item, baseline) = requests()
        .into_iter()
        .find_map(|(u, i)| {
            let b = m.predict_with_breakdown(u, i)?;
            b.sir.is_some().then_some((u, i, b))
        })
        .expect("some pair must have an SIR'");

    let dropped_before = counter("online.degrade.nonfinite_estimator");
    fi::arm("online.nan_estimator", fi::Policy::Always);
    let degraded = m.predict_with_breakdown(user, item).unwrap();
    assert_eq!(degraded.sir, None, "NaN estimator must be quarantined");
    assert_in_scale(m, degraded.fused);
    assert!(counter("online.degrade.nonfinite_estimator") > dropped_before);
    assert!(
        degraded.level > baseline.level,
        "losing an estimator must step down the ladder ({:?} -> {:?})",
        baseline.level,
        degraded.level
    );
}

#[test]
fn select_panic_degrades_then_recovers() {
    let _s = scope();
    let m = model();
    let (user, item) = (UserId::new(29), ItemId::new(31));
    m.clear_caches();
    let baseline = m.predict(user, item).unwrap();

    let panics_before = counter("online.select_panic");
    fi::arm("online.select_panic", fi::Policy::Once);
    m.clear_caches();
    // The panic is caught inside the selection; the request is served
    // from whatever rungs need no neighbors.
    let degraded = m.predict(user, item).unwrap();
    assert_in_scale(m, degraded);
    assert_eq!(counter("online.select_panic"), panics_before + 1);

    // The empty selection was not cached, so the very next request
    // recomputes and serves full quality again.
    let healed = m.predict(user, item).unwrap();
    assert_eq!(healed, baseline);
}

// --- scenario 11: cache poisoning --------------------------------------

#[test]
fn cache_poisoning_heals_itself() {
    let _s = scope();
    let m = model();
    let reqs = requests();
    m.clear_caches();
    let baseline: Vec<Option<f64>> = reqs.iter().map(|&(u, i)| m.predict(u, i)).collect();

    let resets_before = counter("cache.poison_reset");
    fi::arm("cache.poison", fi::Policy::Once);
    m.clear_caches();
    // The injected panic fires inside a cache insert while the shard
    // write lock is held, poisoning the shard; the worker is isolated.
    let out = m.predict_batch(&reqs, Some(2));
    assert!(fi::fired_count("cache.poison") == 1);
    assert!(
        counter("cache.poison_reset") > resets_before,
        "the poisoned shard must have been reset, not left fatal"
    );
    // After self-healing, serial serving matches the baseline exactly.
    let after: Vec<Option<f64>> = reqs.iter().map(|&(u, i)| m.predict(u, i)).collect();
    assert_eq!(after, baseline);
    // And the batch answered every request it could (all in-range here).
    assert!(out.iter().filter(|p| p.is_some()).count() >= reqs.len() - 1);
}

// --- scenario 12–13: worker panics in batch paths -----------------------

#[test]
fn batch_worker_panic_answers_none_for_that_request_only() {
    let _s = scope();
    let m = model();
    let reqs = requests();
    m.clear_caches();
    let baseline: Vec<Option<f64>> = reqs.iter().map(|&(u, i)| m.predict(u, i)).collect();

    let panics_before = counter("online.batch.request_panic");
    fi::arm("batch.worker_panic", fi::Policy::Nth(5));
    // One worker thread, but the batch engine serves requests in
    // strip-sorted order, so the 5th evaluation lands on some sorted
    // position — locate the dropped request instead of assuming order.
    let out = m.predict_batch(&reqs, Some(1));
    let dropped: Vec<usize> = (0..out.len()).filter(|&k| out[k].is_none()).collect();
    assert_eq!(dropped.len(), 1, "exactly one request's worker panicked");
    assert_eq!(counter("online.batch.request_panic"), panics_before + 1);
    for (k, (got, want)) in out.iter().zip(&baseline).enumerate() {
        if k != dropped[0] {
            assert_eq!(got, want, "request {k} must be unaffected");
        }
    }
}

#[test]
fn recommendation_survives_item_scorer_panics() {
    let _s = scope();
    let m = model();
    let user = UserId::new(7);
    m.clear_caches();
    // Full serial ranking, minus the item whose scorer will panic.
    let expected: Vec<(ItemId, f64)> = m
        .recommend_top_n(user, m.matrix().num_items())
        .into_iter()
        .filter(|&(i, _)| i != ItemId::new(2))
        .take(5)
        .collect();

    let panics_before = counter("online.recommend.item_panic");
    fi::arm("recommend.item_panic", fi::Policy::Nth(3));
    let got = m.recommend_top_n_parallel(user, 5, Some(1));
    assert_eq!(counter("online.recommend.item_panic"), panics_before + 1);
    assert_eq!(got, expected, "only the panicked candidate may drop out");
}

// --- scenario 15: tracing under faults ----------------------------------

#[test]
fn panic_isolated_degraded_request_is_trace_captured() {
    let _s = scope();
    let m = model();
    cf_obs::trace::clear();
    let (user, item) = (UserId::new(37), ItemId::new(41));

    // The injected selection panic is caught inside top_k_users; the
    // request is served degraded AND its trace must be tail-kept (the
    // anomaly note forces retention regardless of head sampling).
    fi::arm("online.select_panic", fi::Policy::Once);
    m.clear_caches();
    let b = m.predict_with_breakdown(user, item).unwrap();
    assert!(fi::fired_count("online.select_panic") > 0);
    assert_in_scale(m, b.fused);
    assert!(
        b.level > DegradeLevel::Full,
        "a request with no neighbors cannot be served at full quality"
    );

    let dump = cf_obs::trace::snapshot();
    let t = dump
        .degraded
        .iter()
        .find(|t| t.user == user.raw() && t.item == item.raw())
        .expect("the panic-isolated request must have a captured trace");
    assert!(
        t.notes.contains(&"online.select_panic"),
        "the caught panic must be noted on the trace: {t:?}"
    );
    assert!(t.why & cf_obs::trace::keep::NOTE != 0);
    assert_eq!(t.level, b.level.as_str());
    assert_eq!(t.k_used, 0, "selection panicked: no neighbors were used");
    cf_obs::trace::clear();
}

// --- scenario 14, 16–19: self-healing refresh under faults --------------

/// First `n` unrated cells of the served matrix, usable as live ratings.
fn unrated_cells(m: &Cfsf, n: usize) -> Vec<(UserId, ItemId)> {
    let matrix = m.matrix();
    let mut out = Vec::with_capacity(n);
    'outer: for u in 0..matrix.num_users() {
        for i in 0..matrix.num_items() {
            let (user, item) = (UserId::from(u), ItemId::from(i));
            if matrix.get(user, item).is_none() {
                out.push((user, item));
                if out.len() == n {
                    break 'outer;
                }
            }
        }
    }
    out
}

#[test]
fn rebuild_panic_mid_swap_leaves_old_generation_serving() {
    let _s = scope();
    let healing = SelfHealingCfsf::new(fresh_model(), DriftConfig::manual()).unwrap();
    let cell = healing.cell();
    let gen0 = cell.load();
    let probes: Vec<(UserId, ItemId)> = requests().into_iter().step_by(29).collect();
    let baseline: Vec<Option<f64>> = probes.iter().map(|&(u, i)| gen0.predict(u, i)).collect();

    let scale = gen0.matrix().scale();
    for (user, item) in unrated_cells(&gen0, 8) {
        healing.add_rating(user, item, scale.min).unwrap();
    }
    let pending = healing.pending();
    assert!(pending > 0);

    let failed_before = counter("refresh.failed");
    let panicked_before = counter("refresh.panicked");
    fi::arm("refresh.worker_panic", fi::Policy::Once);
    let e = healing.refresh_now();
    assert!(e.is_err(), "the injected worker panic must surface as Err");
    assert_eq!(fi::fired_count("refresh.worker_panic"), 1);

    // The acceptance bar: old generation still serving, the failure
    // counted, the pending ratings restored for the retry.
    assert_eq!(healing.generation(), 0, "a failed rebuild must not publish");
    let after: Vec<Option<f64>> = probes
        .iter()
        .map(|&(u, i)| cell.load().predict(u, i))
        .collect();
    assert_eq!(after, baseline, "serving must be untouched by the panic");
    assert_eq!(counter("refresh.failed"), failed_before + 1);
    assert_eq!(counter("refresh.panicked"), panicked_before + 1);
    assert_eq!(
        healing.pending(),
        pending,
        "a panicked rebuild must not lose the ingested ratings"
    );
    // The drift/refresh state is visible on the stats surface.
    let snapshot = cf_obs::global().snapshot();
    assert!(snapshot.gauges.contains_key("drift.state"));
    assert!(snapshot.gauges.contains_key("refresh.generation"));

    // Once the fault clears, the very same refresh succeeds.
    fi::disarm("refresh.worker_panic");
    let report = healing.refresh_now().unwrap();
    assert_eq!(report.merged, pending);
    assert_eq!(healing.generation(), 1);
    assert_eq!(healing.pending(), 0);
}

#[test]
fn rebuild_failure_before_commit_restores_pending() {
    let _s = scope();
    let healing = SelfHealingCfsf::new(fresh_model(), DriftConfig::manual()).unwrap();
    let gen0 = healing.model();
    let probes: Vec<(UserId, ItemId)> = requests().into_iter().step_by(29).collect();
    let baseline: Vec<Option<f64>> = probes.iter().map(|&(u, i)| gen0.predict(u, i)).collect();
    let scale = gen0.matrix().scale();
    let cells = unrated_cells(&gen0, 4);
    for &(user, item) in &cells {
        healing.add_rating(user, item, scale.max).unwrap();
    }
    let pending = healing.pending();

    let failed_before = counter("refresh.failed");
    let panicked_before = counter("refresh.panicked");
    fi::arm("refresh.fail_before_commit", fi::Policy::Once);
    let e = healing.refresh_now();
    assert!(
        e.is_err(),
        "the injected commit failure must surface as Err"
    );
    assert_eq!(healing.generation(), 0);
    let after: Vec<Option<f64>> = probes
        .iter()
        .map(|&(u, i)| healing.model().predict(u, i))
        .collect();
    assert_eq!(after, baseline, "a failed rebuild must not change serving");
    assert_eq!(healing.pending(), pending, "failure must keep the delta");
    assert_eq!(counter("refresh.failed"), failed_before + 1);
    assert_eq!(
        counter("refresh.panicked"),
        panicked_before,
        "an error return is not a panic"
    );

    // Once the fault clears, the retried rebuild carries the ratings.
    healing.refresh_now().unwrap();
    assert_eq!(healing.generation(), 1);
    let (user, item) = cells[0];
    assert_eq!(healing.model().matrix().get(user, item), Some(scale.max));
}

#[test]
fn rebuild_worker_stall_never_blocks_readers() {
    let _s = scope();
    let healing = SelfHealingCfsf::new(fresh_model(), DriftConfig::manual()).unwrap();
    let cell = healing.cell();
    let gen0 = cell.load();
    let scale = gen0.matrix().scale();
    for (user, item) in unrated_cells(&gen0, 8) {
        healing.add_rating(user, item, scale.min).unwrap();
    }

    // The stall (250ms) runs on the background worker; readers must keep
    // loading and predicting at full speed meanwhile.
    fi::arm("refresh.worker_stall", fi::Policy::Always);
    assert!(healing.trigger(), "background trigger must start a rebuild");
    let mut served = 0u64;
    let start = std::time::Instant::now();
    while healing.generation() == 0 {
        for &(u, i) in requests().iter().step_by(13) {
            let m = cell.load();
            if let Some(p) = m.predict(u, i) {
                assert_in_scale(&m, p);
                served += 1;
            }
        }
        assert!(
            start.elapsed() < std::time::Duration::from_secs(20),
            "rebuild never finished behind the stall"
        );
    }
    healing.wait_idle();
    assert!(fi::fired_count("refresh.worker_stall") > 0);
    assert!(
        served > 0,
        "readers must have been served during the stalled rebuild"
    );
    assert_eq!(healing.generation(), 1);
}

#[test]
fn drift_storm_with_injected_faults_stays_rate_limited() {
    let _s = scope();
    // Thresholds at the floor: every ingested rating trips the detector.
    let healing = SelfHealingCfsf::new(fresh_model(), DriftConfig::sensitive()).unwrap();
    let gen0 = healing.model();
    let scale = gen0.matrix().scale();

    let started_before = counter("refresh.started");
    // Storm: a burst of maximally drifted ratings while the online path
    // is also under injected faults — the combination must not stack
    // rebuilds (cooldown + single-flight) and must not escape a panic.
    fi::arm_seeded("online.empty_neighbors", fi::Policy::Probability(0.25), 21);
    for (user, item) in unrated_cells(&gen0, 12) {
        let _ = healing.add_rating(user, item, scale.max);
    }
    healing.wait_idle();
    let launched = counter("refresh.started") - started_before;
    assert!(
        launched >= 1,
        "a floor-threshold storm must trigger at least one rebuild"
    );
    assert!(
        launched <= 2,
        "cooldown + single-flight must cap the storm, got {launched} rebuilds"
    );
    assert_ne!(healing.drift_state(), DriftState::Rebuilding);
    // The storm's rebuilds all published or failed visibly; either way
    // the serving cell answers soundly afterwards.
    let m = healing.model();
    for (u, i) in requests().into_iter().step_by(29) {
        if let Some(p) = m.predict(u, i) {
            assert_in_scale(&m, p);
        }
    }
}

// --- scenario 20: probabilistic chaos soak ------------------------------

#[test]
fn probabilistic_chaos_soak_serves_only_sound_predictions() {
    let _s = scope();
    let m = model();
    fi::arm_seeded("online.empty_neighbors", fi::Policy::Probability(0.25), 11);
    fi::arm_seeded("online.nan_estimator", fi::Policy::Probability(0.25), 12);
    fi::arm_seeded("batch.worker_panic", fi::Policy::Probability(0.02), 13);
    fi::arm_seeded("cache.poison", fi::Policy::Probability(0.02), 14);

    m.clear_caches();
    let reqs = requests();
    let out = m.predict_batch(&reqs, Some(4));
    // Under a storm of faults: no escaped panic (we got here), and every
    // answer that was served is finite and inside the rating scale.
    for p in out.iter().flatten() {
        assert_in_scale(m, *p);
    }
    assert!(
        fi::fired_count("online.empty_neighbors") + fi::fired_count("online.nan_estimator") > 0,
        "the soak must actually have injected faults"
    );

    // Disarm and the same model serves clean full-quality traffic again.
    fi::disarm_all();
    m.clear_caches();
    let healed = m.predict_batch(&reqs, Some(4));
    let serial: Vec<Option<f64>> = reqs.iter().map(|&(u, i)| m.predict(u, i)).collect();
    assert_eq!(healed, serial);
}

// --- scenario 21–22: bounded top-N under online-phase faults ------------

/// The exhaustive scan bounded top-N replaces: every unrated item of the
/// stripe through `predict`, ranked by `top_k_by_score`.
fn exhaustive_top_n(
    m: &Cfsf,
    user: UserId,
    n: usize,
    stripe: std::ops::Range<u32>,
) -> Vec<(ItemId, f64)> {
    cfsf_core::topk::top_k_by_score(
        n,
        stripe
            .map(ItemId::new)
            .filter(|&i| !m.matrix().is_rated(user, i))
            .filter_map(|i| m.predict(user, i).map(|r| (i, r))),
    )
}

/// Bounded top-N equals the exhaustive scan bit for bit on `m`, over the
/// whole catalog and three stripes, for a spread of users.
fn assert_top_n_matches_exhaustive(m: &Cfsf) {
    let items = m.matrix().num_items() as u32;
    for user in (0..80u32).step_by(9).map(UserId::new) {
        for n in [1usize, 10] {
            for stripe in [0..items, 0..40, 40..80, 80..items] {
                let got = m.recommend_top_n_in_range(user, n, stripe.clone());
                let want = exhaustive_top_n(m, user, n, stripe.clone());
                let bits = |v: &[(ItemId, f64)]| -> Vec<(ItemId, u64)> {
                    v.iter().map(|&(i, s)| (i, s.to_bits())).collect()
                };
                assert_eq!(bits(&got), bits(&want), "{user:?} n={n} {stripe:?}");
                for &(_, s) in &got {
                    assert_in_scale(m, s);
                }
            }
        }
    }
}

#[test]
fn bounded_top_n_with_empty_neighbor_selection_matches_exhaustive_scan() {
    let _s = scope();
    let m = fresh_model();
    fi::arm("online.empty_neighbors", fi::Policy::Always);
    // No neighbors: SUR' and SUIR' are missing everywhere, so every
    // item's bound is SIR' alone or +∞ (ladder rungs).
    assert_top_n_matches_exhaustive(&m);
    assert!(fi::fired_count("online.empty_neighbors") > 0);
    assert_eq!(
        m.predict_with_breakdown(UserId::new(9), ItemId::new(3))
            .unwrap()
            .k_used,
        0
    );
}

#[test]
fn bounded_top_n_with_nan_estimators_matches_exhaustive_scan() {
    let _s = scope();
    let m = fresh_model();
    let dropped_before = counter("online.degrade.nonfinite_estimator");
    fi::arm("online.nan_estimator", fi::Policy::Always);
    // Every SIR' is corrupted to NaN and sanitized away before the bound
    // is taken, exactly as fusion drops it.
    assert_top_n_matches_exhaustive(&m);
    assert!(fi::fired_count("online.nan_estimator") > 0);
    assert!(counter("online.degrade.nonfinite_estimator") > dropped_before);
}
