//! Metric-consistency invariants under concurrent serving load.
//!
//! Counter math only holds if every hot-path increment is placed exactly
//! once; this suite races two full batches through the model and checks
//! the exact bookkeeping identities. It lives in its own integration
//! test file (its own process) so the global registry deltas are not
//! perturbed by unrelated tests, and its two tests serialize on a mutex
//! so they do not perturb each other's deltas either.

use cf_matrix::{ItemId, UserId};
use cfsf_core::{Cfsf, CfsfConfig};

const USERS: usize = 80;
const ITEMS: usize = 120;

/// Both tests measure deltas of the same global counters.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    static SERIAL: cf_obs::sync::RecoverMutex<()> = cf_obs::sync::RecoverMutex::new(());
    SERIAL.lock()
}

fn model() -> Cfsf {
    let d = cf_data::SyntheticConfig::small().generate();
    Cfsf::fit(&d.matrix, CfsfConfig::small()).expect("fit succeeds")
}

fn counter(name: &str) -> u64 {
    cf_obs::global()
        .snapshot()
        .counters
        .get(name)
        .copied()
        .unwrap_or(0)
}

const RUNGS: [&str; 6] = [
    "online.degrade.full",
    "online.degrade.partial_fusion",
    "online.degrade.single_estimator",
    "online.degrade.cluster_smoothed",
    "online.degrade.user_mean",
    "online.degrade.global_mean",
];

fn rung_sum() -> u64 {
    RUNGS.iter().map(|r| counter(r)).sum()
}

#[test]
fn degrade_and_cache_counters_balance_under_concurrent_load() {
    let _serial = serial();
    let m = std::sync::Arc::new(model());
    let requests: Vec<(UserId, ItemId)> = (0..600)
        .map(|k| {
            (
                UserId::new((k % USERS) as u32),
                ItemId::new(((k * 7) % ITEMS) as u32),
            )
        })
        .collect();
    let n = requests.len() as u64;

    let predictions_before = counter("online.predictions");
    let rungs_before = rung_sum();
    let hits_before = counter("online.neighbor_cache.hit");
    let misses_before = counter("online.neighbor_cache.miss");

    // Two OS threads race full batches (each itself 4-way parallel) over
    // a cold cache: worst-case contention on the sharded neighbor cache.
    m.clear_caches();
    let h1 = {
        let m = std::sync::Arc::clone(&m);
        let reqs = requests.clone();
        std::thread::spawn(move || m.predict_batch(&reqs, Some(4)))
    };
    let h2 = {
        let m = std::sync::Arc::clone(&m);
        let reqs = requests.clone();
        std::thread::spawn(move || m.predict_batch(&reqs, Some(4)))
    };
    let out1 = h1.join().expect("batch thread 1");
    let out2 = h2.join().expect("batch thread 2");
    assert_eq!(out1, out2, "racing batches must serve identical answers");
    assert!(
        out1.iter().all(Option::is_some),
        "all requests are in-range"
    );

    // --- Exact identity: every in-range prediction is served from
    // exactly one degradation rung.
    let predictions = counter("online.predictions") - predictions_before;
    assert_eq!(predictions, 2 * n, "one online.predictions per request");
    assert_eq!(
        rung_sum() - rungs_before,
        predictions,
        "every prediction lands on exactly one online.degrade.* rung"
    );

    // --- Exact identity: every top-K lookup is either a hit or a miss.
    // Each batch warms the USERS distinct users once, then each request
    // looks the user up again inside predict.
    let hits = counter("online.neighbor_cache.hit") - hits_before;
    let misses = counter("online.neighbor_cache.miss") - misses_before;
    let lookups = 2 * (USERS as u64) + 2 * n;
    assert_eq!(
        hits + misses,
        lookups,
        "every lookup must count as exactly one hit or miss"
    );
    // Cold cache: each of the USERS distinct users misses at least once;
    // two racing warms can at most double-miss each user.
    assert!(
        (USERS as u64..=2 * USERS as u64).contains(&misses),
        "misses {misses} outside [{USERS}, {}]",
        2 * USERS
    );
    assert!(hits >= 2 * n - misses, "the warmed lookups must mostly hit");
}

#[test]
fn estimator_counters_never_exceed_predictions() {
    let _serial = serial();
    let m = model();
    let before = counter("online.predictions");
    for u in 0..USERS {
        let _ = m.predict_with_breakdown(UserId::new(u as u32), ItemId::new((u % ITEMS) as u32));
    }
    let served = counter("online.predictions") - before;
    assert_eq!(served, USERS as u64);
    for est in [
        "online.estimator.sir",
        "online.estimator.sur",
        "online.estimator.suir",
    ] {
        assert!(
            counter(est) <= counter("online.predictions"),
            "{est} can fire at most once per prediction"
        );
    }
}
