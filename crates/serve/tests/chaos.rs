//! Chaos tests for the serving tier, gated on the `faultinject` feature:
//!
//! - a shard that drops connections mid-request (response computed,
//!   never written) must cost the router retries — never request errors;
//! - a background model refresh stalled (or the shard killed) mid-swap
//!   must never pause or fail a request: readers stay on the old
//!   generation until the publish, and a killed serving tier does not
//!   stop the rebuild from completing.
//!
//! Run with `cargo test -p cf-serve --features faultinject`. Scenarios
//! share the global fault registry, so they serialize on a mutex and
//! disarm everything on entry.

#![cfg(feature = "faultinject")]
#![allow(
    clippy::disallowed_types,
    reason = "fixtures fit the concrete model, then serve it through a ModelHandle"
)]

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use cf_matrix::{ItemId, UserId};
use cf_serve::client::ClientOptions;
use cf_serve::frame::{Request, Response};
use cf_serve::router::{Router, RouterConfig};
use cf_serve::server::{ShardOptions, ShardServer};
use cf_serve::{ModelHandle, ShardClient};
use cfsf_core::{Cfsf, CfsfConfig, DriftConfig, SelfHealingCfsf};

static FAULTS: Mutex<()> = Mutex::new(());

fn scenario() -> MutexGuard<'static, ()> {
    let lock = FAULTS.lock().unwrap_or_else(PoisonError::into_inner);
    cf_faultinject::disarm_all();
    lock
}

fn fitted() -> Cfsf {
    let d = cf_data::SyntheticConfig::small().generate();
    Cfsf::fit(&d.matrix, CfsfConfig::small()).unwrap()
}

fn model() -> Arc<Cfsf> {
    Arc::new(fitted())
}

fn counter(name: &str) -> u64 {
    cf_obs::global().counter(name).get()
}

#[test]
fn dropped_connections_cost_retries_not_errors() {
    let _guard = scenario();
    let model = model();
    let shard = ShardServer::bind(
        "127.0.0.1:0",
        ModelHandle::fixed(Arc::clone(&model)),
        ShardOptions::default(),
    )
    .unwrap();

    // Fire on every 5th request served: the shard computes the answer,
    // then hangs up without writing it. The router sees a dead
    // connection mid-exchange — the worst moment to lose a shard.
    cf_faultinject::arm(
        "serve.shard.drop_conn",
        cf_faultinject::Policy::Probability(0.2),
    );

    let router = Router::connect(RouterConfig {
        shards: vec![shard.local_addr().to_string()],
        client: ClientOptions {
            connect_timeout: Duration::from_millis(300),
            io_timeout: Duration::from_millis(100),
            request_deadline: Duration::from_secs(2),
        },
        max_in_flight_per_shard: 64,
        // Generous retries: each drop kills one pooled connection, and
        // the next attempt reconnects to a still-alive shard.
        retries: 3,
        backoff: Duration::from_millis(2),
        down_cooldown: Duration::from_millis(100),
    })
    .unwrap();

    let users = model.matrix().num_users() as u32;
    let mut exact = 0u32;
    let mut degraded = 0u32;
    for round in 0..4 {
        for user in 0..users {
            let item = round % model.matrix().num_items() as u32;
            let p = router.predict(user, item).unwrap();
            assert!(p.fused.is_finite());
            if p.shard.is_some() {
                // A shard answer must still be bit-for-bit right, chaos
                // or not.
                let local = model
                    .predict_with_breakdown(UserId::new(user), ItemId::new(item))
                    .unwrap();
                assert_eq!(p.fused.to_bits(), local.fused.to_bits());
                exact += 1;
            } else {
                degraded += 1;
            }
        }
    }
    // Read the counts before disarming: disarm drops the point (and its
    // counters) from the registry.
    let fired = cf_faultinject::fired_count("serve.shard.drop_conn");
    cf_faultinject::disarm("serve.shard.drop_conn");

    assert!(
        fired > 0,
        "the chaos point must actually fire for this test to mean anything"
    );
    assert!(exact > 0, "most requests should survive via retry");
    // Some requests may degrade (drop exhausted the retries) — that is
    // the designed behavior. What must NOT happen is an error:
    assert_eq!(counter("router.request_errors"), 0);
    assert!(
        counter("router.retries") > 0,
        "drops must surface as retries"
    );
    let _ = degraded;

    shard.shutdown();
}

/// Unrated cells of the served matrix, usable as fresh live ratings.
fn unrated(model: &Cfsf, n: usize) -> Vec<(UserId, ItemId)> {
    let m = model.matrix();
    let mut out = Vec::with_capacity(n);
    'outer: for u in 0..m.num_users() {
        for i in 0..m.num_items() {
            let (user, item) = (UserId::from(u), ItemId::from(i));
            if m.get(user, item).is_none() {
                out.push((user, item));
                if out.len() == n {
                    break 'outer;
                }
            }
        }
    }
    out
}

fn client_opts() -> ClientOptions {
    ClientOptions {
        connect_timeout: Duration::from_millis(300),
        io_timeout: Duration::from_millis(500),
        request_deadline: Duration::from_secs(2),
    }
}

#[test]
fn shard_kill_during_refresh_neither_blocks_serving_nor_kills_rebuild() {
    let _guard = scenario();

    // Self-healing model behind the generation cell; the shard serves
    // through `ModelHandle::from_cell`, so a publish swaps it live.
    let healing = SelfHealingCfsf::new(fitted(), DriftConfig::manual()).unwrap();
    let cell = healing.cell();
    let gen0 = cell.load();
    let shard = ShardServer::bind(
        "127.0.0.1:0",
        ModelHandle::from_cell(Arc::clone(&cell)),
        ShardOptions::default(),
    )
    .unwrap();

    let mut client = ShardClient::connect(shard.local_addr(), client_opts()).unwrap();
    match client.request(&Request::Health).unwrap() {
        Response::Health(h) => assert_eq!(h.generation, 0, "fresh shard serves generation 0"),
        other => panic!("expected Health, got {other:?}"),
    }

    // Merge fresh ratings, then stall the rebuild worker mid-build: the
    // refresh is now provably in flight while we keep serving.
    let scale = gen0.matrix().scale();
    for (user, item) in unrated(&gen0, 16) {
        healing.add_rating(user, item, scale.min).unwrap();
    }
    cf_faultinject::arm("refresh.worker_stall", cf_faultinject::Policy::Always);
    assert!(healing.trigger(), "manual trigger must start the rebuild");

    // While the worker is stalled, wire requests are answered from
    // generation 0 bit-for-bit — the rebuild never pauses the shard.
    let (users, items) = (
        gen0.matrix().num_users() as u32,
        gen0.matrix().num_items() as u32,
    );
    for k in 0..16u32 {
        let (user, item) = (k % users, (k * 3) % items);
        match client.request(&Request::predict(user, item)).unwrap() {
            Response::Prediction(p) => {
                let local = gen0
                    .predict_with_breakdown(UserId::new(user), ItemId::new(item))
                    .unwrap();
                assert_eq!(
                    p.fused.to_bits(),
                    local.fused.to_bits(),
                    "request served during the stalled rebuild diverged from \
                     the old generation"
                );
            }
            other => panic!("expected Prediction, got {other:?}"),
        }
    }
    assert_eq!(
        healing.generation(),
        0,
        "the worker stall must have held the publish back while we served"
    );
    assert!(
        cf_faultinject::fired_count("refresh.worker_stall") > 0,
        "the stall point must actually fire for this test to mean anything"
    );

    // Kill the serving tier mid-refresh. The model tier must not care:
    // the rebuild still completes and publishes.
    drop(client);
    shard.shutdown();
    cf_faultinject::disarm("refresh.worker_stall");
    healing.wait_idle();
    assert_eq!(
        healing.generation(),
        1,
        "the rebuild must publish even with the serving tier gone"
    );

    // A replacement shard over the same cell serves the new generation
    // immediately — recovery is just re-binding.
    let shard = ShardServer::bind(
        "127.0.0.1:0",
        ModelHandle::from_cell(Arc::clone(&cell)),
        ShardOptions::default(),
    )
    .unwrap();
    let mut client = ShardClient::connect(shard.local_addr(), client_opts()).unwrap();
    match client.request(&Request::Health).unwrap() {
        Response::Health(h) => assert_eq!(h.generation, 1, "replacement shard serves generation 1"),
        other => panic!("expected Health, got {other:?}"),
    }
    shard.shutdown();
}
