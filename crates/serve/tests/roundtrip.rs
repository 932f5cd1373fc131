//! In-process integration tests for the sharded serving tier: real TCP
//! sockets, real threads, one process. Shards and router run against the
//! same loaded model, so every remote answer can be compared bit-for-bit
//! with the in-process API.

#![allow(
    clippy::disallowed_types,
    reason = "fixtures fit the concrete model, then serve it through a ModelHandle"
)]

use std::sync::Arc;
use std::time::Duration;

use cf_matrix::{ItemId, UserId};
use cf_serve::client::{ClientOptions, ShardClient};
use cf_serve::frame::{Request, Response};
use cf_serve::router::{shard_for_user, Router, RouterConfig, RouterServer};
use cf_serve::server::{ServerOptions, ShardOptions, ShardServer};
use cfsf_core::{Cfsf, CfsfConfig, DegradeLevel};

fn model() -> Arc<Cfsf> {
    let d = cf_data::SyntheticConfig::small().generate();
    Arc::new(Cfsf::fit(&d.matrix, CfsfConfig::small()).unwrap())
}

fn spawn_shards(model: &Arc<Cfsf>, n: u32) -> Vec<ShardServer> {
    (0..n)
        .map(|i| {
            ShardServer::bind(
                "127.0.0.1:0",
                cf_serve::ModelHandle::fixed(Arc::clone(model)),
                ShardOptions {
                    shard_id: i,
                    server: ServerOptions::default(),
                },
            )
            .unwrap()
        })
        .collect()
}

/// Router config tuned for tests: small timeouts so a dead shard is
/// detected in milliseconds, not seconds.
fn fast_cfg(shards: &[ShardServer]) -> RouterConfig {
    RouterConfig {
        shards: shards.iter().map(|s| s.local_addr().to_string()).collect(),
        client: ClientOptions {
            connect_timeout: Duration::from_millis(300),
            io_timeout: Duration::from_millis(100),
            request_deadline: Duration::from_secs(2),
        },
        max_in_flight_per_shard: 64,
        retries: 1,
        backoff: Duration::from_millis(5),
        down_cooldown: Duration::from_millis(300),
    }
}

fn counter(name: &str) -> u64 {
    cf_obs::global().counter(name).get()
}

fn degrade_total() -> u64 {
    counter("online.degrade.user_mean") + counter("online.degrade.global_mean")
}

#[test]
fn shard_answers_bit_for_bit() {
    let model = model();
    let shard = ShardServer::bind(
        "127.0.0.1:0",
        cf_serve::ModelHandle::fixed(Arc::clone(&model)),
        ShardOptions {
            shard_id: 7,
            server: ServerOptions::default(),
        },
    )
    .unwrap();
    let mut client = ShardClient::connect(shard.local_addr(), ClientOptions::default()).unwrap();

    match client.request(&Request::Health).unwrap() {
        Response::Health(h) => {
            assert_eq!(h.shard_id, 7);
            assert_eq!(h.num_users, model.matrix().num_users() as u64);
            assert_eq!(h.num_items, model.matrix().num_items() as u64);
        }
        other => panic!("health answered {other:?}"),
    }

    match client.request(&Request::Profile).unwrap() {
        Response::Profile(p) => {
            assert_eq!(p.user_means.len(), model.matrix().num_users());
            assert_eq!(
                p.global_mean.to_bits(),
                model.matrix().global_mean().to_bits()
            );
        }
        other => panic!("profile answered {other:?}"),
    }

    let users = model.matrix().num_users() as u32;
    let items = model.matrix().num_items() as u32;
    for user in 0..users.min(10) {
        for item in (0..items).step_by(3) {
            let local = model
                .predict_with_breakdown(UserId::new(user), ItemId::new(item))
                .unwrap();
            match client.request(&Request::predict(user, item)).unwrap() {
                Response::Prediction(p) => {
                    assert_eq!(p.fused.to_bits(), local.fused.to_bits());
                    assert_eq!(p.level, local.level.code());
                    assert_eq!(p.fallback, local.used_fallback);
                }
                other => panic!("predict answered {other:?}"),
            }
        }
        let local = model.recommend_top_n(UserId::new(user), 5);
        match client
            .request(&Request::recommend_top_n(user, 5, 0, u32::MAX))
            .unwrap()
        {
            Response::TopN(remote) => {
                let local: Vec<(u32, u64)> =
                    local.iter().map(|(i, s)| (i.raw(), s.to_bits())).collect();
                let remote: Vec<(u32, u64)> =
                    remote.iter().map(|(i, s)| (*i, s.to_bits())).collect();
                assert_eq!(remote, local);
            }
            other => panic!("recommend answered {other:?}"),
        }
    }

    // Out-of-range ids get a typed error, not a closed connection: the
    // same client keeps working afterwards.
    match client.request(&Request::predict(users + 1000, 0)).unwrap() {
        Response::Error { code, .. } => assert_eq!(code, cf_serve::frame::ERR_OUT_OF_RANGE),
        other => panic!("out-of-range predict answered {other:?}"),
    }
    assert!(matches!(
        client.request(&Request::Health).unwrap(),
        Response::Health(_)
    ));

    shard.shutdown();
}

#[test]
fn shard_batch_answers_match_in_process_breakdowns_bit_for_bit() {
    let model = model();
    let shard = ShardServer::bind(
        "127.0.0.1:0",
        cf_serve::ModelHandle::fixed(Arc::clone(&model)),
        ShardOptions::default(),
    )
    .unwrap();
    let mut client = ShardClient::connect(shard.local_addr(), ClientOptions::default()).unwrap();

    let users = model.matrix().num_users() as u32;
    let items = model.matrix().num_items() as u32;
    // Deliberately shuffled order with out-of-range pairs mixed in: the
    // shard strip-sorts internally but must answer in request order, with
    // unpredictable pairs as None elements, not errors.
    let pairs: Vec<(u32, u32)> = (0..200u32)
        .map(|k| ((k.wrapping_mul(37) + 11) % (users + 2), (k * 13) % items))
        .chain([(users + 999, 0), (0, items + 999)])
        .collect();

    let served = client.predict_batch(pairs.clone()).unwrap();
    assert_eq!(served.len(), pairs.len());
    for (k, (&(u, i), remote)) in pairs.iter().zip(&served).enumerate() {
        let local = model.predict_with_breakdown(UserId::new(u), ItemId::new(i));
        match (remote, local) {
            (Some(r), Some(l)) => {
                assert_eq!(r.fused.to_bits(), l.fused.to_bits(), "pair {k}");
                assert_eq!(r.level, l.level.code(), "pair {k}");
                assert_eq!(r.fallback, l.used_fallback, "pair {k}");
            }
            (None, None) => {}
            other => panic!("pair {k} ({u},{i}): served vs local disagree: {other:?}"),
        }
    }
    // The same client keeps working after a batch.
    assert!(matches!(
        client.request(&Request::Health).unwrap(),
        Response::Health(_)
    ));

    shard.shutdown();
}

#[test]
fn router_matches_local_model_bit_for_bit() {
    let model = model();
    let shards = spawn_shards(&model, 2);
    let router = Router::connect(fast_cfg(&shards)).unwrap();

    let users = model.matrix().num_users() as u32;
    let items = model.matrix().num_items() as u32;
    for user in 0..users.min(12) {
        for item in (0..items).step_by(5) {
            let local = model
                .predict_with_breakdown(UserId::new(user), ItemId::new(item))
                .unwrap();
            let p = router.predict(user, item).unwrap();
            assert_eq!(p.fused.to_bits(), local.fused.to_bits());
            assert_eq!(p.level, local.level);
            assert_eq!(p.fallback, local.used_fallback);
            assert_eq!(p.shard, Some(shard_for_user(user, 2)));
        }
        // Scatter-gather over the stripes merges to exactly the
        // single-process top-N.
        let local: Vec<(u32, u64)> = model
            .recommend_top_n(UserId::new(user), 7)
            .iter()
            .map(|(i, s)| (i.raw(), s.to_bits()))
            .collect();
        let remote = router.recommend_top_n(user, 7).unwrap();
        assert!(remote.complete);
        let remote: Vec<(u32, u64)> = remote
            .items
            .iter()
            .map(|(i, s)| (*i, s.to_bits()))
            .collect();
        assert_eq!(remote, local);
    }

    assert!(router.predict(users + 1, 0).is_none());
    assert!(router.recommend_top_n(users + 1, 5).is_none());
    assert_eq!(counter("router.request_errors"), 0);

    for s in shards {
        s.shutdown();
    }
}

#[test]
fn dead_shard_degrades_and_never_errors() {
    let model = model();
    let mut shards = spawn_shards(&model, 2);
    let router = Router::connect(fast_cfg(&shards)).unwrap();
    let users = model.matrix().num_users() as u32;

    // Kill shard 1; its users must degrade to the fallback ladder, with
    // zero router-visible errors.
    let dead = shards.remove(1);
    dead.shutdown();

    let degrade_before = degrade_total();
    let fallback_before = counter("router.fallback_served");
    let mut dead_users = 0u32;
    for user in 0..users {
        let owner = shard_for_user(user, 2);
        let p = router.predict(user, 0).unwrap();
        if owner == 1 {
            dead_users += 1;
            assert!(p.fallback, "user {user} on the dead shard must degrade");
            assert!(
                matches!(p.level, DegradeLevel::UserMean | DegradeLevel::GlobalMean),
                "user {user} got {:?}",
                p.level
            );
            assert_eq!(p.shard, None);
            assert!(p.fused.is_finite());
        } else {
            // Users on the surviving shard are untouched: exact answers.
            let local = model
                .predict_with_breakdown(UserId::new(user), ItemId::new(0))
                .unwrap();
            assert_eq!(p.fused.to_bits(), local.fused.to_bits());
            assert_eq!(p.shard, Some(0));
        }
    }
    assert!(dead_users > 0, "hash should place some users on shard 1");
    assert!(
        degrade_total() >= degrade_before + u64::from(dead_users),
        "every dead-shard user must bump online.degrade.*"
    );
    assert!(counter("router.fallback_served") >= fallback_before + u64::from(dead_users));

    // Recommend still answers from the surviving stripe: partial,
    // ordered, never an error.
    let partial_before = counter("router.recommend.partial");
    let r = router.recommend_top_n(0, 5).unwrap();
    assert!(!r.complete);
    assert!(!r.items.is_empty(), "surviving stripe must contribute");
    assert!(r
        .items
        .windows(2)
        .all(|w| w[0].1 >= w[1].1 || (w[0].1 == w[1].1 && w[0].0 < w[1].0)));
    assert!(counter("router.recommend.partial") > partial_before);

    // The load-shed invariant the whole design exists for:
    assert_eq!(counter("router.request_errors"), 0);

    let (total, up) = router.shards_up();
    assert_eq!(total, 2);
    assert_eq!(up, 1);

    for s in shards {
        s.shutdown();
    }
}

#[test]
fn admission_bound_sheds_to_fallback() {
    let model = model();
    let shards = spawn_shards(&model, 1);
    let mut cfg = fast_cfg(&shards);
    // A zero bound sheds every request: the pathological limit of
    // admission control, and the easy way to test the shed path without
    // racing real traffic.
    cfg.max_in_flight_per_shard = 0;
    let router = Router::connect(cfg).unwrap();

    let shed_before = counter("router.shed_busy");
    let p = router.predict(0, 0).unwrap();
    assert!(p.fallback);
    assert!(matches!(
        p.level,
        DegradeLevel::UserMean | DegradeLevel::GlobalMean
    ));
    assert!(counter("router.shed_busy") > shed_before);
    assert_eq!(counter("router.request_errors"), 0);

    for s in shards {
        s.shutdown();
    }
}

#[test]
fn router_front_speaks_the_shard_protocol() {
    let model = model();
    let shards = spawn_shards(&model, 2);
    let router = Arc::new(Router::connect(fast_cfg(&shards)).unwrap());
    let front =
        RouterServer::bind("127.0.0.1:0", Arc::clone(&router), ServerOptions::default()).unwrap();

    // A client cannot tell the router from a shard: same frames, same
    // answers — and the health frame marks the front tier.
    let mut client = ShardClient::connect(front.local_addr(), ClientOptions::default()).unwrap();
    match client.request(&Request::Health).unwrap() {
        Response::Health(h) => {
            assert_eq!(h.shard_id, u32::MAX);
            assert_eq!(h.num_users, model.matrix().num_users() as u64);
        }
        other => panic!("health answered {other:?}"),
    }

    for user in 0..4u32 {
        let local = model
            .predict_with_breakdown(UserId::new(user), ItemId::new(1))
            .unwrap();
        match client.request(&Request::predict(user, 1)).unwrap() {
            Response::Prediction(p) => assert_eq!(p.fused.to_bits(), local.fused.to_bits()),
            other => panic!("predict answered {other:?}"),
        }
        let local: Vec<(u32, u64)> = model
            .recommend_top_n(UserId::new(user), 3)
            .iter()
            .map(|(i, s)| (i.raw(), s.to_bits()))
            .collect();
        match client
            .request(&Request::recommend_top_n(user, 3, 0, u32::MAX))
            .unwrap()
        {
            Response::TopN(remote) => {
                let remote: Vec<(u32, u64)> =
                    remote.iter().map(|(i, s)| (*i, s.to_bits())).collect();
                assert_eq!(remote, local);
            }
            other => panic!("recommend answered {other:?}"),
        }
    }

    // A shuffled batch, with one out-of-range user and one out-of-range
    // item mixed in, answers in request order exactly what the
    // in-process batch engine answers, `None` at the same positions.
    let users = model.matrix().num_users() as u32;
    let items = model.matrix().num_items() as u32;
    let mut pairs: Vec<(u32, u32)> = (0..48u32)
        .map(|k| ((k.wrapping_mul(37) + 11) % users, (k * 13 + 5) % items))
        .collect();
    pairs.insert(7, (users + 999, 0));
    pairs.insert(31, (0, items + 999));
    let local_pairs: Vec<(UserId, ItemId)> = pairs
        .iter()
        .map(|&(u, i)| (UserId::new(u), ItemId::new(i)))
        .collect();
    let local = model.predict_batch_with_breakdown(&local_pairs, None);
    let served = client.predict_batch(pairs.clone()).unwrap();
    assert_eq!(served.len(), local.len());
    for (k, (remote, local)) in served.iter().zip(&local).enumerate() {
        match (remote, local) {
            (Some(r), Some(l)) => {
                assert_eq!(r.fused.to_bits(), l.fused.to_bits(), "pair {k}");
                assert_eq!(r.level, l.level.code(), "pair {k}");
                assert_eq!(r.fallback, l.used_fallback, "pair {k}");
            }
            (None, None) => {}
            other => panic!("pair {k}: router vs local disagree: {other:?}"),
        }
    }
    assert!(served[7].is_none() && served[31].is_none());

    front.shutdown();
    for s in shards {
        s.shutdown();
    }
}
