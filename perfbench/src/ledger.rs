//! The traced run's layer ledger: the offline stages timed one public
//! call at a time, and the workload's request streams replayed at each
//! layer boundary (in process, straight to one shard, through the
//! router), one request at a time on one connection. The difference
//! between one layer's median and the next is the outer layer's self
//! time.

use std::hint::black_box;
use std::net::SocketAddr;
use std::time::Instant;

use cf_cluster::{ICluster, KMeans, KMeansConfig, Smoother};
use cf_matrix::{ItemId, RatingMatrix, UserId, WeightPlanes};
use cf_serve::ShardClient;
use cf_similarity::Gis;
use cfsf_core::{Cfsf, CfsfConfig};

use crate::drive::{exchange, Outcome};
use crate::fleet::{client_options, Fleet};
use crate::report::Report;
use crate::stats::Summary;
use crate::streams::{Req, TOP_N};
use crate::trace::SpanLog;

/// Times the offline stages `Cfsf::fit` runs, each through its own
/// public call with the configuration `fit` derives from `config`.
pub fn offline_stages(
    train: &RatingMatrix,
    config: &CfsfConfig,
    log: &mut SpanLog,
    report: &mut Report,
) {
    let root = log.open("offline_stages", 0, 0);
    let timed = |log: &mut SpanLog, name: &'static str, t0: Instant, report: &mut Report| {
        let t1 = Instant::now();
        log.record(name, root, 0, t0, t1);
        report.value(&format!("{name}_s"), (t1 - t0).as_secs_f64(), "s");
    };

    let mut gis_config = config.gis.clone();
    if let Some(cap) = gis_config.max_neighbors {
        gis_config.max_neighbors = Some(cap.max(config.m));
    }
    gis_config.threads = gis_config.threads.or(config.threads);
    let t0 = Instant::now();
    black_box(Gis::build(train, &gis_config));
    timed(log, "similarity.gis_build", t0, report);

    let kmeans = KMeansConfig {
        k: config.clusters,
        max_iterations: config.kmeans_iterations,
        seed: config.seed,
        threads: config.threads,
        ..Default::default()
    };
    let t0 = Instant::now();
    let clusters = KMeans::fit(train, &kmeans);
    timed(log, "cluster.kmeans", t0, report);

    let t0 = Instant::now();
    let smoothed = Smoother::smooth(train, &clusters, config.threads);
    timed(log, "cluster.smooth", t0, report);

    let t0 = Instant::now();
    black_box(ICluster::build(train, &smoothed, config.threads));
    timed(log, "cluster.icluster", t0, report);

    let t0 = Instant::now();
    black_box(WeightPlanes::from_dense_with(
        &smoothed.dense,
        config.w,
        config.plane_precision,
    ));
    timed(log, "matrix.planes_build", t0, report);
    log.close(root);
}

/// Neighbour selection on `model`, timed around `top_k_users`: each round
/// clears the cache, selects every user once (misses), then once more
/// (hits), until both sets hold at least `min_samples`.
pub fn selection(
    model: &Cfsf,
    users: &[u32],
    min_samples: usize,
    log: &mut SpanLog,
    report: &mut Report,
) {
    let root = log.open("replay.selection", 0, 0);
    let (mut miss, mut hit) = (Vec::new(), Vec::new());
    while miss.len() < min_samples && !users.is_empty() {
        model.clear_caches();
        for pass in [&mut miss, &mut hit] {
            for &u in users {
                let t0 = Instant::now();
                black_box(model.top_k_users(UserId::new(u)));
                pass.push(t0.elapsed().as_secs_f64() * 1e6);
            }
        }
    }
    log.close(root);
    report.latency("core.select_miss", &Summary::of(&miss), "us");
    report.latency("core.select_hit", &Summary::of(&hit), "us");
}

/// Sends `reqs` one at a time on a fresh connection to `addr`; returns
/// latencies in microseconds, or `None` if any request failed.
fn over_wire(
    addr: SocketAddr,
    reqs: &[Req],
    timed: bool,
    log: &mut SpanLog,
    span: &'static str,
) -> Option<Vec<f64>> {
    let mut client = ShardClient::connect(addr, client_options()).ok()?;
    let root = log.open(span, 0, 0);
    let mut lat = Vec::with_capacity(reqs.len());
    for (k, &r) in reqs.iter().enumerate() {
        let t0 = Instant::now();
        let out = exchange(&mut client, r).ok()?;
        let t1 = Instant::now();
        if matches!(out, Outcome::Failed) {
            return None;
        }
        if timed {
            log.record("request", root, k as u64 + 1, t0, t1);
        }
        lat.push((t1 - t0).as_secs_f64() * 1e6);
    }
    log.close(root);
    Some(lat)
}

/// In-process latencies of `reqs` through `call`, in microseconds.
fn in_process(
    reqs: &[Req],
    log: &mut SpanLog,
    span: &'static str,
    mut call: impl FnMut(Req),
) -> Vec<f64> {
    let root = log.open(span, 0, 0);
    let lat = reqs
        .iter()
        .enumerate()
        .map(|(k, &r)| {
            let t0 = Instant::now();
            call(r);
            let t1 = Instant::now();
            log.record("request", root, k as u64 + 1, t0, t1);
            (t1 - t0).as_secs_f64() * 1e6
        })
        .collect();
    log.close(root);
    lat
}

/// Predict latency of `model` in process (`core.predict_us`): the fast
/// path, after one untimed pass that warms the neighbour cache.
pub fn core_predict(model: &Cfsf, reqs: &[Req], log: &mut SpanLog) -> Summary {
    let predict = |r| {
        if let Req::Predict { user, item } = r {
            black_box(model.predict_with_breakdown(UserId::new(user), ItemId::new(item)));
        }
    };
    reqs.iter().copied().for_each(predict);
    Summary::of(&in_process(reqs, log, "replay.core.predict", predict))
}

/// Replays `predicts` and `topns` on `model` (shard 0's, in process),
/// straight to shard 0, and through the router, recording each layer's
/// latency and the self time between layers. Returns `false` if a
/// request failed.
pub fn layers(
    fleet: &Fleet,
    model: &Cfsf,
    predicts: &[Req],
    topns: &[Req],
    log: &mut SpanLog,
    report: &mut Report,
) -> bool {
    let core = core_predict(model, predicts, log);
    report.latency("core.predict", &core, "us");
    let reference = Summary::of(&in_process(predicts, log, "replay.core.predict_ref", |r| {
        if let Req::Predict { user, item } = r {
            black_box(model.predict_with_breakdown_ref(UserId::new(user), ItemId::new(item)));
        }
    }));
    report.latency("core.predict_ref", &reference, "us");

    // One untimed pass warms each shard's own neighbour cache.
    let shard = fleet.shard_addrs[0];
    let router = fleet.router_addr;
    let wire = |addr, reqs: &[Req], span, log: &mut SpanLog| {
        over_wire(addr, reqs, false, log, "warm")?;
        over_wire(addr, reqs, true, log, span).map(|l| Summary::of(&l))
    };
    let Some(shard_p) = wire(shard, predicts, "replay.shard.predict", log) else {
        return false;
    };
    report.latency("serve.shard_predict", &shard_p, "us");
    let Some(router_p) = wire(router, predicts, "replay.router.predict", log) else {
        return false;
    };
    report.latency("serve.router_predict", &router_p, "us");

    let core_t = Summary::of(&in_process(topns, log, "replay.core.topn", |r| {
        if let Req::TopN { user } = r {
            black_box(model.recommend_top_n(UserId::new(user), TOP_N as usize));
        }
    }));
    report.latency("core.topn", &core_t, "us");
    let Some(shard_t) = over_wire(shard, topns, true, log, "replay.shard.topn") else {
        return false;
    };
    let shard_t = Summary::of(&shard_t);
    report.latency("serve.shard_topn", &shard_t, "us");
    let Some(router_t) = over_wire(router, topns, true, log, "replay.router.topn") else {
        return false;
    };
    let router_t = Summary::of(&router_t);
    report.latency("serve.router_topn", &router_t, "us");

    let p50 = |s: &Summary| s.median().unwrap_or(f64::NAN);
    report.value("core.kernel_speedup", p50(&reference) / p50(&core), "ratio");
    report.value("serve.wire_us", p50(&shard_p) - p50(&core), "us");
    report.value("serve.router_hop_us", p50(&router_p) - p50(&shard_p), "us");
    report.value(
        "serve.scatter_gain",
        p50(&shard_t) / p50(&router_t),
        "ratio",
    );
    true
}
