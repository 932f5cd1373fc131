//! The workloads' inputs and the fleet that serves them: two
//! `ShardServer`s and one `RouterServer` on loopback TCP, brought up
//! through their public `bind` functions exactly as the `cfsf-cli serve`
//! and `cfsf_router` processes do, but hosted in this process.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

use cf_data::{GivenN, HoldoutCell, Protocol, SyntheticConfig, TrainSize};
use cf_matrix::{ItemId, RatingMatrix, UserId};
use cf_serve::{
    ClientOptions, ModelHandle, Request, Response, Router, RouterConfig, RouterServer,
    ServerOptions, ShardClient, ShardOptions, ShardServer,
};
use cfsf_core::{Cfsf, CfsfConfig, DriftConfig, SelfHealingCfsf};

use crate::streams::{Mix, Rng};
use crate::trace::SpanLog;

/// Shards in every fleet.
pub const SHARDS: usize = 2;
/// Worker threads of the offline phase (GIS, K-means, smoothing,
/// iCluster), pinned so set-up time does not follow the host.
pub const OFFLINE_THREADS: usize = 2;

/// The three named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Paper scale, Zipf point predictions with one top-10 in 64.
    FleetPoint,
    /// 6000 users × 3000 items, uniform top-10s: the working set
    /// outgrows L2 and the kernel dominates.
    ScaleTopn,
    /// Paper scale, predictions beside a writer that ingests ratings and
    /// swaps model generations.
    RefreshIngest,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Self::FleetPoint, Self::ScaleTopn, Self::RefreshIngest];

    /// Parses a `--workload` value.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Self::FleetPoint => "fleet_point",
            Self::ScaleTopn => "scale_topn",
            Self::RefreshIngest => "refresh_ingest",
        }
    }

    /// `(users, items)` of the generated dataset.
    pub fn shape(self) -> (usize, usize) {
        match self {
            Self::ScaleTopn => (6000, 3000),
            Self::FleetPoint | Self::RefreshIngest => (500, 1000),
        }
    }

    /// The router traffic of the timed window.
    pub fn mix(self) -> Mix {
        match self {
            Self::FleetPoint => Mix::Point { topn_every: 64 },
            Self::ScaleTopn => Mix::UniformTopN,
            Self::RefreshIngest => Mix::Point { topn_every: 0 },
        }
    }

    /// Closed-loop client connections sending router traffic.
    pub fn clients(self) -> usize {
        match self {
            Self::FleetPoint | Self::ScaleTopn => 2,
            // The second thread is the rating writer.
            Self::RefreshIngest => 1,
        }
    }

    /// Set-ups per untraced run; `setup_s` is their median. A
    /// scale-sized set-up takes seconds, a paper-scale one a fraction of
    /// one.
    pub fn setup_repeats(self) -> usize {
        match self {
            Self::ScaleTopn => 3,
            Self::FleetPoint | Self::RefreshIngest => 7,
        }
    }

    /// The Given-10 protocol whose training matrix the fleet serves and
    /// whose holdout cells give `mae`.
    fn protocol(self, seed: u64) -> Protocol {
        let p = match self {
            // 1000 test users, a fifth of them evaluated: about as many
            // holdout cells as at paper scale.
            Self::ScaleTopn => {
                Protocol::new(TrainSize::Users(5000), GivenN::Given10, 1000).with_test_fraction(0.2)
            }
            Self::FleetPoint | Self::RefreshIngest => {
                Protocol::paper(TrainSize::Users(300), GivenN::Given10)
            }
        };
        p.with_seed(seed ^ 0x5EED_5B1D)
    }

    /// The model configuration: the paper's, with the offline threads
    /// pinned.
    pub fn config(self) -> CfsfConfig {
        CfsfConfig {
            threads: Some(OFFLINE_THREADS),
            ..CfsfConfig::paper()
        }
    }
}

/// A rating the `refresh_ingest` writer feeds to the shards.
pub type Rating = (UserId, ItemId, f64);

/// Everything a workload's run needs, generated from the seed before any
/// timing starts.
pub struct Inputs {
    /// What the fleet is fitted on.
    pub train: RatingMatrix,
    /// Given-10 holdout cells, for `mae`.
    pub holdout: Vec<HoldoutCell>,
    /// `refresh_ingest` only: training ratings withheld from `train`, in
    /// the fixed order the writer applies them.
    pub withheld: Vec<Rating>,
}

/// Ratings the writer ingests, as a share of the training ratings: more
/// than the 10% full-refit threshold, so the stream drives both partial
/// and full rebuilds.
const WITHHELD_SHARE: f64 = 0.12;

impl Inputs {
    /// Generates the dataset, the protocol split and (for
    /// `refresh_ingest`) the withheld rating stream.
    pub fn generate(w: Workload, seed: u64) -> Self {
        let (users, items) = w.shape();
        let data = SyntheticConfig {
            num_users: users,
            num_items: items,
            ..SyntheticConfig::movielens()
        }
        .with_seed(seed)
        .generate();
        let split = w
            .protocol(seed)
            .split(&data)
            .expect("the workload shapes always have enough users for the protocol");
        if w != Workload::RefreshIngest {
            return Self {
                train: split.train,
                holdout: split.holdout,
                withheld: Vec::new(),
            };
        }
        // Withhold a seeded share of the training users' ratings; the
        // revealed Given-10 rows of test users stay, so `mae` keeps
        // measuring the same cells.
        let mut rng = Rng::new(seed, 0xFEED);
        let mut pool: Vec<Rating> = split
            .train
            .triplets()
            .filter(|&(u, _, _)| u.index() < split.train_users)
            .collect();
        rng.shuffle(&mut pool);
        pool.truncate((split.train.num_ratings() as f64 * WITHHELD_SHARE) as usize);
        let cells: Vec<(UserId, ItemId)> = pool.iter().map(|&(u, i, _)| (u, i)).collect();
        Self {
            train: split.train.without_cells(&cells),
            holdout: split.holdout,
            withheld: pool,
        }
    }
}

/// Drift triggers that never fire: rebuilds happen only when the writer
/// calls `trigger()`, so the generation sequence is fixed by the stream.
pub fn parked_drift() -> DriftConfig {
    DriftConfig {
        mae_trip_pm: i64::MAX,
        mae_clear_pm: 0,
        hist_trip_pm: i64::MAX,
        hist_clear_pm: 0,
        fallback_trip_pm: i64::MAX,
        fallback_clear_pm: 0,
        trip_windows: u32::MAX,
        ..DriftConfig::default()
    }
}

/// The model one shard serves.
pub enum ShardModel {
    /// A loaded model, fixed for the run.
    Fixed(Arc<Cfsf>),
    /// A self-healing model whose generation cell the shard reads.
    Healing(SelfHealingCfsf),
}

impl ShardModel {
    /// The generation the shard serves right now.
    pub fn current(&self) -> Arc<Cfsf> {
        match self {
            Self::Fixed(m) => Arc::clone(m),
            Self::Healing(h) => h.model(),
        }
    }

    /// The self-healing wrapper, for the `refresh_ingest` writer.
    pub fn healing(&self) -> Option<&SelfHealingCfsf> {
        match self {
            Self::Fixed(_) => None,
            Self::Healing(h) => Some(h),
        }
    }
}

/// How long each set-up step took, in seconds.
#[derive(Debug, Clone, Default)]
pub struct SetupTimes {
    /// Dataset in memory to the router's first answer.
    pub total_s: f64,
    /// `Cfsf::fit`.
    pub fit_s: f64,
    /// `Cfsf::save` into memory.
    pub save_s: f64,
    /// `Cfsf::load`, median over the shards.
    pub load_s: f64,
    /// Size of the saved model.
    pub model_bytes: usize,
    /// `model.bytes.planes` right after the fit.
    pub plane_bytes: i64,
}

/// A running fleet.
pub struct Fleet {
    /// The fitted model, kept in process as the correctness reference.
    pub reference: Arc<Cfsf>,
    /// Per shard, the model it serves.
    pub shards: Vec<ShardModel>,
    /// Shard listen addresses, in router stripe order.
    pub shard_addrs: Vec<SocketAddr>,
    /// The router front's listen address.
    pub router_addr: SocketAddr,
    servers: Vec<ShardServer>,
    front: RouterServer,
}

/// Client timeouts for every connection the benchmark opens: generous
/// enough that a scale-sized top-10 on a loaded host never times out.
pub fn client_options() -> ClientOptions {
    ClientOptions {
        request_deadline: std::time::Duration::from_secs(20),
        ..ClientOptions::default()
    }
}

impl Fleet {
    /// Fits, saves, loads one copy per shard, binds the shards and the
    /// router, and waits for the router's first answer. With `spans`,
    /// each public call is recorded as a span under one `setup` span.
    pub fn start(
        train: &RatingMatrix,
        config: CfsfConfig,
        healing: bool,
        mut spans: Option<&mut SpanLog>,
    ) -> std::io::Result<(Self, SetupTimes)> {
        let mut t = SetupTimes::default();
        let start = Instant::now();
        let root = spans.as_deref_mut().map(|s| s.open("setup", 0, 0));
        let step = |spans: &mut Option<&mut SpanLog>, name: &'static str, from: Instant| {
            if let (Some(s), Some(root)) = (spans.as_deref_mut(), root) {
                s.record(name, root, 0, from, Instant::now());
            }
            from.elapsed().as_secs_f64()
        };

        let t0 = Instant::now();
        let reference = Arc::new(Cfsf::fit(train, config).map_err(std::io::Error::other)?);
        t.fit_s = step(&mut spans, "core.fit", t0);
        t.plane_bytes = cf_obs::global().gauge("model.bytes.planes").get();

        let t0 = Instant::now();
        let mut bytes = Vec::new();
        reference.save(&mut bytes)?;
        t.save_s = step(&mut spans, "core.persist_save", t0);
        t.model_bytes = bytes.len();

        let mut shards = Vec::with_capacity(SHARDS);
        let mut loads = Vec::with_capacity(SHARDS);
        for _ in 0..SHARDS {
            let t0 = Instant::now();
            let model = Cfsf::load(bytes.as_slice()).map_err(std::io::Error::other)?;
            loads.push(step(&mut spans, "core.persist_load", t0));
            shards.push(if healing {
                ShardModel::Healing(
                    SelfHealingCfsf::new(model, parked_drift()).map_err(std::io::Error::other)?,
                )
            } else {
                ShardModel::Fixed(Arc::new(model))
            });
        }
        t.load_s = crate::stats::median_of(&loads).unwrap_or(0.0);

        let mut servers = Vec::with_capacity(SHARDS);
        for (id, shard) in shards.iter().enumerate() {
            let t0 = Instant::now();
            let handle = match shard {
                ShardModel::Fixed(m) => ModelHandle::fixed(Arc::clone(m)),
                ShardModel::Healing(h) => ModelHandle::from_cell(h.cell()),
            };
            let opts = ShardOptions {
                shard_id: id as u32,
                server: ServerOptions::default(),
            };
            servers.push(ShardServer::bind("127.0.0.1:0", handle, opts)?);
            step(&mut spans, "serve.shard_bind", t0);
        }
        let shard_addrs: Vec<SocketAddr> = servers.iter().map(ShardServer::local_addr).collect();

        let t0 = Instant::now();
        let router = Router::connect(RouterConfig {
            shards: shard_addrs.iter().map(ToString::to_string).collect(),
            client: client_options(),
            ..RouterConfig::default()
        })
        .map_err(std::io::Error::other)?;
        step(&mut spans, "serve.router_connect", t0);

        let t0 = Instant::now();
        let front = RouterServer::bind("127.0.0.1:0", Arc::new(router), ServerOptions::default())?;
        let router_addr = front.local_addr();
        step(&mut spans, "serve.router_bind", t0);

        let t0 = Instant::now();
        let mut client = ShardClient::connect(router_addr, client_options())?;
        match client.request(&Request::predict(0, 0)) {
            Ok(Response::Prediction(_)) => {}
            other => {
                return Err(std::io::Error::other(format!(
                    "router's first answer was {other:?}"
                )))
            }
        }
        step(&mut spans, "serve.first_answer", t0);
        t.total_s = start.elapsed().as_secs_f64();
        if let (Some(s), Some(root)) = (spans, root) {
            s.close(root);
        }
        Ok((
            Self {
                reference,
                shards,
                shard_addrs,
                router_addr,
                servers,
                front,
            },
            t,
        ))
    }

    /// Stops the router front and the shards, joining every server
    /// thread, and waits for any rebuild still in flight.
    pub fn shutdown(self) {
        self.front.shutdown();
        for s in self.servers {
            s.shutdown();
        }
        for shard in &self.shards {
            if let Some(h) = shard.healing() {
                h.wait_idle();
            }
        }
    }
}
