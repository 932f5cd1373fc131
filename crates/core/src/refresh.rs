//! Drift-aware self-healing serving: a background refresh loop that
//! rebuilds the model when the live traffic stops looking like the data
//! it was fitted on, and publishes each rebuild through an RCU-style
//! **generation cell** so no request ever blocks on (or observes a torn)
//! rebuild. It is also the one ingest path for new ratings — the paper's
//! future-work items "how it can keep GIS up-to-date" and absorbing new
//! ratings without refitting from scratch (§VI).
//!
//! Three pieces:
//!
//! - [`GenCellCore`] — the generation pointer. Readers take an `Arc`
//!   snapshot of the current model plus its generation number in one
//!   consistent pair; a writer publishes a fully built replacement with
//!   one pointer swap. Like the sharded neighbor cache it is written
//!   generically over [`cf_obs::sync::Shim`], so the `cf-analysis`
//!   model checker explores the *same* swap/reader logic production
//!   runs ([`GenCell`] is the `std` instantiation).
//! - [`DriftMonitor`] — the tripwire. Owns the model's windowed online
//!   MAE ([`cf_obs::quality::MaeWindow`]) and its ingest-rating histogram
//!   ([`cf_obs::drift::DriftWindow`]), reads the process-wide
//!   degradation-ladder fallback rate, and applies **hysteresis** (trip
//!   high, clear low, N consecutive tripped windows, post-rebuild
//!   cooldown) so a flapping signal can never cause a rebuild storm.
//! - [`SelfHealingCfsf`] — the loop. Ingests live ratings (dirty-user /
//!   stale-item tracking bounds the incremental rebuild to what
//!   actually changed), and when the monitor trips — or on
//!   [`SelfHealingCfsf::trigger`] / [`SelfHealingCfsf::refresh_now`] —
//!   rebuilds and publishes the result through the cell. A panicking or
//!   failing rebuild is caught, counted (`refresh.failed`), and leaves
//!   the old generation serving with the pending ratings restored.
//!
//! A rebuild is either **partial** — the GIS rows of the touched items
//! are rebuilt ([`cf_similarity::Gis::rebuild_items`]) and smoothing and
//! iCluster re-run over the merged matrix with the K-means assignment
//! kept — or **full**, a refit with K-means included. Partial rebuilds
//! are exact for the GIS (up to neighbor-cap eviction, see
//! `rebuild_items`) and for smoothing/iCluster; the one approximation is
//! the frozen cluster assignment, which drifts as users accumulate
//! ratings, so the rebuild escalates to a full refit once enough churn
//! accumulates ([`DriftConfig::full_refit_fraction`]).

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cf_matrix::{ItemId, MatrixBuilder, RatingMatrix, UserId};
use cf_obs::drift::DriftWindow;
use cf_obs::quality::MaeWindow;
use cf_obs::sync::{RecoverMutex, Shim, ShimAtomicU64, ShimRwLock, StdShim};

use crate::{Cfsf, CfsfError};

// --------------------------------------------------------------------------
// Generation cell
// --------------------------------------------------------------------------

/// An RCU-style generation pointer: readers snapshot `Arc<T>` (and the
/// generation number it was published under) without ever blocking on a
/// writer building the next generation; the writer's only critical
/// section is the pointer swap itself.
///
/// Memory ordering: the `Arc` lives behind the shim's reader-writer
/// lock, so the happens-before edge between `publish` and a later
/// `load` is carried by the lock, not by atomic orderings — the
/// generation counter is bumped *inside* the write guard and read
/// *inside* the read guard, which is why [`Self::load_with_generation`]
/// can never observe a torn (model, generation) pair. The standalone
/// [`Self::generation`] read is a relaxed atomic load: monotone, cheap,
/// and allowed to lag a concurrent publish by design (it feeds gauges
/// and staleness probes, not correctness).
///
/// Poison recovery mirrors the sharded cache: the data is an `Arc`
/// snapshot (always internally consistent), so a reader that observes
/// poison recovers the guard, clones, and clears the flag — one
/// panicking holder cannot take serving down.
pub struct GenCellCore<S: Shim, T: Send + Sync + 'static> {
    slot: S::RwLock<Arc<T>>,
    generation: S::AtomicU64,
}

impl<S: Shim, T: Send + Sync + 'static> GenCellCore<S, T> {
    /// A fresh cell serving `initial` as generation 0.
    pub fn new(initial: Arc<T>) -> Self {
        Self {
            slot: S::RwLock::new(initial),
            generation: S::AtomicU64::new(0),
        }
    }

    fn recover(&self) -> Arc<T> {
        cf_obs::counter!("refresh.gen_cell.poison_recovered").inc();
        let snapshot = Arc::clone(&*self.slot.write_recover());
        self.slot.clear_poison();
        snapshot
    }

    /// The currently served generation's value. Wait-free for practical
    /// purposes: the read guard is held only for one `Arc` clone.
    pub fn load(&self) -> Arc<T> {
        match self.slot.read() {
            Ok(guard) => Arc::clone(&guard),
            Err(_) => self.recover(),
        }
    }

    /// The served value together with the generation it was published
    /// under, as one consistent pair.
    pub fn load_with_generation(&self) -> (Arc<T>, u64) {
        match self.slot.read() {
            Ok(guard) => (Arc::clone(&guard), self.generation.load(Ordering::Relaxed)),
            Err(_) => {
                let snapshot = self.recover();
                let gen = self.generation.load(Ordering::Relaxed);
                (snapshot, gen)
            }
        }
    }

    /// The current generation number (starts at 0, bumps on every
    /// [`Self::publish`]).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Relaxed)
    }

    /// Publishes `next` as the new serving generation and returns its
    /// generation number. In-flight readers keep their snapshots; new
    /// readers see `next`. The old generation is freed when its last
    /// reader drops its `Arc` — classic RCU reclamation.
    pub fn publish(&self, next: Arc<T>) -> u64 {
        let mut guard = self.slot.write_recover();
        // Relaxed is sound here: every generation access is paired with a
        // slot-lock acquisition, and the lock's acquire/release edges
        // order the pair (the gen-swap model checks exactly this).
        let gen = self.generation.load(Ordering::Relaxed) + 1;
        *guard = next;
        self.generation.store(gen, Ordering::Relaxed);
        self.slot.clear_poison();
        gen
    }

    /// Instrumentation for tests and the model checker: poison the slot
    /// as a panicking writer would.
    pub fn poison_slot(&self) {
        self.slot.poison();
    }

    /// Whether the slot is currently poisoned (before any reader ran the
    /// recovery protocol).
    pub fn is_poisoned(&self) -> bool {
        self.slot.is_poisoned()
    }
}

/// The production generation cell: [`GenCellCore`] over plain `std`
/// primitives.
pub type GenCell<T> = GenCellCore<StdShim, T>;

// --------------------------------------------------------------------------
// Drift detection
// --------------------------------------------------------------------------

/// Thresholds and pacing for the drift detector. Every signal has a
/// **trip** threshold and a lower **clear** threshold (hysteresis): the
/// tripped-streak only grows while a signal is above trip, and only
/// resets once *all* signals fall below their clear thresholds, so a
/// signal oscillating inside the band cannot flap the detector.
#[derive(Debug, Clone)]
pub struct DriftConfig {
    /// Trip when windowed MAE exceeds its baseline by this many per
    /// mille (relative regression; 200 = 20% worse).
    pub mae_trip_pm: i64,
    /// The MAE signal clears below this regression (must be ≤ trip).
    pub mae_clear_pm: i64,
    /// Trip when the ingest-stream rating histogram is this far (total
    /// variation, per mille) from the training distribution.
    pub hist_trip_pm: i64,
    /// The distribution signal clears below this (must be ≤ trip).
    pub hist_clear_pm: i64,
    /// Trip when the degradation ladder serves this per-mille of
    /// requests from its fallback region.
    pub fallback_trip_pm: i64,
    /// The fallback-rate signal clears below this (must be ≤ trip).
    pub fallback_clear_pm: i64,
    /// Consecutive tripped evaluations required before a rebuild is
    /// triggered (debounces one-window spikes).
    pub trip_windows: u32,
    /// Minimum time between rebuilds. Even with thresholds at the
    /// floor, rebuilds cannot come closer together than this.
    pub cooldown: Duration,
    /// Observations (MAE window + ingest window) required before a
    /// signal counts — a three-sample window proves nothing.
    pub min_observations: usize,
    /// Escalate the rebuild from partial to a full refit once the churn
    /// merged since the last full refit exceeds this fraction of the
    /// matrix's ratings.
    pub full_refit_fraction: f64,
}

impl Default for DriftConfig {
    fn default() -> Self {
        Self {
            mae_trip_pm: 200,
            mae_clear_pm: 100,
            hist_trip_pm: 300,
            hist_clear_pm: 150,
            fallback_trip_pm: 500,
            fallback_clear_pm: 250,
            trip_windows: 3,
            cooldown: Duration::from_secs(30),
            min_observations: 32,
            full_refit_fraction: 0.10,
        }
    }
}

impl DriftConfig {
    /// A hair-trigger profile for demos, chaos drills and tests: every
    /// threshold at its floor, one tripped window suffices, and only the
    /// cooldown stands between consecutive rebuilds.
    pub fn sensitive() -> Self {
        Self {
            mae_trip_pm: 0,
            mae_clear_pm: 0,
            hist_trip_pm: 0,
            hist_clear_pm: 0,
            fallback_trip_pm: 0,
            fallback_clear_pm: 0,
            trip_windows: 1,
            cooldown: Duration::from_millis(200),
            min_observations: 1,
            full_refit_fraction: 0.10,
        }
    }

    /// A detector that never trips: rebuilds happen only on
    /// [`SelfHealingCfsf::trigger`] or [`SelfHealingCfsf::refresh_now`],
    /// so the caller fixes the generation sequence. The sensors still
    /// record, and the churn escalation still applies.
    pub fn manual() -> Self {
        Self {
            mae_trip_pm: i64::MAX,
            mae_clear_pm: 0,
            hist_trip_pm: i64::MAX,
            hist_clear_pm: 0,
            fallback_trip_pm: i64::MAX,
            fallback_clear_pm: 0,
            trip_windows: u32::MAX,
            ..Self::default()
        }
    }

    /// Rejects threshold bands that would invert the hysteresis.
    pub fn validate(&self) -> Result<(), CfsfError> {
        let bands = [
            ("mae", self.mae_trip_pm, self.mae_clear_pm),
            ("hist", self.hist_trip_pm, self.hist_clear_pm),
            ("fallback", self.fallback_trip_pm, self.fallback_clear_pm),
        ];
        for (name, trip, clear) in bands {
            if clear > trip || trip < 0 || clear < 0 {
                return Err(CfsfError::InvalidParameter {
                    name: "drift",
                    message: format!(
                        "{name} thresholds need 0 <= clear <= trip ({clear} > {trip})"
                    ),
                });
            }
        }
        if self.trip_windows == 0 {
            return Err(CfsfError::InvalidParameter {
                name: "drift",
                message: "trip_windows must be at least 1".into(),
            });
        }
        if !(0.0..=1.0).contains(&self.full_refit_fraction) {
            return Err(CfsfError::InvalidParameter {
                name: "drift",
                message: format!(
                    "full_refit_fraction {} outside [0, 1]",
                    self.full_refit_fraction
                ),
            });
        }
        Ok(())
    }
}

/// Where the detector's state machine currently stands. Exposed on
/// `/stats.json` as the `drift.state` gauge (the discriminant).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriftState {
    /// All signals below their clear thresholds (or not yet meaningful).
    Healthy = 0,
    /// At least one signal above trip; streak building toward a rebuild.
    Drifting = 1,
    /// A rebuild worker is in flight.
    Rebuilding = 2,
    /// A rebuild just finished (or failed); triggers are suppressed
    /// until the cooldown elapses.
    Cooldown = 3,
}

/// One evaluation's raw signals (per mille), for logs and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DriftSignals {
    /// Relative windowed-MAE regression over baseline; `None` before a
    /// baseline exists.
    pub mae_regression_pm: Option<i64>,
    /// Ingest-histogram distance from the training distribution.
    pub hist_distance_pm: Option<i64>,
    /// Degradation-ladder fallback serve rate. Process-wide: the ladder
    /// counters are shared by every model in the process.
    pub fallback_pm: Option<i64>,
}

/// The hysteresis state machine between the sensors and the rebuild
/// worker. It owns one model's sensor windows — the windowed online MAE
/// and the ingest-rating histogram — so two models in one process never
/// pool their signals, and decides *whether now is the time*.
pub struct DriftMonitor {
    cfg: DriftConfig,
    state: DriftState,
    /// |prediction − rating| of ingested ratings the serving generation
    /// could already predict.
    mae: MaeWindow,
    /// Ingested ratings against the serving generation's training
    /// distribution.
    ingest: DriftWindow,
    baseline_mae: Option<f64>,
    tripped_streak: u32,
    cooldown_until: Option<Instant>,
    trips: u64,
}

impl DriftMonitor {
    /// A fresh monitor in [`DriftState::Healthy`] with empty windows and
    /// no baseline distribution (see [`Self::rebase`]).
    pub fn new(cfg: DriftConfig) -> Self {
        let monitor = Self {
            cfg,
            state: DriftState::Healthy,
            mae: MaeWindow::new(),
            ingest: DriftWindow::new(),
            baseline_mae: None,
            tripped_streak: 0,
            cooldown_until: None,
            trips: 0,
        };
        monitor.publish_state();
        monitor
    }

    /// Current state-machine position.
    pub fn state(&self) -> DriftState {
        self.state
    }

    /// Rebuilds triggered so far.
    pub fn trips(&self) -> u64 {
        self.trips
    }

    fn publish_state(&self) {
        cf_obs::gauge!("drift.state").set(self.state as i64);
    }

    /// Starts measuring against a newly published generation: `ingest`
    /// (an empty window over that generation's training distribution)
    /// replaces the ingest window, and the MAE window and its baseline
    /// restart.
    pub fn rebase(&mut self, ingest: DriftWindow) {
        self.ingest = ingest;
        self.mae.clear();
        self.baseline_mae = None;
    }

    /// Feeds one ingested rating to the sensors, with the serving
    /// generation's prediction for its cell when it had one.
    pub fn observe(&mut self, rating: f64, prediction: Option<f64>) {
        if let Some(pred) = prediction {
            self.mae.observe((pred - rating).abs());
        }
        self.ingest.record(rating);
    }

    /// The current raw signals, without advancing the state machine. A
    /// window with fewer than `min_observations` samples reports `None`,
    /// as does the MAE regression before its baseline is captured.
    fn signals(&self) -> DriftSignals {
        let enough = |len: usize| len >= self.cfg.min_observations;
        DriftSignals {
            mae_regression_pm: self
                .baseline_mae
                .filter(|_| enough(self.mae.len()))
                .zip(self.mae.mae())
                .map(|(base, mae)| (((mae / base) - 1.0) * 1000.0).round().max(0.0) as i64),
            hist_distance_pm: self
                .ingest
                .hist_distance_pm()
                .filter(|_| enough(self.ingest.len())),
            fallback_pm: Some(cf_obs::quality::fallback_pm()),
        }
    }

    /// Reads the signals for one evaluation. The MAE baseline is
    /// captured lazily: the first full-enough window after a publish
    /// becomes the generation's "normal".
    fn read_signals(&mut self) -> DriftSignals {
        let signals = self.signals();
        if let Some(pm) = signals.mae_regression_pm {
            cf_obs::gauge!("drift.mae_regression_pm").set(pm);
        } else if self.baseline_mae.is_none() && self.mae.len() >= self.cfg.min_observations {
            self.baseline_mae = self.mae.mae().map(|mae| mae.max(f64::MIN_POSITIVE));
        }
        signals
    }

    /// One detector tick. Returns `true` when a rebuild should be
    /// launched *now*; the caller must then report back through
    /// [`Self::note_rebuild_started`] / [`Self::note_rebuild_finished`].
    pub fn evaluate(&mut self) -> bool {
        if self.state == DriftState::Rebuilding {
            return false;
        }
        if let Some(until) = self.cooldown_until {
            if Instant::now() < until {
                self.state = DriftState::Cooldown;
                self.publish_state();
                return false;
            }
            self.cooldown_until = None;
        }
        let signals = self.read_signals();
        let above_trip = signals
            .mae_regression_pm
            .is_some_and(|v| v >= self.cfg.mae_trip_pm)
            || signals
                .hist_distance_pm
                .is_some_and(|v| v >= self.cfg.hist_trip_pm)
            || signals
                .fallback_pm
                .is_some_and(|v| v >= self.cfg.fallback_trip_pm);
        let below_clear = signals
            .mae_regression_pm
            .is_none_or(|v| v <= self.cfg.mae_clear_pm)
            && signals
                .hist_distance_pm
                .is_none_or(|v| v <= self.cfg.hist_clear_pm)
            && signals
                .fallback_pm
                .is_none_or(|v| v <= self.cfg.fallback_clear_pm);

        if above_trip {
            self.tripped_streak += 1;
            self.state = DriftState::Drifting;
        } else if below_clear {
            // Only a full return below the clear band resets the streak —
            // the hysteresis that keeps an oscillating signal from
            // flapping the detector.
            self.tripped_streak = 0;
            self.state = DriftState::Healthy;
        }
        self.publish_state();
        if self.tripped_streak >= self.cfg.trip_windows {
            self.trips += 1;
            cf_obs::counter!("drift.trips").inc();
            cf_obs::trace::note("drift.tripped");
            return true;
        }
        false
    }

    /// The caller launched a rebuild: suppress further triggers.
    pub fn note_rebuild_started(&mut self) {
        self.state = DriftState::Rebuilding;
        self.tripped_streak = 0;
        self.publish_state();
    }

    /// The rebuild finished (successfully or not): enter the cooldown.
    /// On success the MAE baseline is dropped — the next full window
    /// against the *new* generation becomes the new normal.
    pub fn note_rebuild_finished(&mut self, published: bool) {
        if published {
            self.baseline_mae = None;
        }
        self.state = DriftState::Cooldown;
        self.cooldown_until = Some(Instant::now() + self.cfg.cooldown);
        self.publish_state();
    }
}

// --------------------------------------------------------------------------
// Self-healing serving wrapper
// --------------------------------------------------------------------------

/// Pending live ratings and the dirty-set bookkeeping that bounds an
/// incremental rebuild to what actually changed.
struct Ingest {
    pending: Vec<(UserId, ItemId, f64)>,
    stale_items: BTreeSet<ItemId>,
    dirty_users: BTreeSet<UserId>,
    churn_since_full: usize,
}

struct Shared {
    cell: Arc<GenCell<Cfsf>>,
    ingest: RecoverMutex<Ingest>,
    monitor: RecoverMutex<DriftMonitor>,
    cfg: DriftConfig,
    /// A rebuild worker is in flight (authoritative single-flight guard).
    busy: AtomicBool,
}

/// Clears the in-flight flag even if the rebuild path panics.
struct BusyGuard<'a>(&'a AtomicBool);

impl Drop for BusyGuard<'_> {
    fn drop(&mut self) {
        cf_obs::gauge!("refresh.in_flight").set(0);
        self.0.store(false, Ordering::Release);
    }
}

/// Which rebuild path ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefreshKind {
    /// GIS rows of the touched items rebuilt, smoothing and iCluster
    /// re-run, K-means assignment kept.
    Partial,
    /// Full offline refit (K-means included).
    Full,
}

/// What one rebuild pass did (the background worker records the same
/// fields into counters/gauges).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RebuildReport {
    /// Which rebuild path ran.
    pub kind: RefreshKind,
    /// Ratings merged into the new generation.
    pub merged: usize,
    /// Distinct items whose GIS rows were rebuilt (0 for a full refit).
    pub items_rebuilt: usize,
    /// Distinct users whose ratings changed (drove the partial/full
    /// decision).
    pub dirty_users: usize,
    /// The generation number the rebuild published.
    pub generation: u64,
}

/// A [`Cfsf`] that keeps itself fresh: ingests live ratings, watches the
/// drift signals, and — when the [`DriftMonitor`] trips — rebuilds on a
/// background thread and publishes through a [`GenCell`], so serving
/// never pauses and a failed rebuild leaves the old generation up.
pub struct SelfHealingCfsf {
    shared: Arc<Shared>,
    worker: RecoverMutex<Option<std::thread::JoinHandle<()>>>,
}

impl SelfHealingCfsf {
    /// Wraps a fitted model as generation 0 and installs its training
    /// distribution as the drift baseline.
    pub fn new(model: Cfsf, cfg: DriftConfig) -> Result<Self, CfsfError> {
        cfg.validate()?;
        let mut monitor = DriftMonitor::new(cfg.clone());
        monitor.rebase(baseline_window(model.matrix()));
        // Register the refresh counters up front so a snapshot carries
        // explicit zeros — absent vs zero matters to the chaos gates.
        cf_obs::counter!("refresh.started").add(0);
        cf_obs::counter!("refresh.completed").add(0);
        cf_obs::counter!("refresh.failed").add(0);
        cf_obs::counter!("refresh.panicked").add(0);
        cf_obs::gauge!("refresh.generation").set(0);
        cf_obs::gauge!("refresh.in_flight").set(0);
        Ok(Self {
            shared: Arc::new(Shared {
                cell: Arc::new(GenCell::new(Arc::new(model))),
                ingest: RecoverMutex::new(Ingest {
                    pending: Vec::new(),
                    stale_items: BTreeSet::new(),
                    dirty_users: BTreeSet::new(),
                    churn_since_full: 0,
                }),
                monitor: RecoverMutex::new(monitor),
                cfg,
                busy: AtomicBool::new(false),
            }),
            worker: RecoverMutex::new(None),
        })
    }

    /// The generation cell, shareable with serving (the shard server's
    /// model handle loads from exactly this cell).
    pub fn cell(&self) -> Arc<GenCell<Cfsf>> {
        Arc::clone(&self.shared.cell)
    }

    /// Snapshot of the currently served generation.
    pub fn model(&self) -> Arc<Cfsf> {
        self.shared.cell.load()
    }

    /// The currently served generation number.
    pub fn generation(&self) -> u64 {
        self.shared.cell.generation()
    }

    /// Current drift state-machine position.
    pub fn drift_state(&self) -> DriftState {
        self.shared.monitor.lock().state()
    }

    /// Ratings waiting to be merged by the next rebuild.
    pub fn pending(&self) -> usize {
        self.shared.ingest.lock().pending.len()
    }

    /// Ingests one live rating: validated against the current
    /// generation, queued for the next rebuild, fed to this model's
    /// quality and drift sensors — and the drift detector gets one
    /// evaluation tick, which may launch a background rebuild. The
    /// rating becomes visible to predictions with the next published
    /// generation.
    pub fn add_rating(&self, user: UserId, item: ItemId, rating: f64) -> Result<(), CfsfError> {
        let model = self.shared.cell.load();
        let m = model.matrix();
        if user.index() >= m.num_users() || item.index() >= m.num_items() {
            return Err(CfsfError::InvalidParameter {
                name: "rating",
                message: format!("({user:?}, {item:?}) is outside the matrix"),
            });
        }
        if !m.scale().contains(rating) || !rating.is_finite() {
            return Err(CfsfError::InvalidParameter {
                name: "rating",
                message: format!("{rating} is off the {:?} scale", m.scale()),
            });
        }
        {
            let mut ingest = self.shared.ingest.lock();
            if m.get(user, item).is_some()
                || ingest
                    .pending
                    .iter()
                    .any(|&(u, i, _)| u == user && i == item)
            {
                return Err(CfsfError::InvalidParameter {
                    name: "rating",
                    message: format!("cell ({user:?}, {item:?}) is already rated"),
                });
            }
            ingest.pending.push((user, item, rating));
            ingest.stale_items.insert(item);
            ingest.dirty_users.insert(user);
        }
        // A freshly observed rating is ground truth for a cell the model
        // could already predict: its error feeds the windowed online MAE.
        let prediction = cf_matrix::Predictor::predict(&*model, user, item);
        let launch = {
            let mut monitor = self.shared.monitor.lock();
            monitor.observe(rating, prediction);
            monitor.evaluate()
        };
        if launch {
            self.spawn_rebuild();
        }
        Ok(())
    }

    /// One drift-detector evaluation; launches a background rebuild when
    /// it trips. Serving paths may call this on any cadence — it never
    /// blocks on a rebuild.
    pub fn tick(&self) {
        if self.shared.monitor.lock().evaluate() {
            self.spawn_rebuild();
        }
    }

    /// Forces a background rebuild regardless of drift (operator
    /// override, chaos drills). Returns `false` when one is already in
    /// flight.
    pub fn trigger(&self) -> bool {
        self.spawn_rebuild()
    }

    /// Runs one rebuild synchronously on the caller's thread and
    /// publishes through the same cell as the background path. With
    /// nothing pending it refits on the same data (a full rebuild).
    pub fn refresh_now(&self) -> Result<RebuildReport, CfsfError> {
        if self.shared.busy.swap(true, Ordering::AcqRel) {
            return Err(CfsfError::RefreshFailed {
                message: "a rebuild is already in flight".into(),
            });
        }
        let _guard = BusyGuard(&self.shared.busy);
        cf_obs::gauge!("refresh.in_flight").set(1);
        self.shared.monitor.lock().note_rebuild_started();
        run_rebuild(&self.shared)
    }

    fn spawn_rebuild(&self) -> bool {
        if self.shared.busy.swap(true, Ordering::AcqRel) {
            return false;
        }
        cf_obs::gauge!("refresh.in_flight").set(1);
        self.shared.monitor.lock().note_rebuild_started();
        let shared = Arc::clone(&self.shared);
        let spawned = std::thread::Builder::new()
            .name("cfsf-refresh".into())
            .spawn(move || {
                let _guard = BusyGuard(&shared.busy);
                let _ = run_rebuild(&shared);
            });
        match spawned {
            Ok(handle) => {
                let mut slot = self.worker.lock();
                // Reap the previous worker (already finished: `busy` was
                // clear) so handles don't accumulate.
                if let Some(old) = slot.take() {
                    let _ = old.join();
                }
                *slot = Some(handle);
                true
            }
            Err(_) => {
                // Could not even spawn: count it as a failed refresh and
                // leave the old generation serving.
                cf_obs::counter!("refresh.failed").inc();
                cf_obs::gauge!("refresh.in_flight").set(0);
                self.shared.busy.store(false, Ordering::Release);
                self.shared.monitor.lock().note_rebuild_finished(false);
                false
            }
        }
    }

    /// Blocks until no background rebuild is in flight (tests, shutdown).
    pub fn wait_idle(&self) {
        if let Some(handle) = self.worker.lock().take() {
            let _ = handle.join();
        }
        while self.shared.busy.load(Ordering::Acquire) {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

impl Drop for SelfHealingCfsf {
    fn drop(&mut self) {
        self.wait_idle();
    }
}

/// An empty ingest window over `m`'s training distribution.
fn baseline_window(m: &RatingMatrix) -> DriftWindow {
    let scale = m.scale();
    DriftWindow::with_baseline(m.triplets().map(|(_, _, r)| r), scale.min, scale.max)
}

/// The rebuild pass: snapshot the pending ratings, build a complete new
/// [`Cfsf`] off to the side, publish it through the cell. Runs on the
/// worker thread (or inline for [`SelfHealingCfsf::refresh_now`]); the
/// served generation is untouched until the final `publish`, and any
/// panic is caught here — counted, traced, old generation keeps serving.
fn run_rebuild(shared: &Shared) -> Result<RebuildReport, CfsfError> {
    cf_obs::counter!("refresh.started").inc();
    cf_obs::trace::note("refresh.rebuild_started");
    let base = shared.cell.load();
    // Snapshot and drain the ingest state; on failure it is restored so
    // the ratings are not lost and the rebuild can be retried.
    let (pending, stale_items, dirty_users, churn_since_full) = {
        let mut ingest = shared.ingest.lock();
        (
            std::mem::take(&mut ingest.pending),
            std::mem::take(&mut ingest.stale_items),
            std::mem::take(&mut ingest.dirty_users),
            ingest.churn_since_full,
        )
    };

    let built = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        cf_obs::time_scope!("refresh.rebuild_ns");
        build_generation(&base, &shared.cfg, &pending, &stale_items, churn_since_full)
    }));

    match built {
        Ok(Ok((model, kind))) => {
            let model = Arc::new(model);
            let baseline = baseline_window(model.matrix());
            let generation = shared.cell.publish(Arc::clone(&model));
            {
                let mut ingest = shared.ingest.lock();
                ingest.churn_since_full = match kind {
                    RefreshKind::Full => 0,
                    RefreshKind::Partial => churn_since_full + pending.len(),
                };
                // Ratings ingested *during* the rebuild were validated
                // against the old generation; drop any the new matrix now
                // covers.
                let m = model.matrix();
                ingest.pending.retain(|&(u, i, _)| m.get(u, i).is_none());
            }
            cf_obs::counter!("refresh.completed").inc();
            cf_obs::gauge!("refresh.generation").set(generation as i64);
            cf_obs::trace::note("refresh.generation_published");
            {
                let mut monitor = shared.monitor.lock();
                monitor.rebase(baseline);
                monitor.note_rebuild_finished(true);
            }
            Ok(RebuildReport {
                kind,
                merged: pending.len(),
                items_rebuilt: match kind {
                    RefreshKind::Full => 0,
                    RefreshKind::Partial => stale_items.len(),
                },
                dirty_users: dirty_users.len(),
                generation,
            })
        }
        other => {
            // Failed or panicked: restore the snapshot (new arrivals
            // stay, the snapshot slots back in front) and keep serving
            // the old generation.
            {
                let snapshot_cells: BTreeSet<(UserId, ItemId)> =
                    pending.iter().map(|&(u, i, _)| (u, i)).collect();
                let mut ingest = shared.ingest.lock();
                let newer = std::mem::take(&mut ingest.pending);
                ingest.pending = pending;
                // A rating ingested during the failed rebuild may address
                // a cell the snapshot already covers (the snapshot had
                // left the pending list); keep the snapshot's value.
                ingest.pending.extend(
                    newer
                        .into_iter()
                        .filter(|&(u, i, _)| !snapshot_cells.contains(&(u, i))),
                );
                ingest.stale_items.extend(stale_items.iter().copied());
                ingest.dirty_users.extend(dirty_users.iter().copied());
            }
            cf_obs::counter!("refresh.failed").inc();
            shared.monitor.lock().note_rebuild_finished(false);
            match other {
                Ok(Err(e)) => {
                    cf_obs::trace::note("refresh.rebuild_failed");
                    Err(e)
                }
                _ => {
                    cf_obs::counter!("refresh.panicked").inc();
                    cf_obs::trace::note("refresh.worker_panicked");
                    Err(CfsfError::RefreshFailed {
                        message: "rebuild worker panicked; old generation still serving".into(),
                    })
                }
            }
        }
    }
}

/// Builds the next generation completely off to the side. The partial
/// path rebuilds GIS rows only for the stale items (O(changed users), via
/// the dirty tracking) and keeps the K-means assignment; heavy churn
/// escalates to a full refit.
fn build_generation(
    base: &Cfsf,
    cfg: &DriftConfig,
    pending: &[(UserId, ItemId, f64)],
    stale_items: &BTreeSet<ItemId>,
    churn_since_full: usize,
) -> Result<(Cfsf, RefreshKind), CfsfError> {
    #[cfg(feature = "faultinject")]
    {
        cf_faultinject::maybe_stall("refresh.worker_stall");
        cf_faultinject::maybe_panic("refresh.worker_panic");
    }

    let merged = merged_matrix(base, pending)?;
    let would_be_churn = churn_since_full + pending.len();
    let escalate = would_be_churn as f64 > cfg.full_refit_fraction * merged.num_ratings() as f64;

    let (model, kind) = if escalate || pending.is_empty() {
        // An empty rebuild (drift tripped with nothing pending — e.g. a
        // pure fallback-rate trip) refits on the same data: K-means may
        // land a better local optimum, and the baseline resets.
        (Cfsf::fit(&merged, base.config.clone())?, RefreshKind::Full)
    } else {
        let items: Vec<ItemId> = stale_items.iter().copied().collect();
        let mut gis = base.gis.clone();
        gis.rebuild_items(&merged, &items, &base.config.gis_config());
        let model = Cfsf::from_parts(
            base.config.clone(),
            merged,
            gis,
            base.clusters.clone(),
            None,
        );
        (model, RefreshKind::Partial)
    };

    #[cfg(feature = "faultinject")]
    if cf_faultinject::fires("refresh.fail_before_commit") {
        return Err(CfsfError::RefreshFailed {
            message: "injected fault before generation publish".into(),
        });
    }
    Ok((model, kind))
}

fn merged_matrix(
    base: &Cfsf,
    pending: &[(UserId, ItemId, f64)],
) -> Result<RatingMatrix, CfsfError> {
    let old = base.matrix();
    let mut b = MatrixBuilder::with_dims(old.num_users(), old.num_items()).scale(old.scale());
    b.reserve(old.num_ratings() + pending.len());
    for (u, i, r) in old.triplets() {
        b.push(u, i, r);
    }
    for &(u, i, r) in pending {
        b.push(u, i, r);
    }
    b.build().map_err(|e| CfsfError::RefreshFailed {
        message: format!("merged matrix failed validation: {e}"),
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::CfsfConfig;
    use cf_data::SyntheticConfig;
    use cf_matrix::Predictor;

    fn fitted() -> (cf_data::Dataset, Cfsf) {
        let d = SyntheticConfig::small().generate();
        let m = Cfsf::fit(&d.matrix, CfsfConfig::small()).unwrap();
        (d, m)
    }

    fn unrated_cell(m: &RatingMatrix, from: u32) -> (UserId, ItemId) {
        for u in from..m.num_users() as u32 {
            for i in 0..m.num_items() as u32 {
                if m.get(UserId::new(u), ItemId::new(i)).is_none() {
                    return (UserId::new(u), ItemId::new(i));
                }
            }
        }
        panic!("matrix is dense");
    }

    #[test]
    fn gen_cell_pairs_value_and_generation() {
        let cell: GenCell<u64> = GenCell::new(Arc::new(0));
        assert_eq!(cell.generation(), 0);
        assert_eq!(*cell.load(), 0);
        for k in 1..=5u64 {
            assert_eq!(cell.publish(Arc::new(k)), k);
            let (v, generation) = cell.load_with_generation();
            assert_eq!(*v, k);
            assert_eq!(generation, k);
        }
    }

    #[test]
    fn gen_cell_recovers_from_poison() {
        let cell: GenCell<u64> = GenCell::new(Arc::new(7));
        cell.poison_slot();
        assert!(cell.is_poisoned());
        assert_eq!(*cell.load(), 7, "reader recovers the snapshot");
        assert!(!cell.is_poisoned(), "recovery clears the flag");
        assert_eq!(cell.publish(Arc::new(8)), 1);
        assert_eq!(*cell.load(), 8);
    }

    #[test]
    fn old_generation_outlives_the_swap() {
        let cell: GenCell<u64> = GenCell::new(Arc::new(1));
        let held = cell.load();
        cell.publish(Arc::new(2));
        assert_eq!(*held, 1, "in-flight reader keeps its snapshot");
        assert_eq!(*cell.load(), 2);
    }

    #[test]
    fn drift_config_rejects_inverted_bands() {
        let mut cfg = DriftConfig::default();
        cfg.mae_clear_pm = cfg.mae_trip_pm + 1;
        assert!(cfg.validate().is_err());
        assert!(DriftConfig::default().validate().is_ok());
        assert!(DriftConfig::sensitive().validate().is_ok());
        let cfg = DriftConfig {
            trip_windows: 0,
            ..DriftConfig::default()
        };
        assert!(cfg.validate().is_err());
    }

    /// A monitor measuring against a mid-scale baseline, with only the
    /// histogram signal live: the fallback rate is process-wide and other
    /// tests in this binary serve degraded predictions, so its band sits
    /// out of reach (rates top out at 1000 pm).
    fn histogram_monitor(cfg: DriftConfig) -> DriftMonitor {
        let mut m = DriftMonitor::new(DriftConfig {
            fallback_trip_pm: 1001,
            fallback_clear_pm: 1001,
            ..cfg
        });
        m.rebase(DriftWindow::with_baseline(
            std::iter::repeat_n(3.0, 64),
            1.0,
            5.0,
        ));
        m
    }

    #[test]
    fn monitor_needs_consecutive_tripped_windows_and_cooldown() {
        let mut m = histogram_monitor(DriftConfig {
            trip_windows: 3,
            min_observations: 4,
            cooldown: Duration::from_secs(3600),
            ..DriftConfig::default()
        });
        // Distribution fully shifted: baseline mid-scale, stream at max.
        for _ in 0..8 {
            m.observe(5.0, None);
        }
        assert!(!m.evaluate(), "window 1 of 3");
        assert!(!m.evaluate(), "window 2 of 3");
        assert_eq!(m.state(), DriftState::Drifting);
        assert!(m.evaluate(), "window 3 trips");
        m.note_rebuild_started();
        assert!(!m.evaluate(), "no trigger while rebuilding");
        m.note_rebuild_finished(true);
        assert_eq!(m.state(), DriftState::Cooldown);
        assert!(!m.evaluate(), "cooldown suppresses the still-high signal");
    }

    #[test]
    fn monitor_hysteresis_holds_streak_inside_the_band() {
        let mut m = histogram_monitor(DriftConfig {
            hist_trip_pm: 900,
            hist_clear_pm: 100,
            trip_windows: 2,
            min_observations: 4,
            cooldown: Duration::from_secs(3600),
            ..DriftConfig::default()
        });
        // Fully shifted: above trip. One window of streak.
        for _ in 0..8 {
            m.observe(5.0, None);
        }
        assert!(!m.evaluate());
        assert_eq!(m.state(), DriftState::Drifting);
        // Drop the distance inside the band (between clear and trip):
        // half the window back at baseline ≈ 500 pm. The streak must
        // hold — neither growing past the trip count nor resetting.
        for _ in 0..8 {
            m.observe(3.0, None);
        }
        assert!(!m.evaluate(), "inside the band: no trip");
        assert_eq!(m.state(), DriftState::Drifting, "…and no reset either");
        // Back above trip: the held streak completes and trips.
        for _ in 0..64 {
            m.observe(5.0, None);
        }
        assert!(m.evaluate(), "streak held through the band completes");
    }

    #[test]
    fn mae_regression_is_measured_against_the_first_full_window() {
        let mut m = DriftMonitor::new(DriftConfig {
            min_observations: 4,
            ..DriftConfig::manual()
        });
        for _ in 0..4 {
            m.observe(4.0, Some(3.5));
        }
        assert_eq!(m.signals().mae_regression_pm, None, "no baseline yet");
        m.evaluate(); // captures the 0.5 baseline
        for _ in 0..4 {
            m.observe(4.0, Some(2.5));
        }
        // Window MAE (4 × 0.5 + 4 × 1.5) / 8 = 1.0: double the baseline.
        assert_eq!(m.signals().mae_regression_pm, Some(1000));
        m.rebase(DriftWindow::new());
        assert_eq!(m.signals().mae_regression_pm, None, "rebase restarts");
    }

    #[test]
    fn two_models_in_one_process_keep_their_own_drift_windows() {
        // Only the histogram signal is live.
        let cfg = DriftConfig {
            hist_trip_pm: 300,
            hist_clear_pm: 150,
            trip_windows: 2,
            min_observations: 32,
            cooldown: Duration::from_secs(3600),
            ..DriftConfig::manual()
        };
        let (d, model) = fitted();
        let a = SelfHealingCfsf::new(model, cfg.clone()).unwrap();
        let b = SelfHealingCfsf::new(fitted().1, cfg).unwrap();
        let scale = d.matrix.scale();

        // B hears ratings drawn evenly from its own training data; A hears
        // everyone rating the top of the scale. The reference window
        // replays exactly B's stream against B's baseline.
        let cells: Vec<(UserId, ItemId)> = d
            .matrix
            .users()
            .flat_map(|u| d.matrix.items().map(move |i| (u, i)))
            .filter(|&(u, i)| d.matrix.get(u, i).is_none())
            .take(96)
            .collect();
        let stride = d.matrix.num_ratings() / cells.len();
        let like_baseline: Vec<f64> = d
            .matrix
            .triplets()
            .map(|(_, _, r)| r)
            .step_by(stride)
            .collect();
        let mut reference = baseline_window(&d.matrix);
        for (&(user, item), &rating) in cells.iter().zip(&like_baseline) {
            a.add_rating(user, item, scale.max).unwrap();
            b.add_rating(user, item, rating).unwrap();
            reference.record(rating);
            assert_eq!(
                b.drift_state(),
                DriftState::Healthy,
                "A's stream leaked into B"
            );
        }
        a.wait_idle();

        assert_eq!(a.generation(), 1, "the skewed stream must trip A once");
        assert_eq!(b.generation(), 0, "B must not rebuild");
        let expected = reference.hist_distance_pm();
        assert!(
            expected.is_some_and(|pm| pm < 150),
            "B's stream is baseline-like: {expected:?}"
        );
        assert_eq!(
            b.shared.monitor.lock().signals().hist_distance_pm,
            expected,
            "B's window must hold exactly B's ratings after A's rebuild"
        );
    }

    #[test]
    fn add_rating_validates_and_queues() {
        let (d, model) = fitted();
        let healing = SelfHealingCfsf::new(
            model,
            DriftConfig {
                cooldown: Duration::from_secs(3600),
                ..DriftConfig::default()
            },
        )
        .unwrap();
        let (u, i) = unrated_cell(&d.matrix, 0);
        healing.add_rating(u, i, 4.0).unwrap();
        assert!(healing.add_rating(u, i, 4.0).is_err(), "duplicate pending");
        let (eu, ei, _) = d.matrix.triplets().next().unwrap();
        assert!(healing.add_rating(eu, ei, 3.0).is_err(), "already rated");
        assert!(healing
            .add_rating(UserId::new(99_999), ItemId::new(0), 3.0)
            .is_err());
        assert!(healing.add_rating(u, ItemId::new(1), 99.0).is_err());
        assert_eq!(healing.pending(), 1);
    }

    #[test]
    fn refresh_now_publishes_a_new_generation_with_merged_ratings() {
        let (d, model) = fitted();
        let healing = SelfHealingCfsf::new(
            model,
            DriftConfig {
                cooldown: Duration::from_millis(1),
                ..DriftConfig::default()
            },
        )
        .unwrap();
        let before = healing.generation();
        let (u, i) = unrated_cell(&d.matrix, 3);
        let cached = healing.model().top_k_users(u);
        healing.add_rating(u, i, 5.0).unwrap();
        let report = healing.refresh_now().unwrap();
        assert_eq!(report.kind, RefreshKind::Partial);
        assert_eq!(report.merged, 1);
        assert_eq!(report.items_rebuilt, 1);
        assert_eq!(report.dirty_users, 1);
        assert_eq!(report.generation, before + 1);
        assert_eq!(healing.generation(), before + 1);
        assert_eq!(healing.pending(), 0);
        let m = healing.model();
        assert_eq!(m.matrix().get(u, i), Some(5.0));
        assert!(m.predict(u, ItemId::new(0)).is_some());
        assert!(
            !Arc::ptr_eq(&cached, &m.top_k_users(u)),
            "the new generation must not serve the old neighbor selection"
        );
    }

    #[test]
    fn background_trigger_swaps_without_blocking_readers() {
        let (d, model) = fitted();
        let healing = SelfHealingCfsf::new(
            model,
            DriftConfig {
                cooldown: Duration::from_millis(1),
                ..DriftConfig::default()
            },
        )
        .unwrap();
        let (u, i) = unrated_cell(&d.matrix, 5);
        healing.add_rating(u, i, 5.0).unwrap();
        let cell = healing.cell();
        assert!(healing.trigger());
        // Readers keep being served while the worker rebuilds.
        let mut served = 0usize;
        while healing.generation() == 0 {
            let m = cell.load();
            let _ = m.predict(UserId::new(0), ItemId::new(0));
            served += 1;
            if served > 5_000_000 {
                break;
            }
        }
        healing.wait_idle();
        assert_eq!(healing.generation(), 1, "rebuild must have published");
        assert_eq!(healing.model().matrix().get(u, i), Some(5.0));
    }

    #[test]
    fn second_trigger_is_refused_while_one_is_in_flight() {
        let (_, model) = fitted();
        let healing = SelfHealingCfsf::new(model, DriftConfig::default()).unwrap();
        assert!(healing.trigger());
        // Either refused outright (worker still running) or the first
        // one already finished; both are storm-free.
        let second = healing.trigger();
        healing.wait_idle();
        if second {
            healing.wait_idle();
            assert!(healing.generation() <= 2);
        }
        assert!(cf_obs::counter!("refresh.completed").get() >= 1);
    }

    #[test]
    fn drift_storm_at_floor_thresholds_is_rate_limited() {
        let (d, model) = fitted();
        let cfg = DriftConfig {
            cooldown: Duration::from_secs(3600),
            ..DriftConfig::sensitive()
        };
        let healing = SelfHealingCfsf::new(model, cfg).unwrap();
        // Hammer the detector: every add ticks it with thresholds at 0.
        let mut from = 0;
        for _ in 0..6 {
            let (u, i) = unrated_cell(&d.matrix, from);
            healing.add_rating(u, i, 5.0).unwrap();
            from = u.raw() + 1;
        }
        healing.wait_idle();
        // This model's own trip count: other tests in this binary start
        // rebuilds too, so the global `refresh.started` counter would
        // count theirs.
        let launched = healing.shared.monitor.lock().trips();
        assert_eq!(healing.generation(), launched);
        assert!(
            launched <= 1,
            "cooldown + single-flight must cap the storm, got {launched} rebuilds"
        );
    }

    #[test]
    fn empty_refresh_refits_in_full() {
        let (_, model) = fitted();
        let healing = SelfHealingCfsf::new(model, DriftConfig::manual()).unwrap();
        let report = healing.refresh_now().unwrap();
        assert_eq!(report.kind, RefreshKind::Full);
        assert_eq!(report.merged, 0);
        assert_eq!(healing.generation(), 1);
    }

    #[test]
    fn heavy_churn_escalates_to_full_refit() {
        let (d, model) = fitted();
        let healing = SelfHealingCfsf::new(
            model,
            DriftConfig {
                full_refit_fraction: 0.0005, // escalate almost immediately
                ..DriftConfig::manual()
            },
        )
        .unwrap();
        let mut from = 0;
        for _ in 0..5 {
            let (u, i) = unrated_cell(&d.matrix, from);
            healing.add_rating(u, i, 3.0).unwrap();
            from = u.raw() + 1;
        }
        let report = healing.refresh_now().unwrap();
        assert_eq!(report.kind, RefreshKind::Full);
        assert_eq!(report.merged, 5);
        assert_eq!(report.items_rebuilt, 0);
    }

    #[test]
    fn partial_refresh_matches_full_refit_predictions_closely() {
        // The only partial-rebuild approximation is the frozen K-means
        // assignment; after a handful of new ratings the two paths should
        // give nearly identical predictions over a probe set.
        let (d, model) = fitted();
        let healing = SelfHealingCfsf::new(model, DriftConfig::manual()).unwrap();
        let mut from = 0;
        for _ in 0..4 {
            let (u, i) = unrated_cell(&d.matrix, from);
            healing.add_rating(u, i, 4.0).unwrap();
            from = u.raw() + 1;
        }
        assert_eq!(healing.refresh_now().unwrap().kind, RefreshKind::Partial);
        let partial = healing.model();

        // Full refit on the same merged matrix. Note K-means re-seeds on
        // the merged data, so even two *full* fits across the update can
        // disagree pointwise; the right check is aggregate agreement.
        let full = Cfsf::fit(partial.matrix(), CfsfConfig::small()).unwrap();
        let mut abs_diff = 0.0;
        let mut total = 0usize;
        for u in (0..d.matrix.num_users()).step_by(7) {
            for i in (0..d.matrix.num_items()).step_by(11) {
                let a = partial.predict(UserId::from(u), ItemId::from(i));
                let b = full.predict(UserId::from(u), ItemId::from(i));
                match (a, b) {
                    (Some(x), Some(y)) => {
                        abs_diff += (x - y).abs();
                        total += 1;
                    }
                    (None, None) => {}
                    _ => panic!("availability must agree at ({u},{i})"),
                }
            }
        }
        let mean_diff = abs_diff / total as f64;
        assert!(
            mean_diff < 0.15,
            "partial refresh drifted {mean_diff:.3} on average over {total} probes"
        );
    }

    #[test]
    fn refreshed_model_sees_new_evidence_in_predictions() {
        let (d, model) = fitted();
        let healing = SelfHealingCfsf::new(model, DriftConfig::manual()).unwrap();
        let (u, i) = unrated_cell(&d.matrix, 5);
        healing.add_rating(u, i, 5.0).unwrap();
        healing.refresh_now().unwrap();
        // The cell is now rated; recommendations must exclude it.
        let m = healing.model();
        assert_eq!(m.matrix().get(u, i), Some(5.0));
        let recs = m.recommend_top_n(u, d.matrix.num_items());
        assert!(recs.iter().all(|&(item, _)| item != i));
    }
}
