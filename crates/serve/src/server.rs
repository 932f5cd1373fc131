//! The frame-serving TCP loop and the model shard built on it.
//!
//! [`FrameServer`] is the transport: a nonblocking accept loop polling a
//! stop flag (the same shape as `cf_obs::serve`, hardened the same way —
//! accepted streams go back to blocking mode with timeouts armed before
//! the first read), one thread per connection with a hard connection
//! cap, and per-connection frame loops that answer every decodable
//! request and close on protocol errors.
//!
//! [`ShardServer`] plugs a loaded [`Cfsf`] model into that transport:
//! `predict` / `predict_batch` / `recommend_top_n` / `health` /
//! `profile` frames answered straight from the model, bit-for-bit with
//! the in-process API (batches run through the strip-sorted
//! [`Cfsf::predict_batch_with_breakdown`] engine). The
//! router front tier reuses the same transport with its own handler
//! (see [`crate::router`]), so both tiers speak the identical protocol
//! and fix socket bugs in exactly one place.

use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use cf_matrix::{ItemId, UserId};
use cfsf_core::PredictionBreakdown;

use crate::frame::{
    self, HealthInfo, ReadOutcome, Request, Response, WirePrediction, WireProfile, WireStats,
    ERR_BUSY, ERR_OUT_OF_RANGE,
};
use crate::live::ModelHandle;

/// How long the accept loop sleeps between polls of the stop flag.
const POLL: Duration = Duration::from_millis(10);

/// Tuning for a frame server.
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Per-read/write socket timeout; also the idle tick between stop
    /// flag polls on a quiet connection.
    pub io_timeout: Duration,
    /// Budget for one frame to finish arriving once its first byte has.
    pub frame_deadline: Duration,
    /// Hard cap on concurrently served connections; excess connections
    /// get an `ERR_BUSY` error frame and are closed.
    pub max_connections: usize,
}

impl Default for ServerOptions {
    fn default() -> Self {
        Self {
            io_timeout: Duration::from_millis(250),
            frame_deadline: Duration::from_secs(2),
            max_connections: 64,
        }
    }
}

/// What the per-connection loop should do after one request.
pub(crate) enum ConnAction {
    /// Answer written; keep the connection for the next frame.
    Continue,
    /// Close the connection (injected fault or handler decision).
    #[cfg_attr(
        not(feature = "faultinject"),
        allow(dead_code, reason = "only injected faults close a connection")
    )]
    Close,
}

/// A request handler: maps one decoded request to one response.
/// `Send + Sync` because connections are served on their own threads.
pub(crate) trait Handler: Send + Sync + 'static {
    fn handle(&self, req: Request) -> Response;
    /// Name used for the obs counters (`serve.shard.*` / `router.front.*`).
    fn bump(&self, ok: bool);
    /// Post-response hook; the shard's fault injection lives here.
    fn after_response(&self) -> ConnAction {
        ConnAction::Continue
    }
}

/// A running frame server; dropping the handle stops and joins it.
pub struct FrameServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    conn_threads: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
}

impl FrameServer {
    pub(crate) fn bind(
        addr: impl ToSocketAddrs,
        opts: ServerOptions,
        handler: Arc<dyn Handler>,
        thread_name: &str,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let conn_threads = Arc::new(Mutex::new(Vec::new()));
        let accept_thread = std::thread::Builder::new()
            .name(thread_name.to_string())
            .spawn({
                let stop = Arc::clone(&stop);
                let conn_threads = Arc::clone(&conn_threads);
                move || accept_loop(listener, &stop, &opts, &handler, &conn_threads)
            })?;
        Ok(Self {
            addr,
            stop,
            accept_thread: Some(accept_thread),
            conn_threads,
        })
    }

    /// The actually-bound address (resolves port `0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Signals the server to stop and joins every thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        let threads = {
            let mut guard = self
                .conn_threads
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            std::mem::take(&mut *guard)
        };
        for t in threads {
            let _ = t.join();
        }
    }
}

impl Drop for FrameServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn accept_loop(
    listener: TcpListener,
    stop: &Arc<AtomicBool>,
    opts: &ServerOptions,
    handler: &Arc<dyn Handler>,
    conn_threads: &Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
) {
    let active = Arc::new(AtomicUsize::new(0));
    while !stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((mut stream, _peer)) => {
                if cf_obs::net::harden(&stream, opts.io_timeout).is_err() {
                    cf_obs::counter!("serve.conn_errors").inc();
                    continue;
                }
                // Admission at the door: beyond the cap the server sheds
                // with an explicit busy frame instead of queueing the
                // connection into timeout purgatory.
                if active.load(Ordering::Relaxed) >= opts.max_connections {
                    cf_obs::counter!("serve.conns_rejected").inc();
                    let _ = frame::write_response(
                        &mut stream,
                        &Response::Error {
                            code: ERR_BUSY,
                            message: "server at connection limit".into(),
                        },
                        &[],
                    );
                    continue;
                }
                cf_obs::counter!("serve.conns_accepted").inc();
                active.fetch_add(1, Ordering::Relaxed);
                let spawned = std::thread::Builder::new()
                    .name("cf-serve-conn".into())
                    .spawn({
                        let stop = Arc::clone(stop);
                        let handler = Arc::clone(handler);
                        let active = Arc::clone(&active);
                        let opts = opts.clone();
                        move || {
                            if connection_loop(&mut stream, &stop, &opts, handler.as_ref()).is_err()
                            {
                                cf_obs::counter!("serve.conn_errors").inc();
                            }
                            active.fetch_sub(1, Ordering::Relaxed);
                        }
                    });
                match spawned {
                    Ok(t) => {
                        let mut guard = conn_threads
                            .lock()
                            .unwrap_or_else(std::sync::PoisonError::into_inner);
                        // Reap finished threads so the registry doesn't
                        // grow with connection churn.
                        guard.retain(|t| !t.is_finished());
                        guard.push(t);
                    }
                    Err(_) => {
                        active.fetch_sub(1, Ordering::Relaxed);
                        cf_obs::counter!("serve.conn_errors").inc();
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(POLL);
            }
            Err(_) => {
                cf_obs::counter!("serve.accept_errors").inc();
                std::thread::sleep(POLL);
            }
        }
    }
}

/// Serves frames on one hardened connection until EOF, a protocol error,
/// or shutdown. Decodable requests always get an answer; framing errors
/// get a best-effort error frame and close the connection (a desynced
/// byte stream cannot be trusted for another frame).
fn connection_loop(
    stream: &mut TcpStream,
    stop: &AtomicBool,
    opts: &ServerOptions,
    handler: &dyn Handler,
) -> Result<(), crate::frame::FrameError> {
    loop {
        if stop.load(Ordering::Relaxed) {
            return Ok(());
        }
        match frame::read_request(stream, opts.frame_deadline) {
            Ok(ReadOutcome::Idle) => continue,
            Ok(ReadOutcome::Eof) => return Ok(()),
            Ok(ReadOutcome::Frame(req)) => {
                // Cross-process tracing happens at the transport layer so
                // every handler gets it for free: a request carrying a
                // trace context is dispatched under remote adoption, and
                // the spans its handling completed ship back on the
                // response frame for the origin to stitch.
                let (resp, spans) = match req.trace_context() {
                    Some(ctx) => {
                        let guard = cf_obs::trace::begin_remote(ctx);
                        let resp = handler.handle(req);
                        (resp, guard.finish())
                    }
                    None => (handler.handle(req), Vec::new()),
                };
                handler.bump(!matches!(resp, Response::Error { .. }));
                match handler.after_response() {
                    ConnAction::Close => return Ok(()),
                    ConnAction::Continue => {}
                }
                frame::write_response(stream, &resp, &spans)?;
            }
            Err(crate::frame::FrameError::Io(e)) => return Err(crate::frame::FrameError::Io(e)),
            Err(e) => {
                // Protocol-level garbage: tell the peer why, then drop.
                let _ = frame::write_response(
                    stream,
                    &Response::Error {
                        code: crate::frame::ERR_BAD_REQUEST,
                        message: e.to_string(),
                    },
                    &[],
                );
                return Err(e);
            }
        }
    }
}

// --- the model shard ---------------------------------------------------

/// Identity and limits for one model shard process.
#[derive(Debug, Clone, Default)]
pub struct ShardOptions {
    /// Operator-assigned shard id, reported in health frames and logs.
    pub shard_id: u32,
    /// Transport tuning.
    pub server: ServerOptions,
}

impl From<PredictionBreakdown> for WirePrediction {
    fn from(b: PredictionBreakdown) -> Self {
        Self {
            fused: b.fused,
            level: b.level.code(),
            fallback: b.used_fallback,
        }
    }
}

struct ShardHandler {
    handle: ModelHandle,
    shard_id: u32,
}

impl ShardHandler {
    fn health(&self) -> Response {
        let (model, generation) = self.handle.load_with_generation();
        Response::Health(HealthInfo {
            shard_id: self.shard_id,
            num_users: model.matrix().num_users() as u64,
            num_items: model.matrix().num_items() as u64,
            generation,
        })
    }

    fn profile(&self) -> Response {
        let (model, generation) = self.handle.load_with_generation();
        let m = model.matrix();
        let scale = m.scale();
        Response::Profile(WireProfile {
            scale_min: scale.min,
            scale_max: scale.max,
            global_mean: m.global_mean(),
            num_items: m.num_items() as u64,
            user_means: m.user_means().to_vec(),
            generation,
        })
    }

    fn predict(&self, user: u32, item: u32) -> Response {
        match self
            .handle
            .load()
            .predict_with_breakdown(UserId::new(user), ItemId::new(item))
        {
            Some(b) => Response::Prediction(b.into()),
            None => Response::Error {
                code: ERR_OUT_OF_RANGE,
                message: format!("user {user} or item {item} outside the model"),
            },
        }
    }

    fn predict_batch(&self, pairs: &[(u32, u32)]) -> Response {
        let reqs: Vec<(UserId, ItemId)> = pairs
            .iter()
            .map(|&(u, i)| (UserId::new(u), ItemId::new(i)))
            .collect();
        // One load for the whole batch: every pair is answered by the
        // same generation even if a refresh publishes mid-batch. The
        // batch engine strip-sorts internally and answers in request
        // order; unpredictable pairs come back as None elements instead
        // of failing the whole frame.
        let preds = self
            .handle
            .load()
            .predict_batch_with_breakdown(&reqs, None)
            .into_iter()
            .map(|b| b.map(WirePrediction::from))
            .collect();
        Response::Predictions(preds)
    }

    fn recommend(&self, user: u32, n: u32, item_start: u32, item_end: u32) -> Response {
        let model = self.handle.load();
        if (user as usize) >= model.matrix().num_users() {
            return Response::Error {
                code: ERR_OUT_OF_RANGE,
                message: format!("user {user} outside the model"),
            };
        }
        let recs =
            model.recommend_top_n_in_range(UserId::new(user), n as usize, item_start..item_end);
        Response::TopN(recs.into_iter().map(|(i, s)| (i.raw(), s)).collect())
    }

    fn stats(&self) -> Response {
        let (_, generation) = self.handle.load_with_generation();
        Response::Stats(WireStats {
            shard_id: self.shard_id,
            generation,
            snapshot: cf_obs::merge::MergeSnapshot::of(cf_obs::global()).to_bytes(),
        })
    }
}

impl Handler for ShardHandler {
    fn handle(&self, req: Request) -> Response {
        cf_obs::time_scope!("serve.shard.request_ns");
        match req {
            Request::Health => self.health(),
            Request::Profile => self.profile(),
            Request::Stats => self.stats(),
            Request::Predict { user, item, .. } => self.predict(user, item),
            Request::PredictBatch { pairs, .. } => self.predict_batch(&pairs),
            Request::RecommendTopN {
                user,
                n,
                item_start,
                item_end,
                ..
            } => self.recommend(user, n, item_start, item_end),
        }
    }

    fn bump(&self, ok: bool) {
        cf_obs::counter!("serve.shard.requests").inc();
        if ok {
            cf_obs::counter!("serve.shard.responses.ok").inc();
        } else {
            cf_obs::counter!("serve.shard.responses.error").inc();
        }
    }

    fn after_response(&self) -> ConnAction {
        #[cfg(feature = "faultinject")]
        {
            // Chaos hook: die mid-request — the response is computed but
            // never written, modeling a shard crashing under load. The
            // router must absorb this as a retry/failover, never an error.
            if cf_faultinject::fires("serve.shard.drop_conn") {
                cf_obs::counter!("serve.shard.injected.drop_conn").inc();
                return ConnAction::Close;
            }
        }
        ConnAction::Continue
    }
}

/// A running model shard: a [`FrameServer`] answering requests through a
/// [`ModelHandle`] — fixed for the classic static deployment, or backed
/// by a live generation cell so a self-healing refresh swaps models under
/// the server with zero pause.
pub struct ShardServer {
    inner: FrameServer,
}

impl ShardServer {
    /// Binds `addr` (port `0` picks a free one) and serves whatever
    /// generation `handle` points at, request by request.
    pub fn bind(
        addr: impl ToSocketAddrs,
        handle: ModelHandle,
        opts: ShardOptions,
    ) -> std::io::Result<Self> {
        let handler = Arc::new(ShardHandler {
            handle,
            shard_id: opts.shard_id,
        });
        // Register the counters up front so even an idle shard's metrics
        // snapshot carries the names (absent vs zero is ambiguous).
        cf_obs::counter!("serve.shard.requests").add(0);
        cf_obs::counter!("serve.shard.responses.ok").add(0);
        cf_obs::counter!("serve.shard.responses.error").add(0);
        cf_obs::gauge!("serve.shard.id").set(i64::from(opts.shard_id));
        let inner = FrameServer::bind(addr, opts.server, handler, "cf-serve-shard")?;
        Ok(Self { inner })
    }

    /// The actually-bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.inner.local_addr()
    }

    /// Stops the accept loop and joins every connection thread.
    pub fn shutdown(self) {
        self.inner.shutdown();
    }
}
