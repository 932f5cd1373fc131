//! Load: closed-loop client connections through the router, and the
//! `refresh_ingest` writer.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use cf_serve::{Request, Response, ShardClient};
use cfsf_core::SelfHealingCfsf;

use crate::fleet::{client_options, Fleet, Rating, ShardModel};
use crate::stats::{median_of, Summary};
use crate::streams::{Req, TOP_N};
use crate::trace::SpanLog;

/// What a request came back with.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// A `Prediction` frame.
    Predicted { fused: f64, fallback: bool },
    /// A `TopN` frame.
    Ranked(Vec<(u32, f64)>),
    /// A transport error, an `Error` frame or a frame of the wrong kind.
    Failed,
}

/// One completed request.
#[derive(Debug, Clone)]
pub struct Answer {
    /// What was asked.
    pub req: Req,
    /// Client-side latency, in microseconds.
    pub lat_us: f64,
    /// Completion time, in seconds since the window start.
    pub done_s: f64,
    /// Whether a model rebuild was in flight when it was sent or
    /// answered (`refresh_ingest` only).
    pub during_rebuild: bool,
    /// What came back.
    pub outcome: Outcome,
}

/// The frame a request goes out as: top-N requests cover the whole item
/// space, as the router's own `recommend_top_n` does.
fn frame(req: Req) -> Request {
    match req {
        Req::Predict { user, item } => Request::predict(user, item),
        Req::TopN { user } => Request::recommend_top_n(user, TOP_N, 0, u32::MAX),
    }
}

/// Sends one request on `client` and classifies the answer.
pub fn exchange(client: &mut ShardClient, req: Req) -> Result<Outcome, ()> {
    match (req, client.request(&frame(req))) {
        (Req::Predict { .. }, Ok(Response::Prediction(p))) => Ok(Outcome::Predicted {
            fused: p.fused,
            fallback: p.fallback,
        }),
        (Req::TopN { .. }, Ok(Response::TopN(items))) => Ok(Outcome::Ranked(items)),
        (_, Ok(_)) => Ok(Outcome::Failed),
        // A transport error leaves the connection's framing unknown.
        (_, Err(_)) => Err(()),
    }
}

/// One client connection's view of a window.
pub struct ClientRun {
    /// Every request completed inside the window, in send order.
    pub answers: Vec<Answer>,
    /// From the window start to the last completion.
    pub elapsed_s: f64,
}

/// Where a window's spans go: the log and the span they hang under.
pub struct Tracing<'a> {
    /// This thread's log.
    pub log: &'a mut SpanLog,
    /// Parent span of every request span.
    pub parent: u64,
    /// Request ids are `client << 32 | sequence`.
    pub client: u64,
}

/// Drives one connection closed-loop: the next request goes out as soon
/// as the previous answer is in, from `start` until `until`. Requests
/// cycle through `reqs` in order.
pub fn closed_loop(
    addr: SocketAddr,
    reqs: &[Req],
    start: Instant,
    until: Instant,
    rebuilding: Option<&AtomicBool>,
    mut tracing: Option<Tracing<'_>>,
) -> std::io::Result<ClientRun> {
    let mut client = ShardClient::connect(addr, client_options())?;
    let mut answers = Vec::with_capacity(1 << 16);
    if let Some(wait) = start.checked_duration_since(Instant::now()) {
        std::thread::sleep(wait);
    }
    let flag = || rebuilding.is_some_and(|f| f.load(Ordering::Acquire));
    let mut last = start;
    for (seq, &req) in reqs.iter().cycle().enumerate() {
        let t0 = Instant::now();
        if t0 >= until {
            break;
        }
        let during = flag();
        let outcome = match exchange(&mut client, req) {
            Ok(o) => o,
            Err(()) => {
                client = ShardClient::connect(addr, client_options())?;
                Outcome::Failed
            }
        };
        let t1 = Instant::now();
        if let Some(t) = tracing.as_mut() {
            let name = match req {
                Req::Predict { .. } => "client.predict",
                Req::TopN { .. } => "client.topn",
            };
            t.log
                .record(name, t.parent, (t.client << 32) | seq as u64, t0, t1);
        }
        answers.push(Answer {
            req,
            lat_us: (t1 - t0).as_secs_f64() * 1e6,
            done_s: (t1 - start).as_secs_f64(),
            during_rebuild: during || flag(),
            outcome,
        });
        last = t1;
    }
    Ok(ClientRun {
        answers,
        elapsed_s: (last - start).as_secs_f64(),
    })
}

/// One rebuild the writer triggered.
#[derive(Debug, Clone, Copy)]
pub struct Rebuild {
    /// A full refit (else a partial rebuild), by the escalation rule
    /// `SelfHealingCfsf` documents.
    pub full: bool,
    /// From `trigger()` until every shard serves the new generation.
    pub secs: f64,
}

/// Longest wait for one batch's rebuilds before they count as failed.
const REBUILD_TIMEOUT: Duration = Duration::from_secs(60);

/// What the writer did.
#[derive(Debug, Default)]
pub struct WriterRun {
    /// Latency of each `add_rating` call, in microseconds.
    pub add_rating_us: Vec<f64>,
    /// Every rebuild, in order.
    pub rebuilds: Vec<Rebuild>,
    /// `add_rating` or `trigger` calls the model refused.
    pub errors: usize,
}

/// The `refresh_ingest` writer: applies `batches` to every shard through
/// `add_rating`, then triggers one rebuild per shard and waits until all
/// of them serve the new generation, before the next batch. Batches are
/// spaced evenly over `start..until`; batches the window did not reach
/// are applied right after it, so every run ends on the same model.
pub fn writer(
    shards: &[ShardModel],
    batches: &[&[Rating]],
    start: Instant,
    until: Instant,
    rebuilding: &AtomicBool,
    mut spans: Option<(&mut SpanLog, u64)>,
) -> WriterRun {
    let healing: Vec<&SelfHealingCfsf> = shards.iter().filter_map(ShardModel::healing).collect();
    let mut run = WriterRun::default();
    let window = until.saturating_duration_since(start);
    // `SelfHealingCfsf` escalates to a full refit once the ratings merged
    // since the last full refit exceed this share of the matrix.
    let full_fraction = crate::fleet::parked_drift().full_refit_fraction;
    let mut churn = 0usize;
    for (b, batch) in batches.iter().enumerate() {
        let due = start + window.mul_f64(b as f64 / batches.len() as f64);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let batch_span = spans
            .as_mut()
            .map(|(log, parent)| log.open("refresh.batch", *parent, b as u64 + 1));
        for &(u, i, r) in batch.iter() {
            for h in &healing {
                let t0 = Instant::now();
                let ok = h.add_rating(u, i, r).is_ok();
                let t1 = Instant::now();
                run.add_rating_us.push((t1 - t0).as_secs_f64() * 1e6);
                if let (Some((log, _)), Some(parent)) = (spans.as_mut(), batch_span) {
                    log.record("refresh.add_rating", parent, b as u64 + 1, t0, t1);
                }
                run.errors += usize::from(!ok);
            }
        }
        let merged = healing
            .first()
            .map_or(0, |h| h.model().matrix().num_ratings())
            + batch.len();
        let would_be = churn + batch.len();
        let full = would_be as f64 > full_fraction * merged as f64;
        churn = if full { 0 } else { would_be };

        let targets: Vec<u64> = healing.iter().map(|h| h.generation() + 1).collect();
        rebuilding.store(true, Ordering::Release);
        let t0 = Instant::now();
        for h in &healing {
            run.errors += usize::from(!h.trigger());
        }
        // A rebuild that fails leaves the old generation serving; give up
        // on it after a bound and count it rather than wait forever.
        let give_up = t0 + REBUILD_TIMEOUT;
        while healing
            .iter()
            .zip(&targets)
            .any(|(h, &target)| h.generation() < target)
        {
            if Instant::now() > give_up {
                run.errors += 1;
                break;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        let t1 = Instant::now();
        rebuilding.store(false, Ordering::Release);
        if let (Some((log, _)), Some(parent)) = (spans.as_mut(), batch_span) {
            let name = if full {
                "refresh.rebuild_full"
            } else {
                "refresh.rebuild_partial"
            };
            log.record(name, parent, b as u64 + 1, t0, t1);
            log.close(parent);
        }
        run.rebuilds.push(Rebuild {
            full,
            secs: (t1 - t0).as_secs_f64(),
        });
    }
    for h in &healing {
        h.wait_idle();
    }
    run
}

/// A timed window: every connection's answers and the writer's record.
pub struct Window {
    /// One entry per client connection.
    pub runs: Vec<ClientRun>,
    /// `refresh_ingest` only.
    pub writer: Option<WriterRun>,
}

impl Window {
    /// Every answer, connection by connection.
    pub fn answers(&self) -> Vec<&Answer> {
        self.runs.iter().flat_map(|r| r.answers.iter()).collect()
    }

    /// From the window start to the last completion on any connection.
    pub fn elapsed_s(&self) -> f64 {
        self.runs.iter().map(|r| r.elapsed_s).fold(0.0, f64::max)
    }

    /// Completions per second over the whole window.
    pub fn throughput(&self) -> f64 {
        let n: usize = self.runs.iter().map(|r| r.answers.len()).sum();
        n as f64 / self.elapsed_s()
    }
}

/// Runs one closed-loop connection per stream against the router for
/// `secs`, with the `refresh_ingest` writer beside them when `batches`
/// is given. With `log`, every request and write becomes a span under
/// one `window` span.
pub fn window(
    fleet: &Fleet,
    streams: &[Vec<Req>],
    secs: f64,
    batches: Option<&[&[Rating]]>,
    log: Option<&mut SpanLog>,
) -> std::io::Result<Window> {
    let rebuilding = AtomicBool::new(false);
    let start = Instant::now() + Duration::from_millis(20);
    let until = start + Duration::from_secs_f64(secs);
    let mut log = log;
    let root = log.as_deref_mut().map(|l| l.open("window", 0, 0));
    // One log per thread, merged into `log` afterwards.
    let mut thread_logs: Vec<SpanLog> = match log.as_deref_mut() {
        Some(l) => (0..=streams.len()).map(|_| l.child()).collect(),
        None => Vec::new(),
    };
    let mut logs = thread_logs.iter_mut();
    let (runs, writer) = std::thread::scope(|s| {
        let clients: Vec<_> = streams
            .iter()
            .enumerate()
            .map(|(c, reqs)| {
                let tracing = logs.next().zip(root).map(|(log, parent)| Tracing {
                    log,
                    parent,
                    client: c as u64 + 1,
                });
                let rebuilding = batches.map(|_| &rebuilding);
                s.spawn(move || {
                    closed_loop(fleet.router_addr, reqs, start, until, rebuilding, tracing)
                })
            })
            .collect();
        let writer = batches.map(|b| {
            let spans = logs.next().zip(root);
            writer(&fleet.shards, b, start, until, &rebuilding, spans)
        });
        let runs: std::io::Result<Vec<ClientRun>> = clients
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (runs, writer)
    });
    if let (Some(l), Some(root)) = (log, root) {
        l.close(root);
        for t in thread_logs {
            l.absorb(t);
        }
    }
    Ok(Window {
        runs: runs?,
        writer,
    })
}

/// Latencies in microseconds of the answered top-N (`topn`) or predict
/// requests.
pub fn latencies(answers: &[&Answer], topn: bool) -> Vec<f64> {
    answers
        .iter()
        .filter(|a| matches!(a.req, Req::TopN { .. }) == topn)
        .filter(|a| !matches!(a.outcome, Outcome::Failed))
        .map(|a| a.lat_us)
        .collect()
}

/// Fewest main-request samples a slice may hold: enough for its p90 to
/// have 20 samples beyond it.
const SLICE_MIN: usize = 200;

/// A window's end-to-end numbers as medians over equal time slices, so a
/// burst of host noise in one part of the window moves them little.
pub struct Sliced {
    /// Slices the window was cut into.
    pub count: usize,
    /// Length of each, in seconds.
    pub len_s: f64,
    /// Median completions per second.
    pub rps: f64,
    /// Median p50 of the main request, in microseconds.
    pub p50: f64,
    /// Median p90 of the main request, in microseconds.
    pub p90: f64,
}

/// Cuts the window into as many slices of a second or more as keep
/// [`SLICE_MIN`] main requests (top-N when `main_topn`, else predicts)
/// each, at least one, and takes the median over slices of the
/// completion rate and of the main request's p50 and p90.
pub fn sliced(answers: &[&Answer], window_s: f64, main_topn: bool) -> Sliced {
    let mains = latencies(answers, main_topn).len();
    let count = (window_s.floor() as usize).min(mains / SLICE_MIN).max(1);
    let len_s = window_s / count as f64;
    let (mut rps, mut p50, mut p90) = (Vec::new(), Vec::new(), Vec::new());
    for k in 0..count {
        let (lo, hi) = (k as f64 * len_s, (k + 1) as f64 * len_s);
        let inside: Vec<&Answer> = answers
            .iter()
            .copied()
            .filter(|a| a.done_s >= lo && (a.done_s < hi || k + 1 == count))
            .collect();
        rps.push(inside.len() as f64 / len_s);
        let s = Summary::of(&latencies(&inside, main_topn));
        p50.extend(s.median());
        p90.extend(s.exact(0.9));
    }
    // A slice too small for a percentile leaves it out; with none left
    // the value is NaN and the run reports the metric as missing.
    Sliced {
        count,
        len_s,
        rps: median_of(&rps).unwrap_or(f64::NAN),
        p50: median_of(&p50).unwrap_or(f64::NAN),
        p90: median_of(&p90).unwrap_or(f64::NAN),
    }
}
