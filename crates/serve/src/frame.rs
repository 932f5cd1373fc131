//! The CFSF wire protocol: length-framed, versioned, checksummed binary
//! frames over TCP — the persistence format's style, but per message
//! instead of per file section.
//!
//! Frame layout (everything little-endian):
//!
//! ```text
//! magic "CFWP" | u16 version | u16 kind | u32 len | payload (len bytes) | u32 crc32
//! ```
//!
//! The crc32 ([`cfsf_core::crc32`], the same IEEE polynomial the model
//! files use) covers the payload only; the fixed header is validated
//! field by field so a desynced or hostile peer fails fast with a
//! specific error instead of a mis-sized read. `len` is capped by
//! [`MAX_FRAME_BYTES`] **before** any allocation, so a corrupt length
//! can't OOM the server.
//!
//! Requests and responses share the same framing; kinds below 16 are
//! requests, 16 and up are responses. Both sides ignore unknown *trailing
//! payload bytes* within a known kind (append-only evolution), and
//! reject unknown kinds — version bumps are for layout changes, not
//! additions.
//!
//! Floating-point values travel as `f64::to_bits`, so a prediction
//! served through a shard is bit-for-bit the prediction the same model
//! serves in process.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use cf_obs::trace::{RemoteSpan, TraceContext, REMOTE_SPANS_CAP};

/// Frame magic: CFSF Wire Protocol.
pub const MAGIC: [u8; 4] = *b"CFWP";
/// Current protocol version. Bumped only for layout changes; appending
/// fields to an existing payload is allowed within a version.
pub const VERSION: u16 = 1;
/// Hard cap on one frame's payload. Generous enough for a 1M-user
/// profile frame (8 MiB of user means), small enough that a corrupt
/// length field cannot balloon allocation.
pub const MAX_FRAME_BYTES: usize = 64 << 20;
/// Fixed header size: magic + version + kind + len.
pub const HEADER_LEN: usize = 12;

/// Error code: the requested user or item id is outside the model.
pub const ERR_OUT_OF_RANGE: u16 = 1;
/// Error code: the frame decoded but the request is malformed.
pub const ERR_BAD_REQUEST: u16 = 2;
/// Error code: the server is at its connection/queue limit.
pub const ERR_BUSY: u16 = 3;
/// Error code: an internal failure the server absorbed.
pub const ERR_INTERNAL: u16 = 4;

const KIND_HEALTH: u16 = 1;
const KIND_PREDICT: u16 = 2;
const KIND_RECOMMEND: u16 = 3;
const KIND_PROFILE: u16 = 4;
const KIND_PREDICT_BATCH: u16 = 5;
const KIND_STATS: u16 = 6;
const KIND_R_HEALTH: u16 = 16;
const KIND_R_PREDICTION: u16 = 17;
const KIND_R_TOP_N: u16 = 18;
const KIND_R_PROFILE: u16 = 19;
const KIND_R_ERROR: u16 = 20;
const KIND_R_PREDICTIONS: u16 = 21;
const KIND_R_STATS: u16 = 22;

/// Everything that can go wrong reading or decoding a frame.
#[derive(Debug)]
pub enum FrameError {
    /// Underlying socket failure (including timeouts mid-frame).
    Io(std::io::Error),
    /// The stream does not start with [`MAGIC`] — not a CFSF peer, or a
    /// desynced one.
    BadMagic([u8; 4]),
    /// The peer speaks a protocol version this build does not.
    BadVersion(u16),
    /// The declared payload length exceeds [`MAX_FRAME_BYTES`].
    TooLarge(u32),
    /// The payload checksum did not match.
    BadCrc {
        /// CRC carried by the frame.
        expected: u32,
        /// CRC computed over the received payload.
        actual: u32,
    },
    /// A kind byte neither side of this build understands.
    UnknownKind(u16),
    /// The kind is known but the payload doesn't decode.
    Malformed(&'static str),
    /// The peer closed the stream mid-frame (clean EOF between frames is
    /// [`ReadOutcome::Eof`], not an error).
    Truncated,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "i/o error: {e}"),
            Self::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            Self::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            Self::TooLarge(n) => write!(f, "frame payload of {n} bytes exceeds the limit"),
            Self::BadCrc { expected, actual } => {
                write!(
                    f,
                    "payload crc mismatch: frame says {expected:08x}, computed {actual:08x}"
                )
            }
            Self::UnknownKind(k) => write!(f, "unknown frame kind {k}"),
            Self::Malformed(what) => write!(f, "malformed payload: {what}"),
            Self::Truncated => write!(f, "peer closed the stream mid-frame"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

/// A request frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness + model-shape probe.
    Health,
    /// Predict one `(user, item)` rating.
    Predict {
        /// 0-based user id.
        user: u32,
        /// 0-based item id.
        item: u32,
        /// Caller's trace context, propagated so the shard continues the
        /// span tree under the same trace id. Travels as appended
        /// trailing payload — old peers ignore it, and frames from old
        /// peers decode with no context.
        trace: FrameTrace,
    },
    /// Top-`n` recommendations for `user` over the item stripe
    /// `[item_start, item_end)`; `item_end == u32::MAX` means "through
    /// the last item". The router scatters stripes across shards and
    /// merges; plain clients just pass the full range.
    RecommendTopN {
        /// 0-based user id.
        user: u32,
        /// How many items to return.
        n: u32,
        /// First item of the stripe (inclusive).
        item_start: u32,
        /// One past the last item of the stripe; `u32::MAX` = item count.
        item_end: u32,
        /// Caller's trace context (see [`Request::Predict::trace`]).
        trace: FrameTrace,
    },
    /// Fetch the fallback profile (scale, global/user means) the router
    /// serves degraded answers from when a shard is unreachable.
    Profile,
    /// Predict a whole batch of `(user, item)` pairs in one frame. The
    /// shard runs them through [`cfsf_core::Cfsf::predict_batch_with_breakdown`]
    /// (strip-sorted for locality), so amortized per-request cost beats a
    /// stream of [`Request::Predict`] frames while answers stay
    /// bit-identical and in request order.
    PredictBatch {
        /// 0-based `(user, item)` pairs, answered in this order.
        pairs: Vec<(u32, u32)>,
        /// Caller's trace context (see [`Request::Predict::trace`]).
        trace: FrameTrace,
    },
    /// Fetch the shard's mergeable metrics snapshot
    /// ([`cf_obs::merge::MergeSnapshot`] wire bytes) for fleet
    /// aggregation.
    Stats,
}

/// The trace context a traced request carries. Only this module builds
/// one: the [`Request`] constructors capture the calling thread's
/// context, and the decoder reads it off the wire. So code elsewhere
/// cannot build a traced request that silently drops its context:
///
/// ```compile_fail,E0308
/// let _ = cf_serve::Request::Predict { user: 1, item: 2, trace: None };
/// ```
///
/// ```compile_fail,E0423
/// use cf_serve::frame::{FrameTrace, Request};
/// let _ = Request::Predict { user: 1, item: 2, trace: FrameTrace(None) };
/// ```
///
/// Building through the constructors and matching with `..` work
/// anywhere:
///
/// ```
/// use cf_serve::Request;
/// let req = Request::predict(1, 2);
/// assert!(matches!(req, Request::Predict { user: 1, item: 2, .. }));
/// assert_eq!(req.trace_context(), None);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameTrace(Option<TraceContext>);

impl FrameTrace {
    fn current() -> Self {
        Self(cf_obs::trace::current_context())
    }
}

impl Request {
    /// A [`Request::Predict`] carrying the calling thread's current
    /// trace context (if a request trace is active).
    pub fn predict(user: u32, item: u32) -> Self {
        Self::Predict {
            user,
            item,
            trace: FrameTrace::current(),
        }
    }

    /// A [`Request::RecommendTopN`] carrying the current trace context.
    pub fn recommend_top_n(user: u32, n: u32, item_start: u32, item_end: u32) -> Self {
        Self::RecommendTopN {
            user,
            n,
            item_start,
            item_end,
            trace: FrameTrace::current(),
        }
    }

    /// A [`Request::PredictBatch`] carrying the current trace context.
    pub fn predict_batch(pairs: Vec<(u32, u32)>) -> Self {
        Self::PredictBatch {
            pairs,
            trace: FrameTrace::current(),
        }
    }

    /// The propagated trace context, if the request carries one.
    pub fn trace_context(&self) -> Option<TraceContext> {
        match self {
            Self::Predict { trace, .. }
            | Self::RecommendTopN { trace, .. }
            | Self::PredictBatch { trace, .. } => trace.0,
            Self::Health | Self::Profile | Self::Stats => None,
        }
    }
}

/// A shard's mergeable metrics snapshot, for the router's fleet
/// aggregator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireStats {
    /// Operator-assigned shard id.
    pub shard_id: u32,
    /// Refresh generation currently serving.
    pub generation: u64,
    /// [`cf_obs::merge::MergeSnapshot::to_bytes`] payload; versioned and
    /// bounds-checked by its own decoder, so the frame layer just
    /// carries the bytes.
    pub snapshot: Vec<u8>,
}

/// Shard identity and model shape, for health checks and mismatch
/// detection at router startup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthInfo {
    /// Operator-assigned shard id (`u32::MAX` for a router front).
    pub shard_id: u32,
    /// Users in the loaded model.
    pub num_users: u64,
    /// Items in the loaded model.
    pub num_items: u64,
    /// Refresh generation currently serving (0 before any live refresh
    /// and on peers predating the field — appended trailing payload, so
    /// old and new builds interoperate without a version bump).
    pub generation: u64,
}

/// One served prediction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WirePrediction {
    /// The fused, clamped prediction (bit-exact with the in-process
    /// model).
    pub fused: f64,
    /// [`cfsf_core::DegradeLevel::code`] of the rung that served it.
    pub level: u8,
    /// Whether the rung is in the fallback region of the ladder.
    pub fallback: bool,
}

/// The fallback profile: enough of the model for a router to serve the
/// bottom rungs of the degradation ladder on its own.
#[derive(Debug, Clone, PartialEq)]
pub struct WireProfile {
    /// Rating scale minimum.
    pub scale_min: f64,
    /// Rating scale maximum.
    pub scale_max: f64,
    /// Global mean rating — the rung that cannot be missing.
    pub global_mean: f64,
    /// Items in the model (users is `user_means.len()`).
    pub num_items: u64,
    /// Per-user mean ratings, indexed by user id.
    pub user_means: Vec<f64>,
    /// Refresh generation the profile was cut from (0 on peers predating
    /// the field — appended trailing payload, no version bump). The
    /// router compares this against health frames to notice its fallback
    /// table has gone stale.
    pub generation: u64,
}

/// A response frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answer to [`Request::Health`].
    Health(HealthInfo),
    /// Answer to [`Request::Predict`].
    Prediction(WirePrediction),
    /// Answer to [`Request::RecommendTopN`]: `(item, score)`, best
    /// first.
    TopN(Vec<(u32, f64)>),
    /// Answer to [`Request::Profile`].
    Profile(WireProfile),
    /// Answer to [`Request::PredictBatch`], element `k` answering pair
    /// `k`; `None` marks a pair the model cannot predict (out of range or
    /// no local information) without failing the rest of the batch.
    Predictions(Vec<Option<WirePrediction>>),
    /// The request could not be served; `code` is one of the `ERR_*`
    /// constants.
    Error {
        /// Machine-readable `ERR_*` code.
        code: u16,
        /// Human-readable detail.
        message: String,
    },
    /// Answer to [`Request::Stats`].
    Stats(WireStats),
}

/// Outcome of one [`read_frame`] call on a stream with a read timeout.
#[derive(Debug)]
pub enum ReadOutcome<T> {
    /// A complete, checksummed, decoded frame.
    Frame(T),
    /// The socket timeout elapsed with **zero** bytes of a new frame —
    /// the connection is idle. Callers poll their stop flag and retry.
    Idle,
    /// Clean EOF on a frame boundary: the peer is done.
    Eof,
}

// --- payload cursor ----------------------------------------------------

struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(data: &'a [u8]) -> Self {
        Self { data, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.data.len())
            .ok_or(FrameError::Malformed(
                "payload shorter than declared fields",
            ))?;
        let s = &self.data[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, FrameError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, FrameError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, FrameError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn f64(&mut self) -> Result<f64, FrameError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a `u64` appended after the original payload fields — the
    /// append-only evolution rule: a short payload (old peer) decodes as
    /// `default` instead of failing.
    fn u64_or(&mut self, default: u64) -> u64 {
        self.u64().unwrap_or(default)
    }

    /// Bytes left between the read position and the end of the payload —
    /// the tightest bound any decoded length can honestly claim.
    fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Decodes a `count`-element sequence with `elem`. A count whose
    /// elements, at `min_bytes` each, cannot fit in the rest of the
    /// payload is `Malformed` before anything is allocated, so a lying
    /// count never sizes a `Vec` past the bytes that arrived.
    fn counted<T>(
        &mut self,
        count: u64,
        min_bytes: usize,
        what: &'static str,
        mut elem: impl FnMut(&mut Self) -> Result<T, FrameError>,
    ) -> Result<Vec<T>, FrameError> {
        let n = usize::try_from(count).map_err(|_| FrameError::Malformed(what))?;
        let fits = n
            .checked_mul(min_bytes)
            .is_some_and(|b| b <= self.remaining());
        if !fits {
            return Err(FrameError::Malformed(what));
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(elem(self)?);
        }
        Ok(out)
    }
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

// --- trailing telemetry blobs ------------------------------------------
//
// Trace context (on Predict/RecommendTopN/PredictBatch requests) and
// completed remote spans (on Prediction/TopN/Predictions responses)
// travel as *appended* trailing payload, per the append-only evolution
// rule: old decoders stop at the original fields and never see them, and
// this decoder reads them leniently — a short or garbled tail decodes as
// "no context" / "no spans", never as a frame error, because telemetry
// must not be able to fail serving.

/// Appends `ctx` after the request's original payload fields.
fn put_trace_context(out: &mut Vec<u8>, trace: &FrameTrace) {
    if let Some(ctx) = trace.0 {
        out.push(1);
        put_u64(out, ctx.trace_id);
        put_u32(out, ctx.parent_span);
        out.push(u8::from(ctx.sampled));
    }
    // `None` appends nothing: the frame is byte-identical to one from a
    // build predating trace propagation.
}

/// Leniently reads a trailing trace context; anything short, absent or
/// unrecognized is `None`.
fn take_trace_context(c: &mut Cursor) -> Option<TraceContext> {
    if c.u8().ok()? != 1 {
        return None;
    }
    let trace_id = c.u64().ok()?;
    let parent_span = c.u32().ok()?;
    let sampled = c.u8().ok()? != 0;
    Some(TraceContext {
        trace_id,
        parent_span,
        sampled,
    })
}

/// Appends completed remote spans after a response's original payload.
fn put_spans(out: &mut Vec<u8>, spans: &[RemoteSpan]) {
    if spans.is_empty() {
        return;
    }
    let n = spans.len().min(REMOTE_SPANS_CAP);
    put_u32(out, n as u32);
    for span in &spans[..n] {
        let name = span.name.as_bytes();
        let len = name.len().min(u16::MAX as usize);
        put_u16(out, len as u16);
        out.extend_from_slice(&name[..len]);
        put_u64(out, span.start_ns);
        put_u64(out, span.dur_ns);
        out.push(span.depth);
    }
}

/// Leniently reads trailing remote spans; a short or garbled tail yields
/// the spans decoded so far (possibly none). `origin` is not on the wire
/// — the receiver knows which shard it asked.
fn take_spans(c: &mut Cursor) -> Vec<RemoteSpan> {
    let Ok(count) = c.u32() else {
        return Vec::new();
    };
    let mut spans = Vec::new();
    for _ in 0..count.min(REMOTE_SPANS_CAP as u32) {
        let Ok(len) = c.u16() else { break };
        let len = (len as usize).min(c.remaining());
        let Ok(name) = c.take(len) else {
            break;
        };
        let name = String::from_utf8_lossy(name).into_owned();
        let (Ok(start_ns), Ok(dur_ns), Ok(depth)) = (c.u64(), c.u64(), c.u8()) else {
            break;
        };
        spans.push(RemoteSpan {
            origin: String::new(),
            name,
            start_ns,
            dur_ns,
            depth,
        });
    }
    spans
}

/// Response kinds that may carry a trailing remote-span blob. Profile is
/// deliberately excluded: its decoder reads a lenient trailing
/// `generation` u64, which a span blob would corrupt.
fn span_capable(kind: u16) -> bool {
    matches!(kind, KIND_R_PREDICTION | KIND_R_TOP_N | KIND_R_PREDICTIONS)
}

// --- encode ------------------------------------------------------------

impl Request {
    fn kind(&self) -> u16 {
        match self {
            Self::Health => KIND_HEALTH,
            Self::Predict { .. } => KIND_PREDICT,
            Self::RecommendTopN { .. } => KIND_RECOMMEND,
            Self::Profile => KIND_PROFILE,
            Self::PredictBatch { .. } => KIND_PREDICT_BATCH,
            Self::Stats => KIND_STATS,
        }
    }

    fn payload(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Self::Health | Self::Profile | Self::Stats => {}
            Self::Predict { user, item, trace } => {
                put_u32(&mut out, *user);
                put_u32(&mut out, *item);
                put_trace_context(&mut out, trace);
            }
            Self::RecommendTopN {
                user,
                n,
                item_start,
                item_end,
                trace,
            } => {
                put_u32(&mut out, *user);
                put_u32(&mut out, *n);
                put_u32(&mut out, *item_start);
                put_u32(&mut out, *item_end);
                put_trace_context(&mut out, trace);
            }
            Self::PredictBatch { pairs, trace } => {
                put_u32(&mut out, pairs.len() as u32);
                for &(user, item) in pairs {
                    put_u32(&mut out, user);
                    put_u32(&mut out, item);
                }
                put_trace_context(&mut out, trace);
            }
        }
        out
    }

    fn decode(kind: u16, payload: &[u8]) -> Result<Self, FrameError> {
        let mut c = Cursor::new(payload);
        Ok(match kind {
            KIND_HEALTH => Self::Health,
            KIND_PROFILE => Self::Profile,
            KIND_STATS => Self::Stats,
            KIND_PREDICT => Self::Predict {
                user: c.u32()?,
                item: c.u32()?,
                trace: FrameTrace(take_trace_context(&mut c)),
            },
            KIND_RECOMMEND => Self::RecommendTopN {
                user: c.u32()?,
                n: c.u32()?,
                item_start: c.u32()?,
                item_end: c.u32()?,
                trace: FrameTrace(take_trace_context(&mut c)),
            },
            KIND_PREDICT_BATCH => {
                let count = c.u32()?.into();
                let pairs = c.counted(count, 8, "batch count exceeds payload", |c| {
                    Ok((c.u32()?, c.u32()?))
                })?;
                Self::PredictBatch {
                    pairs,
                    trace: FrameTrace(take_trace_context(&mut c)),
                }
            }
            other => return Err(FrameError::UnknownKind(other)),
        })
    }
}

impl Response {
    fn kind(&self) -> u16 {
        match self {
            Self::Health(_) => KIND_R_HEALTH,
            Self::Prediction(_) => KIND_R_PREDICTION,
            Self::TopN(_) => KIND_R_TOP_N,
            Self::Profile(_) => KIND_R_PROFILE,
            Self::Error { .. } => KIND_R_ERROR,
            Self::Predictions(_) => KIND_R_PREDICTIONS,
            Self::Stats(_) => KIND_R_STATS,
        }
    }

    fn payload(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Self::Health(h) => {
                put_u32(&mut out, h.shard_id);
                put_u64(&mut out, h.num_users);
                put_u64(&mut out, h.num_items);
                put_u64(&mut out, h.generation);
            }
            Self::Prediction(p) => {
                put_f64(&mut out, p.fused);
                out.push(p.level);
                out.push(u8::from(p.fallback));
            }
            Self::TopN(items) => {
                put_u32(&mut out, items.len() as u32);
                for &(item, score) in items {
                    put_u32(&mut out, item);
                    put_f64(&mut out, score);
                }
            }
            Self::Profile(p) => {
                put_f64(&mut out, p.scale_min);
                put_f64(&mut out, p.scale_max);
                put_f64(&mut out, p.global_mean);
                put_u64(&mut out, p.num_items);
                put_u64(&mut out, p.user_means.len() as u64);
                for &m in &p.user_means {
                    put_f64(&mut out, m);
                }
                put_u64(&mut out, p.generation);
            }
            Self::Error { code, message } => {
                put_u16(&mut out, *code);
                let msg = message.as_bytes();
                put_u32(&mut out, msg.len() as u32);
                out.extend_from_slice(msg);
            }
            Self::Predictions(preds) => {
                put_u32(&mut out, preds.len() as u32);
                for p in preds {
                    match p {
                        Some(p) => {
                            out.push(1);
                            put_f64(&mut out, p.fused);
                            out.push(p.level);
                            out.push(u8::from(p.fallback));
                        }
                        None => out.push(0),
                    }
                }
            }
            Self::Stats(s) => {
                put_u32(&mut out, s.shard_id);
                put_u64(&mut out, s.generation);
                put_u32(&mut out, s.snapshot.len() as u32);
                out.extend_from_slice(&s.snapshot);
            }
        }
        out
    }

    #[cfg(test)]
    fn decode(kind: u16, payload: &[u8]) -> Result<Self, FrameError> {
        Ok(Self::decode_with_spans(kind, payload)?.0)
    }

    /// [`Response::decode`] plus any trailing remote-span blob the
    /// responder appended (always empty for kinds that cannot carry
    /// one).
    fn decode_with_spans(kind: u16, payload: &[u8]) -> Result<(Self, Vec<RemoteSpan>), FrameError> {
        let mut c = Cursor::new(payload);
        let resp = Self::decode_body(&mut c, kind)?;
        let spans = if span_capable(kind) {
            take_spans(&mut c)
        } else {
            Vec::new()
        };
        Ok((resp, spans))
    }

    fn decode_body(c: &mut Cursor, kind: u16) -> Result<Self, FrameError> {
        Ok(match kind {
            KIND_R_HEALTH => Self::Health(HealthInfo {
                shard_id: c.u32()?,
                num_users: c.u64()?,
                num_items: c.u64()?,
                generation: c.u64_or(0),
            }),
            KIND_R_PREDICTION => Self::Prediction(WirePrediction {
                fused: c.f64()?,
                level: c.u8()?,
                fallback: c.u8()? != 0,
            }),
            KIND_R_TOP_N => {
                let count = c.u32()?.into();
                Self::TopN(c.counted(count, 12, "top-n count exceeds payload", |c| {
                    Ok((c.u32()?, c.f64()?))
                })?)
            }
            KIND_R_PROFILE => {
                let scale_min = c.f64()?;
                let scale_max = c.f64()?;
                let global_mean = c.f64()?;
                let num_items = c.u64()?;
                let n_users = c.u64()?;
                let user_means =
                    c.counted(n_users, 8, "profile count exceeds payload", Cursor::f64)?;
                let generation = c.u64_or(0);
                Self::Profile(WireProfile {
                    scale_min,
                    scale_max,
                    global_mean,
                    num_items,
                    user_means,
                    generation,
                })
            }
            KIND_R_ERROR => {
                let code = c.u16()?;
                let len = c.u32()? as usize;
                let bytes = c.take(len)?;
                Self::Error {
                    code,
                    message: String::from_utf8_lossy(bytes).into_owned(),
                }
            }
            KIND_R_PREDICTIONS => {
                // Every element carries at least its flag byte.
                let count = c.u32()?.into();
                let preds = c.counted(count, 1, "predictions count exceeds payload", |c| {
                    Ok(if c.u8()? != 0 {
                        Some(WirePrediction {
                            fused: c.f64()?,
                            level: c.u8()?,
                            fallback: c.u8()? != 0,
                        })
                    } else {
                        None
                    })
                })?;
                Self::Predictions(preds)
            }
            KIND_R_STATS => {
                let shard_id = c.u32()?;
                let generation = c.u64()?;
                let len = c.u32()? as usize;
                let snapshot = c.take(len)?.to_vec();
                Self::Stats(WireStats {
                    shard_id,
                    generation,
                    snapshot,
                })
            }
            other => return Err(FrameError::UnknownKind(other)),
        })
    }
}

// --- wire i/o ----------------------------------------------------------

fn write_frame(stream: &mut TcpStream, kind: u16, payload: &[u8]) -> std::io::Result<()> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + 4);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&kind.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&cfsf_core::crc32(payload).to_le_bytes());
    // One write_all for the whole frame: no interleaving torn frames when
    // several router threads share a pool connection sequentially.
    stream.write_all(&out)?;
    stream.flush()
}

/// Writes `req` as one frame.
pub fn write_request(stream: &mut TcpStream, req: &Request) -> std::io::Result<()> {
    write_frame(stream, req.kind(), &req.payload())
}

/// Writes `resp` as one frame.
pub fn write_response(stream: &mut TcpStream, resp: &Response) -> std::io::Result<()> {
    write_frame(stream, resp.kind(), &resp.payload())
}

/// Writes `resp` with the responder's completed remote spans appended as
/// trailing payload (only on kinds that can carry them — spans for any
/// other kind are dropped, since e.g. an error frame's caller is not
/// stitching a trace).
pub fn write_response_with_spans(
    stream: &mut TcpStream,
    resp: &Response,
    spans: &[RemoteSpan],
) -> std::io::Result<()> {
    let mut payload = resp.payload();
    if span_capable(resp.kind()) {
        put_spans(&mut payload, spans);
    }
    write_frame(stream, resp.kind(), &payload)
}

/// How one `fill` call ended.
enum Fill {
    Done,
    /// Zero bytes arrived before the socket timeout (only reported when
    /// `idle_ok`).
    Idle,
    /// Clean EOF before the first byte (only when `idle_ok`).
    Eof,
}

/// Reads exactly `buf.len()` bytes. With `idle_ok`, a timeout or EOF
/// *before the first byte* is reported as `Idle`/`Eof` instead of an
/// error; once any byte has arrived the frame is in flight and must
/// complete before `deadline`.
fn fill(
    stream: &mut TcpStream,
    buf: &mut [u8],
    idle_ok: bool,
    deadline: Instant,
) -> Result<Fill, FrameError> {
    let mut got = 0usize;
    while got < buf.len() {
        match stream.read(&mut buf[got..]) {
            Ok(0) => {
                return if got == 0 && idle_ok {
                    Ok(Fill::Eof)
                } else {
                    Err(FrameError::Truncated)
                };
            }
            Ok(n) => got += n,
            Err(e) if cf_obs::net::is_timeout(&e) => {
                if got == 0 && idle_ok {
                    return Ok(Fill::Idle);
                }
                if Instant::now() >= deadline {
                    return Err(FrameError::Io(std::io::Error::new(
                        std::io::ErrorKind::TimedOut,
                        "frame did not complete before the deadline",
                    )));
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(Fill::Done)
}

/// Reads one frame from a stream whose read timeout is already armed
/// (see [`cf_obs::net::harden`]). A timeout before the first byte is
/// [`ReadOutcome::Idle`] — the caller's loop polls its stop flag and
/// calls again; a timeout mid-frame is an error once `frame_deadline`
/// (measured from the first header byte) has passed.
pub fn read_frame(
    stream: &mut TcpStream,
    frame_deadline: Duration,
) -> Result<ReadOutcome<(u16, Vec<u8>)>, FrameError> {
    let mut header = [0u8; HEADER_LEN];
    // Arm a generous provisional deadline for the idle wait; the real
    // per-frame deadline starts once the first byte has arrived.
    match fill(stream, &mut header, true, Instant::now() + frame_deadline)? {
        Fill::Idle => return Ok(ReadOutcome::Idle),
        Fill::Eof => return Ok(ReadOutcome::Eof),
        Fill::Done => {}
    }
    let deadline = Instant::now() + frame_deadline;
    if header[..4] != MAGIC {
        return Err(FrameError::BadMagic([
            header[0], header[1], header[2], header[3],
        ]));
    }
    let version = u16::from_le_bytes([header[4], header[5]]);
    if version != VERSION {
        return Err(FrameError::BadVersion(version));
    }
    let kind = u16::from_le_bytes([header[6], header[7]]);
    let len = u32::from_le_bytes([header[8], header[9], header[10], header[11]]);
    if len as usize > MAX_FRAME_BYTES {
        return Err(FrameError::TooLarge(len));
    }
    let mut payload = vec![0u8; len as usize];
    match fill(stream, &mut payload, false, deadline)? {
        Fill::Done => {}
        Fill::Idle | Fill::Eof => return Err(FrameError::Truncated),
    }
    let mut crc = [0u8; 4];
    match fill(stream, &mut crc, false, deadline)? {
        Fill::Done => {}
        Fill::Idle | Fill::Eof => return Err(FrameError::Truncated),
    }
    let expected = u32::from_le_bytes(crc);
    let actual = cfsf_core::crc32(&payload);
    if expected != actual {
        return Err(FrameError::BadCrc { expected, actual });
    }
    Ok(ReadOutcome::Frame((kind, payload)))
}

/// [`read_frame`] + [`Request::decode`].
pub fn read_request(
    stream: &mut TcpStream,
    frame_deadline: Duration,
) -> Result<ReadOutcome<Request>, FrameError> {
    Ok(match read_frame(stream, frame_deadline)? {
        ReadOutcome::Frame((kind, payload)) => ReadOutcome::Frame(Request::decode(kind, &payload)?),
        ReadOutcome::Idle => ReadOutcome::Idle,
        ReadOutcome::Eof => ReadOutcome::Eof,
    })
}

/// [`read_frame`] + [`Response::decode`], retrying idle ticks until
/// `overall_deadline` — a client waiting for its answer treats "no bytes
/// yet" as waiting, not as an idle connection.
pub fn read_response(
    stream: &mut TcpStream,
    frame_deadline: Duration,
    overall_deadline: Instant,
) -> Result<Response, FrameError> {
    Ok(read_response_with_spans(stream, frame_deadline, overall_deadline)?.0)
}

/// [`read_response`] that also surfaces any remote spans the responder
/// appended — the router's path for stitching shard spans into its own
/// trace.
pub fn read_response_with_spans(
    stream: &mut TcpStream,
    frame_deadline: Duration,
    overall_deadline: Instant,
) -> Result<(Response, Vec<RemoteSpan>), FrameError> {
    loop {
        match read_frame(stream, frame_deadline)? {
            ReadOutcome::Frame((kind, payload)) => {
                return Response::decode_with_spans(kind, &payload)
            }
            ReadOutcome::Eof => return Err(FrameError::Truncated),
            ReadOutcome::Idle => {
                if Instant::now() >= overall_deadline {
                    return Err(FrameError::Io(std::io::Error::new(
                        std::io::ErrorKind::TimedOut,
                        "no response before the deadline",
                    )));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        for s in [&client, &server] {
            cf_obs::net::harden(s, Duration::from_millis(100)).unwrap();
        }
        (client, server)
    }

    fn roundtrip_response(resp: &Response) -> Response {
        let (mut client, mut server) = pair();
        write_response(&mut client, resp).unwrap();
        read_response(
            &mut server,
            Duration::from_secs(1),
            Instant::now() + Duration::from_secs(1),
        )
        .unwrap()
    }

    #[test]
    fn requests_round_trip() {
        let ctx = TraceContext {
            trace_id: 0xfeed_0000_0000_0042,
            parent_span: 3,
            sampled: true,
        };
        let cases = [
            Request::Health,
            Request::Profile,
            Request::Stats,
            Request::predict(7, 42),
            Request::Predict {
                user: 7,
                item: 42,
                trace: FrameTrace(Some(ctx)),
            },
            Request::recommend_top_n(3, 10, 100, u32::MAX),
            Request::RecommendTopN {
                user: 3,
                n: 10,
                item_start: 100,
                item_end: u32::MAX,
                trace: FrameTrace(Some(ctx)),
            },
            Request::predict_batch(vec![]),
            Request::PredictBatch {
                pairs: vec![(0, 0), (7, 42), (u32::MAX, u32::MAX)],
                trace: FrameTrace(Some(TraceContext {
                    trace_id: 1,
                    parent_span: 0,
                    sampled: false,
                })),
            },
        ];
        for req in cases {
            let (mut client, mut server) = pair();
            write_request(&mut client, &req).unwrap();
            match read_request(&mut server, Duration::from_secs(1)).unwrap() {
                ReadOutcome::Frame(got) => assert_eq!(got, req),
                other => panic!("expected a frame, got {other:?}"),
            }
        }
    }

    /// A predict frame from a build predating trace propagation (no
    /// trailing context bytes) must decode with `trace: None` — and a
    /// garbled tail must degrade to `None`, never to a frame error.
    #[test]
    fn requests_without_trailing_trace_context_decode_as_none() {
        let mut payload = Vec::new();
        put_u32(&mut payload, 7);
        put_u32(&mut payload, 42);
        match Request::decode(KIND_PREDICT, &payload).unwrap() {
            Request::Predict { user, item, trace } => {
                assert_eq!((user, item), (7, 42));
                assert_eq!(trace, FrameTrace(None));
            }
            other => panic!("{other:?}"),
        }

        // Truncated context tail: flag byte present, id cut short.
        payload.push(1);
        payload.extend_from_slice(&[0xaa; 3]);
        match Request::decode(KIND_PREDICT, &payload).unwrap() {
            Request::Predict { trace, .. } => assert_eq!(trace, FrameTrace(None)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn response_spans_round_trip_and_profile_stays_span_free() {
        let spans = vec![
            RemoteSpan {
                origin: String::new(),
                name: "remote.request".to_string(),
                start_ns: 0,
                dur_ns: 12_345,
                depth: 0,
            },
            RemoteSpan {
                origin: String::new(),
                name: "estimator.sir".to_string(),
                start_ns: 100,
                dur_ns: 9_000,
                depth: 1,
            },
        ];
        let resp = Response::Prediction(WirePrediction {
            fused: 3.5,
            level: 0,
            fallback: false,
        });
        let (mut client, mut server) = pair();
        write_response_with_spans(&mut client, &resp, &spans).unwrap();
        let (got, got_spans) = read_response_with_spans(
            &mut server,
            Duration::from_secs(1),
            Instant::now() + Duration::from_secs(1),
        )
        .unwrap();
        assert_eq!(got, resp);
        assert_eq!(got_spans.len(), 2);
        assert_eq!(got_spans[0].name, "remote.request");
        assert_eq!(got_spans[1].dur_ns, 9_000);
        assert_eq!(got_spans[1].depth, 1);

        // A plain read_response on the same bytes just drops the spans.
        let (mut client, mut server) = pair();
        write_response_with_spans(&mut client, &resp, &spans).unwrap();
        assert_eq!(roundtrip_response_on(&mut server), resp);

        // Profile cannot carry spans: its trailing bytes are the
        // generation field, which must survive untouched.
        let profile = Response::Profile(WireProfile {
            scale_min: 1.0,
            scale_max: 5.0,
            global_mean: 3.0,
            num_items: 4,
            user_means: vec![2.0],
            generation: 7,
        });
        let (mut client, mut server) = pair();
        write_response_with_spans(&mut client, &profile, &spans).unwrap();
        let (got, got_spans) = read_response_with_spans(
            &mut server,
            Duration::from_secs(1),
            Instant::now() + Duration::from_secs(1),
        )
        .unwrap();
        assert_eq!(got, profile);
        assert!(got_spans.is_empty());
    }

    /// A garbled span tail yields the spans that decoded cleanly — the
    /// telemetry blob can never fail the serving answer.
    #[test]
    fn garbled_span_tail_degrades_to_no_spans() {
        let resp = Response::Prediction(WirePrediction {
            fused: 2.0,
            level: 1,
            fallback: false,
        });
        let mut payload = resp.payload();
        put_u32(&mut payload, 5); // claims 5 spans, carries half of one
        put_u16(&mut payload, 4);
        payload.extend_from_slice(b"se");
        let (got, spans) = Response::decode_with_spans(KIND_R_PREDICTION, &payload).unwrap();
        assert_eq!(got, resp);
        assert!(spans.is_empty());
    }

    #[test]
    fn stats_frames_round_trip() {
        let stats = WireStats {
            shard_id: 3,
            generation: 12,
            snapshot: vec![1, 0, 0, 9, 255, 42],
        };
        match roundtrip_response(&Response::Stats(stats.clone())) {
            Response::Stats(got) => assert_eq!(got, stats),
            other => panic!("{other:?}"),
        }

        // A stats length word lying about the payload is malformed.
        let mut payload = Vec::new();
        put_u32(&mut payload, 3);
        put_u64(&mut payload, 12);
        put_u32(&mut payload, 1_000_000);
        assert!(matches!(
            Response::decode(KIND_R_STATS, &payload),
            Err(FrameError::Malformed(_))
        ));
    }

    fn roundtrip_response_on(server: &mut TcpStream) -> Response {
        read_response(
            server,
            Duration::from_secs(1),
            Instant::now() + Duration::from_secs(1),
        )
        .unwrap()
    }

    #[test]
    fn responses_round_trip_bit_for_bit() {
        let fused = std::f64::consts::PI;
        match roundtrip_response(&Response::Prediction(WirePrediction {
            fused,
            level: 2,
            fallback: false,
        })) {
            Response::Prediction(p) => {
                assert_eq!(p.fused.to_bits(), fused.to_bits());
                assert_eq!(p.level, 2);
                assert!(!p.fallback);
            }
            other => panic!("{other:?}"),
        }

        let items = vec![(5u32, 4.75_f64), (2, 4.75), (9, 1.0 / 3.0)];
        match roundtrip_response(&Response::TopN(items.clone())) {
            Response::TopN(got) => {
                assert_eq!(got.len(), items.len());
                for (a, b) in got.iter().zip(&items) {
                    assert_eq!(a.0, b.0);
                    assert_eq!(a.1.to_bits(), b.1.to_bits());
                }
            }
            other => panic!("{other:?}"),
        }

        let profile = WireProfile {
            scale_min: 1.0,
            scale_max: 5.0,
            global_mean: 3.6007,
            num_items: 100,
            user_means: vec![1.5, f64::NAN, 4.25],
            generation: 9,
        };
        match roundtrip_response(&Response::Profile(profile.clone())) {
            Response::Profile(got) => {
                assert_eq!(got.num_items, 100);
                assert_eq!(got.user_means.len(), 3);
                assert_eq!(got.generation, 9);
                // NaN user means (users with no ratings) must survive the
                // wire — compare bits, not values.
                for (a, b) in got.user_means.iter().zip(&profile.user_means) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
            }
            other => panic!("{other:?}"),
        }

        let preds = vec![
            Some(WirePrediction {
                fused,
                level: 0,
                fallback: false,
            }),
            None,
            Some(WirePrediction {
                fused: f64::NAN,
                level: 5,
                fallback: true,
            }),
        ];
        match roundtrip_response(&Response::Predictions(preds.clone())) {
            Response::Predictions(got) => {
                assert_eq!(got.len(), preds.len());
                for (a, b) in got.iter().zip(&preds) {
                    match (a, b) {
                        (Some(x), Some(y)) => {
                            assert_eq!(x.fused.to_bits(), y.fused.to_bits());
                            assert_eq!(x.level, y.level);
                            assert_eq!(x.fallback, y.fallback);
                        }
                        (None, None) => {}
                        other => panic!("{other:?}"),
                    }
                }
            }
            other => panic!("{other:?}"),
        }

        match roundtrip_response(&Response::Error {
            code: ERR_OUT_OF_RANGE,
            message: "user 900 not in model".into(),
        }) {
            Response::Error { code, message } => {
                assert_eq!(code, ERR_OUT_OF_RANGE);
                assert!(message.contains("900"));
            }
            other => panic!("{other:?}"),
        }
    }

    /// Health and profile frames from a build predating the trailing
    /// `generation` field must decode with generation 0 — the documented
    /// append-only evolution rule, exercised both ways: short payloads
    /// decode leniently, and longer payloads from *newer* builds are
    /// already ignored by old decoders.
    #[test]
    fn frames_without_trailing_generation_decode_as_generation_zero() {
        // Hand-build the old 20-byte health payload.
        let mut payload = Vec::new();
        put_u32(&mut payload, 3);
        put_u64(&mut payload, 80);
        put_u64(&mut payload, 120);
        match Response::decode(KIND_R_HEALTH, &payload).unwrap() {
            Response::Health(h) => {
                assert_eq!((h.shard_id, h.num_users, h.num_items), (3, 80, 120));
                assert_eq!(h.generation, 0);
            }
            other => panic!("{other:?}"),
        }

        // And the old profile payload, without the trailing generation.
        let mut payload = Vec::new();
        put_f64(&mut payload, 1.0);
        put_f64(&mut payload, 5.0);
        put_f64(&mut payload, 3.0);
        put_u64(&mut payload, 10);
        put_u64(&mut payload, 2);
        put_f64(&mut payload, 2.5);
        put_f64(&mut payload, 4.5);
        match Response::decode(KIND_R_PROFILE, &payload).unwrap() {
            Response::Profile(p) => {
                assert_eq!(p.user_means.len(), 2);
                assert_eq!(p.generation, 0);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn corrupt_payload_fails_crc() {
        let (mut client, mut server) = pair();
        let req = Request::Predict {
            user: 1,
            item: 2,
            trace: FrameTrace(None),
        };
        let mut raw = Vec::new();
        raw.extend_from_slice(&MAGIC);
        raw.extend_from_slice(&VERSION.to_le_bytes());
        raw.extend_from_slice(&req.kind().to_le_bytes());
        let payload = req.payload();
        raw.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        raw.extend_from_slice(&payload);
        raw.extend_from_slice(&cfsf_core::crc32(&payload).to_le_bytes());
        // Flip one payload bit.
        let flip = HEADER_LEN + 2;
        raw[flip] ^= 0x01;
        client.write_all(&raw).unwrap();
        match read_request(&mut server, Duration::from_secs(1)) {
            Err(FrameError::BadCrc { .. }) => {}
            other => panic!("expected BadCrc, got {other:?}"),
        }
    }

    #[test]
    fn bad_magic_version_kind_and_oversize_are_rejected() {
        // Bad magic.
        let (mut client, mut server) = pair();
        client.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
        assert!(matches!(
            read_request(&mut server, Duration::from_secs(1)),
            Err(FrameError::BadMagic(_))
        ));

        // Future version.
        let (mut client, mut server) = pair();
        let mut raw = Vec::new();
        raw.extend_from_slice(&MAGIC);
        raw.extend_from_slice(&99u16.to_le_bytes());
        raw.extend_from_slice(&KIND_HEALTH.to_le_bytes());
        raw.extend_from_slice(&0u32.to_le_bytes());
        raw.extend_from_slice(&cfsf_core::crc32(&[]).to_le_bytes());
        client.write_all(&raw).unwrap();
        assert!(matches!(
            read_request(&mut server, Duration::from_secs(1)),
            Err(FrameError::BadVersion(99))
        ));

        // Unknown kind.
        let (mut client, mut server) = pair();
        let mut raw = Vec::new();
        raw.extend_from_slice(&MAGIC);
        raw.extend_from_slice(&VERSION.to_le_bytes());
        raw.extend_from_slice(&1234u16.to_le_bytes());
        raw.extend_from_slice(&0u32.to_le_bytes());
        raw.extend_from_slice(&cfsf_core::crc32(&[]).to_le_bytes());
        client.write_all(&raw).unwrap();
        assert!(matches!(
            read_request(&mut server, Duration::from_secs(1)),
            Err(FrameError::UnknownKind(1234))
        ));

        // Oversized declared length: rejected before allocation.
        let (mut client, mut server) = pair();
        let mut raw = Vec::new();
        raw.extend_from_slice(&MAGIC);
        raw.extend_from_slice(&VERSION.to_le_bytes());
        raw.extend_from_slice(&KIND_HEALTH.to_le_bytes());
        raw.extend_from_slice(&u32::MAX.to_le_bytes());
        client.write_all(&raw).unwrap();
        assert!(matches!(
            read_request(&mut server, Duration::from_secs(1)),
            Err(FrameError::TooLarge(_))
        ));
    }

    #[test]
    fn batch_count_lying_about_payload_is_malformed() {
        // A batch frame claiming 1M pairs but carrying only the count
        // word must be rejected before the decoder allocates for it.
        let (mut client, mut server) = pair();
        let mut payload = Vec::new();
        put_u32(&mut payload, 1_000_000);
        let mut raw = Vec::new();
        raw.extend_from_slice(&MAGIC);
        raw.extend_from_slice(&VERSION.to_le_bytes());
        raw.extend_from_slice(&KIND_PREDICT_BATCH.to_le_bytes());
        raw.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        raw.extend_from_slice(&payload);
        raw.extend_from_slice(&cfsf_core::crc32(&payload).to_le_bytes());
        client.write_all(&raw).unwrap();
        assert!(matches!(
            read_request(&mut server, Duration::from_secs(1)),
            Err(FrameError::Malformed(_))
        ));
    }

    #[test]
    fn idle_then_eof_are_distinguished() {
        let (client, mut server) = pair();
        // No bytes yet: idle tick.
        assert!(matches!(
            read_request(&mut server, Duration::from_secs(1)),
            Ok(ReadOutcome::Idle)
        ));
        drop(client);
        // Peer gone on a frame boundary: clean EOF.
        assert!(matches!(
            read_request(&mut server, Duration::from_secs(1)),
            Ok(ReadOutcome::Eof)
        ));
    }

    #[test]
    fn truncated_mid_frame_is_an_error() {
        let (mut client, mut server) = pair();
        let mut raw = Vec::new();
        raw.extend_from_slice(&MAGIC);
        raw.extend_from_slice(&VERSION.to_le_bytes());
        client.write_all(&raw).unwrap();
        drop(client);
        assert!(matches!(
            read_request(&mut server, Duration::from_secs(1)),
            Err(FrameError::Truncated)
        ));
    }

    /// Where each length-prefixed kind keeps its count (byte offset,
    /// width), so the fuzz below can plant a small, plausible count
    /// instead of only ever drawing huge ones.
    const COUNT_FIELDS: &[(u16, usize, usize)] = &[
        (KIND_PREDICT_BATCH, 0, 4),
        (KIND_R_TOP_N, 0, 4),
        (KIND_R_PROFILE, 32, 8),
        (KIND_R_ERROR, 2, 4),
        (KIND_R_PREDICTIONS, 0, 4),
        (KIND_R_STATS, 12, 4),
    ];

    const KINDS: &[u16] = &[
        KIND_HEALTH,
        KIND_PREDICT,
        KIND_RECOMMEND,
        KIND_PROFILE,
        KIND_PREDICT_BATCH,
        KIND_STATS,
        KIND_R_HEALTH,
        KIND_R_PREDICTION,
        KIND_R_TOP_N,
        KIND_R_PROFILE,
        KIND_R_ERROR,
        KIND_R_PREDICTIONS,
        KIND_R_STATS,
    ];

    /// Capacities of the `Vec`s a decoded value owns.
    fn capacities(req: Option<&Request>, resp: Option<&(Response, Vec<RemoteSpan>)>) -> Vec<usize> {
        let mut caps = Vec::new();
        if let Some(Request::PredictBatch { pairs, .. }) = req {
            caps.push(pairs.capacity());
        }
        if let Some((resp, spans)) = resp {
            caps.push(spans.capacity());
            match resp {
                Response::TopN(items) => caps.push(items.capacity()),
                Response::Profile(p) => caps.push(p.user_means.capacity()),
                Response::Predictions(preds) => caps.push(preds.capacity()),
                Response::Stats(s) => caps.push(s.snapshot.capacity()),
                _ => {}
            }
        }
        caps
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// The guard in front of every decoded sequence: a count whose
        /// elements cannot fit in the bytes left is refused before the
        /// first element is read, so before anything is allocated.
        #[test]
        fn counted_refuses_a_count_the_payload_cannot_hold(
            bytes in proptest::collection::vec(0u8..=255, 0..64),
            count in 0u64..80,
            min_bytes in 1usize..13,
        ) {
            let mut calls = 0;
            let got = Cursor::new(&bytes).counted(count, min_bytes, "count", |c| {
                calls += 1;
                c.take(min_bytes).map(|_| ())
            });
            let fits = count as usize * min_bytes <= bytes.len();
            proptest::prop_assert_eq!(got.is_ok(), fits);
            if !fits {
                proptest::prop_assert_eq!(calls, 0);
            }
        }

        /// Arbitrary payloads under every known kind: the decoders never
        /// panic, and no decoded `Vec` holds more capacity than the
        /// payload has bytes.
        #[test]
        fn decoders_never_allocate_past_the_payload(
            bytes in proptest::collection::vec(0u8..=255, 0..257),
            planted in proptest::option::of(0u64..64),
        ) {
            for &kind in KINDS {
                let mut payload = bytes.clone();
                if let (Some(count), Some(&(_, at, width))) =
                    (planted, COUNT_FIELDS.iter().find(|f| f.0 == kind))
                {
                    if payload.len() >= at + width {
                        payload[at..at + width].copy_from_slice(&count.to_le_bytes()[..width]);
                    }
                }
                let req = Request::decode(kind, &payload).ok();
                let resp = Response::decode_with_spans(kind, &payload).ok();
                for cap in capacities(req.as_ref(), resp.as_ref()) {
                    proptest::prop_assert!(
                        cap <= payload.len(),
                        "kind {kind}: capacity {cap} over a {}-byte payload",
                        payload.len()
                    );
                }
            }
        }
    }
}
