//! The CFSF wire protocol: length-framed, versioned, checksummed binary
//! frames over TCP (or any other `Read`/`Write` byte stream) — the
//! persistence format's style, but per message instead of per file
//! section.
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

use std::borrow::Cow;
use std::io::{self, Read, Write};
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
    Io(io::Error),
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

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
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

// --- payload layouts ---------------------------------------------------

/// One value's wire layout, written once: `put` appends the value, `take`
/// reads it back. `MIN_BYTES` is the fewest bytes any encoding of the
/// value occupies — what lets [`Cursor::counted`] refuse a sequence
/// count before it allocates.
trait Wire: Sized {
    const MIN_BYTES: usize;
    fn put(&self, out: &mut Vec<u8>);
    fn take(c: &mut Cursor) -> Result<Self, FrameError>;
}

macro_rules! wire_le {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            const MIN_BYTES: usize = std::mem::size_of::<$t>();
            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn take(c: &mut Cursor) -> Result<Self, FrameError> {
                let mut b = [0u8; std::mem::size_of::<$t>()];
                b.copy_from_slice(c.take(std::mem::size_of::<$t>())?);
                Ok(<$t>::from_le_bytes(b))
            }
        }
    )*};
}
wire_le!(u8, u16, u32, u64);

/// `f64::to_bits`, so every bit pattern (`NaN` payloads included)
/// survives the wire.
impl Wire for f64 {
    const MIN_BYTES: usize = u64::MIN_BYTES;
    fn put(&self, out: &mut Vec<u8>) {
        self.to_bits().put(out);
    }
    fn take(c: &mut Cursor) -> Result<Self, FrameError> {
        u64::take(c).map(f64::from_bits)
    }
}

/// One byte; any non-zero byte reads as `true`.
impl Wire for bool {
    const MIN_BYTES: usize = 1;
    fn put(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn take(c: &mut Cursor) -> Result<Self, FrameError> {
        Ok(u8::take(c)? != 0)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    const MIN_BYTES: usize = A::MIN_BYTES + B::MIN_BYTES;
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
    }
    fn take(c: &mut Cursor) -> Result<Self, FrameError> {
        Ok((A::take(c)?, B::take(c)?))
    }
}

/// A flag byte, then the value when the flag is set.
impl<T: Wire> Wire for Option<T> {
    const MIN_BYTES: usize = 1;
    fn put(&self, out: &mut Vec<u8>) {
        self.is_some().put(out);
        if let Some(v) = self {
            v.put(out);
        }
    }
    fn take(c: &mut Cursor) -> Result<Self, FrameError> {
        bool::take(c)?.then(|| T::take(c)).transpose()
    }
}

/// A `u32` count, then the elements.
fn put_seq<T: Wire>(items: &[T], out: &mut Vec<u8>) {
    (items.len() as u32).put(out);
    for v in items {
        v.put(out);
    }
}

impl<T: Wire> Wire for Vec<T> {
    const MIN_BYTES: usize = u32::MIN_BYTES;
    fn put(&self, out: &mut Vec<u8>) {
        put_seq(self, out);
    }
    fn take(c: &mut Cursor) -> Result<Self, FrameError> {
        let count = u32::take(c)?;
        c.counted(count.into(), T::MIN_BYTES, "count exceeds payload", T::take)
    }
}

/// The bytes as a sequence; invalid UTF-8 decodes lossily.
impl Wire for String {
    const MIN_BYTES: usize = u32::MIN_BYTES;
    fn put(&self, out: &mut Vec<u8>) {
        put_seq(self.as_bytes(), out);
    }
    fn take(c: &mut Cursor) -> Result<Self, FrameError> {
        Ok(String::from_utf8_lossy(&Vec::<u8>::take(c)?).into_owned())
    }
}

/// Implements [`Wire`] for a struct as the listed fields in order. The
/// optional field after `;` was appended after the first release, so it
/// is read leniently: a short payload (an older peer) decodes it as the
/// default instead of failing — the append-only evolution rule.
macro_rules! wire_struct {
    ($t:ty { $($f:ident: $ft:ty),+ $(; $tail:ident: $tail_t:ty)? }) => {
        impl Wire for $t {
            const MIN_BYTES: usize = 0 $(+ <$ft>::MIN_BYTES)+;
            fn put(&self, out: &mut Vec<u8>) {
                $(<$ft as Wire>::put(&self.$f, out);)+
                $(<$tail_t as Wire>::put(&self.$tail, out);)?
            }
            fn take(c: &mut Cursor) -> Result<Self, FrameError> {
                Ok(Self {
                    $($f: <$ft>::take(c)?,)+
                    $($tail: <$tail_t>::take(c).unwrap_or_default(),)?
                })
            }
        }
    };
}

wire_struct!(HealthInfo { shard_id: u32, num_users: u64, num_items: u64; generation: u64 });
wire_struct!(WirePrediction {
    fused: f64,
    level: u8,
    fallback: bool
});
wire_struct!(WireStats { shard_id: u32, generation: u64, snapshot: Vec<u8> });

/// The one sequence with a `u64` count, then a lenient trailing
/// `generation` (see [`wire_struct`]).
impl Wire for WireProfile {
    const MIN_BYTES: usize = 3 * f64::MIN_BYTES + 2 * u64::MIN_BYTES;
    fn put(&self, out: &mut Vec<u8>) {
        self.scale_min.put(out);
        self.scale_max.put(out);
        self.global_mean.put(out);
        self.num_items.put(out);
        (self.user_means.len() as u64).put(out);
        for m in &self.user_means {
            m.put(out);
        }
        self.generation.put(out);
    }
    fn take(c: &mut Cursor) -> Result<Self, FrameError> {
        Ok(Self {
            scale_min: Wire::take(c)?,
            scale_max: Wire::take(c)?,
            global_mean: Wire::take(c)?,
            num_items: Wire::take(c)?,
            user_means: {
                let count = u64::take(c)?;
                c.counted(count, f64::MIN_BYTES, "count exceeds payload", f64::take)?
            },
            generation: u64::take(c).unwrap_or_default(),
        })
    }
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

wire_struct!(TraceContext {
    trace_id: u64,
    parent_span: u32,
    sampled: bool
});

/// A flag byte of exactly `1` and the context, or — for `None` — nothing
/// at all, so an untraced frame is byte-identical to one from a build
/// predating trace propagation. Anything short, absent or flagged
/// otherwise decodes as no context.
impl Wire for FrameTrace {
    const MIN_BYTES: usize = 0;
    fn put(&self, out: &mut Vec<u8>) {
        if let Some(ctx) = self.0 {
            1u8.put(out);
            ctx.put(out);
        }
    }
    fn take(c: &mut Cursor) -> Result<Self, FrameError> {
        Ok(Self(match u8::take(c) {
            Ok(1) => TraceContext::take(c).ok(),
            _ => None,
        }))
    }
}

/// `origin` is not on the wire — the receiver knows which shard it
/// asked. Names longer than a `u16` length are cut.
impl Wire for RemoteSpan {
    const MIN_BYTES: usize = u16::MIN_BYTES + 2 * u64::MIN_BYTES + u8::MIN_BYTES;
    fn put(&self, out: &mut Vec<u8>) {
        let name = self.name.as_bytes();
        let len = name.len().min(u16::MAX as usize);
        (len as u16).put(out);
        out.extend_from_slice(&name[..len]);
        self.start_ns.put(out);
        self.dur_ns.put(out);
        self.depth.put(out);
    }
    fn take(c: &mut Cursor) -> Result<Self, FrameError> {
        let len = u16::take(c)?;
        Ok(Self {
            origin: String::new(),
            name: String::from_utf8_lossy(c.take(len.into())?).into_owned(),
            start_ns: Wire::take(c)?,
            dur_ns: Wire::take(c)?,
            depth: Wire::take(c)?,
        })
    }
}

/// The span blob: a sequence of at most [`REMOTE_SPANS_CAP`] spans, or
/// nothing when there are none. A short or garbled tail keeps the spans
/// that decoded cleanly.
struct SpanTail<'a>(Cow<'a, [RemoteSpan]>);

impl Wire for SpanTail<'_> {
    const MIN_BYTES: usize = 0;
    fn put(&self, out: &mut Vec<u8>) {
        let spans = &self.0[..self.0.len().min(REMOTE_SPANS_CAP)];
        if !spans.is_empty() {
            put_seq(spans, out);
        }
    }
    fn take(c: &mut Cursor) -> Result<Self, FrameError> {
        let count = u32::take(c).unwrap_or(0).min(REMOTE_SPANS_CAP as u32);
        let spans = (0..count).map_while(|_| RemoteSpan::take(c).ok());
        Ok(Self(Cow::Owned(spans.collect())))
    }
}

/// Response kinds that may carry a trailing remote-span blob. Profile is
/// deliberately excluded: its decoder reads a lenient trailing
/// `generation` u64, which a span blob would corrupt.
fn span_capable(kind: u16) -> bool {
    matches!(kind, KIND_R_PREDICTION | KIND_R_TOP_N | KIND_R_PREDICTIONS)
}

// --- messages ----------------------------------------------------------

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

    fn put_payload(&self, out: &mut Vec<u8>) {
        match self {
            Self::Health | Self::Profile | Self::Stats => {}
            Self::Predict { user, item, trace } => {
                user.put(out);
                item.put(out);
                trace.put(out);
            }
            Self::RecommendTopN {
                user,
                n,
                item_start,
                item_end,
                trace,
            } => {
                user.put(out);
                n.put(out);
                item_start.put(out);
                item_end.put(out);
                trace.put(out);
            }
            Self::PredictBatch { pairs, trace } => {
                pairs.put(out);
                trace.put(out);
            }
        }
    }

    fn decode(kind: u16, payload: &[u8]) -> Result<Self, FrameError> {
        let c = &mut Cursor::new(payload);
        Ok(match kind {
            KIND_HEALTH => Self::Health,
            KIND_PROFILE => Self::Profile,
            KIND_STATS => Self::Stats,
            KIND_PREDICT => Self::Predict {
                user: Wire::take(c)?,
                item: Wire::take(c)?,
                trace: Wire::take(c)?,
            },
            KIND_RECOMMEND => Self::RecommendTopN {
                user: Wire::take(c)?,
                n: Wire::take(c)?,
                item_start: Wire::take(c)?,
                item_end: Wire::take(c)?,
                trace: Wire::take(c)?,
            },
            KIND_PREDICT_BATCH => Self::PredictBatch {
                pairs: Wire::take(c)?,
                trace: Wire::take(c)?,
            },
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

    fn put_payload(&self, out: &mut Vec<u8>) {
        match self {
            Self::Health(h) => h.put(out),
            Self::Prediction(p) => p.put(out),
            Self::TopN(items) => items.put(out),
            Self::Profile(p) => p.put(out),
            Self::Error { code, message } => {
                code.put(out);
                message.put(out);
            }
            Self::Predictions(preds) => preds.put(out),
            Self::Stats(s) => s.put(out),
        }
    }

    /// Decodes a response payload plus any trailing remote-span blob the
    /// responder appended (always empty for kinds that cannot carry one).
    fn decode_with_spans(kind: u16, payload: &[u8]) -> Result<(Self, Vec<RemoteSpan>), FrameError> {
        let c = &mut Cursor::new(payload);
        let resp = match kind {
            KIND_R_HEALTH => Self::Health(Wire::take(c)?),
            KIND_R_PREDICTION => Self::Prediction(Wire::take(c)?),
            KIND_R_TOP_N => Self::TopN(Wire::take(c)?),
            KIND_R_PROFILE => Self::Profile(Wire::take(c)?),
            KIND_R_ERROR => Self::Error {
                code: Wire::take(c)?,
                message: Wire::take(c)?,
            },
            KIND_R_PREDICTIONS => Self::Predictions(Wire::take(c)?),
            KIND_R_STATS => Self::Stats(Wire::take(c)?),
            other => return Err(FrameError::UnknownKind(other)),
        };
        let spans = if span_capable(kind) {
            SpanTail::take(c)?.0.into_owned()
        } else {
            Vec::new()
        };
        Ok((resp, spans))
    }
}

// --- wire i/o ----------------------------------------------------------

/// Writes one frame, built in one buffer: the header with a zero length,
/// the payload `body` encodes in place, then the patched length and the
/// CRC.
fn write_frame(w: &mut impl Write, kind: u16, body: impl FnOnce(&mut Vec<u8>)) -> io::Result<()> {
    // Room for any point request or answer without regrowing.
    let mut out = Vec::with_capacity(HEADER_LEN + 64);
    out.extend_from_slice(&MAGIC);
    VERSION.put(&mut out);
    kind.put(&mut out);
    0u32.put(&mut out);
    body(&mut out);
    let len = (out.len() - HEADER_LEN) as u32;
    out[HEADER_LEN - 4..HEADER_LEN].copy_from_slice(&len.to_le_bytes());
    cfsf_core::crc32(&out[HEADER_LEN..]).put(&mut out);
    // One write_all for the whole frame: no interleaving torn frames when
    // several router threads share a pool connection sequentially.
    w.write_all(&out)?;
    w.flush()
}

/// Writes `req` as one frame.
pub fn write_request(w: &mut impl Write, req: &Request) -> io::Result<()> {
    write_frame(w, req.kind(), |out| req.put_payload(out))
}

/// Writes `resp` as one frame, with the responder's completed remote
/// spans appended as trailing payload — only on kinds that can carry
/// them. Spans for any other kind are dropped, since e.g. an error
/// frame's caller is not stitching a trace.
pub fn write_response(w: &mut impl Write, resp: &Response, spans: &[RemoteSpan]) -> io::Result<()> {
    write_frame(w, resp.kind(), |out| {
        resp.put_payload(out);
        if span_capable(resp.kind()) {
            SpanTail(Cow::Borrowed(spans)).put(out);
        }
    })
}

/// How one `fill` call ended.
enum Fill {
    Done,
    /// Zero bytes arrived before the read timeout (only reported when
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
    r: &mut impl Read,
    buf: &mut [u8],
    idle_ok: bool,
    deadline: Instant,
) -> Result<Fill, FrameError> {
    let mut got = 0usize;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
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
                    return Err(FrameError::Io(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "frame did not complete before the deadline",
                    )));
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(Fill::Done)
}

/// Reads one frame from a reader whose read timeout, if it has one, is
/// already armed (see [`cf_obs::net::harden`]). A timeout before the
/// first byte is [`ReadOutcome::Idle`] — the caller's loop polls its stop
/// flag and calls again; a timeout mid-frame is an error once
/// `frame_deadline` (measured from the first header byte) has passed.
pub fn read_frame(
    r: &mut impl Read,
    frame_deadline: Duration,
) -> Result<ReadOutcome<(u16, Vec<u8>)>, FrameError> {
    let mut header = [0u8; HEADER_LEN];
    // Arm a generous provisional deadline for the idle wait; the real
    // per-frame deadline starts once the first byte has arrived.
    match fill(r, &mut header, true, Instant::now() + frame_deadline)? {
        Fill::Idle => return Ok(ReadOutcome::Idle),
        Fill::Eof => return Ok(ReadOutcome::Eof),
        Fill::Done => {}
    }
    let deadline = Instant::now() + frame_deadline;
    let [m0, m1, m2, m3, ..] = header;
    if [m0, m1, m2, m3] != MAGIC {
        return Err(FrameError::BadMagic([m0, m1, m2, m3]));
    }
    let c = &mut Cursor::new(&header[MAGIC.len()..]);
    let version = u16::take(c)?;
    if version != VERSION {
        return Err(FrameError::BadVersion(version));
    }
    let kind = u16::take(c)?;
    let len = u32::take(c)?;
    if len as usize > MAX_FRAME_BYTES {
        return Err(FrameError::TooLarge(len));
    }
    let mut payload = vec![0u8; len as usize];
    let mut crc = [0u8; 4];
    for buf in [&mut payload[..], &mut crc[..]] {
        match fill(r, buf, false, deadline)? {
            Fill::Done => {}
            Fill::Idle | Fill::Eof => return Err(FrameError::Truncated),
        }
    }
    let expected = u32::from_le_bytes(crc);
    let actual = cfsf_core::crc32(&payload);
    if expected != actual {
        return Err(FrameError::BadCrc { expected, actual });
    }
    Ok(ReadOutcome::Frame((kind, payload)))
}

/// [`read_frame`] + request decoding.
pub fn read_request(
    r: &mut impl Read,
    frame_deadline: Duration,
) -> Result<ReadOutcome<Request>, FrameError> {
    Ok(match read_frame(r, frame_deadline)? {
        ReadOutcome::Frame((kind, payload)) => ReadOutcome::Frame(Request::decode(kind, &payload)?),
        ReadOutcome::Idle => ReadOutcome::Idle,
        ReadOutcome::Eof => ReadOutcome::Eof,
    })
}

/// [`read_frame`] + response decoding, retrying idle ticks until
/// `overall_deadline` — a client waiting for its answer treats "no bytes
/// yet" as waiting, not as an idle connection. Also returns any remote
/// spans the responder appended, for the router to stitch into its own
/// trace.
pub fn read_response(
    r: &mut impl Read,
    frame_deadline: Duration,
    overall_deadline: Instant,
) -> Result<(Response, Vec<RemoteSpan>), FrameError> {
    loop {
        match read_frame(r, frame_deadline)? {
            ReadOutcome::Frame((kind, payload)) => {
                return Response::decode_with_spans(kind, &payload)
            }
            ReadOutcome::Eof => return Err(FrameError::Truncated),
            ReadOutcome::Idle => {
                if Instant::now() >= overall_deadline {
                    return Err(FrameError::Io(io::Error::new(
                        io::ErrorKind::TimedOut,
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
    use proptest::strategy::Strategy;
    use std::net::{TcpListener, TcpStream};

    const SEC: Duration = Duration::from_secs(1);

    /// A connected, hardened socket pair — only for what needs a real
    /// read timeout; every other codec test runs over in-memory buffers.
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

    /// Encodes `req` as one whole frame.
    fn request_frame(req: &Request) -> Vec<u8> {
        let mut out = Vec::new();
        write_request(&mut out, req).unwrap();
        out
    }

    /// Encodes `resp` (with `spans` appended where the kind allows) as one
    /// whole frame.
    fn response_frame(resp: &Response, spans: &[RemoteSpan]) -> Vec<u8> {
        let mut out = Vec::new();
        write_response(&mut out, resp, spans).unwrap();
        out
    }

    fn read_request_from(mut bytes: &[u8]) -> Result<ReadOutcome<Request>, FrameError> {
        read_request(&mut bytes, SEC)
    }

    fn decode_request_frame(bytes: &[u8]) -> Request {
        match read_request_from(bytes).unwrap() {
            ReadOutcome::Frame(req) => req,
            other => panic!("expected a frame, got {other:?}"),
        }
    }

    fn decode_response_frame(mut bytes: &[u8]) -> (Response, Vec<RemoteSpan>) {
        read_response(&mut bytes, SEC, Instant::now() + SEC).unwrap()
    }

    fn roundtrip_response(resp: &Response) -> Response {
        decode_response_frame(&response_frame(resp, &[])).0
    }

    /// A frame with the given version and kind around `payload`, with a
    /// correct length and CRC.
    fn raw_frame(version: u16, kind: u16, payload: &[u8]) -> Vec<u8> {
        let mut raw = MAGIC.to_vec();
        version.put(&mut raw);
        kind.put(&mut raw);
        (payload.len() as u32).put(&mut raw);
        raw.extend_from_slice(payload);
        cfsf_core::crc32(payload).put(&mut raw);
        raw
    }

    /// Every float a response carries, as bits: `PartialEq` cannot see
    /// through `NaN`, and `Debug` prints every `NaN` payload alike.
    fn float_bits(resp: &Response) -> Vec<u64> {
        let floats: Vec<f64> = match resp {
            Response::Prediction(p) => vec![p.fused],
            Response::TopN(items) => items.iter().map(|&(_, s)| s).collect(),
            Response::Profile(p) => [p.scale_min, p.scale_max, p.global_mean]
                .into_iter()
                .chain(p.user_means.iter().copied())
                .collect(),
            Response::Predictions(preds) => preds.iter().flatten().map(|p| p.fused).collect(),
            Response::Health(_) | Response::Error { .. } | Response::Stats(_) => Vec::new(),
        };
        floats.into_iter().map(f64::to_bits).collect()
    }

    /// `a` and `b` are the same value, floats compared by bits.
    fn same_response(a: &Response, b: &Response) -> bool {
        format!("{a:?}") == format!("{b:?}") && float_bits(a) == float_bits(b)
    }

    fn assert_same_response(a: &Response, b: &Response) {
        assert!(same_response(a, b), "{a:?} != {b:?}");
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    const CTX: TraceContext = TraceContext {
        trace_id: 0xfeed_0000_0000_0042,
        parent_span: 3,
        sampled: true,
    };

    /// `req` carrying `ctx`, as a request built inside a trace does.
    fn traced(mut req: Request, ctx: TraceContext) -> Request {
        if let Request::Predict { trace, .. }
        | Request::RecommendTopN { trace, .. }
        | Request::PredictBatch { trace, .. } = &mut req
        {
            *trace = FrameTrace(Some(ctx));
        }
        req
    }

    fn pred(fused: f64, level: u8, fallback: bool) -> WirePrediction {
        WirePrediction {
            fused,
            level,
            fallback,
        }
    }

    fn span(name: &str, start_ns: u64, dur_ns: u64, depth: u8) -> RemoteSpan {
        RemoteSpan {
            origin: String::new(),
            name: name.to_string(),
            start_ns,
            dur_ns,
            depth,
        }
    }

    #[test]
    fn requests_round_trip() {
        let unsampled = TraceContext {
            trace_id: 1,
            parent_span: 0,
            sampled: false,
        };
        let cases = [
            Request::Health,
            Request::Profile,
            Request::Stats,
            Request::predict(7, 42),
            traced(Request::predict(7, 42), CTX),
            Request::recommend_top_n(3, 10, 100, u32::MAX),
            traced(Request::recommend_top_n(3, 10, 100, u32::MAX), CTX),
            Request::predict_batch(vec![]),
            traced(
                Request::predict_batch(vec![(0, 0), (7, 42), (u32::MAX, u32::MAX)]),
                unsampled,
            ),
        ];
        for req in cases {
            assert_eq!(decode_request_frame(&request_frame(&req)), req);
        }
    }

    /// A predict frame from a build predating trace propagation (no
    /// trailing context bytes) must decode with `trace: None` — and a
    /// garbled tail must degrade to `None`, never to a frame error.
    #[test]
    fn requests_without_trailing_trace_context_decode_as_none() {
        let mut payload = Vec::new();
        7u32.put(&mut payload);
        42u32.put(&mut payload);
        match Request::decode(KIND_PREDICT, &payload).unwrap() {
            Request::Predict { user, item, trace } => {
                assert_eq!((user, item), (7, 42));
                assert_eq!(trace, FrameTrace(None));
            }
            other => panic!("{other:?}"),
        }

        // Truncated context tail: flag byte present, id cut short.
        let mut short = payload.clone();
        short.push(1);
        short.extend_from_slice(&[0xaa; 3]);
        match Request::decode(KIND_PREDICT, &short).unwrap() {
            Request::Predict { trace, .. } => assert_eq!(trace, FrameTrace(None)),
            other => panic!("{other:?}"),
        }

        // Only a flag of exactly 1 means "traced": a flag of 2 before a
        // whole context is still no context.
        payload.push(2);
        TraceContext {
            trace_id: 9,
            parent_span: 4,
            sampled: true,
        }
        .put(&mut payload);
        match Request::decode(KIND_PREDICT, &payload).unwrap() {
            Request::Predict { trace, .. } => assert_eq!(trace, FrameTrace(None)),
            other => panic!("{other:?}"),
        }
    }

    /// Unlike the trace flag, a batch element's flag is a plain `bool`:
    /// any non-zero byte means a prediction follows.
    #[test]
    fn prediction_flags_read_any_non_zero_byte_as_some() {
        let mut payload = Vec::new();
        2u32.put(&mut payload);
        payload.push(2);
        pred(2.5, 1, false).put(&mut payload);
        payload.push(0);
        let (got, _) = Response::decode_with_spans(KIND_R_PREDICTIONS, &payload).unwrap();
        assert_eq!(
            got,
            Response::Predictions(vec![Some(pred(2.5, 1, false)), None])
        );
    }

    #[test]
    fn response_spans_round_trip_and_profile_stays_span_free() {
        let spans = vec![
            span("remote.request", 0, 12_345, 0),
            span("estimator.sir", 100, 9_000, 1),
        ];
        let resp = Response::Prediction(pred(3.5, 0, false));
        let frame = response_frame(&resp, &spans);
        let (got, got_spans) = decode_response_frame(&frame);
        assert_eq!(got, resp);
        assert_eq!(got_spans.len(), 2);
        assert_eq!(got_spans[0].name, "remote.request");
        assert_eq!(got_spans[1].dur_ns, 9_000);
        assert_eq!(got_spans[1].depth, 1);

        // A caller that ignores the spans (`ShardClient::request`) gets the
        // same response from the same bytes.
        assert_eq!(decode_response_frame(&frame).0, resp);

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
        let (got, got_spans) = decode_response_frame(&response_frame(&profile, &spans));
        assert_eq!(got, profile);
        assert!(got_spans.is_empty());
    }

    /// A garbled span tail yields the spans that decoded cleanly — the
    /// telemetry blob can never fail the serving answer.
    #[test]
    fn garbled_span_tail_degrades_to_no_spans() {
        let resp = Response::Prediction(pred(2.0, 1, false));
        let mut payload = Vec::new();
        resp.put_payload(&mut payload);
        5u32.put(&mut payload); // claims 5 spans, carries half of one
        4u16.put(&mut payload);
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
        3u32.put(&mut payload);
        12u64.put(&mut payload);
        1_000_000u32.put(&mut payload);
        assert!(matches!(
            Response::decode_with_spans(KIND_R_STATS, &payload),
            Err(FrameError::Malformed(_))
        ));
    }

    #[test]
    fn responses_round_trip_bit_for_bit() {
        let fused = std::f64::consts::PI;
        match roundtrip_response(&Response::Prediction(pred(fused, 2, false))) {
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
            Some(pred(fused, 0, false)),
            None,
            Some(pred(f64::NAN, 5, true)),
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
        3u32.put(&mut payload);
        80u64.put(&mut payload);
        120u64.put(&mut payload);
        match Response::decode_with_spans(KIND_R_HEALTH, &payload)
            .unwrap()
            .0
        {
            Response::Health(h) => {
                assert_eq!((h.shard_id, h.num_users, h.num_items), (3, 80, 120));
                assert_eq!(h.generation, 0);
            }
            other => panic!("{other:?}"),
        }

        // And the old profile payload, without the trailing generation.
        let mut payload = Vec::new();
        1.0f64.put(&mut payload);
        5.0f64.put(&mut payload);
        3.0f64.put(&mut payload);
        10u64.put(&mut payload);
        2u64.put(&mut payload);
        2.5f64.put(&mut payload);
        4.5f64.put(&mut payload);
        match Response::decode_with_spans(KIND_R_PROFILE, &payload)
            .unwrap()
            .0
        {
            Response::Profile(p) => {
                assert_eq!(p.user_means.len(), 2);
                assert_eq!(p.generation, 0);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn corrupt_payload_fails_crc() {
        let mut raw = request_frame(&Request::Predict {
            user: 1,
            item: 2,
            trace: FrameTrace(None),
        });
        // Flip one payload bit.
        let flip = HEADER_LEN + 2;
        raw[flip] ^= 0x01;
        match read_request_from(&raw) {
            Err(FrameError::BadCrc { .. }) => {}
            other => panic!("expected BadCrc, got {other:?}"),
        }
    }

    #[test]
    fn bad_magic_version_kind_and_oversize_are_rejected() {
        // Bad magic.
        assert!(matches!(
            read_request_from(b"GET / HTTP/1.1\r\n\r\n"),
            Err(FrameError::BadMagic(_))
        ));

        // Future version.
        assert!(matches!(
            read_request_from(&raw_frame(99, KIND_HEALTH, &[])),
            Err(FrameError::BadVersion(99))
        ));

        // Unknown kind.
        assert!(matches!(
            read_request_from(&raw_frame(VERSION, 1234, &[])),
            Err(FrameError::UnknownKind(1234))
        ));

        // Oversized declared length: rejected before allocation.
        let mut raw = MAGIC.to_vec();
        VERSION.put(&mut raw);
        KIND_HEALTH.put(&mut raw);
        u32::MAX.put(&mut raw);
        assert!(matches!(
            read_request_from(&raw),
            Err(FrameError::TooLarge(_))
        ));
    }

    #[test]
    fn batch_count_lying_about_payload_is_malformed() {
        // A batch frame claiming 1M pairs but carrying only the count
        // word must be rejected before the decoder allocates for it.
        let mut payload = Vec::new();
        1_000_000u32.put(&mut payload);
        assert!(matches!(
            read_request_from(&raw_frame(VERSION, KIND_PREDICT_BATCH, &payload)),
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
        let mut raw = MAGIC.to_vec();
        VERSION.put(&mut raw);
        assert!(matches!(
            read_request_from(&raw),
            Err(FrameError::Truncated)
        ));
    }

    /// The frame of one fixed value of every kind — header, payload and
    /// CRC. These bytes are the protocol: a codec change that moves one
    /// of them breaks every deployed peer. Decoding each gives the value
    /// back, floats bit for bit.
    #[test]
    fn golden_frames_are_byte_exact() {
        let batch = vec![(0, 0), (7, 42), (u32::MAX, u32::MAX)];
        let requests: [Request; 9] = [
            Request::Health,
            Request::Profile,
            Request::Stats,
            Request::predict(7, 42),
            traced(Request::predict(7, 42), CTX),
            Request::recommend_top_n(3, 10, 100, u32::MAX),
            traced(Request::recommend_top_n(3, 10, 100, u32::MAX), CTX),
            Request::predict_batch(vec![]),
            traced(Request::predict_batch(batch), CTX),
        ];
        for (req, golden) in requests.into_iter().zip(GOLDEN_REQUESTS) {
            let frame = request_frame(&req);
            assert_eq!(hex(&frame), golden, "{req:?}");
            assert_eq!(decode_request_frame(&frame), req);
        }

        let spans = [
            span("remote.request", 0, 12_345, 0),
            span("estimator.sir", 100, 9_000, 1),
        ];
        let none: &[RemoteSpan] = &[];
        let payload_nan = f64::from_bits(0x7ff0_0000_0000_0001);
        let health = HealthInfo {
            shard_id: 3,
            num_users: 80,
            num_items: 120,
            generation: 9,
        };
        let profile = WireProfile {
            scale_min: 1.0,
            scale_max: 5.0,
            global_mean: 3.6007,
            num_items: 100,
            user_means: vec![1.5, f64::NAN, -0.0],
            generation: 7,
        };
        let error = Response::Error {
            code: ERR_OUT_OF_RANGE,
            message: "user 900 not in model".into(),
        };
        let stats = WireStats {
            shard_id: 3,
            generation: 12,
            snapshot: vec![1, 0, 0, 9, 255, 42],
        };
        let top_n = vec![(5, 4.75), (2, f64::NEG_INFINITY), (9, f64::NAN)];
        let preds = vec![
            Some(pred(f64::INFINITY, 0, false)),
            None,
            Some(pred(payload_nan, 5, true)),
        ];
        let responses: [(Response, &[RemoteSpan]); 9] = [
            (Response::Health(health), none),
            (
                Response::Prediction(pred(std::f64::consts::PI, 2, false)),
                &spans,
            ),
            (Response::Prediction(pred(payload_nan, 5, true)), none),
            (Response::TopN(vec![]), none),
            (Response::TopN(top_n), none),
            (Response::Profile(profile), none),
            (error, none),
            (Response::Predictions(preds), &spans),
            (Response::Stats(stats), none),
        ];
        for ((resp, sent), golden) in responses.into_iter().zip(GOLDEN_RESPONSES) {
            let frame = response_frame(&resp, sent);
            assert_eq!(hex(&frame), golden, "{resp:?}");
            let (got, got_spans) = decode_response_frame(&frame);
            assert_same_response(&got, &resp);
            assert_eq!(got_spans, sent);
        }
    }

    const GOLDEN_REQUESTS: [&str; 9] = [
        "43465750010001000000000000000000",
        "43465750010004000000000000000000",
        "43465750010006000000000000000000",
        "434657500100020008000000070000002a0000002a9968a0",
        "434657500100020016000000070000002a00000001420000000000edfe030000000171c2a5bf",
        "434657500100030010000000030000000a00000064000000ffffffff64995ea5",
        "43465750010003001e000000030000000a00000064000000ffffffff01420000000000edfe0300000001a65fc4bf",
        "434657500100050004000000000000001cdf4421",
        "43465750010005002a000000030000000000000000000000070000002a000000ffffffffffffffff01420000000000edfe030000000111926454",
    ];

    const GOLDEN_RESPONSES: [&str; 9] = [
        "43465750010010001c000000030000005000000000000000780000000000000009000000000000003bc22368",
        "43465750010011004f000000182d4454fb2109400200020000000e0072656d6f74652e7265717565737400000000000000003930000000000000000d00657374696d61746f722e73697264000000000000002823000000000000014b02ccad",
        "43465750010011000a000000010000000000f07f050151fef3df",
        "434657500100120004000000000000001cdf4421",
        "4346575001001200280000000300000005000000000000000000134002000000000000000000f0ff09000000000000000000f87fc50de781",
        "434657500100130048000000000000000000f03f000000000000144058a835cd3bce0c4064000000000000000300000000000000000000000000f83f000000000000f87f00000000000000800700000000000000c9298e6c",
        "43465750010014001b0000000100150000007573657220393030206e6f7420696e206d6f64656c12160d85",
        "4346575001001500600000000300000001000000000000f07f00000001010000000000f07f0501020000000e0072656d6f74652e7265717565737400000000000000003930000000000000000d00657374696d61746f722e7369726400000000000000282300000000000001b92cc8fc",
        "434657500100160016000000030000000c000000000000000600000001000009ff2a63c9a40c",
    ];

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

    /// Ids with the edges drawn often: `0`, `u32::MAX`, anything.
    fn arb_id() -> impl Strategy<Value = u32> {
        (0u8..4, 0u32..=u32::MAX).prop_map(|(pick, id)| match pick {
            0 => 0,
            1 => u32::MAX,
            _ => id,
        })
    }

    /// Any bit pattern, with quiet and payload-carrying `NaN`s, `±inf`
    /// and `-0.0` drawn often.
    fn arb_f64() -> impl Strategy<Value = f64> {
        (0u8..8, 0u64..=u64::MAX).prop_map(|(pick, bits)| match pick {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            3 => -0.0,
            4 => f64::from_bits(bits | 0x7ff0_0000_0000_0001),
            _ => f64::from_bits(bits),
        })
    }

    fn arb_bool() -> impl Strategy<Value = bool> {
        (0u8..2).prop_map(|b| b == 1)
    }

    fn arb_trace() -> impl Strategy<Value = FrameTrace> {
        let ctx = (0u64..=u64::MAX, arb_id(), arb_bool()).prop_map(|(id, parent, sampled)| {
            TraceContext {
                trace_id: id,
                parent_span: parent,
                sampled,
            }
        });
        proptest::option::of(ctx).prop_map(FrameTrace)
    }

    fn arb_prediction() -> impl Strategy<Value = WirePrediction> {
        (arb_f64(), 0u8..=255, arb_bool()).prop_map(|(f, level, fallback)| pred(f, level, fallback))
    }

    /// One- and two-byte UTF-8 (code points below `0x800`).
    fn arb_text() -> impl Strategy<Value = String> {
        proptest::collection::vec(0u32..0x800, 0..24)
            .prop_map(|cs| cs.into_iter().filter_map(char::from_u32).collect())
    }

    fn arb_span() -> impl Strategy<Value = RemoteSpan> {
        (arb_text(), 0u64..=u64::MAX, 0u64..=u64::MAX, 0u8..=255)
            .prop_map(|(name, start, dur, depth)| span(&name, start, dur, depth))
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

        /// Decoding an encoded request of any kind gives the request back.
        #[test]
        fn every_request_round_trips(
            kind in 0u8..6,
            ids in (arb_id(), arb_id(), arb_id(), arb_id()),
            pairs in proptest::collection::vec((arb_id(), arb_id()), 0..40),
            trace in arb_trace(),
        ) {
            let (user, item, n, item_end) = ids;
            let req = match kind {
                0 => Request::Health,
                1 => Request::Predict { user, item, trace },
                2 => Request::RecommendTopN { user, n, item_start: item, item_end, trace },
                3 => Request::Profile,
                4 => Request::PredictBatch { pairs, trace },
                _ => Request::Stats,
            };
            proptest::prop_assert_eq!(decode_request_frame(&request_frame(&req)), req);
        }

        /// Decoding an encoded response of any kind gives the response
        /// back, floats bit for bit, with its spans where the kind carries
        /// them.
        #[test]
        fn every_response_round_trips(
            kind in 0u8..7,
            words in (arb_id(), 0u64..=u64::MAX, 0u64..=u64::MAX, 0u64..=u64::MAX),
            floats in (arb_f64(), arb_f64(), arb_f64()),
            prediction in arb_prediction(),
            items in proptest::collection::vec((arb_id(), arb_f64()), 0..40),
            means in proptest::collection::vec(arb_f64(), 0..40),
            preds in proptest::collection::vec(proptest::option::of(arb_prediction()), 0..40),
            error in (0u16..=u16::MAX, arb_text()),
            snapshot in proptest::collection::vec(0u8..=255, 0..64),
            spans in proptest::collection::vec(arb_span(), 0..REMOTE_SPANS_CAP + 1),
        ) {
            let (shard_id, num_users, num_items, generation) = words;
            let (scale_min, scale_max, global_mean) = floats;
            let resp = match kind {
                0 => Response::Health(HealthInfo { shard_id, num_users, num_items, generation }),
                1 => Response::Prediction(prediction),
                2 => Response::TopN(items),
                3 => Response::Profile(WireProfile {
                    scale_min,
                    scale_max,
                    global_mean,
                    num_items,
                    user_means: means,
                    generation,
                }),
                4 => Response::Error { code: error.0, message: error.1 },
                5 => Response::Predictions(preds),
                _ => Response::Stats(WireStats { shard_id, generation, snapshot }),
            };
            let (got, got_spans) = decode_response_frame(&response_frame(&resp, &spans));
            proptest::prop_assert!(same_response(&got, &resp), "{got:?} != {resp:?}");
            let sent = if span_capable(resp.kind()) { spans } else { Vec::new() };
            proptest::prop_assert_eq!(got_spans, sent);
        }
    }
}
