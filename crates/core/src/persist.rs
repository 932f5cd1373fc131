//! Model persistence: save a fitted [`Cfsf`] to a compact binary stream
//! and load it back without repeating the expensive offline work.
//!
//! What is stored: the configuration, the training matrix, the GIS
//! neighbor lists (the `O(Q·nnz)` part of the offline phase), the
//! K-means assignment (the iterative part), and — since version 3 — the
//! quantized serving planes. What is *recomputed* on load: smoothing,
//! iCluster, and the dense online store — all linear passes that take
//! milliseconds and would dominate the file size if stored
//! (`P×Q` doubles).
//!
//! Format (version 3): little-endian, checksummed sections:
//!
//! ```text
//! magic "CFSF"  | u32 version | u64 generation
//! 5 × section   | u32 tag | u64 len | payload (len bytes) | u32 crc32
//! ```
//!
//! `generation` is the self-healing refresh loop's generation id
//! (`cfsf_core::refresh`); a model fitted offline saves 0. Section
//! payloads, in tag order:
//!
//! ```text
//! config (1)    | clusters, k, m, candidate_factor, kmeans_iterations: u64
//!               | lambda, delta, w, gis.threshold: f64
//!               | gis.max_neighbors: u64 (u64::MAX = none)
//!               | seed: u64 | use_smoothing: u8 | plane_precision: u8
//! matrix (2)    | num_users, num_items, nnz: u64 | scale min,max: f64
//!               | nnz × (user u32, item u32, rating f64)
//! gis (3)       | num_items × [len u64, len × (item u32, sim f64)]
//! clusters (4)  | k, iterations: u64 | converged u8 | P × u32
//! planes (5)    | [`cf_matrix::WeightPlanes::encode`] payload
//! ```
//!
//! The per-section CRC32 turns silent bit rot into a detected fault, and
//! the section boundaries make most of the file *recoverable*: the GIS,
//! cluster, and planes sections are pure derivations of the stored
//! matrix, so [`Cfsf::load_with_recovery`] rebuilds a corrupt one from
//! the (intact) matrix section instead of refusing to load — the same
//! computation [`Cfsf::fit`] runs, so the recovered model predicts
//! identically. Version 3 is the only format this build reads or writes.

use std::io::{self, Read, Write};

use cf_cluster::{ClusterAssignment, KMeans};
use cf_matrix::{ItemId, MatrixBuilder, RatingMatrix, RatingScale, UserId};
use cf_similarity::Gis;

use crate::{Cfsf, CfsfConfig, CfsfError};

const MAGIC: &[u8; 4] = b"CFSF";
const VERSION: u32 = 3;

const TAG_CONFIG: u32 = 1;
const TAG_MATRIX: u32 = 2;
const TAG_GIS: u32 = 3;
const TAG_CLUSTERS: u32 = 4;
const TAG_PLANES: u32 = 5;

/// Errors from loading a persisted model.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The stream is not a CFSF model, has the wrong version, fails a
    /// section checksum, or is internally inconsistent.
    Format(String),
    /// The stored configuration or matrix failed validation.
    Invalid(CfsfError),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "i/o error: {e}"),
            Self::Format(m) => write!(f, "malformed model file: {m}"),
            Self::Invalid(e) => write!(f, "invalid model contents: {e}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<CfsfError> for PersistError {
    fn from(e: CfsfError) -> Self {
        Self::Invalid(e)
    }
}

/// What [`Cfsf::load_with_recovery`] had to rebuild. All flags `false`
/// means the stream was intact and the load equals a strict [`Cfsf::load`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// The GIS section failed its checksum (or parse) and was rebuilt
    /// from the stored matrix.
    pub gis_rebuilt: bool,
    /// The cluster section failed its checksum (or parse) and the
    /// K-means assignment was recomputed from the stored matrix.
    pub clusters_rebuilt: bool,
    /// The quantized weight-plane section failed its checksum (or
    /// parse/validation) and the planes were refolded from the smoothed
    /// sheet — deterministic, so bit-identical to what the file stored.
    pub planes_rebuilt: bool,
    /// The refresh generation id from the stream header (0 for
    /// offline-fitted models).
    pub generation: u64,
}

impl RecoveryReport {
    /// `true` when anything had to be rebuilt.
    pub fn any(&self) -> bool {
        self.gis_rebuilt || self.clusters_rebuilt || self.planes_rebuilt
    }
}

// --- crc32 (IEEE, the zlib/PNG polynomial) -----------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = crc32_table();

/// IEEE CRC32 (the zlib/PNG polynomial) over `data`. Public because the
/// persistence sections and the `cf-serve` wire frames checksum with the
/// same function — one implementation, one set of test vectors.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFF_u32;
    for &b in data {
        c = CRC32_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// --- primitive codecs -------------------------------------------------

fn put_u32<W: Write>(w: &mut W, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn put_u64<W: Write>(w: &mut W, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn put_f64<W: Write>(w: &mut W, v: f64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn put_u8<W: Write>(w: &mut W, v: u8) -> io::Result<()> {
    w.write_all(&[v])
}

fn get_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn get_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn get_f64<R: Read>(r: &mut R) -> io::Result<f64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(f64::from_le_bytes(b))
}

fn get_u8<R: Read>(r: &mut R) -> io::Result<u8> {
    let mut b = [0u8; 1];
    r.read_exact(&mut b)?;
    Ok(b[0])
}

fn get_usize<R: Read>(r: &mut R, what: &str, limit: u64) -> Result<usize, PersistError> {
    let v = get_u64(r)?;
    if v > limit {
        return Err(PersistError::Format(format!(
            "{what} = {v} exceeds sanity limit {limit}"
        )));
    }
    Ok(v as usize)
}

/// Sanity cap on any stored count: a corrupt length field must fail fast
/// rather than trigger a giant allocation.
const LIMIT: u64 = 1 << 32;

// --- section payload encoders ------------------------------------------

fn encode_config(c: &CfsfConfig) -> io::Result<Vec<u8>> {
    let mut w = Vec::new();
    put_u64(&mut w, c.clusters as u64)?;
    put_u64(&mut w, c.k as u64)?;
    put_u64(&mut w, c.m as u64)?;
    put_u64(&mut w, c.candidate_factor as u64)?;
    put_u64(&mut w, c.kmeans_iterations as u64)?;
    put_f64(&mut w, c.lambda)?;
    put_f64(&mut w, c.delta)?;
    put_f64(&mut w, c.w)?;
    put_f64(&mut w, c.gis.threshold)?;
    put_u64(&mut w, c.gis.max_neighbors.map_or(u64::MAX, |n| n as u64))?;
    put_u64(&mut w, c.seed)?;
    put_u8(&mut w, u8::from(c.use_smoothing))?;
    put_u8(&mut w, c.plane_precision.code())?;
    Ok(w)
}

fn encode_matrix(m: &RatingMatrix) -> io::Result<Vec<u8>> {
    let mut w = Vec::new();
    put_u64(&mut w, m.num_users() as u64)?;
    put_u64(&mut w, m.num_items() as u64)?;
    put_u64(&mut w, m.num_ratings() as u64)?;
    put_f64(&mut w, m.scale().min)?;
    put_f64(&mut w, m.scale().max)?;
    for (u, i, r) in m.triplets() {
        put_u32(&mut w, u.raw())?;
        put_u32(&mut w, i.raw())?;
        put_f64(&mut w, r)?;
    }
    Ok(w)
}

fn encode_gis(gis: &Gis, m: &RatingMatrix) -> io::Result<Vec<u8>> {
    let mut w = Vec::new();
    for item in m.items() {
        let list = gis.neighbors(item);
        put_u64(&mut w, list.len() as u64)?;
        for &(i, s) in list {
            put_u32(&mut w, i.raw())?;
            put_f64(&mut w, s)?;
        }
    }
    Ok(w)
}

fn encode_clusters(clusters: &ClusterAssignment) -> io::Result<Vec<u8>> {
    let mut w = Vec::new();
    put_u64(&mut w, clusters.k() as u64)?;
    put_u64(&mut w, clusters.iterations as u64)?;
    put_u8(&mut w, u8::from(clusters.converged))?;
    for &c in clusters.assignment() {
        put_u32(&mut w, c)?;
    }
    Ok(w)
}

// --- section payload decoders ------------------------------------------

fn decode_config<R: Read>(r: &mut R) -> Result<CfsfConfig, PersistError> {
    let clusters = get_usize(r, "clusters", LIMIT)?;
    let k = get_usize(r, "k", LIMIT)?;
    let m_param = get_usize(r, "m", LIMIT)?;
    let candidate_factor = get_usize(r, "candidate_factor", LIMIT)?;
    let kmeans_iterations = get_usize(r, "kmeans_iterations", LIMIT)?;
    let lambda = get_f64(r)?;
    let delta = get_f64(r)?;
    let w_param = get_f64(r)?;
    let gis_threshold = get_f64(r)?;
    let cap_raw = get_u64(r)?;
    let seed = get_u64(r)?;
    let use_smoothing = get_u8(r)? != 0;
    let code = get_u8(r)?;
    let plane_precision = cf_matrix::PlanePrecision::from_code(code)
        .ok_or_else(|| PersistError::Format(format!("unknown plane precision code {code}")))?;
    let config = CfsfConfig {
        clusters,
        lambda,
        delta,
        k,
        m: m_param,
        w: w_param,
        candidate_factor,
        gis: cf_similarity::GisConfig {
            threshold: gis_threshold,
            max_neighbors: (cap_raw != u64::MAX).then_some(cap_raw as usize),
            threads: None,
        },
        kmeans_iterations,
        seed,
        threads: None,
        use_smoothing,
        plane_precision,
    };
    config.validate()?;
    Ok(config)
}

fn decode_matrix<R: Read>(r: &mut R) -> Result<RatingMatrix, PersistError> {
    let num_users = get_usize(r, "num_users", LIMIT)?;
    let num_items = get_usize(r, "num_items", LIMIT)?;
    let nnz = get_usize(r, "nnz", LIMIT)?;
    if nnz == 0 {
        return Err(PersistError::Format(
            "matrix section stores no ratings".into(),
        ));
    }
    let scale_min = get_f64(r)?;
    let scale_max = get_f64(r)?;
    if !(scale_min.is_finite() && scale_max.is_finite() && scale_min < scale_max) {
        return Err(PersistError::Format(format!(
            "invalid scale [{scale_min}, {scale_max}]"
        )));
    }
    let mut b = MatrixBuilder::with_dims(num_users, num_items)
        .scale(RatingScale::new(scale_min, scale_max));
    b.reserve(nnz);
    for _ in 0..nnz {
        let u = get_u32(r)?;
        let i = get_u32(r)?;
        let rating = get_f64(r)?;
        b.push(UserId::new(u), ItemId::new(i), rating);
    }
    let matrix = b
        .build()
        .map_err(|e| PersistError::Format(format!("matrix section: {e}")))?;
    if matrix.num_users() != num_users || matrix.num_items() != num_items {
        return Err(PersistError::Format(
            "matrix dimensions disagree with stored triplets".into(),
        ));
    }
    Ok(matrix)
}

fn decode_gis<R: Read>(r: &mut R, num_items: usize) -> Result<Gis, PersistError> {
    let mut lists = Vec::with_capacity(num_items);
    for item in 0..num_items {
        let len = get_usize(r, "gis list length", LIMIT)?;
        let mut list = Vec::with_capacity(len.min(num_items));
        for _ in 0..len {
            let i = get_u32(r)?;
            if i as usize >= num_items {
                return Err(PersistError::Format(format!(
                    "gis list of item {item} references item {i} out of range"
                )));
            }
            let s = get_f64(r)?;
            if !s.is_finite() {
                return Err(PersistError::Format(format!(
                    "non-finite similarity in gis list of item {item}"
                )));
            }
            list.push((ItemId::new(i), s));
        }
        if !list.windows(2).all(|p: &[(ItemId, f64)]| p[0].1 >= p[1].1) {
            return Err(PersistError::Format(format!(
                "gis list of item {item} is not sorted descending"
            )));
        }
        lists.push(list);
    }
    Ok(Gis::from_lists(lists))
}

fn decode_clusters<R: Read>(
    r: &mut R,
    num_users: usize,
) -> Result<ClusterAssignment, PersistError> {
    let stored_k = get_usize(r, "cluster count", LIMIT)?;
    let iterations = get_usize(r, "kmeans iterations run", LIMIT)?;
    let converged = get_u8(r)? != 0;
    let mut assignment = Vec::with_capacity(num_users);
    for ui in 0..num_users {
        let c = get_u32(r)?;
        if c as usize >= stored_k {
            return Err(PersistError::Format(format!(
                "user {ui} assigned to cluster {c} >= {stored_k}"
            )));
        }
        assignment.push(c);
    }
    Ok(ClusterAssignment::from_assignment(
        assignment, stored_k, iterations, converged,
    ))
}

// --- section framing ----------------------------------------------------

fn write_section<W: Write>(w: &mut W, tag: u32, payload: &[u8]) -> io::Result<()> {
    put_u32(w, tag)?;
    put_u64(w, payload.len() as u64)?;
    w.write_all(payload)?;
    put_u32(w, crc32(payload))
}

/// Reads one `tag | len | payload | crc` frame, verifying tag and
/// checksum. The payload is read through `take`, so a corrupt length
/// fails on short read instead of provoking a giant allocation.
fn read_section<R: Read>(r: &mut R, tag: u32, what: &str) -> Result<Vec<u8>, PersistError> {
    let stored_tag = get_u32(r)?;
    if stored_tag != tag {
        return Err(PersistError::Format(format!(
            "expected {what} section (tag {tag}), found tag {stored_tag}"
        )));
    }
    let len = get_u64(r)?;
    if len > LIMIT {
        return Err(PersistError::Format(format!(
            "{what} section length {len} exceeds sanity limit {LIMIT}"
        )));
    }
    let mut payload = Vec::new();
    let n = r.take(len).read_to_end(&mut payload)?;
    if n as u64 != len {
        return Err(PersistError::Format(format!(
            "{what} section truncated: {n} of {len} bytes"
        )));
    }
    let stored_crc = get_u32(r)?;
    let actual = crc32(&payload);
    if stored_crc != actual {
        return Err(PersistError::Format(format!(
            "{what} section checksum mismatch (stored {stored_crc:#010x}, computed {actual:#010x})"
        )));
    }
    Ok(payload)
}

/// Decodes a whole section payload, rejecting trailing garbage — a
/// payload that checksums clean but decodes short is still corrupt.
fn decode_section<'p, T>(
    payload: &'p [u8],
    what: &str,
    decode: impl FnOnce(&mut &'p [u8]) -> Result<T, PersistError>,
) -> Result<T, PersistError> {
    let mut r = payload;
    let value = decode(&mut r)?;
    if !r.is_empty() {
        return Err(PersistError::Format(format!(
            "{what} section has {} trailing bytes",
            r.len()
        )));
    }
    Ok(value)
}

// --- model codec -------------------------------------------------------

impl Cfsf {
    /// Serializes the model in the current (checksummed) format with
    /// generation id 0 — the offline-fit default. See the module docs.
    pub fn save<W: Write>(&self, w: W) -> io::Result<()> {
        self.save_with_generation(w, 0)
    }

    /// [`Cfsf::save`] stamping an explicit refresh generation id into the
    /// header, so a snapshot taken from a live [`crate::SelfHealingCfsf`]
    /// records *which* generation it froze.
    pub fn save_with_generation<W: Write>(&self, mut w: W, generation: u64) -> io::Result<()> {
        w.write_all(MAGIC)?;
        put_u32(&mut w, VERSION)?;
        put_u64(&mut w, generation)?;
        write_section(&mut w, TAG_CONFIG, &encode_config(&self.config)?)?;
        write_section(&mut w, TAG_MATRIX, &encode_matrix(&self.matrix)?)?;
        write_section(&mut w, TAG_GIS, &encode_gis(&self.gis, &self.matrix)?)?;
        write_section(&mut w, TAG_CLUSTERS, &encode_clusters(&self.clusters)?)?;
        write_section(&mut w, TAG_PLANES, &self.planes.encode())?;
        w.flush()
    }

    /// Saves to a file.
    pub fn save_to_file(&self, path: impl AsRef<std::path::Path>) -> io::Result<()> {
        let f = std::fs::File::create(path)?;
        self.save(io::BufWriter::new(f))
    }

    /// Deserializes a model saved by [`Cfsf::save`], verifying every
    /// section checksum. Predictions of the loaded model are
    /// bit-identical to the original's. Any corruption is an error here;
    /// see [`Cfsf::load_with_recovery`] for the rebuild-what-can-be-rebuilt
    /// policy.
    pub fn load<R: Read>(r: R) -> Result<Self, PersistError> {
        load_impl(r, false).map(|(model, _)| model)
    }

    /// [`Cfsf::load`] also returning the refresh generation id stamped in
    /// the stream header (0 for offline-fitted models).
    pub fn load_with_generation<R: Read>(r: R) -> Result<(Self, u64), PersistError> {
        load_impl(r, false).map(|(model, report)| (model, report.generation))
    }

    /// Loads a checksummed stream, rebuilding what a checksum failure
    /// allows: the GIS, cluster, and quantized-plane sections are
    /// derivations of the stored matrix, so when one of them is corrupt
    /// it is recomputed exactly as [`Cfsf::fit`] would (seeded K-means,
    /// deterministic plane folding) instead of failing the load. The
    /// config and matrix sections are ground truth — corruption there is
    /// unrecoverable and errors like [`Cfsf::load`].
    pub fn load_with_recovery<R: Read>(r: R) -> Result<(Self, RecoveryReport), PersistError> {
        load_impl(r, true)
    }

    /// Loads from a file.
    pub fn load_from_file(path: impl AsRef<std::path::Path>) -> Result<Self, PersistError> {
        let f = std::fs::File::open(path)?;
        Self::load(io::BufReader::new(f))
    }

    /// Loads from a file with the [`Cfsf::load_with_recovery`] policy.
    pub fn load_from_file_with_recovery(
        path: impl AsRef<std::path::Path>,
    ) -> Result<(Self, RecoveryReport), PersistError> {
        let f = std::fs::File::open(path)?;
        Self::load_with_recovery(io::BufReader::new(f))
    }
}

/// Checks the magic and the version and returns the generation id.
fn read_header<R: Read>(r: &mut R) -> Result<u64, PersistError> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(PersistError::Format("bad magic (not a CFSF model)".into()));
    }
    let version = get_u32(r)?;
    if version != VERSION {
        return Err(PersistError::Format(format!(
            "unsupported version {version} (this build reads {VERSION})"
        )));
    }
    Ok(get_u64(r)?)
}

/// The shared decode behind [`Cfsf::load`] and
/// [`Cfsf::load_with_recovery`]: `recover` selects whether a corrupt
/// derivable section (gis / clusters / planes) is rebuilt from the
/// matrix or fails the load.
fn load_impl<R: Read>(mut r: R, recover: bool) -> Result<(Cfsf, RecoveryReport), PersistError> {
    let generation = read_header(&mut r)?;
    let config = decode_section(
        &read_section(&mut r, TAG_CONFIG, "config")?,
        "config",
        decode_config,
    )?;
    let matrix = decode_section(
        &read_section(&mut r, TAG_MATRIX, "matrix")?,
        "matrix",
        decode_matrix,
    )?;
    let mut report = RecoveryReport {
        generation,
        ..RecoveryReport::default()
    };
    // A corrupt length field desyncs the stream, so a failed GIS read
    // usually takes the later sections down with it — all of them rebuild.
    let gis = match read_section(&mut r, TAG_GIS, "gis")
        .and_then(|p| decode_section(&p, "gis", |r| decode_gis(r, matrix.num_items())))
    {
        Ok(gis) => gis,
        Err(e) if !recover => return Err(e),
        Err(_) => {
            cf_obs::counter!("persist.recovered.gis").inc();
            report.gis_rebuilt = true;
            Gis::build(&matrix, &config.gis_config())
        }
    };
    let clusters = match read_section(&mut r, TAG_CLUSTERS, "clusters")
        .and_then(|p| decode_section(&p, "clusters", |r| decode_clusters(r, matrix.num_users())))
    {
        Ok(clusters) => clusters,
        Err(e) if !recover => return Err(e),
        Err(_) => {
            cf_obs::counter!("persist.recovered.clusters").inc();
            report.clusters_rebuilt = true;
            KMeans::fit(&matrix, &config.kmeans_config())
        }
    };
    let planes = match read_section(&mut r, TAG_PLANES, "planes")
        .and_then(|p| decode_planes(&p, &config, &matrix))
    {
        Ok(planes) => Some(planes),
        Err(e) if !recover => return Err(e),
        Err(_) => {
            cf_obs::counter!("persist.recovered.planes").inc();
            report.planes_rebuilt = true;
            None
        }
    };
    Ok((
        Cfsf::from_parts(config, matrix, gis, clusters, planes),
        report,
    ))
}

/// Decodes and validates a stored planes payload against the config and
/// matrix it claims to serve: dimensions, precision, and the folded ε
/// must all agree (ε is written from the same `f64`, so bit equality is
/// the correct check).
fn decode_planes(
    payload: &[u8],
    config: &CfsfConfig,
    matrix: &RatingMatrix,
) -> Result<cf_matrix::WeightPlanes, PersistError> {
    let planes = cf_matrix::WeightPlanes::decode(payload).map_err(PersistError::Format)?;
    if planes.num_users() != matrix.num_users() || planes.num_items() != matrix.num_items() {
        return Err(PersistError::Format(format!(
            "planes section is {}×{} but the matrix is {}×{}",
            planes.num_users(),
            planes.num_items(),
            matrix.num_users(),
            matrix.num_items()
        )));
    }
    if planes.precision() != config.plane_precision {
        return Err(PersistError::Format(
            "planes section precision disagrees with the stored config".into(),
        ));
    }
    // ε was written from the very same f64 as config.w, so bit equality
    // is the correct (and lint-clean) comparison.
    if planes.epsilon().to_bits() != config.w.to_bits() {
        return Err(PersistError::Format(
            "planes section epsilon disagrees with the stored config".into(),
        ));
    }
    Ok(planes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cf_data::SyntheticConfig;
    use cf_matrix::Predictor;

    fn model() -> Cfsf {
        let d = SyntheticConfig::small().generate();
        Cfsf::fit(&d.matrix, CfsfConfig::small()).unwrap()
    }

    /// Byte range of the `n`-th (0-based) section payload in a V3 stream
    /// (16-byte header: magic, version, generation).
    fn section_payload(buf: &[u8], n: usize) -> std::ops::Range<usize> {
        let mut pos = 16usize;
        for _ in 0..n {
            let len = u64::from_le_bytes(buf[pos + 4..pos + 12].try_into().unwrap()) as usize;
            pos += 12 + len + 4;
        }
        let len = u64::from_le_bytes(buf[pos + 4..pos + 12].try_into().unwrap()) as usize;
        pos + 12..pos + 12 + len
    }

    fn assert_predictions_match(a: &Cfsf, b: &Cfsf) {
        for u in (0..80usize).step_by(7) {
            for i in (0..120usize).step_by(11) {
                assert_eq!(
                    a.predict(UserId::from(u), ItemId::from(i)),
                    b.predict(UserId::from(u), ItemId::from(i)),
                    "({u},{i})"
                );
            }
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn roundtrip_preserves_predictions_exactly() {
        let original = model();
        let mut buf = Vec::new();
        original.save(&mut buf).unwrap();
        let loaded = Cfsf::load(buf.as_slice()).unwrap();
        assert_predictions_match(&original, &loaded);
        assert_eq!(
            loaded.offline_summary().clusters,
            original.offline_summary().clusters
        );
    }

    #[test]
    fn roundtrip_preserves_config() {
        let original = model();
        let mut buf = Vec::new();
        original.save(&mut buf).unwrap();
        let loaded = Cfsf::load(buf.as_slice()).unwrap();
        let (a, b) = (original.config(), loaded.config());
        assert_eq!(a.clusters, b.clusters);
        assert_eq!(a.k, b.k);
        assert_eq!(a.m, b.m);
        assert_eq!(a.lambda, b.lambda);
        assert_eq!(a.delta, b.delta);
        assert_eq!(a.w, b.w);
        assert_eq!(a.seed, b.seed);
        assert_eq!(a.use_smoothing, b.use_smoothing);
        assert_eq!(a.gis.max_neighbors, b.gis.max_neighbors);
    }

    #[test]
    fn generation_round_trips_through_the_header() {
        let original = model();
        let mut buf = Vec::new();
        original.save_with_generation(&mut buf, 42).unwrap();
        let (loaded, generation) = Cfsf::load_with_generation(buf.as_slice()).unwrap();
        assert_eq!(generation, 42);
        assert_predictions_match(&original, &loaded);
        let (_, report) = Cfsf::load_with_recovery(buf.as_slice()).unwrap();
        assert_eq!(report.generation, 42);
        assert!(!report.any(), "intact stream must need no recovery");

        // Plain save stamps generation 0.
        let mut buf = Vec::new();
        original.save(&mut buf).unwrap();
        let (_, generation) = Cfsf::load_with_generation(buf.as_slice()).unwrap();
        assert_eq!(generation, 0);
    }

    #[test]
    fn plane_precision_round_trips_through_save() {
        let d = SyntheticConfig::small().generate();
        let cfg = CfsfConfig::small().with_plane_precision(cf_matrix::PlanePrecision::U8);
        let original = Cfsf::fit(&d.matrix, cfg).unwrap();
        let mut buf = Vec::new();
        original.save(&mut buf).unwrap();
        let loaded = Cfsf::load(buf.as_slice()).unwrap();
        assert_eq!(
            loaded.config().plane_precision,
            cf_matrix::PlanePrecision::U8
        );
        assert_predictions_match(&original, &loaded);
    }

    #[test]
    fn unknown_plane_precision_code_is_rejected() {
        let original = model();
        let mut payload = encode_config(&original.config).unwrap();
        *payload.last_mut().unwrap() = 7; // no such precision
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        put_u32(&mut buf, VERSION).unwrap();
        put_u64(&mut buf, 0).unwrap(); // generation
        write_section(&mut buf, TAG_CONFIG, &payload).unwrap();
        let e = Cfsf::load(buf.as_slice()).unwrap_err();
        assert!(e.to_string().contains("plane precision"), "{e}");
    }

    #[test]
    fn rejects_wrong_magic_and_version() {
        let e = Cfsf::load(&b"NOPE"[..]).unwrap_err();
        assert!(matches!(e, PersistError::Format(_)), "{e}");

        let original = model();
        let mut buf = Vec::new();
        original.save(&mut buf).unwrap();
        buf[4] = 99; // corrupt the version
        let e = Cfsf::load(buf.as_slice()).unwrap_err();
        assert!(e.to_string().contains("version"), "{e}");
    }

    #[test]
    fn rejects_truncated_streams() {
        let original = model();
        let mut buf = Vec::new();
        original.save(&mut buf).unwrap();
        for cut in [8usize, 64, buf.len() / 2, buf.len() - 3] {
            let e = Cfsf::load(&buf[..cut]).unwrap_err();
            assert!(matches!(e, PersistError::Io(_) | PersistError::Format(_)));
        }
    }

    #[test]
    fn checksums_catch_single_bit_flips_in_every_section() {
        let original = model();
        let mut clean = Vec::new();
        original.save(&mut clean).unwrap();
        // One offset inside each of the five section payloads.
        for n in 0..5 {
            let payload = section_payload(&clean, n);
            let off = payload.start + payload.len() / 2;
            let mut buf = clean.clone();
            buf[off] ^= 0x01;
            let e = Cfsf::load(buf.as_slice()).unwrap_err();
            assert!(
                matches!(e, PersistError::Format(_) | PersistError::Io(_)),
                "flip at {off} (section {n}): {e}"
            );
        }
    }

    #[test]
    fn recovery_rebuilds_a_corrupt_gis_section() {
        let original = model();
        let mut buf = Vec::new();
        original.save(&mut buf).unwrap();
        let gis = section_payload(&buf, 2);
        buf[gis.start + 9] ^= 0xFF;

        // Strict load refuses...
        let e = Cfsf::load(buf.as_slice()).unwrap_err();
        assert!(e.to_string().contains("gis"), "{e}");
        // ...recovery rebuilds and predicts identically to the original.
        let (recovered, report) = Cfsf::load_with_recovery(buf.as_slice()).unwrap();
        assert!(report.gis_rebuilt);
        assert!(!report.clusters_rebuilt && !report.planes_rebuilt);
        assert!(report.any());
        assert_predictions_match(&original, &recovered);
    }

    #[test]
    fn recovery_rebuilds_a_corrupt_cluster_section() {
        let original = model();
        let mut buf = Vec::new();
        original.save(&mut buf).unwrap();
        // Flip one of the assignment u32s at the section's tail.
        let clusters = section_payload(&buf, 3);
        buf[clusters.end - 2] ^= 0xFF;

        let e = Cfsf::load(buf.as_slice()).unwrap_err();
        assert!(matches!(e, PersistError::Format(_)), "{e}");
        let (recovered, report) = Cfsf::load_with_recovery(buf.as_slice()).unwrap();
        assert!(report.clusters_rebuilt);
        assert!(!report.gis_rebuilt && !report.planes_rebuilt);
        assert_predictions_match(&original, &recovered);
    }

    #[test]
    fn recovery_rebuilds_a_corrupt_planes_section() {
        let original = model();
        let mut buf = Vec::new();
        original.save_with_generation(&mut buf, 7).unwrap();
        let planes = section_payload(&buf, 4);
        buf[planes.start + planes.len() / 3] ^= 0xFF;

        // Strict load refuses...
        let e = Cfsf::load(buf.as_slice()).unwrap_err();
        assert!(e.to_string().contains("planes"), "{e}");
        // ...recovery refolds the planes from the smoothed sheet —
        // deterministic, so predictions are bit-identical — and keeps the
        // header generation.
        let (recovered, report) = Cfsf::load_with_recovery(buf.as_slice()).unwrap();
        assert!(report.planes_rebuilt);
        assert!(!report.gis_rebuilt && !report.clusters_rebuilt);
        assert_eq!(report.generation, 7);
        assert!(report.any());
        assert_predictions_match(&original, &recovered);
    }

    #[test]
    fn recovery_refuses_corrupt_config_or_matrix() {
        let original = model();
        let mut clean = Vec::new();
        original.save(&mut clean).unwrap();
        for n in 0..2 {
            let payload = section_payload(&clean, n);
            let off = payload.start + payload.len() / 2;
            let mut buf = clean.clone();
            buf[off] ^= 0x10;
            assert!(
                Cfsf::load_with_recovery(buf.as_slice()).is_err(),
                "flip at {off} (section {n}) must be unrecoverable"
            );
        }
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("cfsf_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.cfsf");
        let original = model();
        original.save_to_file(&path).unwrap();
        let loaded = Cfsf::load_from_file(&path).unwrap();
        let (recovered, report) = Cfsf::load_from_file_with_recovery(&path).unwrap();
        assert!(!report.any());
        assert_eq!(
            original.predict(UserId::new(1), ItemId::new(2)),
            loaded.predict(UserId::new(1), ItemId::new(2))
        );
        assert_eq!(
            original.predict(UserId::new(1), ItemId::new(2)),
            recovered.predict(UserId::new(1), ItemId::new(2))
        );
        std::fs::remove_file(&path).ok();
    }
}
