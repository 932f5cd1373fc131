//! Quantized fused weight planes — the serving fast path's memory layout.
//!
//! The online kernels (Eq. 10–13) weigh every cell by `w = ε` (original
//! rating) or `w = 1 − ε` (smoothed rating) and then multiply by the
//! rating itself. Post-smoothing the matrix is *complete* and ε is fixed
//! for the lifetime of a fitted model, so all of it can be folded once at
//! fit time. The first fused layout stored `[f64 w, f64 w·r]` pairs plus
//! an `f64` presence plane — 24 bytes per cell. That made the kernels
//! branch-free but left the scattered-request path LLC-latency-bound
//! (DESIGN.md §6b): at 500×1000 the pair plane alone is ~12 MB, so every
//! mixed-pattern request misses to DRAM.
//!
//! This layout attacks the footprint instead of the ALUs:
//!
//! - **Cells are quantized codes, not floats.** One `u16` (default) or
//!   `u8` per cell: bit 0 is provenance (`1` = original rating, `0` =
//!   smoothed), bit 1 is presence, and the remaining 14 (resp. 6) bits
//!   are a linear code for the rating over the plane's own `[min, max]`
//!   range (`r ≈ min + code · step`, `step = span / (2^bits − 1)`).
//!   16 B/cell becomes 2 B/cell.
//! - **Presence lives in the cell *and* in a bit-packed plane.** The
//!   in-cell copy (bit 1) makes a kernel's scattered gather one load per
//!   cell — the LLC-bound MAC loops never touch a second stream. The
//!   canonical bit-packed plane (one bit per cell, little-endian `u64`
//!   words, 64 cells per word) serves the word-at-a-time consumers
//!   ([`present_bit`], overlap tests, [`WeightPlanes::is_present`]).
//!   Presence is load-bearing either way — an absent cell is stored
//!   all-zero, which *would* dequantize to a smoothed-cell weight, so
//!   dequantization gates the weight through the presence bit
//!   (see [`PlaneDequant::pair`]).
//! - **Weights stay exact.** Dequantization looks the weight up in a
//!   4-entry LUT indexed by the cell's low two bits,
//!   `(present << 1) | provenance`: `[0, 0, 1−ε, ε]`. Only the *rating*
//!   carries quantization error (≤ `step/2` per cell); weighted-sum
//!   denominators, overlap counts, and estimator availability are
//!   bit-identical to the exact layout.
//!
//! All raw code/LUT handling lives in this file behind [`PlaneDequant`]
//! and the typed row views; kernels never touch cell bits directly
//! ([`QuantCell::bits`] takes a key only this file can build, and the LUT
//! is a private field).

use crate::{DenseRatings, ItemId, UserId};

/// Storage precision of the quantized weight planes.
///
/// `U16` (the default) keeps rating error below `span/32766` — invisible
/// next to model error. `U8` halves the plane again for footprint-critical
/// deployments at a coarser (documented) tolerance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlanePrecision {
    /// 16-bit cells: 14-bit rating code + presence and provenance bits.
    #[default]
    U16,
    /// 8-bit cells: 6-bit rating code + presence and provenance bits.
    U8,
}

impl PlanePrecision {
    /// Stable wire/persistence code (`0` = U16, `1` = U8).
    #[inline]
    pub fn code(self) -> u8 {
        match self {
            PlanePrecision::U16 => 0,
            PlanePrecision::U8 => 1,
        }
    }

    /// Inverse of [`PlanePrecision::code`]; `None` for unknown codes.
    #[inline]
    pub fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(PlanePrecision::U16),
            1 => Some(PlanePrecision::U8),
            _ => None,
        }
    }
}

/// One quantized plane cell: an unsigned integer holding
/// `(rating_code << 2) | (present << 1) | provenance`.
///
/// Implemented for `u16` and `u8`; kernels are generic over this trait and
/// monomorphize per precision, so the dequant math inlines with no
/// per-cell dispatch.
///
/// The encoding stays inside this module. Kernels dequantize through
/// [`PlaneDequant::pair`]:
///
/// ```
/// use cf_matrix::{PlaneDequant, QuantCell};
///
/// fn weight<C: QuantCell>(dq: &PlaneDequant, c: C) -> f64 {
///     dq.pair(c).0
/// }
/// ```
///
/// Reading the raw bits needs a key that only this module can build, so
/// not even generic code elsewhere can decode a cell on its own:
///
/// ```compile_fail,E0061
/// fn raw<C: cf_matrix::QuantCell>(c: C) -> u32 {
///     c.bits()
/// }
/// ```
pub trait QuantCell: Copy + Send + Sync + 'static {
    /// Bits available for the rating code (cell width minus the
    /// presence and provenance bits).
    const CODE_BITS: u32;
    /// Largest representable rating code.
    const MAX_CODE: u32 = (1u32 << Self::CODE_BITS) - 1;
    /// Packs raw cell bits (code + provenance already combined).
    fn pack(bits: u32) -> Self;
    /// The raw cell bits.
    fn bits(self, key: CellKey) -> u32;
}

/// The argument of [`QuantCell::bits`]. Its field is private and the
/// type is not exported, so only this module can read raw cell bits.
pub struct CellKey(());

const KEY: CellKey = CellKey(());

impl QuantCell for u16 {
    const CODE_BITS: u32 = 14;
    #[inline]
    fn pack(bits: u32) -> Self {
        bits as u16
    }
    #[inline]
    fn bits(self, _: CellKey) -> u32 {
        self as u32
    }
}

impl QuantCell for u8 {
    const CODE_BITS: u32 = 6;
    #[inline]
    fn pack(bits: u32) -> Self {
        bits as u8
    }
    #[inline]
    fn bits(self, _: CellKey) -> u32 {
        self as u32
    }
}

/// The dequantization constants of one plane: the exact-weight LUT and the
/// rating code's affine map. `Copy`, 48 bytes — callers hoist it out of
/// their loops and the whole struct lives in registers.
#[derive(Debug, Clone, Copy)]
pub struct PlaneDequant {
    /// Weight by `(present << 1) | provenance`: absent → `0.0` (twice),
    /// present smoothed → `1 − ε`, present original → `ε`. Exact — no
    /// quantization touches the weights.
    wlut: [f64; 4],
    /// Rating of code 0.
    min: f64,
    /// Rating increment per code step (`0.0` for a constant/empty plane).
    step: f64,
}

impl PlaneDequant {
    /// Dequantizes one cell into the `(w, w·r)` pair the kernels
    /// accumulate. The cell's own presence bit gates the weight (the LUT
    /// index is the low two bits, `(present << 1) | provenance`), so
    /// absent cells contribute exact zeros from a *single* load — the
    /// scattered MAC loops read one stream, not a cell stream plus a
    /// presence-word stream.
    #[inline(always)]
    pub fn pair<C: QuantCell>(&self, cell: C) -> (f64, f64) {
        let b = cell.bits(KEY);
        let w = self.wlut[(b & 3) as usize];
        let r = (b >> 2) as f64 * self.step + self.min;
        (w, w * r)
    }

    /// [`PlaneDequant::pair`] plus the cell's presence bit (0 or 1), for
    /// kernels that also count overlap (`m_used`, PCC normalization).
    #[inline(always)]
    pub fn triple<C: QuantCell>(&self, cell: C) -> (f64, f64, u64) {
        let b = cell.bits(KEY);
        let w = self.wlut[(b & 3) as usize];
        let r = (b >> 2) as f64 * self.step + self.min;
        (w, w * r, u64::from((b >> 1) & 1))
    }

    /// The rating increment per code step — the quantization granularity.
    /// Per-cell rating error is at most `step / 2`.
    #[inline]
    pub fn step(&self) -> f64 {
        self.step
    }
}

/// Extracts the presence bit of cell `c` from a bit-packed presence row
/// (little-endian `u64` words, 64 cells per word). Returns 0 or 1.
#[inline(always)]
pub fn present_bit(words: &[u64], c: usize) -> u64 {
    (words[c >> 6] >> (c & 63)) & 1
}

/// A borrowed, precision-typed view of one plane: the generic kernels'
/// entry point. Obtained via [`WeightPlanes::view`]; dispatching on the
/// [`PlanesView`] enum once per request monomorphizes the whole kernel.
#[derive(Debug, Clone, Copy)]
pub struct TypedPlanes<'a, C: QuantCell> {
    cells: &'a [C],
    present: &'a [u64],
    num_items: usize,
    words_per_row: usize,
    dq: PlaneDequant,
}

impl<'a, C: QuantCell> TypedPlanes<'a, C> {
    /// The plane's dequantization constants (copy it out of loops).
    #[inline]
    pub fn dq(&self) -> PlaneDequant {
        self.dq
    }

    /// Number of item columns per row.
    #[inline]
    pub fn num_items(&self) -> usize {
        self.num_items
    }

    /// The quantized cell row of user `u` (`num_items` cells).
    #[inline]
    pub fn cell_row(&self, u: UserId) -> &'a [C] {
        let lo = u.index() * self.num_items;
        &self.cells[lo..lo + self.num_items]
    }

    /// The bit-packed presence row of user `u`
    /// (`ceil(num_items / 64)` words; index with [`present_bit`]).
    #[inline]
    pub fn present_row(&self, u: UserId) -> &'a [u64] {
        let lo = u.index() * self.words_per_row;
        &self.present[lo..lo + self.words_per_row]
    }

    /// The dequantized `(w, w·r)` pair of one cell (`(0.0, ±0.0)` where
    /// absent).
    #[inline]
    pub fn pair(&self, u: UserId, i: ItemId) -> (f64, f64) {
        self.dq.pair(self.cell_row(u)[i.index()])
    }

    /// Safe software prefetch of user `u`'s cell row: touches one cell per
    /// cache line and sinks the result through [`std::hint::black_box`] so
    /// the loads are emitted but nothing is architecturally consumed. With
    /// `unsafe` forbidden crate-wide there is no `_mm_prefetch`;
    /// demand-touching the next neighbor's row while the current one is in
    /// the MAC overlaps its DRAM latency with live work, which is the same
    /// pipelining effect. Presence words are not touched: with presence
    /// folded into the cells, the MAC reads only this row.
    #[inline]
    pub fn prefetch_row(&self, u: UserId) {
        let row = self.cell_row(u);
        let stride = (64 / std::mem::size_of::<C>()).max(1);
        let mut acc = 0u32;
        let mut c = 0;
        while c < row.len() {
            acc ^= row[c].bits(KEY);
            c += stride;
        }
        std::hint::black_box(acc);
    }
}

/// The precision-dispatch view over a [`WeightPlanes`]. Match once per
/// request, then run a generic kernel on the typed arm.
#[derive(Debug, Clone, Copy)]
pub enum PlanesView<'a> {
    /// 16-bit cells.
    U16(TypedPlanes<'a, u16>),
    /// 8-bit cells.
    U8(TypedPlanes<'a, u8>),
}

#[derive(Debug, Clone)]
enum Cells {
    U16(Vec<u16>),
    U8(Vec<u8>),
}

/// Dense quantized weight planes plus a bit-packed presence plane, with ε
/// folded into the weight LUT. Built once per fitted model (and rebuilt
/// when the dense ratings, ε, or the precision change); read-only on the
/// serving path.
#[derive(Debug, Clone)]
pub struct WeightPlanes {
    num_users: usize,
    num_items: usize,
    words_per_row: usize,
    dq: PlaneDequant,
    precision: PlanePrecision,
    cells: Cells,
    /// Presence bits, row-major: `words_per_row` little-endian `u64`
    /// words per user.
    present: Vec<u64>,
}

impl WeightPlanes {
    /// Folds the dense ratings and their provenance bitmap into quantized
    /// weight planes at the default [`PlanePrecision::U16`].
    pub fn from_dense(dense: &DenseRatings, epsilon: f64) -> Self {
        Self::from_dense_with(dense, epsilon, PlanePrecision::default())
    }

    /// [`WeightPlanes::from_dense`] at an explicit precision. The rating
    /// code range is self-calibrated to the plane's own min/max (smoothed
    /// ratings routinely overshoot the nominal rating scale), so the
    /// documented tolerance is `span / (2^code_bits − 1) / 2` per cell.
    pub fn from_dense_with(dense: &DenseRatings, epsilon: f64, precision: PlanePrecision) -> Self {
        let (p, q) = (dense.num_users(), dense.num_items());
        let words_per_row = q.div_ceil(64);

        // Pass 1: self-calibrate the code range over the present cells.
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for ui in 0..p {
            for &r in dense.row(UserId::from(ui)) {
                if !r.is_nan() {
                    lo = lo.min(r);
                    hi = hi.max(r);
                }
            }
        }
        let (min, span) = if lo.is_finite() && hi > lo {
            (lo, hi - lo)
        } else if lo.is_finite() {
            (lo, 0.0)
        } else {
            (0.0, 0.0)
        };

        let (cells, present, step) = match precision {
            PlanePrecision::U16 => {
                let (c, pr, s) = build_cells::<u16>(dense, min, span, words_per_row);
                (Cells::U16(c), pr, s)
            }
            PlanePrecision::U8 => {
                let (c, pr, s) = build_cells::<u8>(dense, min, span, words_per_row);
                (Cells::U8(c), pr, s)
            }
        };

        Self {
            num_users: p,
            num_items: q,
            words_per_row,
            dq: PlaneDequant {
                wlut: [0.0, 0.0, 1.0 - epsilon, epsilon],
                min,
                step,
            },
            precision,
            cells,
            present,
        }
    }

    /// Number of user rows.
    #[inline]
    pub fn num_users(&self) -> usize {
        self.num_users
    }

    /// Number of item columns.
    #[inline]
    pub fn num_items(&self) -> usize {
        self.num_items
    }

    /// The storage precision the planes were built at.
    #[inline]
    pub fn precision(&self) -> PlanePrecision {
        self.precision
    }

    /// The rating quantization granularity (per-cell rating error is at
    /// most half this). `0.0` for constant or empty planes.
    #[inline]
    pub fn step(&self) -> f64 {
        self.dq.step
    }

    /// An upper bound on any weighted mean of this plane's dequantized
    /// ratings computed the way the Eq. 12 kernels compute one: weights
    /// `≥ 0`, numerator and denominator accumulated in any order (plain
    /// or fused adds), then one division.
    ///
    /// Every cell dequantizes to at most `top = MAX_CODE·step + min`
    /// (IEEE `×` and `+` are monotone, and no code exceeds `MAX_CODE`).
    /// The accumulation can overshoot `top` by rounding alone, by at most
    /// `(2n + 2)·u·A` to first order, where `u = 2⁻⁵³`, `A` bounds `|r|`
    /// and `n` is the number of terms. A mean over distinct cells has
    /// `n ≤ users·items`, so padding by twice that bound at the plane's
    /// own cell count covers every such mean (proof: DESIGN.md §6b,
    /// "Bounded top-N").
    pub fn rating_ceiling(&self) -> f64 {
        let max_code = match self.precision {
            PlanePrecision::U16 => <u16 as QuantCell>::MAX_CODE,
            PlanePrecision::U8 => <u8 as QuantCell>::MAX_CODE,
        };
        let top = max_code as f64 * self.dq.step + self.dq.min;
        let magnitude = top.abs().max(self.dq.min.abs());
        let terms = (self.num_users * self.num_items) as f64;
        top + magnitude * (2.0 * terms + 4.0) * f64::EPSILON
    }

    /// The ε folded into the weight LUT at build time (persistence
    /// validates a stored plane against its config through this).
    #[inline]
    pub fn epsilon(&self) -> f64 {
        self.dq.wlut[3]
    }

    /// The precision-typed view for kernel dispatch.
    #[inline]
    pub fn view(&self) -> PlanesView<'_> {
        match &self.cells {
            Cells::U16(c) => PlanesView::U16(TypedPlanes {
                cells: c,
                present: &self.present,
                num_items: self.num_items,
                words_per_row: self.words_per_row,
                dq: self.dq,
            }),
            Cells::U8(c) => PlanesView::U8(TypedPlanes {
                cells: c,
                present: &self.present,
                num_items: self.num_items,
                words_per_row: self.words_per_row,
                dq: self.dq,
            }),
        }
    }

    /// The dequantized `(w, w·r)` pair of one cell (`(0.0, ±0.0)` where
    /// absent). Convenience for single-cell reads; kernels should dispatch
    /// through [`WeightPlanes::view`] instead.
    #[inline]
    pub fn pair(&self, u: UserId, i: ItemId) -> (f64, f64) {
        debug_assert!(u.index() < self.num_users && i.index() < self.num_items);
        match self.view() {
            PlanesView::U16(v) => v.pair(u, i),
            PlanesView::U8(v) => v.pair(u, i),
        }
    }

    /// Whether the cell holds a value.
    #[inline]
    pub fn is_present(&self, u: UserId, i: ItemId) -> bool {
        let c = i.index();
        let lo = u.index() * self.words_per_row;
        present_bit(&self.present[lo..lo + self.words_per_row], c) == 1
    }

    /// Bytes held by the quantized cell plane (footprint gauge).
    #[inline]
    pub fn cell_bytes(&self) -> usize {
        match &self.cells {
            Cells::U16(c) => c.len() * std::mem::size_of::<u16>(),
            Cells::U8(c) => c.len() * std::mem::size_of::<u8>(),
        }
    }

    /// Bytes held by the bit-packed presence plane (footprint gauge).
    #[inline]
    pub fn present_bytes(&self) -> usize {
        self.present.len() * std::mem::size_of::<u64>()
    }

    /// Serializes the planes into a self-contained little-endian payload
    /// (the V3 persistence section): precision code, dimensions, the
    /// dequant affine map, then the raw cells and presence words. The
    /// weight LUT is *not* stored — it is `[0, 0, 1−ε, ε]` by
    /// construction, so storing `ε` alone reconstructs it exactly.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Vec::with_capacity(41 + self.cell_bytes() + self.present_bytes());
        w.push(self.precision.code());
        w.extend_from_slice(&(self.num_users as u64).to_le_bytes());
        w.extend_from_slice(&(self.num_items as u64).to_le_bytes());
        w.extend_from_slice(&self.dq.min.to_le_bytes());
        w.extend_from_slice(&self.dq.step.to_le_bytes());
        w.extend_from_slice(&self.dq.wlut[3].to_le_bytes()); // ε
        match &self.cells {
            Cells::U16(c) => {
                for &cell in c {
                    w.extend_from_slice(&cell.to_le_bytes());
                }
            }
            Cells::U8(c) => w.extend_from_slice(c),
        }
        for &word in &self.present {
            w.extend_from_slice(&word.to_le_bytes());
        }
        w
    }

    /// Inverse of [`WeightPlanes::encode`]. Validates the precision code,
    /// dimension sanity, the dequant constants, and that the payload
    /// length matches the dimensions *exactly* — trailing or missing
    /// bytes are corruption even when a checksum upstream passed.
    pub fn decode(bytes: &[u8]) -> Result<Self, String> {
        fn take<'a>(b: &mut &'a [u8], n: usize, what: &str) -> Result<&'a [u8], String> {
            if b.len() < n {
                return Err(format!("planes payload truncated reading {what}"));
            }
            let (head, tail) = b.split_at(n);
            *b = tail;
            Ok(head)
        }
        fn take_u64(b: &mut &[u8], what: &str) -> Result<u64, String> {
            let raw: [u8; 8] = take(b, 8, what)?
                .try_into()
                .map_err(|_| format!("planes payload truncated reading {what}"))?;
            Ok(u64::from_le_bytes(raw))
        }
        fn take_f64(b: &mut &[u8], what: &str) -> Result<f64, String> {
            let v = f64::from_bits(take_u64(b, what)?);
            if v.is_finite() {
                Ok(v)
            } else {
                Err(format!("planes {what} is not finite"))
            }
        }

        const LIMIT: u64 = 1 << 32;
        let mut b = bytes;
        let code = take(&mut b, 1, "precision code")?[0];
        let precision = PlanePrecision::from_code(code)
            .ok_or_else(|| format!("unknown plane precision code {code}"))?;
        let num_users = take_u64(&mut b, "num_users")?;
        let num_items = take_u64(&mut b, "num_items")?;
        let num_cells = num_users
            .checked_mul(num_items)
            .filter(|&n| n <= LIMIT && num_users <= LIMIT && num_items <= LIMIT)
            .ok_or_else(|| {
                format!("planes dimensions {num_users}×{num_items} exceed sanity limit")
            })? as usize;
        let min = take_f64(&mut b, "min")?;
        let step = take_f64(&mut b, "step")?;
        if step < 0.0 {
            return Err(format!("planes step {step} is negative"));
        }
        let epsilon = take_f64(&mut b, "epsilon")?;
        if !(0.0..=1.0).contains(&epsilon) {
            return Err(format!("planes epsilon {epsilon} outside [0, 1]"));
        }

        let cells = match precision {
            PlanePrecision::U16 => {
                let raw = take(&mut b, num_cells * 2, "cells")?;
                Cells::U16(
                    raw.chunks_exact(2)
                        .map(|c| u16::from_le_bytes([c[0], c[1]]))
                        .collect(),
                )
            }
            PlanePrecision::U8 => Cells::U8(take(&mut b, num_cells, "cells")?.to_vec()),
        };
        let words_per_row = (num_items as usize).div_ceil(64);
        let num_words = num_users as usize * words_per_row;
        let present = take(&mut b, num_words * 8, "presence words")?
            .chunks_exact(8)
            .map(|c| {
                let raw: [u8; 8] = c.try_into().unwrap_or([0; 8]);
                u64::from_le_bytes(raw)
            })
            .collect();
        if !b.is_empty() {
            return Err(format!("planes payload has {} trailing bytes", b.len()));
        }
        Ok(Self {
            num_users: num_users as usize,
            num_items: num_items as usize,
            words_per_row,
            dq: PlaneDequant {
                wlut: [0.0, 0.0, 1.0 - epsilon, epsilon],
                min,
                step,
            },
            precision,
            cells,
            present,
        })
    }
}

/// Quantizes every present cell of `dense` into `C` codes and packs the
/// presence bits. Returns `(cells, present_words, step)`.
fn build_cells<C: QuantCell>(
    dense: &DenseRatings,
    min: f64,
    span: f64,
    words_per_row: usize,
) -> (Vec<C>, Vec<u64>, f64) {
    let (p, q) = (dense.num_users(), dense.num_items());
    let max_code = C::MAX_CODE;
    let step = if span > 0.0 {
        span / max_code as f64
    } else {
        0.0
    };
    let inv_step = if step > 0.0 { 1.0 / step } else { 0.0 };

    let mut cells = vec![C::pack(0); p * q];
    let mut present = vec![0u64; p * words_per_row];
    for ui in 0..p {
        let u = UserId::from(ui);
        let row = dense.row(u);
        let base = ui * q;
        let wbase = ui * words_per_row;
        for (ii, &r) in row.iter().enumerate() {
            if r.is_nan() {
                continue;
            }
            // (r − min) ≥ 0 by construction of min; clamp guards the
            // floating-point overshoot of round() at the top of the range.
            let code = (((r - min) * inv_step).round() as u32).min(max_code);
            let prov = u32::from(dense.is_original(u, ItemId::from(ii)));
            cells[base + ii] = C::pack((code << 2) | 0b10 | prov);
            present[wbase + (ii >> 6)] |= 1u64 << (ii & 63);
        }
    }
    (cells, present, step)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense() -> DenseRatings {
        let mut d = DenseRatings::new(2, 3);
        d.set_original(UserId::new(0), ItemId::new(0), 4.0);
        d.set_smoothed(UserId::new(0), ItemId::new(2), 2.5);
        d.set_original(UserId::new(1), ItemId::new(1), 1.0);
        d
    }

    #[test]
    fn planes_fold_epsilon_and_provenance() {
        let p = WeightPlanes::from_dense(&dense(), 0.35);
        let tol = p.step(); // rating error ≤ step/2; weights exact
                            // original rating: w = ε exactly, rating within quantization
        let (w, wr) = p.pair(UserId::new(0), ItemId::new(0));
        assert_eq!(w, 0.35);
        assert!((wr - 0.35 * 4.0).abs() <= 0.35 * tol);
        // smoothed rating: w = 1 − ε exactly
        let (w, wr) = p.pair(UserId::new(0), ItemId::new(2));
        assert!((w - 0.65).abs() < 1e-12);
        assert!((wr - 0.65 * 2.5).abs() <= 0.65 * tol);
        // absent cell: exact zero weight and product
        let (w, wr) = p.pair(UserId::new(0), ItemId::new(1));
        assert_eq!((w, wr.abs()), (0.0, 0.0));
        let (w, wr) = p.pair(UserId::new(1), ItemId::new(0));
        assert_eq!((w, wr.abs()), (0.0, 0.0));
    }

    #[test]
    fn presence_plane_tracks_cells_not_weights() {
        // ε = 1 zeroes the weight of smoothed cells; presence must still
        // distinguish "absent" from "present with zero weight".
        let p = WeightPlanes::from_dense(&dense(), 1.0);
        assert!(p.is_present(UserId::new(0), ItemId::new(0)));
        assert!(!p.is_present(UserId::new(0), ItemId::new(1)));
        assert!(p.is_present(UserId::new(0), ItemId::new(2)));
        let (w, wr) = p.pair(UserId::new(0), ItemId::new(2));
        assert_eq!((w, wr.abs()), (0.0, 0.0));
        assert!(!p.is_present(UserId::new(1), ItemId::new(0)));
        assert!(p.is_present(UserId::new(1), ItemId::new(1)));
        assert!(!p.is_present(UserId::new(1), ItemId::new(2)));
    }

    #[test]
    fn rows_are_contiguous_views() {
        let p = WeightPlanes::from_dense(&dense(), 0.35);
        assert_eq!(p.num_users(), 2);
        assert_eq!(p.num_items(), 3);
        let PlanesView::U16(v) = p.view() else {
            panic!("default precision must be U16");
        };
        assert_eq!(v.cell_row(UserId::new(1)).len(), 3);
        assert_eq!(v.present_row(UserId::new(1)).len(), 1);
        let (w, wr) = v.pair(UserId::new(1), ItemId::new(1));
        assert_eq!(w, 0.35);
        assert!((wr - 0.35).abs() <= 0.35 * p.step());
        // Typed view and dispatching accessor agree exactly.
        assert_eq!(p.pair(UserId::new(1), ItemId::new(1)), (w, wr));
    }

    #[test]
    fn u8_precision_quantizes_coarser_but_same_weights() {
        let d = dense();
        let p16 = WeightPlanes::from_dense_with(&d, 0.35, PlanePrecision::U16);
        let p8 = WeightPlanes::from_dense_with(&d, 0.35, PlanePrecision::U8);
        assert!(p8.step() > p16.step());
        // span = 4.0 − 1.0 = 3.0 over 63 (resp. 16383) codes.
        assert!((p8.step() - 3.0 / 63.0).abs() < 1e-12);
        assert!((p16.step() - 3.0 / 16383.0).abs() < 1e-12);
        let (w16, _) = p16.pair(UserId::new(0), ItemId::new(2));
        let (w8, wr8) = p8.pair(UserId::new(0), ItemId::new(2));
        assert_eq!(w16, w8); // weights never quantized
        assert!((wr8 - 0.65 * 2.5).abs() <= 0.65 * p8.step());
        assert_eq!(p8.cell_bytes() * 2, p16.cell_bytes());
    }

    #[test]
    fn rating_ceiling_sits_just_above_the_top_code() {
        let d = dense();
        for precision in [PlanePrecision::U16, PlanePrecision::U8] {
            let p = WeightPlanes::from_dense_with(&d, 0.35, precision);
            let ceiling = p.rating_ceiling();
            // The top cell (4.0 = min + MAX_CODE·step) and every other
            // present cell dequantize to at most the ceiling.
            for (u, i) in [(0, 0), (0, 2), (1, 1)] {
                let (w, wr) = p.pair(UserId::new(u), ItemId::new(i));
                assert!(wr / w <= ceiling, "{precision:?} ({u},{i})");
            }
            // The pad is rounding-sized: 6 cells, |r| ≤ 4, 2·(2·6 + 4)·u.
            assert!(
                ceiling > 4.0 && ceiling - 4.0 < 1e-13,
                "{precision:?} {ceiling}"
            );
        }
    }

    #[test]
    fn constant_and_empty_planes_have_zero_step() {
        let mut d = DenseRatings::new(1, 2);
        d.set_original(UserId::new(0), ItemId::new(0), 3.0);
        d.set_original(UserId::new(0), ItemId::new(1), 3.0);
        let p = WeightPlanes::from_dense(&d, 0.35);
        assert_eq!(p.step(), 0.0);
        // Constant plane round-trips exactly: r = min.
        assert_eq!(p.pair(UserId::new(0), ItemId::new(1)), (0.35, 0.35 * 3.0));

        let empty = WeightPlanes::from_dense(&DenseRatings::new(2, 3), 0.35);
        assert_eq!(empty.step(), 0.0);
        assert!(!empty.is_present(UserId::new(1), ItemId::new(2)));
    }

    #[test]
    fn encode_decode_round_trips_both_precisions() {
        let d = dense();
        for precision in [PlanePrecision::U16, PlanePrecision::U8] {
            let original = WeightPlanes::from_dense_with(&d, 0.35, precision);
            let decoded = WeightPlanes::decode(&original.encode()).unwrap();
            assert_eq!(decoded.precision(), precision);
            assert_eq!(decoded.num_users(), original.num_users());
            assert_eq!(decoded.num_items(), original.num_items());
            assert_eq!(decoded.step(), original.step());
            for u in 0..2 {
                for i in 0..3 {
                    let (u, i) = (UserId::new(u), ItemId::new(i));
                    assert_eq!(decoded.pair(u, i), original.pair(u, i));
                    assert_eq!(decoded.is_present(u, i), original.is_present(u, i));
                }
            }
        }
    }

    #[test]
    fn decode_rejects_malformed_payloads() {
        let clean = WeightPlanes::from_dense(&dense(), 0.35).encode();
        // Truncation anywhere fails.
        for cut in [0usize, 5, 24, clean.len() - 1] {
            assert!(WeightPlanes::decode(&clean[..cut]).is_err(), "cut {cut}");
        }
        // Trailing garbage fails even though all fields parse.
        let mut long = clean.clone();
        long.push(0);
        assert!(WeightPlanes::decode(&long).is_err());
        // Unknown precision code fails.
        let mut bad = clean.clone();
        bad[0] = 9;
        assert!(WeightPlanes::decode(&bad).is_err());
        // Corrupt epsilon (outside [0,1]) fails.
        let mut bad = clean;
        bad[33..41].copy_from_slice(&7.5f64.to_le_bytes());
        assert!(WeightPlanes::decode(&bad).is_err());
    }

    #[test]
    fn presence_words_pack_64_cells_per_word() {
        // 70 items → 2 words per row; bit 69 lands in word 1, bit 5.
        let mut d = DenseRatings::new(2, 70);
        d.set_original(UserId::new(1), ItemId::new(69), 2.0);
        d.set_smoothed(UserId::new(1), ItemId::new(0), 4.0);
        let p = WeightPlanes::from_dense(&d, 0.35);
        let PlanesView::U16(v) = p.view() else {
            panic!("default precision must be U16");
        };
        assert_eq!(v.present_row(UserId::new(0)), &[0u64, 0u64]);
        let row1 = v.present_row(UserId::new(1));
        assert_eq!(row1, &[1u64, 1u64 << 5]);
        assert_eq!(present_bit(row1, 69), 1);
        assert_eq!(present_bit(row1, 68), 0);
        assert_eq!(p.present_bytes(), 2 * 2 * 8);
    }
}
