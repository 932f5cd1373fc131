//! Dense user×item rating storage with provenance bits.
//!
//! The smoothing step of the paper (Eq. 7) fills *every* cell of the
//! training matrix: original ratings stay, missing ones are replaced by
//! `mean(u) + Δr(C,i)`. Downstream, Eq. 10/11 must still distinguish the
//! two kinds (original ratings weigh `ε`, smoothed ones `1-ε`), so the
//! dense store carries one provenance bit per cell.

use crate::{ItemId, RatingMatrix, UserId};

/// A dense user×item matrix of ratings plus an "was originally rated" bit
/// per cell.
///
/// Absent cells are encoded as `NaN` and reported as `None` by
/// [`DenseRatings::get`]; after smoothing no cell should be absent (the
/// smoother falls back to the user mean when a cluster has no signal).
#[derive(Debug, Clone)]
pub struct DenseRatings {
    num_users: usize,
    num_items: usize,
    data: Vec<f64>,
    original: Vec<u64>,
}

impl DenseRatings {
    /// An all-absent matrix of the given shape.
    pub fn new(num_users: usize, num_items: usize) -> Self {
        let cells = num_users * num_items;
        Self {
            num_users,
            num_items,
            data: vec![f64::NAN; cells],
            original: vec![0u64; cells.div_ceil(64)],
        }
    }

    /// Seeds a dense matrix with the sparse matrix's ratings, all flagged
    /// as original; every other cell is absent.
    pub fn from_sparse(m: &RatingMatrix) -> Self {
        let mut d = Self::new(m.num_users(), m.num_items());
        for (u, i, r) in m.triplets() {
            d.set_original(u, i, r);
        }
        d
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

    #[inline]
    fn cell(&self, u: UserId, i: ItemId) -> usize {
        debug_assert!(u.index() < self.num_users && i.index() < self.num_items);
        u.index() * self.num_items + i.index()
    }

    /// Stores an original (user-provided) rating.
    #[inline]
    pub fn set_original(&mut self, u: UserId, i: ItemId, r: f64) {
        let c = self.cell(u, i);
        self.data[c] = r;
        self.original[c / 64] |= 1 << (c % 64);
    }

    /// Stores a smoothed (imputed) rating; does not disturb the provenance
    /// bit of a cell that already holds an original rating.
    #[inline]
    pub fn set_smoothed(&mut self, u: UserId, i: ItemId, r: f64) {
        let c = self.cell(u, i);
        self.data[c] = r;
    }

    /// The value at `(u, i)`, if present.
    #[inline]
    pub fn get(&self, u: UserId, i: ItemId) -> Option<f64> {
        let v = self.data[self.cell(u, i)];
        if v.is_nan() {
            None
        } else {
            Some(v)
        }
    }

    /// `true` iff the cell holds a user-provided (not smoothed) rating.
    #[inline]
    pub fn is_original(&self, u: UserId, i: ItemId) -> bool {
        let c = self.cell(u, i);
        (self.original[c / 64] >> (c % 64)) & 1 == 1
    }

    /// Full row of user `u` (absent cells are `NaN`).
    #[inline]
    pub fn row(&self, u: UserId) -> &[f64] {
        let lo = u.index() * self.num_items;
        &self.data[lo..lo + self.num_items]
    }

    /// Number of cells currently holding a value.
    pub fn filled_cells(&self) -> usize {
        self.data.iter().filter(|v| !v.is_nan()).count()
    }

    /// `true` when every cell holds a value (the post-smoothing invariant).
    pub fn is_complete(&self) -> bool {
        self.data.iter().all(|v| !v.is_nan())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MatrixBuilder;

    fn sparse() -> RatingMatrix {
        let mut b = MatrixBuilder::with_dims(2, 3);
        b.push(UserId::new(0), ItemId::new(0), 5.0);
        b.push(UserId::new(1), ItemId::new(2), 2.0);
        b.build().unwrap()
    }

    #[test]
    fn from_sparse_seeds_originals() {
        let d = DenseRatings::from_sparse(&sparse());
        assert_eq!(d.get(UserId::new(0), ItemId::new(0)), Some(5.0));
        assert!(d.is_original(UserId::new(0), ItemId::new(0)));
        assert_eq!(d.get(UserId::new(0), ItemId::new(1)), None);
        assert!(!d.is_original(UserId::new(0), ItemId::new(1)));
        assert_eq!(d.filled_cells(), 2);
        assert!(!d.is_complete());
    }

    #[test]
    fn smoothing_fills_without_claiming_provenance() {
        let mut d = DenseRatings::from_sparse(&sparse());
        d.set_smoothed(UserId::new(0), ItemId::new(1), 3.5);
        assert_eq!(d.get(UserId::new(0), ItemId::new(1)), Some(3.5));
        assert!(!d.is_original(UserId::new(0), ItemId::new(1)));
    }

    #[test]
    fn set_smoothed_over_original_keeps_bit() {
        let mut d = DenseRatings::from_sparse(&sparse());
        d.set_smoothed(UserId::new(0), ItemId::new(0), 4.0);
        assert_eq!(d.get(UserId::new(0), ItemId::new(0)), Some(4.0));
        assert!(d.is_original(UserId::new(0), ItemId::new(0)));
    }

    #[test]
    fn row_view_matches_gets() {
        let mut d = DenseRatings::from_sparse(&sparse());
        d.set_smoothed(UserId::new(0), ItemId::new(2), 1.0);
        let row = d.row(UserId::new(0));
        assert_eq!(row.len(), 3);
        assert_eq!(row[0], 5.0);
        assert!(row[1].is_nan());
        assert_eq!(row[2], 1.0);
    }

    #[test]
    fn complete_after_filling_everything() {
        let mut d = DenseRatings::new(2, 2);
        for u in 0..2u32 {
            for i in 0..2u32 {
                d.set_smoothed(UserId::new(u), ItemId::new(i), 3.0);
            }
        }
        assert!(d.is_complete());
        assert_eq!(d.filled_cells(), 4);
    }

    #[test]
    fn provenance_bits_across_word_boundaries() {
        // 9x9 = 81 cells spans two u64 words; make sure bit addressing holds.
        let mut d = DenseRatings::new(9, 9);
        d.set_original(UserId::new(7), ItemId::new(8), 2.0); // cell 71
        d.set_original(UserId::new(8), ItemId::new(0), 4.0); // cell 72
        assert!(d.is_original(UserId::new(7), ItemId::new(8)));
        assert!(d.is_original(UserId::new(8), ItemId::new(0)));
        assert!(!d.is_original(UserId::new(0), ItemId::new(0)));
    }
}
