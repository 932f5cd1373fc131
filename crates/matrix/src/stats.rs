//! Dataset statistics — the quantities reported in Table I of the paper.

use crate::RatingMatrix;

/// Summary statistics of a rating matrix, mirroring Table I
/// ("Statistics of the datasets") of the CFSF paper.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixStats {
    /// Number of users with at least one rating.
    pub active_users: usize,
    /// Total user slots (including unrated trailing users).
    pub num_users: usize,
    /// Number of items with at least one rating.
    pub active_items: usize,
    /// Total item slots.
    pub num_items: usize,
    /// Total number of ratings.
    pub num_ratings: usize,
    /// Average number of rated items per *active* user (94.4 in Table I).
    pub avg_ratings_per_user: f64,
    /// Fraction of filled cells over `num_users × num_items`.
    pub density: f64,
    /// Number of distinct rating values observed (Table I reports 5).
    pub distinct_rating_values: usize,
    /// Smallest observed rating.
    pub min_rating: f64,
    /// Largest observed rating.
    pub max_rating: f64,
    /// Mean of all ratings.
    pub global_mean: f64,
    /// Fewest ratings among active users.
    pub min_ratings_per_user: usize,
    /// Most ratings among any user.
    pub max_ratings_per_user: usize,
}

impl MatrixStats {
    /// Computes all statistics in one pass over the matrix.
    pub fn compute(m: &RatingMatrix) -> Self {
        let mut active_users = 0usize;
        let mut min_per_user = usize::MAX;
        let mut max_per_user = 0usize;
        for u in m.users() {
            let c = m.user_count(u);
            if c > 0 {
                active_users += 1;
                min_per_user = min_per_user.min(c);
                max_per_user = max_per_user.max(c);
            }
        }
        if active_users == 0 {
            min_per_user = 0;
        }
        let active_items = m.items().filter(|&i| m.item_count(i) > 0).count();

        let mut values: Vec<f64> = m.triplets().map(|t| t.2).collect();
        values.sort_unstable_by(f64::total_cmp);
        let distinct =
            values.windows(2).filter(|w| w[0] != w[1]).count() + usize::from(!values.is_empty());
        let min_rating = values.first().copied().unwrap_or(0.0);
        let max_rating = values.last().copied().unwrap_or(0.0);

        Self {
            active_users,
            num_users: m.num_users(),
            active_items,
            num_items: m.num_items(),
            num_ratings: m.num_ratings(),
            avg_ratings_per_user: if active_users > 0 {
                m.num_ratings() as f64 / active_users as f64
            } else {
                0.0
            },
            density: m.density(),
            distinct_rating_values: distinct,
            min_rating,
            max_rating,
            global_mean: m.global_mean(),
            min_ratings_per_user: min_per_user,
            max_ratings_per_user: max_per_user,
        }
    }
}

impl std::fmt::Display for MatrixStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "No. of users                         {}",
            self.active_users
        )?;
        writeln!(
            f,
            "No. of items                         {}",
            self.active_items
        )?;
        writeln!(
            f,
            "Average no. of rated items per user  {:.1}",
            self.avg_ratings_per_user
        )?;
        writeln!(
            f,
            "Density of data                      {:.2}%",
            self.density * 100.0
        )?;
        writeln!(
            f,
            "No. of distinct rating values        {}",
            self.distinct_rating_values
        )?;
        writeln!(
            f,
            "No. of ratings                       {}",
            self.num_ratings
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ItemId, MatrixBuilder, UserId};

    fn matrix() -> RatingMatrix {
        let mut b = MatrixBuilder::with_dims(4, 3);
        b.push(UserId::new(0), ItemId::new(0), 5.0);
        b.push(UserId::new(0), ItemId::new(1), 3.0);
        b.push(UserId::new(1), ItemId::new(0), 3.0);
        // user 2 and 3 rate nothing; item 2 unrated
        b.build().unwrap()
    }

    #[test]
    fn counts_and_density() {
        let s = MatrixStats::compute(&matrix());
        assert_eq!(s.active_users, 2);
        assert_eq!(s.num_users, 4);
        assert_eq!(s.active_items, 2);
        assert_eq!(s.num_items, 3);
        assert_eq!(s.num_ratings, 3);
        assert!((s.density - 3.0 / 12.0).abs() < 1e-12);
        assert!((s.avg_ratings_per_user - 1.5).abs() < 1e-12);
    }

    #[test]
    fn rating_value_stats() {
        let s = MatrixStats::compute(&matrix());
        assert_eq!(s.distinct_rating_values, 2); // {3, 5}
        assert_eq!(s.min_rating, 3.0);
        assert_eq!(s.max_rating, 5.0);
        assert_eq!(s.min_ratings_per_user, 1);
        assert_eq!(s.max_ratings_per_user, 2);
        assert!((s.global_mean - 11.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn display_mentions_table_one_rows() {
        let text = MatrixStats::compute(&matrix()).to_string();
        assert!(text.contains("No. of users"));
        assert!(text.contains("Density of data"));
        assert!(text.contains("25.00%"));
    }
}
