//! The paper's evaluation protocol (§V-A).
//!
//! From a 500-user dataset the paper takes the *first* 100/200/300 users
//! as training profiles (ML_100/200/300) and the *last* 200 users as test
//! users. Each test user reveals `Given N ∈ {5, 10, 20}` of their ratings
//! to the system; every other rating of theirs is held out and predicted,
//! and MAE is computed over those holdout cells.
//!
//! The resulting [`Split`] contains one training matrix (training users'
//! full rows + test users' revealed rows — this is what every algorithm
//! trains on) and the holdout list.

use cf_matrix::{ItemId, MatrixBuilder, RatingMatrix, UserId};
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::Dataset;

/// How many leading users form the training population.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrainSize {
    /// First `n` users (the paper's ML_100/ML_200/ML_300).
    Users(usize),
}

impl TrainSize {
    /// The user count.
    pub fn count(self) -> usize {
        match self {
            Self::Users(n) => n,
        }
    }

    /// The paper's label for this training set ("ML_300" etc.).
    pub fn label(self) -> String {
        format!("ML_{}", self.count())
    }
}

/// How many ratings each test user reveals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GivenN {
    /// Reveal 5 ratings.
    Given5,
    /// Reveal 10 ratings.
    Given10,
    /// Reveal 20 ratings.
    Given20,
    /// Reveal an arbitrary number (for sweeps beyond the paper's grid).
    Custom(usize),
}

impl GivenN {
    /// Number of revealed ratings.
    pub fn count(self) -> usize {
        match self {
            Self::Given5 => 5,
            Self::Given10 => 10,
            Self::Given20 => 20,
            Self::Custom(n) => n,
        }
    }

    /// The paper's label ("Given5" etc.).
    pub fn label(self) -> String {
        format!("Given{}", self.count())
    }

    /// The three configurations used throughout the paper's evaluation.
    pub fn paper_grid() -> [GivenN; 3] {
        [Self::Given5, Self::Given10, Self::Given20]
    }
}

/// A single held-out rating to predict.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HoldoutCell {
    /// The test user.
    pub user: UserId,
    /// The held-out item.
    pub item: ItemId,
    /// The true rating.
    pub rating: f64,
}

/// Errors from an inconsistent protocol request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// Training + test users exceed the dataset's user count.
    NotEnoughUsers {
        /// Users required by the protocol.
        required: usize,
        /// Users available in the dataset.
        available: usize,
    },
    /// The test population would be empty.
    NoTestUsers,
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NotEnoughUsers {
                required,
                available,
            } => write!(
                f,
                "protocol needs {required} users but the dataset has {available}"
            ),
            Self::NoTestUsers => write!(f, "protocol selects zero test users"),
        }
    }
}

impl std::error::Error for ProtocolError {}

/// The paper's train/test split policy.
#[derive(Debug, Clone)]
pub struct Protocol {
    /// Size of the training population (first users of the dataset).
    pub train: TrainSize,
    /// Ratings revealed per test user.
    pub given: GivenN,
    /// Number of test users, taken from the *end* of the dataset
    /// (paper: 200).
    pub test_users: usize,
    /// Fraction of the test users actually evaluated (Fig. 5 sweeps
    /// 10%–100%); selection is seeded and order-preserving.
    pub test_fraction: f64,
    /// Seed controlling which ratings are revealed and which test users
    /// survive `test_fraction`.
    pub seed: u64,
}

impl Protocol {
    /// A protocol with full test population, matching Tables II/III.
    pub fn new(train: TrainSize, given: GivenN, test_users: usize) -> Self {
        Self {
            train,
            given,
            test_users,
            test_fraction: 1.0,
            seed: 2009, // year of the paper; any fixed value works
        }
    }

    /// The paper's configuration: 200 test users.
    pub fn paper(train: TrainSize, given: GivenN) -> Self {
        Self::new(train, given, 200)
    }

    /// Overrides the evaluated fraction of test users (Fig. 5).
    #[must_use]
    pub fn with_test_fraction(mut self, fraction: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "fraction must be in [0, 1]"
        );
        self.test_fraction = fraction;
        self
    }

    /// Overrides the protocol seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Applies the protocol to a dataset.
    pub fn split(&self, dataset: &Dataset) -> Result<Split, ProtocolError> {
        let m = &dataset.matrix;
        let total = m.num_users();
        let train_n = self.train.count();
        if self.test_users == 0 {
            return Err(ProtocolError::NoTestUsers);
        }
        if train_n + self.test_users > total {
            return Err(ProtocolError::NotEnoughUsers {
                required: train_n + self.test_users,
                available: total,
            });
        }

        let test_start = total - self.test_users;
        let mut rng = rand::rngs::StdRng::seed_from_u64(self.seed);

        // Which test users are evaluated (Fig. 5's 10%..100% sweeps).
        let mut evaluated: Vec<usize> = (test_start..total).collect();
        evaluated.shuffle(&mut rng);
        let keep = ((self.test_users as f64 * self.test_fraction).round() as usize)
            .clamp(1, self.test_users);
        evaluated.truncate(keep);
        evaluated.sort_unstable();

        let mut b = MatrixBuilder::with_dims(total, m.num_items()).scale(m.scale());
        // Training users contribute full profiles.
        for u in 0..train_n {
            let u = UserId::from(u);
            for (i, r) in m.user_ratings(u) {
                b.push(u, i, r);
            }
        }

        // Every test user reveals `given` ratings (chosen reproducibly);
        // evaluated test users' remaining ratings go to the holdout.
        let given = self.given.count();
        let mut holdout = Vec::new();
        for uu in test_start..total {
            let u = UserId::from(uu);
            let profile: Vec<(ItemId, f64)> = m.user_ratings(u).collect();
            let mut order: Vec<usize> = (0..profile.len()).collect();
            order.shuffle(&mut rng);
            let is_evaluated = evaluated.binary_search(&uu).is_ok();
            for (pos, &idx) in order.iter().enumerate() {
                let (i, r) = profile[idx];
                if pos < given {
                    b.push(u, i, r);
                } else if is_evaluated {
                    holdout.push(HoldoutCell {
                        user: u,
                        item: i,
                        rating: r,
                    });
                }
            }
        }

        // Deterministic holdout order regardless of shuffling.
        holdout.sort_unstable_by_key(|c| (c.user, c.item));

        let train = b
            .build()
            .unwrap_or_else(|e| unreachable!("split of a valid dataset is valid: {e}"));
        Ok(Split {
            label: format!("{}/{}", self.train.label(), self.given.label()),
            train,
            holdout,
            train_users: train_n,
            test_start,
        })
    }
}

/// A materialized train/holdout split.
#[derive(Debug, Clone)]
pub struct Split {
    /// "ML_300/Given10"-style label for reports.
    pub label: String,
    /// The matrix algorithms train on: full training rows + revealed test
    /// rows. Dimensions match the source dataset.
    pub train: RatingMatrix,
    /// Cells to predict, sorted by (user, item).
    pub holdout: Vec<HoldoutCell>,
    /// Number of leading training users.
    pub train_users: usize,
    /// Index of the first test user.
    pub test_start: usize,
}

impl Split {
    /// Ids of the test users (all of them, evaluated or not).
    pub fn test_users(&self) -> impl ExactSizeIterator<Item = UserId> + '_ {
        (self.test_start..self.train.num_users()).map(UserId::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SyntheticConfig;

    fn dataset() -> Dataset {
        SyntheticConfig::small().generate() // 80 users × 120 items
    }

    #[test]
    fn split_partitions_test_ratings() {
        let d = dataset();
        let p = Protocol::new(TrainSize::Users(40), GivenN::Given5, 20);
        let s = p.split(&d).unwrap();
        assert_eq!(s.train.num_users(), 80);
        assert_eq!(s.train_users, 40);
        assert_eq!(s.test_start, 60);
        // Every test user has exactly 5 ratings in the training matrix
        // (the generator guarantees ≥12 per user).
        for u in s.test_users() {
            assert_eq!(s.train.user_count(u), 5, "user {u:?}");
        }
        // holdout + revealed = original profile for each test user
        for u in s.test_users() {
            let original = d.matrix.user_count(u);
            let held: usize = s.holdout.iter().filter(|c| c.user == u).count();
            assert_eq!(held + 5, original, "user {u:?}");
        }
    }

    #[test]
    fn holdout_cells_carry_true_ratings_and_are_absent_from_train() {
        let d = dataset();
        let s = Protocol::new(TrainSize::Users(40), GivenN::Given10, 20)
            .split(&d)
            .unwrap();
        assert!(!s.holdout.is_empty());
        for c in &s.holdout {
            assert_eq!(d.matrix.get(c.user, c.item), Some(c.rating));
            assert_eq!(s.train.get(c.user, c.item), None);
        }
    }

    #[test]
    fn users_between_train_and_test_are_excluded() {
        let d = dataset();
        let s = Protocol::new(TrainSize::Users(30), GivenN::Given5, 20)
            .split(&d)
            .unwrap();
        // users 30..59 are in neither population
        for u in 30..60usize {
            assert_eq!(s.train.user_count(UserId::from(u)), 0, "user {u}");
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let d = dataset();
        let p = Protocol::new(TrainSize::Users(40), GivenN::Given5, 20);
        let a = p.split(&d).unwrap();
        let b = p.split(&d).unwrap();
        assert_eq!(a.holdout, b.holdout);
        let c = p.clone().with_seed(1).split(&d).unwrap();
        assert_ne!(a.holdout, c.holdout);
    }

    #[test]
    fn test_fraction_scales_holdout_population() {
        let d = dataset();
        let full = Protocol::new(TrainSize::Users(40), GivenN::Given5, 20)
            .split(&d)
            .unwrap();
        let half = Protocol::new(TrainSize::Users(40), GivenN::Given5, 20)
            .with_test_fraction(0.5)
            .split(&d)
            .unwrap();
        let users_full: std::collections::BTreeSet<_> =
            full.holdout.iter().map(|c| c.user).collect();
        let users_half: std::collections::BTreeSet<_> =
            half.holdout.iter().map(|c| c.user).collect();
        assert_eq!(users_full.len(), 20);
        assert_eq!(users_half.len(), 10);
        assert!(users_half.is_subset(&users_full));
        // revealed ratings are identical: fraction only affects evaluation
        for u in half.test_users() {
            assert_eq!(half.train.user_count(u), 5);
        }
    }

    #[test]
    fn errors_when_populations_overlap() {
        let d = dataset();
        let e = Protocol::new(TrainSize::Users(70), GivenN::Given5, 20)
            .split(&d)
            .unwrap_err();
        assert_eq!(
            e,
            ProtocolError::NotEnoughUsers {
                required: 90,
                available: 80
            }
        );
        let e = Protocol::new(TrainSize::Users(10), GivenN::Given5, 0)
            .split(&d)
            .unwrap_err();
        assert_eq!(e, ProtocolError::NoTestUsers);
    }

    #[test]
    fn labels_match_paper_nomenclature() {
        assert_eq!(TrainSize::Users(300).label(), "ML_300");
        assert_eq!(GivenN::Given10.label(), "Given10");
        assert_eq!(GivenN::Custom(7).label(), "Given7");
        let d = dataset();
        let s = Protocol::new(TrainSize::Users(40), GivenN::Given20, 20)
            .split(&d)
            .unwrap();
        assert_eq!(s.label, "ML_40/Given20");
    }

    #[test]
    fn given_larger_than_profile_reveals_everything() {
        let d = dataset();
        let s = Protocol::new(TrainSize::Users(40), GivenN::Custom(10_000), 20)
            .split(&d)
            .unwrap();
        assert!(s.holdout.is_empty());
        for u in s.test_users() {
            assert_eq!(s.train.user_count(u), d.matrix.user_count(u));
        }
    }
}
