//! Wall-clock measurement of the online phase (Fig. 5's metric).

use std::time::{Duration, Instant};

use cf_data::HoldoutCell;
use cf_matrix::Predictor;

/// Predicts every holdout cell once and returns the elapsed wall time.
///
/// This is the paper's "response time" metric: how long the *online*
/// phase takes to serve a whole testset. The offline phase (fitting) is
/// deliberately excluded, matching §V-D.
pub fn time_predictions<P: Predictor + ?Sized>(predictor: &P, holdout: &[HoldoutCell]) -> Duration {
    let start = Instant::now();
    for cell in holdout {
        // The value is consumed through a black box so the optimizer can't
        // hoist or skip predictions.
        std::hint::black_box(predictor.predict(cell.user, cell.item));
    }
    start.elapsed()
}

/// The wall time of `a` and of `b`, each the best of `runs` runs (at least
/// one) taken in alternation. One sample of a sub-second run is at the
/// mercy of host noise; alternating makes a noisy stretch slow both sides
/// rather than one, and the minimum keeps the run with the least noise.
pub fn best_of_alternating(
    runs: usize,
    mut a: impl FnMut() -> Duration,
    mut b: impl FnMut() -> Duration,
) -> (Duration, Duration) {
    let mut best = (a(), b());
    for _ in 1..runs {
        best.0 = best.0.min(a());
        best.1 = best.1.min(b());
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use cf_matrix::{ItemId, UserId};

    struct Slow;
    impl Predictor for Slow {
        fn predict(&self, _: UserId, _: ItemId) -> Option<f64> {
            std::hint::black_box((0..2000).map(|x| x as f64).sum::<f64>());
            Some(3.0)
        }
        fn name(&self) -> &'static str {
            "slow"
        }
    }

    #[test]
    fn time_grows_with_cells() {
        let cell = |i| HoldoutCell {
            user: UserId::new(0),
            item: ItemId::new(i),
            rating: 3.0,
        };
        let small: Vec<_> = (0..50u32).map(cell).collect();
        let large: Vec<_> = (0..5000u32).map(cell).collect();
        let t_small = time_predictions(&Slow, &small);
        let t_large = time_predictions(&Slow, &large);
        assert!(t_large > t_small, "{t_large:?} !> {t_small:?}");
    }

    #[test]
    fn best_of_alternating_keeps_each_sides_fastest_run() {
        let order = std::cell::RefCell::new(Vec::new());
        let mut a_samples = [30u64, 10, 20].into_iter();
        let mut b_samples = [5u64, 7, 6].into_iter();
        let best = best_of_alternating(
            3,
            || {
                order.borrow_mut().push('a');
                Duration::from_millis(a_samples.next().unwrap_or(0))
            },
            || {
                order.borrow_mut().push('b');
                Duration::from_millis(b_samples.next().unwrap_or(0))
            },
        );
        assert_eq!(best, (Duration::from_millis(10), Duration::from_millis(5)));
        assert_eq!(order.take(), vec!['a', 'b', 'a', 'b', 'a', 'b']);
        let mut runs = 0;
        best_of_alternating(
            0,
            || {
                runs += 1;
                Duration::ZERO
            },
            || Duration::ZERO,
        );
        assert_eq!(runs, 1);
    }

    #[test]
    fn empty_holdout_is_instant() {
        let t = time_predictions(&Slow, &[]);
        assert!(t < Duration::from_millis(50));
    }
}
