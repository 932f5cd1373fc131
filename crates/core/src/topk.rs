//! Bounded partial selection: the top `k` of a scored stream in `O(n log k)`
//! time and `O(k)` memory, replacing full `sort_by` + `truncate` on the
//! serving path (neighbor selection, top-N recommendation).
//!
//! [`top_k_bounded`] is the same selection when scores are expensive and
//! cheap upper bounds exist: it scores candidates best bound first and
//! stops as soon as no remaining bound can displace the current `k`-th
//! best.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A heap entry ordered so the **worst** candidate under the serving
/// ranking (descending score, then ascending id) sits at the root of a
/// max-heap and is the first to be displaced.
struct Worst<T>(T, f64);

impl<T: Ord> PartialEq for Worst<T> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl<T: Ord> Eq for Worst<T> {}
impl<T: Ord> PartialOrd for Worst<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T: Ord> Ord for Worst<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Lower score is worse; on ties, the higher id is worse — exactly
        // the reverse of the output order, so the heap max is the first
        // element `truncate(k)` would have dropped.
        other
            .1
            .total_cmp(&self.1)
            .then_with(|| self.0.cmp(&other.0))
    }
}

/// The running top `k`: a max-heap of the kept entries, worst at the root.
struct Selection<T> {
    k: usize,
    heap: BinaryHeap<Worst<T>>,
}

impl<T: Copy + Ord> Selection<T> {
    fn new(k: usize) -> Self {
        Self {
            k,
            heap: BinaryHeap::with_capacity(k + 1),
        }
    }

    /// True when `(id, score)` would enter the selection: it is not full
    /// yet, or the pair ranks strictly above the current worst.
    fn admits(&self, id: T, score: f64) -> bool {
        self.heap.len() < self.k
            || self
                .heap
                .peek()
                .is_some_and(|worst| score > worst.1 || (score == worst.1 && id < worst.0))
    }

    fn offer(&mut self, id: T, score: f64) {
        if self.admits(id, score) {
            if self.heap.len() == self.k {
                self.heap.pop();
            }
            self.heap.push(Worst(id, score));
        }
    }

    fn into_sorted(self) -> Vec<(T, f64)> {
        let mut out: Vec<(T, f64)> = self.heap.into_iter().map(|Worst(id, s)| (id, s)).collect();
        out.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }
}

/// Selects the top `k` entries of `scored` under (descending score,
/// ascending id) — the exact order the serving path's former
/// `sort_by` + `truncate(k)` produced, deterministically and regardless
/// of input order (ids are assumed unique). Scores must be finite.
///
/// Public because the sharded serving tier's scatter-gather merge must
/// rank with *exactly* this comparator: the global top-`k` of the union
/// of per-stripe top-`k`s is then bit-for-bit the single-process answer.
pub fn top_k_by_score<T, I>(k: usize, scored: I) -> Vec<(T, f64)>
where
    T: Copy + Ord,
    I: IntoIterator<Item = (T, f64)>,
{
    if k == 0 {
        return Vec::new();
    }
    let mut selection = Selection::new(k);
    for (id, score) in scored {
        selection.offer(id, score);
    }
    selection.into_sorted()
}

/// [`top_k_by_score`] over `(id, upper bound)` candidates whose exact
/// score costs a call to `exact`: returns exactly what `top_k_by_score`
/// returns on `(id, exact(id))` for every candidate, provided each bound
/// is at least its exact score (`+∞` is a valid bound).
///
/// Candidates are visited in (descending bound, ascending id) order and
/// scored until the next one cannot enter the selection even if its
/// score reached its bound. Every candidate after it has a bound no
/// greater, or an equal bound and a greater id, so it cannot enter
/// either and is never scored.
pub fn top_k_bounded<T, I, F>(k: usize, candidates: I, mut exact: F) -> Vec<(T, f64)>
where
    T: Copy + Ord,
    I: IntoIterator<Item = (T, f64)>,
    F: FnMut(T) -> f64,
{
    if k == 0 {
        return Vec::new();
    }
    let mut order: Vec<(T, f64)> = candidates.into_iter().collect();
    order.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    let mut selection = Selection::new(k);
    for (id, bound) in order {
        if !selection.admits(id, bound) {
            break;
        }
        selection.offer(id, exact(id));
    }
    selection.into_sorted()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn reference(k: usize, mut v: Vec<(u32, f64)>) -> Vec<(u32, f64)> {
        v.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite").then(a.0.cmp(&b.0)));
        v.truncate(k);
        v
    }

    #[test]
    fn matches_sort_truncate_with_ties() {
        let scored = vec![
            (5u32, 0.5),
            (1, 0.9),
            (9, 0.5),
            (2, 0.9),
            (7, 0.1),
            (3, 0.5),
            (0, 0.7),
        ];
        for k in 0..=8 {
            assert_eq!(
                top_k_by_score(k, scored.iter().copied()),
                reference(k, scored.clone()),
                "k={k}"
            );
        }
    }

    #[test]
    fn deterministic_across_input_orders() {
        let mut scored: Vec<(u32, f64)> = (0..200)
            .map(|i| (i, ((i * 37) % 50) as f64 / 10.0))
            .collect();
        let expect = reference(10, scored.clone());
        scored.reverse();
        assert_eq!(top_k_by_score(10, scored.iter().copied()), expect);
        // interleave
        let interleaved: Vec<_> = scored
            .chunks(2)
            .rev()
            .flat_map(|c| c.iter().copied())
            .collect();
        assert_eq!(top_k_by_score(10, interleaved), expect);
    }

    /// Up to 40 candidates with unique ids, in shuffled order. Scores
    /// come from six values, so ties are common; each bound is the score
    /// itself, `+∞`, or the score plus a slack that is often enough to tie
    /// another candidate's score.
    fn bounded_candidates() -> impl Strategy<Value = Vec<(u32, f64, f64)>> {
        proptest::collection::vec((0u8..6, 0u8..4, 0u8..8, 0u32..1000), 0..40).prop_map(|raw| {
            let mut keyed: Vec<(u32, (u32, f64, f64))> = raw
                .into_iter()
                .enumerate()
                .map(|(id, (s, kind, slack, key))| {
                    let score = f64::from(s) * 0.5;
                    let bound = match kind {
                        0 => score,
                        1 => f64::INFINITY,
                        _ => score + f64::from(slack) * 0.25,
                    };
                    (key, (id as u32, score, bound))
                })
                .collect();
            keyed.sort_by_key(|&(key, (id, _, _))| (key, id));
            keyed.into_iter().map(|(_, c)| c).collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn bounded_selection_equals_exhaustive_selection(cands in bounded_candidates()) {
            let len = cands.len();
            let exact: std::collections::HashMap<u32, f64> =
                cands.iter().map(|&(id, s, _)| (id, s)).collect();
            for k in [0, 1, len.saturating_sub(1), len, len + 5] {
                let want = top_k_by_score(k, cands.iter().map(|&(id, s, _)| (id, s)));
                let mut scored = Vec::new();
                let got = top_k_bounded(k, cands.iter().map(|&(id, _, ub)| (id, ub)), |id| {
                    scored.push(id);
                    exact[&id]
                });
                prop_assert!(got.len() == want.len(), "k={}", k);
                for (g, w) in got.iter().zip(&want) {
                    prop_assert!(g.0 == w.0, "k={}", k);
                    prop_assert!(g.1.to_bits() == w.1.to_bits(), "k={}", k);
                }
                let distinct: std::collections::HashSet<u32> = scored.iter().copied().collect();
                prop_assert!(distinct.len() == scored.len(), "a candidate was scored twice");
            }
        }
    }

    #[test]
    fn bounded_selection_stops_at_the_first_hopeless_bound() {
        // Exact bounds: once the top 2 are scored, the third bound is
        // below the 2nd best and nothing else is scored.
        let cands = [(4u32, 3.0), (1, 5.0), (2, 1.0), (3, 4.0), (0, 2.0)];
        let mut scored = Vec::new();
        let got = top_k_bounded(2, cands, |id| {
            scored.push(id);
            cands.iter().find(|c| c.0 == id).map_or(f64::NAN, |c| c.1)
        });
        assert_eq!(got, vec![(1, 5.0), (3, 4.0)]);
        assert_eq!(scored, vec![1, 3]);
        // A bound equal to the k-th best with a lower id must still be
        // scored (it would win the tie); a higher id need not be.
        let mut scored = Vec::new();
        let got = top_k_bounded(1, [(5u32, 2.0), (3, 2.0), (7, 2.0)], |id| {
            scored.push(id);
            2.0
        });
        assert_eq!(got, vec![(3, 2.0)]);
        assert_eq!(scored, vec![3]);
    }

    #[test]
    fn short_streams_and_zero_k() {
        assert!(top_k_by_score::<u32, _>(0, vec![(1, 1.0)]).is_empty());
        assert!(top_k_by_score::<u32, _>(5, Vec::new()).is_empty());
        assert_eq!(top_k_by_score(5, vec![(3u32, 2.0)]), vec![(3, 2.0)]);
    }
}
