//! Bounded partial selection: the top `k` of a scored stream in `O(n log k)`
//! time and `O(k)` memory, replacing full `sort_by` + `truncate` on the
//! serving path (neighbor selection, top-N recommendation).

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
    let mut heap: BinaryHeap<Worst<T>> = BinaryHeap::with_capacity(k + 1);
    for (id, score) in scored {
        if heap.len() < k {
            heap.push(Worst(id, score));
        } else {
            let beats = heap
                .peek()
                .is_some_and(|worst| score > worst.1 || (score == worst.1 && id < worst.0));
            if beats {
                heap.pop();
                heap.push(Worst(id, score));
            }
        }
    }
    let mut out: Vec<(T, f64)> = heap.into_iter().map(|Worst(id, s)| (id, s)).collect();
    out.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn short_streams_and_zero_k() {
        assert!(top_k_by_score::<u32, _>(0, vec![(1, 1.0)]).is_empty());
        assert!(top_k_by_score::<u32, _>(5, Vec::new()).is_empty());
        assert_eq!(top_k_by_score(5, vec![(3u32, 2.0)]), vec![(3, 2.0)]);
    }
}
