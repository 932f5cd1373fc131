//! Bounded top-N against the exhaustive scan it replaces.
//!
//! `recommend_top_n_in_range` scores `SUIR'` only for items whose upper
//! bound can still enter the top `n`. Its answer must be bit-identical to
//! ranking every unrated item's `predict` with `top_k_by_score` — the
//! test-local oracle below — across the fusion weights, both plane
//! precisions, smoothing on and off, several stripe cuts and list lengths.

use cf_matrix::{
    ItemId, MatrixBuilder, PlanePrecision, Predictor, RatingMatrix, RatingScale, UserId,
};
use cfsf_core::topk::top_k_by_score;
use cfsf_core::{Cfsf, CfsfConfig};

/// Every unrated item's prediction for `user`, by item index (`None` for
/// rated items).
fn predictions(m: &Cfsf, user: UserId) -> Vec<Option<f64>> {
    (0..m.matrix().num_items())
        .map(ItemId::from)
        .map(|i| {
            if m.matrix().is_rated(user, i) {
                None
            } else {
                m.predict(user, i)
            }
        })
        .collect()
}

/// The exhaustive scan: `top_k_by_score` over every unrated item of the
/// stripe.
fn oracle(preds: &[Option<f64>], n: usize, stripe: std::ops::Range<u32>) -> Vec<(ItemId, f64)> {
    top_k_by_score(
        n,
        stripe.filter_map(|i| preds[i as usize].map(|r| (ItemId::new(i), r))),
    )
}

fn assert_bit_identical(got: &[(ItemId, f64)], want: &[(ItemId, f64)], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (rank, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.0, w.0, "{what}: item at rank {rank}");
        assert_eq!(
            g.1.to_bits(),
            w.1.to_bits(),
            "{what}: score at rank {rank} ({} vs {})",
            g.1,
            w.1
        );
    }
}

/// Checks `users` of `m` at every `n` in `ns` over every stripe cut in
/// {1, 2, 3, 5}.
fn check_model(m: &Cfsf, users: &[usize], ns: &[usize], label: &str) {
    let items = m.matrix().num_items() as u32;
    for &u in users {
        let user = UserId::from(u);
        let preds = predictions(m, user);
        for &n in ns {
            for stripes in [1u32, 2, 3, 5] {
                for s in 0..stripes {
                    let stripe = s * items / stripes..(s + 1) * items / stripes;
                    let got = m.recommend_top_n_in_range(user, n, stripe.clone());
                    let want = oracle(&preds, n, stripe.clone());
                    assert_bit_identical(
                        &got,
                        &want,
                        &format!("{label} user={u} n={n} stripe={stripe:?}"),
                    );
                }
            }
        }
    }
}

/// Reparameterizes `base` to every plane precision × smoothing ×
/// λ ∈ {0, 0.5, 0.8, 1} × `deltas` point and checks each.
fn check_grid(base: &Cfsf, deltas: &[f64], users: &[usize], ns: &[usize], name: &str) {
    for precision in [PlanePrecision::U16, PlanePrecision::U8] {
        for smoothing in [true, false] {
            for lambda in [0.0, 0.5, 0.8, 1.0] {
                for &delta in deltas {
                    let m = base
                        .reparameterize(|c| {
                            c.plane_precision = precision;
                            c.use_smoothing = smoothing;
                            c.lambda = lambda;
                            c.delta = delta;
                        })
                        .unwrap();
                    let label =
                        format!("{name} {precision:?} smoothing={smoothing} λ={lambda} δ={delta}");
                    check_model(&m, users, ns, &label);
                }
            }
        }
    }
}

#[test]
fn bounded_top_n_equals_the_exhaustive_scan_over_the_grid() {
    let d = cf_data::SyntheticConfig::small().generate();
    let base = Cfsf::fit(&d.matrix, CfsfConfig::small()).unwrap();
    let all = d.matrix.num_items();
    check_grid(
        &base,
        &[0.0, 0.1, 1.0],
        &[0, 7, 23, 41, 66, 79],
        &[1, 10, all],
        "small",
    );
}

/// A sparse variant of the small dataset (8 ratings per user over 240
/// items) on a 1–6 scale its 1–5 ratings never reach. Most items have no
/// similar items, so `SUIR'` is often missing while `SUR'` is not, and
/// fused predictions can pass the planes' top rating without being
/// clamped: the cases where a wrong bound would show.
fn sparse_matrix() -> RatingMatrix {
    let d = cf_data::SyntheticConfig {
        num_items: 240,
        mean_ratings_per_user: 8.0,
        min_ratings_per_user: 4,
        ..cf_data::SyntheticConfig::small()
    }
    .generate();
    let (users, items) = (d.matrix.num_users(), d.matrix.num_items());
    let mut b = MatrixBuilder::with_dims(users, items).scale(RatingScale::new(1.0, 6.0));
    for u in (0..users).map(UserId::from) {
        let (rated, ratings) = d.matrix.user_row(u);
        for (&i, &r) in rated.iter().zip(ratings) {
            b.push(u, i, r);
        }
    }
    b.build().unwrap()
}

/// The sparse fixture, every user. Only `0 < δ < 1` makes the bound
/// depend on the ceiling (at `δ = 0` it has no weight, at `δ = 1` every
/// bound is `+∞`), and `n` no smaller than the stripe never prunes, so
/// this runs `δ = 0.1` and `n ∈ {1, 10}`: the wrong answers a bad bound
/// gives here are spread over a handful of users.
#[test]
fn bounded_top_n_equals_the_exhaustive_scan_where_sir_sur_pass_the_ceiling() {
    let matrix = sparse_matrix();
    let base = Cfsf::fit(&matrix, CfsfConfig::small()).unwrap();
    let users: Vec<usize> = (0..matrix.num_users()).collect();
    check_grid(&base, &[0.1], &users, &[1, 10], "sparse");
}

#[test]
fn top_n_telemetry_accounts_for_every_unrated_item() {
    let d = cf_data::SyntheticConfig::small().generate();
    let m = Cfsf::fit(&d.matrix, CfsfConfig::small()).unwrap();
    let counter = |name: &str| cf_obs::global().counter(name).get();
    let user = UserId::new(5);
    let unrated = (0..m.matrix().num_items())
        .filter(|&i| !m.matrix().is_rated(user, ItemId::from(i)))
        .count() as u64;
    let before = (
        counter("online.topn.scored"),
        counter("online.topn.pruned"),
        cf_obs::global()
            .histogram("online.topn_ns")
            .snapshot()
            .count,
    );
    let recs = m.recommend_top_n(user, 10);
    assert_eq!(recs.len(), 10);
    let scored = counter("online.topn.scored") - before.0;
    let pruned = counter("online.topn.pruned") - before.1;
    // Other tests in this binary may recommend concurrently, so the
    // deltas are lower bounds on this request's own counts.
    assert!(scored >= 10, "at least the n returned items are scored");
    assert!(scored + pruned >= unrated);
    assert!(
        cf_obs::global()
            .histogram("online.topn_ns")
            .snapshot()
            .count
            > before.2
    );
}

#[test]
fn out_of_range_users_and_empty_stripes_recommend_nothing() {
    let d = cf_data::SyntheticConfig::small().generate();
    let m = Cfsf::fit(&d.matrix, CfsfConfig::small()).unwrap();
    let users = m.matrix().num_users() as u32;
    assert!(m.recommend_top_n(UserId::new(users), 5).is_empty());
    assert!(m
        .recommend_top_n_in_range(UserId::new(0), 5, 40..40)
        .is_empty());
    assert!(m
        .recommend_top_n_in_range(UserId::new(0), 5, 10_000..20_000)
        .is_empty());
    assert!(m.recommend_top_n(UserId::new(0), 0).is_empty());
}
