//! Correctness: router answers against the in-process model, the fast
//! kernel against the reference kernel, and the `mae` pass.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::Arc;

use cf_data::HoldoutCell;
use cf_matrix::{ItemId, UserId};
use cf_serve::router::shard_for_user;
use cf_serve::ShardClient;
use cfsf_core::Cfsf;

use crate::drive::{exchange, Outcome};
use crate::fleet::client_options;
use crate::streams::{Req, TOP_N};

/// In-process answers to compare router answers with, memoized per
/// request. Each user is answered by the model of the shard that owns it.
pub struct Oracle {
    models: Vec<Arc<Cfsf>>,
    predicts: HashMap<(u32, u32), Option<(u64, bool)>>,
    ranked: HashMap<u32, Vec<(u32, u64)>>,
}

impl Oracle {
    /// Answers every user from `models[shard_for_user(user)]`; one model
    /// answers everything.
    pub fn new(models: Vec<Arc<Cfsf>>) -> Self {
        assert!(!models.is_empty());
        Self {
            models,
            predicts: HashMap::new(),
            ranked: HashMap::new(),
        }
    }

    fn model(&self, user: u32) -> &Cfsf {
        &self.models[shard_for_user(user, self.models.len())]
    }

    /// Whether `outcome` is exactly the in-process answer to `req`: the
    /// prediction bit for bit with the same fallback flag, or the same
    /// top-N list with bit-identical scores. A failed request never is.
    pub fn agrees(&mut self, req: Req, outcome: &Outcome) -> bool {
        match (req, outcome) {
            (Req::Predict { user, item }, Outcome::Predicted { fused, fallback }) => {
                let want = *self.predicts.entry((user, item)).or_insert_with(|| {
                    self.models[shard_for_user(user, self.models.len())]
                        .predict_with_breakdown(UserId::new(user), ItemId::new(item))
                        .map(|b| (b.fused.to_bits(), b.used_fallback))
                });
                want == Some((fused.to_bits(), *fallback))
            }
            (Req::TopN { user }, Outcome::Ranked(items)) => {
                if !self.ranked.contains_key(&user) {
                    let want = self
                        .model(user)
                        .recommend_top_n(UserId::new(user), TOP_N as usize)
                        .into_iter()
                        .map(|(i, s)| (i.raw(), s.to_bits()))
                        .collect();
                    self.ranked.insert(user, want);
                }
                let want = &self.ranked[&user];
                want.len() == items.len()
                    && want
                        .iter()
                        .zip(items)
                        .all(|(&(wi, ws), &(i, s))| wi == i && ws == s.to_bits())
            }
            _ => false,
        }
    }
}

/// The result of checking a set of answers.
#[derive(Debug, Default, Clone, Copy)]
pub struct Verdict {
    /// Answers compared with the oracle.
    pub checked: usize,
    /// Compared answers that differed.
    pub mismatches: usize,
    /// Requests that failed outright.
    pub failed: usize,
}

impl Verdict {
    /// Sums two verdicts.
    pub fn add(self, o: Verdict) -> Verdict {
        Verdict {
            checked: self.checked + o.checked,
            mismatches: self.mismatches + o.mismatches,
            failed: self.failed + o.failed,
        }
    }
}

/// Checks `(request, outcome)` pairs: every predict, and the top-N
/// answers of at most `topn_users` distinct users (in pair order, so the
/// same ones on every run of a seed); a scale-sized top-N costs tens of
/// milliseconds in process.
pub fn check<'a>(
    oracle: &mut Oracle,
    pairs: impl IntoIterator<Item = (Req, &'a Outcome)>,
    topn_users: usize,
) -> Verdict {
    let mut v = Verdict::default();
    for (req, outcome) in pairs {
        if matches!(outcome, Outcome::Failed) {
            v.failed += 1;
            continue;
        }
        if let Req::TopN { user } = req {
            if !oracle.ranked.contains_key(&user) && oracle.ranked.len() >= topn_users {
                continue;
            }
        }
        v.checked += 1;
        v.mismatches += usize::from(!oracle.agrees(req, outcome));
    }
    v
}

/// The fast kernel against `predict_with_breakdown_ref` on every distinct
/// predict of `reqs`: availability, degrade level and `m_used` equal, the
/// value within `plane_quant_step() + 1e-9`. Returns `(checked,
/// violations, worst error)`.
pub fn kernel_tolerance(model: &Cfsf, reqs: &[Req]) -> (usize, usize, f64) {
    let tol = model.plane_quant_step() + 1e-9;
    let mut seen = std::collections::HashSet::new();
    let (mut checked, mut bad, mut worst) = (0, 0, 0.0f64);
    for &r in reqs {
        let Req::Predict { user, item } = r else {
            continue;
        };
        if !seen.insert((user, item)) {
            continue;
        }
        let (u, i) = (UserId::new(user), ItemId::new(item));
        checked += 1;
        match (
            model.predict_with_breakdown(u, i),
            model.predict_with_breakdown_ref(u, i),
        ) {
            (Some(fast), Some(reference)) => {
                let err = (fast.fused - reference.fused).abs();
                worst = worst.max(err);
                if err > tol || fast.level != reference.level || fast.m_used != reference.m_used {
                    bad += 1;
                }
            }
            (None, None) => {}
            _ => bad += 1,
        }
    }
    (checked, bad, worst)
}

/// The `mae` pass: every holdout cell predicted through the router on
/// `connections` connections, each answer checked against the oracle.
pub struct MaePass {
    /// Mean absolute error of the router's answers.
    pub mae: f64,
    /// Requests sent.
    pub attempted: usize,
    /// Failures and mismatches.
    pub verdict: Verdict,
}

/// Sends `reqs` through the router at `addr`, split over `connections`
/// connections, one request at a time per connection; answers come back
/// in request order.
pub fn router_pass(
    addr: SocketAddr,
    reqs: &[Req],
    connections: usize,
) -> std::io::Result<Vec<Outcome>> {
    let chunk = reqs.len().div_ceil(connections.max(1)).max(1);
    let parts: Vec<Vec<Outcome>> = std::thread::scope(|s| {
        let handles: Vec<_> = reqs
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || -> std::io::Result<Vec<Outcome>> {
                    let mut client = ShardClient::connect(addr, client_options())?;
                    let mut out = Vec::with_capacity(part.len());
                    for &req in part {
                        out.push(match exchange(&mut client, req) {
                            Ok(o) => o,
                            Err(()) => {
                                client = ShardClient::connect(addr, client_options())?;
                                Outcome::Failed
                            }
                        });
                    }
                    Ok(out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("router pass thread panicked"))
            .collect::<std::io::Result<_>>()
    })?;
    Ok(parts.into_iter().flatten().collect())
}

/// Runs the `mae` pass against the router at `addr`.
pub fn mae_pass(
    addr: SocketAddr,
    cells: &[HoldoutCell],
    oracle: &mut Oracle,
    connections: usize,
) -> std::io::Result<MaePass> {
    let reqs: Vec<Req> = cells
        .iter()
        .map(|c| Req::Predict {
            user: c.user.raw(),
            item: c.item.raw(),
        })
        .collect();
    let outcomes = router_pass(addr, &reqs, connections)?;
    let mut pass = MaePass {
        mae: 0.0,
        attempted: cells.len(),
        verdict: Verdict::default(),
    };
    let mut abs_err = 0.0;
    let mut answered = 0usize;
    for (c, o) in cells.iter().zip(&outcomes) {
        if let Outcome::Predicted { fused, .. } = o {
            abs_err += (fused - c.rating).abs();
            answered += 1;
        }
    }
    pass.verdict = check(oracle, reqs.iter().copied().zip(&outcomes), usize::MAX);
    pass.mae = abs_err / answered.max(1) as f64;
    Ok(pass)
}

/// Predicts of `reqs` on which two models differ in value bits or
/// fallback flag.
pub fn disagreements(a: &Cfsf, b: &Cfsf, reqs: &[Req]) -> usize {
    let answer = |m: &Cfsf, user, item| {
        m.predict_with_breakdown(UserId::new(user), ItemId::new(item))
            .map(|p| (p.fused.to_bits(), p.used_fallback))
    };
    reqs.iter()
        .filter(|&&r| match r {
            Req::Predict { user, item } => answer(a, user, item) != answer(b, user, item),
            Req::TopN { .. } => false,
        })
        .count()
}
